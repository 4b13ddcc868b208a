//! Pre-decoded micro-op programs.
//!
//! [`UopProgram::translate`] lowers a decoded [`Program`] *once* into a
//! dense linear array of micro-ops ([`Uop`]): operands extracted out of
//! the [`Instr`] enum, immediates pre-combined (LUI/AUIPC constants,
//! SIMD scalar-immediate replication, clip bounds), the [`MnemonicId`]
//! and static timing class folded into a per-op cycle constant, the
//! load-use source set flattened to a register bitmask, and direct
//! branch/jump targets resolved to micro-op *indices*. `Machine::run`
//! then drives execution off this array instead of re-matching the
//! `Instr` enum per step. The micro-op is the simulator's one executable
//! form: `Machine::run_stepping` (the reference and trace path) retires
//! the same ops one at a time with the block runner and shortcut tier off.
//! Each pure op's value semantics is defined once, here:
//! [`UopKind::dest`], [`UopKind::value`] and the per-family functions it
//! calls, which the interpreter and the shortcut verifier both use.
//!
//! On top of the linear lowering, straight-line stretches (no control
//! flow, no CSR access, no loop configuration inside) get a [`Block`]
//! descriptor, told apart by its [`BlockExit`]: the body of an
//! `lp.setup`/`lp.setupi` hardware loop, the body of a software loop
//! closed by a backward conditional branch (the RV32IMC baseline's
//! loops), or a maximal straight run between control flow and branch
//! targets, executed once per entry. Either way one pass's cycle cost,
//! per-mnemonic retire rows and load-use stall pattern are a static
//! [`Profile`], so the block runner in `machine.rs` can execute passes as
//! a tight data-only host loop and account statistics in bulk.
//! See `DESIGN.md` § "Micro-op pipeline" for the exact lowering rules and
//! fallback conditions.

use crate::error::{ExitReason, SimError};
use crate::mem::Memory;
use crate::program::Program;
use rnnasip_isa::{
    AluImmOp, AluOp, BranchOp, Csr, DotOp, Instr, LoadOp, MnemonicId, MulDivOp, PvAluOp, Reg,
    SimdMode, SimdSize, StoreOp, TimingClass,
};

/// Sentinel micro-op index: "this address is not an instruction start".
/// Stepping onto it raises [`SimError::FetchFault`](crate::SimError::FetchFault).
pub(crate) const NO_IDX: u32 = u32::MAX;

/// Sentinel block index: "no specialized block is triggered here".
pub(crate) const NO_BLOCK: u32 = u32::MAX;

/// Sentinel shortcut-region index: "no installed kernel-shortcut region
/// starts here".
pub(crate) const NO_SC: u32 = u32::MAX;

/// Minimum micro-op count for materializing a straight run: below
/// this, the per-entry trigger checks and bulk row updates cost about as
/// much as the generic bookkeeping they replace.
const MIN_RUN_LEN: usize = 4;

/// Extra latency of the serial divider beyond the base cycle (RI5CY
/// takes 2–32 cycles; the model charges the flat worst case).
pub(crate) const DIV_EXTRA_CYCLES: u64 = 31;

/// Extra latency of the `mulh*` high-half multiplies (RI5CY: 5 cycles).
pub(crate) const MULH_EXTRA_CYCLES: u64 = 4;

/// A pre-resolved direct control-flow target.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Target {
    /// Byte address of the target (what the PC is set to).
    pub addr: u32,
    /// Micro-op index of the target, or [`NO_IDX`] when the address does
    /// not start an instruction — the *next* step then fetch-faults.
    pub idx: u32,
}

/// One lowered unary ALU operation (see [`UopKind::Unary`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UnaryOp {
    /// `p.exths` — sign-extend halfword.
    ExtHs,
    /// `p.exthz` — zero-extend halfword.
    ExtHz,
    /// `p.extbs` — sign-extend byte.
    ExtBs,
    /// `p.extbz` — zero-extend byte.
    ExtBz,
    /// `p.abs`.
    Abs,
    /// `p.ff1` — find first set bit.
    Ff1,
    /// `p.fl1` — find last set bit.
    Fl1,
    /// `p.cnt` — population count.
    Cnt,
    /// `p.clb` — count leading redundant sign bits.
    Clb,
    /// `pl.tanh` — the RNN extension's tanh unit.
    Tanh,
    /// `pl.sig` — the RNN extension's sigmoid unit.
    Sig,
}

/// The operation of a micro-op, with every operand pre-extracted.
///
/// Relative to [`Instr`], immediates are folded at translation time
/// rather than re-derived per retire: LUI/AUIPC
/// produce a finished constant, SIMD scalar immediates are replicated
/// into a packed word, clip bounds are materialized, hardware-loop
/// start/end addresses are absolute, and direct jump targets carry their
/// micro-op index.
#[derive(Clone, Copy, Debug)]
pub(crate) enum UopKind {
    /// Write a pre-computed constant (`lui`, `auipc`).
    SetReg {
        rd: Reg,
        val: u32,
    },
    /// `jal` — link value is the op's fall-through address.
    Jal {
        rd: Reg,
        target: Target,
    },
    /// `jalr` — target depends on `rs1`, resolved at run time.
    Jalr {
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        target: Target,
    },
    Load {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    LoadPostInc {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    LoadReg {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Store {
        op: StoreOp,
        rs2: Reg,
        rs1: Reg,
        offset: u32,
    },
    StorePostInc {
        op: StoreOp,
        rs2: Reg,
        rs1: Reg,
        offset: u32,
    },
    OpImm {
        op: AluImmOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    MulDiv {
        op: MulDivOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `fence` — a timing-only no-op on the single-hart TCDM core.
    Nop,
    /// `ecall` / `ebreak`.
    Halt(ExitReason),
    /// CSR read (writes are accepted and discarded by the model).
    CsrRead {
        rd: Reg,
        csr: Csr,
    },
    /// `lp.starti` / `lp.endi` with the absolute address pre-computed.
    LpSetAddr {
        l: u8,
        is_end: bool,
        addr: u32,
    },
    LpCount {
        l: u8,
        rs1: Reg,
    },
    LpCounti {
        l: u8,
        count: u32,
    },
    /// `lp.setup` with start/end addresses pre-computed.
    LpSetup {
        l: u8,
        rs1: Reg,
        start: u32,
        end: u32,
    },
    /// `lp.setupi` — like [`UopKind::LpSetup`] with an immediate count.
    LpSetupi {
        l: u8,
        count: u32,
        start: u32,
        end: u32,
    },
    Mac {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Msu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `p.clip` with the clamp bounds materialized.
    Clip {
        rd: Reg,
        rs1: Reg,
        lo: i32,
        hi: i32,
    },
    /// `p.clipu` (lower bound is always zero).
    ClipU {
        rd: Reg,
        rs1: Reg,
        hi: i32,
    },
    Unary {
        op: UnaryOp,
        rd: Reg,
        rs1: Reg,
    },
    PMin {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    PMax {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Ror {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Packed SIMD ALU, vector-vector mode.
    PvAluVv {
        op: PvAluOp,
        size: SimdSize,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Packed SIMD ALU, replicated-scalar mode.
    PvAluSc {
        op: PvAluOp,
        size: SimdSize,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Packed SIMD ALU, scalar-immediate mode with the replicated packed
    /// operand pre-computed.
    PvAluImm {
        op: PvAluOp,
        size: SimdSize,
        rd: Reg,
        rs1: Reg,
        b: u32,
    },
    PvDot {
        op: DotOp,
        size: SimdSize,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `pl.sdotsp.h.{0,1}` — merged MAC + next-weight load through SPR.
    PlSdotsp {
        spr: u8,
        size: SimdSize,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
}

/// One pre-decoded micro-op: the lowered operation plus everything the
/// retire path needs without touching the `Instr` enum again.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Uop {
    pub kind: UopKind,
    /// Byte address of the source instruction.
    pub addr: u32,
    /// Fall-through address (`addr + encoded size`).
    pub next_addr: u32,
    /// Statistics row this op retires into.
    pub id: MnemonicId,
    /// Registers read, as a bitmask (bit `n` ⇔ `xn`) — the load-use
    /// stall test is one `and`.
    pub uses_mask: u32,
    /// Static retire cost: 1 base cycle plus the timing-class extra.
    /// Dynamic costs (taken branch, load-use bubble) are added at run
    /// time.
    pub base_cycles: u8,
    /// 16-bit MACs retired by this op.
    pub mac_ops: u8,
    /// Register number a pending load-use hazard is tracked for (0 when
    /// the op is not a load or loads into `x0`).
    pub load_rd: u8,
    /// Head of the [`Block`] chain of specializable hardware loops
    /// whose *last body op* this is — or, on an `lp.setup`/`lp.setupi`
    /// op, the chain containing its own loop's descriptor (for bulk
    /// entry from the top), and on a backward branch, the branch-closed
    /// body it ends. [`NO_BLOCK`] otherwise.
    pub body: u32,
    /// Index of the straight-run [`Block`] whose *first op* this is, or
    /// [`NO_BLOCK`].
    pub run: u32,
    /// Index of the installed [`ShortcutRegion`] whose *first op* this
    /// is, or [`NO_SC`].
    ///
    /// [`ShortcutRegion`]: crate::shortcut::ShortcutRegion
    pub shortcut: u32,
}

impl Uop {
    /// The load-use hazard this op leaves for the next one: its load's
    /// destination and row.
    #[inline(always)]
    pub(crate) fn pending_load(&self) -> Option<(u8, MnemonicId)> {
        (self.load_rd != 0).then_some((self.load_rd, self.id))
    }

    /// The row a load-use stall on entering this op is charged to, when
    /// `load` retired just before it and this op reads its destination.
    #[inline(always)]
    pub(crate) fn stall_after(&self, load: Option<(u8, MnemonicId)>) -> Option<MnemonicId> {
        load.filter(|&(rd, _)| self.uses_mask & (1u32 << rd) != 0)
            .map(|(_, id)| id)
    }

    /// The cycles this op retires with: its static cost, plus one if it
    /// is a taken branch or a jump.
    #[inline(always)]
    pub(crate) fn cycles(&self, taken: bool) -> u64 {
        u64::from(self.base_cycles) + u64::from(taken)
    }
}

/// How a [`Block`] ends a pass.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockExit {
    /// The zero-cycle jump-back of an armed hardware loop whose
    /// `[lpstart, lpend)` is the block range; the loop count ends it.
    HwLoop,
    /// The block's last op: a conditional branch back to the first op.
    /// Taken, it costs one extra cycle; the first untaken evaluation
    /// leaves the loop.
    Branch { op: BranchOp, rs1: Reg, rs2: Reg },
    /// A straight run: one pass, falling through to `end_addr`. Only its
    /// first op may be a direct branch or jump target.
    Straight,
}

/// The static timing profile of a stretch of micro-ops: what retiring
/// it adds to the cycle counter and to the per-mnemonic statistics rows.
///
/// Translation builds one per [`Block`] pass and the shortcut verifier
/// one per region entry, op by op through [`record`](Self::record) and
/// [`stall`](Self::stall); the machine retires either with one row
/// update per mnemonic.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Profile {
    /// Total cycles: retire cycles plus load-use stalls.
    pub cycles: u64,
    /// Per-mnemonic retire totals: `(id, instrs, cycles, macs)`.
    pub retire_rows: Vec<(MnemonicId, u64, u64, u64)>,
    /// Per-mnemonic load-use stall totals.
    pub stall_rows: Vec<(MnemonicId, u64)>,
    /// Per mnemonic, one more than its index in `retire_rows` and in
    /// `stall_rows` (0 until it has a row), so an op finds its row
    /// without a scan: the verifier walks tens of thousands of ops.
    row_of: [[u8; 2]; MnemonicId::COUNT],
}

impl Default for Profile {
    fn default() -> Self {
        Self {
            cycles: 0,
            retire_rows: Vec::new(),
            stall_rows: Vec::new(),
            row_of: [[0; 2]; MnemonicId::COUNT],
        }
    }
}

impl Clone for Profile {
    fn clone(&self) -> Self {
        let mut p = Profile::default();
        p.clone_from(self);
        p
    }

    /// Copies into this profile's buffers, so a snapshot allocates
    /// nothing once they have grown.
    fn clone_from(&mut self, src: &Self) {
        self.cycles = src.cycles;
        self.retire_rows.clone_from(&src.retire_rows);
        self.stall_rows.clone_from(&src.stall_rows);
        self.row_of = src.row_of;
    }
}

impl Profile {
    /// Adds one retired op of row `id` costing `cycles` cycles and
    /// performing `macs` MACs.
    #[inline]
    pub(crate) fn record(&mut self, id: MnemonicId, cycles: u64, macs: u64) {
        self.cycles += cycles;
        match self.row_of[id.index()][0] {
            0 => {
                self.retire_rows.push((id, 1, cycles, macs));
                self.row_of[id.index()][0] = self.retire_rows.len() as u8;
            }
            k => {
                let r = &mut self.retire_rows[usize::from(k) - 1];
                r.1 += 1;
                r.2 += cycles;
                r.3 += macs;
            }
        }
    }

    /// Adds one load-use stall cycle, charged to the producing load's
    /// row `id`.
    #[inline]
    pub(crate) fn stall(&mut self, id: MnemonicId) {
        self.cycles += 1;
        match self.row_of[id.index()][1] {
            0 => {
                self.stall_rows.push((id, 1));
                self.row_of[id.index()][1] = self.stall_rows.len() as u8;
            }
            k => self.stall_rows[usize::from(k) - 1].1 += 1,
        }
    }

    /// Adds `m` more copies of what was recorded since `start`, an
    /// earlier snapshot of this profile with the same rows.
    pub(crate) fn repeat_since(&mut self, start: &Profile, m: u64) {
        for (r, r0) in self.retire_rows.iter_mut().zip(&start.retire_rows) {
            r.1 += m * (r.1 - r0.1);
            r.2 += m * (r.2 - r0.2);
            r.3 += m * (r.3 - r0.3);
        }
        for (r, r0) in self.stall_rows.iter_mut().zip(&start.stall_rows) {
            r.1 += m * (r.1 - r0.1);
        }
        self.cycles += m * (self.cycles - start.cycles);
    }
}

/// A straight-line micro-op block `[start_idx, start_idx+len)` covering
/// addresses `[start_addr, end_addr)`, recognized at translation time.
///
/// One pass's timing is a static [`Profile`] (for a loop, a steady-state
/// iteration's, including the wrap-around stall from the last op's load
/// into the first op of the next iteration), so the block runner
/// executes only data semantics per pass and accounts `n` passes with
/// one bulk update per row. A [`BlockExit::Branch`] body includes its
/// closing branch as the last op, and its profile charges the branch as
/// taken. The runner may execute a block in bulk only when no *armed*
/// hardware loop can trigger inside it — a runtime condition checked per
/// entry; the generic per-op path handles every other case
/// bit-identically.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// First op's address (`lp.setup` PC + 4, the branch target, or the
    /// run's first op).
    pub start_addr: u32,
    /// Address just past the block (the loop's `lpend`, the closing
    /// branch's fall-through, or the run's last op's fall-through).
    pub end_addr: u32,
    /// Micro-op index of the first op.
    pub start_idx: u32,
    /// Block length in micro-ops.
    pub len: u32,
    /// Timing of one pass. Its cycles are never zero (blocks have ≥ 1
    /// op).
    pub profile: Profile,
    /// For block op `j`: the mnemonic to charge a load-use stall to when
    /// entering op `j`, or `None` if no stall. In a loop, entry 0 is the
    /// wrap-around stall (previous iteration's last op → this
    /// iteration's first); a straight run's entry stall, from a load
    /// *before* it, is dynamic and charged by the caller. Used for exact
    /// accounting of a faulting partial pass.
    pub stall_in: Vec<Option<MnemonicId>>,
    /// What ends a pass.
    pub exit: BlockExit,
    /// Next hardware-loop descriptor sharing the same last body op, or
    /// [`NO_BLOCK`] (always for a branch-closed body or straight run).
    pub next: u32,
}

/// A [`Program`] lowered to micro-ops — build once with
/// [`translate`](Self::translate), execute many times.
///
/// Micro-op `i` is the lowering of the program's `i`-th instruction
/// (the program image is contiguous, so `Program::index_of` doubles as
/// the PC → micro-op mapping). The translation is purely derived state:
/// executing through it is bit-identical — cycles, per-mnemonic rows,
/// fault points and all — to stepping the decoded instructions.
#[derive(Clone, Debug, Default)]
pub struct UopProgram {
    pub(crate) uops: Vec<Uop>,
    pub(crate) blocks: Vec<Block>,
    pub(crate) shortcuts: Vec<crate::shortcut::ShortcutRegion>,
    verify: crate::shortcut::VerifyBreakdown,
    verify_nanos: u64,
}

impl UopProgram {
    /// Lowers `program` into micro-ops and recognizes specializable
    /// loop bodies and straight-line runs.
    pub fn translate(program: &Program) -> Self {
        Self::translate_with_shortcuts(program, &[])
    }

    /// Like [`translate`](Self::translate), additionally verifying the
    /// given kernel-region descriptors against the lowered micro-op
    /// stream and installing the ones that pass as native shortcut
    /// regions (see [`KernelRegion`](crate::KernelRegion)).
    ///
    /// Descriptors that fail verification are silently skipped — the
    /// region then executes on the generic micro-op path, which is
    /// bit-identical. An installed region's first op also terminates
    /// straight-run coalescing from ops before it, so execution always
    /// reaches the shortcut trigger; translation is otherwise unchanged.
    pub fn translate_with_shortcuts(
        program: &Program,
        regions: &[crate::shortcut::KernelRegion],
    ) -> Self {
        let mut uops: Vec<Uop> = program
            .iter()
            .map(|item| lower(program, item.addr, item.size as u32, &item.instr))
            .collect();
        let mut blocks: Vec<Block> = Vec::new();
        for i in 0..uops.len() {
            let (start, end) = match uops[i].kind {
                UopKind::LpSetup { start, end, .. } | UopKind::LpSetupi { start, end, .. } => {
                    (start, end)
                }
                _ => continue,
            };
            if let Some(body) = recognize_body(&uops, program, start, end) {
                let last = (body.start_idx + body.len - 1) as usize;
                // Identical descriptors from several lp.setups over the
                // same range would be redundant; keep one. The setup op
                // itself also carries the chain head, so the block runner
                // can enter in bulk from the top (iteration 0) as well as
                // from a jump-back.
                if chain_contains(&blocks, uops[last].body, start, end) {
                    uops[i].body = uops[last].body;
                    continue;
                }
                let chained = Block {
                    next: uops[last].body,
                    ..body
                };
                uops[last].body = blocks.len() as u32;
                uops[i].body = blocks.len() as u32;
                blocks.push(chained);
            }
        }

        // Verify and install the declared kernel-shortcut regions, each
        // marked on its first op — before run recognition, so region
        // starts can act as run barriers below.
        let mut shortcuts: Vec<crate::shortcut::ShortcutRegion> = Vec::new();
        let mut verify = crate::shortcut::VerifyBreakdown::default();
        let verify_started = std::time::Instant::now();
        for r in regions {
            let mut cost = crate::shortcut::VerifyCost::default();
            let installed = crate::shortcut::install(&uops, program, r, &mut cost);
            verify.add(r.math.kind(), installed.is_some(), cost);
            if let Some(sc) = installed {
                // install() proved start_addr maps to an op.
                let start = program.index_of(r.start_addr).unwrap();
                if uops[start].shortcut == NO_SC {
                    uops[start].shortcut = shortcuts.len() as u32;
                    shortcuts.push(sc);
                }
            }
        }
        let verify_nanos = verify_started.elapsed().as_nanos() as u64;

        // Branch-closed loops: a backward conditional branch over an
        // eligible stretch, marked on the branch. No op of the stretch
        // may start an installed shortcut region: bulk passes would skip
        // its trigger. Every pass the runner accounts in bulk ends in a
        // taken jump-back, so the profile charges the branch's taken
        // cycle; the runner refunds it when the loop falls through.
        let mut is_target = vec![false; uops.len()];
        for b in 0..uops.len() {
            let target = match uops[b].kind {
                UopKind::Branch { target, .. } | UopKind::Jal { target, .. } => target,
                _ => continue,
            };
            if let Some(t) = is_target.get_mut(target.idx as usize) {
                *t = true;
            }
            let UopKind::Branch { op, rs1, rs2, .. } = uops[b].kind else {
                continue;
            };
            let t = target.idx as usize;
            if t >= b
                || !uops[t..b]
                    .iter()
                    .all(|u| body_eligible(&u.kind) && u.shortcut == NO_SC)
            {
                continue;
            }
            uops[b].body = blocks.len() as u32;
            blocks.push(block(&uops, t, b + 1, BlockExit::Branch { op, rs1, rs2 }));
        }

        // Straight-line runs: maximal sequences of eligible ops, marked
        // on their first op. Loop bodies are a subrange of some run; the
        // run trigger defers to the armed-loop check at execution time.
        // An installed shortcut region's first op ends the preceding run:
        // bulking across it would skip the shortcut trigger. So does a
        // direct branch or jump target: control arriving there should
        // find a run start, not step the rest of a run op by op.
        let mut i = 0usize;
        while i < uops.len() {
            if !body_eligible(&uops[i].kind) {
                i += 1;
                continue;
            }
            let start = i;
            i += 1;
            while i < uops.len()
                && body_eligible(&uops[i].kind)
                && uops[i].shortcut == NO_SC
                && !is_target[i]
            {
                i += 1;
            }
            if i - start < MIN_RUN_LEN {
                continue;
            }
            uops[start].run = blocks.len() as u32;
            blocks.push(block(&uops, start, i, BlockExit::Straight));
        }
        Self {
            uops,
            blocks,
            shortcuts,
            verify,
            verify_nanos,
        }
    }

    /// Number of micro-ops (= number of program instructions).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program lowered to no micro-ops.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Number of loop bodies the translator specialized, hardware loops
    /// and branch-closed loops alike.
    pub fn loop_bodies(&self) -> usize {
        self.blocks.len() - self.straight_runs()
    }

    /// Number of straight-line runs the translator specialized.
    pub fn straight_runs(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.exit, BlockExit::Straight))
            .count()
    }

    /// Number of kernel-shortcut regions verified and installed by
    /// [`translate_with_shortcuts`](Self::translate_with_shortcuts).
    pub fn shortcut_regions(&self) -> usize {
        self.shortcuts.len()
    }

    /// The descriptors of the installed kernel-shortcut regions, in
    /// installation order.
    pub fn installed_regions(&self) -> impl Iterator<Item = &crate::shortcut::KernelRegion> {
        self.shortcuts.iter().map(|sc| &sc.desc)
    }

    /// Micro-ops the shortcut verifier interpreted one by one while
    /// checking the declared kernel regions. Loop iterations it
    /// applied in closed form are not counted, so this is the
    /// deterministic measure of verification work.
    pub fn verify_ops(&self) -> u64 {
        self.verify.total().walked
    }

    /// The verification work of [`verify_ops`](Self::verify_ops) and
    /// [`verify_nanos`](Self::verify_nanos) by region kind and verdict.
    pub fn verify_breakdown(&self) -> &crate::shortcut::VerifyBreakdown {
        &self.verify
    }

    /// Host nanoseconds spent verifying kernel regions (part of
    /// [`translate_with_shortcuts`](Self::translate_with_shortcuts)).
    pub fn verify_nanos(&self) -> u64 {
        self.verify_nanos
    }
}

/// Whether the descriptor chain starting at `head` already covers the
/// loop range `[start, end)`.
fn chain_contains(blocks: &[Block], mut head: u32, start: u32, end: u32) -> bool {
    while head != NO_BLOCK {
        let b = &blocks[head as usize];
        if b.start_addr == start && b.end_addr == end {
            return true;
        }
        head = b.next;
    }
    false
}

/// Whether a micro-op may appear in a [`Block`] (a branch-closed body's
/// closing branch aside).
///
/// Excluded: control flow (a straight-line body is what makes the
/// per-iteration timing static), halts, CSR access (reads the live
/// cycle/instret counters; writes could retarget the loop CSRs), and
/// hardware-loop configuration. Loads and stores — including the
/// faultable `pl.sdotsp` weight stream — stay eligible: the block
/// runner executes every memory access through the same checked path
/// and falls back to exact per-op accounting on a fault.
fn body_eligible(kind: &UopKind) -> bool {
    !matches!(
        kind,
        UopKind::Jal { .. }
            | UopKind::Jalr { .. }
            | UopKind::Branch { .. }
            | UopKind::Halt(_)
            | UopKind::CsrRead { .. }
            | UopKind::LpSetAddr { .. }
            | UopKind::LpCount { .. }
            | UopKind::LpCounti { .. }
            | UopKind::LpSetup { .. }
            | UopKind::LpSetupi { .. }
    )
}

/// Builds the hardware-loop [`Block`] for the range `[start, end)`, or
/// `None` when the body is not specializable: `start` does not map to an
/// instruction, the body is empty or ends mid-instruction (the jump-back
/// would never trigger), or an op fails [`body_eligible`].
fn recognize_body(uops: &[Uop], program: &Program, start: u32, end: u32) -> Option<Block> {
    let start_idx = program.index_of(start)?;
    let mut len = 0usize;
    while start_idx + len < uops.len() && uops[start_idx + len].addr < end {
        if !body_eligible(&uops[start_idx + len].kind) {
            return None;
        }
        len += 1;
    }
    if len == 0 || uops[start_idx + len - 1].next_addr != end {
        return None;
    }
    Some(block(uops, start_idx, start_idx + len, BlockExit::HwLoop))
}

/// The [`Block`] over micro-ops `[from, to)` with the given exit, with
/// the static timing profile of one pass.
///
/// Op `j` stalls on entry iff the previous op loads a register `j`
/// reads. In a loop, op 0's predecessor is the last op — steady-state
/// iterations follow one another directly; in a straight run op 0 never
/// stalls statically — a stall from a load *before* the run is the
/// caller's to charge. A closing branch is charged as taken.
fn block(uops: &[Uop], from: usize, to: usize, exit: BlockExit) -> Block {
    let slice = &uops[from..to];
    let mut profile = Profile::default();
    let mut stall_in = Vec::with_capacity(slice.len());
    for (j, u) in slice.iter().enumerate() {
        let prev = match j {
            0 if matches!(exit, BlockExit::Straight) => None,
            0 => slice.last(),
            _ => Some(&slice[j - 1]),
        };
        let stall = u.stall_after(prev.and_then(Uop::pending_load));
        if let Some(id) = stall {
            profile.stall(id);
        }
        stall_in.push(stall);
        let taken = j + 1 == slice.len() && matches!(exit, BlockExit::Branch { .. });
        profile.record(u.id, u.cycles(taken), u64::from(u.mac_ops));
    }
    Block {
        start_addr: slice[0].addr,
        end_addr: slice[slice.len() - 1].next_addr,
        start_idx: from as u32,
        len: slice.len() as u32,
        profile,
        stall_in,
        exit,
        next: NO_BLOCK,
    }
}

/// Resolves a direct branch/jump target to address + micro-op index.
fn resolve(program: &Program, addr: u32) -> Target {
    Target {
        addr,
        idx: program.index_of(addr).map_or(NO_IDX, |i| i as u32),
    }
}

/// Replicates the low lane of `x` into every lane of a packed word: a
/// SIMD scalar operand ([`SimdMode::Sc`], at run time) or a sign-extended
/// scalar immediate ([`SimdMode::Sci`], at translation).
pub(crate) fn splat(size: SimdSize, x: u32) -> u32 {
    match size {
        SimdSize::Half => (x & 0xFFFF) * 0x0001_0001,
        SimdSize::Byte => (x & 0xFF) * 0x0101_0101,
    }
}

impl UopKind {
    /// The register a pure register-to-register op writes, or `None` for
    /// an op with memory, control-flow, CSR, SPR or hardware-loop
    /// effects.
    #[inline(always)]
    pub(crate) fn dest(&self) -> Option<Reg> {
        match *self {
            UopKind::SetReg { rd, .. }
            | UopKind::OpImm { rd, .. }
            | UopKind::Op { rd, .. }
            | UopKind::MulDiv { rd, .. }
            | UopKind::Mac { rd, .. }
            | UopKind::Msu { rd, .. }
            | UopKind::Clip { rd, .. }
            | UopKind::ClipU { rd, .. }
            | UopKind::Unary { rd, .. }
            | UopKind::PMin { rd, .. }
            | UopKind::PMax { rd, .. }
            | UopKind::Ror { rd, .. }
            | UopKind::PvAluVv { rd, .. }
            | UopKind::PvAluSc { rd, .. }
            | UopKind::PvAluImm { rd, .. }
            | UopKind::PvDot { rd, .. } => Some(rd),
            UopKind::Jal { .. }
            | UopKind::Jalr { .. }
            | UopKind::Branch { .. }
            | UopKind::Load { .. }
            | UopKind::LoadPostInc { .. }
            | UopKind::LoadReg { .. }
            | UopKind::Store { .. }
            | UopKind::StorePostInc { .. }
            | UopKind::Nop
            | UopKind::Halt(_)
            | UopKind::CsrRead { .. }
            | UopKind::LpSetAddr { .. }
            | UopKind::LpCount { .. }
            | UopKind::LpCounti { .. }
            | UopKind::LpSetup { .. }
            | UopKind::LpSetupi { .. }
            | UopKind::PlSdotsp { .. } => None,
        }
    }

    /// The value a pure op writes to its [`dest`](Self::dest), given a
    /// reader of its source registers; `None` for every other op.
    ///
    /// This and the per-family functions below are the simulator's one
    /// definition of what these ops compute: `Machine::exec_uop` retires
    /// them through it, and the shortcut verifier folds an op whose
    /// `uses_mask` registers are all constant through it. It and the
    /// scalar family functions are `#[inline(always)]`: they sit in the
    /// interpreter's hottest match, where an out-of-line call per op
    /// cost about a tenth of level a's bulk-tier MIPS.
    #[inline(always)]
    pub(crate) fn value(&self, mut reg: impl FnMut(Reg) -> u32) -> Option<u32> {
        Some(match *self {
            UopKind::SetReg { val, .. } => val,
            UopKind::OpImm { op, rs1, imm, .. } => alu_imm(op, reg(rs1), imm),
            UopKind::Op { op, rs1, rs2, .. } => alu(op, reg(rs1), reg(rs2)),
            // The mulh/div extra latency is folded into the op's static
            // `base_cycles`.
            UopKind::MulDiv { op, rs1, rs2, .. } => mul_div(op, reg(rs1), reg(rs2)),
            UopKind::Mac { rd, rs1, rs2 } => reg(rd).wrapping_add(reg(rs1).wrapping_mul(reg(rs2))),
            UopKind::Msu { rd, rs1, rs2 } => reg(rd).wrapping_sub(reg(rs1).wrapping_mul(reg(rs2))),
            UopKind::Clip { rs1, lo, hi, .. } => clip(reg(rs1), lo, hi),
            UopKind::ClipU { rs1, hi, .. } => clip(reg(rs1), 0, hi),
            UopKind::Unary { op, rs1, .. } => unary(op, reg(rs1)),
            UopKind::PMin { rs1, rs2, .. } => (reg(rs1) as i32).min(reg(rs2) as i32) as u32,
            UopKind::PMax { rs1, rs2, .. } => max(reg(rs1), reg(rs2)),
            UopKind::Ror { rs1, rs2, .. } => reg(rs1).rotate_right(reg(rs2) & 31),
            UopKind::PvAluVv {
                op, size, rs1, rs2, ..
            } => pv_alu(op, size, reg(rs1), reg(rs2)),
            UopKind::PvAluSc {
                op, size, rs1, rs2, ..
            } => pv_alu(op, size, reg(rs1), splat(size, reg(rs2))),
            UopKind::PvAluImm {
                op, size, rs1, b, ..
            } => pv_alu(op, size, reg(rs1), b),
            UopKind::PvDot {
                op,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let d = dot(op, size, reg(rs1), reg(rs2));
                if op.accumulates() {
                    reg(rd).wrapping_add(d)
                } else {
                    d
                }
            }
            // Every other kind has no `dest`.
            _ => return None,
        })
    }
}

/// `OpImm` semantics (`addi` … `srai`).
#[inline(always)]
pub(crate) fn alu_imm(op: AluImmOp, a: u32, imm: i32) -> u32 {
    match op {
        AluImmOp::Addi => a.wrapping_add(imm as u32),
        AluImmOp::Slti => ((a as i32) < imm) as u32,
        AluImmOp::Sltiu => (a < imm as u32) as u32,
        AluImmOp::Xori => a ^ imm as u32,
        AluImmOp::Ori => a | imm as u32,
        AluImmOp::Andi => a & imm as u32,
        AluImmOp::Slli => a << (imm & 0x1F),
        AluImmOp::Srli => a >> (imm & 0x1F),
        AluImmOp::Srai => ((a as i32) >> (imm & 0x1F)) as u32,
    }
}

/// `Op` semantics (`add` … `and`).
#[inline(always)]
pub(crate) fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 0x1F),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 0x1F),
        AluOp::Sra => ((a as i32) >> (b & 0x1F)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

/// M-extension semantics, with the RISC-V results for division by zero
/// and signed overflow.
#[inline(always)]
pub(crate) fn mul_div(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => ((a as i32 as i64 * b as i32 as i64) >> 32) as u32,
        MulDivOp::Mulhsu => ((a as i32 as i64 * b as u64 as i64) >> 32) as u32,
        MulDivOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
        MulDivOp::Div => match (a as i32, b as i32) {
            (_, 0) => u32::MAX,
            (i32::MIN, -1) => i32::MIN as u32,
            (x, y) => x.wrapping_div(y) as u32,
        },
        MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulDivOp::Rem => match (a as i32, b as i32) {
            (x, 0) => x as u32,
            (i32::MIN, -1) => 0,
            (x, y) => x.wrapping_rem(y) as u32,
        },
        MulDivOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

/// `p.max` semantics.
#[inline(always)]
pub(crate) fn max(a: u32, b: u32) -> u32 {
    (a as i32).max(b as i32) as u32
}

/// `p.clip` / `p.clipu` semantics over materialized bounds.
#[inline(always)]
pub(crate) fn clip(a: u32, lo: i32, hi: i32) -> u32 {
    (a as i32).clamp(lo, hi) as u32
}

/// [`UnaryOp`] semantics.
#[inline(always)]
pub(crate) fn unary(op: UnaryOp, a: u32) -> u32 {
    match op {
        UnaryOp::ExtHs => a as u16 as i16 as i32 as u32,
        UnaryOp::ExtHz => a & 0xFFFF,
        UnaryOp::ExtBs => a as u8 as i8 as i32 as u32,
        UnaryOp::ExtBz => a & 0xFF,
        UnaryOp::Abs => (a as i32).wrapping_abs() as u32,
        UnaryOp::Ff1 => {
            if a == 0 {
                32
            } else {
                a.trailing_zeros()
            }
        }
        UnaryOp::Fl1 => {
            if a == 0 {
                32
            } else {
                31 - a.leading_zeros()
            }
        }
        UnaryOp::Cnt => a.count_ones(),
        UnaryOp::Clb => {
            // Count of leading bits equal to the sign bit, minus one;
            // zero input yields 0 per RI5CY.
            if a == 0 {
                0
            } else if (a as i32) < 0 {
                (!a).leading_zeros() - 1
            } else {
                a.leading_zeros() - 1
            }
        }
        UnaryOp::Tanh => {
            let x = rnnasip_fixed::Q3p12::from_raw(a as u16 as i16);
            rnnasip_fixed::hw_tanh(x).raw() as i32 as u32
        }
        UnaryOp::Sig => {
            let x = rnnasip_fixed::Q3p12::from_raw(a as u16 as i16);
            rnnasip_fixed::hw_sig(x).raw() as i32 as u32
        }
    }
}

/// Whether a conditional branch with operand values `a`, `b` is taken.
#[inline(always)]
pub(crate) fn branch_taken(op: BranchOp, a: u32, b: u32) -> bool {
    match op {
        BranchOp::Beq => a == b,
        BranchOp::Bne => a != b,
        BranchOp::Blt => (a as i32) < (b as i32),
        BranchOp::Bge => (a as i32) >= (b as i32),
        BranchOp::Bltu => a < b,
        BranchOp::Bgeu => a >= b,
    }
}

/// Load semantics: the access at `addr`, sign- or zero-extended to a
/// register value.
#[inline(always)]
pub(crate) fn load_value(mem: &Memory, op: LoadOp, addr: u32) -> Result<u32, SimError> {
    Ok(match op {
        LoadOp::Lb => mem.read_u8(addr)? as i8 as i32 as u32,
        LoadOp::Lbu => u32::from(mem.read_u8(addr)?),
        LoadOp::Lh => mem.read_u16(addr)? as i16 as i32 as u32,
        LoadOp::Lhu => u32::from(mem.read_u16(addr)?),
        LoadOp::Lw => mem.read_u32(addr)?,
    })
}

/// Lane-wise SIMD ALU semantics on packed registers.
#[inline]
pub(crate) fn pv_alu(op: PvAluOp, size: SimdSize, a: u32, b: u32) -> u32 {
    match size {
        SimdSize::Half => {
            let la = [(a & 0xFFFF) as u16 as i16, (a >> 16) as u16 as i16];
            let lb = [(b & 0xFFFF) as u16 as i16, (b >> 16) as u16 as i16];
            let mut out = [0i16; 2];
            for i in 0..2 {
                out[i] = pv_lane_op_h(op, la[i], lb[i]);
            }
            (out[0] as u16 as u32) | ((out[1] as u16 as u32) << 16)
        }
        SimdSize::Byte => {
            let la = a.to_le_bytes().map(|x| x as i8);
            let lb = b.to_le_bytes().map(|x| x as i8);
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = pv_lane_op_b(op, la[i], lb[i]) as u8;
            }
            u32::from_le_bytes(out)
        }
    }
}

fn pv_lane_op_h(op: PvAluOp, a: i16, b: i16) -> i16 {
    match op {
        PvAluOp::Add => a.wrapping_add(b),
        PvAluOp::Sub => a.wrapping_sub(b),
        PvAluOp::Avg => ((a as i32 + b as i32) >> 1) as i16,
        PvAluOp::Min => a.min(b),
        PvAluOp::Max => a.max(b),
        PvAluOp::Srl => ((a as u16) >> (b as u16 & 0xF)) as i16,
        PvAluOp::Sra => a >> (b as u16 & 0xF),
        PvAluOp::Sll => ((a as u16) << (b as u16 & 0xF)) as i16,
        PvAluOp::Or => a | b,
        PvAluOp::Xor => a ^ b,
        PvAluOp::And => a & b,
        PvAluOp::Abs => a.wrapping_abs(),
    }
}

fn pv_lane_op_b(op: PvAluOp, a: i8, b: i8) -> i8 {
    match op {
        PvAluOp::Add => a.wrapping_add(b),
        PvAluOp::Sub => a.wrapping_sub(b),
        PvAluOp::Avg => ((a as i32 + b as i32) >> 1) as i8,
        PvAluOp::Min => a.min(b),
        PvAluOp::Max => a.max(b),
        PvAluOp::Srl => ((a as u8) >> (b as u8 & 0x7)) as i8,
        PvAluOp::Sra => a >> (b as u8 & 0x7),
        PvAluOp::Sll => ((a as u8) << (b as u8 & 0x7)) as i8,
        PvAluOp::Or => a | b,
        PvAluOp::Xor => a ^ b,
        PvAluOp::And => a & b,
        PvAluOp::Abs => a.wrapping_abs(),
    }
}

/// Dot-product semantics: the *fresh* dot value, before any accumulation.
///
/// Only the low 32 bits of the lane sum are kept, so each lane product
/// and the sum are taken modulo 2^32 on the sign- or zero-extended
/// lanes: exact, and as cheap as the signed-halfword form `pl.sdotsp`
/// and `pv.sdotsp.h` need. `#[inline(always)]` for the same reason as
/// [`UopKind::value`].
#[inline(always)]
pub(crate) fn dot(op: DotOp, size: SimdSize, a: u32, b: u32) -> u32 {
    let (sign_a, sign_b) = match op {
        DotOp::DotUp | DotOp::SdotUp => (false, false),
        DotOp::DotUsp | DotOp::SdotUsp => (false, true),
        DotOp::DotSp | DotOp::SdotSp => (true, true),
    };
    // Lane `i` of `bits`-bit lanes, extended to 32 bits.
    let lane = |word: u32, bits: u32, i: u32, signed: bool| {
        let up = word << (32 - bits * (i + 1));
        if signed {
            ((up as i32) >> (32 - bits)) as u32
        } else {
            up >> (32 - bits)
        }
    };
    let mac = |bits, i| lane(a, bits, i, sign_a).wrapping_mul(lane(b, bits, i, sign_b));
    match size {
        SimdSize::Half => mac(16, 0).wrapping_add(mac(16, 1)),
        SimdSize::Byte => mac(8, 0)
            .wrapping_add(mac(8, 1))
            .wrapping_add(mac(8, 2))
            .wrapping_add(mac(8, 3)),
    }
}

/// Lowers one placed instruction to a micro-op.
fn lower(program: &Program, pc: u32, size: u32, instr: &Instr) -> Uop {
    let kind = match *instr {
        Instr::Lui { rd, imm20 } => UopKind::SetReg {
            rd,
            val: (imm20 as u32) << 12,
        },
        Instr::Auipc { rd, imm20 } => UopKind::SetReg {
            rd,
            val: pc.wrapping_add((imm20 as u32) << 12),
        },
        Instr::Jal { rd, offset } => UopKind::Jal {
            rd,
            target: resolve(program, pc.wrapping_add(offset as u32)),
        },
        Instr::Jalr { rd, rs1, offset } => UopKind::Jalr {
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => UopKind::Branch {
            op,
            rs1,
            rs2,
            target: resolve(program, pc.wrapping_add(offset as u32)),
        },
        Instr::Load {
            op,
            rd,
            rs1,
            offset,
        } => UopKind::Load {
            op,
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::LoadPostInc {
            op,
            rd,
            rs1,
            offset,
        } => UopKind::LoadPostInc {
            op,
            rd,
            rs1,
            offset: offset as u32,
        },
        Instr::LoadReg { op, rd, rs1, rs2 } => UopKind::LoadReg { op, rd, rs1, rs2 },
        Instr::Store {
            op,
            rs2,
            rs1,
            offset,
        } => UopKind::Store {
            op,
            rs2,
            rs1,
            offset: offset as u32,
        },
        Instr::StorePostInc {
            op,
            rs2,
            rs1,
            offset,
        } => UopKind::StorePostInc {
            op,
            rs2,
            rs1,
            offset: offset as u32,
        },
        Instr::OpImm { op, rd, rs1, imm } => UopKind::OpImm { op, rd, rs1, imm },
        Instr::Op { op, rd, rs1, rs2 } => UopKind::Op { op, rd, rs1, rs2 },
        Instr::MulDiv { op, rd, rs1, rs2 } => UopKind::MulDiv { op, rd, rs1, rs2 },
        Instr::Fence => UopKind::Nop,
        Instr::Ecall => UopKind::Halt(ExitReason::Ecall),
        Instr::Ebreak => UopKind::Halt(ExitReason::Ebreak),
        Instr::Csr { rd, csr, .. } => UopKind::CsrRead { rd, csr },
        Instr::LpStarti { l, uimm } => UopKind::LpSetAddr {
            l: l.index() as u8,
            is_end: false,
            addr: pc.wrapping_add(2 * uimm),
        },
        Instr::LpEndi { l, uimm } => UopKind::LpSetAddr {
            l: l.index() as u8,
            is_end: true,
            addr: pc.wrapping_add(2 * uimm),
        },
        Instr::LpCount { l, rs1 } => UopKind::LpCount {
            l: l.index() as u8,
            rs1,
        },
        Instr::LpCounti { l, uimm } => UopKind::LpCounti {
            l: l.index() as u8,
            count: uimm,
        },
        Instr::LpSetup { l, rs1, uimm } => UopKind::LpSetup {
            l: l.index() as u8,
            rs1,
            start: pc.wrapping_add(4),
            end: pc.wrapping_add(2 * uimm),
        },
        Instr::LpSetupi { l, count, uimm } => UopKind::LpSetupi {
            l: l.index() as u8,
            count,
            start: pc.wrapping_add(4),
            end: pc.wrapping_add(2 * uimm),
        },
        Instr::Mac { rd, rs1, rs2 } => UopKind::Mac { rd, rs1, rs2 },
        Instr::Msu { rd, rs1, rs2 } => UopKind::Msu { rd, rs1, rs2 },
        Instr::Clip { rd, rs1, bits } => {
            let b = bits.clamp(1, 32) as u32;
            let (lo, hi) = if b == 32 {
                (i32::MIN, i32::MAX)
            } else {
                (-(1i32 << (b - 1)), (1i32 << (b - 1)) - 1)
            };
            UopKind::Clip { rd, rs1, lo, hi }
        }
        Instr::ClipU { rd, rs1, bits } => {
            let b = bits.clamp(1, 32) as u32;
            let hi = if b == 32 {
                i32::MAX
            } else {
                (1i32 << (b - 1)) - 1
            };
            UopKind::ClipU { rd, rs1, hi }
        }
        Instr::ExtHs { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::ExtHs,
            rd,
            rs1,
        },
        Instr::ExtHz { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::ExtHz,
            rd,
            rs1,
        },
        Instr::ExtBs { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::ExtBs,
            rd,
            rs1,
        },
        Instr::ExtBz { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::ExtBz,
            rd,
            rs1,
        },
        Instr::PAbs { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::Abs,
            rd,
            rs1,
        },
        Instr::Ff1 { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::Ff1,
            rd,
            rs1,
        },
        Instr::Fl1 { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::Fl1,
            rd,
            rs1,
        },
        Instr::Cnt { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::Cnt,
            rd,
            rs1,
        },
        Instr::Clb { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::Clb,
            rd,
            rs1,
        },
        Instr::PlTanh { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::Tanh,
            rd,
            rs1,
        },
        Instr::PlSig { rd, rs1 } => UopKind::Unary {
            op: UnaryOp::Sig,
            rd,
            rs1,
        },
        Instr::PMin { rd, rs1, rs2 } => UopKind::PMin { rd, rs1, rs2 },
        Instr::PMax { rd, rs1, rs2 } => UopKind::PMax { rd, rs1, rs2 },
        Instr::Ror { rd, rs1, rs2 } => UopKind::Ror { rd, rs1, rs2 },
        Instr::PvAlu {
            op,
            size,
            mode,
            rd,
            rs1,
            rs2,
        } => match mode {
            SimdMode::Vv => UopKind::PvAluVv {
                op,
                size,
                rd,
                rs1,
                rs2,
            },
            SimdMode::Sc => UopKind::PvAluSc {
                op,
                size,
                rd,
                rs1,
                rs2,
            },
            SimdMode::Sci(imm) => UopKind::PvAluImm {
                op,
                size,
                rd,
                rs1,
                b: splat(size, imm as u32),
            },
        },
        Instr::PvDot {
            op,
            size,
            rd,
            rs1,
            rs2,
        } => UopKind::PvDot {
            op,
            size,
            rd,
            rs1,
            rs2,
        },
        Instr::PlSdotsp {
            spr,
            size,
            rd,
            rs1,
            rs2,
        } => UopKind::PlSdotsp {
            spr: spr & 1,
            size,
            rd,
            rs1,
            rs2,
        },
    };

    let extra = match instr.timing_class() {
        TimingClass::Single => 0,
        TimingClass::HighMultiply => MULH_EXTRA_CYCLES,
        TimingClass::SerialDivide => DIV_EXTRA_CYCLES,
    };
    let load_rd = match *instr {
        Instr::Load { rd, .. } | Instr::LoadPostInc { rd, .. } | Instr::LoadReg { rd, .. } => {
            rd.num()
        }
        _ => 0,
    };
    Uop {
        kind,
        addr: pc,
        next_addr: pc.wrapping_add(size),
        id: instr.mnemonic_id(),
        uses_mask: instr.uses_mask(),
        base_cycles: (1 + extra) as u8,
        mac_ops: instr.mac_ops() as u8,
        load_rd,
        body: NO_BLOCK,
        run: NO_BLOCK,
        shortcut: NO_SC,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnasip_isa::{CsrOp, LoopIdx};

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    #[test]
    fn lowering_is_one_to_one_and_contiguous() {
        let prog = Program::from_instrs(
            0x100,
            [
                addi(Reg::A0, Reg::ZERO, 5),
                Instr::Jal {
                    rd: Reg::ZERO,
                    offset: -4,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(t.len(), 3);
        assert_eq!(t.uops[0].addr, 0x100);
        assert_eq!(t.uops[0].next_addr, 0x104);
        // The backward jal resolves to micro-op 0.
        match t.uops[1].kind {
            UopKind::Jal { target, .. } => {
                assert_eq!(target.addr, 0x100);
                assert_eq!(target.idx, 0);
            }
            ref k => panic!("expected jal, got {k:?}"),
        }
    }

    #[test]
    fn unmapped_target_gets_sentinel_index() {
        let prog = Program::from_instrs(
            0,
            [Instr::Jal {
                rd: Reg::ZERO,
                offset: 0x400,
            }],
        );
        let t = UopProgram::translate(&prog);
        match t.uops[0].kind {
            UopKind::Jal { target, .. } => {
                assert_eq!(target.addr, 0x400);
                assert_eq!(target.idx, NO_IDX);
            }
            ref k => panic!("expected jal, got {k:?}"),
        }
    }

    #[test]
    fn straight_line_loop_body_is_specialized() {
        // lp.setupi over a 2-op body: p.lw! then addi using the load.
        let prog = Program::from_instrs(
            0,
            [
                Instr::LpSetupi {
                    l: LoopIdx::L0,
                    count: 8,
                    uimm: 6,
                },
                Instr::LoadPostInc {
                    op: LoadOp::Lw,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 4,
                },
                addi(Reg::A2, Reg::A0, 1),
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(t.loop_bodies(), 1);
        let b = &t.blocks[0];
        assert_eq!((b.start_addr, b.end_addr), (4, 12));
        assert_eq!((b.start_idx, b.len), (1, 2));
        // 2 base cycles + 1 load-use stall into the addi.
        assert_eq!(b.profile.cycles, 3);
        assert_eq!(b.stall_in, vec![None, Some(MnemonicId::PLwPost)]);
        // The descriptor hangs off the last body op.
        assert_eq!(t.uops[2].body, 0);
    }

    #[test]
    fn wrap_around_stall_is_recognized() {
        // Single-op body: p.lw! a0, 4(a1) — next iteration reads a1, not
        // a0, so no wrap stall...
        let prog = Program::from_instrs(
            0,
            [
                Instr::LpSetupi {
                    l: LoopIdx::L0,
                    count: 8,
                    uimm: 4,
                },
                Instr::LoadPostInc {
                    op: LoadOp::Lw,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 4,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(t.blocks[0].stall_in, vec![None]);

        // ...but loading the pointer register itself stalls every
        // iteration on the wrap.
        let prog = Program::from_instrs(
            0,
            [
                Instr::LpSetupi {
                    l: LoopIdx::L0,
                    count: 8,
                    uimm: 4,
                },
                Instr::LoadPostInc {
                    op: LoadOp::Lw,
                    rd: Reg::A1,
                    rs1: Reg::A1,
                    offset: 4,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(t.blocks[0].stall_in, vec![Some(MnemonicId::PLwPost)]);
        assert_eq!(t.blocks[0].profile.cycles, 2);
    }

    #[test]
    fn control_flow_in_body_prevents_specialization() {
        let prog = Program::from_instrs(
            0,
            [
                Instr::LpSetupi {
                    l: LoopIdx::L0,
                    count: 8,
                    uimm: 6,
                },
                addi(Reg::A0, Reg::A0, 1),
                Instr::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                    offset: -4,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        // The hardware loop is not specialized; the branch closing the
        // software loop inside it is.
        assert_eq!(t.loop_bodies(), 1);
        assert!(matches!(t.blocks[0].exit, BlockExit::Branch { .. }));
        assert_eq!((t.blocks[0].start_idx, t.blocks[0].len), (1, 2));
    }

    #[test]
    fn branch_closed_loop_profile_charges_the_taken_branch() {
        // top: lw a0, 0(a1); bne a0, zero, top — the branch stalls on
        // the load every pass, and each steady-state pass ends taken.
        let prog = Program::from_instrs(
            0,
            [
                Instr::Load {
                    op: LoadOp::Lw,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 0,
                },
                Instr::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::A0,
                    rs2: Reg::ZERO,
                    offset: -4,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(t.loop_bodies(), 1);
        let b = &t.blocks[0];
        assert_eq!((b.start_addr, b.end_addr), (0, 8));
        assert_eq!(b.stall_in, vec![None, Some(MnemonicId::Lw)]);
        // lw 1 + stall 1 + bne 1 + taken 1.
        assert_eq!(b.profile.cycles, 4);
        assert!(b.profile.retire_rows.contains(&(MnemonicId::Bne, 1, 2, 0)));
        assert_eq!(t.uops[1].body, 0);
        assert_eq!(std::mem::size_of::<Uop>(), 48);
    }

    #[test]
    fn csr_read_in_body_prevents_specialization() {
        let prog = Program::from_instrs(
            0,
            [
                Instr::LpSetupi {
                    l: LoopIdx::L0,
                    count: 8,
                    uimm: 4,
                },
                Instr::Csr {
                    op: CsrOp::Csrrs,
                    rd: Reg::A0,
                    rs1: Reg::ZERO,
                    csr: Csr::Mcycle,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(t.loop_bodies(), 0);
    }

    #[test]
    fn body_ending_mid_instruction_prevents_specialization() {
        // lpend = 10 falls inside the 4-byte addi at 8.
        let prog = Program::from_instrs(
            0,
            [
                Instr::LpSetupi {
                    l: LoopIdx::L0,
                    count: 8,
                    uimm: 5,
                },
                addi(Reg::A0, Reg::A0, 1),
                addi(Reg::A1, Reg::A1, 1),
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(t.loop_bodies(), 0);
    }

    #[test]
    fn clip_bounds_are_materialized() {
        let prog = Program::from_instrs(
            0,
            [
                Instr::Clip {
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    bits: 8,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        match t.uops[0].kind {
            UopKind::Clip { lo, hi, .. } => {
                assert_eq!((lo, hi), (-128, 127));
            }
            ref k => panic!("expected clip, got {k:?}"),
        }
    }

    #[test]
    fn dot_is_the_widened_lane_sum_truncated() {
        let ops = [
            DotOp::DotUp,
            DotOp::DotUsp,
            DotOp::DotSp,
            DotOp::SdotUp,
            DotOp::SdotUsp,
            DotOp::SdotSp,
        ];
        let mut rng = rnnasip_rng::StdRng::seed_from_u64(29);
        for n in 0..4_000 {
            // Every fourth pair uses the lane extremes.
            let (a, b): (u32, u32) = if n % 4 == 0 {
                (0x8000_8000 | rng.gen::<u32>() & 0x7F7F, 0x8080_8080)
            } else {
                (rng.gen(), rng.gen())
            };
            for op in ops {
                let (sa, sb) = match op {
                    DotOp::DotUp | DotOp::SdotUp => (false, false),
                    DotOp::DotUsp | DotOp::SdotUsp => (false, true),
                    DotOp::DotSp | DotOp::SdotSp => (true, true),
                };
                for (size, bits) in [(SimdSize::Half, 16), (SimdSize::Byte, 8)] {
                    let lane = |w: u32, i: u32, signed: bool| {
                        let raw = i64::from((w >> (bits * i)) & ((1u32 << bits) - 1));
                        if signed && raw >= 1 << (bits - 1) {
                            raw - (1 << bits)
                        } else {
                            raw
                        }
                    };
                    let want: i64 = (0..32 / bits)
                        .map(|i| lane(a, i, sa) * lane(b, i, sb))
                        .sum();
                    assert_eq!(
                        dot(op, size, a, b),
                        want as u32,
                        "{op:?} {size:?} {a:#x} {b:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn div_gets_static_extra_cycles() {
        let prog = Program::from_instrs(
            0,
            [
                Instr::MulDiv {
                    op: MulDivOp::Div,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    rs2: Reg::A2,
                },
                Instr::MulDiv {
                    op: MulDivOp::Mulh,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    rs2: Reg::A2,
                },
                Instr::Ecall,
            ],
        );
        let t = UopProgram::translate(&prog);
        assert_eq!(u64::from(t.uops[0].base_cycles), 1 + DIV_EXTRA_CYCLES);
        assert_eq!(u64::from(t.uops[1].base_cycles), 1 + MULH_EXTRA_CYCLES);
    }
}
