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
//! the same ops one at a time with every bulk runner off.
//!
//! On top of the linear lowering, straight-line loops (no control flow,
//! no CSR access, no loop configuration inside) get a [`LoopBody`]
//! descriptor. Two kinds of loop qualify, told apart by [`LoopExit`]:
//! `lp.setup`/`lp.setupi` hardware loops, and software loops closed by a
//! backward conditional branch over the body (the RV32IMC baseline's
//! loops). Either way the per-iteration cycle cost, per-mnemonic retire
//! rows and load-use stall pattern are static, so the loop runner in
//! `machine.rs` can execute iterations as a tight data-only host loop and
//! account statistics in bulk. Maximal straight-line stretches between
//! control flow and branch targets get a [`StraightRun`] the same way.
//! See `DESIGN.md` § "Micro-op pipeline" for the exact lowering rules and
//! fallback conditions.

use crate::error::ExitReason;
use crate::program::Program;
use rnnasip_isa::{
    AluImmOp, AluOp, BranchOp, Csr, DotOp, Instr, LoadOp, MnemonicId, MulDivOp, PvAluOp, Reg,
    SimdMode, SimdSize, StoreOp, TimingClass,
};

/// Sentinel micro-op index: "this address is not an instruction start".
/// Stepping onto it raises [`SimError::FetchFault`](crate::SimError::FetchFault).
pub(crate) const NO_IDX: u32 = u32::MAX;

/// Sentinel loop-body index: "no specializable loop body ends here".
pub(crate) const NO_BODY: u32 = u32::MAX;

/// Sentinel straight-line-run index: "no specialized run starts here".
pub(crate) const NO_RUN: u32 = u32::MAX;

/// Sentinel shortcut-region index: "no installed kernel-shortcut region
/// starts here".
pub(crate) const NO_SC: u32 = u32::MAX;

/// Minimum micro-op count for materializing a [`StraightRun`]: below
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
    /// Head of the [`LoopBody`] chain of specializable hardware loops
    /// whose *last body op* this is — or, on an `lp.setup`/`lp.setupi`
    /// op, the chain containing its own loop's descriptor (for bulk
    /// entry from the top), and on a backward branch, the branch-closed
    /// body it ends. [`NO_BODY`] otherwise.
    pub body: u32,
    /// Index of the [`StraightRun`] whose *first op* this is, or
    /// [`NO_RUN`].
    pub run: u32,
    /// Index of the installed [`ShortcutRegion`] whose *first op* this
    /// is, or [`NO_SC`].
    ///
    /// [`ShortcutRegion`]: crate::shortcut::ShortcutRegion
    pub shortcut: u32,
}

/// How a [`LoopBody`] jumps back to its first op.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LoopExit {
    /// The zero-cycle jump-back of an armed hardware loop whose
    /// `[lpstart, lpend)` is the body range; the loop count ends it.
    HwLoop,
    /// The body's last op: a conditional branch back to the first op.
    /// Taken, it costs one extra cycle; the first untaken evaluation
    /// leaves the loop.
    Branch { op: BranchOp, rs1: Reg, rs2: Reg },
}

/// A specializable loop body, recognized at translation time.
///
/// Bodies are straight-line micro-op runs `[start_idx, start_idx+len)`
/// covering addresses `[start_addr, end_addr)` with a fully static
/// timing profile: the per-iteration cycle cost, per-mnemonic retire
/// rows and the load-use stall pattern (including the wrap-around stall
/// from the last op's load into the first op of the next iteration) are
/// pre-computed here, so the block runner executes only data semantics
/// per iteration and accounts `n` iterations with one bulk update per
/// row. A [`LoopExit::Branch`] body includes its closing branch as the
/// last op, and its profile charges the branch as taken.
#[derive(Clone, Debug)]
pub(crate) struct LoopBody {
    /// First body address (`lp.setup` PC + 4, or the branch target).
    pub start_addr: u32,
    /// Address just past the body (the loop's `lpend`, or the closing
    /// branch's fall-through).
    pub end_addr: u32,
    /// Micro-op index of the first body op.
    pub start_idx: u32,
    /// Body length in micro-ops.
    pub len: u32,
    /// Total cycles of one steady-state iteration: base cycles plus
    /// static load-use stalls. Never zero (bodies have ≥ 1 op).
    pub iter_cycles: u64,
    /// Per-mnemonic retire totals for one iteration:
    /// `(id, instrs, cycles, macs)`.
    pub retire_rows: Vec<(MnemonicId, u64, u64, u64)>,
    /// Per-mnemonic stall-cycle totals for one iteration.
    pub stall_rows: Vec<(MnemonicId, u64)>,
    /// For body op `j`: the mnemonic to charge a load-use stall to when
    /// entering op `j`, or `None` if no stall. Entry 0 is the
    /// wrap-around stall (previous iteration's last op → this
    /// iteration's first). Used for exact accounting of a faulting
    /// partial iteration.
    pub stall_in: Vec<Option<MnemonicId>>,
    /// What closes the loop.
    pub exit: LoopExit,
    /// Next descriptor sharing the same last body op, or [`NO_BODY`]
    /// (always for a branch-closed body).
    pub next: u32,
}

/// A maximal straight-line micro-op run, recognized at translation time.
///
/// Same idea as a [`LoopBody`], executed once per entry instead of per
/// iteration: kernel scaffolding between loops (requantize/activate
/// epilogues, pointer setup) is straight-line too, and its timing is
/// just as static. Only a run's first op may be a direct branch or jump
/// target. The block runner may execute a run in bulk only when no
/// *armed* hardware loop's end address falls on one of the run's
/// fall-through addresses — a runtime condition checked per entry; the
/// generic per-op path handles every other case bit-identically.
#[derive(Clone, Debug)]
pub(crate) struct StraightRun {
    /// Address of the first op.
    pub start_addr: u32,
    /// Fall-through address of the last op.
    pub end_addr: u32,
    /// Micro-op index of the first op.
    pub start_idx: u32,
    /// Run length in micro-ops.
    pub len: u32,
    /// Total cycles of one pass: base cycles plus static internal
    /// load-use stalls (the entry stall from a load *before* the run is
    /// dynamic and charged by the caller).
    pub cycles: u64,
    /// Per-mnemonic retire totals: `(id, instrs, cycles, macs)`.
    pub retire_rows: Vec<(MnemonicId, u64, u64, u64)>,
    /// Per-mnemonic stall-cycle totals.
    pub stall_rows: Vec<(MnemonicId, u64)>,
    /// For run op `j`: the mnemonic to charge a load-use stall to when
    /// entering op `j` (`None` for op 0 — there is no wrap-around). Used
    /// for exact accounting of a faulting partial pass.
    pub stall_in: Vec<Option<MnemonicId>>,
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
    pub(crate) bodies: Vec<LoopBody>,
    pub(crate) runs: Vec<StraightRun>,
    pub(crate) shortcuts: Vec<crate::shortcut::ShortcutRegion>,
    verify_ops: u64,
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
        let mut bodies: Vec<LoopBody> = Vec::new();
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
                if chain_contains(&bodies, uops[last].body, start, end) {
                    uops[i].body = uops[last].body;
                    continue;
                }
                let chained = LoopBody {
                    next: uops[last].body,
                    ..body
                };
                uops[last].body = bodies.len() as u32;
                uops[i].body = bodies.len() as u32;
                bodies.push(chained);
            }
        }

        // Verify and install the declared kernel-shortcut regions, each
        // marked on its first op — before run recognition, so region
        // starts can act as run barriers below.
        let mut shortcuts: Vec<crate::shortcut::ShortcutRegion> = Vec::new();
        let mut verify_ops = 0u64;
        let verify_started = std::time::Instant::now();
        for r in regions {
            if let Some(sc) = crate::shortcut::install(&uops, program, r, &mut verify_ops) {
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
            let (mut retire_rows, stall_rows, stall_in, cycles) = aggregate(&uops[t..=b], true);
            retire_rows
                .iter_mut()
                .find(|r| r.0 == uops[b].id)
                .expect("the closing branch is the only op on its row")
                .2 += 1;
            uops[b].body = bodies.len() as u32;
            bodies.push(LoopBody {
                start_addr: uops[t].addr,
                end_addr: uops[b].next_addr,
                start_idx: t as u32,
                len: (b - t + 1) as u32,
                iter_cycles: cycles + 1,
                retire_rows,
                stall_rows,
                stall_in,
                exit: LoopExit::Branch { op, rs1, rs2 },
                next: NO_BODY,
            });
        }

        // Straight-line runs: maximal sequences of eligible ops, marked
        // on their first op. Loop bodies are a subrange of some run; the
        // run trigger defers to the armed-loop check at execution time.
        // An installed shortcut region's first op ends the preceding run:
        // bulking across it would skip the shortcut trigger. So does a
        // direct branch or jump target: control arriving there should
        // find a run start, not step the rest of a run op by op.
        let mut runs: Vec<StraightRun> = Vec::new();
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
            let len = i - start;
            if len < MIN_RUN_LEN {
                continue;
            }
            let (retire_rows, stall_rows, stall_in, cycles) = aggregate(&uops[start..i], false);
            let (start_addr, end_addr) = (uops[start].addr, uops[i - 1].next_addr);
            uops[start].run = runs.len() as u32;
            runs.push(StraightRun {
                start_addr,
                end_addr,
                start_idx: start as u32,
                len: len as u32,
                cycles,
                retire_rows,
                stall_rows,
                stall_in,
            });
        }
        Self {
            uops,
            bodies,
            runs,
            shortcuts,
            verify_ops,
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
        self.bodies.len()
    }

    /// Number of straight-line runs the translator specialized.
    pub fn straight_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of kernel-shortcut regions verified and installed by
    /// [`translate_with_shortcuts`](Self::translate_with_shortcuts).
    pub fn shortcut_regions(&self) -> usize {
        self.shortcuts.len()
    }

    /// Micro-ops the shortcut verifier interpreted one by one while
    /// checking the declared kernel regions. Hardware-loop iterations it
    /// applied in closed form are not counted, so this is the
    /// deterministic measure of verification work.
    pub fn verify_ops(&self) -> u64 {
        self.verify_ops
    }

    /// Host nanoseconds spent verifying kernel regions (part of
    /// [`translate_with_shortcuts`](Self::translate_with_shortcuts)).
    pub fn verify_nanos(&self) -> u64 {
        self.verify_nanos
    }
}

/// Whether the descriptor chain starting at `head` already covers the
/// loop range `[start, end)`.
fn chain_contains(bodies: &[LoopBody], mut head: u32, start: u32, end: u32) -> bool {
    while head != NO_BODY {
        let b = &bodies[head as usize];
        if b.start_addr == start && b.end_addr == end {
            return true;
        }
        head = b.next;
    }
    false
}

/// Whether a micro-op may appear in a specialized loop body.
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

/// Builds the [`LoopBody`] descriptor for the range `[start, end)`, or
/// `None` when the body is not specializable: `start` does not map to an
/// instruction, the body is empty or ends mid-instruction (the jump-back
/// would never trigger), or an op fails [`body_eligible`].
fn recognize_body(uops: &[Uop], program: &Program, start: u32, end: u32) -> Option<LoopBody> {
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
    let (retire_rows, stall_rows, stall_in, iter_cycles) =
        aggregate(&uops[start_idx..start_idx + len], true);

    Some(LoopBody {
        start_addr: start,
        end_addr: end,
        start_idx: start_idx as u32,
        len: len as u32,
        iter_cycles,
        retire_rows,
        stall_rows,
        stall_in,
        exit: LoopExit::HwLoop,
        next: NO_BODY,
    })
}

/// The static timing profile of a straight-line micro-op slice:
/// per-mnemonic retire rows, per-mnemonic stall totals, the per-op
/// stall-on-entry pattern, and the total cycles of one pass.
///
/// Op `j` stalls on entry iff the previous op loads a register `j`
/// reads. With `wrap` (loop bodies), op 0's predecessor is the last op —
/// steady-state iterations follow one another directly; without it
/// (straight runs), op 0 never stalls statically — a stall from a load
/// *before* the slice is the caller's to charge.
type SliceProfile = (
    Vec<(MnemonicId, u64, u64, u64)>,
    Vec<(MnemonicId, u64)>,
    Vec<Option<MnemonicId>>,
    u64,
);

fn aggregate(slice: &[Uop], wrap: bool) -> SliceProfile {
    let len = slice.len();
    let stall_in: Vec<Option<MnemonicId>> = (0..len)
        .map(|j| {
            if j == 0 && !wrap {
                return None;
            }
            let p = &slice[if j == 0 { len - 1 } else { j - 1 }];
            (p.load_rd != 0 && slice[j].uses_mask & (1u32 << p.load_rd) != 0).then_some(p.id)
        })
        .collect();

    let mut retire_rows: Vec<(MnemonicId, u64, u64, u64)> = Vec::new();
    for u in slice {
        match retire_rows.iter_mut().find(|r| r.0 == u.id) {
            Some(r) => {
                r.1 += 1;
                r.2 += u64::from(u.base_cycles);
                r.3 += u64::from(u.mac_ops);
            }
            None => retire_rows.push((u.id, 1, u64::from(u.base_cycles), u64::from(u.mac_ops))),
        }
    }
    let mut stall_rows: Vec<(MnemonicId, u64)> = Vec::new();
    for id in stall_in.iter().flatten() {
        match stall_rows.iter_mut().find(|r| r.0 == *id) {
            Some(r) => r.1 += 1,
            None => stall_rows.push((*id, 1)),
        }
    }
    let cycles =
        retire_rows.iter().map(|r| r.2).sum::<u64>() + stall_rows.iter().map(|r| r.1).sum::<u64>();
    (retire_rows, stall_rows, stall_in, cycles)
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
        body: NO_BODY,
        run: NO_RUN,
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
        let b = &t.bodies[0];
        assert_eq!((b.start_addr, b.end_addr), (4, 12));
        assert_eq!((b.start_idx, b.len), (1, 2));
        // 2 base cycles + 1 load-use stall into the addi.
        assert_eq!(b.iter_cycles, 3);
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
        assert_eq!(t.bodies[0].stall_in, vec![None]);

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
        assert_eq!(t.bodies[0].stall_in, vec![Some(MnemonicId::PLwPost)]);
        assert_eq!(t.bodies[0].iter_cycles, 2);
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
        assert!(matches!(t.bodies[0].exit, LoopExit::Branch { .. }));
        assert_eq!((t.bodies[0].start_idx, t.bodies[0].len), (1, 2));
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
        let b = &t.bodies[0];
        assert_eq!((b.start_addr, b.end_addr), (0, 8));
        assert_eq!(b.stall_in, vec![None, Some(MnemonicId::Lw)]);
        // lw 1 + stall 1 + bne 1 + taken 1.
        assert_eq!(b.iter_cycles, 4);
        assert!(b.retire_rows.contains(&(MnemonicId::Bne, 1, 2, 0)));
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
