//! Kernel-shortcut execution tier: native fast paths for compiled
//! kernel regions.
//!
//! The code generator in `rnnasip-core` knows exactly which pc ranges it
//! emitted as kernels, and publishes them as [`KernelRegion`] descriptors
//! (pc range plus the region's math and address layout). There are three
//! kinds of math ([`RegionMath`]): the requantized matrix-vector product
//! of FC stages, LSTM gates and CNN pixels; from level c on, the LSTM
//! cell update; and at level a, one output's spilled dot product. At
//! translation time
//! ([`UopProgram::translate_with_shortcuts`](crate::UopProgram::translate_with_shortcuts))
//! each descriptor is *verified* against the micro-op stream by an
//! abstract interpretation ([`install`]): the region is walked with
//! constant-folded control flow and symbolic data. Constants fold
//! through the interpreter's own micro-op semantics (`UopKind::value`,
//! `branch_taken`, `load_value` in the `uop` module); the walk adds only
//! the symbolic cases (pointer arithmetic on entry cells, dataflow nodes,
//! dot-product chains and halfword inference). It proves that
//!
//! * every branch, hardware-loop count and memory address inside the
//!   region is a compile-time constant given the values of the region's
//!   pointer cells (global words or live-in registers), or compares two
//!   offsets from one cell,
//! * every load lies in a span the descriptor names (an operand stream
//!   or a pointer cell's word), and the loads cover each span from end
//!   to end, a matvec's unread prefetch word excepted,
//! * the region makes exactly the descriptor's stores, in order, and
//!   nothing else: `n_out` requantized halfwords for a matvec; for a cell
//!   update, each row's `c` then `h`, whose dataflow trees of loads,
//!   `mul`, `srai`, `add`, `clip` and `pl.tanh` must be the row's formula
//!   (see [`CellUpdate`]); for a dot product, the bias seed and then
//!   each partial sum into the spill word, which every `lw` of it reads
//!   back (see [`Dot`]),
//! * the complete timing profile — base cycles, taken branches,
//!   load-use stalls, per-mnemonic retire rows — is static.
//!
//! Loops whose iterations only shift the walk's state by constants —
//! hardware loops and loops closed by a backward branch alike — are
//! walked for two iterations and then applied at once (see
//! `Candidate`, which the walk's own arms feed), so verification costs
//! what the region's static code costs, not what it executes. A
//! hardware loop nested in a branch-closed one (a level-b matvec's
//! inner loop in its output-row loop) summarizes inside the outer
//! loop's watch, so the outer loop summarizes too.
//!
//! A region that passes is installed as a [`ShortcutRegion`]: the machine
//! then executes one entry as a single native computation over TCDM
//! (`Memory`) plus one bulk state/statistics commit, retiring thousands
//! of micro-ops per entry. Regions that fail verification are simply not
//! installed — execution falls back to the micro-op path, which is
//! bit-identical by construction. The same holds per entry at run time:
//! armed faults, in-flight SPR writes, live hardware loops, a short
//! watchdog budget or unresolvable/overlapping pointer ranges all make
//! the machine decline the shortcut and interpret the region instead.
//!
//! The bit-identity contract (outputs, cycle counts, per-mnemonic rows)
//! is enforced by the three-way shortcut / bulk / stepping differential
//! tests in the bench crate.

use crate::core_state::Core;
use crate::mem::Memory;
use crate::program::Program;
use crate::uop::{
    alu, alu_imm, branch_taken, clip, mul_div, unary, Profile, UnaryOp, Uop, UopKind, NO_IDX,
};
use rnnasip_isa::{AluImmOp, AluOp, BranchOp, LoadOp, MnemonicId, MulDivOp, Reg, StoreOp};

/// Upper bound on the dynamic micro-ops verifying one region accounts
/// for — a guard against pathological descriptors, far above any real
/// kernel (the largest suite kernel executes ~200k micro-ops per entry).
/// Loop iterations a summary applies count as if walked, so the cap
/// rejects exactly the regions it rejected when every op was walked.
const WALK_OP_CAP: u64 = 8_000_000;

/// Where a kernel pointer comes from at run time — the shortcut-layer
/// image of the compiler's pointer sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShortcutPtr {
    /// A compile-time constant byte address.
    Const(u32),
    /// Loaded from a 32-bit global cell at this constant address (an
    /// outer software loop advances the pointer between kernel entries).
    Cell(u32),
    /// Held in this register at region entry (a loop-carried cursor of
    /// the code around the region).
    Reg(Reg),
}

/// Activation applied after requantization, mirroring the generated
/// `srai 12` → `clip 16` → activation epilogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShortcutAct {
    /// No activation.
    None,
    /// Rectified linear (`max(v, 0)`).
    Relu,
    /// Hardware piecewise-linear tanh (`pl.tanh`).
    Tanh,
    /// Hardware piecewise-linear sigmoid (`pl.sig`).
    Sigmoid,
}

/// A compiler-declared kernel region: the pc range of one emitted kernel
/// together with the math it computes and its operand layout.
///
/// Descriptors are *claims*, not trusted input: translation verifies
/// each one against the micro-op stream (the `shortcut` module's rules)
/// and silently discards any that cannot be proven safe. The operand
/// spans are checked from both sides — the code reads inside them and
/// from each one's first byte to its last — and so are the stores. Two
/// parts of a matvec stay claims: its activation `act`, and which
/// weight row and bias word pair with which output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelRegion {
    /// Address of the region's first instruction.
    pub start_addr: u32,
    /// Fall-through address after the region's last instruction.
    pub end_addr: u32,
    /// What the region computes.
    pub math: RegionMath,
}

/// The computation a [`KernelRegion`] claims to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionMath {
    /// A requantized matrix-vector product.
    Matvec(Matvec),
    /// The LSTM element-wise cell and hidden-state update.
    Cell(CellUpdate),
    /// One output's dot product with a spilled accumulator.
    Dot(Dot),
}

/// One emitted matrix-vector kernel:
/// `out[j] = act((bias32[j] + W[j]·x) >> 12)` for `j < n_out`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Matvec {
    /// Row-major Q3.12 weight base (`n_out × n_in` halfwords, and one
    /// word after them that a `pl.sdotsp` schedule prefetches unread).
    pub w_base: u32,
    /// Pre-shifted 32-bit bias seeds (`n_out` words).
    pub bias32: u32,
    /// Input vector source (`n_in` halfwords).
    pub x: ShortcutPtr,
    /// Output base source.
    pub out: ShortcutPtr,
    /// Bytes between consecutive outputs (even, nonzero).
    pub out_stride: u32,
    /// Input width in elements (even, nonzero).
    pub n_in: u32,
    /// Output count (nonzero).
    pub n_out: u32,
    /// Activation applied after requantization.
    pub act: ShortcutAct,
}

/// One emitted LSTM cell-update loop over `rows` dense Q3.12 rows. Row
/// `k`, in order, computes and stores
///
/// ```text
/// c[k] ← clip16((f[k]·c[k] >> 12) + (i[k]·g[k] >> 12))
/// h[k] ← clip16((o[k]·tanh(c[k])) >> 12)
/// ```
///
/// with the hardware `pl.tanh`; `c` is updated in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellUpdate {
    /// Gate activation sources in `o, f, i, g` order (`rows` halfwords
    /// each).
    pub gates: [ShortcutPtr; 4],
    /// Cell-state source, read and rewritten row by row.
    pub c: ShortcutPtr,
    /// Hidden-state destination.
    pub h: ShortcutPtr,
    /// Row count (nonzero).
    pub rows: u32,
}

/// One output of the level-a kernel, whose accumulator lives in a
/// memory word:
///
/// ```text
/// spill ← acc = bias32 + Σ_{k < n_in} w[k]·x[k]    (wrapping, 32-bit)
/// ```
///
/// The region seeds the spill word with the bias word, then stores each
/// partial sum back to it; every `lw` of the spill word reads the
/// region's own last store. The final sum is also left in the register
/// that held it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dot {
    /// Weight row source (`n_in` halfwords).
    pub w: ShortcutPtr,
    /// Input vector source (`n_in` halfwords).
    pub x: ShortcutPtr,
    /// Source of the pre-shifted 32-bit bias seed word.
    pub bias32: ShortcutPtr,
    /// The accumulator's spill word.
    pub spill: ShortcutPtr,
    /// Input width in elements (nonzero).
    pub n_in: u32,
}

/// The kind of math a [`KernelRegion`] declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// [`RegionMath::Matvec`].
    Matvec,
    /// [`RegionMath::Cell`].
    Cell,
    /// [`RegionMath::Dot`].
    Dot,
}

impl RegionKind {
    /// Every kind, in declaration order.
    pub const ALL: [RegionKind; 3] = [RegionKind::Matvec, RegionKind::Cell, RegionKind::Dot];

    /// The kind's lowercase name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            RegionKind::Matvec => "matvec",
            RegionKind::Cell => "cell",
            RegionKind::Dot => "dot",
        }
    }
}

impl RegionMath {
    /// The kind of this math.
    pub fn kind(&self) -> RegionKind {
        match self {
            RegionMath::Matvec(_) => RegionKind::Matvec,
            RegionMath::Cell(_) => RegionKind::Cell,
            RegionMath::Dot(_) => RegionKind::Dot,
        }
    }

    /// Every pointer the math names.
    fn ptrs(&self) -> Vec<ShortcutPtr> {
        match *self {
            RegionMath::Matvec(m) => vec![m.x, m.out],
            RegionMath::Cell(u) => vec![u.gates[0], u.gates[1], u.gates[2], u.gates[3], u.c, u.h],
            RegionMath::Dot(d) => vec![d.w, d.x, d.bias32, d.spill],
        }
    }
}

/// Shortcut-verification work spent on a set of kernel regions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyCost {
    /// Regions verified.
    pub regions: u64,
    /// Micro-ops the walk interpreted one by one. Loop iterations applied
    /// in closed form are not counted.
    pub walked: u64,
    /// Loop summaries applied.
    pub summaries: u64,
    /// Host nanoseconds spent walking.
    pub nanos: u64,
}

impl std::ops::AddAssign for VerifyCost {
    fn add_assign(&mut self, o: Self) {
        self.regions += o.regions;
        self.walked += o.walked;
        self.summaries += o.summaries;
        self.nanos += o.nanos;
    }
}

/// Shortcut-verification work of one translation, by region kind and
/// verdict ([`UopProgram::verify_breakdown`](crate::UopProgram::verify_breakdown)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyBreakdown {
    /// Per kind, in [`RegionKind::ALL`] order: rejected, then installed.
    costs: [[VerifyCost; 2]; 3],
}

impl VerifyBreakdown {
    /// The work on regions of `kind` whose verification installed them
    /// (`installed`) or rejected them.
    pub fn get(&self, kind: RegionKind, installed: bool) -> VerifyCost {
        self.costs[kind as usize][usize::from(installed)]
    }

    /// The work on every region.
    pub fn total(&self) -> VerifyCost {
        let mut t = VerifyCost::default();
        for c in self.costs.iter().flatten() {
            t += *c;
        }
        t
    }

    pub(crate) fn add(&mut self, kind: RegionKind, installed: bool, cost: VerifyCost) {
        self.costs[kind as usize][usize::from(installed)] += cost;
    }
}

impl std::ops::AddAssign for VerifyBreakdown {
    fn add_assign(&mut self, o: Self) {
        for (a, b) in self
            .costs
            .iter_mut()
            .flatten()
            .zip(o.costs.iter().flatten())
        {
            *a += *b;
        }
    }
}

impl ShortcutAct {
    /// Applies the activation to a requantized, clipped value.
    pub(crate) fn apply(self, v: i32) -> i32 {
        match self {
            ShortcutAct::None => v,
            ShortcutAct::Relu => v.max(0),
            ShortcutAct::Tanh => hw_tanh(v),
            ShortcutAct::Sigmoid => {
                rnnasip_fixed::hw_sig(rnnasip_fixed::Q3p12::from_raw(v as i16)).raw() as i32
            }
        }
    }
}

/// The hardware `pl.tanh` of a Q3.12 halfword, sign-extended.
fn hw_tanh(v: i32) -> i32 {
    rnnasip_fixed::hw_tanh(rnnasip_fixed::Q3p12::from_raw(v as i16)).raw() as i32
}

impl ShortcutPtr {
    /// The pointer's value in `mem` (`None` if its cell is unreadable,
    /// and for a register pointer, which only a core can resolve).
    pub(crate) fn resolve(self, mem: &Memory) -> Option<u32> {
        match self {
            ShortcutPtr::Const(a) => Some(a),
            ShortcutPtr::Cell(c) => mem.read_u32(c).ok(),
            ShortcutPtr::Reg(_) => None,
        }
    }

    /// The pointer as an abstract address.
    fn aaddr(self) -> AAddr {
        match self {
            ShortcutPtr::Const(a) => AAddr { cell: None, off: a },
            ShortcutPtr::Cell(c) => AAddr {
                cell: Some(Cell::Mem(c)),
                off: 0,
            },
            ShortcutPtr::Reg(r) => AAddr {
                cell: Some(Cell::Reg(r.num())),
                off: 0,
            },
        }
    }
}

/// A pointer cell, read at region entry: a 32-bit global word at a
/// constant address, or a live-in register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cell {
    Mem(u32),
    Reg(u8),
}

impl Cell {
    /// The cell's value on entry (`None` if the word is unreadable).
    fn resolve(self, mem: &Memory, core: &Core) -> Option<u32> {
        match self {
            Cell::Mem(c) => mem.read_u32(c).ok(),
            Cell::Reg(r) => Some(core.reg(Reg::from_bits(u32::from(r)))),
        }
    }
}

/// An abstract address: `cell` is `None` for a constant byte address
/// `off`, or `Some(c)` for cell `c`'s entry value plus `off`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct AAddr {
    pub cell: Option<Cell>,
    pub off: u32,
}

/// How one exit-live register's final value is reconstructed at commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExitVal {
    /// A constant.
    Const(u32),
    /// The address itself: a pointer cell's entry value plus a constant
    /// (a pointer loaded from a global cell or held in a register, then
    /// advanced).
    Addr(AAddr),
    /// Re-load from memory (the last value a register loaded). Resolved
    /// before the region's stores are written, so the read returns the
    /// load-time value: every load span is store-disjoint, and a cell
    /// update's in-place `c` read precedes its row's store.
    Load { op: LoadOp, addr: AAddr },
    /// The `k`-th stored value, sign-extended.
    Out(u32),
    /// A value the region computed but did not store (a cell update's
    /// last-row intermediate): re-evaluated from
    /// [`ShortcutRegion::exit_nodes`]`[i]`.
    Node(u32),
}

/// One step of a dataflow tree over operands `V`: the data semantics of
/// the micro-op that produced a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Node<V> {
    Imm(AluImmOp, V, i32),
    Alu(AluOp, V, V),
    MulDiv(MulDivOp, V, V),
    Clip(V, i32, i32),
    Unary(UnaryOp, V),
}

impl<V: Copy> Node<V> {
    /// Maps the operands, failing if any fails.
    pub(crate) fn try_map<W>(self, mut f: impl FnMut(V) -> Option<W>) -> Option<Node<W>> {
        Some(match self {
            Node::Imm(op, a, imm) => Node::Imm(op, f(a)?, imm),
            Node::Alu(op, a, b) => Node::Alu(op, f(a)?, f(b)?),
            Node::MulDiv(op, a, b) => Node::MulDiv(op, f(a)?, f(b)?),
            Node::Clip(a, lo, hi) => Node::Clip(f(a)?, lo, hi),
            Node::Unary(op, a) => Node::Unary(op, f(a)?),
        })
    }
}

impl Node<u32> {
    /// The micro-op's result on concrete operands.
    pub(crate) fn eval(self) -> u32 {
        match self {
            Node::Imm(op, a, imm) => alu_imm(op, a, imm),
            Node::Alu(op, a, b) => alu(op, a, b),
            Node::MulDiv(op, a, b) => mul_div(op, a, b),
            Node::Clip(a, lo, hi) => clip(a, lo, hi),
            Node::Unary(op, a) => unary(op, a),
        }
    }
}

/// One contiguous abstract byte range the region loads from or stores
/// to, with the per-size alignment residues needed to prove every access
/// in it is aligned once the cell base is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccessRange {
    pub cell: Option<Cell>,
    /// Inclusive start offset (absolute address when `cell` is `None`).
    pub lo: u32,
    /// Exclusive end offset.
    pub hi: u32,
    /// Residue `off % size` for size classes 1/2/4 (`u32::MAX` = size
    /// unused in this range).
    pub res: [u32; 3],
}

/// Exit state of one hardware-loop level touched by the region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HwLoopExit {
    pub start: u32,
    pub end: u32,
    pub count: u32,
}

/// A verified, installed kernel region: the static execution profile of
/// one region entry, precomputed by [`install`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ShortcutRegion {
    pub desc: KernelRegion,
    /// Micro-op index just past the region.
    pub end_idx: u32,
    /// Instructions retired by one entry.
    pub total_instrs: u64,
    /// Timing of one entry (base + taken branches + stalls).
    pub profile: Profile,
    /// Registers written by the region, with their exit values.
    pub exit_regs: Vec<(u8, ExitVal)>,
    /// Per SPR slot: the address of the last weight word drained into it
    /// (`None` = slot untouched).
    pub exit_spr: [Option<AAddr>; 2],
    /// SPR writes still in flight at region exit:
    /// `(instret offset from entry, slot, weight word address)`.
    pub exit_pending: Vec<(u64, usize, AAddr)>,
    /// Hardware-loop levels reconfigured by the region.
    pub exit_hwloop: [Option<HwLoopExit>; 2],
    /// The last op's load, pending into the op after the region.
    pub exit_pending_load: Option<(u8, MnemonicId)>,
    /// Dataflow trees of [`ExitVal::Node`] exit values.
    pub exit_nodes: Vec<Node<ExitVal>>,
    /// The load spans the descriptor declares (see [`Outputs::new`]);
    /// a cell update's in-place reads of `c` are covered by its store
    /// span instead.
    pub loads: Vec<AccessRange>,
    /// The spans of the region's store streams (one per output stream).
    pub stores: Vec<AccessRange>,
    /// Per cell, the largest offset an unsigned branch compared against
    /// another offset from the same cell: the comparison folded to one
    /// of the offsets, which holds while `cell + offset` does not wrap.
    pub nowrap: Vec<(Cell, u32)>,
}

/// Abstract value of a register during the verification walk.
#[derive(Clone, Copy, Debug, Default)]
enum Av {
    /// Unmodified region-entry value (reading one rejects the region —
    /// generated kernels initialize everything they read).
    #[default]
    Entry,
    /// A known constant.
    Const(u32),
    /// A pointer cell's entry value plus a constant displacement.
    CellVal { cell: Cell, off: u32 },
    /// A value loaded from a resolvable address during the walk.
    Load { op: LoadOp, addr: AAddr },
    /// A dot-product chain (see [`Chain`]).
    Dot(Chain),
    /// Unknown data. `hw` marks a value proven to be a sign-extended
    /// 16-bit quantity (requantized/activated), eligible for output
    /// mapping.
    Data { id: u32, hw: bool },
}

/// `mem_u32[seed] + Σ_{k < n} a[k]·b[k]` (wrapping) over the halfword
/// streams at `a` and `b`: the value a `mac` chain over successive `lh`
/// pairs builds on a loaded seed word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DotVal {
    seed: AAddr,
    a: AAddr,
    b: AAddr,
    n: u32,
}

/// A [`DotVal`] as a register holds it: its first `n` terms over the
/// seed and streams interned as `id` in [`Values::chains`], which keeps
/// abstract values small.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Chain {
    id: u32,
    n: u32,
}

fn load_size(op: LoadOp) -> u32 {
    match op {
        LoadOp::Lb | LoadOp::Lbu => 1,
        LoadOp::Lh | LoadOp::Lhu => 2,
        LoadOp::Lw => 4,
    }
}

/// One load span a region declares, as the walk reads it.
#[derive(Clone, Copy)]
struct Span {
    range: AccessRange,
    /// Bytes at the span's end the region may leave unread: the word a
    /// matvec's last `pl.sdotsp` would prefetch past its weights.
    slack: u32,
    /// The lowest offset read so far and the end of the highest
    /// (`lo > hi` while nothing was read).
    read: (u32, u32),
}

impl Span {
    fn new(at: AAddr, len: u32, slack: u32) -> Option<Self> {
        Some(Span {
            range: AccessRange {
                cell: at.cell,
                lo: at.off,
                hi: at.off.checked_add(len)?,
                res: [u32::MAX; 3],
            },
            slack,
            read: (u32::MAX, 0),
        })
    }

    /// Whether the span holds `size` bytes at offset `off` from `cell`.
    fn holds(&self, cell: Option<Cell>, off: i128, size: u32) -> bool {
        self.range.cell == cell
            && i128::from(self.range.lo) <= off
            && off + i128::from(size) <= i128::from(self.range.hi)
    }

    /// Records a read of `size` bytes at `off`, which the span holds;
    /// `false` rejects the region. Sizes are powers of two, and every
    /// access of one size must keep one alignment residue. A constant
    /// address is checked statically: a misaligned one would fault on
    /// every entry, so the region is left interpreted.
    fn read(&mut self, off: u32, size: u32) -> bool {
        let res = off & (size - 1);
        let r = &mut self.range.res[size.trailing_zeros() as usize];
        if (self.range.cell.is_none() && res != 0) || (*r != u32::MAX && *r != res) {
            return false;
        }
        *r = res;
        self.cover(off, off + size);
        true
    }

    fn cover(&mut self, lo: u32, hi: u32) {
        self.read = (self.read.0.min(lo), self.read.1.max(hi));
    }

    /// Whether the reads reached from the span's first byte to its last
    /// (or to its slack).
    fn covered(&self) -> bool {
        let (lo, hi) = self.read;
        lo == self.range.lo && [0, self.slack].contains(&(self.range.hi - hi))
    }
}

#[inline(always)]
fn av(regs: &[Av; 32], r: Reg) -> Av {
    match r.num() {
        0 => Av::Const(0),
        n => regs[usize::from(n)],
    }
}

/// A register's abstract value; `None` (rejecting the region) for a
/// region-entry value.
#[inline(always)]
fn get(regs: &[Av; 32], r: Reg) -> Option<Av> {
    match av(regs, r) {
        Av::Entry => None,
        v => Some(v),
    }
}

/// Whether every register in `mask` holds a constant (`x0` does);
/// `None` if one holds its region-entry value.
fn all_const(regs: &[Av; 32], mask: u32) -> Option<bool> {
    let mut all = true;
    for n in used(mask) {
        match regs[n] {
            Av::Entry => return None,
            Av::Const(_) => {}
            _ => all = false,
        }
    }
    Some(all)
}

/// The register numbers in `mask`, `x0` excepted.
fn used(mask: u32) -> impl Iterator<Item = usize> {
    let mut m = mask & !1;
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let n = m.trailing_zeros() as usize;
            m &= m - 1;
            n
        })
    })
}

#[inline(always)]
fn set(regs: &mut [Av; 32], r: Reg, v: Av) {
    let n = r.num() as usize;
    if n != 0 {
        regs[n] = v;
    }
}

/// Lowers an abstract base value plus constant displacement to an
/// abstract address; non-pointer bases reject the region.
#[inline(always)]
fn aaddr(base: Av, disp: u32) -> Option<AAddr> {
    match base {
        Av::Const(c) => Some(AAddr {
            cell: None,
            off: c.wrapping_add(disp),
        }),
        Av::CellVal { cell, off } => Some(AAddr {
            cell: Some(cell),
            off: off.wrapping_add(disp),
        }),
        _ => None,
    }
}

/// Advances a pointer value by a constant (post-increment image).
#[inline(always)]
fn bump(base: Av, disp: u32) -> Option<Av> {
    match base {
        Av::Const(c) => Some(Av::Const(c.wrapping_add(disp))),
        Av::CellVal { cell, off } => Some(Av::CellVal {
            cell,
            off: off.wrapping_add(disp),
        }),
        _ => None,
    }
}

/// Whether an abstract value is provably a sign-extended 16-bit
/// quantity (for `hw` propagation through min/max).
fn in_i16(v: Av) -> bool {
    match v {
        Av::Data { hw, .. } => hw,
        Av::Const(c) => (-32768..=32767).contains(&(c as i32)),
        _ => false,
    }
}

/// Whether a unary op's result is always a sign-extended 16-bit value.
fn unary_hw(op: UnaryOp) -> bool {
    matches!(
        op,
        UnaryOp::Tanh | UnaryOp::Sig | UnaryOp::ExtHs | UnaryOp::ExtBs | UnaryOp::ExtBz
    )
}

/// The abstract result of a pure op that reads a non-constant register:
/// a moved cell pointer for `addi`/`add`/`sub` on one, otherwise fresh
/// data — recorded as a dataflow [`Node`] where the cell-update matchers
/// need one, and marked `hw` where the op provably yields a
/// sign-extended halfword.
fn symbolic(kind: UopKind, regs: &[Av; 32], vals: &mut Values) -> Av {
    let a = |r| av(regs, r);
    match kind {
        UopKind::OpImm { op, rs1, imm, .. } => match (op, a(rs1)) {
            (AluImmOp::Addi, Av::CellVal { cell, off }) => Av::CellVal {
                cell,
                off: off.wrapping_add(imm as u32),
            },
            (_, x) => vals.fresh(false, Some(Node::Imm(op, x, imm))),
        },
        UopKind::Op { op, rs1, rs2, .. } => match (op, a(rs1), a(rs2)) {
            (AluOp::Add, Av::CellVal { cell, off }, Av::Const(c))
            | (AluOp::Add, Av::Const(c), Av::CellVal { cell, off }) => Av::CellVal {
                cell,
                off: off.wrapping_add(c),
            },
            (AluOp::Sub, Av::CellVal { cell, off }, Av::Const(c)) => Av::CellVal {
                cell,
                off: off.wrapping_sub(c),
            },
            (_, x, y) => vals.fresh(false, Some(Node::Alu(op, x, y))),
        },
        UopKind::MulDiv { op, rs1, rs2, .. } => {
            vals.fresh(false, Some(Node::MulDiv(op, a(rs1), a(rs2))))
        }
        UopKind::Mac { rd, rs1, rs2 } => match dot_step(a(rd), a(rs1), a(rs2), vals) {
            Some(d) => Av::Dot(d),
            None => vals.fresh(false, None),
        },
        UopKind::Clip { rs1, lo, hi, .. } => vals.fresh(
            lo >= -32768 && hi <= 32767,
            Some(Node::Clip(a(rs1), lo, hi)),
        ),
        UopKind::ClipU { rs1, hi, .. } => vals.fresh(hi <= 32767, Some(Node::Clip(a(rs1), 0, hi))),
        UopKind::Unary { op, rs1, .. } => vals.fresh(unary_hw(op), Some(Node::Unary(op, a(rs1)))),
        UopKind::PMin { rs1, rs2, .. } | UopKind::PMax { rs1, rs2, .. } => {
            vals.fresh(in_i16(a(rs1)) && in_i16(a(rs2)), None)
        }
        _ => vals.fresh(false, None),
    }
}

/// The dot-product chain a `mac` of two loaded halfwords builds on `acc`:
/// a loaded word seeds a chain, and a chain grows by one term when the
/// halfwords are the next elements of both of its streams.
fn dot_step(acc: Av, a: Av, b: Av, vals: &mut Values) -> Option<Chain> {
    let (
        Av::Load {
            op: LoadOp::Lh,
            addr: a,
        },
        Av::Load {
            op: LoadOp::Lh,
            addr: b,
        },
    ) = (a, b)
    else {
        return None;
    };
    match acc {
        Av::Load {
            op: LoadOp::Lw,
            addr: seed,
        } => Some(Chain {
            id: vals.intern([seed, a, b]),
            n: 1,
        }),
        Av::Dot(c) => {
            let d = vals.dot(c);
            let next = d.n.wrapping_mul(2);
            (a == d.a.plus(next) && b == d.b.plus(next)).then_some(Chain {
                n: c.n.wrapping_add(1),
                ..c
            })
        }
        _ => None,
    }
}

/// Verifies a [`KernelRegion`] descriptor against the micro-op stream by
/// abstract interpretation and, on success, returns its installed
/// static profile. `None` means the region stays on the generic path —
/// never an error: verification failure only costs performance.
/// `cost` accumulates the region, the micro-ops the walk interpreted one
/// by one, the loop summaries it applied and the host time it took.
pub(crate) fn install(
    uops: &[Uop],
    program: &Program,
    desc: &KernelRegion,
    cost: &mut VerifyCost,
) -> Option<ShortcutRegion> {
    let started = std::time::Instant::now();
    let mut spent = VerifyCost::default();
    let region = walk(uops, program, desc, true, &mut spent);
    spent.regions = 1;
    spent.nanos = started.elapsed().as_nanos() as u64;
    *cost += spent;
    // The loop summary must be invisible: re-derive the profile op by op
    // and demand a field-for-field identical result.
    #[cfg(debug_assertions)]
    if spent.summaries > 0 {
        let full = walk(uops, program, desc, false, &mut VerifyCost::default());
        assert_eq!(region, full, "loop summary diverged from the full walk");
    }
    region
}

/// In-flight SPR writes, oldest first: `(issue instret, slot, weight
/// address)`. A walk keeps at most two in flight; a third rejects the
/// region.
#[derive(Clone, Copy, Default)]
struct Pend {
    q: [(u64, usize, AAddr); 2],
    len: usize,
}

impl Pend {
    fn as_slice(&self) -> &[(u64, usize, AAddr)] {
        &self.q[..self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [(u64, usize, AAddr)] {
        &mut self.q[..self.len]
    }

    /// Queues one write; `None` when two are already in flight.
    fn push(&mut self, p: (u64, usize, AAddr)) -> Option<()> {
        *self.q.get_mut(self.len)? = p;
        self.len += 1;
        Some(())
    }

    /// Drops the oldest write.
    fn pop_front(&mut self) {
        self.q[0] = self.q[1];
        self.len -= 1;
    }
}

/// The mutable abstract machine state of one verification walk.
struct WalkState {
    regs: [Av; 32],
    /// Per hardware-loop level: `(start, end, count)`.
    hwl: [Option<(u32, u32, u32)>; 2],
    /// Per SPR slot: the address of the weight word it holds (`None` =
    /// region-entry contents, which only discarding reads may touch).
    spr: [Option<AAddr>; 2],
    pend: Pend,
    /// The declared load spans, with what the walk read of them.
    loads: Vec<Span>,
    profile: Profile,
    /// Per mnemonic, one more than its row in `profile.retire_rows` (0
    /// until it has one), so a retire finds its row without a scan.
    retire_row: [u8; MnemonicId::COUNT],
    /// The same for `profile.stall_rows`.
    stall_row: [u8; MnemonicId::COUNT],
    prev_load: Option<(u8, MnemonicId)>,
    instret: u64,
    next_out: u32,
    /// The spill word's content: the region's last store to it.
    spill: Option<Av>,
    /// See [`ShortcutRegion::nowrap`].
    nowrap: Vec<(Cell, u32)>,
    /// How many times `nowrap` changed.
    nowrap_changes: u64,
}

impl WalkState {
    /// Retires one op of row `id` (as [`Profile::record`]).
    fn retire(&mut self, id: MnemonicId, cycles: u64, macs: u64) {
        let p = &mut self.profile;
        p.cycles += cycles;
        let row = &mut self.retire_row[id.index()];
        match *row {
            0 => {
                p.retire_rows.push((id, 1, cycles, macs));
                *row = p.retire_rows.len() as u8;
            }
            k => {
                let r = &mut p.retire_rows[usize::from(k) - 1];
                r.1 += 1;
                r.2 += cycles;
                r.3 += macs;
            }
        }
    }

    /// Charges one load-use stall to row `id` (as [`Profile::stall`]).
    fn stall(&mut self, id: MnemonicId) {
        let p = &mut self.profile;
        p.cycles += 1;
        let row = &mut self.stall_row[id.index()];
        match *row {
            0 => {
                p.stall_rows.push((id, 1));
                *row = p.stall_rows.len() as u8;
            }
            k => p.stall_rows[usize::from(k) - 1].1 += 1,
        }
    }

    /// Raises the recorded no-wrap offset of `cell` to at least `off`.
    fn note_nowrap(&mut self, cell: Cell, off: u32) {
        match self.nowrap.iter_mut().find(|(c, _)| *c == cell) {
            Some((_, o)) if *o >= off => return,
            Some((_, o)) => *o = off,
            None => self.nowrap.push((cell, off)),
        }
        self.nowrap_changes += 1;
    }
}

/// What [`Candidate::summarize`] compares of the state at the start of a
/// watched iteration. The profile rows are copied into buffers the watch
/// keeps, so a snapshot allocates nothing once they have grown.
#[derive(Default)]
struct Snapshot {
    regs: [Av; 32],
    hwl: [Option<(u32, u32, u32)>; 2],
    spr: [Option<AAddr>; 2],
    pend: Pend,
    prev_load: Option<(u8, MnemonicId)>,
    instret: u64,
    next_out: u32,
    spill: Option<Av>,
    nowrap_changes: u64,
    profile: Profile,
}

impl Snapshot {
    fn take(&mut self, st: &WalkState) {
        self.regs = st.regs;
        self.hwl = st.hwl;
        self.spr = st.spr;
        self.pend = st.pend;
        self.prev_load = st.prev_load;
        self.instret = st.instret;
        self.next_out = st.next_out;
        self.spill = st.spill;
        self.nowrap_changes = st.nowrap_changes;
        self.profile.cycles = st.profile.cycles;
        self.profile.retire_rows.clone_from(&st.profile.retire_rows);
        self.profile.stall_rows.clone_from(&st.profile.stall_rows);
    }
}

/// How a value moves between two loop iterations, in terms of the
/// iteration-start state (see [`Candidate`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Form {
    /// Moves exactly as iteration-start source `s` moves: register `s`
    /// for `s < 32`, pending SPR write `s - 32` ([`SRC_PEND`]), SPR
    /// slot `s - 34` ([`SRC_SPR`]) or the spill word ([`SRC_SPILL`]).
    Lin(u8),
    /// The same in every iteration.
    #[default]
    Zero,
    /// Symbolic data created in this iteration.
    Fresh,
}

/// First pending-SPR-write source index of a [`Form::Lin`].
const SRC_PEND: usize = 32;
/// First SPR-slot source index of a [`Form::Lin`].
const SRC_SPR: usize = 34;
/// The spill word's source index of a [`Form::Lin`].
const SRC_SPILL: usize = 36;

/// Every register moving as itself (`x0` never moves).
const IDENTITY: [Form; 32] = {
    let mut f = [Form::Zero; 32];
    let mut r = 1;
    while r < 32 {
        f[r] = Form::Lin(r as u8);
        r += 1;
    }
    f
};

/// The loop a [`Candidate`] watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loop {
    /// Hardware loop level `l`.
    Hw(usize),
    /// The loop closed by the backward branch at this address.
    Branch(u32),
}

/// Outcome of [`Candidate::summarize`].
enum Summary {
    /// Not a constant shift: keep walking.
    Skip,
    /// Applied; `ops` micro-ops were accounted for. With `walk_last`,
    /// the loop's last iteration is still to be walked (always so for a
    /// branch-closed loop, whose last branch falls through).
    Applied { ops: u64, walk_last: bool },
    /// A load of a later iteration leaves its span — so would the full
    /// walk.
    Reject,
}

/// How a source changed over one watched iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Delta {
    /// A pointer-like value advanced by this constant.
    Num(u32),
    /// Opaque (entry contents or symbolic data of the same kind).
    Same,
}

/// Shift of `a` into `b`, if both are the same kind of abstract value.
fn delta(a: &Av, b: &Av) -> Option<Delta> {
    Some(match (*a, *b) {
        (Av::Entry, Av::Entry) => Delta::Same,
        (Av::Const(x), Av::Const(y)) => Delta::Num(y.wrapping_sub(x)),
        (Av::CellVal { cell: c, off: x }, Av::CellVal { cell: d, off: y }) if c == d => {
            Delta::Num(y.wrapping_sub(x))
        }
        (Av::Load { op: o, addr: x }, Av::Load { op: p, addr: y })
            if o == p && x.cell == y.cell =>
        {
            Delta::Num(y.off.wrapping_sub(x.off))
        }
        (Av::Dot(x), Av::Dot(y)) if x.id == y.id => Delta::Num(y.n.wrapping_sub(x.n)),
        (Av::Data { hw: g, .. }, Av::Data { hw: h, .. }) if g == h => Delta::Same,
        _ => return None,
    })
}

/// [`delta`] of `v` into itself.
fn still(v: &Av) -> Delta {
    match v {
        Av::Entry | Av::Data { .. } => Delta::Same,
        _ => Delta::Num(0),
    }
}

/// `v` moved by `d` applied `m` times.
fn shifted(v: Av, d: Delta, m: u32) -> Av {
    let by = match d {
        Delta::Num(x) => m.wrapping_mul(x),
        Delta::Same => return v,
    };
    match v {
        Av::Const(c) => Av::Const(c.wrapping_add(by)),
        Av::CellVal { cell, off } => Av::CellVal {
            cell,
            off: off.wrapping_add(by),
        },
        Av::Load { op, addr } => Av::Load {
            op,
            addr: addr.plus(by),
        },
        Av::Dot(d) => Av::Dot(Chain {
            n: d.n.wrapping_add(by),
            ..d
        }),
        v => v,
    }
}

/// One load of a watched iteration, or, with `reps > 1`, a load of every
/// iteration a nested loop's summary applied.
#[derive(Clone, Copy)]
struct Access {
    addr: AAddr,
    size: u32,
    /// How the address moves with the watched loop.
    form: Form,
    /// How many times the load happens, `step` bytes apart.
    reps: u32,
    step: u32,
    /// The index of the load span it reads (`None` for a cell update's
    /// in-place read of `c`).
    span: Option<usize>,
}

/// A row watch's forms when the hardware-loop watch nested in it began.
#[derive(Clone, Copy)]
struct Mark {
    regs: [Form; 32],
    spr: [Form; 2],
    spill: Form,
    pend: [Form; 2],
    npend: usize,
    /// Loads recorded before it.
    accesses: usize,
}

/// One loop iteration watched for a summary.
///
/// The watcher decodes nothing itself: each arm of the walk reports its
/// op through one hook (`load`, `store`, `sdot`, `branch`, `pure`), on
/// the pre-op state and with the operands, address and value the arm
/// has already formed; a hook that returns `false` ends the watch. From
/// those reports every value written in the iteration gets a [`Form`]
/// saying how it would move if the iteration-start state moved. At the
/// next jump-back of the same loop, [`summarize`] compares the two
/// iteration-start states. All remaining iterations can be applied at
/// once when
///
/// * each source changed by a constant [`Delta`], or is opaque data of
///   the same kind;
/// * the forms confirm that one more iteration would shift it by the
///   same constants — a source moves only into copies of itself
///   advanced by constants, and every value inspected beyond that
///   (constant folds, the address of a pointer cell's load, the count
///   of a nested hardware loop) did not move;
/// * every load address moves by a multiple of its size, and every
///   dot-product step's halfword streams move two bytes per term it
///   adds;
/// * every store goes to the next rows of the region's output streams:
///   whole rows of a cell update, a matvec's requantized outputs, or
///   the spill-word partial sums of a dot product;
/// * nothing else happened: no branch but a branch-closed loop's own
///   closing branch, and no setup of the watched hardware loop.
///
/// Then iteration `k + 1` is iteration `k` shifted, by induction: rows,
/// counters, pointers and SPR state advance linearly and the loads of
/// every later iteration are known. Each load's addresses form a line,
/// so its span holds them all when it holds the first and the last
/// (and the walk would reject the first that left it). A hardware loop's
/// count says how many iterations remain; a branch-closed loop's
/// closing branch gives its trip count from how far its moving operand
/// still is from its fixed one (see [`trip`]).
///
/// The walk keeps two watches ([`Watches`]): one of a branch-closed
/// loop and one of a hardware loop, and every walked op reports to
/// both. When the hardware loop is nested in the branch-closed one and
/// its summary applies, the outer watch takes the applied iterations as
/// one step ([`absorb`]), so a matvec's row loop around its inner
/// hardware loop summarizes too.
///
/// [`summarize`]: Candidate::summarize
/// [`trip`]: Candidate::trip
/// [`absorb`]: Candidate::absorb
#[derive(Default)]
struct Candidate {
    /// The watched loop; `None` while not watching.
    lp: Option<Loop>,
    /// The state at the watched iteration's first op.
    start: Snapshot,
    regs: [Form; 32],
    /// The registers the iteration wrote; every other one keeps its
    /// value and moves as itself.
    written: u32,
    spr: [Form; 2],
    /// Form of the spill word's content.
    spill: Form,
    /// Forms of `WalkState::pend`, in step with it.
    pend: [Form; 2],
    /// Sources whose values were inspected and so must not move.
    fixed: u64,
    /// Every load of the iteration.
    accesses: Vec<Access>,
    /// Every store of the iteration: `(form of address, form of value)`.
    stores: Vec<(Form, Form)>,
    /// Every dot-product step: the forms of its chain and of its two
    /// halfword operands.
    macs: Vec<[Form; 3]>,
    /// A branch-closed loop's closing branch: its op and the forms of
    /// its two operand registers.
    closing: Option<(BranchOp, Reg, Reg, Form, Form)>,
    /// A row watch's forms when the nested hardware-loop watch began.
    inner: Option<Mark>,
    /// Iterations the last applied summary applied.
    applied: u64,
    /// How far each load of the last summary moves per iteration
    /// (scratch).
    shifts: Vec<u32>,
}

impl Candidate {
    /// Watches one iteration of loop `lp`, starting in `st`.
    fn watch(&mut self, lp: Loop, st: &WalkState) {
        self.lp = Some(lp);
        self.start.take(st);
        self.regs = IDENTITY;
        self.written = 0;
        self.spr = [Form::Lin(SRC_SPR as u8), Form::Lin(SRC_SPR as u8 + 1)];
        self.spill = Form::Lin(SRC_SPILL as u8);
        self.pend = [Form::Lin(SRC_PEND as u8), Form::Lin(SRC_PEND as u8 + 1)];
        self.fixed = 0;
        self.accesses.clear();
        self.stores.clear();
        self.macs.clear();
        self.closing = None;
        self.inner = None;
    }

    fn form(&self, r: Reg) -> Form {
        self.regs[r.num() as usize]
    }

    fn set(&mut self, r: Reg, f: Form) {
        if r.num() != 0 {
            self.regs[r.num() as usize] = f;
            self.written |= 1 << r.num();
        }
    }

    /// Records that a value of form `f` was inspected beyond a constant
    /// shift, so its source must not move.
    fn fix(&mut self, f: Form) {
        if let Form::Lin(s) = f {
            self.fixed |= 1 << s;
        }
    }

    /// Form of a sum of two pointer-like values (if both move, the second
    /// is pinned).
    fn add(&mut self, a: Form, b: Form) -> Form {
        match (a, b) {
            (Form::Fresh, _) | (_, Form::Fresh) => Form::Fresh,
            (f, Form::Zero) | (Form::Zero, f) => f,
            (f, g) => {
                self.fix(g);
                f
            }
        }
    }

    /// Form of a load or store base `rs1`, advanced in place by a
    /// post-increment (`post`).
    fn base(&mut self, rs1: Reg, post: bool) -> Form {
        let f = self.form(rs1);
        if post {
            self.set(rs1, f);
        }
        f
    }

    /// A load of `rd` from `addr`, whose form is `f`; `(v, k)` is what
    /// [`Outputs::load`] made of it.
    fn load(&mut self, op: LoadOp, rd: Reg, addr: AAddr, f: Form, (v, k): Loaded, plan: &Outputs) {
        // A spill-word read forwards the word's content.
        if plan.spill() == Some(addr) {
            self.set(rd, self.spill);
            return;
        }
        self.accesses.push(Access {
            addr,
            size: load_size(op),
            form: f,
            reps: 1,
            step: 0,
            span: k,
        });
        // A pointer cell's word is the same pointer in every iteration
        // that loads it from the same address.
        let v = match v {
            Av::CellVal { .. } => {
                self.fix(f);
                Form::Zero
            }
            _ => f,
        };
        self.set(rd, v);
    }

    /// A store of `rs2` to `addr` through base `rs1`.
    fn store(&mut self, addr: AAddr, rs1: Reg, post: bool, rs2: Reg, plan: &Outputs) {
        let f = self.base(rs1, post);
        let v = self.form(rs2);
        if plan.spill() == Some(addr) {
            self.spill = v;
        }
        self.stores.push((f, v));
    }

    /// A `pl.sdotsp` whose weight word at `addr` is read through `rs1`,
    /// queued as pending write `slot`.
    fn sdot(&mut self, rd: Reg, rs1: Reg, addr: AAddr, slot: usize, span: Option<usize>) {
        let f = self.form(rs1);
        self.accesses.push(Access {
            addr,
            size: 4,
            form: f,
            reps: 1,
            step: 0,
            span,
        });
        if let Some(p) = self.pend.get_mut(slot) {
            *p = f;
        }
        self.set(rd, Form::Fresh);
        self.set(rs1, f);
    }

    /// A branch at `at`: only the watched loop's closing branch keeps the
    /// watch, as its outcome in later iterations follows from how its
    /// operands move.
    fn branch(&mut self, at: u32, op: BranchOp, rs1: Reg, rs2: Reg) -> bool {
        if self.lp != Some(Loop::Branch(at)) || self.closing.is_some() {
            return false;
        }
        self.closing = Some((op, rs1, rs2, self.form(rs1), self.form(rs2)));
        true
    }

    /// A pure op giving `rd` the value `v`, on the pre-op registers:
    /// pointer arithmetic (an `addi`, `add` or `sub` whose value is a
    /// constant or a cell pointer) moves with its pointer, a dot-product
    /// step with its chain (the summary checks that its operands keep
    /// pace), any other constant is a fold that is the same every
    /// iteration and pins every register it reads, and anything else is
    /// fresh data.
    fn pure(&mut self, u: &Uop, rd: Reg, v: Av, regs: &[Av; 32]) {
        let pointer = matches!(v, Av::Const(_) | Av::CellVal { .. });
        let f = match u.kind {
            UopKind::OpImm {
                op: AluImmOp::Addi,
                rs1,
                ..
            } if pointer => self.form(rs1),
            UopKind::Op {
                op: AluOp::Add,
                rs1,
                rs2,
                ..
            } if pointer => self.add(self.form(rs1), self.form(rs2)),
            UopKind::Op {
                op: AluOp::Sub,
                rs1,
                rs2,
                ..
            } if pointer => {
                self.fix(self.form(rs2));
                self.form(rs1)
            }
            UopKind::Mac { rs1, rs2, .. } if matches!(v, Av::Dot(_)) => {
                let f = self.form(rd);
                self.macs.push([f, self.form(rs1), self.form(rs2)]);
                f
            }
            kind => {
                if let UopKind::PMin { .. } | UopKind::PMax { .. } = kind {
                    // The 16-bit range test reads constant operands too.
                    for n in used(u.uses_mask) {
                        if let Av::Const(_) = regs[n] {
                            self.fix(self.regs[n]);
                        }
                    }
                }
                if let Av::Const(_) = v {
                    for n in used(u.uses_mask) {
                        self.fix(self.regs[n]);
                    }
                    Form::Zero
                } else {
                    Form::Fresh
                }
            }
        };
        self.set(rd, f);
    }

    /// Notes, in a row watch, that a hardware-loop watch nested in it
    /// begins now, with `npend` SPR writes in flight.
    fn mark(&mut self, npend: usize) {
        self.inner = Some(Mark {
            regs: self.regs,
            spr: self.spr,
            spill: self.spill,
            pend: self.pend,
            npend,
            accesses: self.accesses.len(),
        });
    }

    /// Takes the summary `inner` just applied to the hardware loop nested
    /// in this row watch as the walk would have reported its iterations
    /// op by op; `false` ends the watch. A matvec's inner loop qualifies
    /// when its watched iteration stored nothing and left every form of
    /// this watch as it found it: then each applied iteration does the
    /// same, so the forms hold after all of them, and each load of the
    /// iteration repeats `inner.applied` times, stepping as the inner
    /// summary stepped it. The loop's count must not move with the row
    /// loop either; [`Watches::setup`] pinned it.
    fn absorb(&mut self, inner: &Candidate, plan: &Outputs, npend: usize) -> bool {
        let Some(mark) = self.inner.take() else {
            return false;
        };
        let new = mark.accesses..self.accesses.len();
        let Ok(reps) = u32::try_from(inner.applied) else {
            return false;
        };
        if plan.cell.is_some()
            || plan.dot.is_some()
            || !inner.stores.is_empty()
            || mark.regs != self.regs
            || mark.spr != self.spr
            || mark.spill != self.spill
            || mark.npend != npend
            || mark.pend[..npend] != self.pend[..npend]
            || new.len() != inner.shifts.len()
        {
            return false;
        }
        for (k, &step) in new.zip(&inner.shifts) {
            let a = self.accesses[k];
            self.accesses.push(Access {
                addr: a.addr.plus(step),
                reps,
                step,
                ..a
            });
        }
        true
    }

    /// At the loop's next jump-back (`st` is the state at the start of
    /// the following iteration): if the watched iteration proves to be a
    /// constant shift, advances `st` past every remaining iteration but,
    /// with `walk_last`, the last. A hardware loop is left with its count
    /// back at 1 so the walk can take its exit. [`Summary::Skip`] leaves
    /// `st` untouched.
    ///
    /// An iteration that stores writes the next rows of the region's
    /// output streams, and every store must advance by exactly the rows
    /// it wrote. A cell update's loads advance with its rows too, so
    /// iteration `k + 1` checks the row formulas one row further on. A
    /// matvec's stored value must be data computed in the iteration,
    /// which is a requantized halfword again in every later iteration.
    /// A dot product's stores are its partial sums into the one spill
    /// word, each chain one term longer per store. The stored values of
    /// applied iterations are never exit-live, so the loop's last
    /// iteration is left to the walk (`walk_last`), which records its
    /// stores and dataflow as usual.
    fn summarize(&mut self, st: &mut WalkState, plan: &Outputs) -> Summary {
        let Some(lp) = self.lp else {
            return Summary::Skip;
        };
        let s0 = &self.start;
        let stored = st.next_out - s0.next_out;
        let streams = plan.streams.len() as u32;
        if !stored.is_multiple_of(streams)
            || s0.prev_load != st.prev_load
            || s0.nowrap_changes != st.nowrap_changes
            || s0.profile.retire_rows.len() != st.profile.retire_rows.len()
            || s0.profile.stall_rows.len() != st.profile.stall_rows.len()
            || s0.pend.len != st.pend.len
        {
            return Summary::Skip;
        }
        // Iterations left after the watched one, for a hardware loop.
        let hw_left = match lp {
            Loop::Hw(lv) => {
                let (Some((a0, e0, n0)), Some((a1, e1, n1))) = (s0.hwl[lv], st.hwl[lv]) else {
                    return Summary::Skip;
                };
                if (a0, e0) != (a1, e1) || n1 + 1 != n0 || s0.hwl[1 - lv] != st.hwl[1 - lv] {
                    return Summary::Skip;
                }
                Some(n1)
            }
            Loop::Branch(_) if s0.hwl == st.hwl => None,
            Loop::Branch(_) => return Summary::Skip,
        };
        let iter = st.instret - s0.instret;

        // Per-source deltas over the watched iteration. A register the
        // iteration did not write kept its value.
        let mut d = [Delta::Same; SRC_SPILL + 1];
        for (r, dr) in d.iter_mut().enumerate().take(32).skip(1) {
            *dr = if self.written & (1 << r) == 0 {
                still(&st.regs[r])
            } else {
                match delta(&s0.regs[r], &st.regs[r]) {
                    Some(v) => v,
                    None => return Summary::Skip,
                }
            };
        }
        for (j, (p, q)) in s0
            .pend
            .as_slice()
            .iter()
            .zip(st.pend.as_slice())
            .enumerate()
        {
            if s0.instret - p.0 != st.instret - q.0 || p.1 != q.1 || p.2.cell != q.2.cell {
                return Summary::Skip;
            }
            d[SRC_PEND + j] = Delta::Num(q.2.off.wrapping_sub(p.2.off));
        }
        for k in 0..2 {
            d[SRC_SPR + k] = match (s0.spr[k], st.spr[k]) {
                (None, None) => Delta::Same,
                (Some(a), Some(b)) if a.cell == b.cell => Delta::Num(b.off.wrapping_sub(a.off)),
                _ => return Summary::Skip,
            };
        }
        d[SRC_SPILL] = match (&s0.spill, &st.spill) {
            (None, None) => Delta::Same,
            (Some(a), Some(b)) => match delta(a, b) {
                Some(v) => v,
                None => return Summary::Skip,
            },
            _ => return Summary::Skip,
        };

        // The forms must predict the same deltas for the next iteration
        // (an unwritten register moves as itself).
        let predicts = |x: usize, f: Form| match f {
            Form::Lin(s) => {
                let s = usize::from(s);
                d[x] == d[s] && (x == s || d[s] != Delta::Same)
            }
            Form::Zero => d[x] == Delta::Num(0),
            Form::Fresh => d[x] == Delta::Same,
        };
        let ends = used(self.written)
            .map(|r| (r, self.regs[r]))
            .chain(
                self.pend[..st.pend.len]
                    .iter()
                    .enumerate()
                    .map(|(j, &f)| (SRC_PEND + j, f)),
            )
            .chain(self.spr.iter().enumerate().map(|(k, &f)| (SRC_SPR + k, f)))
            .chain([(SRC_SPILL, self.spill)]);
        for (x, f) in ends {
            if !predicts(x, f) {
                return Summary::Skip;
            }
        }
        let mut fixed = self.fixed;
        while fixed != 0 {
            if d[fixed.trailing_zeros() as usize] != Delta::Num(0) {
                return Summary::Skip;
            }
            fixed &= fixed - 1;
        }

        // Where each value of the watched iteration moves per iteration.
        let shift_of = |f: Form| match f {
            Form::Lin(s) => match d[usize::from(s)] {
                Delta::Num(v) => Some(v),
                _ => None,
            },
            Form::Zero => Some(0),
            Form::Fresh => None,
        };
        // A dot-product step stays a step when both halfword operands
        // move two bytes per term its chain moves.
        for &[chain, a, b] in &self.macs {
            let (Some(n), Some(a), Some(b)) = (shift_of(chain), shift_of(a), shift_of(b)) else {
                return Summary::Skip;
            };
            let step = n.wrapping_mul(2);
            if a != step || b != step {
                return Summary::Skip;
            }
        }
        // Every load must keep its alignment residue: its shift, and its
        // repetitions' step, are multiples of its size.
        self.shifts.clear();
        for a in &self.accesses {
            let Some(shift) = shift_of(a.form) else {
                return Summary::Skip;
            };
            if (plan.cell.is_some() && stored > 0 && shift != stored)
                || !(shift | a.step).is_multiple_of(a.size)
            {
                return Summary::Skip;
            }
            self.shifts.push(shift);
        }
        // The rows stored per iteration, in bytes of each stream.
        let rows = (stored / streams).wrapping_mul(plan.streams[0].1);
        for &(at, value) in &self.stores {
            let ok = shift_of(at) == Some(rows)
                && if plan.dot.is_some() {
                    shift_of(value) == Some(stored)
                } else {
                    plan.cell.is_some() || value == Form::Fresh
                };
            if !ok {
                return Summary::Skip;
            }
        }

        let (left, walk_last) = match hw_left {
            Some(n1) => (u64::from(n1), stored > 0),
            None => match self.trip(st, shift_of) {
                Some(n) => (n, true),
                None => return Summary::Skip,
            },
        };
        let m = left - u64::from(walk_last);
        if m == 0 {
            return Summary::Skip;
        }

        // All remaining iterations are applied. Each load's first and
        // last address over them must lie in the span the watched load
        // read (addresses as signed steps from it, without wrapping).
        let Some(next_out) = (m as u32)
            .checked_mul(stored)
            .and_then(|n| n.checked_add(st.next_out))
            .filter(|&n| n <= plan.count)
        else {
            return Summary::Reject;
        };
        for (a, &shift) in self.accesses.iter().zip(&self.shifts) {
            let Some(span) = a.span.map(|k| &mut st.loads[k]) else {
                continue;
            };
            // From the next iteration's first address, the spread over
            // the later iterations and over the repetitions.
            let next = i128::from(a.addr.off) + i128::from(shift as i32);
            let rows = i128::from(m - 1) * i128::from(shift as i32);
            let reps = i128::from(a.reps - 1) * i128::from(a.step as i32);
            let (lo, hi) = (
                next + rows.min(0) + reps.min(0),
                next + rows.max(0) + reps.max(0),
            );
            if !span.holds(a.addr.cell, lo, a.size) || !span.holds(a.addr.cell, hi, a.size) {
                return Summary::Reject;
            }
            span.cover(lo as u32, hi as u32 + a.size);
        }

        // Apply `m` more iterations (pending writes and SPR contents
        // only ever have offset deltas).
        let m32 = m as u32;
        let by = |x: usize| match d[x] {
            Delta::Num(v) => m32.wrapping_mul(v),
            _ => 0,
        };
        for r in used(self.written) {
            st.regs[r] = shifted(st.regs[r], d[r], m32);
        }
        for (j, p) in st.pend.as_mut_slice().iter_mut().enumerate() {
            p.0 += m * iter;
            p.2.off = p.2.off.wrapping_add(by(SRC_PEND + j));
        }
        for k in 0..2 {
            if let Some(a) = &mut st.spr[k] {
                a.off = a.off.wrapping_add(by(SRC_SPR + k));
            }
        }
        st.spill = st.spill.map(|v| shifted(v, d[SRC_SPILL], m32));
        st.profile.repeat_since(&s0.profile, m);
        st.instret += m * iter;
        st.next_out = next_out;
        if let Loop::Hw(lv) = lp {
            if let Some(h) = &mut st.hwl[lv] {
                h.2 = 1;
            }
        }
        self.applied = m;
        Summary::Applied {
            ops: m * iter,
            walk_last,
        }
    }

    /// How many iterations a branch-closed loop has left, the last one
    /// included, when its closing branch was just taken with the operands
    /// now in `st`; both constants or offsets from one cell, the second
    /// fixed, the first moving by a constant step. Either a `bltu` whose
    /// first operand climbs towards the second with no wrap on the way,
    /// or a `bne` countdown (`bnez r` over a counter decremented by `-d`)
    /// whose first operand falls onto the second exactly.
    fn trip(&self, st: &WalkState, shift_of: impl Fn(Form) -> Option<u32>) -> Option<u64> {
        let (op, r1, r2, f1, f2) = self.closing?;
        let (a, b) = match (av(&st.regs, r1), av(&st.regs, r2)) {
            (Av::Const(a), Av::Const(b)) => (a, b),
            (Av::CellVal { cell: c, off: a }, Av::CellVal { cell: e, off: b }) if c == e => (a, b),
            _ => return None,
        };
        let step = shift_of(f1)?;
        if shift_of(f2)? != 0 {
            return None;
        }
        match op {
            BranchOp::Bltu => {
                let step = u64::from(step);
                if step == 0 || step >= 1 << 31 || a >= b {
                    return None;
                }
                let left = (u64::from(b - a)).div_ceil(step);
                (u64::from(a) + left * step <= u64::from(u32::MAX)).then_some(left)
            }
            BranchOp::Bne => {
                let down = step.wrapping_neg();
                let dist = a.wrapping_sub(b);
                if down == 0 || down >= 1 << 31 || !dist.is_multiple_of(down) {
                    return None;
                }
                Some(u64::from(dist / down))
            }
            _ => None,
        }
    }

    /// At a jump-back of loop `lp` (`st` is the state at the start of its
    /// next iteration): if this watch watched the iteration just closed,
    /// tries its summary and counts the iterations it applied into `ops`.
    /// The watch ends either way. `None` rejects the region.
    fn jump_back(
        &mut self,
        lp: Loop,
        st: &mut WalkState,
        plan: &Outputs,
        ops: &mut u64,
        cost: &mut VerifyCost,
    ) -> Option<Summary> {
        if self.lp != Some(lp) {
            self.lp = None;
            return Some(Summary::Skip);
        }
        let summary = self.summarize(st, plan);
        self.lp = None;
        match summary {
            Summary::Reject => return None,
            Summary::Applied { ops: n, .. } => {
                *ops += n;
                cost.summaries += 1;
            }
            Summary::Skip => {}
        }
        (*ops <= WALK_OP_CAP).then_some(summary)
    }
}

/// The walk's two loop watches: `row` watches a branch-closed loop and
/// `hw` a hardware loop, possibly nested in it. Every walked op reports
/// to both. Each keeps its buffers from watch to watch, so watching
/// allocates nothing once they have grown.
#[derive(Default)]
struct Watches {
    row: Candidate,
    hw: Candidate,
}

impl Watches {
    /// Reports an op to each live watch; one whose hook returns `false`
    /// ends.
    fn each(&mut self, mut hook: impl FnMut(&mut Candidate) -> bool) {
        for c in [&mut self.row, &mut self.hw] {
            if c.lp.is_some() && !hook(c) {
                c.lp = None;
            }
        }
    }

    /// A hardware-loop setup, its count in register `count` (`None` for
    /// an immediate). It ends the hardware-loop watch. A row watch goes
    /// on, but the nested loop's count must not move with the rows, so
    /// the register is pinned.
    fn setup(&mut self, count: Option<Reg>) {
        self.hw.lp = None;
        if let (Some(_), Some(r)) = (self.row.lp, count) {
            match self.row.form(r) {
                Form::Fresh => self.row.lp = None,
                f => self.row.fix(f),
            }
        }
    }
}

/// The walk proper. With `summarize`, loop iterations whose effect is a
/// constant shift of the abstract state are applied at once (see
/// [`Candidate`]); the result is identical either way.
fn walk(
    uops: &[Uop],
    program: &Program,
    desc: &KernelRegion,
    summarize: bool,
    cost: &mut VerifyCost,
) -> Option<ShortcutRegion> {
    let plan = Outputs::new(desc)?;
    let start_idx = program.index_of(desc.start_addr)?;
    let end_idx = program.index_of(desc.end_addr)?;
    if end_idx <= start_idx || end_idx > uops.len() {
        return None;
    }
    let stores = plan.spans()?;

    let mut st = WalkState {
        regs: entry_regs(&desc.math)?,
        hwl: [None, None],
        spr: [None, None],
        pend: Pend::default(),
        loads: plan.loads.clone(),
        profile: Profile::default(),
        retire_row: [0; MnemonicId::COUNT],
        stall_row: [0; MnemonicId::COUNT],
        prev_load: None,
        instret: 0,
        next_out: 0,
        spill: None,
        nowrap: Vec::new(),
        nowrap_changes: 0,
    };
    let mut out_map = Stored::default();
    let mut vals = Values {
        count: 0,
        nodes: plan.cell.map(|_| Vec::new()),
        chains: Vec::new(),
    };
    let mut watches = Watches::default();

    let mut i = start_idx;
    let mut ops = 0u64;
    while i != end_idx {
        let u = &uops[i];
        ops += 1;
        cost.walked += 1;
        if ops > WALK_OP_CAP {
            return None;
        }
        // SPR writes issued two or more retirements ago land now — the
        // same drain point as the per-op path.
        while let Some(&(iss, slot, addr)) = st.pend.as_slice().first() {
            if iss + 2 > st.instret {
                break;
            }
            st.spr[slot] = Some(addr);
            st.pend.pop_front();
            watches.each(|c| {
                c.spr[slot] = c.pend[0];
                c.pend[0] = c.pend[1];
                true
            });
        }
        // Load-use stall, charged to the producing load.
        if let Some((r, id)) = st.prev_load.take() {
            if u.uses_mask & (1u32 << r) != 0 {
                st.stall(id);
            }
        }

        let mut extra = 0u64;
        let mut jump: Option<(u32, usize)> = None;
        match u.kind {
            UopKind::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                watches.each(|c| c.branch(u.addr, op, rs1, rs2));
                let (a, b) = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(a), Av::Const(b)) => (a, b),
                    // Two offsets from one cell compare as the offsets:
                    // always for equality, and for an unsigned order while
                    // neither wraps (checked at entry).
                    (Av::CellVal { cell: c, off: a }, Av::CellVal { cell: e, off: b })
                        if c == e =>
                    {
                        match op {
                            BranchOp::Beq | BranchOp::Bne => {}
                            BranchOp::Bltu | BranchOp::Bgeu => st.note_nowrap(c, a.max(b)),
                            _ => return None,
                        }
                        (a, b)
                    }
                    _ => return None,
                };
                if branch_taken(op, a, b) {
                    if target.idx == NO_IDX {
                        return None;
                    }
                    jump = Some((target.addr, target.idx as usize));
                    extra = 1;
                }
            }
            UopKind::Load {
                op,
                rd,
                rs1,
                offset,
            }
            | UopKind::LoadPostInc {
                op,
                rd,
                rs1,
                offset,
            } => {
                let post = matches!(u.kind, UopKind::LoadPostInc { .. });
                let base = get(&st.regs, rs1)?;
                let addr = aaddr(base, if post { 0 } else { offset })?;
                let loaded = plan.load(&mut st, op, addr)?;
                watches.each(|c| {
                    let f = c.base(rs1, post);
                    c.load(op, rd, addr, f, loaded, &plan);
                    true
                });
                if post {
                    set(&mut st.regs, rs1, bump(base, offset)?);
                }
                set(&mut st.regs, rd, loaded.0);
            }
            UopKind::LoadReg { op, rd, rs1, rs2 } => {
                let addr = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (base, Av::Const(c)) | (Av::Const(c), base) => aaddr(base, c)?,
                    _ => return None,
                };
                let loaded = plan.load(&mut st, op, addr)?;
                watches.each(|c| {
                    let f = c.add(c.form(rs1), c.form(rs2));
                    c.load(op, rd, addr, f, loaded, &plan);
                    true
                });
                set(&mut st.regs, rd, loaded.0);
            }
            UopKind::Store {
                op,
                rs2,
                rs1,
                offset,
            }
            | UopKind::StorePostInc {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let post = matches!(u.kind, UopKind::StorePostInc { .. });
                let base = get(&st.regs, rs1)?;
                let addr = aaddr(base, if post { 0 } else { offset })?;
                watches.each(|c| {
                    c.store(addr, rs1, post, rs2, &plan);
                    true
                });
                plan.store(op, addr, get(&st.regs, rs2)?, &vals, &mut st, &mut out_map)?;
                if post {
                    set(&mut st.regs, rs1, bump(base, offset)?);
                }
            }
            UopKind::Nop => {}
            UopKind::PlSdotsp {
                spr: s,
                rd,
                rs1,
                rs2,
                ..
            } => {
                let sl = usize::from(s & 1);
                // The x operand's value is symbolic but must exist.
                let _ = get(&st.regs, rs2)?;
                if rd != Reg::ZERO {
                    // A live accumulation must read a weight whose
                    // provenance is known (drained from a walked issue),
                    // never the slot's unknown entry contents.
                    st.spr[sl]?;
                    let _ = get(&st.regs, rd)?;
                }
                let base = get(&st.regs, rs1)?;
                let addr = aaddr(base, 0)?;
                let slot = st.pend.len;
                let (_, span) = plan.load(&mut st, LoadOp::Lw, addr)?;
                watches.each(|c| {
                    c.sdot(rd, rs1, addr, slot, span);
                    true
                });
                st.pend.push((st.instret, sl, addr))?;
                if rd != Reg::ZERO {
                    let v = vals.fresh(false, None);
                    set(&mut st.regs, rd, v);
                }
                set(&mut st.regs, rs1, bump(base, 4)?);
            }
            UopKind::LpSetup { l, rs1, start, end } => {
                watches.setup(Some(rs1));
                let Av::Const(count) = get(&st.regs, rs1)? else {
                    return None;
                };
                if count > 0 && start >= end {
                    return None;
                }
                st.hwl[usize::from(l)] = Some((start, end, count));
            }
            UopKind::LpSetupi {
                l,
                count,
                start,
                end,
            } => {
                watches.setup(None);
                if count > 0 && start >= end {
                    return None;
                }
                st.hwl[usize::from(l)] = Some((start, end, count));
            }
            // Jumps, halts, CSR access and split hardware-loop setup
            // never appear in generated kernel regions; reject rather
            // than model them.
            UopKind::Jal { .. }
            | UopKind::Jalr { .. }
            | UopKind::Halt(_)
            | UopKind::CsrRead { .. }
            | UopKind::LpSetAddr { .. }
            | UopKind::LpCount { .. }
            | UopKind::LpCounti { .. } => return None,
            // Every other op is a pure register write: folded through the
            // interpreter's own semantics when every register it reads is
            // constant, symbolic otherwise.
            kind => {
                let folds = all_const(&st.regs, u.uses_mask)?;
                let konst = |r: Reg| match av(&st.regs, r) {
                    Av::Const(c) => c,
                    _ => 0,
                };
                let rd = kind.dest()?;
                let v = if folds {
                    Av::Const(kind.value(konst)?)
                } else {
                    symbolic(kind, &st.regs, &mut vals)
                };
                watches.each(|c| {
                    c.pure(u, rd, v, &st.regs);
                    true
                });
                set(&mut st.regs, rd, v);
            }
        }

        st.retire(u.id, u64::from(u.base_cycles) + extra, u64::from(u.mac_ops));
        st.instret += 1;
        st.prev_load = (u.load_rd != 0).then_some((u.load_rd, u.id));

        match jump {
            Some((_, t)) => {
                if t < start_idx || t >= end_idx {
                    return None;
                }
                if summarize && t <= i {
                    // A backward branch closed one more iteration: with
                    // one watched, apply all but the loop's last (which
                    // the walk takes, so its branch falls through);
                    // otherwise watch the next one.
                    let lp = Loop::Branch(u.addr);
                    let summary = watches.row.jump_back(lp, &mut st, &plan, &mut ops, cost)?;
                    if !matches!(summary, Summary::Applied { .. }) {
                        watches.row.watch(lp, &st);
                    }
                }
                i = t;
            }
            None => {
                // Hardware-loop jump-back on fall-through, inner level
                // first; an expired inner count falls through so an
                // outer loop sharing the end address can fire.
                let jump_back = |hwl: &mut [Option<(u32, u32, u32)>; 2]| {
                    for (level, h) in hwl.iter_mut().enumerate() {
                        if let Some((start, end, count)) = h {
                            if *count > 0 && u.next_addr == *end {
                                if *count > 1 {
                                    *count -= 1;
                                    return Some((level, *start));
                                }
                                *count = 0;
                            }
                        }
                    }
                    None
                };
                let Some((mut level, mut na)) = jump_back(&mut st.hwl) else {
                    i += 1;
                    continue;
                };
                if summarize {
                    // One iteration of `level` has been watched from its
                    // start: if it shifted the state by constants, apply
                    // the rest of the loop and take its exit instead. A
                    // row watch around the loop takes the applied
                    // iterations as one step, or ends.
                    let lp = Loop::Hw(level);
                    let summary = watches.hw.jump_back(lp, &mut st, &plan, &mut ops, cost)?;
                    if let Summary::Applied { walk_last, .. } = summary {
                        let w = &mut watches;
                        if w.row.lp.is_some() && !w.row.absorb(&w.hw, &plan, st.pend.len) {
                            w.row.lp = None;
                        }
                        if !walk_last {
                            let Some(next) = jump_back(&mut st.hwl) else {
                                i += 1;
                                continue;
                            };
                            (level, na) = next;
                        }
                    }
                    // Watch the next iteration if enough remain to pay off.
                    if st.hwl[level].is_some_and(|h| h.2 >= 3) {
                        watches.hw.watch(Loop::Hw(level), &st);
                        if watches.row.lp.is_some() {
                            watches.row.mark(st.pend.len);
                        }
                    }
                }
                let t = program.index_of(na)?;
                if t < start_idx || t >= end_idx {
                    return None;
                }
                i = t;
            }
        }
    }

    if st.next_out != plan.count || !st.loads.iter().all(Span::covered) {
        return None;
    }
    let mut exit_regs = Vec::new();
    let mut exit_nodes = Vec::new();
    for (r, &av) in st.regs.iter().enumerate().skip(1) {
        if let Av::Entry = av {
            continue;
        }
        let ev = exit_val(av, plan.dot, &out_map, &vals, &mut exit_nodes)?;
        exit_regs.push((r as u8, ev));
    }
    let exit_hwloop = st
        .hwl
        .map(|h| h.map(|(start, end, count)| HwLoopExit { start, end, count }));
    Some(ShortcutRegion {
        desc: *desc,
        end_idx: end_idx as u32,
        total_instrs: st.instret,
        profile: st.profile,
        exit_regs,
        exit_spr: st.spr,
        exit_pending: st.pend.as_slice().to_vec(),
        exit_hwloop,
        exit_pending_load: st.prev_load,
        exit_nodes,
        loads: st.loads.into_iter().map(|s| s.range).collect(),
        stores,
        nowrap: st.nowrap,
    })
}

/// The walk's initial registers: every register a pointer of `math`
/// names holds that pointer cell's entry value; reading any other
/// rejects the region.
fn entry_regs(math: &RegionMath) -> Option<[Av; 32]> {
    let mut regs = [Av::Entry; 32];
    for p in math.ptrs() {
        if let ShortcutPtr::Reg(r) = p {
            if r == Reg::ZERO {
                return None;
            }
            regs[usize::from(r.num())] = Av::CellVal {
                cell: Cell::Reg(r.num()),
                off: 0,
            };
        }
    }
    Some(regs)
}

/// How an exit-live abstract value is rebuilt at commit: a stored value
/// by its store index, computed data through its dataflow tree (only a
/// cell update's walk records one), a dot product's complete sum (`dot`)
/// as its one store, anything else directly.
fn exit_val(
    v: Av,
    dot: Option<DotVal>,
    out_map: &Stored,
    vals: &Values,
    exit_nodes: &mut Vec<Node<ExitVal>>,
) -> Option<ExitVal> {
    Some(match v {
        Av::Entry => return None,
        Av::Const(c) => ExitVal::Const(c),
        Av::CellVal { cell, off } => ExitVal::Addr(AAddr {
            cell: Some(cell),
            off,
        }),
        Av::Load { op, addr } => ExitVal::Load { op, addr },
        Av::Dot(d) => {
            dot.filter(|f| vals.dot(d).sums(f))?;
            ExitVal::Out(0)
        }
        Av::Data { id, .. } => match out_map.get(id) {
            Some(k) => ExitVal::Out(k),
            None => {
                let node = vals
                    .node(v)?
                    .try_map(|a| exit_val(a, dot, out_map, vals, exit_nodes))?;
                exit_nodes.push(node);
                ExitVal::Node(exit_nodes.len() as u32 - 1)
            }
        },
    })
}

/// Which store wrote each symbolic value: per value id, one more than
/// its store index (0: not stored).
#[derive(Default)]
struct Stored(Vec<u32>);

impl Stored {
    fn get(&self, id: u32) -> Option<u32> {
        self.0.get(id as usize)?.checked_sub(1)
    }

    /// Records that store `k` wrote value `id`; `false` if a store
    /// already had.
    fn insert(&mut self, id: u32, k: u32) -> bool {
        let i = id as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        std::mem::replace(&mut self.0[i], k + 1) == 0
    }
}

/// The symbolic data values of one walk. A cell update's walk records the
/// micro-op behind each value, so its stores' dataflow can be proven and
/// its exit intermediates rebuilt; a matvec walk keeps every value opaque.
struct Values {
    count: u32,
    /// Per value id, the producing op (`None` = not modelled); `None`
    /// altogether when not recording.
    nodes: Option<Vec<Option<Node<Av>>>>,
    /// The seed and streams of each dot-product [`Chain`], once each.
    chains: Vec<[AAddr; 3]>,
}

impl Values {
    /// The id of the chain over `seed`, `a` and `b`.
    fn intern(&mut self, streams: [AAddr; 3]) -> u32 {
        let id = match self.chains.iter().position(|&c| c == streams) {
            Some(id) => id,
            None => {
                self.chains.push(streams);
                self.chains.len() - 1
            }
        };
        id as u32
    }

    /// The dot product a chain value stands for.
    fn dot(&self, c: Chain) -> DotVal {
        let [seed, a, b] = self.chains[c.id as usize];
        DotVal { seed, a, b, n: c.n }
    }

    fn fresh(&mut self, hw: bool, node: Option<Node<Av>>) -> Av {
        let id = self.count;
        self.count += 1;
        if let Some(nodes) = &mut self.nodes {
            nodes.push(node);
        }
        Av::Data { id, hw }
    }

    /// The op that produced `v`, if recorded.
    fn node(&self, v: Av) -> Option<Node<Av>> {
        let Av::Data { id, .. } = v else {
            return None;
        };
        *self.nodes.as_ref()?.get(id as usize)?
    }

    /// Whether `v` is `(a·b) >> 12` with operands matching `pa` and `pb`
    /// in either order.
    fn is_q12(&self, v: Av, pa: impl Fn(Av) -> bool, pb: impl Fn(Av) -> bool) -> bool {
        let Some(Node::Imm(AluImmOp::Srai, p, 12)) = self.node(v) else {
            return false;
        };
        let Some(Node::MulDiv(MulDivOp::Mul, a, b)) = self.node(p) else {
            return false;
        };
        (pa(a) && pb(b)) || (pa(b) && pb(a))
    }

    /// The operand of a `clip 16`, if `v` is one.
    fn clip16(&self, v: Av) -> Option<Av> {
        match self.node(v)? {
            Node::Clip(a, -32768, 32767) => Some(a),
            _ => None,
        }
    }
}

/// `lh` of row `k` of a dense halfword stream at `base`, as a predicate.
fn row_load(base: AAddr, k: u32) -> impl Fn(Av) -> bool {
    let want = AAddr {
        cell: base.cell,
        off: base.off.wrapping_add(2 * k),
    };
    move |v| matches!(v, Av::Load { op: LoadOp::Lh, addr } if addr == want)
}

/// The stores a region must make, in order, and the spans it may load
/// from. Store `k` goes to stream `k % n` at element `k / n` of `n`
/// streams. A matvec has one output stream; a cell update alternates its
/// `c` and `h` rows; a dot product stores every partial sum to its one
/// spill word (stride 0).
struct Outputs {
    /// `(base, stride)` per stream.
    streams: Vec<(AAddr, u32)>,
    /// Total stores.
    count: u32,
    /// A cell update's `o, f, i, g` sources.
    cell: Option<[AAddr; 4]>,
    /// A dot product's complete sum.
    dot: Option<DotVal>,
    /// The load spans, spans of one cell that touch merged.
    loads: Vec<Span>,
    /// The addresses of the descriptor's pointer cells.
    cells: Vec<u32>,
}

impl Outputs {
    /// The plan of `desc`. Its load spans are the operand streams the
    /// math reads (a matvec's weights with the word its last `pl.sdotsp`
    /// prefetches, unread, past them) and each pointer cell's word.
    fn new(desc: &KernelRegion) -> Option<Self> {
        let at = |off| AAddr { cell: None, off };
        let (streams, count, cell, dot, mut spans) = match desc.math {
            RegionMath::Matvec(m) => {
                if m.n_in == 0
                    || !m.n_in.is_multiple_of(2)
                    || m.n_out == 0
                    || m.out_stride == 0
                    || !m.out_stride.is_multiple_of(2)
                {
                    return None;
                }
                let row = m.n_in.checked_mul(2)?;
                let weights = row.checked_mul(m.n_out)?.checked_add(4)?;
                let spans = vec![
                    Span::new(at(m.w_base), weights, 4)?,
                    Span::new(at(m.bias32), m.n_out.checked_mul(4)?, 0)?,
                    Span::new(m.x.aaddr(), row, 0)?,
                ];
                let out = vec![(m.out.aaddr(), m.out_stride)];
                (out, m.n_out, None, None, spans)
            }
            RegionMath::Cell(u) => {
                if u.rows == 0 {
                    return None;
                }
                let row = u.rows.checked_mul(2)?;
                let spans = u
                    .gates
                    .iter()
                    .map(|g| Span::new(g.aaddr(), row, 0))
                    .collect::<Option<_>>()?;
                let gates = Some(u.gates.map(ShortcutPtr::aaddr));
                let out = vec![(u.c.aaddr(), 2), (u.h.aaddr(), 2)];
                (out, row, gates, None, spans)
            }
            RegionMath::Dot(d) => {
                if d.n_in == 0 {
                    return None;
                }
                let row = d.n_in.checked_mul(2)?;
                let spans = vec![
                    Span::new(d.w.aaddr(), row, 0)?,
                    Span::new(d.x.aaddr(), row, 0)?,
                    Span::new(d.bias32.aaddr(), 4, 0)?,
                ];
                let sum = DotVal {
                    seed: d.bias32.aaddr(),
                    a: d.w.aaddr(),
                    b: d.x.aaddr(),
                    n: d.n_in,
                };
                let count = d.n_in.checked_add(1)?;
                (vec![(d.spill.aaddr(), 0)], count, None, Some(sum), spans)
            }
        };
        let mut cells = Vec::new();
        for p in desc.math.ptrs() {
            if let ShortcutPtr::Cell(c) = p {
                cells.push(c);
                spans.push(Span::new(at(c), 4, 0)?);
            }
        }
        // Merge spans of one cell that overlap or abut, until none do. A
        // merged span keeps the slack of the part that reaches further
        // (the smaller one on a tie).
        let mut loads: Vec<Span> = Vec::new();
        while let Some(mut a) = spans.pop() {
            let x = a.range;
            let touches =
                |b: &Span| b.range.cell == x.cell && b.range.lo <= x.hi && x.lo <= b.range.hi;
            let Some(b) = loads.iter().position(touches).map(|k| loads.swap_remove(k)) else {
                loads.push(a);
                continue;
            };
            if (b.range.hi, a.slack) > (x.hi, b.slack) {
                a.slack = b.slack;
            }
            a.range.lo = x.lo.min(b.range.lo);
            a.range.hi = x.hi.max(b.range.hi);
            spans.push(a);
        }
        Some(Self {
            streams,
            count,
            cell,
            dot,
            loads,
            cells,
        })
    }

    /// Bytes per store: a dot product spills words, the others store
    /// halfwords.
    fn width(&self) -> u32 {
        if self.dot.is_some() {
            4
        } else {
            2
        }
    }

    /// A dot product's spill word.
    fn spill(&self) -> Option<AAddr> {
        self.dot.map(|_| self.addr(0))
    }

    /// Address of store `k`.
    fn addr(&self, k: u32) -> AAddr {
        let n = self.streams.len() as u32;
        let (base, stride) = self.streams[(k % n) as usize];
        base.plus(k / n * stride)
    }

    /// Each stream's byte span, checked for bounds and load-disjointness
    /// at every entry.
    fn spans(&self) -> Option<Vec<AccessRange>> {
        let per = self.count / self.streams.len() as u32;
        let width = self.width();
        self.streams
            .iter()
            .map(|&(base, stride)| {
                let len = stride.checked_mul(per - 1)?.checked_add(width)?;
                let mut span = Span::new(base, len, 0)?;
                span.read(base.off, width).then_some(span.range)
            })
            .collect()
    }

    /// Records one load: the value it leaves in its destination and the
    /// index of the load span it lies in. A cell update may read its `c`
    /// stream only in place: the current row's own `c`, once, before
    /// that row's store. Such reads lie in no load span — the `c` span is
    /// the region's one allowed load/store overlap. A dot product's `lw`
    /// of its spill word reads back the region's own last store, and any
    /// other load that touches the spill word rejects the region. Every
    /// other load must lie inside one span; a word loaded from a pointer
    /// cell is that cell's pointer, and anything else loaded is data.
    fn load(&self, st: &mut WalkState, op: LoadOp, addr: AAddr) -> Option<Loaded> {
        let size = load_size(op);
        if let Some(spill) = self.spill() {
            if overlaps(spill, 4, addr, size) {
                return if op == LoadOp::Lw && addr == spill {
                    Some((st.spill?, None))
                } else {
                    None
                };
            }
        }
        // A cell update's `c` span: `rows` halfwords, so `count` bytes.
        if self.cell.is_some() && overlaps(self.addr(0), self.count, addr, size) {
            let k = st.next_out;
            return (op == LoadOp::Lh && k.is_multiple_of(2) && addr == self.addr(k))
                .then_some((Av::Load { op, addr }, None));
        }
        let k = st
            .loads
            .iter()
            .position(|s| s.holds(addr.cell, i128::from(addr.off), size))?;
        if !st.loads[k].read(addr.off, size) {
            return None;
        }
        let v = if op == LoadOp::Lw && addr.cell.is_none() && self.cells.contains(&addr.off) {
            Av::CellVal {
                cell: Cell::Mem(addr.off),
                off: 0,
            }
        } else {
            Av::Load { op, addr }
        };
        Some((v, Some(k)))
    }

    /// Verifies one store against the next expected store: at exactly
    /// its address, an `sh` of a value that is a requantized halfword
    /// (matvec) or the row's `c` / `h` formula over this row's operands
    /// (cell update), or an `sw` of the bias seed and then of each
    /// partial sum one term longer (dot product).
    fn store(
        &self,
        op: StoreOp,
        addr: AAddr,
        value: Av,
        vals: &Values,
        st: &mut WalkState,
        out_map: &mut Stored,
    ) -> Option<()> {
        let k = st.next_out;
        if k >= self.count || addr != self.addr(k) {
            return None;
        }
        if let Some(fin) = self.dot {
            let ok = op == StoreOp::Sw
                && match value {
                    Av::Load {
                        op: LoadOp::Lw,
                        addr,
                    } => k == 0 && addr == fin.seed,
                    Av::Dot(d) => vals.dot(d).sums(&DotVal { n: k, ..fin }),
                    _ => false,
                };
            if !ok {
                return None;
            }
            st.spill = Some(value);
            st.next_out += 1;
            return Some(());
        }
        if op != StoreOp::Sh {
            return None;
        }
        let Av::Data { id, hw } = value else {
            return None;
        };
        let ok = match self.cell {
            None => hw,
            Some([o, f, i, g]) => {
                let row = k / 2;
                if k.is_multiple_of(2) {
                    let c = self.addr(0);
                    let fc = |t| vals.is_q12(t, row_load(f, row), row_load(c, row));
                    let ig = |t| vals.is_q12(t, row_load(i, row), row_load(g, row));
                    matches!(
                        vals.clip16(value).and_then(|s| vals.node(s)),
                        Some(Node::Alu(AluOp::Add, a, b)) if (fc(a) && ig(b)) || (fc(b) && ig(a))
                    )
                } else {
                    // tanh of exactly the value stored as this row's c.
                    let tanh_c = |t| {
                        matches!(vals.node(t), Some(Node::Unary(UnaryOp::Tanh, Av::Data { id, .. }))
                            if out_map.get(id) == Some(k - 1))
                    };
                    vals.clip16(value)
                        .is_some_and(|s| vals.is_q12(s, row_load(o, row), tanh_c))
                }
            }
        };
        if !ok || !out_map.insert(id, k) {
            return None;
        }
        st.next_out += 1;
        Some(())
    }
}

/// A loaded value and the index of the load span it came from.
type Loaded = (Av, Option<usize>);

/// Whether `a_len` bytes at `a` and `b_len` bytes at `b` statically
/// share a byte (same cell, overlapping offsets).
fn overlaps(a: AAddr, a_len: u32, b: AAddr, b_len: u32) -> bool {
    a.cell == b.cell
        && u64::from(b.off) < u64::from(a.off) + u64::from(a_len)
        && u64::from(a.off) < u64::from(b.off) + u64::from(b_len)
}

impl DotVal {
    /// Whether this chain is the sum `want` — the same seed and length,
    /// over the same two streams in either order (`i16` products
    /// commute).
    fn sums(&self, want: &DotVal) -> bool {
        self.seed == want.seed
            && self.n == want.n
            && ((self.a, self.b) == (want.a, want.b) || (self.a, self.b) == (want.b, want.a))
    }
}

impl AAddr {
    /// Resolves to a concrete byte address (`None` if the cell read
    /// faults — the caller then declines the shortcut).
    pub(crate) fn resolve(&self, mem: &Memory, core: &Core) -> Option<u32> {
        match self.cell {
            None => Some(self.off),
            Some(c) => Some(c.resolve(mem, core)?.wrapping_add(self.off)),
        }
    }

    /// The address `d` bytes on.
    fn plus(self, d: u32) -> AAddr {
        AAddr {
            off: self.off.wrapping_add(d),
            ..self
        }
    }
}

impl AccessRange {
    /// Resolves to a concrete `[start, end)` interval, checking bounds
    /// and the recorded alignment residues.
    fn resolve(&self, mem: &Memory, core: &Core) -> Option<(u64, u64)> {
        let base = match self.cell {
            None => 0u64,
            Some(c) => u64::from(c.resolve(mem, core)?),
        };
        let start = base + u64::from(self.lo);
        let end = base + u64::from(self.hi);
        if end > mem.size() as u64 {
            return None;
        }
        for (k, &res) in self.res.iter().enumerate() {
            if res != u32::MAX && (base + u64::from(res)) % (1u64 << k) != 0 {
                return None;
            }
        }
        Some((start, end))
    }
}

impl ShortcutRegion {
    /// Per-entry admission check: resolves every pointer cell and
    /// verifies that all load and store spans are in bounds and aligned,
    /// that no store span overlaps a load span or another store span (the
    /// handler batches its writes after its reads; a cell update's
    /// in-place reads of `c` and a dot product's spill reads lie in no
    /// load span), and that no offset a branch compared wraps its cell.
    /// `None` declines; otherwise the highest end of any span, which the
    /// caller backs before [`compute`](Self::compute) borrows the
    /// operands (every region stores, so every load span is resolved
    /// here).
    pub(crate) fn check_entry(&self, mem: &Memory, core: &Core) -> Option<u64> {
        for &(cell, off) in &self.nowrap {
            match cell.resolve(mem, core) {
                Some(base) if u64::from(base) + u64::from(off) <= u64::from(u32::MAX) => {}
                _ => return None,
            }
        }
        let mut end = 0;
        for (n, w) in self.stores.iter().enumerate() {
            let (s_lo, s_hi) = w.resolve(mem, core)?;
            end = end.max(s_hi);
            for r in self.loads.iter().chain(&self.stores[..n]) {
                let (l_lo, l_hi) = r.resolve(mem, core)?;
                end = end.max(l_hi);
                if s_lo < l_hi && l_lo < s_hi {
                    return None;
                }
            }
        }
        Some(end)
    }

    /// Computes the region's stores, in store order, as `(address,
    /// value)` pairs with host arithmetic bit-identical to the emitted
    /// kernel. A matvec accumulates `i16×i16` products with wrapping
    /// 32-bit adds (order-independent), then applies `>> 12`, a 16-bit
    /// clip and the shared fixed-point activation. A cell update
    /// evaluates each row's formula (see [`CellUpdate`]). A dot product
    /// yields its spill word's final value, the complete sum (its
    /// partial sums are overwritten). Every read sees entry-time memory,
    /// which [`check_entry`](Self::check_entry) makes exactly what the
    /// kernel reads. Returns `false` (with no state mutated anywhere) if
    /// any pointer or read falls outside memory.
    pub(crate) fn compute(&self, mem: &Memory, core: &Core, outs: &mut Vec<(u32, i32)>) -> bool {
        let at = |p: ShortcutPtr| p.aaddr().resolve(mem, core);
        match self.desc.math {
            RegionMath::Matvec(m) => matvec(&m, mem, at, outs),
            RegionMath::Cell(u) => cell_update(&u, mem, at, outs),
            RegionMath::Dot(d) => dot(&d, mem, at, outs),
        }
        .is_some()
    }

    /// Whether the region's stores are words (a dot product's spill)
    /// rather than halfwords.
    pub(crate) fn stores_words(&self) -> bool {
        matches!(self.desc.math, RegionMath::Dot(_))
    }
}

fn matvec(
    m: &Matvec,
    mem: &Memory,
    at: impl Fn(ShortcutPtr) -> Option<u32>,
    outs: &mut Vec<(u32, i32)>,
) -> Option<()> {
    let n_in = m.n_in as usize;
    let n_out = m.n_out as usize;
    let row_bytes = n_in * 2;
    let x = mem.byte_slice(at(m.x)?, row_bytes).ok()?;
    let out = at(m.out)?;
    outs.reserve(n_out);
    for j in 0..n_out {
        let bias = mem.read_u32(m.bias32.wrapping_add(4 * j as u32)).ok()?;
        let row = mem
            .byte_slice(m.w_base.wrapping_add((j * row_bytes) as u32), row_bytes)
            .ok()?;
        let mut acc = bias as i32;
        for (wp, xp) in row.chunks_exact(2).zip(x.chunks_exact(2)) {
            let w = i16::from_le_bytes([wp[0], wp[1]]) as i32;
            let xv = i16::from_le_bytes([xp[0], xp[1]]) as i32;
            acc = acc.wrapping_add(w.wrapping_mul(xv));
        }
        let v = m.act.apply((acc >> 12).clamp(-32768, 32767));
        outs.push((out.wrapping_add(j as u32 * m.out_stride), v));
    }
    Some(())
}

fn cell_update(
    u: &CellUpdate,
    mem: &Memory,
    at_ptr: impl Fn(ShortcutPtr) -> Option<u32>,
    outs: &mut Vec<(u32, i32)>,
) -> Option<()> {
    let rows = u.rows as usize;
    let stream = |p: ShortcutPtr| -> Option<(u32, &[u8])> {
        let base = at_ptr(p)?;
        Some((base, mem.byte_slice(base, 2 * rows).ok()?))
    };
    let [(_, o), (_, f), (_, i), (_, g)] = [
        stream(u.gates[0])?,
        stream(u.gates[1])?,
        stream(u.gates[2])?,
        stream(u.gates[3])?,
    ];
    let (c_base, c) = stream(u.c)?;
    let (h_base, _) = stream(u.h)?;
    let at = |s: &[u8], k: usize| i16::from_le_bytes([s[2 * k], s[2 * k + 1]]) as i32;
    outs.reserve(2 * rows);
    for k in 0..rows {
        let c_new =
            (((at(f, k) * at(c, k)) >> 12) + ((at(i, k) * at(g, k)) >> 12)).clamp(-32768, 32767);
        let h = ((at(o, k) * hw_tanh(c_new)) >> 12).clamp(-32768, 32767);
        let off = 2 * k as u32;
        outs.push((c_base.wrapping_add(off), c_new));
        outs.push((h_base.wrapping_add(off), h));
    }
    Some(())
}

fn dot(
    d: &Dot,
    mem: &Memory,
    at: impl Fn(ShortcutPtr) -> Option<u32>,
    outs: &mut Vec<(u32, i32)>,
) -> Option<()> {
    let bytes = 2 * d.n_in as usize;
    let w = mem.byte_slice(at(d.w)?, bytes).ok()?;
    let x = mem.byte_slice(at(d.x)?, bytes).ok()?;
    let mut acc = mem.read_u32(at(d.bias32)?).ok()? as i32;
    for (wp, xp) in w.chunks_exact(2).zip(x.chunks_exact(2)) {
        let w = i16::from_le_bytes([wp[0], wp[1]]) as i32;
        let xv = i16::from_le_bytes([xp[0], xp[1]]) as i32;
        acc = acc.wrapping_add(w.wrapping_mul(xv));
    }
    outs.push((at(d.spill)?, acc));
    Some(())
}
