//! Kernel-shortcut execution tier: native fast paths for compiled
//! kernel regions.
//!
//! The code generator in `rnnasip-core` publishes each kernel it emits as
//! a [`KernelRegion`]: a pc range, its math ([`RegionMath`]: a requantized
//! matrix-vector product, from level c on the LSTM cell update, at level
//! a one output's spilled dot product) and its operand layout. The math
//! fixes a [`Formula`] for each store: its address, and the tree of
//! micro-op [`Node`]s over operand loads and dot-product chains that
//! computes its value.
//!
//! At translation time
//! ([`UopProgram::translate_with_shortcuts`](crate::UopProgram::translate_with_shortcuts))
//! [`install`] verifies each descriptor by walking its micro-ops with
//! constant-folded control flow (through the interpreter's own semantics,
//! `UopKind::value` and `branch_taken`) and symbolic data, each value
//! recorded as the node of the op that computed it. It proves that
//!
//! * every branch, hardware-loop count and memory address is a constant
//!   given the region's pointer cells (global words or live-in
//!   registers), or compares two offsets from one cell,
//! * every load lies in a span the descriptor names, and the loads cover
//!   each span from end to end, a matvec's unread prefetch word excepted,
//! * the region makes exactly the formula's stores, in order, and each
//!   stored value's tree is its formula, commuted operands allowed
//!   ([`Formula::is`]),
//! * the timing profile — cycles, stalls, per-mnemonic rows — is static.
//!
//! Loops whose iterations only shift the walk's state by constants are
//! walked twice and then applied at once (see `Candidate`), so
//! verification costs what the static code costs, not what it executes.
//!
//! An installed [`ShortcutRegion`] runs each entry as one native
//! computation of its stores over TCDM plus one bulk state/statistics
//! commit. A region
//! that fails verification is not installed, and the micro-op path runs
//! it bit-identically; so does the machine decline an entry under armed
//! faults, in-flight SPR writes, live hardware loops, a short watchdog
//! budget or unresolvable or overlapping operand spans. The three-way
//! shortcut / bulk / stepping differentials in the bench crate enforce
//! the bit-identity.

use crate::core_state::{Core, HwLoop, Pipe};
use crate::mem::Memory;
use crate::program::Program;
use crate::uop::{
    alu, alu_imm, branch_taken, clip, max, mul_div, unary, Profile, UnaryOp, Uop, UopKind, NO_IDX,
};
use rnnasip_isa::{AluImmOp, AluOp, BranchOp, DotOp, LoadOp, MulDivOp, Reg, SimdSize, StoreOp};

/// Upper bound on the dynamic micro-ops verifying one region accounts
/// for (applied loop iterations count as walked): a guard against
/// pathological descriptors, far above any real kernel (~200k).
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
/// each one against the micro-op stream and discards any it cannot
/// prove. The code must read inside the operand spans and each from end
/// to end, make exactly the stores, and compute each stored value as the
/// math says: for a matvec, output `j` from bias word `j` and weight row
/// `j`, requantized and activated by `act`.
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
        self.costs.iter().flatten().for_each(|c| t += *c);
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
    /// Applies the activation to a requantized, clipped value, as the
    /// micro-ops compute it.
    pub(crate) fn apply(self, v: i32) -> i32 {
        let v = v as u32;
        (match self {
            ShortcutAct::None => v,
            ShortcutAct::Relu => max(v, 0),
            ShortcutAct::Tanh => unary(UnaryOp::Tanh, v),
            ShortcutAct::Sigmoid => unary(UnaryOp::Sig, v),
        }) as i32
    }
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
        let cell = match self {
            ShortcutPtr::Const(off) => return AAddr { cell: None, off },
            ShortcutPtr::Cell(c) => Cell::Mem(c),
            ShortcutPtr::Reg(r) => Cell::Reg(r.num()),
        };
        AAddr {
            cell: Some(cell),
            off: 0,
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
    /// The address itself: a constant, or a pointer cell's entry value
    /// plus a constant (a pointer loaded from a global cell or held in a
    /// register, then advanced).
    Addr(AAddr),
    /// Re-load from memory (the last value a register loaded). Resolved
    /// before the region's stores are written, so the read returns the
    /// load-time value: every load span is store-disjoint, and a cell
    /// update's in-place `c` read precedes its row's store.
    Load { op: LoadOp, addr: AAddr },
    /// Slot `k` of [`ShortcutRegion::compute`]'s stores: a value the
    /// region stored.
    Out(u32),
    /// A value the region computed but did not store (a cell update's
    /// last-row intermediate): re-evaluated from
    /// [`ShortcutRegion::exit_nodes`]`[i]`.
    Node(u32),
}

/// One step of a dataflow tree over operands `V`: the data semantics of
/// the micro-op that produced a value. The walk records one per value it
/// computes, over abstract values; a region's [`Formula`] is built of the
/// same nodes over its terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Node<V> {
    Imm(AluImmOp, V, i32),
    Alu(AluOp, V, V),
    MulDiv(MulDivOp, V, V),
    Clip(V, i32, i32),
    Unary(UnaryOp, V),
    /// `p.max`.
    Max(V, V),
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
            Node::Max(a, b) => Node::Max(f(a)?, f(b)?),
        })
    }

    /// The operation without its operands, and its one or two operands.
    fn split(self) -> (Node<()>, V, Option<V>) {
        match self {
            Node::Imm(op, a, imm) => (Node::Imm(op, (), imm), a, None),
            Node::Alu(op, a, b) => (Node::Alu(op, (), ()), a, Some(b)),
            Node::MulDiv(op, a, b) => (Node::MulDiv(op, (), ()), a, Some(b)),
            Node::Clip(a, lo, hi) => (Node::Clip((), lo, hi), a, None),
            Node::Unary(op, a) => (Node::Unary(op, ()), a, None),
            Node::Max(a, b) => (Node::Max((), ()), a, Some(b)),
        }
    }
}

impl Node<()> {
    /// Whether the operation's two operands commute.
    fn commutes(self) -> bool {
        matches!(
            self,
            Node::Alu(AluOp::Add, ..) | Node::MulDiv(MulDivOp::Mul, ..) | Node::Max(..)
        )
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
            Node::Max(a, b) => max(a, b),
        }
    }
}

/// The dataflow node of a pure op over what `r` makes of its source
/// registers (`None` for ops no formula is built of).
#[inline(always)]
fn node_of<V>(kind: UopKind, r: impl Fn(Reg) -> V) -> Option<Node<V>> {
    Some(match kind {
        UopKind::OpImm { op, rs1, imm, .. } => Node::Imm(op, r(rs1), imm),
        UopKind::Op { op, rs1, rs2, .. } => Node::Alu(op, r(rs1), r(rs2)),
        UopKind::MulDiv { op, rs1, rs2, .. } => Node::MulDiv(op, r(rs1), r(rs2)),
        UopKind::Clip { rs1, lo, hi, .. } => Node::Clip(r(rs1), lo, hi),
        UopKind::ClipU { rs1, hi, .. } => Node::Clip(r(rs1), 0, hi),
        UopKind::Unary { op, rs1, .. } => Node::Unary(op, r(rs1)),
        UopKind::PMax { rs1, rs2, .. } => Node::Max(r(rs1), r(rs2)),
        _ => return None,
    })
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
    /// The pipe at region exit: the SPR writes still in flight, keyed
    /// by `instret` from entry with their weight word's address, and the
    /// last op's load, pending into the op after the region.
    pub exit_pipe: Pipe<AAddr>,
    /// Hardware-loop levels reconfigured by the region.
    pub exit_hwloop: [Option<HwLoop>; 2],
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
    /// Data the walk computed: value `id` of [`Values`], which holds the
    /// op that produced it where a formula can be built of that op.
    Data(u32),
}

/// `mem_u32[seed] + Σ_{k < n} a[k]·b[k]` (wrapping) over the halfword
/// streams at `a` and `b`: the value a dot-product chain over successive
/// loads builds on a loaded seed word. Its `[seed, a, b]` are entry `id`
/// of [`Values::chains`], which keeps abstract values small.
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
    let (cell, off) = match base {
        Av::Const(c) => (None, c),
        Av::CellVal { cell, off } => (Some(cell), off),
        _ => return None,
    };
    Some(AAddr { cell, off }.plus(disp))
}

/// Advances a pointer value by a constant (post-increment image).
#[inline(always)]
fn bump(base: Av, disp: u32) -> Option<Av> {
    Some(match aaddr(base, disp)? {
        AAddr { cell: None, off } => Av::Const(off),
        AAddr {
            cell: Some(cell),
            off,
        } => Av::CellVal { cell, off },
    })
}

/// The abstract result of a pure op that reads a non-constant register:
/// a moved cell pointer for `addi`/`add`/`sub` on one, a dot-product
/// chain for a step that extends one (see [`dot_step`]), otherwise data
/// recorded with the op's dataflow [`Node`].
fn symbolic(kind: UopKind, regs: &[Av; 32], vals: &mut Values) -> Av {
    let a = |r| av(regs, r);
    let moved = match kind {
        UopKind::OpImm {
            op: AluImmOp::Addi,
            rs1,
            imm,
            ..
        } => (a(rs1), imm as u32),
        UopKind::Op { op, rs1, rs2, .. } => match (op, a(rs1), a(rs2)) {
            (AluOp::Add, p, Av::Const(c)) | (AluOp::Add, Av::Const(c), p) => (p, c),
            (AluOp::Sub, p, Av::Const(c)) => (p, c.wrapping_neg()),
            _ => (Av::Entry, 0),
        },
        _ => (Av::Entry, 0),
    };
    if let (Av::CellVal { .. }, by) = moved {
        return bump(moved.0, by).expect("a cell pointer moves");
    }
    let chain = match kind {
        UopKind::Mac { rd, rs1, rs2 } => dot_step(a(rd), a(rs1), a(rs2), LoadOp::Lh, vals),
        UopKind::PvDot {
            op: DotOp::SdotSp,
            size: SimdSize::Half,
            rd,
            rs1,
            rs2,
        } => dot_step(a(rd), a(rs1), a(rs2), LoadOp::Lw, vals),
        _ => None,
    };
    match chain {
        Some(c) => Av::Dot(c),
        None => vals.fresh(node_of(kind, a)),
    }
}

/// The chain a dot-product step builds on `acc` from two operands loaded
/// by `op`: a `mac` of two `lh` halfwords adds one term, a signed
/// halfword `sdotsp` of two `lw` words two. A loaded word seeds a chain,
/// and a chain grows when the operands are the next elements of both of
/// its streams.
fn dot_step(acc: Av, a: Av, b: Av, op: LoadOp, vals: &mut Values) -> Option<Chain> {
    let (Av::Load { op: p, addr: a }, Av::Load { op: q, addr: b }) = (a, b) else {
        return None;
    };
    if (p, q) != (op, op) {
        return None;
    }
    let terms = load_size(op) / 2;
    match acc {
        Av::Load {
            op: LoadOp::Lw,
            addr: seed,
        } => {
            vals.chains.push([seed, a, b]);
            let id = vals.chains.len() as u32 - 1;
            Some(Chain { id, n: terms })
        }
        Av::Dot(c) => {
            let [_, p, q] = vals.chains[c.id as usize];
            let next = c.n.wrapping_mul(2);
            (a == p.plus(next) && b == q.plus(next)).then_some(Chain {
                n: c.n.wrapping_add(terms),
                ..c
            })
        }
        _ => None,
    }
}

/// Verifies a [`KernelRegion`] descriptor against the micro-op stream and
/// returns its installed region; `None` leaves it on the generic path.
/// `cost` accumulates the region, the micro-ops walked one by one, the
/// loop summaries applied and the host time taken.
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

/// The part of a walk's state a loop summary compares between the
/// starts of two iterations ([`Candidate::summarize`]).
#[derive(Clone, Copy, Default)]
struct Arch {
    regs: [Av; 32],
    /// Per hardware-loop level, its registers once the region set it up.
    hwl: [Option<HwLoop>; 2],
    /// Per SPR slot: the address of the weight word it holds (`None` =
    /// region-entry contents, which only discarding reads may touch).
    spr: [Option<AAddr>; 2],
    pipe: Pipe<AAddr>,
    instret: u64,
    next_out: u32,
    /// The spill word's content: the region's last store to it.
    spill: Option<Av>,
    /// How many times `WalkState::nowrap` changed.
    nowrap_changes: u64,
}

/// The mutable abstract machine state of one verification walk.
struct WalkState {
    a: Arch,
    /// The declared load spans, with what the walk read of them.
    loads: Vec<Span>,
    profile: Profile,
    /// See [`ShortcutRegion::nowrap`].
    nowrap: Vec<(Cell, u32)>,
    /// Micro-ops accounted for, applied loop iterations included.
    ops: u64,
}

impl WalkState {
    /// Raises the recorded no-wrap offset of `cell` to at least `off`.
    fn note_nowrap(&mut self, cell: Cell, off: u32) {
        match self.nowrap.iter_mut().find(|(c, _)| *c == cell) {
            Some((_, o)) if *o >= off => return,
            Some((_, o)) => *o = off,
            None => self.nowrap.push((cell, off)),
        }
        self.a.nowrap_changes += 1;
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
    /// A dot-product chain seeded in this iteration: entry `c` of
    /// [`Candidate::chains`].
    Chain(u8),
}

/// First pending-SPR-write source index of a [`Form::Lin`].
const SRC_PEND: usize = 32;
/// First SPR-slot source index of a [`Form::Lin`].
const SRC_SPR: usize = 34;
/// The spill word's source index of a [`Form::Lin`].
const SRC_SPILL: usize = 36;
/// The number of [`Form::Lin`] sources.
const SOURCES: usize = SRC_SPILL + 1;

/// Per [`Form::Lin`] source, a form.
#[derive(Clone, Copy, PartialEq)]
struct Forms([Form; SOURCES]);

impl Default for Forms {
    /// Every source moving as itself (`x0` never moves).
    fn default() -> Self {
        Forms(std::array::from_fn(|x| {
            [Form::Lin(x as u8), Form::Zero][usize::from(x == 0)]
        }))
    }
}

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
        (Av::Data(_), Av::Data(_)) => Delta::Same,
        _ => return None,
    })
}

/// [`delta`] of `v` into itself.
fn still(v: &Av) -> Delta {
    match v {
        Av::Entry | Av::Data(_) => Delta::Same,
        _ => Delta::Num(0),
    }
}

/// `v` moved by `d` applied `m` times.
fn shifted(v: Av, d: Delta, m: u32) -> Av {
    let Delta::Num(x) = d else {
        return v;
    };
    let by = m.wrapping_mul(x);
    match v {
        Av::Load { op, addr } => Av::Load {
            op,
            addr: addr.plus(by),
        },
        Av::Dot(c) => Av::Dot(Chain {
            n: c.n.wrapping_add(by),
            ..c
        }),
        v => bump(v, by).unwrap_or(v),
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
    forms: Forms,
    npend: usize,
    /// Loads recorded before it.
    accesses: usize,
}

/// One loop iteration watched for a summary.
///
/// Each arm of the walk reports its op through one hook (`load`,
/// `store`, `sdot`, `branch`, `pure`) on the pre-op state; a hook that
/// returns `false` ends the watch. Every value written gets a [`Form`]:
/// how it would move if the iteration-start state moved. At the loop's
/// next jump-back, [`summarize`] compares the two iteration-start states
/// and applies all remaining iterations at once when each source changed
/// by a constant [`Delta`] (or is opaque data) that the forms predict for
/// one more iteration, every value inspected beyond that did not move,
/// every load and dot-product step keeps pace, every store goes to the
/// next rows and computes its formula there too, and nothing else
/// happened (no other branch, no setup of the watched loop). Then
/// iteration `k + 1` is iteration `k` shifted, by induction, and each
/// load's span holds all its addresses when it holds the first and the
/// last. A hardware loop's count says how many iterations remain; a
/// branch-closed loop's closing branch gives its trip count ([`trip`]).
///
/// The walk keeps two watches ([`Watches`]), of a branch-closed loop and
/// of a hardware loop. When the hardware loop is nested in the other and
/// its summary applies, the outer watch takes the applied iterations as
/// one step ([`absorb`]), so a level-b matvec's row loop summarizes too.
///
/// [`summarize`]: Candidate::summarize
/// [`trip`]: Candidate::trip
/// [`absorb`]: Candidate::absorb
#[derive(Default)]
struct Candidate {
    /// The watched loop; `None` while not watching.
    lp: Option<Loop>,
    /// The state at the watched iteration's first op, and its profile,
    /// copied into buffers the watch keeps, so a watch allocates nothing
    /// once they have grown.
    start: Arch,
    profile: Profile,
    /// Per source (registers, then as [`Form::Lin`] numbers the others),
    /// its current form; the pending writes' in step with
    /// `Arch::pipe`.
    forms: Forms,
    /// The registers the iteration wrote; every other one keeps its
    /// value and moves as itself.
    written: u32,
    /// Sources whose values were inspected and so must not move.
    fixed: u64,
    /// Every load of the iteration.
    accesses: Vec<Access>,
    /// Every store of the iteration, in order: the forms of its address
    /// and value, and the value.
    stores: Vec<(Form, Form, Av)>,
    /// Every dot-product step on a chain the iteration did not seed: the
    /// forms of its chain and of its two operands.
    macs: Vec<[Form; 3]>,
    /// Every chain the iteration seeded: the forms of its seed word and
    /// of its two streams' first operands ([`Form::Chain`]).
    chains: Vec<[Form; 3]>,
    /// Every data value the iteration computed with a dataflow node, by
    /// id: the node over its operands' forms.
    made: Vec<(u32, Node<Form>)>,
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
        self.start = st.a;
        self.profile.clone_from(&st.profile);
        self.forms = Forms::default();
        self.written = 0;
        self.fixed = 0;
        self.accesses.clear();
        self.stores.clear();
        self.macs.clear();
        self.chains.clear();
        self.made.clear();
        self.closing = None;
        self.inner = None;
    }

    fn form(&self, r: Reg) -> Form {
        self.forms.0[r.num() as usize]
    }

    fn set(&mut self, r: Reg, f: Form) {
        if r.num() != 0 {
            self.forms.0[r.num() as usize] = f;
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
            (Form::Fresh | Form::Chain(_), _) | (_, Form::Fresh | Form::Chain(_)) => Form::Fresh,
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
    fn load(
        &mut self,
        op: LoadOp,
        rd: Reg,
        addr: AAddr,
        f: Form,
        (v, k): (Av, Option<usize>),
        plan: &Outputs,
    ) -> bool {
        // A spill-word read forwards the word's content.
        if plan.spill() == Some(addr) {
            self.set(rd, self.forms.0[SRC_SPILL]);
            return true;
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
        true
    }

    /// A store of `value` from `rs2` through base `rs1`, to the spill
    /// word with `spill`.
    fn store(&mut self, rs1: Reg, post: bool, rs2: Reg, value: Av, spill: bool) -> bool {
        let at = self.base(rs1, post);
        let form = self.form(rs2);
        if spill {
            self.forms.0[SRC_SPILL] = form;
        }
        self.stores.push((at, form, value));
        true
    }

    /// The `pl.sdotsp` `kind`, whose weight word at `addr` is read
    /// through `rs1` and queued as pending write `slot`, and which gave
    /// its accumulator `v` (`acc` before).
    fn sdot(
        &mut self,
        kind: UopKind,
        addr: AAddr,
        slot: usize,
        span: Option<usize>,
        (acc, v): (Av, Av),
    ) -> bool {
        let UopKind::PlSdotsp {
            spr, rd, rs1, rs2, ..
        } = kind
        else {
            return false;
        };
        let f = self.form(rs1);
        self.accesses.push(Access {
            addr,
            size: 4,
            form: f,
            reps: 1,
            step: 0,
            span,
        });
        if rd != Reg::ZERO {
            let w = self.forms.0[SRC_SPR + usize::from(spr & 1)];
            self.result(rd, acc, v, [w, self.form(rs2)], None);
        }
        if slot < 2 {
            self.forms.0[SRC_PEND + slot] = f;
        }
        self.set(rs1, f);
        true
    }

    /// Gives `rd` the form of the symbolic value `v` an op computed from
    /// `acc`, the accumulator's value before it, and from operands of
    /// forms `ops` (with its dataflow `node` over them): a chain step
    /// extends its chain's form and is recorded for the summary, a seed
    /// starts a chain of this iteration, and data is fresh.
    fn result(&mut self, rd: Reg, acc: Av, v: Av, ops: [Form; 2], node: Option<Node<Form>>) {
        let f = match v {
            Av::Dot(_) if matches!(acc, Av::Load { .. }) => {
                self.chains.push([self.form(rd), ops[0], ops[1]]);
                u8::try_from(self.chains.len() - 1).map_or(Form::Fresh, Form::Chain)
            }
            Av::Dot(_) => {
                let f = self.form(rd);
                self.macs.push([f, ops[0], ops[1]]);
                f
            }
            Av::Data(id) => {
                if let Some(n) = node {
                    self.made.push((id, n));
                }
                Form::Fresh
            }
            _ => Form::Fresh,
        };
        self.set(rd, f);
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
    /// constant or a cell pointer) moves with its pointer, any other
    /// constant is a fold that is the same every iteration and pins every
    /// register it reads, and a symbolic value takes its form from
    /// [`result`](Self::result).
    fn pure(&mut self, u: &Uop, rd: Reg, v: Av, regs: &[Av; 32]) -> bool {
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
            _ if pointer => {
                for n in used(u.uses_mask) {
                    self.fix(self.forms.0[n]);
                }
                Form::Zero
            }
            kind => {
                let (ops, node) = match kind {
                    UopKind::Mac { rs1, rs2, .. } | UopKind::PvDot { rs1, rs2, .. } => {
                        ([self.form(rs1), self.form(rs2)], None)
                    }
                    _ => ([Form::Fresh; 2], node_of(kind, |r| self.form(r))),
                };
                self.result(rd, av(regs, rd), v, ops, node);
                return true;
            }
        };
        self.set(rd, f);
        true
    }

    /// Notes, in a row watch, that a hardware-loop watch nested in it
    /// begins now, with `npend` SPR writes in flight.
    fn mark(&mut self, npend: usize) {
        self.inner = Some(Mark {
            forms: self.forms,
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
        if plan.kind != RegionKind::Matvec
            || !inner.stores.is_empty()
            || mark.npend != npend
            || mark.forms.0[..SRC_PEND + npend] != self.forms.0[..SRC_PEND + npend]
            || mark.forms.0[SRC_SPR..] != self.forms.0[SRC_SPR..]
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
    /// An iteration's stores must go to the next rows of the output
    /// streams, and each value must compute its formula there too: the
    /// match is repeated with every leaf moving by its lanes' steps per
    /// row ([`Formula::is`]). A cell update's in-place reads of `c` must
    /// move with the rows, inside its store span. The loop's last
    /// iteration is left to the walk (`walk_last`), which records its
    /// stores and dataflow as usual; a loop without stores may leave no
    /// data computed in its applied iterations in a register, whose node
    /// would name the watched iteration's operands.
    fn summarize(&mut self, st: &mut WalkState, plan: &Outputs, vals: &Values) -> Summary {
        let Some(lp) = self.lp else {
            return Summary::Skip;
        };
        let (s0, p0) = (&self.start, &self.profile);
        let stored = st.a.next_out - s0.next_out;
        let streams = plan.f.outs.len() as u32;
        if !stored.is_multiple_of(streams)
            || s0.pipe.load != st.a.pipe.load
            || s0.nowrap_changes != st.a.nowrap_changes
            || p0.retire_rows.len() != st.profile.retire_rows.len()
            || p0.stall_rows.len() != st.profile.stall_rows.len()
            || s0.pipe.len() != st.a.pipe.len()
        {
            return Summary::Skip;
        }
        // Iterations left after the watched one, for a hardware loop.
        let hw_left = match lp {
            Loop::Hw(lv) => {
                let (Some(h0), Some(h1)) = (s0.hwl[lv], st.a.hwl[lv]) else {
                    return Summary::Skip;
                };
                if (h0.start, h0.end) != (h1.start, h1.end)
                    || h1.count + 1 != h0.count
                    || s0.hwl[1 - lv] != st.a.hwl[1 - lv]
                {
                    return Summary::Skip;
                }
                Some(h1.count)
            }
            Loop::Branch(_) if s0.hwl == st.a.hwl => None,
            Loop::Branch(_) => return Summary::Skip,
        };
        let iter = st.a.instret - s0.instret;
        // Per-source deltas over the watched iteration. A register the
        // iteration did not write kept its value.
        let mut d = [Delta::Same; SOURCES];
        for (r, dr) in d.iter_mut().enumerate().take(32).skip(1) {
            *dr = if self.written & (1 << r) == 0 {
                still(&st.a.regs[r])
            } else {
                match delta(&s0.regs[r], &st.a.regs[r]) {
                    Some(v) => v,
                    None => return Summary::Skip,
                }
            };
        }
        for (j, (p, q)) in s0.pipe.writes().zip(st.a.pipe.writes()).enumerate() {
            let (p_in, q_in) = (p.0.wrapping_sub(s0.instret), q.0.wrapping_sub(st.a.instret));
            if p_in != q_in || p.1 != q.1 || p.2.cell != q.2.cell {
                return Summary::Skip;
            }
            d[SRC_PEND + j] = Delta::Num(q.2.off.wrapping_sub(p.2.off));
        }
        for k in 0..2 {
            d[SRC_SPR + k] = match (s0.spr[k], st.a.spr[k]) {
                (None, None) => Delta::Same,
                (Some(a), Some(b)) if a.cell == b.cell => Delta::Num(b.off.wrapping_sub(a.off)),
                _ => return Summary::Skip,
            };
        }
        d[SRC_SPILL] = match (&s0.spill, &st.a.spill) {
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
            Form::Fresh | Form::Chain(_) => d[x] == Delta::Same,
        };
        let ends = used(self.written)
            .chain(SRC_PEND..SRC_PEND + st.a.pipe.len())
            .chain(SRC_SPR..SOURCES);
        for x in ends {
            if !predicts(x, self.forms.0[x]) {
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
            Form::Fresh | Form::Chain(_) => None,
        };
        // A dot-product step stays a step when both operands move as the
        // next elements of its chain's streams: with the chain's seeding
        // operands for a chain of this iteration, else two bytes per term
        // the chain moves.
        for &[chain, a, b] in &self.macs {
            let want = match chain {
                Form::Chain(c) => {
                    let [_, fa, fb] = self.chains[usize::from(c)];
                    [shift_of(fa), shift_of(fb)]
                }
                f => [shift_of(f).map(|n| n.wrapping_mul(2)); 2],
            };
            if want.contains(&None) || [shift_of(a), shift_of(b)] != want {
                return Summary::Skip;
            }
        }
        // The rows stored per iteration.
        let rows = stored / streams;
        // Every load must keep its alignment residue: its shift, and its
        // repetitions' step, are multiples of its size.
        self.shifts.clear();
        for a in &self.accesses {
            let Some(shift) = shift_of(a.form) else {
                return Summary::Skip;
            };
            let in_place = a.span.is_none() && shift != rows.wrapping_mul(plan.f.outs[0].0.step);
            if in_place || !(shift | a.step).is_multiple_of(a.size) {
                return Summary::Skip;
            }
            self.shifts.push(shift);
        }
        let moves = |f, step: u32| shift_of(f) == Some(step.wrapping_mul(rows));
        for (&(at, form, value), k) in self.stores.iter().zip(s0.next_out..) {
            let (lane, t) = plan.f.store(k);
            let row = plan.f.row(k);
            if !moves(at, lane.step) || !plan.f.is(value, form, t, row, vals, Some((self, &moves)))
            {
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
        let computed = |v: &Av| matches!(v, Av::Data(_));
        if m == 0
            || !walk_last
                && (used(self.written).any(|r| computed(&st.a.regs[r]))
                    || st.a.spill.as_ref().is_some_and(computed))
        {
            return Summary::Skip;
        }
        // All remaining iterations are applied. Each load's first and
        // last address over them must lie in the span the watched load
        // read (addresses as signed steps from it, without wrapping).
        let Some(next_out) = (m as u32)
            .checked_mul(stored)
            .and_then(|n| n.checked_add(st.a.next_out))
            .filter(|&n| n <= plan.f.count)
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
            st.a.regs[r] = shifted(st.a.regs[r], d[r], m32);
        }
        st.a.pipe.rebase(m * iter);
        for (j, p) in st.a.pipe.writes_mut().enumerate() {
            p.2.off = p.2.off.wrapping_add(by(SRC_PEND + j));
        }
        for k in 0..2 {
            if let Some(a) = &mut st.a.spr[k] {
                a.off = a.off.wrapping_add(by(SRC_SPR + k));
            }
        }
        st.a.spill = st.a.spill.map(|v| shifted(v, d[SRC_SPILL], m32));
        st.profile.repeat_since(p0, m);
        st.a.instret += m * iter;
        st.a.next_out = next_out;
        if let Loop::Hw(lv) = lp {
            if let Some(h) = &mut st.a.hwl[lv] {
                h.count = 1;
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
        let (a, b) = match (av(&st.a.regs, r1), av(&st.a.regs, r2)) {
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
        vals: &Values,
        cost: &mut VerifyCost,
    ) -> Option<Summary> {
        if self.lp != Some(lp) {
            self.lp = None;
            return Some(Summary::Skip);
        }
        let summary = self.summarize(st, plan, vals);
        self.lp = None;
        match summary {
            Summary::Reject => return None,
            Summary::Applied { ops: n, .. } => {
                st.ops += n;
                cost.summaries += 1;
            }
            Summary::Skip => {}
        }
        (st.ops <= WALK_OP_CAP).then_some(summary)
    }
}

/// The walk's two loop watches: `row` of a branch-closed loop, `hw` of a
/// hardware loop. Each keeps its buffers from watch to watch.
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

    // Every register a pointer the formula's operands name holds that
    // cell's entry value; reading any other rejects the region.
    let mut regs = [Av::Entry; 32];
    for b in &plan.f.bases {
        if let Some(cell @ Cell::Reg(r)) = b.cell {
            *regs.get_mut(usize::from(r)).filter(|_| r != 0)? = Av::CellVal { cell, off: 0 };
        }
    }
    let mut st = WalkState {
        a: Arch {
            regs,
            ..Arch::default()
        },
        loads: plan.loads.clone(),
        profile: Profile::default(),
        nowrap: Vec::new(),
        ops: 0,
    };
    let mut vals = Values::default();
    let mut watches = Watches::default();

    let mut i = start_idx;
    while i != end_idx {
        let u = &uops[i];
        st.ops += 1;
        cost.walked += 1;
        if st.ops > WALK_OP_CAP {
            return None;
        }
        // SPR writes issued two or more retirements ago land now — the
        // same drain point as the per-op path.
        while let Some((slot, addr)) = st.a.pipe.drain(st.a.instret) {
            st.a.spr[slot] = Some(addr);
            watches.each(|c| {
                c.forms.0[SRC_SPR + slot] = c.forms.0[SRC_PEND];
                c.forms.0[SRC_PEND] = c.forms.0[SRC_PEND + 1];
                true
            });
        }
        // Load-use stall, charged to the producing load.
        if let Some(id) = st.a.pipe.stall(u) {
            st.profile.stall(id);
        }
        let mut jump: Option<(u32, usize)> = None;
        match u.kind {
            UopKind::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                watches.each(|c| c.branch(u.addr, op, rs1, rs2));
                let (a, b) = match (get(&st.a.regs, rs1)?, get(&st.a.regs, rs2)?) {
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
                let base = get(&st.a.regs, rs1)?;
                let addr = aaddr(base, if post { 0 } else { offset })?;
                let loaded = plan.load(&mut st, op, addr)?;
                watches.each(|c| {
                    let f = c.base(rs1, post);
                    c.load(op, rd, addr, f, loaded, &plan)
                });
                if post {
                    set(&mut st.a.regs, rs1, bump(base, offset)?);
                }
                set(&mut st.a.regs, rd, loaded.0);
            }
            UopKind::LoadReg { op, rd, rs1, rs2 } => {
                let addr = match (get(&st.a.regs, rs1)?, get(&st.a.regs, rs2)?) {
                    (base, Av::Const(c)) | (Av::Const(c), base) => aaddr(base, c)?,
                    _ => return None,
                };
                let loaded = plan.load(&mut st, op, addr)?;
                watches.each(|c| {
                    let f = c.add(c.form(rs1), c.form(rs2));
                    c.load(op, rd, addr, f, loaded, &plan)
                });
                set(&mut st.a.regs, rd, loaded.0);
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
                let base = get(&st.a.regs, rs1)?;
                let addr = aaddr(base, if post { 0 } else { offset })?;
                let value = get(&st.a.regs, rs2)?;
                let spill = plan.spill() == Some(addr);
                watches.each(|c| c.store(rs1, post, rs2, value, spill));
                plan.store(op, addr, value, &mut vals, &mut st)?;
                if post {
                    set(&mut st.a.regs, rs1, bump(base, offset)?);
                }
            }
            UopKind::Nop => {}
            UopKind::PlSdotsp {
                spr: s,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let sl = usize::from(s & 1);
                // The x operand's value is symbolic but must exist.
                let x = get(&st.a.regs, rs2)?;
                let (mut acc, mut v) = (Av::Entry, Av::Entry);
                if rd != Reg::ZERO {
                    // A live accumulation must read a weight whose
                    // provenance is known (drained from a walked issue),
                    // never the slot's unknown entry contents: the word
                    // it was loaded from.
                    let w = Av::Load {
                        op: LoadOp::Lw,
                        addr: st.a.spr[sl]?,
                    };
                    acc = get(&st.a.regs, rd)?;
                    let half = size == SimdSize::Half;
                    v = match dot_step(acc, w, x, LoadOp::Lw, &mut vals).filter(|_| half) {
                        Some(c) => Av::Dot(c),
                        None => vals.fresh(None),
                    };
                }
                let base = get(&st.a.regs, rs1)?;
                let addr = aaddr(base, 0)?;
                let slot = st.a.pipe.len();
                let (_, span) = plan.load(&mut st, LoadOp::Lw, addr)?;
                watches.each(|c| c.sdot(u.kind, addr, slot, span, (acc, v)));
                st.a.pipe.issue(st.a.instret, sl, addr);
                set(&mut st.a.regs, rd, v);
                set(&mut st.a.regs, rs1, bump(base, 4)?);
            }
            UopKind::LpSetup { l, rs1, start, end } => {
                watches.setup(Some(rs1));
                let Av::Const(count) = get(&st.a.regs, rs1)? else {
                    return None;
                };
                let lp = HwLoop { start, end, count };
                if !lp.valid() {
                    return None;
                }
                st.a.hwl[usize::from(l)] = Some(lp);
            }
            UopKind::LpSetupi {
                l,
                count,
                start,
                end,
            } => {
                watches.setup(None);
                let lp = HwLoop { start, end, count };
                if !lp.valid() {
                    return None;
                }
                st.a.hwl[usize::from(l)] = Some(lp);
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
                // Whether every register read holds a constant (`x0`
                // does); a region-entry value rejects.
                let folds = used(u.uses_mask).try_fold(true, |all, n| match st.a.regs[n] {
                    Av::Entry => None,
                    v => Some(all && matches!(v, Av::Const(_))),
                })?;
                let konst = |r: Reg| match av(&st.a.regs, r) {
                    Av::Const(c) => c,
                    _ => 0,
                };
                let rd = kind.dest()?;
                let v = if folds {
                    Av::Const(kind.value(konst)?)
                } else {
                    symbolic(kind, &st.a.regs, &mut vals)
                };
                watches.each(|c| c.pure(u, rd, v, &st.a.regs));
                set(&mut st.a.regs, rd, v);
            }
        }
        st.profile
            .record(u.id, u.cycles(jump.is_some()), u64::from(u.mac_ops));
        st.a.instret += 1;
        st.a.pipe.retire(u);
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
                    let summary = watches.row.jump_back(lp, &mut st, &plan, &vals, cost)?;
                    if !matches!(summary, Summary::Applied { .. }) {
                        watches.row.watch(lp, &st);
                    }
                }
                i = t;
            }
            None => {
                // Hardware-loop jump-back on fall-through.
                let [l0, l1] = &mut st.a.hwl;
                let levels = [l0.as_mut(), l1.as_mut()];
                let Some((mut level, mut na)) = HwLoop::jump_back(levels, u.next_addr) else {
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
                    let summary = watches.hw.jump_back(lp, &mut st, &plan, &vals, cost)?;
                    if let Summary::Applied { walk_last, .. } = summary {
                        let w = &mut watches;
                        let npend = st.a.pipe.len();
                        if w.row.lp.is_some() && !w.row.absorb(&w.hw, &plan, npend) {
                            w.row.lp = None;
                        }
                        if !walk_last {
                            let [l0, l1] = &mut st.a.hwl;
                            let levels = [l0.as_mut(), l1.as_mut()];
                            let Some(next) = HwLoop::jump_back(levels, u.next_addr) else {
                                i += 1;
                                continue;
                            };
                            (level, na) = next;
                        }
                    }
                    // Watch the next iteration if enough remain to pay off.
                    if st.a.hwl[level].is_some_and(|h| h.count >= 3) {
                        watches.hw.watch(Loop::Hw(level), &st);
                        if watches.row.lp.is_some() {
                            watches.row.mark(st.a.pipe.len());
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

    if st.a.next_out != plan.f.count || !st.loads.iter().all(Span::covered) {
        return None;
    }
    let mut exit_regs = Vec::new();
    let mut exit_nodes = Vec::new();
    for (r, &av) in st.a.regs.iter().enumerate().skip(1) {
        if let Av::Entry = av {
            continue;
        }
        let ev = exit_val(av, &plan.f, &vals, &mut exit_nodes)?;
        exit_regs.push((r as u8, ev));
    }
    Some(ShortcutRegion {
        desc: *desc,
        end_idx: end_idx as u32,
        total_instrs: st.a.instret,
        profile: st.profile,
        exit_regs,
        exit_spr: st.a.spr,
        exit_pipe: st.a.pipe,
        exit_hwloop: st.a.hwl,
        exit_nodes,
        loads: st.loads.into_iter().map(|s| s.range).collect(),
        stores,
        nowrap: st.nowrap,
    })
}

/// How an exit-live abstract value is rebuilt at commit: stored data by
/// its store's slot, a chain as the last store if it computes it, other
/// computed data through its dataflow tree, anything else directly.
fn exit_val(v: Av, f: &Formula, vals: &Values, nodes: &mut Vec<Node<ExitVal>>) -> Option<ExitVal> {
    if let Some(slot) = vals.store_of(v).and_then(|k| f.slot(k)) {
        return Some(ExitVal::Out(slot));
    }
    let last = f.count - 1;
    Some(match v {
        Av::Dot(_) if f.is(v, Form::Zero, f.store(last).1, f.row(last), vals, None) => {
            ExitVal::Out(f.slot(last)?)
        }
        Av::Entry | Av::Dot(_) => return None,
        Av::Const(_) | Av::CellVal { .. } => ExitVal::Addr(aaddr(v, 0)?),
        Av::Load { op, addr } => ExitVal::Load { op, addr },
        Av::Data(id) => {
            let node = vals.node(id)?.try_map(|a| exit_val(a, f, vals, nodes))?;
            nodes.push(node);
            ExitVal::Node(nodes.len() as u32 - 1)
        }
    })
}

/// The symbolic values of one walk: the op behind each data value, the
/// streams of each dot-product chain, and which store wrote which value.
#[derive(Default)]
struct Values {
    /// Per value id, the producing op (`None` = not modelled).
    nodes: Vec<Option<Node<Av>>>,
    /// The seed and streams of each dot-product [`Chain`].
    chains: Vec<[AAddr; 3]>,
    /// Per value id, one more than the index of the store that wrote it
    /// (0: none).
    stored: Vec<u32>,
}

impl Values {
    /// New data computed by `node`.
    fn fresh(&mut self, node: Option<Node<Av>>) -> Av {
        self.nodes.push(node);
        Av::Data(self.nodes.len() as u32 - 1)
    }

    /// The op that produced data value `id`, if modelled.
    fn node(&self, id: u32) -> Option<Node<Av>> {
        *self.nodes.get(id as usize)?
    }

    /// The index of the store that wrote data `v`.
    fn store_of(&self, v: Av) -> Option<u32> {
        let Av::Data(id) = v else {
            return None;
        };
        self.stored.get(id as usize)?.checked_sub(1)
    }

    /// Records that store `k` wrote `v`.
    fn note_store(&mut self, v: Av, k: u32) {
        if let Av::Data(id) = v {
            let i = id as usize;
            self.stored.resize(self.stored.len().max(i + 1), 0);
            self.stored[i] = k + 1;
        }
    }
}

/// Where a formula leaf reads for a store in row `row`: `step · row`
/// bytes past operand base `s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Lane {
    s: u8,
    step: u32,
}

/// An operand in a region's [`Formula`], for a store in row `row`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Term {
    /// Node `i` of the formula.
    Node(u8),
    /// The sign-extended halfword at a lane.
    Load(Lane),
    /// Chain `x` of [`Formula::chains`], `([seed, a, b], (n0, n1))`: the
    /// word at lane `seed` plus `Σ_{t < n} a[t]·b[t]` (wrapping) over the
    /// halfword streams at lanes `a` and `b`, with `n = n0 + n1 · row`.
    Chain(u8),
    /// A constant.
    Const(u32),
}

/// What a region's stores hold. Of `n` store streams, store `k` goes to
/// row `k / n` of stream `k % n` and holds that stream's term in that
/// row. The descriptor's math fixes it ([`Outputs::new`]):
///
/// ```text
/// matvec  out[j] = act(clip16(srai(Chain(bias32 + 4j, w_base + 2·n_in·j, x; n_in), 12)))
/// cell    c[k]   = clip16(srai(f[k]·c[k], 12) + srai(i[k]·g[k], 12))
///         h[k]   = clip16(srai(o[k]·pl.tanh(c[k] as stored), 12))
/// dot     spill  = Chain(bias32, w, x; k)       for store k ≤ n_in
/// ```
///
/// with `act` one of none, `p.max(·, 0)`, `pl.tanh` and `pl.sig`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Formula {
    /// The operand bases lanes count from.
    bases: Vec<AAddr>,
    nodes: Vec<Node<Term>>,
    /// The `[seed, a, b]` lanes and `(n0, n1)` of each [`Term::Chain`].
    chains: Vec<([Lane; 3], (u32, u32))>,
    /// Per store stream: where its rows go (its stride as the lane's
    /// step) and what they hold.
    outs: Vec<(Lane, Term)>,
    /// Total stores.
    count: u32,
}

/// A watched iteration, for matching its stores in every later one
/// ([`Formula::is`]), and whether a value of a form moves by a step per
/// row stored.
type Advance<'a> = (&'a Candidate, &'a dyn Fn(Form, u32) -> bool);

impl Formula {
    fn row(&self, k: u32) -> u32 {
        k / self.outs.len() as u32
    }

    /// The address a lane reads in row `row`.
    fn addr(&self, l: Lane, row: u32) -> AAddr {
        self.bases[usize::from(l.s)].plus(l.step.wrapping_mul(row))
    }

    /// Store `k`'s address lane and term.
    fn store(&self, k: u32) -> (Lane, Term) {
        self.outs[k as usize % self.outs.len()]
    }

    /// Store `k`'s slot in [`ShortcutRegion::compute`]'s output: every
    /// store has its own, except that the stores of a formula with one
    /// stride-0 stream (a spill word) collapse to the last.
    fn slot(&self, k: u32) -> Option<u32> {
        match self.outs[..] {
            [(Lane { step: 0, .. }, _)] => (k + 1 == self.count).then_some(0),
            _ => Some(k),
        }
    }

    /// Whether `v` computes term `t` in row `row`: the same nodes down to
    /// the same leaves, either operand order of a commuting node. With
    /// `adv`, `v` is a value of a watched iteration with form `f` there,
    /// and must compute the term of the same store in every later
    /// iteration too: its nodes were computed in the iteration, and each
    /// leaf moves by its lanes' steps per row.
    fn is(&self, v: Av, f: Form, t: Term, row: u32, vals: &Values, adv: Option<Advance>) -> bool {
        let moves = |f, step| adv.is_none_or(|(_, m)| m(f, step));
        match (t, v) {
            (Term::Node(i), Av::Data(id)) => {
                let Some(Some(node)) = vals.nodes.get(id as usize) else {
                    return false;
                };
                let ((op, a, b), (want, s, u)) = (node.split(), self.nodes[usize::from(i)].split());
                let forms = match adv {
                    _ if op != want => return false,
                    None => (Form::Zero, Some(Form::Zero)),
                    Some((w, _)) => match w.made.binary_search_by_key(&id, |m| m.0) {
                        Ok(k) => (w.made[k].1.split().1, w.made[k].1.split().2),
                        Err(_) => return false,
                    },
                };
                match (b, forms, u) {
                    (None, (fa, _), None) => self.is(a, fa, s, row, vals, adv),
                    (Some(b), (fa, Some(fb)), Some(u)) => {
                        let is = |v, f, t| self.is(v, f, t, row, vals, adv);
                        is(a, fa, s) && is(b, fb, u)
                            || op.commutes() && is(a, fa, u) && is(b, fb, s)
                    }
                    _ => false,
                }
            }
            (Term::Load(l), Av::Load { op, addr }) => {
                op == LoadOp::Lh && addr == self.addr(l, row) && moves(f, l.step)
            }
            (Term::Chain(x), v) => {
                let ([seed, a, b], (n0, n1)) = self.chains[usize::from(x)];
                // The chain's seed, streams and length; a loaded seed word
                // is the chain of no terms.
                let ([d_seed, d_a, d_b], n) = match v {
                    Av::Dot(c) => (vals.chains[c.id as usize], c.n),
                    Av::Load {
                        op: LoadOp::Lw,
                        addr,
                    } => ([addr, self.addr(a, row), self.addr(b, row)], 0),
                    _ => return false,
                };
                // How they move: a chain seeded in the iteration by its
                // seeding operands, a loaded seed word by its address, a
                // chain carried into the iteration only in length.
                let [fs, fa, fb, fl] = match (adv, v, f) {
                    (Some((w, _)), _, Form::Chain(x)) => {
                        let [s, p, q] = w.chains[usize::from(x)];
                        [s, p, q, Form::Zero]
                    }
                    (_, Av::Load { .. }, _) => [f, Form::Zero, Form::Zero, Form::Zero],
                    _ => [Form::Zero, Form::Zero, Form::Zero, f],
                };
                let streams = |p: Lane, q: Lane| {
                    (d_a, d_b) == (self.addr(p, row), self.addr(q, row))
                        && moves(fa, p.step)
                        && moves(fb, q.step)
                };
                n == n0.wrapping_add(n1.wrapping_mul(row))
                    && d_seed == self.addr(seed, row)
                    && moves(fs, seed.step)
                    && moves(fl, n1)
                    && (streams(a, b) || streams(b, a))
            }
            (Term::Const(c), Av::Const(x)) => x == c && moves(f, 0),
            _ => false,
        }
    }
}

/// The stores a region must make, with what each must hold (its
/// [`Formula`]), and the spans it may load from.
struct Outputs {
    kind: RegionKind,
    f: Formula,
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
        let lane = |s, step| Lane { s, step };
        let n = Term::Node;
        let q12 = |t| Node::Imm(AluImmOp::Srai, t, 12);
        let clip16 = |t| Node::Clip(t, -32768, 32767);
        let mut chains = Vec::new();
        let (bases, nodes, outs, count, mut spans) = match desc.math {
            RegionMath::Matvec(m) => {
                let even = |v: u32| v != 0 && v.is_multiple_of(2);
                if m.n_out == 0 || !even(m.n_in) || !even(m.out_stride) {
                    return None;
                }
                let row = m.n_in.checked_mul(2)?;
                let weights = row.checked_mul(m.n_out)?.checked_add(4)?;
                let spans = vec![
                    Span::new(at(m.w_base), weights, 4)?,
                    Span::new(at(m.bias32), m.n_out.checked_mul(4)?, 0)?,
                    Span::new(m.x.aaddr(), row, 0)?,
                ];
                chains.push(([lane(1, 4), lane(0, row), lane(2, 0)], (m.n_in, 0)));
                let chain = Term::Chain(0);
                let act = match m.act {
                    ShortcutAct::None => None,
                    ShortcutAct::Relu => Some(Node::Max(n(1), Term::Const(0))),
                    ShortcutAct::Tanh => Some(Node::Unary(UnaryOp::Tanh, n(1))),
                    ShortcutAct::Sigmoid => Some(Node::Unary(UnaryOp::Sig, n(1))),
                };
                let nodes: Vec<_> = [Some(q12(chain)), Some(clip16(n(0))), act]
                    .into_iter()
                    .flatten()
                    .collect();
                let out = (lane(3, m.out_stride), n(nodes.len() as u8 - 1));
                let bases = vec![at(m.w_base), at(m.bias32), m.x.aaddr(), m.out.aaddr()];
                (bases, nodes, vec![out], m.n_out, spans)
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
                // Row `k` of the `o, f, i, g` and `c` streams; `h` tanh's
                // the new `c` (node 5) as it was stored.
                let [o, f, i, g, c] = [0, 1, 2, 3, 4].map(|s| Term::Load(lane(s, 2)));
                let mul = |a, b| Node::MulDiv(MulDivOp::Mul, a, b);
                let nodes = vec![
                    mul(f, c),
                    q12(n(0)),
                    mul(i, g),
                    q12(n(2)),
                    Node::Alu(AluOp::Add, n(1), n(3)),
                    clip16(n(4)),
                    Node::Unary(UnaryOp::Tanh, n(5)),
                    mul(o, n(6)),
                    q12(n(7)),
                    clip16(n(8)),
                ];
                let bases = u
                    .gates
                    .iter()
                    .chain([&u.c, &u.h])
                    .map(|p| p.aaddr())
                    .collect();
                let outs = vec![(lane(4, 2), n(5)), (lane(5, 2), n(9))];
                (bases, nodes, outs, row, spans)
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
                let bases = [d.w, d.x, d.bias32, d.spill].map(|p| p.aaddr()).to_vec();
                chains.push(([lane(2, 0), lane(0, 0), lane(1, 0)], (0, 1)));
                let sum = Term::Chain(0);
                (
                    bases,
                    Vec::new(),
                    vec![(lane(3, 0), sum)],
                    d.n_in.checked_add(1)?,
                    spans,
                )
            }
        };
        let f = Formula {
            bases,
            nodes,
            chains,
            outs,
            count,
        };
        let cells: Vec<u32> = f
            .bases
            .iter()
            .filter_map(|b| match b.cell {
                Some(Cell::Mem(c)) => Some(c),
                _ => None,
            })
            .collect();
        for &c in &cells {
            spans.push(Span::new(at(c), 4, 0)?);
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
            kind: desc.math.kind(),
            f,
            loads,
            cells,
        })
    }

    /// Bytes per store: a dot product spills words.
    fn width(&self) -> u32 {
        2 << u32::from(self.kind == RegionKind::Dot)
    }

    /// A dot product's spill word.
    fn spill(&self) -> Option<AAddr> {
        (self.kind == RegionKind::Dot).then(|| self.addr(0))
    }

    /// Address of store `k`.
    fn addr(&self, k: u32) -> AAddr {
        self.f.addr(self.f.store(k).0, self.f.row(k))
    }

    /// Each store stream's byte span, checked at every entry.
    fn spans(&self) -> Option<Vec<AccessRange>> {
        let per = self.f.count / self.f.outs.len() as u32;
        let width = self.width();
        self.f
            .outs
            .iter()
            .map(|&(at, _)| {
                let base = self.f.addr(at, 0);
                let len = at.step.checked_mul(per - 1)?.checked_add(width)?;
                let mut span = Span::new(base, len, 0)?;
                span.read(base.off, width).then_some(span.range)
            })
            .collect()
    }

    /// Records one load: the value it leaves in its destination and the
    /// index of the load span it lies in. A cell update may read its `c`
    /// stream only in place, the current row's `c` before that row's
    /// store, in no load span. A dot product's `lw` of its spill word
    /// reads back its own last store; any other load that touches the
    /// spill word rejects. Every other load must lie inside one span; a
    /// word loaded from a pointer cell is that cell's pointer.
    fn load(&self, st: &mut WalkState, op: LoadOp, addr: AAddr) -> Option<(Av, Option<usize>)> {
        let size = load_size(op);
        if let Some(spill) = self.spill() {
            if overlaps(spill, 4, addr, size) {
                return if op == LoadOp::Lw && addr == spill {
                    Some((st.a.spill?, None))
                } else {
                    None
                };
            }
        }
        // A cell update's `c` span: `rows` halfwords, so `count` bytes.
        if self.kind == RegionKind::Cell && overlaps(self.addr(0), self.f.count, addr, size) {
            let k = st.a.next_out;
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

    /// Verifies one store against the next the plan expects: at exactly
    /// its address, of the plan's width, and of a value that computes
    /// its formula ([`Formula::is`]).
    fn store(
        &self,
        op: StoreOp,
        addr: AAddr,
        value: Av,
        vals: &mut Values,
        st: &mut WalkState,
    ) -> Option<()> {
        let k = st.a.next_out;
        let ((lane, t), row) = (self.f.store(k), self.f.row(k));
        if k >= self.f.count
            || op != [StoreOp::Sh, StoreOp::Sw][usize::from(self.kind == RegionKind::Dot)]
            || addr != self.f.addr(lane, row)
            || !self.f.is(value, Form::Zero, t, row, vals, None)
        {
            return None;
        }
        vals.note_store(value, k);
        if self.spill() == Some(addr) {
            st.a.spill = Some(value);
        }
        st.a.next_out += 1;
        Some(())
    }
}

/// Whether `a_len` bytes at `a` and `b_len` bytes at `b` statically
/// share a byte (same cell, overlapping offsets).
fn overlaps(a: AAddr, a_len: u32, b: AAddr, b_len: u32) -> bool {
    a.cell == b.cell
        && u64::from(b.off) < u64::from(a.off) + u64::from(a_len)
        && u64::from(a.off) < u64::from(b.off) + u64::from(b_len)
}

impl AAddr {
    /// Resolves to a concrete byte address (`None` if the cell read
    /// faults — the caller then declines the shortcut).
    pub(crate) fn resolve(&self, mem: &Memory, core: &Core) -> Option<u32> {
        let base = self.cell.map_or(Some(0), |c| c.resolve(mem, core))?;
        Some(base.wrapping_add(self.off))
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
        let base = u64::from(self.cell.map_or(Some(0), |c| c.resolve(mem, core))?);
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
    /// value)` pairs: its formula's, with one native loop per kind (a
    /// formula evaluator, the loops' reference in the unit tests, costs
    /// several times their rows). A dot product yields its spill word's
    /// final value.
    /// Every read sees entry-time memory, which
    /// [`check_entry`](Self::check_entry) makes exactly what the kernel
    /// reads. Returns `false` (with no state mutated anywhere) if any
    /// pointer or read falls outside memory.
    pub(crate) fn compute(&self, mem: &Memory, core: &Core, outs: &mut Vec<(u32, i32)>) -> bool {
        let at = |p: ShortcutPtr| p.aaddr().resolve(mem, core);
        match self.desc.math {
            RegionMath::Matvec(m) => matvec(&m, mem, at, outs),
            RegionMath::Cell(u) => cell_update(&u, mem, at, outs),
            RegionMath::Dot(d) => dot(&d, mem, at, outs),
        }
        .is_some()
    }

    /// Whether the region stores words (a dot product's spill).
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
    let row = 2 * m.n_in;
    let x = mem.byte_slice(at(m.x)?, row as usize).ok()?;
    let out = at(m.out)?;
    for j in 0..m.n_out {
        let w = mem
            .byte_slice(m.w_base.wrapping_add(j * row), row as usize)
            .ok()?;
        let acc = dot16(mem.read_u32(m.bias32.wrapping_add(4 * j)).ok()?, w, x) as i32;
        let v = m.act.apply((acc >> 12).clamp(-32768, 32767));
        outs.push((out.wrapping_add(j * m.out_stride), v));
    }
    Some(())
}

/// `seed + Σ_t a[t]·b[t]` (wrapping) over two little-endian halfword
/// streams.
#[inline(always)]
fn dot16(seed: u32, a: &[u8], b: &[u8]) -> u32 {
    let half = |p: &[u8]| i16::from_le_bytes([p[0], p[1]]) as i32;
    let mut acc = seed as i32;
    for (p, q) in a.chunks_exact(2).zip(b.chunks_exact(2)) {
        acc = acc.wrapping_add(half(p).wrapping_mul(half(q)));
    }
    acc as u32
}

fn cell_update(
    u: &CellUpdate,
    mem: &Memory,
    at: impl Fn(ShortcutPtr) -> Option<u32>,
    outs: &mut Vec<(u32, i32)>,
) -> Option<()> {
    let rows = u.rows as usize;
    let stream = |p| mem.byte_slice(at(p)?, 2 * rows).ok();
    let [o, f, i, g] = u.gates.map(stream);
    let (o, f, i, g, c) = (o?, f?, i?, g?, stream(u.c)?);
    let (c_base, h_base) = (at(u.c)?, at(u.h)?);
    let at = |s: &[u8], k: usize| i16::from_le_bytes([s[2 * k], s[2 * k + 1]]) as i32;
    for k in 0..rows {
        let c_new =
            (((at(f, k) * at(c, k)) >> 12) + ((at(i, k) * at(g, k)) >> 12)).clamp(-32768, 32767);
        let h = ((at(o, k) * ShortcutAct::Tanh.apply(c_new)) >> 12).clamp(-32768, 32767);
        let off = 2 * k as u32;
        outs.extend([
            (c_base.wrapping_add(off), c_new),
            (h_base.wrapping_add(off), h),
        ]);
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
    let acc = dot16(mem.read_u32(at(d.bias32)?).ok()?, w, x);
    outs.push((at(d.spill)?, acc as i32));
    Some(())
}

#[cfg(test)]
mod tests;
