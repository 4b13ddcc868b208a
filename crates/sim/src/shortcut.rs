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
//! walked for two iterations and then applied in closed form (see
//! `Candidate`, which the walk's own arms feed), so verification costs
//! what the region's static code costs, not what it executes.
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
use std::collections::HashMap;

/// Upper bound on the dynamic micro-ops verifying one region accounts
/// for — a guard against pathological descriptors, far above any real
/// kernel (the largest suite kernel executes ~200k micro-ops per entry).
/// Loop iterations the walk applies in closed form count as if
/// walked, so the cap rejects exactly the regions it rejected when every
/// op was walked.
const WALK_OP_CAP: u64 = 8_000_000;

/// Upper bound on distinct contiguous load ranges tracked per region.
const MAX_RANGES: usize = 32;

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
/// and silently discards any that cannot be proven safe.
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
    /// Row-major Q3.12 weight base (`n_out × n_in` halfwords).
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// load-time value: every load range is store-disjoint, and a cell
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

/// One contiguous abstract byte range accessed by the region, with the
/// per-size alignment residues needed to prove every access in it is
/// aligned once the cell base is known.
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
    /// Every byte range the region reads, except a cell update's
    /// in-place reads of `c` (covered by its store span).
    pub loads: Vec<AccessRange>,
    /// The spans of the region's store streams (one per output stream).
    pub stores: Vec<AccessRange>,
    /// Per cell, the largest offset an unsigned branch compared against
    /// another offset from the same cell: the comparison folded to one
    /// of the offsets, which holds while `cell + offset` does not wrap.
    pub nowrap: Vec<(Cell, u32)>,
}

/// Abstract value of a register during the verification walk.
#[derive(Clone, Copy, Debug)]
enum Av {
    /// Unmodified region-entry value (reading one rejects the region —
    /// generated kernels initialize everything they read).
    Entry,
    /// A known constant.
    Const(u32),
    /// A pointer cell's entry value plus a constant displacement.
    CellVal { cell: Cell, off: u32 },
    /// A value loaded from a resolvable address during the walk.
    Load { op: LoadOp, addr: AAddr },
    /// A dot-product chain (see [`DotVal`]).
    Dot(DotVal),
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

fn load_size(op: LoadOp) -> u32 {
    match op {
        LoadOp::Lb | LoadOp::Lbu => 1,
        LoadOp::Lh | LoadOp::Lhu => 2,
        LoadOp::Lw => 4,
    }
}

/// Tracks the contiguous byte ranges a region accesses. Streamed
/// accesses extend an existing range; a range count explosion or an
/// inconsistent alignment residue rejects the region.
///
/// Ranges of one cell never touch each other (every extension coalesces
/// what it reaches), and they only move when `events` counts a new
/// range or a merge — the two facts the loop summary relies on.
#[derive(Clone, Default)]
struct RangeSet {
    ranges: Vec<AccessRange>,
    /// Ranges created plus ranges merged away, so far.
    events: u64,
}

impl RangeSet {
    /// Records one access; `false` rejects the region.
    fn add(&mut self, cell: Option<Cell>, off: u32, size: u32) -> bool {
        // Constant addresses are checked statically: a misaligned one
        // would fault on every entry, so the region is left interpreted.
        if cell.is_none() && !off.is_multiple_of(size) {
            return false;
        }
        let Some(end) = off.checked_add(size) else {
            return false;
        };
        let k = size.trailing_zeros() as usize;
        for i in 0..self.ranges.len() {
            let r = &mut self.ranges[i];
            if r.cell == cell && off <= r.hi && end >= r.lo {
                if r.res[k] == u32::MAX {
                    r.res[k] = off % size;
                } else if r.res[k] != off % size {
                    return false;
                }
                r.lo = r.lo.min(off);
                r.hi = r.hi.max(end);
                return self.coalesce(i);
            }
        }
        if self.ranges.len() >= MAX_RANGES {
            return false;
        }
        let mut res = [u32::MAX; 3];
        res[k] = off % size;
        self.events += 1;
        self.ranges.push(AccessRange {
            cell,
            lo: off,
            hi: end,
            res,
        });
        true
    }

    /// Merges every range that touches range `i` into it (an extension
    /// can bridge the gap between two previously disjoint streams, e.g.
    /// when interleaved weight-row streams complete a tile). Without
    /// this, tiled kernels leak one dead range per row and trip the
    /// [`MAX_RANGES`] cap. `false` on an alignment-residue conflict.
    fn coalesce(&mut self, mut i: usize) -> bool {
        loop {
            let (cell, lo, hi) = {
                let r = &self.ranges[i];
                (r.cell, r.lo, r.hi)
            };
            let Some(j) = self
                .ranges
                .iter()
                .enumerate()
                .position(|(j, r)| j != i && r.cell == cell && r.lo <= hi && r.hi >= lo)
            else {
                return true;
            };
            let other = self.ranges.swap_remove(j);
            self.events += 1;
            if j < i {
                i = if i == self.ranges.len() { j } else { i };
            }
            let r = &mut self.ranges[i];
            for k in 0..3 {
                if r.res[k] == u32::MAX {
                    r.res[k] = other.res[k];
                } else if other.res[k] != u32::MAX && r.res[k] != other.res[k] {
                    return false;
                }
            }
            r.lo = r.lo.min(other.lo);
            r.hi = r.hi.max(other.hi);
        }
    }
}

fn av(regs: &[Av; 32], r: Reg) -> Av {
    match r.num() {
        0 => Av::Const(0),
        n => regs[usize::from(n)],
    }
}

/// A register's abstract value; `None` (rejecting the region) for a
/// region-entry value.
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

fn set(regs: &mut [Av; 32], r: Reg, v: Av) {
    let n = r.num() as usize;
    if n != 0 {
        regs[n] = v;
    }
}

/// Lowers an abstract base value plus constant displacement to an
/// abstract address; non-pointer bases reject the region.
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
        UopKind::Mac { rd, rs1, rs2 } => match dot_step(a(rd), a(rs1), a(rs2)) {
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
fn dot_step(acc: Av, a: Av, b: Av) -> Option<DotVal> {
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
        } => Some(DotVal { seed, a, b, n: 1 }),
        Av::Dot(d) if a == d.a.plus(d.n.wrapping_mul(2)) && b == d.b.plus(d.n.wrapping_mul(2)) => {
            Some(DotVal {
                n: d.n.wrapping_add(1),
                ..d
            })
        }
        _ => None,
    }
}

/// How many micro-ops verification walked, and whether any hardware-loop
/// iterations were applied in closed form instead.
#[derive(Default)]
struct WalkStats {
    walked: u64,
    summarized: bool,
}

/// Verifies a [`KernelRegion`] descriptor against the micro-op stream by
/// abstract interpretation and, on success, returns its installed
/// static profile. `None` means the region stays on the generic path —
/// never an error: verification failure only costs performance.
/// `walked` accumulates the micro-ops the walk interpreted one by one.
pub(crate) fn install(
    uops: &[Uop],
    program: &Program,
    desc: &KernelRegion,
    walked: &mut u64,
) -> Option<ShortcutRegion> {
    let mut stats = WalkStats::default();
    let region = walk(uops, program, desc, true, &mut stats);
    *walked += stats.walked;
    // The loop summary must be invisible: re-derive the profile op by op
    // and demand a field-for-field identical result.
    #[cfg(debug_assertions)]
    if stats.summarized {
        let full = walk(uops, program, desc, false, &mut WalkStats::default());
        assert_eq!(region, full, "loop summary diverged from the full walk");
    }
    region
}

/// The mutable abstract machine state of one verification walk.
#[derive(Clone)]
struct WalkState {
    regs: [Av; 32],
    /// Per hardware-loop level: `(start, end, count)`.
    hwl: [Option<(u32, u32, u32)>; 2],
    /// Per SPR slot: the address of the weight word it holds (`None` =
    /// region-entry contents, which only discarding reads may touch).
    spr: [Option<AAddr>; 2],
    /// In-flight SPR writes: `(issue instret, slot, weight address)`.
    pend: Vec<(u64, usize, AAddr)>,
    loads: RangeSet,
    profile: Profile,
    prev_load: Option<(u8, MnemonicId)>,
    instret: u64,
    next_out: u32,
    /// The spill word's content: the region's last store to it.
    spill: Option<Av>,
    /// See [`ShortcutRegion::nowrap`].
    nowrap: Vec<(Cell, u32)>,
}

/// How a value moves between two loop iterations, in terms of the
/// iteration-start state (see [`Candidate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Form {
    /// Moves exactly as iteration-start source `s` moves: register `s`
    /// for `s < 32`, pending SPR write `s - 32` ([`SRC_PEND`]), SPR
    /// slot `s - 34` ([`SRC_SPR`]) or the spill word ([`SRC_SPILL`]).
    Lin(u8),
    /// A cell pointer `mem_u32[c]` whose cell address `c` moves as
    /// source `s` moves (a word loaded through a moving pointer).
    Cell(u8),
    /// The same in every iteration.
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
    /// A replayed load failed — so would the full walk.
    Reject,
}

/// How a source changed over one watched iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Delta {
    /// A pointer-like value advanced by this constant.
    Num(u32),
    /// A cell pointer whose cell address advanced by this constant.
    Cell(u32),
    /// Opaque (entry contents or symbolic data of the same kind).
    Same,
}

/// Shift of `a` into `b`, if both are the same kind of abstract value.
fn delta(a: Av, b: Av) -> Option<Delta> {
    Some(match (a, b) {
        (Av::Entry, Av::Entry) => Delta::Same,
        (Av::Const(x), Av::Const(y)) => Delta::Num(y.wrapping_sub(x)),
        (Av::CellVal { cell: c, off: x }, Av::CellVal { cell: d, off: y }) if c == d => {
            Delta::Num(y.wrapping_sub(x))
        }
        (
            Av::CellVal {
                cell: Cell::Mem(c),
                off: x,
            },
            Av::CellVal {
                cell: Cell::Mem(d),
                off: y,
            },
        ) if x == y => Delta::Cell(d.wrapping_sub(c)),
        (Av::Load { op: o, addr: x }, Av::Load { op: p, addr: y })
            if o == p && x.cell == y.cell =>
        {
            Delta::Num(y.off.wrapping_sub(x.off))
        }
        (Av::Dot(x), Av::Dot(y)) if DotVal { n: y.n, ..x } == y => {
            Delta::Num(y.n.wrapping_sub(x.n))
        }
        (Av::Data { hw: g, .. }, Av::Data { hw: h, .. }) if g == h => Delta::Same,
        _ => return None,
    })
}

/// `v` moved by `d` applied `m` times.
fn shifted(v: Av, d: Delta, m: u32) -> Av {
    let by = match d {
        Delta::Num(x) => m.wrapping_mul(x),
        Delta::Cell(x) => {
            return match v {
                Av::CellVal {
                    cell: Cell::Mem(c),
                    off,
                } => Av::CellVal {
                    cell: Cell::Mem(c.wrapping_add(m.wrapping_mul(x))),
                    off,
                },
                v => v,
            };
        }
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
        Av::Dot(d) => Av::Dot(DotVal {
            n: d.n.wrapping_add(by),
            ..d
        }),
        v => v,
    }
}

/// One loop iteration watched for a closed-form summary.
///
/// The watcher decodes nothing itself: each arm of the walk reports its
/// op through one hook (`load`, `store`, `sdot`, `branch`, `pure`), on
/// the pre-op state and with the operands, address and value the arm
/// has already formed; a hook that returns `false`, or a loop setup,
/// ends the watch. From those reports every value written in the
/// iteration gets a [`Form`] saying how it would move if the
/// iteration-start state moved. At the next jump-back of the same loop,
/// [`summarize`] compares the two iteration-start states. All remaining
/// iterations can be applied at once when
///
/// * each source changed by a constant [`Delta`], or is opaque data of
///   the same kind;
/// * the forms confirm that one more iteration would shift it by the
///   same constants — a source moves only into copies of itself
///   advanced by constants, and every value inspected beyond that
///   (constant folds, loads from a constant address) did not move;
/// * every load address moves by a constant, and every dot-product
///   step's halfword streams move two bytes per term it adds;
/// * nothing else happened: no branch but a branch-closed loop's own
///   closing branch, no loop setup, and no store but the whole rows of
///   a cell update or the spill-word partial sums of a dot product.
///
/// Then iteration `k + 1` is iteration `k` shifted, by induction: rows,
/// counters, pointers and SPR state advance linearly and the loads of
/// every later iteration are known. The range set takes them in closed
/// form while that is exact, and replays the rest. A hardware loop's
/// count says how many iterations remain; a branch-closed loop's
/// closing `bltu` gives its trip count from how far its moving operand
/// still is from its fixed one.
///
/// [`summarize`]: Candidate::summarize
struct Candidate {
    lp: Loop,
    /// The state at the watched iteration's first op.
    start: WalkState,
    regs: [Form; 32],
    spr: [Form; 2],
    /// Form of the spill word's content.
    spill: Form,
    /// Forms of `WalkState::pend`, in step with it.
    pend: Vec<Form>,
    /// Sources whose values were inspected and so must not move.
    fixed: u64,
    /// Every load of the iteration: `(address, size, form of address)`.
    accesses: Vec<(AAddr, u32, Form)>,
    /// Every store of the iteration: `(form of address, form of value)`;
    /// `None` when a store ends the watch.
    stores: Option<Vec<(Form, Form)>>,
    /// Every dot-product step: the forms of its chain and of its two
    /// halfword operands.
    macs: Vec<[Form; 3]>,
    /// A branch-closed loop's closing branch: its op and the forms of
    /// its two operand registers.
    closing: Option<(BranchOp, Reg, Reg, Form, Form)>,
}

impl Candidate {
    /// Watches one iteration of loop `lp`. Only a cell update's or a dot
    /// product's walk may summarize iterations that store.
    fn new(lp: Loop, st: &WalkState, plan: &Outputs) -> Self {
        let mut regs: [Form; 32] = std::array::from_fn(|r| Form::Lin(r as u8));
        regs[0] = Form::Zero;
        Self {
            lp,
            start: st.clone(),
            regs,
            spr: [Form::Lin(SRC_SPR as u8), Form::Lin(SRC_SPR as u8 + 1)],
            spill: Form::Lin(SRC_SPILL as u8),
            pend: (0..st.pend.len())
                .map(|j| Form::Lin((SRC_PEND + j) as u8))
                .collect(),
            fixed: 0,
            accesses: Vec::new(),
            stores: (plan.cell.is_some() || plan.dot.is_some()).then(Vec::new),
            macs: Vec::new(),
            closing: None,
        }
    }

    fn form(&self, r: Reg) -> Form {
        self.regs[r.num() as usize]
    }

    fn set(&mut self, r: Reg, f: Form) {
        if r.num() != 0 {
            self.regs[r.num() as usize] = f;
        }
    }

    /// Records that a value of form `f` was inspected beyond a constant
    /// shift, so its source must not move.
    fn fix(&mut self, f: Form) {
        if let Form::Lin(s) | Form::Cell(s) = f {
            self.fixed |= 1 << s;
        }
    }

    /// Form of a value used as a pointer or offset: a cell pointer is
    /// only affine in its offset, so its cell must not move.
    fn ptr(&mut self, f: Form) -> Form {
        if let Form::Cell(_) = f {
            self.fix(f);
            return Form::Zero;
        }
        f
    }

    /// Form of a sum of two pointer-like values (if both move, the second
    /// is pinned).
    fn add(&mut self, a: Form, b: Form) -> Form {
        let (a, b) = (self.ptr(a), self.ptr(b));
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
        let f = self.ptr(self.form(rs1));
        if post {
            self.set(rs1, f);
        }
        f
    }

    /// A load of `rd` from `addr`, whose form is `f`.
    fn load(&mut self, op: LoadOp, rd: Reg, addr: AAddr, f: Form, plan: &Outputs) {
        // A spill-word read forwards the word's content.
        if plan.spill() == Some(addr) {
            self.set(rd, self.spill);
            return;
        }
        self.accesses.push((addr, load_size(op), f));
        // A word from a constant address becomes a cell pointer named
        // by that address.
        let v = match f {
            Form::Lin(s) if op == LoadOp::Lw && addr.cell.is_none() => Form::Cell(s),
            f => f,
        };
        self.set(rd, v);
    }

    /// A store of `rs2` to `addr` through base `rs1`; `false` ends the
    /// watch of a loop that may not store.
    fn store(&mut self, addr: AAddr, rs1: Reg, post: bool, rs2: Reg, plan: &Outputs) -> bool {
        if self.stores.is_none() {
            return false;
        }
        let f = self.base(rs1, post);
        let v = self.form(rs2);
        if plan.spill() == Some(addr) {
            self.spill = v;
        }
        self.stores.as_mut().unwrap().push((f, v));
        true
    }

    /// A `pl.sdotsp` whose weight word at `addr` is read through `rs1`.
    fn sdot(&mut self, rd: Reg, rs1: Reg, addr: AAddr) {
        let f = self.ptr(self.form(rs1));
        self.accesses.push((addr, 4, f));
        self.pend.push(f);
        self.set(rd, Form::Fresh);
        self.set(rs1, f);
    }

    /// A branch at `at`: only the watched loop's closing branch keeps the
    /// watch, as its outcome in later iterations follows from how its
    /// operands move.
    fn branch(&mut self, at: u32, op: BranchOp, rs1: Reg, rs2: Reg) -> bool {
        if self.lp != Loop::Branch(at) || self.closing.is_some() {
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
            } if pointer => self.ptr(self.form(rs1)),
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
                self.ptr(self.form(rs1))
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

    /// At the loop's next jump-back (`st` is the state at the start of
    /// the following iteration): if the watched iteration proves to be a
    /// constant shift, advances `st` past every remaining iteration but,
    /// with `walk_last`, the last. A hardware loop is left with its count
    /// back at 1 so the walk can take its exit. [`Summary::Skip`] leaves
    /// `st` untouched.
    ///
    /// A cell update's iteration may store: it then writes whole rows,
    /// and every store and load must advance by exactly those rows, so
    /// iteration `k + 1` checks the row formulas one row further on. A
    /// dot product's iteration may store its partial sums: the spill
    /// word stays put and each stored chain must grow by one term per
    /// store, so iteration `k + 1` stores the next partial sums. The
    /// stored values of applied iterations are never exit-live, so the
    /// loop's last iteration is left to the walk (`walk_last`), which
    /// records its stores and dataflow as usual.
    fn summarize(&self, st: &mut WalkState, plan: &Outputs) -> Summary {
        let s0 = &self.start;
        let stored = st.next_out - s0.next_out;
        if (stored > 0 && self.stores.is_none())
            || (plan.cell.is_some() && !stored.is_multiple_of(2))
            || s0.prev_load != st.prev_load
            || s0.nowrap != st.nowrap
            || s0.profile.retire_rows.len() != st.profile.retire_rows.len()
            || s0.profile.stall_rows.len() != st.profile.stall_rows.len()
            || s0.pend.len() != st.pend.len()
        {
            return Summary::Skip;
        }
        // Iterations left after the watched one, for a hardware loop.
        let hw_left = match self.lp {
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

        // Per-source deltas over the watched iteration.
        let mut d = [Delta::Same; SRC_SPILL + 1];
        for (dr, (&a, &b)) in d.iter_mut().zip(s0.regs.iter().zip(&st.regs)).skip(1) {
            let Some(v) = delta(a, b) else {
                return Summary::Skip;
            };
            *dr = v;
        }
        for (j, (p, q)) in s0.pend.iter().zip(&st.pend).enumerate() {
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
        d[SRC_SPILL] = match (s0.spill, st.spill) {
            (None, None) => Delta::Same,
            (Some(a), Some(b)) => match delta(a, b) {
                Some(v) => v,
                None => return Summary::Skip,
            },
            _ => return Summary::Skip,
        };

        // The forms must predict the same deltas for the next iteration.
        let ends = (1..32)
            .map(|r| (r, self.regs[r]))
            .chain(
                self.pend
                    .iter()
                    .enumerate()
                    .map(|(j, &f)| (SRC_PEND + j, f)),
            )
            .chain(self.spr.iter().enumerate().map(|(k, &f)| (SRC_SPR + k, f)))
            .chain([(SRC_SPILL, self.spill)]);
        for (x, f) in ends {
            let ok = match f {
                Form::Lin(s) => {
                    let s = usize::from(s);
                    d[x] == d[s] && (x == s || d[s] != Delta::Same)
                }
                Form::Cell(s) => match d[usize::from(s)] {
                    Delta::Num(0) => d[x] == Delta::Num(0),
                    Delta::Num(v) => d[x] == Delta::Cell(v),
                    _ => false,
                },
                Form::Zero => d[x] == Delta::Num(0),
                Form::Fresh => d[x] == Delta::Same,
            };
            if !ok {
                return Summary::Skip;
            }
        }
        if (0..d.len()).any(|s| self.fixed & (1 << s) != 0 && d[s] != Delta::Num(0)) {
            return Summary::Skip;
        }

        // Where each value of the watched iteration moves per iteration.
        let shift_of = |f: Form| match f {
            Form::Lin(s) => match d[usize::from(s)] {
                Delta::Num(v) => Some(v),
                _ => None,
            },
            Form::Zero => Some(0),
            Form::Cell(_) | Form::Fresh => None,
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
        let mut shifts = Vec::with_capacity(self.accesses.len());
        for &(addr, size, f) in &self.accesses {
            let Some(shift) = shift_of(f) else {
                return Summary::Skip;
            };
            if plan.cell.is_some() && stored > 0 && shift != stored {
                return Summary::Skip;
            }
            // In-place reads of `c` are covered by its store span.
            if !plan.in_place(addr, size) {
                shifts.push((addr, size, shift));
            }
        }
        for &(at, value) in self.stores.iter().flatten() {
            let ok = if plan.dot.is_some() {
                shift_of(at) == Some(0) && shift_of(value) == Some(stored)
            } else {
                shift_of(at) == Some(stored)
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

        // All remaining iterations are applied: load ranges in closed
        // form for the first `safe` of them (see [`closed_form`]), the
        // loads of the rest replayed into the range set one by one, which
        // reproduces its merges exactly.
        let Some(next_out) = (m as u32)
            .checked_mul(stored)
            .and_then(|n| n.checked_add(st.next_out))
            .filter(|&n| n <= plan.count)
        else {
            return Summary::Reject;
        };
        let (safe, grow) = closed_form(&s0.loads, &st.loads, &shifts, m).unwrap_or((0, Vec::new()));
        if safe > 0 {
            for (r, &g) in st.loads.ranges.iter_mut().zip(&grow) {
                r.hi = r.hi.wrapping_add((safe as u32).wrapping_mul(g));
            }
        }
        for q in safe + 1..=m {
            for &(addr, size, shift) in &shifts {
                let off = addr.off.wrapping_add((q as u32).wrapping_mul(shift));
                if !st.loads.add(addr.cell, off, size) {
                    return Summary::Reject;
                }
            }
        }

        // Apply `m` more iterations (pending writes and SPR contents
        // only ever have offset deltas).
        let m32 = m as u32;
        let by = |x: usize| match d[x] {
            Delta::Num(v) => m32.wrapping_mul(v),
            _ => 0,
        };
        for (v, &dr) in st.regs.iter_mut().zip(&d) {
            *v = shifted(*v, dr, m32);
        }
        for (j, p) in st.pend.iter_mut().enumerate() {
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
        if let Loop::Hw(lv) = self.lp {
            if let Some(h) = &mut st.hwl[lv] {
                h.2 = 1;
            }
        }
        Summary::Applied {
            ops: m * iter,
            walk_last,
        }
    }

    /// How many iterations a branch-closed loop has left, the last one
    /// included, when its closing branch was just taken with the operands
    /// now in `st`: a `bltu` whose first operand climbs by a constant
    /// towards a fixed second one, both constants or offsets from one
    /// cell, with no wrap on the way.
    fn trip(&self, st: &WalkState, shift_of: impl Fn(Form) -> Option<u32>) -> Option<u64> {
        let (op, r1, r2, f1, f2) = self.closing?;
        let (a, b) = match (av(&st.regs, r1), av(&st.regs, r2)) {
            (Av::Const(a), Av::Const(b)) => (a, b),
            (Av::CellVal { cell: c, off: a }, Av::CellVal { cell: e, off: b }) if c == e => (a, b),
            _ => return None,
        };
        let step = u64::from(shift_of(f1)?);
        if op != BranchOp::Bltu || shift_of(f2)? != 0 || step == 0 || step >= 1 << 31 || a >= b {
            return None;
        }
        let left = (u64::from(b - a)).div_ceil(step);
        (u64::from(a) + left * step <= u64::from(u32::MAX)).then_some(left)
    }
}

/// How many of `m` further iterations the range set can take in closed
/// form, and each range's growth per iteration. `before` and `after`
/// bracket the watched iteration; `shifts` are its loads as
/// `(address, size, advance per iteration)`.
///
/// Exact while every range grows at its top by a constant, every load
/// into a growing range advances by exactly that growth, every load into
/// a still range stays inside it, every load keeps its alignment residue,
/// and no two ranges meet. `None` when the watched iteration created or
/// merged a range, or a load breaks the pattern.
fn closed_form(
    before: &RangeSet,
    after: &RangeSet,
    shifts: &[(AAddr, u32, u32)],
    m: u64,
) -> Option<(u64, Vec<u32>)> {
    if before.events != after.events {
        return None;
    }
    let ranges = &after.ranges;
    let mut grow = Vec::with_capacity(ranges.len());
    for (r0, r1) in before.ranges.iter().zip(ranges) {
        if r0.cell != r1.cell || r0.lo != r1.lo || r1.hi < r0.hi {
            return None;
        }
        grow.push(r1.hi - r0.hi);
    }
    let mut safe = m;
    for &(addr, size, shift) in shifts {
        let end = u64::from(addr.off) + u64::from(size);
        let k = ranges
            .iter()
            .position(|r| r.cell == addr.cell && r.lo <= addr.off && end <= u64::from(r.hi))?;
        if shift % size != 0 || (grow[k] > 0 && shift != grow[k]) {
            return None;
        }
        if grow[k] == 0 && shift > 0 {
            safe = safe.min((u64::from(ranges[k].hi) - end) / u64::from(shift));
        }
    }
    for (a, &g) in ranges.iter().zip(&grow).filter(|(_, &g)| g > 0) {
        // Ranges of one cell never touch, so `b` above `a` means
        // `a.hi < b.lo`; `a` may grow until one byte short of `b` (or of
        // the address space).
        let room = ranges
            .iter()
            .filter(|b| b.cell == a.cell && b.lo > a.hi)
            .map(|b| b.lo - a.hi - 1)
            .fold(u32::MAX - a.hi, u32::min);
        safe = safe.min(u64::from(room / g));
    }
    Some((safe, grow))
}

/// At a jump-back of loop `lp` (`st` is the state at the start of its
/// next iteration): if `cand` watched the iteration just closed, tries
/// its summary and counts the iterations it applied into `ops`. Any
/// watch of another loop ends. `None` rejects the region.
fn jump_back_summary(
    cand: &mut Option<Candidate>,
    lp: Loop,
    st: &mut WalkState,
    plan: &Outputs,
    ops: &mut u64,
    stats: &mut WalkStats,
) -> Option<Summary> {
    let Some(c) = cand.take().filter(|c| c.lp == lp) else {
        return Some(Summary::Skip);
    };
    let summary = c.summarize(st, plan);
    match summary {
        Summary::Reject => return None,
        Summary::Applied { ops: n, .. } => {
            *ops += n;
            stats.summarized = true;
        }
        Summary::Skip => {}
    }
    (*ops <= WALK_OP_CAP).then_some(summary)
}

/// The walk proper. With `summarize`, loop iterations whose effect is a
/// constant shift of the abstract state are applied in closed form (see
/// [`Candidate`]); the result is identical either way.
fn walk(
    uops: &[Uop],
    program: &Program,
    desc: &KernelRegion,
    summarize: bool,
    stats: &mut WalkStats,
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
        pend: Vec::new(),
        loads: RangeSet::default(),
        profile: Profile::default(),
        prev_load: None,
        instret: 0,
        next_out: 0,
        spill: None,
        nowrap: Vec::new(),
    };
    let mut out_map: HashMap<u32, u32> = HashMap::new();
    let mut vals = Values {
        count: 0,
        nodes: plan.cell.map(|_| Vec::new()),
    };
    let mut cand: Option<Candidate> = None;

    let mut i = start_idx;
    let mut ops = 0u64;
    while i != end_idx {
        let u = &uops[i];
        ops += 1;
        stats.walked += 1;
        if ops > WALK_OP_CAP {
            return None;
        }
        // SPR writes issued two or more retirements ago land now — the
        // same drain point as the per-op path.
        while let Some(&(iss, slot, addr)) = st.pend.first() {
            if iss + 2 <= st.instret {
                st.spr[slot] = Some(addr);
                st.pend.remove(0);
                if let Some(c) = &mut cand {
                    c.spr[slot] = c.pend.remove(0);
                }
            } else {
                break;
            }
        }
        // Load-use stall, charged to the producing load.
        if let Some((r, id)) = st.prev_load.take() {
            if u.uses_mask & (1u32 << r) != 0 {
                st.profile.stall(id);
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
                if cand
                    .as_mut()
                    .is_some_and(|c| !c.branch(u.addr, op, rs1, rs2))
                {
                    cand = None;
                }
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
                            BranchOp::Bltu | BranchOp::Bgeu => {
                                note_nowrap(&mut st.nowrap, c, a.max(b))
                            }
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
                if let Some(c) = &mut cand {
                    let f = c.base(rs1, post);
                    c.load(op, rd, addr, f, &plan);
                }
                let v = plan.load(&mut st, op, addr)?;
                if post {
                    set(&mut st.regs, rs1, bump(base, offset)?);
                }
                set(&mut st.regs, rd, v);
            }
            UopKind::LoadReg { op, rd, rs1, rs2 } => {
                let addr = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (base, Av::Const(c)) | (Av::Const(c), base) => aaddr(base, c)?,
                    _ => return None,
                };
                if let Some(c) = &mut cand {
                    let f = c.add(c.form(rs1), c.form(rs2));
                    c.load(op, rd, addr, f, &plan);
                }
                let v = plan.load(&mut st, op, addr)?;
                set(&mut st.regs, rd, v);
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
                if cand
                    .as_mut()
                    .is_some_and(|c| !c.store(addr, rs1, post, rs2, &plan))
                {
                    cand = None;
                }
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
                if let Some(c) = &mut cand {
                    c.sdot(rd, rs1, addr);
                }
                plan.load(&mut st, LoadOp::Lw, addr)?;
                st.pend.push((st.instret, sl, addr));
                if st.pend.len() > 2 {
                    return None;
                }
                if rd != Reg::ZERO {
                    let v = vals.fresh(false, None);
                    set(&mut st.regs, rd, v);
                }
                set(&mut st.regs, rs1, bump(base, 4)?);
            }
            // Loop setup ends a watch.
            UopKind::LpSetup { l, rs1, start, end } => {
                cand = None;
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
                cand = None;
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
                if let Some(c) = &mut cand {
                    c.pure(u, rd, v, &st.regs);
                }
                set(&mut st.regs, rd, v);
            }
        }

        st.profile
            .record(u.id, u64::from(u.base_cycles) + extra, u64::from(u.mac_ops));
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
                    let summary =
                        jump_back_summary(&mut cand, lp, &mut st, &plan, &mut ops, stats)?;
                    if !matches!(summary, Summary::Applied { .. }) {
                        cand = Some(Candidate::new(lp, &st, &plan));
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
                    // the rest of the loop and take its exit instead.
                    let lp = Loop::Hw(level);
                    if let Summary::Applied {
                        walk_last: false, ..
                    } = jump_back_summary(&mut cand, lp, &mut st, &plan, &mut ops, stats)?
                    {
                        let Some(next) = jump_back(&mut st.hwl) else {
                            i += 1;
                            continue;
                        };
                        (level, na) = next;
                    }
                    // Watch the next iteration if enough remain to pay off.
                    if st.hwl[level].is_some_and(|h| h.2 >= 3) {
                        cand = Some(Candidate::new(Loop::Hw(level), &st, &plan));
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

    if st.next_out != plan.count {
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
        exit_pending: st.pend,
        exit_hwloop,
        exit_pending_load: st.prev_load,
        exit_nodes,
        loads: st.loads.ranges,
        stores,
        nowrap: st.nowrap,
    })
}

/// The walk's initial registers: every register a pointer of `math`
/// names holds that pointer cell's entry value; reading any other
/// rejects the region.
fn entry_regs(math: &RegionMath) -> Option<[Av; 32]> {
    let mut regs = [Av::Entry; 32];
    let ptrs = match *math {
        RegionMath::Matvec(m) => vec![m.x, m.out],
        RegionMath::Cell(u) => vec![u.gates[0], u.gates[1], u.gates[2], u.gates[3], u.c, u.h],
        RegionMath::Dot(d) => vec![d.w, d.x, d.bias32, d.spill],
    };
    for p in ptrs {
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

/// Raises the recorded no-wrap offset of `cell` to at least `off`.
fn note_nowrap(nowrap: &mut Vec<(Cell, u32)>, cell: Cell, off: u32) {
    match nowrap.iter_mut().find(|(c, _)| *c == cell) {
        Some((_, o)) => *o = (*o).max(off),
        None => nowrap.push((cell, off)),
    }
}

/// How an exit-live abstract value is rebuilt at commit: a stored value
/// by its store index, computed data through its dataflow tree (only a
/// cell update's walk records one), a dot product's complete sum (`dot`)
/// as its one store, anything else directly.
fn exit_val(
    v: Av,
    dot: Option<DotVal>,
    out_map: &HashMap<u32, u32>,
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
            dot.filter(|f| d.sums(f))?;
            ExitVal::Out(0)
        }
        Av::Data { id, .. } => match out_map.get(&id) {
            Some(&k) => ExitVal::Out(k),
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

/// The symbolic data values of one walk. A cell update's walk records the
/// micro-op behind each value, so its stores' dataflow can be proven and
/// its exit intermediates rebuilt; a matvec walk keeps every value opaque.
struct Values {
    count: u32,
    /// Per value id, the producing op (`None` = not modelled); `None`
    /// altogether when not recording.
    nodes: Option<Vec<Option<Node<Av>>>>,
}

impl Values {
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

/// The stores a region must make, in order: store `k` goes to stream
/// `k % n` at element `k / n` of `n` streams. A matvec has one output
/// stream; a cell update alternates its `c` and `h` rows; a dot product
/// stores every partial sum to its one spill word (stride 0).
struct Outputs {
    /// `(base, stride)` per stream.
    streams: Vec<(AAddr, u32)>,
    /// Total stores.
    count: u32,
    /// A cell update's `o, f, i, g` sources.
    cell: Option<[AAddr; 4]>,
    /// A dot product's complete sum.
    dot: Option<DotVal>,
}

impl Outputs {
    fn new(desc: &KernelRegion) -> Option<Self> {
        match desc.math {
            RegionMath::Matvec(m) => {
                if m.n_in == 0
                    || !m.n_in.is_multiple_of(2)
                    || m.n_out == 0
                    || m.out_stride == 0
                    || !m.out_stride.is_multiple_of(2)
                {
                    return None;
                }
                Some(Self {
                    streams: vec![(m.out.aaddr(), m.out_stride)],
                    count: m.n_out,
                    cell: None,
                    dot: None,
                })
            }
            RegionMath::Cell(u) => {
                if u.rows == 0 {
                    return None;
                }
                Some(Self {
                    streams: vec![(u.c.aaddr(), 2), (u.h.aaddr(), 2)],
                    count: u.rows.checked_mul(2)?,
                    cell: Some(u.gates.map(ShortcutPtr::aaddr)),
                    dot: None,
                })
            }
            RegionMath::Dot(d) => {
                if d.n_in == 0 {
                    return None;
                }
                Some(Self {
                    streams: vec![(d.spill.aaddr(), 0)],
                    count: d.n_in.checked_add(1)?,
                    cell: None,
                    dot: Some(DotVal {
                        seed: d.bias32.aaddr(),
                        a: d.w.aaddr(),
                        b: d.x.aaddr(),
                        n: d.n_in,
                    }),
                })
            }
        }
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
                let span = stride.checked_mul(per - 1)?.checked_add(width)?;
                let mut res = [u32::MAX; 3];
                res[width.trailing_zeros() as usize] = base.off % width;
                Some(AccessRange {
                    cell: base.cell,
                    lo: base.off,
                    hi: base.off.checked_add(span)?,
                    res,
                })
            })
            .collect()
    }

    /// Records one load and returns the value it leaves in its
    /// destination. A cell update may read its `c` stream only in place:
    /// the current row's own `c`, once, before that row's store. Such
    /// reads stay out of the load ranges — the `c` span is the region's
    /// one allowed load/store overlap. A dot product's `lw` of its spill
    /// word reads back the region's own last store, and any other load
    /// that touches the spill word rejects the region. A word from a
    /// constant address is a cell pointer.
    fn load(&self, st: &mut WalkState, op: LoadOp, addr: AAddr) -> Option<Av> {
        let size = load_size(op);
        if let Some(spill) = self.spill() {
            if overlaps(spill, 4, addr, size) {
                return if op == LoadOp::Lw && addr == spill {
                    st.spill
                } else {
                    None
                };
            }
        }
        if self.in_place(addr, size) {
            let k = st.next_out;
            return (op == LoadOp::Lh && k.is_multiple_of(2) && addr == self.addr(k))
                .then_some(Av::Load { op, addr });
        }
        if !st.loads.add(addr.cell, addr.off, size) {
            return None;
        }
        Some(match addr.cell {
            None if op == LoadOp::Lw => Av::CellVal {
                cell: Cell::Mem(addr.off),
                off: 0,
            },
            _ => Av::Load { op, addr },
        })
    }

    /// Whether an access lies statically in a cell update's `c` span
    /// (`rows` halfwords, so `count` bytes).
    fn in_place(&self, addr: AAddr, size: u32) -> bool {
        self.cell.is_some() && overlaps(self.addr(0), self.count, addr, size)
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
        out_map: &mut HashMap<u32, u32>,
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
                    Av::Dot(d) => d.sums(&DotVal { n: k, ..fin }),
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
                            if out_map.get(&id) == Some(&(k - 1)))
                    };
                    vals.clip16(value)
                        .is_some_and(|s| vals.is_q12(s, row_load(o, row), tanh_c))
                }
            }
        };
        if !ok || out_map.insert(id, k).is_some() {
            return None;
        }
        st.next_out += 1;
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
        if self.lo > self.hi {
            return None;
        }
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
    /// verifies that all load ranges and store spans are in bounds and
    /// aligned, that no store span overlaps a load range or another
    /// store span (the handler batches its writes after its reads; a cell
    /// update's in-place reads of `c` and a dot product's spill reads are
    /// not load ranges), and that no offset a branch compared wraps its
    /// cell. `None` declines; otherwise the highest end of any load range
    /// or store span, which the caller backs before
    /// [`compute`](Self::compute) borrows the operands (every region
    /// stores, so every load range is resolved here).
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
