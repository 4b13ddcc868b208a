//! Kernel-shortcut execution tier: native fast paths for compiled
//! kernel regions.
//!
//! The code generator in `rnnasip-core` knows exactly which pc ranges it
//! emitted as kernels, and publishes them as [`KernelRegion`] descriptors
//! (pc range plus the region's math and address layout). There are two
//! kinds of math ([`RegionMath`]): the requantized matrix-vector product
//! of FC stages, LSTM gates and CNN pixels, and, from level c on, the
//! LSTM cell update. At translation time
//! ([`UopProgram::translate_with_shortcuts`](crate::UopProgram::translate_with_shortcuts))
//! each descriptor is *verified* against the micro-op stream by an
//! abstract interpretation ([`install`]): the region is walked with
//! constant-folded control flow and symbolic data, proving that
//!
//! * every branch, hardware-loop count and memory address inside the
//!   region is a compile-time constant (given the values of the region's
//!   pointer cells),
//! * the region makes exactly the descriptor's stores, in order, and
//!   nothing else: `n_out` requantized halfwords for a matvec; for a cell
//!   update, each row's `c` then `h`, whose dataflow trees of loads,
//!   `mul`, `srai`, `add`, `clip` and `pl.tanh` must be the row's formula
//!   (see [`CellUpdate`]),
//! * the complete timing profile — base cycles, taken branches,
//!   load-use stalls, per-mnemonic retire rows — is static.
//!
//! Hardware loops whose iterations only shift the walk's state by
//! constants are walked for two iterations and then applied in closed
//! form (see `Candidate`), so verification costs what the region's
//! static code costs, not what it executes.
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

use crate::mem::Memory;
use crate::program::Program;
use crate::uop::{UnaryOp, Uop, UopKind, NO_IDX};
use rnnasip_isa::{
    AluImmOp, AluOp, BranchOp, LoadOp, MnemonicId, MulDivOp, Reg, SimdSize, StoreOp,
};
use std::collections::HashMap;

/// Upper bound on the dynamic micro-ops verifying one region accounts
/// for — a guard against pathological descriptors, far above any real
/// kernel (the largest suite kernel executes ~200k micro-ops per entry).
/// Hardware-loop iterations the walk applies in closed form count as if
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
    /// The pointer's value in `mem` (`None` if its cell is unreadable).
    pub(crate) fn resolve(self, mem: &Memory) -> Option<u32> {
        match self {
            ShortcutPtr::Const(a) => Some(a),
            ShortcutPtr::Cell(c) => mem.read_u32(c).ok(),
        }
    }

    /// The pointer as an abstract address.
    fn aaddr(self) -> AAddr {
        match self {
            ShortcutPtr::Const(a) => AAddr { cell: None, off: a },
            ShortcutPtr::Cell(c) => AAddr {
                cell: Some(c),
                off: 0,
            },
        }
    }
}

/// An abstract address: `cell` is `None` for a constant byte address
/// `off`, or `Some(c)` for `mem_u32[c] + off` with the cell read at
/// region entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AAddr {
    pub cell: Option<u32>,
    pub off: u32,
}

/// How one exit-live register's final value is reconstructed at commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExitVal {
    /// A constant.
    Const(u32),
    /// `mem_u32[cell] + off` (a pointer loaded from a global cell and
    /// advanced by a constant amount).
    CellAdd { cell: u32, off: u32 },
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
            Node::Imm(op, a, imm) => exec_opimm(op, a, imm),
            Node::Alu(op, a, b) => exec_op(op, a, b),
            Node::MulDiv(op, a, b) => exec_muldiv(op, a, b),
            Node::Clip(a, lo, hi) => (a as i32).clamp(lo, hi) as u32,
            Node::Unary(op, a) => exec_unary(op, a),
        }
    }
}

/// One contiguous abstract byte range accessed by the region, with the
/// per-size alignment residues needed to prove every access in it is
/// aligned once the cell base is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccessRange {
    pub cell: Option<u32>,
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
    /// Cycles consumed by one entry (base + taken branches + stalls).
    pub total_cycles: u64,
    /// Per-mnemonic retire totals `(id, instrs, cycles, macs)`.
    pub retire_rows: Vec<(MnemonicId, u64, u64, u64)>,
    /// Per-mnemonic load-use stall totals.
    pub stall_rows: Vec<(MnemonicId, u64)>,
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
}

/// Abstract value of a register during the verification walk.
#[derive(Clone, Copy, Debug)]
enum Av {
    /// Unmodified region-entry value (reading one rejects the region —
    /// generated kernels initialize everything they read).
    Entry,
    /// A known constant.
    Const(u32),
    /// `mem_u32[cell] + off` — a pointer loaded from a constant cell
    /// address, plus a constant displacement.
    CellVal { cell: u32, off: u32 },
    /// A value loaded from a resolvable address during the walk.
    Load { op: LoadOp, addr: AAddr },
    /// Unknown data. `hw` marks a value proven to be a sign-extended
    /// 16-bit quantity (requantized/activated), eligible for output
    /// mapping.
    Data { id: u32, hw: bool },
}

/// Abstract value of one SPR slot.
#[derive(Clone, Copy, Debug)]
enum SprAv {
    /// Region-entry contents (unknown; only discarding reads allowed).
    Entry,
    /// The weight word at this address.
    Known(AAddr),
}

/// Load semantics against a memory snapshot (the commit-time image of
/// `Machine::load_value`); `None` on an out-of-bounds or misaligned
/// address.
pub(crate) fn read_load(mem: &Memory, op: LoadOp, addr: u32) -> Option<u32> {
    Some(match op {
        LoadOp::Lb => mem.read_u8(addr).ok()? as i8 as i32 as u32,
        LoadOp::Lbu => u32::from(mem.read_u8(addr).ok()?),
        LoadOp::Lh => mem.read_u16(addr).ok()? as i16 as i32 as u32,
        LoadOp::Lhu => u32::from(mem.read_u16(addr).ok()?),
        LoadOp::Lw => mem.read_u32(addr).ok()?,
    })
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
    fn add(&mut self, cell: Option<u32>, off: u32, size: u32) -> bool {
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

fn get(regs: &[Av; 32], r: Reg) -> Option<Av> {
    let n = r.num() as usize;
    if n == 0 {
        return Some(Av::Const(0));
    }
    match regs[n] {
        Av::Entry => None,
        v => Some(v),
    }
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

/// Exact constant image of [`UopKind::OpImm`] data semantics.
fn exec_opimm(op: AluImmOp, a: u32, imm: i32) -> u32 {
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

/// Exact constant image of [`UopKind::Op`] data semantics.
fn exec_op(op: AluOp, a: u32, b: u32) -> u32 {
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

/// Exact constant image of [`UopKind::MulDiv`] data semantics.
fn exec_muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
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

/// Exact constant image of [`UopKind::Unary`] data semantics.
fn exec_unary(op: UnaryOp, a: u32) -> u32 {
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

/// Whether a unary op's result is always a sign-extended 16-bit value.
fn unary_hw(op: UnaryOp) -> bool {
    matches!(
        op,
        UnaryOp::Tanh | UnaryOp::Sig | UnaryOp::ExtHs | UnaryOp::ExtBs | UnaryOp::ExtBz
    )
}

fn bump_row(rows: &mut Vec<(MnemonicId, u64, u64, u64)>, id: MnemonicId, cycles: u64, macs: u64) {
    match rows.iter_mut().find(|r| r.0 == id) {
        Some(r) => {
            r.1 += 1;
            r.2 += cycles;
            r.3 += macs;
        }
        None => rows.push((id, 1, cycles, macs)),
    }
}

fn bump_stall(rows: &mut Vec<(MnemonicId, u64)>, id: MnemonicId) {
    match rows.iter_mut().find(|r| r.0 == id) {
        Some(r) => r.1 += 1,
        None => rows.push((id, 1)),
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
    spr: [SprAv; 2],
    /// In-flight SPR writes: `(issue instret, slot, weight address)`.
    pend: Vec<(u64, usize, AAddr)>,
    loads: RangeSet,
    retire_rows: Vec<(MnemonicId, u64, u64, u64)>,
    stall_rows: Vec<(MnemonicId, u64)>,
    prev_load: Option<(u8, MnemonicId)>,
    cycles: u64,
    instret: u64,
    next_out: u32,
}

/// How a value moves between two loop iterations, in terms of the
/// iteration-start state (see [`Candidate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Form {
    /// Moves exactly as iteration-start source `s` moves: register `s`
    /// for `s < 32`, pending SPR write `s - 32` ([`SRC_PEND`]) or SPR
    /// slot `s - 34` ([`SRC_SPR`]).
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

/// Outcome of [`Candidate::summarize`].
enum Summary {
    /// Not a constant shift: keep walking.
    Skip,
    /// Applied; `ops` micro-ops were accounted for. With `walk_last`,
    /// the loop's last iteration is still to be walked.
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
        (Av::CellVal { cell: c, off: x }, Av::CellVal { cell: d, off: y }) if x == y => {
            Delta::Cell(d.wrapping_sub(c))
        }
        (Av::Load { op: o, addr: x }, Av::Load { op: p, addr: y })
            if o == p && x.cell == y.cell =>
        {
            Delta::Num(y.off.wrapping_sub(x.off))
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
                Av::CellVal { cell, off } => Av::CellVal {
                    cell: cell.wrapping_add(m.wrapping_mul(x)),
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
            addr: AAddr {
                cell: addr.cell,
                off: addr.off.wrapping_add(by),
            },
        },
        v => v,
    }
}

/// One hardware-loop iteration watched for a closed-form summary.
///
/// Alongside the ordinary walk, every value written in the iteration
/// gets a [`Form`] saying how it would move if the iteration-start state
/// moved. At the next jump-back of the same loop, [`summarize`] compares
/// the two iteration-start states. All remaining iterations can be
/// applied at once when
///
/// * each source changed by a constant [`Delta`], or is opaque data of
///   the same kind;
/// * the forms confirm that one more iteration would shift it by the
///   same constants — a source moves only into copies of itself
///   advanced by constants, and every value inspected beyond that
///   (constant folds, loads from a constant address) did not move;
/// * every load address moves by a constant;
/// * nothing else happened: no store, branch or loop setup.
///
/// Then iteration `k + 1` is iteration `k` shifted, by induction: rows,
/// counters, pointers and SPR state advance linearly and the loads of
/// every later iteration are known. The range set takes them in closed
/// form while that is exact, and replays the rest.
///
/// [`summarize`]: Candidate::summarize
struct Candidate {
    level: usize,
    /// The state at the watched iteration's first op.
    start: WalkState,
    regs: [Form; 32],
    spr: [Form; 2],
    /// Forms of `WalkState::pend`, in step with it.
    pend: Vec<Form>,
    /// Sources whose values were inspected and so must not move.
    fixed: u64,
    /// Every load of the iteration: `(address, size, form of address)`.
    accesses: Vec<(AAddr, u32, Form)>,
    /// Every store of the iteration: `(address, form of address)`;
    /// `None` when a store ends the watch.
    stores: Option<Vec<(AAddr, Form)>>,
}

impl Candidate {
    /// Watches one iteration of loop `level`. Only a cell update's walk
    /// (`stores`) may summarize iterations that store.
    fn new(level: usize, st: &WalkState, stores: bool) -> Self {
        let mut regs: [Form; 32] = std::array::from_fn(|r| Form::Lin(r as u8));
        regs[0] = Form::Zero;
        Self {
            level,
            start: st.clone(),
            regs,
            spr: [Form::Lin(SRC_SPR as u8), Form::Lin(SRC_SPR as u8 + 1)],
            pend: (0..st.pend.len())
                .map(|j| Form::Lin((SRC_PEND + j) as u8))
                .collect(),
            fixed: 0,
            accesses: Vec::new(),
            stores: stores.then(Vec::new),
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

    /// Form of a result the walk folds from `inputs`: a constant fold
    /// inspects every input, anything else is fresh data.
    fn fold(&mut self, inputs: &[(Av, Form)]) -> Form {
        if inputs.iter().all(|(v, _)| matches!(v, Av::Const(_))) {
            for &(_, f) in inputs {
                self.fix(f);
            }
            Form::Zero
        } else {
            Form::Fresh
        }
    }

    fn load(&mut self, op: LoadOp, rd: Reg, addr: AAddr, f: Form) {
        let f = self.ptr(f);
        self.accesses.push((addr, load_size(op), f));
        // A word from a constant address becomes a cell pointer named
        // by that address.
        let v = match f {
            Form::Lin(s) if op == LoadOp::Lw && addr.cell.is_none() => Form::Cell(s),
            f => f,
        };
        self.set(rd, v);
    }

    /// Mirrors one op of the walk (called before the op executes, on the
    /// pre-op registers). `false` ends the watch.
    fn track(&mut self, u: &Uop, regs: &[Av; 32]) -> bool {
        let val = |r: Reg| match r.num() {
            0 => Av::Const(0),
            n => regs[n as usize],
        };
        let inp = |c: &Self, r: Reg| (val(r), c.form(r));
        match u.kind {
            UopKind::SetReg { rd, .. } => self.set(rd, Form::Zero),
            UopKind::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let Some(addr) = aaddr(val(rs1), offset) else {
                    return false;
                };
                self.load(op, rd, addr, self.form(rs1));
            }
            UopKind::LoadPostInc { op, rd, rs1, .. } => {
                let Some(addr) = aaddr(val(rs1), 0) else {
                    return false;
                };
                let f = self.ptr(self.form(rs1));
                self.set(rs1, f);
                self.load(op, rd, addr, f);
            }
            UopKind::LoadReg { op, rd, rs1, rs2 } => {
                let addr = match (val(rs1), val(rs2)) {
                    (Av::Const(a), Av::Const(b)) => AAddr {
                        cell: None,
                        off: a.wrapping_add(b),
                    },
                    (Av::CellVal { cell, off }, Av::Const(c))
                    | (Av::Const(c), Av::CellVal { cell, off }) => AAddr {
                        cell: Some(cell),
                        off: off.wrapping_add(c),
                    },
                    _ => return false,
                };
                let f = self.add(self.form(rs1), self.form(rs2));
                self.load(op, rd, addr, f);
            }
            UopKind::OpImm { op, rd, rs1, .. } => {
                let f = match (op, val(rs1)) {
                    (AluImmOp::Addi, Av::Const(_) | Av::CellVal { .. }) => self.ptr(self.form(rs1)),
                    _ => self.fold(&[inp(self, rs1)]),
                };
                self.set(rd, f);
            }
            UopKind::Op { op, rd, rs1, rs2 } => {
                let (a, b) = (inp(self, rs1), inp(self, rs2));
                let f = match (op, a.0, b.0) {
                    (AluOp::Add, Av::Const(_), Av::Const(_))
                    | (AluOp::Add, Av::CellVal { .. }, Av::Const(_))
                    | (AluOp::Add, Av::Const(_), Av::CellVal { .. }) => self.add(a.1, b.1),
                    (AluOp::Sub, Av::Const(_), Av::Const(_))
                    | (AluOp::Sub, Av::CellVal { .. }, Av::Const(_)) => {
                        self.fix(b.1);
                        self.ptr(a.1)
                    }
                    _ => self.fold(&[a, b]),
                };
                self.set(rd, f);
            }
            UopKind::MulDiv { rd, rs1, rs2, .. }
            | UopKind::Ror { rd, rs1, rs2 }
            | UopKind::PvAluVv { rd, rs1, rs2, .. }
            | UopKind::PvAluSc { rd, rs1, rs2, .. } => {
                let f = self.fold(&[inp(self, rs1), inp(self, rs2)]);
                self.set(rd, f);
            }
            UopKind::PMin { rd, rs1, rs2 } | UopKind::PMax { rd, rs1, rs2 } => {
                // The 16-bit range test reads constant operands too.
                for (v, f) in [inp(self, rs1), inp(self, rs2)] {
                    if matches!(v, Av::Const(_)) {
                        self.fix(f);
                    }
                }
                let f = self.fold(&[inp(self, rs1), inp(self, rs2)]);
                self.set(rd, f);
            }
            UopKind::Mac { rd, rs1, rs2 } | UopKind::Msu { rd, rs1, rs2 } => {
                let f = self.fold(&[inp(self, rd), inp(self, rs1), inp(self, rs2)]);
                self.set(rd, f);
            }
            UopKind::Clip { rd, rs1, .. }
            | UopKind::ClipU { rd, rs1, .. }
            | UopKind::Unary { rd, rs1, .. }
            | UopKind::PvAluImm { rd, rs1, .. } => {
                let f = self.fold(&[inp(self, rs1)]);
                self.set(rd, f);
            }
            UopKind::PvDot {
                op, rd, rs1, rs2, ..
            } => {
                let f = if op.accumulates() {
                    self.fold(&[inp(self, rs1), inp(self, rs2), inp(self, rd)])
                } else {
                    self.fold(&[inp(self, rs1), inp(self, rs2)])
                };
                self.set(rd, f);
            }
            UopKind::PlSdotsp { rd, rs1, .. } => {
                let Some(addr) = aaddr(val(rs1), 0) else {
                    return false;
                };
                let f = self.ptr(self.form(rs1));
                self.accesses.push((addr, 4, f));
                self.pend.push(f);
                if rd != Reg::ZERO {
                    self.set(rd, Form::Fresh);
                }
                self.set(rs1, f);
            }
            UopKind::Nop => {}
            UopKind::Store { rs1, offset, .. } if self.stores.is_some() => {
                let Some(addr) = aaddr(val(rs1), offset) else {
                    return false;
                };
                let f = self.ptr(self.form(rs1));
                self.stores.as_mut().unwrap().push((addr, f));
            }
            UopKind::StorePostInc { rs1, .. } if self.stores.is_some() => {
                let Some(addr) = aaddr(val(rs1), 0) else {
                    return false;
                };
                let f = self.ptr(self.form(rs1));
                self.set(rs1, f);
                self.stores.as_mut().unwrap().push((addr, f));
            }
            // Other stores, control flow and loop setup end the watch.
            UopKind::Store { .. }
            | UopKind::StorePostInc { .. }
            | UopKind::Branch { .. }
            | UopKind::Jal { .. }
            | UopKind::Jalr { .. }
            | UopKind::Halt(_)
            | UopKind::CsrRead { .. }
            | UopKind::LpSetup { .. }
            | UopKind::LpSetupi { .. }
            | UopKind::LpSetAddr { .. }
            | UopKind::LpCount { .. }
            | UopKind::LpCounti { .. } => return false,
        }
        true
    }

    /// At the loop's next jump-back (`st` is the state at the start of
    /// the following iteration, `n1` of them left): if the watched
    /// iteration proves to be a constant shift, advances `st` to the end
    /// of the loop's last iteration, with the loop's count back at 1 so
    /// the walk can take its exit. [`Summary::Skip`] leaves `st`
    /// untouched.
    ///
    /// A cell update's iteration may store: it then writes whole rows,
    /// and every store and load must advance by exactly those rows, so
    /// iteration `k + 1` checks the row formulas one row further on. The
    /// stored values of applied iterations are never exit-live, so the
    /// loop's last iteration is left to the walk (`walk_last`), which
    /// records its stores and dataflow as usual.
    fn summarize(&self, st: &mut WalkState, plan: &Outputs) -> Summary {
        let s0 = &self.start;
        let lv = self.level;
        let (Some((a0, e0, n0)), Some((a1, e1, n1))) = (s0.hwl[lv], st.hwl[lv]) else {
            return Summary::Skip;
        };
        // Two halfword stores per row: `stored` bytes of advance per
        // iteration for every stream and operand.
        let stored = st.next_out - s0.next_out;
        if (stored > 0 && (self.stores.is_none() || !stored.is_multiple_of(2)))
            || (a0, e0) != (a1, e1)
            || n1 + 1 != n0
            || s0.hwl[1 - lv] != st.hwl[1 - lv]
            || s0.prev_load != st.prev_load
            || s0.retire_rows.len() != st.retire_rows.len()
            || s0.stall_rows.len() != st.stall_rows.len()
            || s0.pend.len() != st.pend.len()
        {
            return Summary::Skip;
        }
        let iter = st.instret - s0.instret;

        // Per-source deltas over the watched iteration.
        let mut d = [Delta::Same; SRC_SPR + 2];
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
                (SprAv::Entry, SprAv::Entry) => Delta::Same,
                (SprAv::Known(a), SprAv::Known(b)) if a.cell == b.cell => {
                    Delta::Num(b.off.wrapping_sub(a.off))
                }
                _ => return Summary::Skip,
            };
        }

        // The forms must predict the same deltas for the next iteration.
        let ends = (1..32)
            .map(|r| (r, self.regs[r]))
            .chain(
                self.pend
                    .iter()
                    .enumerate()
                    .map(|(j, &f)| (SRC_PEND + j, f)),
            )
            .chain(self.spr.iter().enumerate().map(|(k, &f)| (SRC_SPR + k, f)));
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

        // Where each access of the watched iteration moves per iteration.
        let shift_of = |f: Form| match f {
            Form::Lin(s) => match d[usize::from(s)] {
                Delta::Num(v) => Some(v),
                _ => None,
            },
            Form::Zero => Some(0),
            Form::Cell(_) | Form::Fresh => None,
        };
        let mut shifts = Vec::with_capacity(self.accesses.len());
        for &(addr, size, f) in &self.accesses {
            let Some(shift) = shift_of(f) else {
                return Summary::Skip;
            };
            if stored > 0 && shift != stored {
                return Summary::Skip;
            }
            // In-place reads of `c` are covered by its store span.
            if !plan.in_place(addr, size) {
                shifts.push((addr, size, shift));
            }
        }
        for &(_, f) in self.stores.iter().flatten() {
            if shift_of(f) != Some(stored) {
                return Summary::Skip;
            }
        }
        let walk_last = stored > 0;

        // All remaining iterations are applied: load ranges in closed
        // form for the first `safe` of them (see [`closed_form`]), the
        // loads of the rest replayed into the range set one by one, which
        // reproduces its merges exactly.
        let m = u64::from(n1) - u64::from(walk_last);
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
            if let SprAv::Known(a) = &mut st.spr[k] {
                a.off = a.off.wrapping_add(by(SRC_SPR + k));
            }
        }
        for (r, r0) in st.retire_rows.iter_mut().zip(&s0.retire_rows) {
            r.1 += m * (r.1 - r0.1);
            r.2 += m * (r.2 - r0.2);
            r.3 += m * (r.3 - r0.3);
        }
        for (r, r0) in st.stall_rows.iter_mut().zip(&s0.stall_rows) {
            r.1 += m * (r.1 - r0.1);
        }
        st.cycles += m * (st.cycles - s0.cycles);
        st.instret += m * iter;
        st.next_out = next_out;
        if let Some(h) = &mut st.hwl[lv] {
            h.2 = 1;
        }
        Summary::Applied {
            ops: m * iter,
            walk_last,
        }
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

/// The walk proper. With `summarize`, hardware-loop iterations whose
/// effect is a constant shift of the abstract state are applied in
/// closed form (see [`Candidate`]); the result is identical either way.
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
        regs: [Av::Entry; 32],
        hwl: [None, None],
        spr: [SprAv::Entry, SprAv::Entry],
        pend: Vec::new(),
        loads: RangeSet::default(),
        retire_rows: Vec::new(),
        stall_rows: Vec::new(),
        prev_load: None,
        cycles: 0,
        instret: 0,
        next_out: 0,
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
                st.spr[slot] = SprAv::Known(addr);
                st.pend.remove(0);
                if let Some(c) = &mut cand {
                    c.spr[slot] = c.pend.remove(0);
                }
            } else {
                break;
            }
        }
        if cand.as_mut().is_some_and(|c| !c.track(u, &st.regs)) {
            cand = None;
        }
        // Load-use stall, charged to the producing load.
        if let Some((r, id)) = st.prev_load.take() {
            if u.uses_mask & (1u32 << r) != 0 {
                st.cycles += 1;
                bump_stall(&mut st.stall_rows, id);
            }
        }

        let mut extra = 0u64;
        let mut jump: Option<(u32, usize)> = None;
        match u.kind {
            UopKind::SetReg { rd, val } => set(&mut st.regs, rd, Av::Const(val)),
            UopKind::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                let (Av::Const(a), Av::Const(b)) = (get(&st.regs, rs1)?, get(&st.regs, rs2)?)
                else {
                    return None;
                };
                let taken = match op {
                    BranchOp::Beq => a == b,
                    BranchOp::Bne => a != b,
                    BranchOp::Blt => (a as i32) < (b as i32),
                    BranchOp::Bge => (a as i32) >= (b as i32),
                    BranchOp::Bltu => a < b,
                    BranchOp::Bgeu => a >= b,
                };
                if taken {
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
            } => {
                let addr = aaddr(get(&st.regs, rs1)?, offset)?;
                plan.load(&mut st, op, addr)?;
                let v = if op == LoadOp::Lw && addr.cell.is_none() {
                    Av::CellVal {
                        cell: addr.off,
                        off: 0,
                    }
                } else {
                    Av::Load { op, addr }
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::LoadPostInc {
                op,
                rd,
                rs1,
                offset,
            } => {
                let base = get(&st.regs, rs1)?;
                let addr = aaddr(base, 0)?;
                plan.load(&mut st, op, addr)?;
                let v = if op == LoadOp::Lw && addr.cell.is_none() {
                    Av::CellVal {
                        cell: addr.off,
                        off: 0,
                    }
                } else {
                    Av::Load { op, addr }
                };
                set(&mut st.regs, rs1, bump(base, offset)?);
                set(&mut st.regs, rd, v);
            }
            UopKind::LoadReg { op, rd, rs1, rs2 } => {
                let addr = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(a), Av::Const(b)) => AAddr {
                        cell: None,
                        off: a.wrapping_add(b),
                    },
                    (Av::CellVal { cell, off }, Av::Const(c))
                    | (Av::Const(c), Av::CellVal { cell, off }) => AAddr {
                        cell: Some(cell),
                        off: off.wrapping_add(c),
                    },
                    _ => return None,
                };
                plan.load(&mut st, op, addr)?;
                let v = if op == LoadOp::Lw && addr.cell.is_none() {
                    Av::CellVal {
                        cell: addr.off,
                        off: 0,
                    }
                } else {
                    Av::Load { op, addr }
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = aaddr(get(&st.regs, rs1)?, offset)?;
                plan.store(op, addr, get(&st.regs, rs2)?, &vals, &mut st, &mut out_map)?;
            }
            UopKind::StorePostInc {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let base = get(&st.regs, rs1)?;
                let addr = aaddr(base, 0)?;
                plan.store(op, addr, get(&st.regs, rs2)?, &vals, &mut st, &mut out_map)?;
                set(&mut st.regs, rs1, bump(base, offset)?);
            }
            UopKind::OpImm { op, rd, rs1, imm } => {
                let a = get(&st.regs, rs1)?;
                let v = match (op, a) {
                    (AluImmOp::Addi, Av::CellVal { cell, off }) => Av::CellVal {
                        cell,
                        off: off.wrapping_add(imm as u32),
                    },
                    (_, Av::Const(c)) => Av::Const(exec_opimm(op, c, imm)),
                    _ => vals.fresh(false, Some(Node::Imm(op, a, imm))),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::Op { op, rd, rs1, rs2 } => {
                let a = get(&st.regs, rs1)?;
                let b = get(&st.regs, rs2)?;
                let v = match (op, a, b) {
                    (_, Av::Const(x), Av::Const(y)) => Av::Const(exec_op(op, x, y)),
                    (AluOp::Add, Av::CellVal { cell, off }, Av::Const(c))
                    | (AluOp::Add, Av::Const(c), Av::CellVal { cell, off }) => Av::CellVal {
                        cell,
                        off: off.wrapping_add(c),
                    },
                    (AluOp::Sub, Av::CellVal { cell, off }, Av::Const(c)) => Av::CellVal {
                        cell,
                        off: off.wrapping_sub(c),
                    },
                    _ => vals.fresh(false, Some(Node::Alu(op, a, b))),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::MulDiv { op, rd, rs1, rs2 } => {
                let v = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(a), Av::Const(b)) => Av::Const(exec_muldiv(op, a, b)),
                    (a, b) => vals.fresh(false, Some(Node::MulDiv(op, a, b))),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::Nop => {}
            UopKind::Mac { rd, rs1, rs2 } => {
                let v = match (get(&st.regs, rd)?, get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(d), Av::Const(a), Av::Const(b)) => {
                        Av::Const(d.wrapping_add((a as i32).wrapping_mul(b as i32) as u32))
                    }
                    _ => vals.fresh(false, None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::Msu { rd, rs1, rs2 } => {
                let v = match (get(&st.regs, rd)?, get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(d), Av::Const(a), Av::Const(b)) => {
                        Av::Const(d.wrapping_sub((a as i32).wrapping_mul(b as i32) as u32))
                    }
                    _ => vals.fresh(false, None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::Clip { rd, rs1, lo, hi } => {
                let v = match get(&st.regs, rs1)? {
                    Av::Const(c) => Av::Const((c as i32).clamp(lo, hi) as u32),
                    a => vals.fresh(lo >= -32768 && hi <= 32767, Some(Node::Clip(a, lo, hi))),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::ClipU { rd, rs1, hi } => {
                let v = match get(&st.regs, rs1)? {
                    Av::Const(c) => Av::Const((c as i32).clamp(0, hi) as u32),
                    a => vals.fresh(hi <= 32767, Some(Node::Clip(a, 0, hi))),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::Unary { op, rd, rs1 } => {
                let v = match get(&st.regs, rs1)? {
                    Av::Const(c) => Av::Const(exec_unary(op, c)),
                    a => vals.fresh(unary_hw(op), Some(Node::Unary(op, a))),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::PMin { rd, rs1, rs2 } => {
                let a = get(&st.regs, rs1)?;
                let b = get(&st.regs, rs2)?;
                let v = match (a, b) {
                    (Av::Const(x), Av::Const(y)) => Av::Const((x as i32).min(y as i32) as u32),
                    _ => vals.fresh(in_i16(a) && in_i16(b), None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::PMax { rd, rs1, rs2 } => {
                let a = get(&st.regs, rs1)?;
                let b = get(&st.regs, rs2)?;
                let v = match (a, b) {
                    (Av::Const(x), Av::Const(y)) => Av::Const((x as i32).max(y as i32) as u32),
                    _ => vals.fresh(in_i16(a) && in_i16(b), None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::Ror { rd, rs1, rs2 } => {
                let v = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(a), Av::Const(b)) => Av::Const(a.rotate_right(b & 31)),
                    _ => vals.fresh(false, None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::PvAluVv {
                op,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let v = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(a), Av::Const(b)) => {
                        Av::Const(crate::machine::exec_pv_alu(op, size, a, b))
                    }
                    _ => vals.fresh(false, None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::PvAluSc {
                op,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let v = match (get(&st.regs, rs1)?, get(&st.regs, rs2)?) {
                    (Av::Const(a), Av::Const(b)) => {
                        let b = match size {
                            SimdSize::Half => {
                                let h = b & 0xFFFF;
                                h | (h << 16)
                            }
                            SimdSize::Byte => {
                                let x = b & 0xFF;
                                x | (x << 8) | (x << 16) | (x << 24)
                            }
                        };
                        Av::Const(crate::machine::exec_pv_alu(op, size, a, b))
                    }
                    _ => vals.fresh(false, None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::PvAluImm {
                op,
                size,
                rd,
                rs1,
                b,
            } => {
                let v = match get(&st.regs, rs1)? {
                    Av::Const(a) => Av::Const(crate::machine::exec_pv_alu(op, size, a, b)),
                    _ => vals.fresh(false, None),
                };
                set(&mut st.regs, rd, v);
            }
            UopKind::PvDot {
                op,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let a = get(&st.regs, rs1)?;
                let b = get(&st.regs, rs2)?;
                let d0 = if op.accumulates() {
                    Some(get(&st.regs, rd)?)
                } else {
                    None
                };
                let v = match (a, b, d0) {
                    (Av::Const(x), Av::Const(y), Some(Av::Const(d))) => {
                        Av::Const(d.wrapping_add(crate::machine::exec_dot(op, size, x, y)))
                    }
                    (Av::Const(x), Av::Const(y), None) => {
                        Av::Const(crate::machine::exec_dot(op, size, x, y))
                    }
                    _ => vals.fresh(false, None),
                };
                set(&mut st.regs, rd, v);
            }
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
                    if !matches!(st.spr[sl], SprAv::Known(_)) {
                        return None;
                    }
                    let _ = get(&st.regs, rd)?;
                }
                let base = get(&st.regs, rs1)?;
                let addr = aaddr(base, 0)?;
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
            UopKind::LpSetup { l, rs1, start, end } => {
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
        }

        let op_cycles = u64::from(u.base_cycles) + extra;
        bump_row(&mut st.retire_rows, u.id, op_cycles, u64::from(u.mac_ops));
        st.cycles += op_cycles;
        st.instret += 1;
        st.prev_load = (u.load_rd != 0).then_some((u.load_rd, u.id));

        match jump {
            Some((_, t)) => {
                if t < start_idx || t >= end_idx {
                    return None;
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
                    if let Some(c) = cand.take().filter(|c| c.level == level) {
                        match c.summarize(&mut st, &plan) {
                            Summary::Applied { ops: n, walk_last } => {
                                ops += n;
                                stats.summarized = true;
                                if ops > WALK_OP_CAP {
                                    return None;
                                }
                                if !walk_last {
                                    let Some(next) = jump_back(&mut st.hwl) else {
                                        i += 1;
                                        continue;
                                    };
                                    (level, na) = next;
                                }
                            }
                            Summary::Reject => return None,
                            Summary::Skip => {}
                        }
                    }
                    // Watch the next iteration if enough remain to pay off.
                    if st.hwl[level].is_some_and(|h| h.2 >= 3) {
                        cand = Some(Candidate::new(level, &st, plan.cell.is_some()));
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
        let ev = exit_val(av, &out_map, &vals, &mut exit_nodes)?;
        exit_regs.push((r as u8, ev));
    }
    let exit_spr = st.spr.map(|s| match s {
        SprAv::Entry => None,
        SprAv::Known(a) => Some(a),
    });
    let exit_hwloop = st
        .hwl
        .map(|h| h.map(|(start, end, count)| HwLoopExit { start, end, count }));
    Some(ShortcutRegion {
        desc: *desc,
        end_idx: end_idx as u32,
        total_instrs: st.instret,
        total_cycles: st.cycles,
        retire_rows: st.retire_rows,
        stall_rows: st.stall_rows,
        exit_regs,
        exit_spr,
        exit_pending: st.pend,
        exit_hwloop,
        exit_pending_load: st.prev_load,
        exit_nodes,
        loads: st.loads.ranges,
        stores,
    })
}

/// How an exit-live abstract value is rebuilt at commit: a stored value
/// by its store index, computed data through its dataflow tree (only a
/// cell update's walk records one), anything else directly.
fn exit_val(
    v: Av,
    out_map: &HashMap<u32, u32>,
    vals: &Values,
    exit_nodes: &mut Vec<Node<ExitVal>>,
) -> Option<ExitVal> {
    Some(match v {
        Av::Entry => return None,
        Av::Const(c) => ExitVal::Const(c),
        Av::CellVal { cell, off } => ExitVal::CellAdd { cell, off },
        Av::Load { op, addr } => ExitVal::Load { op, addr },
        Av::Data { id, .. } => match out_map.get(&id) {
            Some(&k) => ExitVal::Out(k),
            None => {
                let node = vals
                    .node(v)?
                    .try_map(|a| exit_val(a, out_map, vals, exit_nodes))?;
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
/// stream; a cell update alternates its `c` and `h` rows.
struct Outputs {
    /// `(base, stride)` per stream.
    streams: Vec<(AAddr, u32)>,
    /// Total stores.
    count: u32,
    /// A cell update's `o, f, i, g` sources.
    cell: Option<[AAddr; 4]>,
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
                })
            }
        }
    }

    /// Address of store `k`.
    fn addr(&self, k: u32) -> AAddr {
        let n = self.streams.len() as u32;
        let (base, stride) = self.streams[(k % n) as usize];
        AAddr {
            cell: base.cell,
            off: base.off.wrapping_add(k / n * stride),
        }
    }

    /// Each stream's byte span, checked for bounds and load-disjointness
    /// at every entry.
    fn spans(&self) -> Option<Vec<AccessRange>> {
        let per = self.count / self.streams.len() as u32;
        self.streams
            .iter()
            .map(|&(base, stride)| {
                let span = stride.checked_mul(per - 1)?.checked_add(2)?;
                Some(AccessRange {
                    cell: base.cell,
                    lo: base.off,
                    hi: base.off.checked_add(span)?,
                    res: [u32::MAX, base.off % 2, u32::MAX],
                })
            })
            .collect()
    }

    /// Records one load. A cell update may read its `c` stream only in
    /// place: the current row's own `c`, once, before that row's store.
    /// Such reads stay out of the load ranges — the `c` span is the
    /// region's one allowed load/store overlap.
    fn load(&self, st: &mut WalkState, op: LoadOp, addr: AAddr) -> Option<()> {
        let size = load_size(op);
        if self.in_place(addr, size) {
            let k = st.next_out;
            return (op == LoadOp::Lh && k.is_multiple_of(2) && addr == self.addr(k)).then_some(());
        }
        st.loads.add(addr.cell, addr.off, size).then_some(())
    }

    /// Whether an access lies statically in a cell update's `c` span
    /// (`rows` halfwords, so `count` bytes).
    fn in_place(&self, addr: AAddr, size: u32) -> bool {
        if self.cell.is_none() {
            return false;
        }
        let c = self.addr(0);
        let end = u64::from(c.off) + u64::from(self.count);
        addr.cell == c.cell
            && u64::from(addr.off) < end
            && u64::from(c.off) < u64::from(addr.off) + u64::from(size)
    }

    /// Verifies one store against the next expected store: an `sh` at
    /// exactly its address of a value that is a requantized halfword
    /// (matvec) or the row's `c` / `h` formula over this row's operands
    /// (cell update).
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
        if op != StoreOp::Sh || k >= self.count || addr != self.addr(k) {
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

impl AAddr {
    /// Resolves to a concrete byte address (`None` if the cell read
    /// faults — the caller then declines the shortcut).
    pub(crate) fn resolve(&self, mem: &Memory) -> Option<u32> {
        match self.cell {
            None => Some(self.off),
            Some(c) => Some(mem.read_u32(c).ok()?.wrapping_add(self.off)),
        }
    }
}

impl AccessRange {
    /// Resolves to a concrete `[start, end)` interval, checking bounds
    /// and the recorded alignment residues.
    fn resolve(&self, mem: &Memory) -> Option<(u64, u64)> {
        let base = match self.cell {
            None => 0u64,
            Some(c) => u64::from(mem.read_u32(c).ok()?),
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
    /// aligned, and that no store span overlaps a load range or another
    /// store span (the handler batches its writes after its reads; a cell
    /// update's in-place reads of `c` are not load ranges). `false`
    /// declines.
    pub(crate) fn check_entry(&self, mem: &Memory) -> bool {
        for (n, w) in self.stores.iter().enumerate() {
            let Some((s_lo, s_hi)) = w.resolve(mem) else {
                return false;
            };
            for r in self.loads.iter().chain(&self.stores[..n]) {
                let Some((l_lo, l_hi)) = r.resolve(mem) else {
                    return false;
                };
                if s_lo < l_hi && l_lo < s_hi {
                    return false;
                }
            }
        }
        true
    }

    /// Computes the region's stores, in store order, as `(address,
    /// value)` pairs with host arithmetic bit-identical to the emitted
    /// kernel. A matvec accumulates `i16×i16` products with wrapping
    /// 32-bit adds (order-independent), then applies `>> 12`, a 16-bit
    /// clip and the shared fixed-point activation. A cell update
    /// evaluates each row's formula (see [`CellUpdate`]). Every read sees
    /// entry-time memory, which [`check_entry`](Self::check_entry) makes
    /// exactly what the kernel reads. Returns `false` (with no state
    /// mutated anywhere) if any pointer or read falls outside memory.
    pub(crate) fn compute(&self, mem: &Memory, outs: &mut Vec<(u32, i32)>) -> bool {
        match self.desc.math {
            RegionMath::Matvec(m) => matvec(&m, mem, outs),
            RegionMath::Cell(u) => cell_update(&u, mem, outs),
        }
        .is_some()
    }
}

fn matvec(m: &Matvec, mem: &Memory, outs: &mut Vec<(u32, i32)>) -> Option<()> {
    let n_in = m.n_in as usize;
    let n_out = m.n_out as usize;
    let row_bytes = n_in * 2;
    let x = mem.byte_slice(m.x.resolve(mem)?, row_bytes).ok()?;
    let out = m.out.resolve(mem)?;
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

fn cell_update(u: &CellUpdate, mem: &Memory, outs: &mut Vec<(u32, i32)>) -> Option<()> {
    let rows = u.rows as usize;
    let stream = |p: ShortcutPtr| -> Option<(u32, &[u8])> {
        let base = p.resolve(mem)?;
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
