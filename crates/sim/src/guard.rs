//! ABFT checksum guards: in-band silent-data-corruption detection for
//! kernel regions.
//!
//! Every [`KernelRegion`] computes `out[j] = act((bias32[j] + W[j]·x)
//! >> 12)`. Summing the pre-activation accumulators over `j` and
//! swapping the summation order gives the algorithm-based fault-tolerance
//! identity this module checks, entirely in wrapping `i32` arithmetic
//! (all products are `i16 × i16`, exact in 32 bits):
//!
//! ```text
//!   Σ_j bias[j]  ⊞  Σ_k (Σ_j W[j][k]) ⊛ x[k]
//! = Σ_j (bias[j] ⊞ Σ_k W[j][k] ⊛ x[k])          (mod 2³²)
//! ```
//!
//! The inner column sums `c[k] = Σ_j W[j][k]` and the bias sum are
//! computed **once at compile time** from the clean staged weights
//! ([`GuardSpec::from_region`]). At every region exit the machine
//! recomputes both sides from *current* TCDM: the left side dots the
//! golden checksum row with the live input vector; the right side re-sums
//! the live weights and biases. A single-bit flip of `W[j][k]` shifts the
//! right side by `±2^b · x[k]` (`b ≤ 15`, `|x[k]| < 2¹⁵`, so the product
//! is nonzero mod 2³² exactly when `x[k] ≠ 0` — i.e. exactly when the
//! flip can corrupt an output); a bias flip shifts it by `±2^b ≠ 0`. The
//! exit check also recomputes the `n_out` activated outputs and compares
//! them to the halfwords the kernel wrote, catching datapath/register
//! corruption *inside* the region, and re-checks a small ledger of
//! produced activation windows so a flip landing in a buffer *between*
//! its producer and consumer regions is caught at the consumer's exit.
//!
//! Guards are observers: they never change outputs, `instret`,
//! per-mnemonic rows or the cycle counter. The modeled hardware cost of
//! the monitor — it snoops the kernel's existing `x`/output streams and
//! only pays a dedicated pass over the checksum row — is accounted as an
//! analytic per-entry surcharge in a separate counter
//! ([`GuardReport::guard_cycles`]), a pure function of the entry count,
//! so it is identical across the micro-op and shortcut execution tiers.

use crate::mem::Memory;
use crate::program::Program;
use crate::shortcut::{KernelRegion, Matvec, RegionMath};
use std::collections::HashMap;
use std::sync::Arc;

/// Ledger capacity: distinct produced activation windows tracked per
/// run. Far above any suite network's layer count.
const LEDGER_CAP: usize = 64;

/// Fixed per-entry surcharge cycles (compare-and-drain of the monitor's
/// accumulators at region exit).
const GUARD_BASE_CYCLES: u64 = 2;

/// One region's compile-time checksum data: the claim checked at every
/// run-time exit of the region.
#[derive(Clone, Debug)]
pub struct GuardSpec {
    /// Address of the guarded region's first instruction.
    pub start_addr: u32,
    /// Fall-through address after the guarded region.
    pub end_addr: u32,
    /// The guarded matrix-vector kernel's operand layout.
    pub region: Matvec,
    /// Golden column sums `c[k] = Σ_j W[j][k]` (wrapping), one per input
    /// element, computed from the clean staged weights.
    pub checksum: Vec<i32>,
    /// Golden wrapping sum of the `n_out` pre-shifted bias words.
    pub bias_sum: i32,
}

impl GuardSpec {
    /// Derives a region's guard from staged memory: reads the clean
    /// `n_out × n_in` weight matrix and bias words and folds the column
    /// sums. `None` for a region that is not a matrix-vector product (a
    /// cell update has no checksum identity) or if any operand lies
    /// outside memory (a malformed descriptor) — the region is then
    /// simply left unguarded.
    pub fn from_region(mem: &Memory, desc: &KernelRegion) -> Option<GuardSpec> {
        let RegionMath::Matvec(region) = &desc.math else {
            return None;
        };
        let n_in = region.n_in as usize;
        let n_out = region.n_out as usize;
        if n_in == 0 || n_out == 0 {
            return None;
        }
        let row_bytes = n_in * 2;
        let mut checksum = vec![0i32; n_in];
        let mut bias_sum = 0i32;
        for j in 0..n_out {
            let bias = mem
                .read_u32(region.bias32.wrapping_add(4 * j as u32))
                .ok()?;
            bias_sum = bias_sum.wrapping_add(bias as i32);
            let row = mem
                .read_bytes(
                    region.w_base.wrapping_add((j * row_bytes) as u32),
                    row_bytes,
                )
                .ok()?;
            for (c, wp) in checksum.iter_mut().zip(row.chunks_exact(2)) {
                *c = c.wrapping_add(i16::from_le_bytes([wp[0], wp[1]]) as i32);
            }
        }
        Some(GuardSpec {
            start_addr: desc.start_addr,
            end_addr: desc.end_addr,
            region: *region,
            checksum,
            bias_sum,
        })
    }

    /// The analytic cycle surcharge one guarded entry of this region
    /// costs: the monitor snoops the kernel's own `x` and output streams
    /// for free and pays one packed-SIMD pass over the checksum row plus
    /// a fixed compare-and-drain. A pure function of the region shape,
    /// so the surcharge is identical on every execution tier.
    pub fn entry_cycles(&self) -> u64 {
        GUARD_BASE_CYCLES + u64::from(self.region.n_in).div_ceil(2)
    }
}

/// Per-region pass/fail counters of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionGuard {
    /// Guarded entries of this region (0 when the region never ran).
    pub entries: u64,
    /// Entries whose exit check failed.
    pub fails: u64,
}

/// The guard verdicts of one run: one row per [`GuardSpec`], in spec
/// order, plus the run's total analytic surcharge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// Per-region counters, index-aligned with the armed spec list.
    pub regions: Vec<RegionGuard>,
    /// Total analytic guard surcharge, in cycles. Kept out of the
    /// machine's cycle counter so guarded runs stay bit-identical.
    pub guard_cycles: u64,
    /// Whether the final-output window check (run after the outputs are
    /// read back) failed — corruption between the last region's exit and
    /// the readout.
    pub output_check_failed: bool,
}

impl GuardReport {
    /// Whether any guard tripped this run.
    pub fn failed(&self) -> bool {
        self.output_check_failed || self.regions.iter().any(|r| r.fails > 0)
    }

    /// Total guarded region entries.
    pub fn entries(&self) -> u64 {
        self.regions.iter().map(|r| r.entries).sum()
    }

    /// Total failed exits.
    pub fn fails(&self) -> u64 {
        self.regions.iter().map(|r| r.fails).sum()
    }

    /// Index of the first region with a failed exit, if any.
    pub fn first_failed_region(&self) -> Option<usize> {
        self.regions.iter().position(|r| r.fails > 0)
    }

    /// Folds another report in: counters add region-wise (the longer
    /// region list wins), surcharges add, output failures or.
    pub fn merge(&mut self, other: &GuardReport) {
        if other.regions.len() > self.regions.len() {
            self.regions
                .resize(other.regions.len(), RegionGuard::default());
        }
        for (a, b) in self.regions.iter_mut().zip(&other.regions) {
            a.entries += b.entries;
            a.fails += b.fails;
        }
        self.guard_cycles += other.guard_cycles;
        self.output_check_failed |= other.output_check_failed;
    }
}

/// One produced activation window: the wrapping halfword sum recorded at
/// its producer's exit, re-checked at any consumer's exit.
#[derive(Clone, Copy, Debug)]
struct LedgerEntry {
    base: u32,
    halfwords: u32,
    sum: i32,
}

/// A guard armed and waiting for its region's exit.
#[derive(Clone, Copy, Debug)]
struct Pending {
    row: u32,
    start_idx: u32,
    x_base: u32,
    out_base: u32,
    /// Whether the entry-time pointer-cell reads resolved; an
    /// unresolvable entry fails at exit.
    resolved: bool,
}

/// The guard state of one run: every kernel's armed specs, per-region
/// counters and the activation ledger. One unit serves a whole run — a
/// cluster lends it to each core's machine in turn and
/// [`select`](Self::select)s the kernel about to execute — so the ledger
/// sees every producer before any later consumer.
#[derive(Debug)]
pub(crate) struct GuardUnit {
    /// Per kernel: micro-op index of each region's first op → report row.
    starts: Vec<HashMap<u32, u32>>,
    /// Per report row: its kernel's specs, its index there, and the
    /// micro-op index just past the region (`u32::MAX` when its
    /// boundaries don't map into the kernel's program).
    rows: Vec<(Arc<Vec<GuardSpec>>, usize, u32)>,
    /// The kernel now executing.
    active: usize,
    pending: Option<Pending>,
    counters: Vec<RegionGuard>,
    guard_cycles: u64,
    ledger: Vec<LedgerEntry>,
}

impl GuardUnit {
    /// Builds the unit for a sequence of kernels, each given as its
    /// spec list and its program (whose fetch table resolves region
    /// addresses to micro-op indices). Regions whose boundaries don't
    /// resolve are reported but never armed.
    pub(crate) fn new<'a>(
        kernels: impl IntoIterator<Item = (&'a Arc<Vec<GuardSpec>>, &'a Program)>,
    ) -> Self {
        let (mut starts, mut rows) = (Vec::new(), Vec::new());
        for (kernel_specs, program) in kernels {
            let index_of = |a| program.index_of(a).map(|i| i as u32);
            let mut kernel_starts = HashMap::with_capacity(kernel_specs.len());
            for (i, spec) in kernel_specs.iter().enumerate() {
                let end = match index_of(spec.start_addr).zip(index_of(spec.end_addr)) {
                    Some((s, e)) if e > s => {
                        kernel_starts.insert(s, rows.len() as u32);
                        e
                    }
                    _ => u32::MAX,
                };
                rows.push((Arc::clone(kernel_specs), i, end));
            }
            starts.push(kernel_starts);
        }
        Self {
            starts,
            counters: vec![RegionGuard::default(); rows.len()],
            rows,
            active: 0,
            pending: None,
            guard_cycles: 0,
            ledger: Vec::new(),
        }
    }

    fn spec(&self, row: u32) -> &GuardSpec {
        let (specs, i, _) = &self.rows[row as usize];
        &specs[*i]
    }

    /// Clears the per-run state (counters, surcharge, ledger, pending).
    pub(crate) fn reset_run(&mut self) {
        self.pending = None;
        self.active = 0;
        self.counters.fill(RegionGuard::default());
        self.guard_cycles = 0;
        self.ledger.clear();
    }

    /// Switches to kernel `kernel` (its index in arming order) before it
    /// executes. A guard left pending by the previous kernel never
    /// reached its exit: it counts as a failed one.
    pub(crate) fn select(&mut self, kernel: usize) {
        if let Some(p) = self.pending.take() {
            self.counters[p.row as usize].fails += 1;
        }
        self.active = kernel;
    }

    /// The dispatch-boundary hook: called with the micro-op index about
    /// to execute. Finishes a pending guard whose region ends here, then
    /// arms a new one if a region starts here. A revisit of the pending
    /// region's own head (its internal loop) is ignored.
    pub(crate) fn boundary(&mut self, mem: &Memory, idx: u32) {
        if let Some(p) = self.pending {
            if idx == self.rows[p.row as usize].2 {
                self.pending = None;
                self.finish(mem, p);
            } else if idx == p.start_idx {
                return;
            }
        }
        if let Some(&row) = self.starts[self.active].get(&idx) {
            if let Some(p) = self.pending.take() {
                // Control left a region without passing its exit (never
                // the case for generated kernels): flag it.
                self.counters[p.row as usize].fails += 1;
            }
            self.arm(mem, row, idx);
        }
    }

    fn arm(&mut self, mem: &Memory, row: u32, start_idx: u32) {
        let spec = self.spec(row);
        let x = spec.region.x.resolve(mem);
        let out = spec.region.out.resolve(mem);
        self.guard_cycles += spec.entry_cycles();
        self.counters[row as usize].entries += 1;
        self.pending = Some(Pending {
            row,
            start_idx,
            x_base: x.unwrap_or(0),
            out_base: out.unwrap_or(0),
            resolved: x.is_some() && out.is_some(),
        });
    }

    fn finish(&mut self, mem: &Memory, p: Pending) {
        let spec = self.spec(p.row);
        let ok = p.resolved && check_exit(spec, mem, p.x_base, p.out_base, &self.ledger);
        let (dense, n_out) = (spec.region.out_stride == 2, spec.region.n_out);
        if !ok {
            self.counters[p.row as usize].fails += 1;
        }
        // Producer ledger: dense stride-2 output windows become checkable
        // inputs of downstream regions. Recorded from current memory even
        // after a failed check, so the ledger always reflects what the
        // next consumer will actually read.
        if dense && p.resolved {
            note(&mut self.ledger, mem, p.out_base, n_out);
        }
    }

    /// Records (or refreshes) a produced window's halfword sum.
    pub(crate) fn note_range(&mut self, mem: &Memory, base: u32, halfwords: u32) {
        note(&mut self.ledger, mem, base, halfwords);
    }

    /// Re-checks every recorded window overlapping `halfwords` halfwords
    /// at `base` against current memory (a window several cores produced
    /// is recorded slice by slice): `Some(false)` when any changed,
    /// `None` when none overlaps.
    pub(crate) fn verify_range(&self, mem: &Memory, base: u32, halfwords: u32) -> Option<bool> {
        let end = base.wrapping_add(halfwords * 2);
        let overlapping = self
            .ledger
            .iter()
            .filter(|e| e.base < end && base < e.base.wrapping_add(e.halfwords * 2));
        overlapping.fold(None, |ok, e| {
            Some(ok.unwrap_or(true) && halfword_sum(mem, e.base, e.halfwords) == Some(e.sum))
        })
    }

    /// Snapshot of the run's verdicts. A guard still pending (the run
    /// halted or faulted mid-region) counts as a failed exit.
    pub(crate) fn report(&self) -> GuardReport {
        let mut regions = self.counters.clone();
        if let Some(p) = &self.pending {
            regions[p.row as usize].fails += 1;
        }
        GuardReport {
            regions,
            guard_cycles: self.guard_cycles,
            output_check_failed: false,
        }
    }
}

/// Wrapping sum of `halfwords` sign-extended halfwords at `base`; `None`
/// out of bounds.
fn halfword_sum(mem: &Memory, base: u32, halfwords: u32) -> Option<i32> {
    let bytes = mem.read_bytes(base, halfwords as usize * 2).ok()?;
    let mut sum = 0i32;
    for hp in bytes.chunks_exact(2) {
        sum = sum.wrapping_add(i16::from_le_bytes([hp[0], hp[1]]) as i32);
    }
    Some(sum)
}

fn note(ledger: &mut Vec<LedgerEntry>, mem: &Memory, base: u32, halfwords: u32) {
    let Some(sum) = halfword_sum(mem, base, halfwords) else {
        return;
    };
    if let Some(e) = ledger.iter_mut().find(|e| e.base == base) {
        e.halfwords = halfwords;
        e.sum = sum;
    } else if ledger.len() < LEDGER_CAP {
        ledger.push(LedgerEntry {
            base,
            halfwords,
            sum,
        });
    }
}

/// The exit check: ledger freshness of the input window, the ABFT
/// checksum identity, and a recompute-and-compare of the written
/// outputs. All arithmetic mirrors the emitted kernel exactly (see
/// `ShortcutRegion::compute`): wrapping `i32` accumulation of `i16×i16`
/// products, `>> 12`, clamp to 16 bits, shared fixed-point activations.
fn check_exit(
    spec: &GuardSpec,
    mem: &Memory,
    x_base: u32,
    out_base: u32,
    ledger: &[LedgerEntry],
) -> bool {
    let r = &spec.region;
    let n_in = r.n_in as usize;
    let n_out = r.n_out as usize;
    let row_bytes = n_in * 2;

    // Input freshness: any recorded window overlapping the x range must
    // still sum to what its producer recorded. The x vector is
    // store-disjoint from the region's own writes, so checking at exit
    // also covers flips that landed while the region ran.
    let x_end = x_base.wrapping_add(row_bytes as u32);
    for e in ledger {
        let e_end = e.base.wrapping_add(e.halfwords * 2);
        if e.base < x_end && x_base < e_end && halfword_sum(mem, e.base, e.halfwords) != Some(e.sum)
        {
            return false;
        }
    }

    let Ok(x) = mem.read_bytes(x_base, row_bytes) else {
        return false;
    };
    let mut lhs = spec.bias_sum;
    for (c, xp) in spec.checksum.iter().zip(x.chunks_exact(2)) {
        let xv = i16::from_le_bytes([xp[0], xp[1]]) as i32;
        lhs = lhs.wrapping_add(c.wrapping_mul(xv));
    }

    let mut rhs = 0i32;
    for j in 0..n_out {
        let Ok(bias) = mem.read_u32(r.bias32.wrapping_add(4 * j as u32)) else {
            return false;
        };
        let Ok(row) = mem.read_bytes(r.w_base.wrapping_add((j * row_bytes) as u32), row_bytes)
        else {
            return false;
        };
        let mut acc = bias as i32;
        for (wp, xp) in row.chunks_exact(2).zip(x.chunks_exact(2)) {
            let w = i16::from_le_bytes([wp[0], wp[1]]) as i32;
            let xv = i16::from_le_bytes([xp[0], xp[1]]) as i32;
            acc = acc.wrapping_add(w.wrapping_mul(xv));
        }
        rhs = rhs.wrapping_add(acc);

        let v = r.act.apply((acc >> 12).clamp(-32768, 32767));
        let Ok(got) = mem.read_u16(out_base.wrapping_add(j as u32 * r.out_stride)) else {
            return false;
        };
        if got as i16 as i32 != v {
            return false;
        }
    }
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut::{ShortcutAct, ShortcutPtr};

    fn region(w_base: u32, bias32: u32, x: u32, out: u32, n_in: u32, n_out: u32) -> Matvec {
        Matvec {
            w_base,
            bias32,
            x: ShortcutPtr::Const(x),
            out: ShortcutPtr::Const(out),
            out_stride: 2,
            n_in,
            n_out,
            act: ShortcutAct::None,
        }
    }

    /// Stages a tiny kernel's operands and writes the correct outputs,
    /// returning (memory, region).
    fn desc(m: Matvec) -> KernelRegion {
        KernelRegion {
            start_addr: 0,
            end_addr: 4,
            math: RegionMath::Matvec(m),
        }
    }

    fn staged() -> (Memory, Matvec) {
        let mut mem = Memory::new(4096);
        let r = region(0x100, 0x200, 0x300, 0x400, 4, 3);
        let w: [[i16; 4]; 3] = [[100, -200, 300, -400], [7, 11, -13, 17], [0, -1, 2, -3]];
        let bias: [i32; 3] = [1 << 12, -(2 << 12), 12345];
        let x: [i16; 4] = [500, -600, 700, 800];
        for (j, row) in w.iter().enumerate() {
            for (k, &v) in row.iter().enumerate() {
                mem.write_u16(r.w_base + (j * 4 + k) as u32 * 2, v as u16)
                    .unwrap();
            }
        }
        for (j, &b) in bias.iter().enumerate() {
            mem.write_u32(r.bias32 + 4 * j as u32, b as u32).unwrap();
        }
        for (k, &v) in x.iter().enumerate() {
            mem.write_u16(0x300 + 2 * k as u32, v as u16).unwrap();
        }
        for j in 0..3usize {
            let mut acc = bias[j];
            for k in 0..4usize {
                acc = acc.wrapping_add((w[j][k] as i32).wrapping_mul(x[k] as i32));
            }
            let v = (acc >> 12).clamp(-32768, 32767);
            mem.write_u16(0x400 + 2 * j as u32, v as u16).unwrap();
        }
        (mem, r)
    }

    #[test]
    fn clean_region_passes() {
        let (mem, r) = staged();
        let spec = GuardSpec::from_region(&mem, &desc(r)).unwrap();
        assert!(check_exit(&spec, &mem, 0x300, 0x400, &[]));
    }

    #[test]
    fn weight_flip_with_live_input_is_detected() {
        let (mut mem, r) = staged();
        let spec = GuardSpec::from_region(&mem, &desc(r)).unwrap();
        for bit in 0..16 {
            let before = mem.read_u16(r.w_base + 2).unwrap();
            mem.write_u16(r.w_base + 2, before ^ (1 << bit)).unwrap();
            assert!(
                !check_exit(&spec, &mem, 0x300, 0x400, &[]),
                "bit {bit} flip escaped"
            );
            mem.write_u16(r.w_base + 2, before).unwrap();
        }
    }

    #[test]
    fn bias_flip_is_detected_even_when_requant_masks_it() {
        let (mut mem, r) = staged();
        let spec = GuardSpec::from_region(&mem, &desc(r)).unwrap();
        // Low bias bits vanish under `>> 12` — the outputs stay golden,
        // but the checksum still sees the corrupted memory.
        let before = mem.read_u32(r.bias32 + 4).unwrap();
        mem.write_u32(r.bias32 + 4, before ^ 1).unwrap();
        assert!(!check_exit(&spec, &mem, 0x300, 0x400, &[]));
    }

    #[test]
    fn output_flip_after_write_is_detected() {
        let (mut mem, r) = staged();
        let spec = GuardSpec::from_region(&mem, &desc(r)).unwrap();
        let before = mem.read_u16(0x402).unwrap();
        mem.write_u16(0x402, before ^ (1 << 9)).unwrap();
        assert!(!check_exit(&spec, &mem, 0x300, 0x400, &[]));
    }

    #[test]
    fn ledger_catches_input_flip_between_producer_and_consumer() {
        let (mut mem, r) = staged();
        let spec = GuardSpec::from_region(&mem, &desc(r)).unwrap();
        let mut ledger = Vec::new();
        note(&mut ledger, &mem, 0x300, 4);
        // Flip a bit of x *after* it was recorded: the kernel computes a
        // consistent (wrong) function of the flipped x, so the checksum
        // alone cannot see it — the ledger does.
        let before = mem.read_u16(0x300).unwrap();
        mem.write_u16(0x300, before ^ (1 << 3)).unwrap();
        // Rewrite the outputs the kernel would produce from flipped x so
        // only the ledger can object.
        for j in 0..3u32 {
            let mut acc = mem.read_u32(r.bias32 + 4 * j).unwrap() as i32;
            for k in 0..4u32 {
                let w = mem.read_u16(r.w_base + (j * 4 + k) * 2).unwrap() as i16 as i32;
                let xv = mem.read_u16(0x300 + 2 * k).unwrap() as i16 as i32;
                acc = acc.wrapping_add(w.wrapping_mul(xv));
            }
            let v = (acc >> 12).clamp(-32768, 32767);
            mem.write_u16(0x400 + 2 * j, v as u16).unwrap();
        }
        assert!(!check_exit(&spec, &mem, 0x300, 0x400, &ledger));
        // Without the ledger the same state passes — the identity holds
        // for the corrupted input.
        assert!(check_exit(&spec, &mem, 0x300, 0x400, &[]));
    }

    #[test]
    fn zero_input_column_masks_weight_flip_and_output() {
        let (mut mem, r) = staged();
        let spec = GuardSpec::from_region(&mem, &desc(r)).unwrap();
        // Zero x[1], recompute outputs, then flip W[0][1]: the flip
        // cannot corrupt any output and the guard (correctly) passes.
        mem.write_u16(0x302, 0).unwrap();
        for j in 0..3u32 {
            let mut acc = mem.read_u32(r.bias32 + 4 * j).unwrap() as i32;
            for k in 0..4u32 {
                let w = mem.read_u16(r.w_base + (j * 4 + k) * 2).unwrap() as i16 as i32;
                let xv = mem.read_u16(0x300 + 2 * k).unwrap() as i16 as i32;
                acc = acc.wrapping_add(w.wrapping_mul(xv));
            }
            mem.write_u16(0x400 + 2 * j, (acc >> 12).clamp(-32768, 32767) as u16)
                .unwrap();
        }
        assert!(check_exit(&spec, &mem, 0x300, 0x400, &[]));
        let before = mem.read_u16(r.w_base + 2).unwrap();
        mem.write_u16(r.w_base + 2, before ^ (1 << 7)).unwrap();
        assert!(check_exit(&spec, &mem, 0x300, 0x400, &[]));
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = GuardReport {
            regions: vec![RegionGuard {
                entries: 2,
                fails: 0,
            }],
            guard_cycles: 10,
            output_check_failed: false,
        };
        let b = GuardReport {
            regions: vec![
                RegionGuard {
                    entries: 3,
                    fails: 1,
                },
                RegionGuard {
                    entries: 4,
                    fails: 0,
                },
            ],
            guard_cycles: 7,
            output_check_failed: true,
        };
        a.merge(&b);
        assert_eq!(
            a.regions[0],
            RegionGuard {
                entries: 5,
                fails: 1
            }
        );
        assert_eq!(
            a.regions[1],
            RegionGuard {
                entries: 4,
                fails: 0
            }
        );
        assert_eq!(a.guard_cycles, 17);
        assert!(a.failed());
        assert_eq!(a.first_failed_region(), Some(0));
    }
}
