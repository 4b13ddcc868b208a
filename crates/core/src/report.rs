//! Run reports: cycles, instructions, MACs, and derived metrics.

use rnnasip_sim::{Cluster, GuardReport, Stats};
use std::sync::Arc;

/// One cluster core's share of a run: its per-mnemonic statistics and
/// the banking-conflict stalls the TCDM model charged it.
#[derive(Clone, Debug, Default)]
pub struct CoreReport {
    /// Cluster core index.
    pub core: usize,
    /// This core's per-mnemonic statistics (shared with the run's totals
    /// on a one-core run).
    pub stats: Arc<Stats>,
    /// Analytic TCDM banking-conflict stall cycles charged to this core.
    pub conflict_stalls: u64,
}

/// The outcome metrics of one kernel or network run.
///
/// Wraps the simulator's per-mnemonic [`Stats`] and adds the derived
/// quantities the paper reports: cycles per MAC and MAC throughput at a
/// given clock. When the runner records how long the host took to
/// simulate the run ([`with_host_nanos`](Self::with_host_nanos)), the
/// report can also state the *simulator's* own speed in simulated MIPS
/// ([`sim_mips`](Self::sim_mips)) — the metric the `sim-throughput`
/// bench tracks.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    stats: Arc<Stats>,
    host_nanos: u64,
    per_core: Vec<CoreReport>,
    dma_cycles: u64,
    barrier_cycles: u64,
    /// Cluster critical-path latency (the cycle total for runs outside
    /// an engine, such as INT8 layers).
    latency_cycles: u64,
    /// ABFT guard verdicts, when the engine ran with guards armed.
    guard: Option<GuardReport>,
}

impl RunReport {
    /// Wraps simulator statistics.
    pub fn new(stats: Stats) -> Self {
        Self {
            latency_cycles: stats.cycles(),
            stats: Arc::new(stats),
            ..Self::default()
        }
    }

    /// The report of a finished cluster run: merged statistics, one row
    /// per core, the DMA and barrier totals and the critical-path
    /// latency. A one-core run's totals *are* its core row, built once
    /// and shared.
    pub(crate) fn for_cluster(cluster: &Cluster) -> Self {
        let cores = cluster.cores();
        let own = |c: usize| Arc::new(cluster.machine(c).stats().clone());
        let stats = match cores {
            1 => own(0),
            _ => Arc::new(cluster.merged_stats()),
        };
        let per_core = (0..cores)
            .map(|core| CoreReport {
                core,
                stats: if cores == 1 {
                    Arc::clone(&stats)
                } else {
                    own(core)
                },
                conflict_stalls: cluster.conflict_stalls(core),
            })
            .collect();
        Self {
            stats,
            host_nanos: 0,
            per_core,
            dma_cycles: cluster.dma_cycles(),
            barrier_cycles: cluster.barrier_cycles(),
            latency_cycles: cluster.latency_cycles(),
            guard: None,
        }
    }

    /// Per-core breakdown of an engine run, one row per core (empty for
    /// INT8 layer runs).
    pub fn per_core(&self) -> &[CoreReport] {
        &self.per_core
    }

    /// DMA engine cycles spent staging inputs (0 on one core, which
    /// needs no staging).
    pub fn dma_cycles(&self) -> u64 {
        self.dma_cycles
    }

    /// Cycles spent in cluster barriers (0 on one core).
    pub fn barrier_cycles(&self) -> u64 {
        self.barrier_cycles
    }

    /// End-to-end latency of the run: the cluster critical path (equal to
    /// [`cycles`](Self::cycles) on one core), or the cycle total for runs
    /// outside an engine.
    pub fn latency_cycles(&self) -> u64 {
        self.latency_cycles
    }

    /// Attaches the per-region ABFT guard verdicts of a guarded run.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardReport) -> Self {
        self.guard = Some(guard);
        self
    }

    /// The guard verdicts, when the run executed with guards armed.
    pub fn guard(&self) -> Option<&GuardReport> {
        self.guard.as_ref()
    }

    /// Whether any armed guard flagged this run (always `false` for
    /// unguarded runs).
    pub fn guard_failed(&self) -> bool {
        self.guard.as_ref().is_some_and(GuardReport::failed)
    }

    /// Attaches the host wall-clock time the simulation took.
    #[must_use]
    pub fn with_host_nanos(mut self, nanos: u64) -> Self {
        self.host_nanos = nanos;
        self
    }

    /// Host wall-clock nanoseconds spent simulating (0 if not recorded).
    pub fn host_nanos(&self) -> u64 {
        self.host_nanos
    }

    /// Simulator speed in millions of simulated instructions per host
    /// second, or `None` if no host time was recorded.
    pub fn sim_mips(&self) -> Option<f64> {
        if self.host_nanos == 0 {
            return None;
        }
        Some(self.instrs() as f64 / (self.host_nanos as f64 / 1e9) / 1e6)
    }

    /// The per-mnemonic statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles()
    }

    /// Total retired instructions.
    pub fn instrs(&self) -> u64 {
        self.stats.instrs()
    }

    /// Total 16-bit MAC operations.
    pub fn mac_ops(&self) -> u64 {
        self.stats.mac_ops()
    }

    /// Cycles per MAC (lower is better; the extended core approaches 0.5
    /// because `pl.sdotsp.h` retires two MACs per cycle).
    pub fn cycles_per_mac(&self) -> f64 {
        if self.mac_ops() == 0 {
            f64::NAN
        } else {
            self.cycles() as f64 / self.mac_ops() as f64
        }
    }

    /// Throughput in MMAC/s at clock frequency `f_hz`.
    ///
    /// At the paper's 380 MHz operating point the extended core reaches
    /// 566 MMAC/s on the benchmark suite.
    pub fn mmacs_at(&self, f_hz: f64) -> f64 {
        if self.cycles() == 0 {
            return 0.0;
        }
        self.mac_ops() as f64 / self.cycles() as f64 * f_hz / 1e6
    }

    /// Merges another report into this one. Host times add up, so an
    /// aggregate report's [`sim_mips`](Self::sim_mips) is the overall
    /// rate across its parts.
    pub fn merge(&mut self, other: &RunReport) {
        Arc::make_mut(&mut self.stats).merge(&other.stats);
        self.host_nanos += other.host_nanos;
        self.dma_cycles += other.dma_cycles;
        self.barrier_cycles += other.barrier_cycles;
        self.latency_cycles += other.latency_cycles;
        match (&mut self.guard, &other.guard) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.guard = Some(theirs.clone()),
            _ => {}
        }
        // Per-core rows merge by core index, so the result is the same
        // whichever order the parts arrive in.
        for row in &other.per_core {
            match self.per_core.iter_mut().find(|r| r.core == row.core) {
                Some(mine) => {
                    Arc::make_mut(&mut mine.stats).merge(&row.stats);
                    mine.conflict_stalls += row.conflict_stalls;
                }
                None => self.per_core.push(row.clone()),
            }
        }
        self.per_core.sort_by_key(|r| r.core);
    }

    /// Aggregates any number of reports into one (suite totals,
    /// staged-run totals). The empty iterator yields the default report.
    ///
    /// # Example
    ///
    /// ```
    /// use rnnasip_core::RunReport;
    ///
    /// let parts: Vec<RunReport> = Vec::new();
    /// assert_eq!(RunReport::merged(&parts).cycles(), 0);
    /// ```
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a RunReport>) -> RunReport {
        let mut total = RunReport::default();
        for part in parts {
            total.merge(part);
        }
        total
    }
}

impl From<Stats> for RunReport {
    fn from(stats: Stats) -> Self {
        Self::new(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = Stats::new();
        // Two pl.sdotsp at 1 cycle each: 4 MACs in 2 cycles.
        s.record_name("pl.sdotsp", 1, 2);
        s.record_name("pl.sdotsp", 1, 2);
        let r = RunReport::new(s);
        assert_eq!(r.cycles_per_mac(), 0.5);
        // 2 MAC/cycle * 380 MHz = 760 MMAC/s.
        assert!((r.mmacs_at(380e6) - 760.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_nan_not_panic() {
        let r = RunReport::default();
        assert!(r.cycles_per_mac().is_nan());
        assert_eq!(r.mmacs_at(380e6), 0.0);
        assert_eq!(r.sim_mips(), None);
    }

    /// A cluster run's report, as an engine would build it.
    fn cluster_report(
        stats: Stats,
        per_core: Vec<CoreReport>,
        dma: u64,
        barrier: u64,
        latency: u64,
    ) -> RunReport {
        RunReport {
            per_core,
            dma_cycles: dma,
            barrier_cycles: barrier,
            latency_cycles: latency,
            ..RunReport::new(stats)
        }
    }

    #[test]
    fn cluster_merge_is_order_independent_and_sums_stall_rows() {
        let core_row = |core: usize, mnemonic: &str, stalls: u64| {
            let mut s = Stats::new();
            s.record_name(mnemonic, 1, 2);
            CoreReport {
                core,
                stats: Arc::new(s),
                conflict_stalls: stalls,
            }
        };
        let mut sa = Stats::new();
        sa.record_name("lw", 3, 4);
        let a = cluster_report(
            sa,
            vec![core_row(0, "lw", 5), core_row(1, "sw", 7)],
            10,
            16,
            100,
        );
        let mut sb = Stats::new();
        sb.record_name("sw", 2, 2);
        let b = cluster_report(sb, vec![core_row(1, "sw", 3)], 4, 8, 50);
        // A plain (non-cluster) part: its latency contribution is its
        // cycle total.
        let mut sc = Stats::new();
        sc.record_name("addi", 6, 6);
        let c = RunReport::new(sc);

        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut ba = c.clone();
        ba.merge(&b);
        ba.merge(&a);

        for r in [&ab, &ba] {
            assert_eq!(r.dma_cycles(), 14);
            assert_eq!(r.barrier_cycles(), 24);
            // 100 + 50 + 6 (the plain part's cycles).
            assert_eq!(r.latency_cycles(), 156);
            assert_eq!(r.per_core().len(), 2);
            assert_eq!(r.per_core()[0].core, 0);
            assert_eq!(r.per_core()[0].conflict_stalls, 5);
            assert_eq!(r.per_core()[1].core, 1);
            assert_eq!(r.per_core()[1].conflict_stalls, 10);
            assert_eq!(r.per_core()[1].stats.row("sw").instrs, 2);
        }
        // Merging no cluster parts leaves the latency implicit.
        let mut plain = c.clone();
        plain.merge(&c);
        assert_eq!(plain.latency_cycles(), plain.cycles());
    }

    #[test]
    fn sim_mips_from_host_time() {
        let mut s = Stats::new();
        for _ in 0..1000 {
            s.record_name("addi", 1, 0);
        }
        // 1000 instructions in 1 ms -> 1 MIPS.
        let r = RunReport::new(s).with_host_nanos(1_000_000);
        assert!((r.sim_mips().unwrap() - 1.0).abs() < 1e-9);
        // Merging two such reports keeps the rate (2000 instrs / 2 ms).
        let mut a = r.clone();
        a.merge(&r);
        assert!((a.sim_mips().unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(a.host_nanos(), 2_000_000);
    }
}
