//! Shared harness code for the table/figure regeneration binaries and
//! the `harness = false` benches, which share their flags, reports,
//! baseline checks, gates and timing through [`harness`].
//!
//! Every target, run as `cargo run --release -p rnnasip-bench --bin
//! <name>` or `cargo bench -p rnnasip-bench --bench <name> -- <flags>`.
//! `--json` writes `BENCH_<name>.json` next to this crate's manifest
//! (`table1` and `suite_summary` print it instead). A gate on a host-time
//! ratio compares two arms timed in the same run.
//!
//! | Target | Reproduces | Flags | Gate |
//! |---|---|---|---|
//! | bin `table1` | Table I (a–e cycle/instruction histograms) | `--json` | — |
//! | bin `table2` | Table II (assembly comparison) | — | — |
//! | bin `fig2` | Fig. 2 (tanh PLA error surface) | — | — |
//! | bin `fig3` | Fig. 3 (per-network speedups) | — | — |
//! | bin `core_results` | Section IV (throughput/power/area) | — | — |
//! | bin `ablation` | tile-size sweep, INT8 path | — | — |
//! | bin `profile` | per-stage cycle profile at level e | — | — |
//! | bin `suite_summary` | suite inventory and totals | `--json` | — |
//! | bin `fault_campaign` | resilience table (fault injection) | `--smoke`, `--seed N`, `--trials N`, `--json`, `--check` | `--check`: report byte-identical to `BENCH_faults_baseline.json` |
//! | bin `sdc_campaign` | SDC-detection table (ABFT guards) | `--smoke`, `--seed N`, `--trials N`, `--json`, `--check` | `--check`: report byte-identical to `BENCH_sdc_baseline.json` |
//! | bench `sim_throughput` | simulated MIPS per tier, compile stages | `--json`, `--check` | bulk/step ≥ 2.0× at level a, ≥ 1.5× at d/e; sc/uop ≥ 5.0× at a, ≥ 10.0× at d/e; `--check`: eisen2019 bulk/step ≥ 1.152× |
//! | bench `serve_throughput` | pooled vs serial req/s | `--json`, `--check` | suite pool ≥ 3× with ≥ 4 hardware threads; `--check`: eisen2019 pooled/serial at `available_parallelism()` workers ≥ 0.75× |
//! | bench `traffic_serving` | city traffic through the front | `--json`, `--check` | 8-server goodput above 1-server; front ≥ 3× with ≥ 4 hardware threads; `--check`: virtual section byte-identical to `BENCH_traffic_baseline.json` |
//! | bench `cluster_scaling` | 1–8-core cluster latency | `--json`, `--check` | ≥ 2× 4-core latency speedup on FC/LSTM nets; `--check`: report byte-identical to `BENCH_cluster_baseline.json` |
//! | bench `engine_reuse` | compile-once vs recompile-per-call | `--json` | eisen2019 ≥ 5× |
//! | bench `table1_suite` | suite simulation time per level | — | — |
//! | bench `fig2_pla` | PLA fit and evaluation time | — | — |
//! | bench `fig3_networks` | per-network simulation time | — | — |
//! | bench `kernel_ablation` | 100×100 FC time per level | — | — |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cluster;
pub mod faults;
pub mod harness;
pub mod json;
pub mod par;
pub mod sdc;
pub mod traffic;

use rnnasip_core::{KernelBackend, OptLevel, RunReport};
use rnnasip_rrm::BenchmarkNet;
use rnnasip_sim::Stats;
use std::collections::BTreeMap;

/// Runs one network at one level (panics on kernel errors — the suite is
/// known-good; failures indicate a regression worth crashing on).
pub fn run_net(net: &BenchmarkNet, level: OptLevel) -> RunReport {
    run_net_split(net, level).1
}

/// Like [`run_net`], but compiles explicitly and reports the host-time
/// split: `(compile nanos, execute report)`. The report's
/// [`host_nanos`](RunReport::host_nanos) covers simulation only, so
/// compile cost is visible rather than folded into the MIPS figure.
pub fn run_net_split(net: &BenchmarkNet, level: OptLevel) -> (u64, RunReport) {
    let compiled = KernelBackend::new(level)
        .compile_network(&net.network)
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
    let compile_nanos = compiled.compile_nanos();
    let run = compiled
        .engine()
        .run(&net.input())
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
    (compile_nanos, run.report)
}

/// Runs the whole suite at one level and merges the statistics.
///
/// The ten networks simulate in parallel ([`par::par_map`]); the merge
/// happens sequentially in suite order, so the aggregate is bit-identical
/// to a sequential run.
pub fn run_suite(level: OptLevel) -> Stats {
    run_suite_report(level).stats().clone()
}

/// Like [`run_suite`] but keeps the full [`RunReport`], including the
/// accumulated host simulation time (per-core simulated-MIPS figure).
pub fn run_suite_report(level: OptLevel) -> RunReport {
    run_suite_split(level).1
}

/// Runs the whole suite at one level, returning the summed compile
/// nanos alongside the merged execute report — the compile-vs-execute
/// host time split at suite granularity.
pub fn run_suite_split(level: OptLevel) -> (u64, RunReport) {
    let nets = rnnasip_rrm::suite();
    let split = par::par_map(&nets, |net| run_net_split(net, level));
    let compile: u64 = split.iter().map(|(c, _)| c).sum();
    let total = RunReport::merged(split.iter().map(|(_, r)| r));
    (compile, total)
}

/// Maps a simulator mnemonic to the row name Table I uses.
pub fn paper_row_name(mnemonic: &str) -> String {
    match mnemonic {
        "p.lw!" => "lw!".into(),
        "p.lh!" => "lh!".into(),
        "p.lb!" => "lb!".into(),
        "p.sw!" => "sw!".into(),
        "p.sh!" => "sh!".into(),
        "p.mac" | "p.msu" => "mac".into(),
        "pl.tanh" | "pl.sig" => "tanh,sig".into(),
        m if m.starts_with("pv.sdot") || m.starts_with("pv.dot") => "pv.sdot".into(),
        "pl.sdotsp" => "pl.sdot".into(),
        m if m.starts_with("lp.") => "lp.setup".into(),
        other => other.into(),
    }
}

/// Aggregates statistics into Table-I-style rows (paper naming), sorted
/// by descending cycles.
pub fn table_rows(stats: &Stats) -> Vec<(String, u64, u64)> {
    let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (name, row) in stats.iter() {
        let e = agg.entry(paper_row_name(name)).or_insert((0, 0));
        e.0 += row.cycles;
        e.1 += row.instrs;
    }
    let mut rows: Vec<(String, u64, u64)> = agg
        .into_iter()
        .map(|(name, (cycles, instrs))| (name, cycles, instrs))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// Formats a Table-I column: the top `keep` rows plus an "oth." bucket
/// and a total, in kilo-units with one decimal.
pub fn format_column(title: &str, stats: &Stats, keep: usize) -> String {
    let rows = table_rows(stats);
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10}\n",
        "Instr.", "kcycles", "kinstrs"
    ));
    let mut oth = (0u64, 0u64);
    for (i, (name, cycles, instrs)) in rows.iter().enumerate() {
        if i < keep {
            out.push_str(&format!(
                "{:<12} {:>10.1} {:>10.1}\n",
                name,
                *cycles as f64 / 1e3,
                *instrs as f64 / 1e3
            ));
        } else {
            oth.0 += cycles;
            oth.1 += instrs;
        }
    }
    if oth != (0, 0) {
        out.push_str(&format!(
            "{:<12} {:>10.1} {:>10.1}\n",
            "oth.",
            oth.0 as f64 / 1e3,
            oth.1 as f64 / 1e3
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>10.1} {:>10.1}\n",
        "Σ",
        stats.cycles() as f64 / 1e3,
        stats.instrs() as f64 / 1e3
    ));
    out
}

/// The paper's reference numbers for comparison lines in the reports.
pub mod paper {
    /// Suite speedups over the RV32IMC baseline, Table I columns b–e.
    pub const SUITE_SPEEDUPS: [(char, f64); 4] = [('b', 4.4), ('c', 8.4), ('d', 14.3), ('e', 15.0)];
    /// Extended-core throughput (MMAC/s) at 380 MHz.
    pub const THROUGHPUT_MMACS: f64 = 566.0;
    /// Extended-core energy efficiency (GMAC/s/W).
    pub const EFFICIENCY_GMACS_W: f64 = 218.0;
    /// Baseline/extended power (mW).
    pub const POWER_MW: (f64, f64) = (1.73, 2.61);
    /// Extension area (kGE) and overhead fraction.
    pub const AREA: (f64, f64) = (2.3, 0.034);
    /// tanh PLA design-point error (MSE, max) as the paper reports it.
    pub const PLA_ERROR: (f64, f64) = (9.81e-7, 3.8e-4);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_mapping_matches_paper_names() {
        assert_eq!(paper_row_name("p.lw!"), "lw!");
        assert_eq!(paper_row_name("pv.sdotsp"), "pv.sdot");
        assert_eq!(paper_row_name("pl.sdotsp"), "pl.sdot");
        assert_eq!(paper_row_name("pl.tanh"), "tanh,sig");
        assert_eq!(paper_row_name("pl.sig"), "tanh,sig");
        assert_eq!(paper_row_name("p.mac"), "mac");
        assert_eq!(paper_row_name("addi"), "addi");
    }

    #[test]
    fn format_column_totals() {
        let mut s = Stats::new();
        s.record_name("addi", 1000, 0);
        s.record_name("p.lw!", 2000, 0);
        let text = format_column("test", &s, 1);
        assert!(text.contains("lw!"));
        assert!(text.contains("oth."));
        assert!(text.contains('Σ'));
    }
}
