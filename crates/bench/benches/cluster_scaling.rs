//! Cluster-scaling bench: simulated single-inference latency of every
//! RRM suite network across 1/2/4/8-core PULP clusters at Table I's
//! levels d and e.
//!
//! Unlike `serve_throughput` (request-level throughput on host
//! threads), the speedups here are *architectural*: one inference is
//! tiled across simulated cores, and the latency is the cluster's
//! critical path in cycles — per-phase slowest core plus analytic
//! banking-conflict stalls, DMA, and barriers. Every multi-core run is
//! verified bit-identical to the single-core outputs before its latency
//! is accepted.
//!
//! The floor (≥ [`MIN_SPEEDUP`]x at [`ASSERT_CORES`] cores on FC/LSTM
//! nets large enough to tile) is asserted on every host: the latencies
//! are simulated cycles, as deterministic as the document `--check`
//! pins.
//!
//! Flags:
//!
//! - `--json` — write `BENCH_cluster.json` with the full curves,
//!   per-core Table-I histograms, and conflict-stall rates.
//! - `--check` — compare against the committed
//!   `BENCH_cluster_baseline.json`. The document is byte-deterministic
//!   (simulated numbers only), so the check is exact string equality: a
//!   cycle-model change must regenerate the baseline deliberately.

use rnnasip_bench::cluster::{
    measure, to_json, NetCurve, ASSERT_CORES, CORE_COUNTS, LEVELS, MIN_SPEEDUP,
};
use rnnasip_bench::harness::{assert_gates, pinned_report, Args};

fn print_curve(nc: &NetCurve) {
    let mut line = format!("{:<14}", nc.id);
    for p in &nc.curve {
        line.push_str(&format!(
            " | x{}: {:>8} ({:>5.2}x)",
            p.cores,
            p.latency,
            nc.speedup(p.cores).unwrap_or(1.0)
        ));
    }
    let widest = nc.curve.last().unwrap();
    let stalls: u64 = widest.per_core.iter().map(|c| c.conflict_stalls).sum();
    let busy: u64 = widest.per_core.iter().map(|c| c.cycles).sum();
    line.push_str(&format!(
        " | x{} stalls {:.2}%",
        widest.cores,
        100.0 * stalls as f64 / (busy + stalls).max(1) as f64
    ));
    println!("{line}");
}

fn main() {
    let args = Args::parse();
    let curves = measure(&CORE_COUNTS);

    for level in LEVELS {
        println!(
            "cluster-scaling: level {}, simulated latency (cycles) per core count",
            level.tag()
        );
        for nc in curves.iter().filter(|nc| nc.level == level) {
            print_curve(nc);
        }
        println!();
    }

    let doc = to_json(&curves, &CORE_COUNTS);
    pinned_report(&args, "cluster", &doc, None);

    assert_gates(curves.iter().filter(|nc| nc.assertable()).map(|nc| {
        (
            format!(
                "{} at level {}, {ASSERT_CORES} cores",
                nc.id,
                nc.level.tag()
            ),
            nc.speedup(ASSERT_CORES).expect("4-core point measured"),
            MIN_SPEEDUP,
        )
    }));
}
