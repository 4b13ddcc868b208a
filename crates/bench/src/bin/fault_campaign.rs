//! Fault-injection campaign over the benchmark suite: seeded bit flips
//! and forced watchdogs across every `(network, OptLevel)` cell, with
//! in-process recovery verification (see `rnnasip_bench::faults`).
//!
//! Flags:
//!
//! - `--seed N` — campaign master seed (default 7).
//! - `--trials N` — trials per cell (default 12, or 3 with `--smoke`).
//! - `--smoke` — the CI configuration: 3 trials per cell.
//! - `--json` — also write `BENCH_faults.json` next to this crate's
//!   manifest.
//! - `--check` — compare the report against the committed
//!   `BENCH_faults_baseline.json` byte for byte and fail on any drift
//!   (classification counts, per-trial outcomes, recovery rungs).

use rnnasip_bench::faults::{campaign, level_summary, to_json, CampaignConfig};
use rnnasip_bench::harness::{pinned_report, Args};

fn main() {
    let args = Args::parse();
    let (cfg, mode) = CampaignConfig::from_args(&args);

    let cells = campaign(&cfg);
    let doc = to_json(&cfg, mode, &cells);

    println!(
        "fault campaign: seed {}, {} trials/cell, {} cells",
        cfg.seed,
        cfg.trials,
        cells.len()
    );
    println!("| level | masked | sdc | crash | hang | recovered |");
    println!("|---|---|---|---|---|---|");
    let mut totals = [0u64; 5];
    for (tag, row) in level_summary(&cells) {
        println!(
            "| {tag} | {} | {} | {} | {} | {} |",
            row[0], row[1], row[2], row[3], row[4]
        );
        for (t, r) in totals.iter_mut().zip(row) {
            *t += r;
        }
    }
    println!(
        "| Σ | {} | {} | {} | {} | {} |",
        totals[0], totals[1], totals[2], totals[3], totals[4]
    );
    let detected = totals[2] + totals[3];
    println!("every detected failure recovered in-process: {detected}/{detected}");

    pinned_report(&args, "faults", &doc, None);
}
