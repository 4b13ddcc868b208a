//! SDC-detection campaign: seeded single-bit flips into guarded kernel
//! words across every `(network, OptLevel)` cell, measuring ABFT guard
//! coverage, false-positive rate, and cycle overhead (see
//! `rnnasip_bench::sdc`).
//!
//! Flags:
//!
//! - `--seed N` — campaign master seed (default 7).
//! - `--trials N` — trials per cell (default 12, or 3 with `--smoke`).
//! - `--smoke` — the CI configuration: 3 trials per cell.
//! - `--json` — also write `BENCH_sdc.json` next to this crate's
//!   manifest.
//! - `--check` — compare the report against the committed
//!   `BENCH_sdc_baseline.json` byte for byte and fail on any drift.

use rnnasip_bench::harness::{pinned_report, Args};
use rnnasip_bench::sdc::{campaign, coverage_ppm, level_summary, to_json, CampaignConfig};

fn main() {
    let args = Args::parse();
    let (cfg, mode) = CampaignConfig::from_args(&args);

    let cells = campaign(&cfg);
    let doc = to_json(&cfg, mode, &cells);

    println!(
        "sdc campaign: seed {}, {} trials/cell, {} cells",
        cfg.seed,
        cfg.trials,
        cells.len(),
    );
    println!("| level | detected | missed | flagged benign | masked | coverage | max overhead |");
    println!("|---|---|---|---|---|---|---|");
    for (tag, row, coverage, overhead) in level_summary(&cells) {
        println!(
            "| {tag} | {} | {} | {} | {} | {}.{:04}% | {}.{:04}% |",
            row[0],
            row[1],
            row[2],
            row[3],
            coverage / 10_000,
            coverage % 10_000,
            overhead / 10_000,
            overhead % 10_000,
        );
    }
    let fp: u64 = cells.iter().map(|c| c.clean_trips).sum();
    let coverage = coverage_ppm(&cells);
    println!(
        "coverage {}.{:04}% of output-corrupting flips, {fp} false positives on the clean suite",
        coverage / 10_000,
        coverage % 10_000
    );

    pinned_report(&args, "sdc", &doc, None);
}
