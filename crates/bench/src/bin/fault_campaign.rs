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

fn arg_value(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = arg_value(&args, "--seed").unwrap_or(7);
    let mut cfg = if smoke {
        CampaignConfig::smoke(seed)
    } else {
        CampaignConfig::full(seed)
    };
    if let Some(trials) = arg_value(&args, "--trials") {
        cfg.trials = trials as u32;
    }
    let mode = if smoke { "smoke" } else { "full" };

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

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    if args.iter().any(|a| a == "--json") {
        let path = dir.join("BENCH_faults.json");
        std::fs::write(&path, doc.clone() + "\n").expect("write BENCH_faults.json");
        println!("wrote {}", path.display());
    }
    if args.iter().any(|a| a == "--check") {
        let path = dir.join("BENCH_faults_baseline.json");
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        if baseline.trim_end() != doc {
            eprintln!("baseline: {}", baseline.trim_end());
            eprintln!("current:  {doc}");
            eprintln!(
                "fault campaign drifted from the committed baseline \
                 (same seed must reproduce byte-identical results)"
            );
            std::process::exit(1);
        }
        println!("baseline check passed (byte-identical report)");
    }
}
