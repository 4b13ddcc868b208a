//! Command-line entry of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <city|city_overload|table1|suite_warm> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name and unit, a one-line JSON report with the
//! deterministic results and the run's provenance, and, last, the result
//! object `{"correct", "attempted", "failed", "metrics"}`: end-to-end
//! metrics for `--trace 0`, per-layer metrics for `--trace 1`. Traced
//! runs also write their spans as JSON lines under `benchmark/out/`.
//! Exits 1 when any output fails verification, 2 on bad arguments.

use rnnasip_benchmark::trace::write_jsonl;
use rnnasip_benchmark::{metrics_json, run, Config, Metric, Scale, Workload, DEFAULT_SEED};
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: rnnasip-benchmark --workload <city|city_overload|table1|suite_warm> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::City,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        workers: rnnasip_benchmark::POOL_WORKERS,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => cfg.seed = parse_seed(value).ok_or_else(|| format!("bad seed {value}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value} (0 to 3600)"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let cfg = match parse(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let hw_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let command = args.join(" ");
    let outcome = run(&cfg);

    println!(
        "{} seed {:#x}: {} passes, {} timed operations, {} set-ups, {} hw threads",
        cfg.workload.name(),
        cfg.seed,
        outcome.passes,
        outcome.latency_samples,
        outcome.setups,
        hw_threads
    );
    print_metrics("end to end (untraced passes)", &outcome.end_to_end);
    print_metrics("exact", &outcome.exact);
    if cfg.trace {
        print_metrics("per layer", &outcome.per_layer);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-{}.spans.jsonl", cfg.workload.name(), cfg.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| write_jsonl(&outcome.spans, BufWriter::new(f)));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    for p in &outcome.problems {
        println!("VERIFICATION FAILED: {p}");
    }

    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let problems: Vec<String> = outcome.problems.iter().map(|p| quote(p)).collect();
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"command\": {}, \"hw_threads\": {}, \
         \"passes\": {}, \"latency_samples\": {}, \"setups\": {}, \"fail_ppm\": {}, \
         \"problems\": [{}], \"end_to_end\": {}, \"exact\": {}, \"per_layer\": {}}}}}",
        cfg.workload.name(),
        cfg.seed,
        quote(&command),
        hw_threads,
        outcome.passes,
        outcome.latency_samples,
        outcome.setups,
        outcome.fail_ppm(),
        problems.join(", "),
        metrics_json(&outcome.end_to_end),
        metrics_json(&outcome.exact),
        metrics_json(&outcome.per_layer),
    );
    let metrics = if cfg.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
