//! The harness the report binaries and `harness = false` benches share:
//! their flags ([`Args`]), their `BENCH_<name>.json` reports and the
//! `--check` compares against committed baselines ([`pinned_report`]),
//! the gates on measured floors ([`assert_gates`]), serving scaling
//! curves ([`Curve`]), and two timing loops:
//!
//! - [`interleaved_best`] times competing arms whose ratio is gated: the
//!   arms take turns, so a drift in host speed lands on all of them.
//! - [`bench()`] calibrates a batch size and reports per-iteration times,
//!   the core loop of the external benchmarking framework it replaced
//!   (unavailable in offline builds).
//!
//! Reports live next to this crate's manifest whatever directory a
//! binary runs from.

use crate::json::{array, Obj};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The flags every binary and bench understands; each reads the ones it
/// needs. Other arguments (such as the `--bench` cargo passes) are
/// ignored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--json`: write (or print) the machine-readable report.
    pub json: bool,
    /// `--check`: compare with the committed baseline, or gate the
    /// target's same-run ratio floors.
    pub check: bool,
    /// `--smoke`: the CI-sized configuration.
    pub smoke: bool,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--trials N`.
    pub trials: Option<u32>,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// If `--seed` or `--trials` is not followed by a number.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        fn value<T: FromStr>(flag: &str, value: Option<String>) -> T {
            value
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} expects a number"))
        }
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => out.json = true,
                "--check" => out.check = true,
                "--smoke" => out.smoke = true,
                "--seed" => out.seed = Some(value(&arg, args.next())),
                "--trials" => out.trials = Some(value(&arg, args.next())),
                _ => {}
            }
        }
        out
    }
}

/// `BENCH_<name>.json` in this crate's directory.
fn report_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("BENCH_{name}.json"))
}

/// Writes `doc` and a newline to `BENCH_<name>.json`.
pub fn write_report(name: &str, doc: &str) {
    let path = report_path(name);
    std::fs::write(&path, format!("{doc}\n"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// A pinned report: `--json` writes it, and `--check` compares it with
/// the committed `BENCH_<name>_baseline.json` — the whole document byte
/// for byte, or, given `section`, only that key's array or object value.
///
/// # Panics
///
/// On any difference, printing both sides: the pinned records are
/// deterministic, so a difference is a change of behaviour.
pub fn pinned_report(args: &Args, name: &str, doc: &str, section: Option<&str>) {
    if args.json {
        write_report(name, doc);
    }
    if !args.check {
        return;
    }
    let path = report_path(&format!("{name}_baseline"));
    let baseline =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if let Err(diff) = compare(&baseline, &format!("{doc}\n"), section) {
        panic!("{name} drifted from {}\n{diff}", path.display());
    }
    let what = section.unwrap_or("report");
    println!("check: {what} byte-identical to {}", path.display());
}

/// `Ok` when `current` equals `baseline` byte for byte, or, given
/// `section`, when the two documents' `"section":` values do. Otherwise
/// the compared text of both, one per line.
fn compare(baseline: &str, current: &str, section: Option<&str>) -> Result<(), String> {
    let pick = |doc| match section {
        None => Some(doc),
        Some(key) => section_of(doc, key),
    };
    match (pick(baseline), pick(current)) {
        (Some(b), Some(c)) if b == c => Ok(()),
        (b, c) => Err(format!(
            "baseline: {}\ncurrent:  {}",
            b.unwrap_or("(no such section)").trim_end(),
            c.unwrap_or("(no such section)").trim_end()
        )),
    }
}

/// The first `"key":[…]` or `"key":{…}` in `doc`, key included. Brackets
/// are counted, not parsed, so the value's strings must hold none.
fn section_of<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let rest = &doc[doc.find(&format!("\"{key}\":"))?..];
    let mut depth = 0usize;
    for (i, b) in rest.bytes().enumerate() {
        match b {
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// A gated floor: what is measured, its value and the floor it must
/// reach.
pub type Gate = (String, f64, f64);

/// Prints every gate with its verdict, then fails if any is below its
/// floor, so one run reports all of them.
///
/// # Panics
///
/// If a gate's value is below its floor.
pub fn assert_gates(gates: impl IntoIterator<Item = Gate>) {
    let mut failed = Vec::new();
    for (what, value, floor) in gates {
        let ok = value >= floor;
        println!(
            "gate: {what}: {value:.2}x >= {floor:.2}x — {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failed.push(what);
        }
    }
    assert!(failed.is_empty(), "gates failed: {failed:?}");
}

/// Interleaved best-of timing of `arms` competing measurements.
///
/// Runs `samples` rounds. In each round every arm's sample is the sum of
/// `reps` calls of `run(arm)`, and the calls go one per arm in turn,
/// each turn starting one arm later than the one before, so with two
/// arms they alternate which runs first and a drift in host speed lands
/// on every arm alike. Returns each arm's fastest sample, in arm order.
pub fn interleaved_best(
    samples: usize,
    reps: usize,
    arms: usize,
    mut run: impl FnMut(usize) -> Duration,
) -> Vec<Duration> {
    let mut best = vec![Duration::MAX; arms];
    for round in 0..samples {
        let mut sums = vec![Duration::ZERO; arms];
        for rep in 0..reps {
            for k in 0..arms {
                let arm = (round * reps + rep + k) % arms;
                sums[arm] += run(arm);
            }
        }
        for (best, sum) in best.iter_mut().zip(sums) {
            *best = (*best).min(sum);
        }
    }
    best
}

/// Wall time of one call of `f`. The result is kept from the optimizer
/// and dropped after the clock stops.
pub fn time<R>(f: impl FnOnce() -> R) -> Duration {
    let t = Instant::now();
    let result = black_box(f());
    let elapsed = t.elapsed();
    drop(result);
    elapsed
}

/// The host's hardware threads, and the pool widths a scaling curve
/// covers: the powers of two below that count and the count itself
/// (1, 2, 4, …, N).
pub fn pool_widths() -> (usize, Vec<usize>) {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut widths: Vec<usize> = std::iter::successors(Some(1usize), |w| w.checked_mul(2))
        .take_while(|&w| w < hw)
        .collect();
    widths.push(hw);
    (hw, widths)
}

/// The fewest hardware threads on which a pool's parallel speedup is
/// gated.
const MIN_PARALLELISM_FOR_ASSERT: usize = 4;

/// A serving scaling curve: requests/s of a serial arm and of a pool at
/// each width.
pub struct Curve {
    /// Requests per sample.
    pub requests: u64,
    /// The serial arm's requests/s.
    pub serial_rps: f64,
    /// `(workers, requests/s)` per pool, in width order.
    pub pooled: Vec<(usize, f64)>,
}

impl Curve {
    /// The curve of [`interleaved_best`] times whose arm 0 is the serial
    /// arm and arm `k` the pool of `widths[k - 1]` workers.
    pub fn new(requests: u64, widths: &[usize], best: &[Duration]) -> Self {
        let rps = |d: &Duration| requests as f64 / d.as_secs_f64();
        Self {
            requests,
            serial_rps: rps(&best[0]),
            pooled: widths
                .iter()
                .zip(&best[1..])
                .map(|(&w, d)| (w, rps(d)))
                .collect(),
        }
    }

    /// Prints the serial row and each pool's row with its speedup.
    pub fn print(&self) {
        println!(
            "{:<12} {:>10} {:>12} {:>9}",
            "config", "requests", "req/s", "speedup"
        );
        let rows = std::iter::once(("serial".to_string(), self.serial_rps));
        let pools = self
            .pooled
            .iter()
            .map(|&(w, rps)| (format!("pool x{w}"), rps));
        for (config, rps) in rows.chain(pools) {
            let speedup = rps / self.serial_rps;
            println!(
                "{config:<12} {:>10} {rps:>12.0} {speedup:>8.2}x",
                self.requests
            );
        }
    }

    /// The gate on the widest pool's speedup over serial, or `None`
    /// (noted on stdout) below 4 hardware threads, where a pool's
    /// parallel speedup cannot show.
    pub fn widest_gate(&self, what: &str, floor: f64) -> Option<Gate> {
        let (workers, rps) = *self.pooled.last()?;
        if workers < MIN_PARALLELISM_FOR_ASSERT {
            println!("(< {MIN_PARALLELISM_FOR_ASSERT} hardware threads: {what} speedup floor not asserted)");
            return None;
        }
        let what = format!("{what} pooled/serial at {workers} workers");
        Some((what, rps / self.serial_rps, floor))
    }

    /// The pools' rows as a JSON array.
    pub fn json(&self) -> String {
        array(self.pooled.iter().map(|&(workers, rps)| {
            Obj::new()
                .num("workers", workers as u64)
                .num("requests", self.requests)
                .float("rps", Some(rps))
                .float("speedup", Some(rps / self.serial_rps))
                .build()
        }))
    }
}

/// Number of timed samples per benchmark.
const SAMPLES: usize = 10;

/// Target wall time for one timed sample during calibration.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Times `f`, printing and returning its median ns per iteration.
///
/// The batch size doubles until one batch runs for at least 20 ms, then
/// 10 batches are timed. The reported
/// unit is always ns per single iteration of `f`.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if t.elapsed() >= TARGET_SAMPLE || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median_ns = per_iter[SAMPLES / 2];
    println!(
        "{name:<36} {median_ns:>12.0} ns/iter  ({:.0} .. {:.0}, {SAMPLES} x {batch} iters)",
        per_iter[0],
        per_iter[SAMPLES - 1]
    );
    median_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let median_ns = bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(median_ns > 0.0);
    }

    #[test]
    fn flags_parse_and_ignore_the_rest() {
        let args = |s: &str| Args::from_args(s.split_whitespace().map(String::from));
        assert_eq!(
            args("--bench --smoke --seed 9 --json --trials 4 --check"),
            Args {
                json: true,
                check: true,
                smoke: true,
                seed: Some(9),
                trials: Some(4),
            }
        );
        assert_eq!(args("--bench"), Args::default());
    }

    #[test]
    #[should_panic(expected = "--seed expects a number")]
    fn a_seed_without_a_number_is_rejected() {
        Args::from_args(["--seed".to_string(), "x".to_string()]);
    }

    #[test]
    fn estimator_alternates_arms_and_keeps_each_minimum() {
        // Arm 0 yields 5, 3, 4 ms; arm 1 yields 7, 9, 6 ms.
        let times = [[5, 3, 4], [7, 9, 6]];
        let mut calls: Vec<usize> = Vec::new();
        let best = interleaved_best(3, 1, 2, |arm| {
            let n = calls.iter().filter(|&&a| a == arm).count();
            calls.push(arm);
            Duration::from_millis(times[arm][n])
        });
        assert_eq!(calls, [0, 1, 1, 0, 0, 1]);
        assert_eq!(best, [Duration::from_millis(3), Duration::from_millis(6)]);
    }

    #[test]
    fn estimator_rotates_the_first_of_three_arms() {
        let mut calls = Vec::new();
        let best = interleaved_best(3, 1, 3, |arm| {
            calls.push(arm);
            Duration::from_nanos(arm as u64)
        });
        assert_eq!(calls, [0, 1, 2, 1, 2, 0, 2, 0, 1]);
        assert_eq!(best.len(), 3);
    }

    #[test]
    fn estimator_sums_reps_run_by_run_and_keeps_each_minimum() {
        let mut calls = Vec::new();
        let best = interleaved_best(2, 2, 2, |arm| {
            calls.push(arm);
            // Arm 1's runs grow 1 ms per call; arm 0's stay at 2 ms.
            let nth = calls.iter().filter(|&&a| a == arm).count() as u64;
            Duration::from_millis(if arm == 0 { 2 } else { nth })
        });
        // Each run alternates the arm that goes first, across rounds too.
        assert_eq!(calls, [0, 1, 1, 0, 0, 1, 1, 0]);
        // Round sums: arm 0 is 4 ms twice; arm 1 is 1 + 2 then 3 + 4 ms.
        assert_eq!(best, [Duration::from_millis(4), Duration::from_millis(3)]);
    }

    #[test]
    fn exact_compare_fails_on_one_byte_and_prints_both() {
        let doc = "{\"cells\":[{\"masked\":3}]}\n";
        assert_eq!(compare(doc, doc, None), Ok(()));
        let drifted = "{\"cells\":[{\"masked\":4}]}\n";
        let diff = compare(doc, drifted, None).unwrap_err();
        assert!(
            diff.contains("baseline: {\"cells\":[{\"masked\":3}]}"),
            "{diff}"
        );
        assert!(
            diff.contains("current:  {\"cells\":[{\"masked\":4}]}"),
            "{diff}"
        );
        assert!(compare(doc, doc.trim_end(), None).is_err());
    }

    #[test]
    fn section_compare_ignores_fields_outside_the_section() {
        let baseline = "{\"bench\":\"t\",\"virtual\":[{\"servers\":1,\"classes\":[{\"p50\":3}]}],\
                        \"wall\":[{\"rps\":100.000}]}";
        let rerun = baseline.replace("100.000", "87.500");
        assert_eq!(compare(baseline, &rerun, Some("virtual")), Ok(()));
        assert!(compare(baseline, &rerun, None).is_err());
        let drifted = baseline.replace("\"p50\":3", "\"p50\":4");
        let diff = compare(baseline, &drifted, Some("virtual")).unwrap_err();
        assert!(
            diff.contains("\"p50\":3") && diff.contains("\"p50\":4"),
            "{diff}"
        );
        assert!(!diff.contains("wall"), "{diff}");
        assert!(compare(baseline, "{\"wall\":[]}", Some("virtual")).is_err());
    }

    #[test]
    fn section_of_balances_nested_brackets() {
        let doc = "{\"virtual\":[{\"servers\":1,\"classes\":[{\"p50\":3}]}],\"wall\":[]}";
        assert_eq!(
            section_of(doc, "virtual"),
            Some("\"virtual\":[{\"servers\":1,\"classes\":[{\"p50\":3}]}]")
        );
        assert_eq!(section_of(doc, "policy"), None);
    }
}
