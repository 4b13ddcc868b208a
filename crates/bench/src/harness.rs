//! A small self-contained timing harness for the `harness = false`
//! bench targets.
//!
//! The external benchmarking framework this replaced is unavailable in
//! offline builds; the benches here need only its core loop — calibrate
//! a batch size, take repeated samples, report per-iteration times —
//! which this module provides without dependencies. Results print as
//! one line per benchmark: median ns/iteration with the min..max range.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-iteration timing of one benchmark.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed sample.
    pub batch: u64,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample, ns/iteration.
    pub min_ns: f64,
    /// Slowest sample, ns/iteration.
    pub max_ns: f64,
}

impl Measurement {
    /// Median iterations per second.
    pub fn per_second(&self) -> f64 {
        if self.median_ns == 0.0 {
            0.0
        } else {
            1e9 / self.median_ns
        }
    }
}

/// Number of timed samples per benchmark.
const SAMPLES: usize = 10;

/// Target wall time for one timed sample during calibration.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Times `f`, printing and returning the measurement.
///
/// The batch size doubles until one batch runs for at least 20 ms, then
/// 10 batches are timed. The reported
/// unit is always ns per single iteration of `f`.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
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
    let m = Measurement {
        name: name.to_string(),
        batch,
        median_ns: per_iter[SAMPLES / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[SAMPLES - 1],
    };
    println!(
        "{:<36} {:>12.0} ns/iter  ({:.0} .. {:.0}, {} x {} iters)",
        m.name, m.median_ns, m.min_ns, m.max_ns, SAMPLES, m.batch
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let m = bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.per_second() > 0.0);
    }
}
