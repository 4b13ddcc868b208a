//! Serving-layer throughput bench: requests per second through the
//! [`EnginePool`] (worker threads over one FIFO, engines lent by its
//! cache) versus the serial warm-engine path.
//!
//! Two workloads, both at level e (the paper's fully-optimized kernels):
//!
//! - **suite** — a batch over the full 10-network RRM suite
//!   ([`SUITE_REPS`] requests per network), the base-station-controller
//!   shape: many users, several policies, one scheduling tick. Reported
//!   as a scaling curve at 1, 2, 4, … and `available_parallelism()`
//!   workers (worker counts above the hardware thread count are
//!   skipped); with ≥ 4 hardware threads the pooled path must beat
//!   serial by [`MIN_POOL_SPEEDUP`]x at the widest configuration
//!   (asserted).
//! - **policy** — [`POLICY_REQS`] back-to-back requests against the
//!   small `eisen2019` policy net, the single-hot-key worst case the
//!   regression gate is keyed on. Its serial and pooled samples are
//!   interleaved, alternating which arm runs first, and each arm keeps
//!   its best sample, so a drift in host speed cannot land on one arm
//!   only.
//!
//! Every pooled run is verified bit-identical to the serial golden
//! before its timing is accepted — the throughput numbers are only
//! meaningful if the pool changes nothing architecturally.
//!
//! Flags:
//!
//! - `--json` — also write `BENCH_serve.json` with the raw numbers for
//!   CI artifacts.
//! - `--check` — compare against the committed
//!   `BENCH_serve_baseline.json` and fail on a >10% regression of the
//!   pooled-vs-serial req/s ratio on the policy workload. Raw req/s are
//!   machine-dependent; the *ratio measured on the same host* is
//!   portable across CI runners (the same convention as
//!   `sim_throughput`).

use rnnasip_bench::json::{array, Obj};
use rnnasip_core::serve::{BatchRequest, BatchResponse, EnginePool};
use rnnasip_core::{Engine, KernelBackend, NetworkRun, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use std::sync::Arc;
use std::time::Instant;

/// Timed samples per configuration; the best (highest-req/s) sample is
/// reported, minimizing scheduler noise.
const SAMPLES: usize = 5;

/// Requests per network in the suite workload.
const SUITE_REPS: usize = 4;

/// Requests in the single-network policy workload.
const POLICY_REQS: usize = 256;

/// With at least this many hardware threads available, the pooled suite
/// workload must beat the serial path by [`MIN_POOL_SPEEDUP`]x.
const MIN_PARALLELISM_FOR_ASSERT: usize = 4;

/// Required pooled-vs-serial speedup on the suite workload when the
/// host has [`MIN_PARALLELISM_FOR_ASSERT`] hardware threads.
const MIN_POOL_SPEEDUP: f64 = 3.0;

/// `--check` fails when the policy-workload speedup falls below this
/// fraction of the committed baseline's (>10% regression).
const MAX_REGRESSION: f64 = 0.9;

/// The small policy network the regression gate is keyed on.
const POLICY_NET: &str = "eisen2019";

/// One request template: the shared network, its input window, and the
/// serial golden run every pooled answer must reproduce bit-for-bit.
struct Req {
    id: &'static str,
    net: Arc<Network>,
    input: Vec<Vec<Q3p12>>,
    golden: NetworkRun,
}

/// The full suite as request templates with serial goldens.
fn suite_reqs(level: OptLevel) -> Vec<Req> {
    rnnasip_rrm::suite()
        .into_iter()
        .map(|bench| {
            let input = bench.input();
            let golden = KernelBackend::new(level)
                .compile_network(&bench.network)
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", bench.id))
                .engine()
                .run(&input)
                .unwrap();
            Req {
                id: bench.id,
                net: Arc::new(bench.network),
                input,
                golden,
            }
        })
        .collect()
}

/// `reps` requests per template, templates interleaved (the arrival
/// order a round-robin scheduler would produce).
fn build_batch(reqs: &[Req], reps: usize, level: OptLevel) -> BatchRequest {
    let mut batch = BatchRequest::new();
    for _ in 0..reps {
        for req in reqs {
            batch.push(req.net.clone(), level, req.input.clone());
        }
    }
    batch
}

/// Asserts every pooled answer matches its template's serial golden.
fn verify(response: &BatchResponse, reqs: &[Req], label: &str) {
    assert!(response.all_ok(), "{label}: a request failed");
    for (slot, outcome) in response.outcomes().iter().enumerate() {
        let golden = &reqs[slot % reqs.len()].golden;
        let run = outcome.result.as_ref().unwrap();
        assert_eq!(run.outputs, golden.outputs, "{label}: slot {slot} outputs");
        assert_eq!(
            run.report.cycles(),
            golden.report.cycles(),
            "{label}: slot {slot} cycles"
        );
    }
}

/// Warm per-network engines for the serial arm (the `EngineCache`
/// shape — compile paid once, rewind amortized, but one request at a
/// time).
fn serial_engines(reqs: &[Req], level: OptLevel) -> Vec<Engine> {
    reqs.iter()
        .map(|req| {
            KernelBackend::new(level)
                .compile_network(&req.net)
                .unwrap()
                .engine()
        })
        .collect()
}

/// Seconds for one serial sample: every request of the batch run
/// back-to-back on `engines`.
fn serial_secs(engines: &mut [Engine], reqs: &[Req], reps: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        for (req, engine) in reqs.iter().zip(&mut *engines) {
            let run = engine.run(&req.input).unwrap();
            assert_eq!(run.outputs, req.golden.outputs);
        }
    }
    t.elapsed().as_secs_f64()
}

/// A `workers`-wide pool, warmed (compile + first-touch engines) by an
/// untimed verification batch, so its timing measures the steady
/// serving state, matching the serial arm's warm engines.
fn warm_pool(reqs: &[Req], level: OptLevel, workers: usize) -> EnginePool {
    let pool = EnginePool::with_workers(workers);
    let warm = pool.run_batch(build_batch(reqs, 1, level));
    verify(&warm, reqs, &format!("{workers}-worker warmup"));
    pool
}

/// Seconds for one pooled sample of `batch`, verifying bit-identity
/// before the timing is accepted.
fn pooled_secs(pool: &EnginePool, batch: &BatchRequest, reqs: &[Req]) -> f64 {
    let sample = batch.clone();
    let t = Instant::now();
    let response = pool.run_batch(sample);
    let secs = t.elapsed().as_secs_f64();
    verify(&response, reqs, &format!("{} workers", pool.workers()));
    secs
}

/// Best-of-[`SAMPLES`] serial req/s.
fn serial_rps(reqs: &[Req], reps: usize, level: OptLevel) -> f64 {
    let mut engines = serial_engines(reqs, level);
    let best = (0..SAMPLES)
        .map(|_| serial_secs(&mut engines, reqs, reps))
        .fold(f64::MAX, f64::min);
    (reqs.len() * reps) as f64 / best
}

/// Best-of-[`SAMPLES`] pooled req/s at `workers`.
fn pooled_rps(reqs: &[Req], reps: usize, level: OptLevel, workers: usize) -> f64 {
    let pool = warm_pool(reqs, level, workers);
    let batch = build_batch(reqs, reps, level);
    let best = (0..SAMPLES)
        .map(|_| pooled_secs(&pool, &batch, reqs))
        .fold(f64::MAX, f64::min);
    batch.len() as f64 / best
}

/// Serial and pooled req/s for the gated policy workload, their samples
/// interleaved (alternating which arm runs first) so host-speed drift
/// hits both arms alike; each arm reports its best sample.
fn interleaved_rps(reqs: &[Req], reps: usize, level: OptLevel, workers: usize) -> (f64, f64) {
    let mut engines = serial_engines(reqs, level);
    let pool = warm_pool(reqs, level, workers);
    let batch = build_batch(reqs, reps, level);
    let (mut serial, mut pooled) = (f64::MAX, f64::MAX);
    for sample in 0..SAMPLES {
        for pooled_turn in [sample % 2 == 1, sample % 2 == 0] {
            if pooled_turn {
                pooled = pooled.min(pooled_secs(&pool, &batch, reqs));
            } else {
                serial = serial.min(serial_secs(&mut engines, reqs, reps));
            }
        }
    }
    let total = batch.len() as f64;
    (total / serial, total / pooled)
}

/// Pulls the policy speedup out of a baseline document — minimal field
/// extraction for our own flat emitter's output: the `"policy"` object
/// and the first `"speedup":` after it.
fn extract_policy_speedup(text: &str) -> Option<f64> {
    let rest = &text[text.find("\"policy\"")?..];
    let num = &rest[rest.find("\"speedup\":")? + "\"speedup\":".len()..];
    let end = num
        .find(|c: char| !(c.is_ascii_digit() || ".-+e".contains(c)))
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let check = std::env::args().any(|a| a == "--check");

    let level = OptLevel::IfmTile;
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // Suite workload.
    let reqs = suite_reqs(level);
    let n_suite = reqs.len() * SUITE_REPS;
    let serial = serial_rps(&reqs, SUITE_REPS, level);
    println!(
        "serve-throughput: level {} suite, {n_suite} requests, {hw} hardware threads",
        level.tag()
    );
    println!(
        "{:<16} {:>10} {:>12} {:>9}",
        "config", "requests", "req/s", "speedup"
    );
    println!(
        "{:<16} {:>10} {:>12.0} {:>8.2}x",
        "serial", n_suite, serial, 1.0
    );

    // Scaling curve: powers of two up to the hardware thread count,
    // plus the full width itself (1, 2, 4, …, N).
    let mut counts: Vec<usize> = std::iter::successors(Some(1usize), |w| w.checked_mul(2))
        .take_while(|&w| w <= hw)
        .collect();
    counts.push(hw);
    counts.sort_unstable();
    counts.dedup();
    let suite_rows: Vec<(usize, f64)> = counts
        .iter()
        .map(|&workers| {
            let rps = pooled_rps(&reqs, SUITE_REPS, level, workers);
            println!(
                "{:<16} {:>10} {:>12.0} {:>8.2}x",
                format!("pool x{workers}"),
                n_suite,
                rps,
                rps / serial
            );
            (workers, rps)
        })
        .collect();

    if hw >= MIN_PARALLELISM_FOR_ASSERT {
        let (workers, rps) = *suite_rows.last().unwrap();
        let speedup = rps / serial;
        assert!(
            speedup >= MIN_POOL_SPEEDUP,
            "pooled suite speedup regressed: {speedup:.2}x at {workers} workers \
             < {MIN_POOL_SPEEDUP}x (hw threads: {hw})"
        );
    } else {
        println!(
            "(< {MIN_PARALLELISM_FOR_ASSERT} hardware threads: suite speedup floor not asserted)"
        );
    }

    // Policy workload: one hot key.
    let policy_reqs: Vec<Req> = reqs.into_iter().filter(|r| r.id == POLICY_NET).collect();
    assert_eq!(policy_reqs.len(), 1, "{POLICY_NET} in suite");
    let (policy_serial, policy_pooled) = interleaved_rps(&policy_reqs, POLICY_REQS, level, hw);
    let policy_speedup = policy_pooled / policy_serial;
    println!(
        "\npolicy net ({POLICY_NET}, {POLICY_REQS} requests): serial {policy_serial:.0} req/s, \
         pool x{hw} {policy_pooled:.0} req/s, {policy_speedup:.2}x"
    );

    if json {
        let items = suite_rows.iter().map(|&(workers, rps)| {
            Obj::new()
                .num("workers", workers as u64)
                .num("requests", n_suite as u64)
                .float("rps", Some(rps))
                .float("speedup", Some(rps / serial))
                .build()
        });
        let policy_obj = Obj::new()
            .str("network", POLICY_NET)
            .str("level", level.tag())
            .num("requests", POLICY_REQS as u64)
            .num("workers", hw as u64)
            .float("serial_rps", Some(policy_serial))
            .float("pooled_rps", Some(policy_pooled))
            .float("speedup", Some(policy_speedup))
            .build();
        let doc = Obj::new()
            .str("bench", "serve_throughput")
            .str("level", level.tag())
            .num("samples", SAMPLES as u64)
            .num("hw_threads", hw as u64)
            .float("serial_rps", Some(serial))
            .raw("pool", array(items))
            .raw("policy", policy_obj)
            .build();
        std::fs::write("BENCH_serve.json", doc + "\n").expect("write BENCH_serve.json");
        println!("wrote BENCH_serve.json");
    }

    if check {
        let baseline = std::fs::read_to_string("BENCH_serve_baseline.json")
            .expect("read BENCH_serve_baseline.json");
        let baseline_speedup =
            extract_policy_speedup(&baseline).expect("policy speedup in baseline");
        let floor = MAX_REGRESSION * baseline_speedup;
        assert!(
            policy_speedup >= floor,
            "serving regression on {POLICY_NET}: pooled/serial {policy_speedup:.2}x \
             < {floor:.2}x (90% of committed baseline {baseline_speedup:.2}x)"
        );
        println!(
            "check: {POLICY_NET} pooled/serial {policy_speedup:.2}x vs baseline \
             {baseline_speedup:.2}x — ok"
        );
    }
}
