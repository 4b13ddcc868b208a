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
//!   small `eisen2019` policy net, the single-hot-key worst case, through
//!   an `available_parallelism()`-wide pool.
//!
//! Each workload's serial and pooled samples are interleaved, and each
//! arm keeps its best sample, so a drift in host speed cannot land on
//! one arm only. Every pooled run is verified bit-identical to the
//! serial golden before its timing is accepted — the throughput numbers
//! are only meaningful if the pool changes nothing architecturally.
//!
//! Flags:
//!
//! - `--json` — also write `BENCH_serve.json` with the raw numbers for
//!   CI artifacts.
//! - `--check` — fail if the policy workload's pooled/serial req/s
//!   ratio is below [`MIN_POLICY_POOL_SPEEDUP`]. Raw req/s are
//!   machine-dependent; a *ratio measured in the same run* is portable
//!   across CI runners (the same convention as `sim_throughput`). Its
//!   samples last well under a millisecond, so on a 2-thread host the
//!   ratio also reads whether the second hardware thread happens to be
//!   free, and the gate can fail unchanged code there.

use rnnasip_bench::harness::{
    assert_gates, interleaved_best, pool_widths, time, write_report, Args, Curve, Gate,
};
use rnnasip_bench::json::Obj;
use rnnasip_core::serve::{BatchRequest, BatchResponse, EnginePool};
use rnnasip_core::{Engine, KernelBackend, NetworkRun, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use std::sync::Arc;

/// Timed samples per configuration; the best (highest-req/s) sample is
/// reported, minimizing scheduler noise.
const SAMPLES: usize = 5;

/// Requests per network in the suite workload.
const SUITE_REPS: usize = 4;

/// Requests in the single-network policy workload.
const POLICY_REQS: usize = 256;

/// Required pooled-vs-serial speedup on the suite workload at the widest
/// pool, on a host with at least 4 hardware threads.
const MIN_POOL_SPEEDUP: f64 = 3.0;

/// `--check` floor of the policy workload's pooled/serial ratio: 10%
/// under the 0.833x measured on a 1-thread host (so with 1 worker) when
/// the gate was set.
const MIN_POLICY_POOL_SPEEDUP: f64 = 0.9 * 0.833;

/// The small policy network of the hot-key workload.
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

/// Serial and pooled req/s at each of `counts` workers: arm 0
/// runs every request back-to-back on warm per-network engines (the
/// `EngineCache` shape — compile paid once, one request at a time), arm
/// `k` runs the batch on a warm pool of `counts[k - 1]` workers. The
/// arms' samples are interleaved; each keeps its best of [`SAMPLES`].
fn measure(reqs: &[Req], reps: usize, level: OptLevel, counts: &[usize]) -> Curve {
    let mut engines: Vec<Engine> = reqs
        .iter()
        .map(|req| {
            KernelBackend::new(level)
                .compile_network(&req.net)
                .unwrap()
                .engine()
        })
        .collect();
    // An untimed verification batch warms each pool (compile +
    // first-touch engines), so it is timed in the steady serving state,
    // like the serial arm's warm engines.
    let pools: Vec<EnginePool> = counts
        .iter()
        .map(|&workers| {
            let pool = EnginePool::with_workers(workers);
            verify(&pool.run_batch(build_batch(reqs, 1, level)), reqs, "warmup");
            pool
        })
        .collect();
    let batch = build_batch(reqs, reps, level);
    let best = interleaved_best(SAMPLES, 1, 1 + pools.len(), |arm| {
        if arm == 0 {
            return time(|| {
                for _ in 0..reps {
                    for (req, engine) in reqs.iter().zip(&mut engines) {
                        let run = engine.run(&req.input).unwrap();
                        assert_eq!(run.outputs, req.golden.outputs);
                    }
                }
            });
        }
        let pool = &pools[arm - 1];
        let sample = batch.clone();
        let mut response = None;
        let elapsed = time(|| response = Some(pool.run_batch(sample)));
        verify(
            &response.unwrap(),
            reqs,
            &format!("{} workers", pool.workers()),
        );
        elapsed
    });
    Curve::new(batch.len() as u64, counts, &best)
}

fn main() {
    let args = Args::parse();

    let level = OptLevel::IfmTile;
    let (hw, counts) = pool_widths();

    // Suite workload.
    let reqs = suite_reqs(level);
    let suite = measure(&reqs, SUITE_REPS, level, &counts);
    println!(
        "serve-throughput: level {} suite, {} requests, {hw} hardware threads",
        level.tag(),
        suite.requests
    );
    suite.print();

    let mut gates: Vec<Gate> = suite
        .widest_gate("suite", MIN_POOL_SPEEDUP)
        .into_iter()
        .collect();

    // Policy workload: one hot key.
    let policy_reqs: Vec<Req> = reqs.into_iter().filter(|r| r.id == POLICY_NET).collect();
    assert_eq!(policy_reqs.len(), 1, "{POLICY_NET} in suite");
    let policy = measure(&policy_reqs, POLICY_REQS, level, &[hw]);
    println!("\npolicy net ({POLICY_NET})");
    policy.print();
    if args.check {
        gates.push((
            format!("{POLICY_NET} pooled/serial at {hw} workers"),
            policy.pooled[0].1 / policy.serial_rps,
            MIN_POLICY_POOL_SPEEDUP,
        ));
    }

    if args.json {
        let policy_obj = Obj::new()
            .str("network", POLICY_NET)
            .str("level", level.tag())
            .num("requests", policy.requests)
            .float("serial_rps", Some(policy.serial_rps))
            .raw("pool", policy.json())
            .build();
        let doc = Obj::new()
            .str("bench", "serve_throughput")
            .str("level", level.tag())
            .num("samples", SAMPLES as u64)
            .num("hw_threads", hw as u64)
            .float("serial_rps", Some(suite.serial_rps))
            .raw("pool", suite.json())
            .raw("policy", policy_obj)
            .build();
        write_report("serve", &doc);
    }

    println!();
    assert_gates(gates);
}
