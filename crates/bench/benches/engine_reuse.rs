//! Engine-reuse bench: compile-once / run-many vs recompile-per-call.
//!
//! An RRM decision loop runs the *same* network every scheduling
//! interval. The legacy path re-assembles the program and re-stages
//! every weight matrix per call; a warm [`Engine`] pays only a
//! dirty-block memory restore, input patching, and the simulation
//! itself. This bench measures the per-inference host latency of both
//! paths on a representative subset of the suite at level e and asserts
//! the headline claim: on a small policy network (eisen2019) the reused
//! engine is at least 5x faster per inference. The two paths' samples
//! are interleaved and each reports its fastest.
//!
//! Pass `--json` to also write `BENCH_engine.json` (hand-rolled JSON,
//! [`rnnasip_bench::json`]) with the raw numbers for CI artifacts.

use rnnasip_bench::harness::{assert_gates, interleaved_best, time, write_report, Args};
use rnnasip_bench::json::{array, Obj};
use rnnasip_core::{Engine, KernelBackend, OptLevel};
use rnnasip_rrm::BenchmarkNet;

/// Timed samples per path; the fastest is reported.
const SAMPLES: usize = 3;

/// Inference iterations per timed sample.
const ITERS: u32 = 8;

/// Networks measured: a tiny MLP (the headline case), a mid-size MLP,
/// a large MLP, and an LSTM (restore cost includes the state buffers).
const NETS: [&str; 4] = ["eisen2019", "ahmed2019", "wang2018", "challita2017"];

/// The reused path must beat recompile-per-call by at least this factor
/// on the small policy network, where compile cost dominates.
const MIN_SPEEDUP: f64 = 5.0;

struct Row {
    id: &'static str,
    compile_ns: u64,
    fresh_ns: f64,
    reused_ns: f64,
    restored_bytes: u64,
    image_bytes: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.fresh_ns / self.reused_ns
    }
}

fn measure(net: &BenchmarkNet, level: OptLevel) -> Row {
    let input = net.input();

    let compiled = KernelBackend::new(level)
        .compile_network(&net.network)
        .unwrap_or_else(|e| panic!("{}: {e}", net.id));
    let compile_ns = compiled.compile_nanos();
    let image_bytes = compiled.image().len() as u64;

    // Recompile-per-call (arm 0) is the legacy one-shot path, program
    // assembly and weight staging paid on every inference. Compile-once
    // (arm 1) is one warm engine: dirty-restore + patch + run per call.
    let mut engine = Engine::new(compiled);
    let best = interleaved_best(SAMPLES, 1, 2, |arm| {
        time(|| {
            for _ in 0..ITERS {
                let run = match arm {
                    0 => KernelBackend::new(level).run_network(&net.network, &input),
                    _ => engine.run(&input),
                };
                run.unwrap_or_else(|e| panic!("{}: {e}", net.id));
            }
        })
    });
    let [fresh_ns, reused_ns] = [best[0], best[1]].map(|d| d.as_nanos() as f64 / f64::from(ITERS));
    let restored_bytes = engine.last_restored_bytes() as u64;

    Row {
        id: net.id,
        compile_ns,
        fresh_ns,
        reused_ns,
        restored_bytes,
        image_bytes,
    }
}

fn main() {
    let args = Args::parse();
    let level = OptLevel::IfmTile;
    let suite = rnnasip_rrm::suite();

    println!(
        "engine-reuse: per-inference host latency, level {} (best of {SAMPLES} x {ITERS} iters)",
        level.tag()
    );
    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>9} {:>14}",
        "network", "compile us", "recompile us", "reused us", "speedup", "restored KiB"
    );

    let mut rows = Vec::new();
    for id in NETS {
        let net = suite
            .iter()
            .find(|n| n.id == id)
            .unwrap_or_else(|| panic!("{id} not in suite"));
        let row = measure(net, level);
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>14.1} {:>8.1}x {:>14.1}",
            row.id,
            row.compile_ns as f64 / 1e3,
            row.fresh_ns / 1e3,
            row.reused_ns / 1e3,
            row.speedup(),
            row.restored_bytes as f64 / 1024.0
        );
        rows.push(row);
    }

    let eisen = rows
        .iter()
        .find(|r| r.id == "eisen2019")
        .expect("eisen2019 measured");
    println!();
    assert_gates([(
        "eisen2019 reused engine over recompile-per-call".into(),
        eisen.speedup(),
        MIN_SPEEDUP,
    )]);

    if args.json {
        let items = rows.iter().map(|r| {
            Obj::new()
                .str("network", r.id)
                .str("level", level.tag())
                .num("compile_ns", r.compile_ns)
                .float("recompile_per_call_ns", Some(r.fresh_ns))
                .float("reused_ns", Some(r.reused_ns))
                .float("speedup", Some(r.speedup()))
                .num("restored_bytes", r.restored_bytes)
                .num("image_bytes", r.image_bytes)
                .build()
        });
        let doc = Obj::new()
            .str("bench", "engine_reuse")
            .num("samples", SAMPLES as u64)
            .num("iters", u64::from(ITERS))
            .raw("rows", array(items))
            .build();
        write_report("engine", &doc);
    }
}
