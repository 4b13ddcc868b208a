//! Simulator-throughput bench: how fast does the ISS itself run?
//!
//! Reports simulated MIPS (millions of simulated instructions per host
//! second) for the full Table I suite, on *all three* execution tiers:
//! stepping (`Engine::run_reference`: one generic micro-op at a time,
//! the bit-identity reference), the micro-op path with its bulk loop
//! and straight-run runners (a `CompiledNetwork::without_shortcuts`
//! engine), and the kernel-shortcut tier that executes recognized
//! FC/LSTM/conv inner loops as native Rust (the default
//! `CompiledNetwork::engine`). The architectural outputs (cycle counts,
//! histograms) are identical by construction and pinned by the
//! differential tests, so this bench tracks host speed only; the
//! `bulk/step` column is the bulk runners' payoff over stepping and the
//! `sc/uop` column is the shortcut tier's payoff on top of them.
//!
//! Flags:
//!
//! - `--json` — also write `BENCH_sim.json` (hand-rolled JSON,
//!   [`rnnasip_bench::json`]) with the raw numbers for CI artifacts.
//! - `--check` — compare against the committed
//!   `BENCH_sim_baseline.json` and fail on a >10% regression of the
//!   bulk-over-stepping speedup on the small policy network. Raw MIPS
//!   are machine-dependent, so the regression gate is a *ratio measured
//!   on the same host*, which is portable across CI runners.
//!
//! Every gate is evaluated and printed before the bench fails on any.

use rnnasip_bench::json::{array, Obj};
use rnnasip_bench::run_suite_split;
use rnnasip_core::{CompileStages, KernelBackend, OptLevel};
use rnnasip_isa::MnemonicId;
use rnnasip_sim::Stats;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per level; the best (highest-MIPS) sample is reported,
/// minimizing scheduler noise as in any min-of-N timing harness.
const SAMPLES: usize = 5;

/// The bulk runners must beat stepping by at least this factor on the
/// O3 kernels (levels d and e), whose hardware-loop bodies the
/// specialized block runner executes in bulk. Measured 1.83–2.59× over
/// 12 runs on a 2-thread host; with the runners off it reads ~1.0×.
const MIN_O3_BULK_SPEEDUP: f64 = 1.5;

/// The bulk runners must beat stepping by at least this factor on the
/// RV32IMC baseline (level a), whose software loops — closed by backward
/// branches — the block runner executes in bulk. Measured 2.50–2.89×
/// over 12 runs on a 2-thread host; with the runners off it reads ~1.0×.
const MIN_BASELINE_BULK_SPEEDUP: f64 = 2.0;

/// The shortcut tier must beat the micro-op path by at least this factor
/// on the O3 kernels (levels d and e), where the suite's inner loops are
/// near-fully covered by installed kernel regions. Measured serially on
/// warm, reused engines (same protocol as the bulk/stepping ratio).
const MIN_SHORTCUT_SPEEDUP: f64 = 10.0;

/// `--check` fails when the policy-network speedup falls below this
/// fraction of the committed baseline's (>10% regression).
const MAX_REGRESSION: f64 = 0.9;

/// The small policy network the regression gate is keyed on.
const POLICY_NET: &str = "eisen2019";

/// Runs aggregated per policy sample: one inference of [`POLICY_NET`] is
/// only a few hundred instructions (~tens of microseconds), which is
/// timer-noise territory, so each sample sums the simulate time of this
/// many back-to-back runs.
const POLICY_REPS: usize = 32;

struct LevelRow {
    tag: &'static str,
    instrs: u64,
    stepping_mips: f64,
    uop_mips: f64,
    shortcut_mips: f64,
    wall_mips: f64,
    wall_ms: f64,
    compile_ms: f64,
    /// Serial per-stage compile time: each network's fastest of
    /// [`SAMPLES`] compiles, summed over the suite.
    stages: CompileStages,
    /// Per network: `(id, generic, bulk, shortcut)` instructions of one
    /// canonical run on a fresh engine.
    tiers: Vec<(&'static str, u64, u64, u64)>,
}

impl LevelRow {
    fn bulk_speedup(&self) -> f64 {
        self.uop_mips / self.stepping_mips
    }

    fn shortcut_speedup(&self) -> f64 {
        self.shortcut_mips / self.uop_mips
    }
}

fn measure_level(level: OptLevel) -> LevelRow {
    // Wall-clock and compile columns come from the parallel suite runner
    // — the shape users actually invoke. They are informational only:
    // parallel wall time is scheduler-noisy, so nothing asserts on it.
    let mut wall_mips = 0.0f64;
    let mut wall_ms = f64::MAX;
    let mut compile_ms = f64::MAX;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let (compile_nanos, report) = run_suite_split(level);
        let wall = t.elapsed();
        wall_mips = wall_mips.max(report.instrs() as f64 / wall.as_secs_f64() / 1e6);
        wall_ms = wall_ms.min(wall.as_secs_f64() * 1e3);
        compile_ms = compile_ms.min(compile_nanos as f64 / 1e6);
    }

    // The stepping/uop/shortcut columns feed the asserted speedup ratios,
    // so they are measured serially (no par_map CPU contention) on one
    // reused engine per network and tier, with the tiers' samples
    // interleaved so scheduler and thermal drift hit all equally.
    // Best-of-SAMPLES per network and tier, summed across the suite.
    // The micro-op tier runs on a `without_shortcuts` engine: the
    // default engine executes recognized kernel regions natively, so it
    // measures the shortcut tier.
    let mut instrs = 0u64;
    let mut stepping_nanos = 0u64;
    let mut uop_nanos = 0u64;
    let mut shortcut_nanos = 0u64;
    let mut stages = CompileStages::default();
    let mut tiers = Vec::new();
    for net in rnnasip_rrm::suite() {
        let compiled = (0..SAMPLES)
            .map(|_| {
                KernelBackend::new(level)
                    .compile_network(&net.network)
                    .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id))
            })
            .min_by_key(|c| c.compile_nanos())
            .expect("SAMPLES is nonzero");
        stages += compiled.stage_nanos();
        let mut fresh = compiled.engine();
        let run = fresh.run(&net.input()).unwrap();
        let (bulk, shortcut) = (
            fresh.machine().bulk_instrs(),
            fresh.machine().shortcut_instrs(),
        );
        tiers.push((
            net.id,
            run.report.instrs() - bulk - shortcut,
            bulk,
            shortcut,
        ));
        let mut sc_engine = compiled.engine();
        let mut uop_engine = compiled.without_shortcuts().engine();
        let input = net.input();
        let mut best_stepping = u64::MAX;
        let mut best_uop = u64::MAX;
        let mut best_shortcut = u64::MAX;
        let mut net_instrs = 0u64;
        for _ in 0..SAMPLES {
            let run = sc_engine.run_reference(&input).unwrap();
            best_stepping = best_stepping.min(run.report.host_nanos());
            let run = uop_engine.run(&input).unwrap();
            best_uop = best_uop.min(run.report.host_nanos());
            let run = sc_engine.run(&input).unwrap();
            best_shortcut = best_shortcut.min(run.report.host_nanos());
            net_instrs = run.report.instrs();
        }
        instrs += net_instrs;
        stepping_nanos += best_stepping;
        uop_nanos += best_uop;
        shortcut_nanos += best_shortcut;
    }
    LevelRow {
        tag: level.tag(),
        instrs,
        stepping_mips: instrs as f64 * 1e3 / stepping_nanos as f64,
        uop_mips: instrs as f64 * 1e3 / uop_nanos as f64,
        shortcut_mips: instrs as f64 * 1e3 / shortcut_nanos as f64,
        wall_mips,
        wall_ms,
        compile_ms,
        stages,
        tiers,
    }
}

struct PolicyRow {
    instrs: u64,
    stepping_mips: f64,
    uop_mips: f64,
    shortcut_mips: f64,
}

impl PolicyRow {
    fn bulk_speedup(&self) -> f64 {
        self.uop_mips / self.stepping_mips
    }

    fn shortcut_speedup(&self) -> f64 {
        self.shortcut_mips / self.uop_mips
    }
}

/// Per-core MIPS of one network on both paths — serial, one reused
/// engine, interleaved samples, best of [`SAMPLES`] per path (same
/// protocol as [`measure_level`]'s ratio columns).
fn measure_policy(level: OptLevel) -> PolicyRow {
    let suite = rnnasip_rrm::suite();
    let net = suite
        .iter()
        .find(|n| n.id == POLICY_NET)
        .unwrap_or_else(|| panic!("{POLICY_NET} not in suite"));
    let compiled = KernelBackend::new(level)
        .compile_network(&net.network)
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
    let mut sc_engine = compiled.engine();
    let mut uop_engine = compiled.without_shortcuts().engine();
    let input = net.input();
    let mut stepping_mips = 0.0f64;
    let mut uop_mips = 0.0f64;
    let mut shortcut_mips = 0.0f64;
    let mut instrs = 0u64;
    for _ in 0..SAMPLES {
        let mut stepping_nanos = 0u64;
        let mut uop_nanos = 0u64;
        let mut shortcut_nanos = 0u64;
        for _ in 0..POLICY_REPS {
            let r = sc_engine.run_reference(&input).unwrap();
            stepping_nanos += r.report.host_nanos();
            let r = uop_engine.run(&input).unwrap();
            uop_nanos += r.report.host_nanos();
            let r = sc_engine.run(&input).unwrap();
            shortcut_nanos += r.report.host_nanos();
            instrs = r.report.instrs();
        }
        let total = (instrs * POLICY_REPS as u64) as f64;
        stepping_mips = stepping_mips.max(total * 1e3 / stepping_nanos as f64);
        uop_mips = uop_mips.max(total * 1e3 / uop_nanos as f64);
        shortcut_mips = shortcut_mips.max(total * 1e3 / shortcut_nanos as f64);
    }
    PolicyRow {
        instrs,
        stepping_mips,
        uop_mips,
        shortcut_mips,
    }
}

/// Pulls the policy bulk speedup out of a baseline document. This is a
/// minimal field extraction for our own flat emitter's output, not a
/// JSON parser: it finds the `"policy"` object and the first
/// `"bulk_speedup":` after it.
fn extract_policy_speedup(text: &str) -> Option<f64> {
    const KEY: &str = "\"bulk_speedup\":";
    let rest = &text[text.find("\"policy\"")?..];
    let num = &rest[rest.find(KEY)? + KEY.len()..];
    let end = num
        .find(|c: char| !(c.is_ascii_digit() || ".-+e".contains(c)))
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let check = std::env::args().any(|a| a == "--check");

    println!("sim-throughput: full RRM suite per optimization level, stepping vs bulk vs shortcut");
    println!(
        "{:<10} {:>12} {:>13} {:>13} {:>9} {:>13} {:>8} {:>12} {:>10} {:>11}",
        "level",
        "instrs",
        "step MIPS",
        "uop MIPS",
        "bulk/step",
        "sc MIPS",
        "sc/uop",
        "wall MIPS",
        "wall ms",
        "compile ms"
    );
    let rows: Vec<LevelRow> = OptLevel::ALL
        .iter()
        .map(|&level| {
            let row = measure_level(level);
            println!(
                "{:<10} {:>12} {:>13.1} {:>13.1} {:>8.1}x {:>13.1} {:>7.1}x {:>12.1} {:>10.2} {:>11.2}",
                row.tag,
                row.instrs,
                row.stepping_mips,
                row.uop_mips,
                row.bulk_speedup(),
                row.shortcut_mips,
                row.shortcut_speedup(),
                row.wall_mips,
                row.wall_ms,
                row.compile_ms
            );
            row
        })
        .collect();

    println!("\ncompile stages, ms (serial; each network's fastest of {SAMPLES} compiles, summed)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "level", "codegen", "assemble", "snapshot", "guards", "lower", "verify", "total"
    );
    for row in &rows {
        let s = row.stages;
        let ms = |n: u64| n as f64 / 1e6;
        println!(
            "{:<10} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            row.tag,
            ms(s.codegen),
            ms(s.assemble),
            ms(s.snapshot),
            ms(s.guard_fold),
            ms(s.lower),
            ms(s.verify),
            ms(s.total())
        );
    }

    println!("\ntier split, instructions of one run (generic/bulk/shortcut)");
    print!("{:<14}", "net");
    for row in &rows {
        print!(" {:>24}", row.tag);
    }
    println!();
    for (n, &(id, ..)) in rows[0].tiers.iter().enumerate() {
        print!("{id:<14}");
        for row in &rows {
            let (_, g, b, s) = row.tiers[n];
            print!(" {:>24}", format!("{g}/{b}/{s}"));
        }
        println!();
    }

    // Gates: (what, measured, floor), all evaluated before failing.
    let mut gates: Vec<(String, f64, f64)> = Vec::new();
    for row in &rows {
        if row.tag == "a" {
            gates.push((
                "bulk/step on level a".into(),
                row.bulk_speedup(),
                MIN_BASELINE_BULK_SPEEDUP,
            ));
        }
        if row.tag == "d" || row.tag == "e" {
            gates.push((
                format!("bulk/step on level {}", row.tag),
                row.bulk_speedup(),
                MIN_O3_BULK_SPEEDUP,
            ));
            gates.push((
                format!("sc/uop on level {}", row.tag),
                row.shortcut_speedup(),
                MIN_SHORTCUT_SPEEDUP,
            ));
        }
    }

    let policy_level = OptLevel::IfmTile;
    let policy = measure_policy(policy_level);
    println!(
        "\npolicy net ({POLICY_NET}, level {}): stepping {:.1} MIPS, uop {:.1} MIPS ({:.1}x), \
         shortcut {:.1} MIPS ({:.1}x over uop)",
        policy_level.tag(),
        policy.stepping_mips,
        policy.uop_mips,
        policy.bulk_speedup(),
        policy.shortcut_mips,
        policy.shortcut_speedup()
    );

    hot_path_comparison();

    if json {
        let items = rows.iter().map(|r| {
            Obj::new()
                .str("level", r.tag)
                .num("instrs", r.instrs)
                .float("stepping_mips", Some(r.stepping_mips))
                .float("uop_mips", Some(r.uop_mips))
                .float("bulk_speedup", Some(r.bulk_speedup()))
                .float("shortcut_mips", Some(r.shortcut_mips))
                .float("shortcut_speedup", Some(r.shortcut_speedup()))
                .float("wall_mips", Some(r.wall_mips))
                .float("wall_ms", Some(r.wall_ms))
                .float("compile_ms", Some(r.compile_ms))
                .build()
        });
        let policy_obj = Obj::new()
            .str("network", POLICY_NET)
            .str("level", policy_level.tag())
            .num("instrs", policy.instrs)
            .float("stepping_mips", Some(policy.stepping_mips))
            .float("uop_mips", Some(policy.uop_mips))
            .float("bulk_speedup", Some(policy.bulk_speedup()))
            .float("shortcut_mips", Some(policy.shortcut_mips))
            .float("shortcut_speedup", Some(policy.shortcut_speedup()))
            .build();
        let doc = Obj::new()
            .str("bench", "sim_throughput")
            .num("samples", SAMPLES as u64)
            .raw("levels", array(items))
            .raw("policy", policy_obj)
            .build();
        std::fs::write("BENCH_sim.json", doc + "\n").expect("write BENCH_sim.json");
        println!("wrote BENCH_sim.json");
    }

    if check {
        let baseline = std::fs::read_to_string("BENCH_sim_baseline.json")
            .expect("read BENCH_sim_baseline.json");
        let baseline_speedup =
            extract_policy_speedup(&baseline).expect("policy bulk speedup in baseline");
        gates.push((
            format!("{POLICY_NET} bulk/step vs 90% of baseline {baseline_speedup:.2}x"),
            policy.bulk_speedup(),
            MAX_REGRESSION * baseline_speedup,
        ));
    }

    println!();
    let mut failed = Vec::new();
    for (what, value, floor) in &gates {
        let ok = value >= floor;
        println!(
            "gate: {what}: {value:.2}x >= {floor:.2}x — {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failed.push(what.as_str());
        }
    }
    assert!(failed.is_empty(), "sim-throughput gates failed: {failed:?}");
}

/// Best-of-SAMPLES wall time of `f` over `iters` iterations, in ns/iter.
fn time_ns_per_iter<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Micro-comparison of the two retire-path data structures against the
/// map-based versions they replaced, reproduced locally: fetch through
/// the dense slot table vs a `HashMap<u32, u32>` address index, and
/// statistics recording into the `MnemonicId`-indexed array vs a
/// name-keyed `BTreeMap` upsert. This is the apples-to-apples evidence
/// for the fast path, independent of kernel staging overheads.
fn hot_path_comparison() {
    use rnnasip_isa::{AluImmOp, Instr, Reg};
    use rnnasip_sim::Program;

    println!("\nhot-path comparison (per-event cost, best of {SAMPLES})");

    // A program the size of a realistic kernel (4-byte instructions).
    let n = 4096u32;
    let prog = Program::from_instrs(
        0x100,
        (0..n).map(|i| Instr::OpImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: (i & 0x7FF) as i32,
        }),
    );
    let by_addr: HashMap<u32, u32> = (0..n).map(|i| (0x100 + 4 * i, i)).collect();
    let addrs: Vec<u32> = (0..n).map(|i| 0x100 + 4 * ((i * 7) % n)).collect();

    let dense = time_ns_per_iter(64, || {
        let mut acc = 0u32;
        for &a in &addrs {
            acc = acc.wrapping_add(prog.fetch(a).map(|it| it.size as u32).unwrap_or(0));
        }
        acc
    }) / addrs.len() as f64;
    let hashed = time_ns_per_iter(64, || {
        let mut acc = 0u32;
        for &a in &addrs {
            acc = acc.wrapping_add(by_addr.get(&a).copied().unwrap_or(0));
        }
        acc
    }) / addrs.len() as f64;
    println!(
        "  fetch : dense table {dense:.2} ns vs HashMap {hashed:.2} ns  ({:.1}x)",
        hashed / dense
    );

    // The retire-path event stream: a realistic mnemonic mix.
    let mix: Vec<MnemonicId> = [
        "pl.sdotsp",
        "p.lw!",
        "addi",
        "pv.sdotsp",
        "lp.setup",
        "p.sh!",
    ]
    .iter()
    .map(|name| MnemonicId::from_name(name).expect("stable mnemonic"))
    .collect();
    let events: Vec<MnemonicId> = (0..4096).map(|i| mix[i % mix.len()]).collect();

    let indexed = time_ns_per_iter(64, || {
        let mut s = Stats::new();
        for &id in &events {
            s.record(id, 1, 2);
        }
        s.cycles()
    }) / events.len() as f64;
    let mapped = time_ns_per_iter(64, || {
        let mut rows: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut total = 0u64;
        for &id in &events {
            let row = rows.entry(id.name()).or_default();
            row.0 += 1;
            row.1 += 1;
            total += 1;
        }
        total
    }) / events.len() as f64;
    println!(
        "  record: indexed array {indexed:.2} ns vs BTreeMap {mapped:.2} ns  ({:.1}x)",
        mapped / indexed
    );
}
