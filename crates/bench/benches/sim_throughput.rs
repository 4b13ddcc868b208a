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
//! `sc/uop` column is the shortcut tier's payoff on top of them. Below
//! the compile-stage table, the verify stage is split by region kind and
//! verdict (regions, walked micro-ops, loop summaries applied, ms).
//!
//! Flags:
//!
//! - `--json` — also write `BENCH_sim.json` (hand-rolled JSON,
//!   [`rnnasip_bench::json`]) with the raw numbers for CI artifacts.
//! - `--check` — also gate the bulk-over-stepping speedup on the small
//!   policy network at [`MIN_POLICY_BULK_SPEEDUP`]. Raw MIPS are
//!   machine-dependent, so every gate is a *ratio measured in the same
//!   run*, its arms' runs interleaved.
//!
//! Every gate is evaluated and printed before the bench fails on any.

use rnnasip_bench::harness::{assert_gates, interleaved_best, time, write_report, Args, Gate};
use rnnasip_bench::json::{array, Obj};
use rnnasip_bench::run_suite_split;
use rnnasip_core::{CompileStages, CompiledNetwork, KernelBackend, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_sim::{RegionKind, VerifyBreakdown};
use std::time::{Duration, Instant};

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

/// The shortcut tier must beat the micro-op path by at least this factor
/// on the RV32IMC baseline (level a), whose per-output dot products —
/// bias seed, spilled accumulator and MAC loop — run as installed
/// regions while the branchy epilogues stay on the micro-op path. A
/// same-run ratio, measured like [`MIN_SHORTCUT_SPEEDUP`]; with the dot
/// regions not declared it reads ~1.0×.
const MIN_BASELINE_SHORTCUT_SPEEDUP: f64 = 5.0;

/// `--check` floor of the policy network's bulk-over-stepping speedup:
/// 10% under the 1.280x measured on a 1-thread host when the gate was
/// set.
const MIN_POLICY_BULK_SPEEDUP: f64 = 1.152;

/// The small policy network the regression gate is keyed on.
const POLICY_NET: &str = "eisen2019";

/// Runs aggregated per policy sample: one inference of [`POLICY_NET`] is
/// only a few hundred instructions (~tens of microseconds), which is
/// timer-noise territory, so each sample sums the simulate time of this
/// many back-to-back runs.
const POLICY_REPS: usize = 32;

/// Simulated MIPS on the three tiers.
struct TierMips {
    stepping: f64,
    uop: f64,
    shortcut: f64,
}

impl TierMips {
    /// `instrs` over the tiers' times, in [`tier_times`] order.
    fn new(instrs: u64, time: &[Duration]) -> Self {
        let mips = |d: &Duration| instrs as f64 * 1e3 / d.as_nanos() as f64;
        Self {
            stepping: mips(&time[0]),
            uop: mips(&time[1]),
            shortcut: mips(&time[2]),
        }
    }

    fn bulk_speedup(&self) -> f64 {
        self.uop / self.stepping
    }

    fn shortcut_speedup(&self) -> f64 {
        self.shortcut / self.uop
    }

    /// Appends the tier columns to a JSON row.
    fn json(&self, row: Obj) -> Obj {
        row.float("stepping_mips", Some(self.stepping))
            .float("uop_mips", Some(self.uop))
            .float("bulk_speedup", Some(self.bulk_speedup()))
            .float("shortcut_mips", Some(self.shortcut))
            .float("shortcut_speedup", Some(self.shortcut_speedup()))
    }
}

struct LevelRow {
    tag: &'static str,
    instrs: u64,
    mips: TierMips,
    wall_mips: f64,
    wall_ms: f64,
    compile_ms: f64,
    /// Serial per-stage compile time: per network, each stage's own
    /// fastest of [`SAMPLES`] compiles, summed over the suite.
    stages: CompileStages,
    /// Shortcut verification by region kind and verdict of each
    /// network's compile with the fastest verify stage, summed over the
    /// suite.
    verify: VerifyBreakdown,
    /// Serial `Engine::new` time: each network's fastest of [`SAMPLES`]
    /// instantiations, summed over the suite.
    instantiate_nanos: u64,
    /// Per network: `(id, generic, bulk, shortcut)` instructions of one
    /// canonical run on a fresh engine.
    tiers: Vec<(&'static str, u64, u64, u64)>,
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
    let mut tier_time = [Duration::ZERO; 3];
    let mut stages = CompileStages::default();
    let mut verify = VerifyBreakdown::default();
    let mut instantiate_nanos = 0u64;
    let mut tiers = Vec::new();
    for net in rnnasip_rrm::suite() {
        let compiles: Vec<_> = (0..SAMPLES)
            .map(|_| {
                KernelBackend::new(level)
                    .compile_network(&net.network)
                    .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id))
            })
            .collect();
        // Each stage's own minimum, so no stage's column carries the
        // noise of the others.
        stages += compiles
            .iter()
            .map(|c| c.stage_nanos())
            .reduce(|a, b| CompileStages {
                staging: a.staging.min(b.staging),
                codegen: a.codegen.min(b.codegen),
                assemble: a.assemble.min(b.assemble),
                guard_fold: a.guard_fold.min(b.guard_fold),
                lower: a.lower.min(b.lower),
                verify: a.verify.min(b.verify),
            })
            .expect("SAMPLES is nonzero");
        let compiled = compiles
            .into_iter()
            .min_by_key(|c| c.stage_nanos().verify)
            .expect("SAMPLES is nonzero");
        verify += *compiled.uop_program().verify_breakdown();
        instantiate_nanos += (0..SAMPLES)
            .map(|_| time(|| compiled.engine()).as_nanos() as u64)
            .min()
            .expect("SAMPLES is nonzero");
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
        let (best, net_instrs) = tier_times(&compiled, &net.input(), 1);
        instrs += net_instrs;
        for (sum, best) in tier_time.iter_mut().zip(best) {
            *sum += best;
        }
    }
    LevelRow {
        tag: level.tag(),
        instrs,
        mips: TierMips::new(instrs, &tier_time),
        wall_mips,
        wall_ms,
        compile_ms,
        stages,
        verify,
        instantiate_nanos,
        tiers,
    }
}

/// Best-of-[`SAMPLES`] host time of `reps` back-to-back runs on each
/// tier, in the order stepping (the reference, on the default engine),
/// micro-op (a `without_shortcuts` engine) and shortcut (the default
/// engine); and the instructions of one run. Serial, one reused engine
/// per tier, the tiers' runs interleaved one by one.
fn tier_times(
    compiled: &CompiledNetwork,
    input: &[Vec<Q3p12>],
    reps: usize,
) -> (Vec<Duration>, u64) {
    let mut sc_engine = compiled.engine();
    let mut uop_engine = compiled.without_shortcuts().engine();
    let mut instrs = 0u64;
    let best = interleaved_best(SAMPLES, reps, 3, |arm| {
        let run = match arm {
            0 => sc_engine.run_reference(input),
            1 => uop_engine.run(input),
            _ => sc_engine.run(input),
        }
        .unwrap();
        instrs = run.report.instrs();
        Duration::from_nanos(run.report.host_nanos())
    });
    (best, instrs)
}

/// The instructions of one run of [`POLICY_NET`], and its per-core MIPS
/// on the three tiers, each sample [`POLICY_REPS`] runs (the protocol
/// of [`measure_level`]'s ratio columns).
fn measure_policy(level: OptLevel) -> (u64, TierMips) {
    let suite = rnnasip_rrm::suite();
    let net = suite
        .iter()
        .find(|n| n.id == POLICY_NET)
        .unwrap_or_else(|| panic!("{POLICY_NET} not in suite"));
    let compiled = KernelBackend::new(level)
        .compile_network(&net.network)
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
    let (best, instrs) = tier_times(&compiled, &net.input(), POLICY_REPS);
    (instrs, TierMips::new(instrs * POLICY_REPS as u64, &best))
}

fn main() {
    let args = Args::parse();

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
                row.mips.stepping,
                row.mips.uop,
                row.mips.bulk_speedup(),
                row.mips.shortcut,
                row.mips.shortcut_speedup(),
                row.wall_mips,
                row.wall_ms,
                row.compile_ms
            );
            row
        })
        .collect();

    println!(
        "\ncompile stages and instantiation, ms (serial; per network each stage's fastest of {SAMPLES}, summed)"
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "level",
        "staging",
        "codegen",
        "assemble",
        "guards",
        "lower",
        "verify",
        "total",
        "instantiate"
    );
    for row in &rows {
        let s = row.stages;
        let ms = |n: u64| n as f64 / 1e6;
        println!(
            "{:<10} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>12.2}",
            row.tag,
            ms(s.staging),
            ms(s.codegen),
            ms(s.assemble),
            ms(s.guard_fold),
            ms(s.lower),
            ms(s.verify),
            ms(s.total()),
            ms(row.instantiate_nanos)
        );
    }

    println!("\nverify by region kind and verdict (each network's fastest verify above, summed)");
    println!(
        "{:<10} {:<8} {:<10} {:>8} {:>10} {:>10} {:>9}",
        "level", "kind", "verdict", "regions", "walked", "summaries", "ms"
    );
    for row in &rows {
        for (kind, installed, c) in verify_rows(&row.verify) {
            println!(
                "{:<10} {:<8} {:<10} {:>8} {:>10} {:>10} {:>9.3}",
                row.tag,
                kind.name(),
                verdict(installed),
                c.regions,
                c.walked,
                c.summaries,
                c.nanos as f64 / 1e6
            );
        }
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
    let mut gates: Vec<Gate> = Vec::new();
    for row in &rows {
        if row.tag == "a" {
            gates.push((
                "bulk/step on level a".into(),
                row.mips.bulk_speedup(),
                MIN_BASELINE_BULK_SPEEDUP,
            ));
            gates.push((
                "sc/uop on level a".into(),
                row.mips.shortcut_speedup(),
                MIN_BASELINE_SHORTCUT_SPEEDUP,
            ));
        }
        if row.tag == "d" || row.tag == "e" {
            gates.push((
                format!("bulk/step on level {}", row.tag),
                row.mips.bulk_speedup(),
                MIN_O3_BULK_SPEEDUP,
            ));
            gates.push((
                format!("sc/uop on level {}", row.tag),
                row.mips.shortcut_speedup(),
                MIN_SHORTCUT_SPEEDUP,
            ));
        }
    }

    let policy_level = OptLevel::IfmTile;
    let (policy_instrs, policy) = measure_policy(policy_level);
    println!(
        "\npolicy net ({POLICY_NET}, level {}): stepping {:.1} MIPS, uop {:.1} MIPS ({:.1}x), \
         shortcut {:.1} MIPS ({:.1}x over uop)",
        policy_level.tag(),
        policy.stepping,
        policy.uop,
        policy.bulk_speedup(),
        policy.shortcut,
        policy.shortcut_speedup()
    );

    if args.json {
        let items = rows.iter().map(|r| {
            r.mips
                .json(Obj::new().str("level", r.tag).num("instrs", r.instrs))
                .float("wall_mips", Some(r.wall_mips))
                .float("wall_ms", Some(r.wall_ms))
                .float("compile_ms", Some(r.compile_ms))
                .float("verify_ms", Some(r.stages.verify as f64 / 1e6))
                .raw(
                    "verify",
                    array(verify_rows(&r.verify).map(|(kind, installed, c)| {
                        Obj::new()
                            .str("kind", kind.name())
                            .str("verdict", verdict(installed))
                            .num("regions", c.regions)
                            .num("walked", c.walked)
                            .num("summaries", c.summaries)
                            .float("ms", Some(c.nanos as f64 / 1e6))
                            .build()
                    })),
                )
                .build()
        });
        let policy_obj = policy
            .json(
                Obj::new()
                    .str("network", POLICY_NET)
                    .str("level", policy_level.tag())
                    .num("instrs", policy_instrs),
            )
            .build();
        let doc = Obj::new()
            .str("bench", "sim_throughput")
            .num("samples", SAMPLES as u64)
            .raw("levels", array(items))
            .raw("policy", policy_obj)
            .build();
        write_report("sim", &doc);
    }

    if args.check {
        gates.push((
            format!("{POLICY_NET} bulk/step"),
            policy.bulk_speedup(),
            MIN_POLICY_BULK_SPEEDUP,
        ));
    }

    println!();
    assert_gates(gates);
}

/// The kinds and verdicts `b` saw any region of.
fn verify_rows(
    b: &VerifyBreakdown,
) -> impl Iterator<Item = (RegionKind, bool, rnnasip_sim::VerifyCost)> + '_ {
    RegionKind::ALL
        .into_iter()
        .flat_map(|k| [true, false].map(|installed| (k, installed, b.get(k, installed))))
        .filter(|(.., c)| c.regions > 0)
}

fn verdict(installed: bool) -> &'static str {
    if installed {
        "installed"
    } else {
        "rejected"
    }
}
