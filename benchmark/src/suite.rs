//! The `table1` and `suite_warm` workloads over the ten-net RRM suite.

use crate::trace::{Recorder, Span};
use crate::{
    mean, metric, peak_rss_mib, set_up, timed_run, Checks, Config, Events, Finish, Layers, Outcome,
    Passes, Scale, SimTally, SpanStats, Timeline,
};
use rnnasip_core::{CoreError, Engine, KernelBackend, NetworkRun, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_rrm::BenchmarkNet;
use rnnasip_sim::UopProgram;
use std::time::Instant;

/// `suite_warm` engine configurations: (level, cluster cores).
const CONFIGS: [(OptLevel, usize); 4] = [
    (OptLevel::SdotSp, 1),
    (OptLevel::SdotSp, 4),
    (OptLevel::IfmTile, 1),
    (OptLevel::IfmTile, 4),
];

/// Metric suffixes of [`CONFIGS`].
pub(crate) const CONFIG_TAGS: [&str; 4] = ["d1", "d4", "e1", "e4"];

/// Seeded input windows per net in `suite_warm`; pass `i` uses window
/// `i % WINDOWS` on every engine.
const WINDOWS: usize = 16;

/// Σ cycles of one cold Table-I pass: the sum of the level a–e suite
/// totals pinned in `crates/bench/tests/suite_differential.rs`.
const TABLE1_CYCLES: u64 = 18_166_452;

/// The nets a scale runs: the whole suite, or two small nets.
fn nets(scale: Scale) -> Vec<BenchmarkNet> {
    let suite = rnnasip_rrm::suite();
    match scale {
        Scale::Full => suite,
        Scale::Smoke => suite
            .into_iter()
            .filter(|n| matches!(n.id, "naparstek2019" | "eisen2019"))
            .collect(),
    }
}

fn backend(level: OptLevel, cores: usize) -> KernelBackend {
    let backend = KernelBackend::new(level);
    if cores > 1 {
        backend.with_cores(cores)
    } else {
        backend
    }
}

/// Position of `level` in Table-I order.
fn level_index(level: OptLevel) -> usize {
    OptLevel::ALL
        .iter()
        .position(|&l| l == level)
        .expect("every level is in ALL")
}

/// Checks one run's outputs against the golden model; returns its cycles.
fn verify(
    checks: &mut Checks,
    what: impl Fn() -> String,
    result: &Result<NetworkRun, CoreError>,
    golden: &[Q3p12],
) -> u64 {
    match result {
        Ok(run) if run.outputs == golden => run.report.cycles(),
        Ok(run) => {
            checks.fail(1, format!("{}: outputs differ from forward_fixed", what()));
            run.report.cycles()
        }
        Err(e) => {
            checks.fail(1, format!("{}: {e}", what()));
            0
        }
    }
}

/// What `table1` builds before timing.
struct Table1 {
    nets: Vec<BenchmarkNet>,
    /// Each net's canonical input.
    inputs: Vec<Vec<Vec<Q3p12>>>,
    /// `forward_fixed` of each input.
    golden: Vec<Vec<Q3p12>>,
}

/// The `table1` set-up: the suite, its inputs and golden outputs.
fn table1_setup(cfg: &Config) -> Table1 {
    let nets = nets(cfg.scale);
    let inputs: Vec<_> = nets.iter().map(BenchmarkNet::input).collect();
    let golden = nets
        .iter()
        .zip(&inputs)
        .map(|(net, x)| net.network.forward_fixed(x))
        .collect();
    Table1 {
        nets,
        inputs,
        golden,
    }
}

pub(crate) fn table1(cfg: &Config) -> Outcome {
    let levels = OptLevel::ALL.len();
    let mut checks = Checks::default();
    let (
        Table1 {
            nets,
            inputs,
            golden,
        },
        setups,
    ) = set_up(|| table1_setup(cfg));
    let ops = nets.len() * levels;

    let mut rec = Recorder::new();
    let mut timeline = Timeline::default();
    let mut sims = [SimTally::default(); 5];
    let mut restored = 0usize;
    let mut pass_cycles = None;
    let passes = Passes::drive(cfg, |index, traced| {
        let mut results = Vec::with_capacity(ops);
        let started = Instant::now();
        let mut events = Events::new(started);
        let pass = traced.then(|| rec.open("pass", None));
        for (n, net) in nets.iter().enumerate() {
            for (l, &level) in OptLevel::ALL.iter().enumerate() {
                let req = (index * ops + n * levels + l) as u64;
                let t0 = Instant::now();
                // Ends of the compile and instantiate calls.
                let mut boundaries = None;
                let result = KernelBackend::new(level)
                    .compile_network(&net.network)
                    .and_then(|compiled| {
                        let t1 = Instant::now();
                        let mut engine = compiled.engine();
                        let t2 = Instant::now();
                        boundaries = Some((t1, t2));
                        let trace = if traced {
                            rec.push("compile.compile_network", pass, Some(req), t0, t1);
                            rec.push("compile.instantiate", pass, Some(req), t1, t2);
                            Some((&mut rec, pass, req))
                        } else {
                            None
                        };
                        let (result, _, _) = timed_run(&mut engine, &inputs[n], trace);
                        if let (true, Ok(run)) = (traced, &result) {
                            sims[l].add(&engine, &run.report, 0);
                            restored += engine.last_restored_bytes();
                        }
                        result
                    });
                let t3 = Instant::now();
                let start = events.mark(t0);
                for t in boundaries.into_iter().flat_map(|(t1, t2)| [t1, t2]) {
                    events.mark(t);
                }
                let end = events.mark(t3);
                events.op(start, end);
                results.push(result);
            }
        }
        let secs = started.elapsed().as_secs_f64();
        match pass {
            Some(pass) => rec.close(pass),
            None => timeline.add_pass(0, &events),
        }
        let mut cycles = 0;
        for (i, result) in results.iter().enumerate() {
            let (n, l) = (i / levels, i % levels);
            let what = || format!("{} at level {}", nets[n].id, OptLevel::ALL[l].tag());
            cycles += verify(&mut checks, what, result, &golden[n]);
        }
        checks.attempted += ops as u64;
        match pass_cycles {
            None => pass_cycles = Some(cycles),
            Some(first) => checks.expect_eq("pass cycles", cycles, first, ops as u64),
        }
        (ops as u64, secs)
    });
    let peak_rss_mb = peak_rss_mib();
    let cycles = pass_cycles.expect("at least one pass");
    if cfg.scale == Scale::Full {
        checks.expect_eq("Table-I cycles", cycles, TABLE1_CYCLES, 0);
    }

    let layers = cfg.trace.then(|| {
        // Translation, timed from outside on artifacts compiled untimed.
        for (n, net) in nets.iter().enumerate() {
            for (l, &level) in OptLevel::ALL.iter().enumerate() {
                if let Ok(compiled) = KernelBackend::new(level).compile_network(&net.network) {
                    let t0 = Instant::now();
                    std::hint::black_box(UopProgram::translate(compiled.program()));
                    let req = Some((n * levels + l) as u64);
                    rec.push("compile.translate", None, req, t0, Instant::now());
                }
            }
        }
        let stats = SpanStats::new(rec.spans());
        let mut layers = Layers::default();
        for (l, level) in OptLevel::ALL.iter().enumerate() {
            let at_level = |s: &Span| s.req.is_some_and(|r| r as usize % levels == l);
            let tag = level.tag();
            let compile = stats.mean_ns("compile.compile_network", at_level);
            layers.set(&format!("compile.ms.{tag}"), compile / 1e6);
            let translate = stats.mean_ns("compile.translate", at_level);
            layers.set(&format!("compile.translate_ms.{tag}"), translate / 1e6);
            sims[l].set_layers(&mut layers, tag);
        }
        let instantiate = stats.mean_ns("compile.instantiate", |_| true);
        layers.set("compile.instantiate_us", instantiate / 1e3);
        let overhead = stats.mean_self_ns("engine.run", |_| true);
        layers.set("engine.overhead_us", overhead / 1e3);
        let runs = rec
            .spans()
            .iter()
            .filter(|s| s.name == "engine.run")
            .count();
        layers.set("engine.restored_bytes", mean(restored as f64, runs));
        layers.set("sim.cycles", cycles as f64);
        layers
    });

    Finish {
        checks,
        passes,
        setups,
        timeline,
        peak_rss_mb,
        exact: vec![metric("sim_cycles", cycles as f64, "cycles")],
        layers,
        rec,
    }
    .outcome()
}

/// Everything `suite_warm` builds before timing.
struct Warm {
    nets: Vec<BenchmarkNet>,
    /// `windows[net][w]`: seeded input windows.
    windows: Vec<Vec<Vec<Vec<Q3p12>>>>,
    /// `golden[net][w]`: `forward_fixed` of each window.
    golden: Vec<Vec<Vec<Q3p12>>>,
    /// Engine `i` runs net `i / 4` in configuration `i % 4`.
    engines: Vec<Engine>,
}

/// Builds the windows, golden outputs and 40 warm engines. With a
/// recorder, compile and instantiate spans are recorded (`req` is the
/// engine index).
fn warm_setup(cfg: &Config, mut rec: Option<&mut Recorder>) -> Result<Warm, CoreError> {
    let nets = nets(cfg.scale);
    let windows: Vec<Vec<Vec<Vec<Q3p12>>>> = nets
        .iter()
        .enumerate()
        .map(|(n, net)| {
            (0..WINDOWS)
                .map(|w| {
                    let mix = ((n * WINDOWS + w) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let net = &net.network;
                    rnnasip_rrm::seeded_sequence(net.n_in(), net.seq_len(), cfg.seed ^ mix)
                })
                .collect()
        })
        .collect();
    let golden = nets
        .iter()
        .zip(&windows)
        .map(|(net, ws)| ws.iter().map(|w| net.network.forward_fixed(w)).collect())
        .collect();
    let mut engines = Vec::with_capacity(nets.len() * CONFIGS.len());
    for net in &nets {
        for &(level, cores) in &CONFIGS {
            let req = Some(engines.len() as u64);
            let t0 = Instant::now();
            let compiled = backend(level, cores).compile_network(&net.network)?;
            let t1 = Instant::now();
            engines.push(compiled.engine());
            if let Some(rec) = rec.as_deref_mut() {
                rec.push("compile.compile_network", None, req, t0, t1);
                rec.push("compile.instantiate", None, req, t1, Instant::now());
            }
        }
    }
    Ok(Warm {
        nets,
        windows,
        golden,
        engines,
    })
}

/// Deterministic per-pass totals from the verification sweep.
#[derive(Default)]
struct Sweep {
    /// `cycles[engine][window]`.
    cycles: Vec<Vec<u64>>,
    restored: usize,
    runs: usize,
    /// Over 4-core engines: latency, conflict stalls, barrier, DMA cycles.
    cluster: [u64; 4],
}

/// Runs every engine on every window once, after one warm-up run so that
/// every counted run rewinds a warm engine, checking outputs against the
/// golden model.
fn sweep(warm: &mut Warm, checks: &mut Checks) -> Sweep {
    let mut out = Sweep::default();
    for (i, engine) in warm.engines.iter_mut().enumerate() {
        let n = i / CONFIGS.len();
        let id = warm.nets[n].id;
        let tag = CONFIG_TAGS[i % CONFIGS.len()];
        let last = WINDOWS - 1;
        let warmup = engine.run(&warm.windows[n][last]);
        verify(
            checks,
            || format!("{id} {tag} warm-up"),
            &warmup,
            &warm.golden[n][last],
        );
        let mut row = Vec::with_capacity(WINDOWS);
        for w in 0..WINDOWS {
            let result = engine.run(&warm.windows[n][w]);
            let what = || format!("{id} {tag} window {w}");
            let cycles = verify(checks, what, &result, &warm.golden[n][w]);
            row.push(cycles);
            out.restored += engine.last_restored_bytes();
            out.runs += 1;
            if let (Ok(run), Some(_)) = (&result, engine.cluster()) {
                let r = &run.report;
                let stalls: u64 = r.per_core().iter().map(|c| c.conflict_stalls).sum();
                let add = [
                    r.latency_cycles(),
                    stalls,
                    r.barrier_cycles(),
                    r.dma_cycles(),
                ];
                for (total, v) in out.cluster.iter_mut().zip(add) {
                    *total += v;
                }
            }
        }
        out.cycles.push(row);
    }
    out
}

pub(crate) fn suite_warm(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    let mut rec = Recorder::new();
    let (prepared, setups) = set_up(|| warm_setup(cfg, cfg.trace.then_some(&mut rec)));
    let mut warm = match prepared {
        Ok(warm) => warm,
        Err(e) => {
            checks.fail(0, format!("suite_warm set-up: {e}"));
            return Finish {
                checks,
                passes: Passes::default(),
                setups,
                timeline: Timeline::default(),
                peak_rss_mb: peak_rss_mib(),
                exact: Vec::new(),
                layers: None,
                rec,
            }
            .outcome();
        }
    };
    let swept = sweep(&mut warm, &mut checks);
    let engines_n = warm.engines.len();

    let mut timeline = Timeline::default();
    let mut sims = [SimTally::default(); 5];
    let passes = Passes::drive(cfg, |index, traced| {
        let w = index % WINDOWS;
        let mut results = Vec::with_capacity(engines_n);
        let started = Instant::now();
        let mut events = Events::new(started);
        let pass = traced.then(|| rec.open("pass", None));
        for (i, engine) in warm.engines.iter_mut().enumerate() {
            let n = i / CONFIGS.len();
            let (level, cores) = CONFIGS[i % CONFIGS.len()];
            let req = (index * engines_n + i) as u64;
            let bulk_before = engine.machine().bulk_instrs();
            let trace = traced.then_some((&mut rec, pass, req));
            let (result, t0, t1) = timed_run(engine, &warm.windows[n][w], trace);
            let start = events.mark(t0);
            let end = events.mark(t1);
            events.op(start, end);
            if let (true, 1, Ok(run)) = (traced, cores, &result) {
                sims[level_index(level)].add(engine, &run.report, bulk_before);
            }
            results.push(result);
        }
        let secs = started.elapsed().as_secs_f64();
        match pass {
            Some(pass) => rec.close(pass),
            None => timeline.add_pass(w, &events),
        }
        for (i, result) in results.iter().enumerate() {
            let n = i / CONFIGS.len();
            let what = || {
                format!(
                    "{} {} window {w}",
                    warm.nets[n].id,
                    CONFIG_TAGS[i % CONFIGS.len()]
                )
            };
            let cycles = verify(&mut checks, what, result, &warm.golden[n][w]);
            checks.expect_eq("warm run cycles", cycles, swept.cycles[i][w], 1);
        }
        checks.attempted += engines_n as u64;
        (engines_n as u64, secs)
    });
    let peak_rss_mb = peak_rss_mib();
    let cycles: u64 = swept.cycles.iter().flatten().sum();
    let per_pass = cycles as f64 / WINDOWS as f64;

    let layers = cfg.trace.then(|| {
        for (i, engine) in warm.engines.iter().enumerate() {
            if CONFIGS[i % CONFIGS.len()].1 == 1 {
                let t0 = Instant::now();
                std::hint::black_box(UopProgram::translate(engine.compiled().program()));
                rec.push(
                    "compile.translate",
                    None,
                    Some(i as u64),
                    t0,
                    Instant::now(),
                );
            }
        }
        let config_of = |s: &Span| s.req.map(|r| r as usize % engines_n % CONFIGS.len());
        let stats = SpanStats::new(rec.spans());
        let mut layers = Layers::default();
        for (c, tag) in CONFIG_TAGS.iter().enumerate() {
            let run = stats.mean_ns("engine.run", |s| config_of(s) == Some(c));
            layers.set(&format!("engine.run_us.{tag}"), run / 1e3);
        }
        let four = |s: &Span| config_of(s).is_some_and(|c| CONFIGS[c].1 == 4);
        layers.set("cluster.run_us", stats.mean_ns("engine.run", four) / 1e3);
        for (c, &(level, cores)) in CONFIGS.iter().enumerate() {
            if cores != 1 {
                continue;
            }
            let tag = level.tag();
            let this = |s: &Span| config_of(s) == Some(c);
            let compile = stats.mean_ns("compile.compile_network", this);
            layers.set(&format!("compile.ms.{tag}"), compile / 1e6);
            let translate = stats.mean_ns("compile.translate", this);
            layers.set(&format!("compile.translate_ms.{tag}"), translate / 1e6);
            sims[level_index(level)].set_layers(&mut layers, tag);
        }
        let instantiate = stats.mean_ns("compile.instantiate", |_| true);
        layers.set("compile.instantiate_us", instantiate / 1e3);
        let overhead = stats.mean_self_ns("engine.run", |_| true);
        layers.set("engine.overhead_us", overhead / 1e3);
        layers.set(
            "engine.restored_bytes",
            mean(swept.restored as f64, swept.runs),
        );
        layers.set("sim.cycles", per_pass);
        let names = [
            "cluster.latency_cycles",
            "cluster.conflict_stalls",
            "cluster.barrier_cycles",
            "cluster.dma_cycles",
        ];
        for (name, total) in names.iter().zip(swept.cluster) {
            layers.set(name, total as f64 / WINDOWS as f64);
        }
        layers
    });

    Finish {
        checks,
        passes,
        setups,
        timeline,
        peak_rss_mb,
        exact: vec![metric("sim_cycles", per_pass, "cycles")],
        layers,
        rec,
    }
    .outcome()
}
