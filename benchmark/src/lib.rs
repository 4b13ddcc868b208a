//! The repository benchmark: four workloads that drive the serving stack
//! (`Front` → `EnginePool` → `Engine` → simulator) and the compile
//! pipeline through public APIs only, verify every output, and report
//! end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//!
//! See `README.md` beside this crate for why each workload exists and
//! which layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod city;
mod suite;
pub mod trace;

use rnnasip_core::{CoreError, Engine, NetworkRun, OptLevel, RunReport};
use rnnasip_fixed::Q3p12;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;
use trace::{Recorder, Span, SpanId};

/// Default workload seed (the canonical city seed of the repository).
pub const DEFAULT_SEED: u64 = 0x5EED_C117;

/// Pool workers on the serving workloads. The front blocks while the
/// pool runs a batch, so timed passes keep one thread busy at a time, on
/// every host: runs compare across machines, and a second hardware
/// thread is left to the rest of the host. With two workers on a 2-thread
/// host, a batch waits for whichever hardware thread other load slows
/// down, and the run-to-run spread more than doubled.
pub const POOL_WORKERS: usize = 1;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The bench city, its day compressed, through a no-shed front over a
    /// 1-worker pool.
    City,
    /// The same stream through the overload front over a guarded pool.
    CityOverload,
    /// Cold Table-I regeneration: compile, instantiate, run once.
    Table1,
    /// Warm closed loop over 40 engines (10 nets × levels d, e × 1, 4 cores).
    SuiteWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::City,
        Workload::CityOverload,
        Workload::Table1,
        Workload::SuiteWarm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::City => "city",
            Workload::CityOverload => "city_overload",
            Workload::Table1 => "table1",
            Workload::SuiteWarm => "suite_warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much input a workload generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's inputs: the bench city, the ten-net suite.
    Full,
    /// Test-sized inputs: the demo city and two small nets.
    Smoke,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload runs.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time: passes repeat, and none starts that would, at the
    /// mean pass time so far, end after this many seconds.
    pub seconds: f64,
    /// Whether traced passes (alternating with untraced ones) and the
    /// per-layer replay phases run.
    pub trace: bool,
    /// Pool workers of the serving workloads.
    pub workers: usize,
    /// Input size.
    pub scale: Scale,
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Everything one run measured and verified.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in timed passes.
    pub attempted: u64,
    /// Attempted operations that returned an error or a wrong output.
    pub failed: u64,
    /// Descriptions of the first verification failures (empty when
    /// correct).
    pub problems: Vec<String>,
    /// Passes run (untraced and traced).
    pub passes: usize,
    /// Timed operations (untraced passes) behind the throughput and the
    /// latency percentiles.
    pub latency_samples: usize,
    /// Set-ups behind `setup_s`.
    pub setups: usize,
    /// End-to-end metrics, from untraced passes.
    pub end_to_end: Vec<Metric>,
    /// Deterministic results, identical on every host and run.
    pub exact: Vec<Metric>,
    /// Per-layer metrics (traced runs only; empty otherwise).
    pub per_layer: Vec<Metric>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every output verified and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Failed operations per million attempted.
    pub fn fail_ppm(&self) -> f64 {
        self.failed as f64 * 1e6 / self.attempted.max(1) as f64
    }
}

/// End-to-end metric names and units, as `BENCHMARK.json` declares them.
pub(crate) const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "ops/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p99", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Names and units of every per-layer metric. Each workload emits all of
/// them; a layer a workload does not exercise reads 0. Metrics in units
/// `count`, `cycles`, `ppm`, `req`, `B` and `share` are deterministic;
/// the others are host times or rates.
pub(crate) fn per_layer_schema() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit| out.push((name.to_string(), unit));
    add("traffic.next_ns", "ns");
    add("traffic.arrivals", "count");
    add("front.batches", "count");
    add("front.batch_mean", "req");
    add("front.max_queue", "count");
    add("front.shed", "count");
    add("front.goodput_ppm", "ppm");
    add("front.vlatency_p99_cycles", "cycles");
    add("front.self_us", "us");
    add("pool.overhead_us", "us");
    add("pool.parallel_eff", "ratio");
    add("pool.recovered", "count");
    add("pool.panics", "count");
    for class in city::CLASS_TAGS {
        add(&format!("engine.run_us.{class}"), "us");
    }
    for config in suite::CONFIG_TAGS {
        add(&format!("engine.run_us.{config}"), "us");
    }
    add("engine.overhead_us", "us");
    add("engine.restored_bytes", "B");
    for level in OptLevel::ALL {
        add(&format!("compile.ms.{}", level.tag()), "ms");
    }
    for level in OptLevel::ALL {
        add(&format!("compile.translate_ms.{}", level.tag()), "ms");
    }
    add("compile.instantiate_us", "us");
    add("sim.cycles", "cycles");
    for level in OptLevel::ALL {
        add(&format!("sim.mips.{}", level.tag()), "MIPS");
    }
    for level in OptLevel::ALL {
        add(&format!("sim.shortcut_share.{}", level.tag()), "share");
    }
    for level in OptLevel::ALL {
        add(&format!("sim.bulk_share.{}", level.tag()), "share");
    }
    add("cluster.run_us", "us");
    add("cluster.latency_cycles", "cycles");
    add("cluster.conflict_stalls", "cycles");
    add("cluster.barrier_cycles", "cycles");
    add("cluster.dma_cycles", "cycles");
    add("guard.overhead_us", "us");
    add("guard.entries", "count");
    add("guard.fails", "count");
    add("trace.overhead_pct", "%");
    out
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::City => city::run(cfg, false),
        Workload::CityOverload => city::run(cfg, true),
        Workload::Table1 => suite::table1(cfg),
        Workload::SuiteWarm => suite::suite_warm(cfg),
    }
}

/// Fewest set-ups a run performs; `setup_s` is the median of their times.
const MIN_SETUPS: usize = 9;

/// Most set-ups a run performs.
const MAX_SETUPS: usize = 1000;

/// Time after which a run stops repeating its set-up: a cheap set-up is
/// repeated more often, so that its median steadies.
const SETUP_SECONDS: f64 = 1.0;

/// Runs `build` at least [`MIN_SETUPS`] times, then again until
/// [`SETUP_SECONDS`] have passed or it ran [`MAX_SETUPS`] times, dropping
/// each result before the next build starts. Returns the last result and
/// every build's time in seconds.
pub(crate) fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up"), times)
}

/// Per-layer values a workload measured, by schema name.
#[derive(Default)]
pub(crate) struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Every schema metric, 0 where the workload left it unset.
    fn into_metrics(self) -> Vec<Metric> {
        let schema = per_layer_schema();
        for name in self.0.keys() {
            assert!(
                schema.iter().any(|(n, _)| n == name),
                "per-layer metric {name} missing from the schema"
            );
        }
        schema
            .into_iter()
            .map(|(name, unit)| Metric {
                value: self.0.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    }
}

/// Verification bookkeeping shared by the workloads.
#[derive(Default)]
pub(crate) struct Checks {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) problems: Vec<String>,
}

impl Checks {
    /// Records a failed check that spoils `ops` operations.
    pub(crate) fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks `got == want`, spoiling `ops` operations on a mismatch.
    pub(crate) fn expect_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        got: T,
        want: T,
        ops: u64,
    ) {
        if got != want {
            self.fail(ops, format!("{what}: got {got:?}, want {want:?}"));
        }
    }
}

/// Timed passes of one run, split by whether they were traced.
#[derive(Default)]
pub(crate) struct Passes {
    untraced: (u64, f64),
    traced: (u64, f64),
    count: usize,
}

impl Passes {
    /// Runs `pass(index, traced)` within `cfg.seconds`: no pass starts
    /// that would, at the mean pass time so far, end later. A pass
    /// returns `(operations, timed seconds)`. Traced runs alternate
    /// untraced and traced passes and run at least one of each.
    pub(crate) fn drive(cfg: &Config, mut pass: impl FnMut(usize, bool) -> (u64, f64)) -> Self {
        let started = Instant::now();
        let min = if cfg.trace { 2 } else { 1 };
        let mut out = Self::default();
        loop {
            let traced = cfg.trace && out.count % 2 == 1;
            let (ops, secs) = pass(out.count, traced);
            let side = if traced {
                &mut out.traced
            } else {
                &mut out.untraced
            };
            side.0 += ops;
            side.1 += secs;
            out.count += 1;
            let elapsed = started.elapsed().as_secs_f64();
            let next_end = elapsed + elapsed / out.count as f64;
            if out.count >= min && next_end > cfg.seconds {
                return out;
            }
        }
    }

    /// Untraced throughput over traced throughput, as a percentage excess.
    pub(crate) fn trace_overhead_pct(&self) -> f64 {
        let rate = |(ops, secs): (u64, f64)| ops as f64 / secs.max(1e-9);
        (rate(self.untraced) / rate(self.traced) - 1.0) * 100.0
    }
}

/// The timed events of one pass, in the order the pass's thread reached
/// them, and its operations, each from a start event to an end event.
pub(crate) struct Events {
    started: Instant,
    /// Per event, ns since `started`.
    times: Vec<u64>,
    /// Per event, the host time (ns) of the engine run it reports, if any.
    runs: Vec<Option<u64>>,
    /// Per operation, (start event, end event).
    ops: Vec<(usize, usize)>,
}

impl Events {
    /// An empty record of a pass that started at `started`.
    pub(crate) fn new(started: Instant) -> Self {
        Self {
            started,
            times: Vec::new(),
            runs: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn push(&mut self, at: Instant, run: Option<u64>) -> usize {
        self.times
            .push(at.saturating_duration_since(self.started).as_nanos() as u64);
        self.runs.push(run);
        self.times.len() - 1
    }

    /// Records an event at `at`; returns its index.
    pub(crate) fn mark(&mut self, at: Instant) -> usize {
        self.push(at, None)
    }

    /// Records an event at `at` that reports an engine run of `run_ns`
    /// (its `RunReport::host_nanos`), made since the last event that
    /// reports none; returns its index.
    pub(crate) fn mark_run(&mut self, at: Instant, run_ns: u64) -> usize {
        self.push(at, Some(run_ns))
    }

    /// Records an operation from event `start` to event `end`.
    pub(crate) fn op(&mut self, start: usize, end: usize) {
        self.ops.push((start, end));
    }
}

/// Untraced passes, each stretch of work counted at its fastest
/// repetition. Host speed on a shared machine changes from one
/// millisecond to the next, and a pass's work is deterministic, so other
/// load on the host only ever slows a stretch of it down: the fastest of
/// several repetitions is the steadiest estimate of what the code itself
/// costs. Verification between passes never counts.
///
/// Passes of the same round reach the same events in the same order, so
/// an event is keyed by (round, index in the pass). `table1` and
/// `suite_warm` mark the boundaries of the public calls each operation
/// makes. A city pass marks each pull from the stream and each sink call;
/// the front's loop is deterministic and every pass serves the same
/// requests in the same order and batches (which the city workloads
/// verify). Each event keeps its fastest *step*, the host time from the
/// event before it in its pass (or the pass start).
///
/// A sink call ends a batch of several milliseconds when it is the
/// batch's first, and so few repetitions of such a step escape all
/// interference. The sink calls between two pulls form a *group*: every
/// engine run of the group's batches lies inside the group's span, and
/// each sink call reports its request's run time. A group's fastest
/// length is the fastest of its rest (span minus runs) plus each run's
/// fastest repetition, but no more than the sum of its events' fastest
/// steps; its events' steps are scaled to that length.
///
/// The steps, laid end to end, make each round's fastest timeline.
/// Throughput is the operations over the timelines' lengths, and an
/// operation's latency is the time from its start event to its end event
/// on its timeline. In serial passes that is the fastest repetition of
/// the operation itself; a city request's latency is its queueing and
/// service as the fastest timeline has them. A change that slows every
/// repetition of some stretch of work moves these numbers; one that slows
/// only some repetitions does not.
#[derive(Default)]
pub(crate) struct Timeline {
    rounds: Vec<Round>,
    /// Timed operations, over all repetitions.
    samples: usize,
}

/// One round's events across passes.
#[derive(Default)]
struct Round {
    /// Fastest step per event, ns.
    fastest: Vec<u64>,
    /// Fastest run per event, ns (0 for events that report none).
    runs: Vec<u64>,
    /// Per group, its events and its fastest rest, ns.
    groups: Vec<(Range<usize>, u64)>,
    /// The operations of the round's first pass.
    ops: Vec<(usize, usize)>,
}

/// The maximal stretches of consecutive events that report a run.
fn groups(runs: &[Option<u64>]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut from = None;
    for (e, run) in runs.iter().enumerate() {
        match (run, from) {
            (Some(_), None) => from = Some(e),
            (None, Some(f)) => {
                out.push(f..e);
                from = None;
            }
            _ => {}
        }
    }
    out.extend(from.map(|f| f..runs.len()));
    out
}

impl Timeline {
    /// Appends one untraced pass of `round`. A pass whose events differ
    /// in number from the round's first pass (which verification reports)
    /// is left out.
    pub(crate) fn add_pass(&mut self, round: usize, events: &Events) {
        if self.rounds.len() <= round {
            self.rounds.resize_with(round + 1, Round::default);
        }
        let r = &mut self.rounds[round];
        let n = events.times.len();
        if r.fastest.is_empty() {
            r.fastest = vec![u64::MAX; n];
            r.runs = vec![u64::MAX; n];
            r.groups = groups(&events.runs)
                .into_iter()
                .map(|g| (g, u64::MAX))
                .collect();
            r.ops = events.ops.clone();
        } else if r.fastest.len() != n {
            return;
        }
        let mut previous = 0;
        let steps: Vec<u64> = events
            .times
            .iter()
            .map(|&t| t.saturating_sub(std::mem::replace(&mut previous, t)))
            .collect();
        let runs: Vec<u64> = events.runs.iter().map(|run| run.unwrap_or(0)).collect();
        for e in 0..n {
            r.fastest[e] = r.fastest[e].min(steps[e]);
            r.runs[e] = r.runs[e].min(runs[e]);
        }
        for (g, rest) in &mut r.groups {
            let span: u64 = steps[g.clone()].iter().sum();
            let ran: u64 = runs[g.clone()].iter().sum();
            *rest = (*rest).min(span.saturating_sub(ran));
        }
        self.samples += events.ops.len();
    }

    /// Throughput and latency percentiles of the run.
    fn summary(&self) -> Summary {
        let mut ns = 0;
        let mut latency = Vec::new();
        for r in &self.rounds {
            let mut steps = r.fastest.clone();
            for (g, rest) in &r.groups {
                let shape: u64 = steps[g.clone()].iter().sum();
                let length = shape.min(rest + r.runs[g.clone()].iter().sum::<u64>());
                for step in &mut steps[g.clone()] {
                    *step = (*step as u128 * length as u128 / shape.max(1) as u128) as u64;
                }
            }
            let mut at = Vec::with_capacity(steps.len());
            let mut t = 0u64;
            for step in steps {
                t += step;
                at.push(t);
            }
            ns += t;
            latency.extend(
                r.ops
                    .iter()
                    .map(|&(start, end)| at[end].saturating_sub(at[start])),
            );
        }
        latency.sort_unstable();
        Summary {
            throughput: latency.len() as f64 / ns.max(1) as f64 * 1e9,
            p50_us: percentile(&latency, 50.0) as f64 / 1e3,
            p99_us: percentile(&latency, 99.0) as f64 / 1e3,
            samples: self.samples,
        }
    }
}

/// What [`Timeline::summary`] reports.
#[derive(Debug)]
pub(crate) struct Summary {
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    /// Timed operations behind the numbers.
    samples: usize,
}

/// The median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted `samples`.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean of `total` over `n`, 0 when `n` is 0.
pub(crate) fn mean(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Assembles an [`Outcome`] from a workload's measurements.
pub(crate) struct Finish {
    pub(crate) checks: Checks,
    pub(crate) passes: Passes,
    /// Every set-up's time, seconds ([`set_up`]).
    pub(crate) setups: Vec<f64>,
    pub(crate) timeline: Timeline,
    /// [`peak_rss_mib`] when the last timed pass ended, so memory the
    /// benchmark's own verification allocates afterwards does not count.
    pub(crate) peak_rss_mb: f64,
    pub(crate) exact: Vec<Metric>,
    pub(crate) layers: Option<Layers>,
    pub(crate) rec: Recorder,
}

impl Finish {
    pub(crate) fn outcome(self) -> Outcome {
        let summary = self.timeline.summary();
        let setups = self.setups.len();
        let values = [
            median(self.setups),
            summary.throughput,
            summary.p50_us,
            summary.p99_us,
            self.peak_rss_mb,
        ];
        let end_to_end = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect();
        let per_layer = self.layers.map_or_else(Vec::new, |mut layers| {
            layers.set("trace.overhead_pct", self.passes.trace_overhead_pct());
            layers.into_metrics()
        });
        Outcome {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            problems: self.checks.problems,
            passes: self.passes.count,
            latency_samples: summary.samples,
            setups,
            end_to_end,
            exact: self.exact,
            per_layer,
            spans: self.rec.into_spans(),
        }
    }
}

/// Per-name span aggregates, with self times computed once.
pub(crate) struct SpanStats<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
}

impl<'a> SpanStats<'a> {
    pub(crate) fn new(spans: &'a [Span]) -> Self {
        Self {
            spans,
            own: trace::self_times(spans),
        }
    }

    fn mean_of(&self, name: &str, keep: impl Fn(&Span) -> bool, own: bool) -> f64 {
        let (mut total, mut n) = (0u64, 0usize);
        for (s, &self_ns) in self.spans.iter().zip(&self.own) {
            if s.name == name && keep(s) {
                total += if own { self_ns } else { s.duration() };
                n += 1;
            }
        }
        mean(total as f64, n)
    }

    /// Mean duration (ns) of the spans named `name` that `keep` admits.
    pub(crate) fn mean_ns(&self, name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
        self.mean_of(name, keep, false)
    }

    /// Mean self time (ns) of the spans named `name` that `keep` admits.
    pub(crate) fn mean_self_ns(&self, name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
        self.mean_of(name, keep, true)
    }
}

/// Simulator counters summed over single-machine engine runs of one level.
#[derive(Clone, Copy, Default)]
pub(crate) struct SimTally {
    instrs: u64,
    host_ns: u64,
    shortcut: u64,
    bulk: u64,
}

impl SimTally {
    /// Adds the run `engine` just finished; `bulk_before` is
    /// `Machine::bulk_instrs` before it (that counter never resets).
    pub(crate) fn add(&mut self, engine: &Engine, report: &RunReport, bulk_before: u64) {
        self.instrs += report.instrs();
        self.host_ns += report.host_nanos();
        self.shortcut += engine.machine().shortcut_instrs();
        self.bulk += engine.machine().bulk_instrs() - bulk_before;
    }

    /// Sets `sim.mips`, `sim.shortcut_share` and `sim.bulk_share` of `level`.
    pub(crate) fn set_layers(&self, layers: &mut Layers, level: &str) {
        let instrs = self.instrs.max(1) as f64;
        layers.set(
            &format!("sim.mips.{level}"),
            self.instrs as f64 / self.host_ns.max(1) as f64 * 1e3,
        );
        layers.set(
            &format!("sim.shortcut_share.{level}"),
            self.shortcut as f64 / instrs,
        );
        layers.set(
            &format!("sim.bulk_share.{level}"),
            self.bulk as f64 / instrs,
        );
    }
}

/// Runs `engine` on `window`, timed; traced runs record an `engine.run`
/// span with a `sim.execute` child as long as the run's `host_nanos`
/// (placed at the start of its parent: the offset inside the call is not
/// observable from outside).
pub(crate) fn timed_run(
    engine: &mut Engine,
    window: &[Vec<Q3p12>],
    rec: Option<(&mut Recorder, Option<SpanId>, u64)>,
) -> (Result<NetworkRun, CoreError>, Instant, Instant) {
    let t0 = Instant::now();
    let result = engine.run(window);
    let t1 = Instant::now();
    if let (Some((rec, parent, req)), Ok(run)) = (rec, &result) {
        let span = rec.push("engine.run", parent, Some(req), t0, t1);
        let start = rec.ns(t0);
        let end = start + run.report.host_nanos();
        rec.push_ns("sim.execute", Some(span), Some(req), start, end);
    }
    (result, t0, t1)
}

/// A metric with a `&str` name.
pub(crate) fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Renders metrics as a JSON object body: `"name": {"value": v, "unit": "u"}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    /// A pass whose events take `steps` ns each after the one before and
    /// report `runs`.
    fn events(
        steps: impl IntoIterator<Item = u64>,
        runs: Vec<Option<u64>>,
        ops: Vec<(usize, usize)>,
    ) -> Events {
        let mut t = 0;
        let times: Vec<u64> = steps
            .into_iter()
            .map(|step| {
                t += step;
                t
            })
            .collect();
        assert_eq!(times.len(), runs.len());
        Events {
            started: Instant::now(),
            times,
            runs,
            ops,
        }
    }

    #[test]
    fn serial_operations_count_at_their_best_repetition() {
        // Two rounds of serial passes over 100 operations; operation i of
        // round r takes (i + 1 + 100 r) µs at best and starts as the one
        // before it ends. Each pass is slowed down, in a different
        // operation, three operations, and as a whole.
        let mut timeline = Timeline::default();
        for p in 0..8u64 {
            let best = |r: u64, i: u64| (i + 1 + 100 * r) * 1_000;
            for r in 0..2 {
                let lat = |i: u64| match i {
                    _ if p == 7 => 2 * best(r, i),
                    _ if i == p || (i + p) % 50 < 3 => 5 * best(r, i),
                    _ => best(r, i),
                };
                let steps = (0..100).flat_map(|i| [0, lat(i)]);
                let ops = (0..100).map(|i| (2 * i, 2 * i + 1)).collect();
                timeline.add_pass(r as usize, &events(steps, vec![None; 200], ops));
            }
        }
        let summary = timeline.summary();
        // 200 distinct operations taking 1..=200 µs: 20.1 ms in all.
        assert!(
            (summary.throughput - 200.0 / 0.0201).abs() < 1e-6,
            "{summary:?}"
        );
        assert_eq!((summary.p50_us, summary.p99_us), (100.0, 198.0));
        assert_eq!(summary.samples, 1_600);
    }

    #[test]
    fn queued_requests_take_latency_from_the_fastest_timeline() {
        // Three passes over 100 batches of 10 requests. Per batch, ten
        // pulls 1 µs apart, then ten sink calls, each reporting a 10 µs
        // run: the first after the batch's 100 µs run, the others 1 µs
        // apart. The first pass runs its first 50 batches 3x slower, the
        // second its last 50; the third pass runs 2x slower throughout.
        let mut timeline = Timeline::default();
        for (slow_half, factor) in [(Some(0), 3), (Some(1), 3), (None, 2)] {
            let slow = |b: usize| match slow_half {
                Some(half) if b / 50 == half => factor,
                Some(_) => 1,
                None => factor,
            };
            let steps = (0..100).flat_map(|b| {
                (0..20).map(move |e| slow(b) * if e == 10 { 100_000 } else { 1_000 })
            });
            let runs = (0..100)
                .flat_map(|b| (0..20).map(move |e| (e >= 10).then_some(slow(b) * 10_000)))
                .collect();
            let ops = (0..100)
                .flat_map(|b| (0..10).map(move |k| (20 * b + k, 20 * b + 10 + k)))
                .collect();
            timeline.add_pass(0, &events(steps, runs, ops));
        }
        let summary = timeline.summary();
        // 100 batches of 119 µs: 11.9 ms for 1000 requests, each waiting
        // for the pulls after it, the run and the sink calls before it.
        assert!(
            (summary.throughput - 1_000.0 / 0.0119).abs() < 1e-6,
            "{summary:?}"
        );
        assert_eq!((summary.p50_us, summary.p99_us), (109.0, 109.0));
        assert_eq!(summary.samples, 3_000);
    }

    #[test]
    fn a_batch_counts_each_run_at_its_best_pass() {
        // One pull (1 µs), then a batch of four 10 µs runs and four sink
        // calls 1 µs apart. Each of three passes slows different runs 3x,
        // so every pass's batch takes at least 60 µs, but each run has a
        // pass where it took 10 µs: the batch counts 40 µs of runs plus
        // its 3 µs rest.
        let pass = |p: u64, report: u64| {
            let runs: Vec<u64> = (0..4)
                .map(|k| if k % 3 == p { 30_000 } else { 10_000 })
                .collect();
            let steps = [1_000, runs.iter().sum(), 1_000, 1_000, 1_000];
            let reported = std::iter::once(None).chain(runs.iter().map(|r| Some(r * report)));
            let ops = (1..5).map(|k| (0, k)).collect();
            events(steps, reported.collect(), ops)
        };
        let mut timeline = Timeline::default();
        for p in 0..3 {
            timeline.add_pass(0, &pass(p, 1));
        }
        let summary = timeline.summary();
        let want = 4.0 / 44e-6;
        assert!(
            (summary.throughput / want - 1.0).abs() < 1e-3,
            "{summary:?}"
        );

        // Runs that report more than the batch took (as overlapping runs
        // would) leave each event at its fastest step: 64 µs in all.
        let mut timeline = Timeline::default();
        for p in 0..3 {
            timeline.add_pass(0, &pass(p, 2));
        }
        let summary = timeline.summary();
        assert!(
            (summary.throughput - 4.0 / 64e-6).abs() < 1e-6,
            "{summary:?}"
        );
    }

    #[test]
    fn empty_timeline_reads_zero() {
        let summary = Timeline::default().summary();
        assert_eq!((summary.throughput, summary.p99_us), (0.0, 0.0));
    }

    #[test]
    fn set_up_repeats_until_enough_builds_and_time() {
        let mut builds = 0;
        let (last, times) = set_up(|| {
            builds += 1;
            builds
        });
        // Instant builds stop at the cap, well within the time.
        assert_eq!(
            (builds, last, times.len()),
            (MAX_SETUPS, MAX_SETUPS, MAX_SETUPS)
        );

        // Slow builds stop at the minimum count, past the time.
        let (_, times) = set_up(|| std::thread::sleep(Duration::from_millis(150)));
        assert_eq!(times.len(), MIN_SETUPS);

        // Between the two, builds stop once the time has passed.
        let (_, times) = set_up(|| std::thread::sleep(Duration::from_millis(50)));
        let total: f64 = times.iter().sum();
        assert!(times.len() > MIN_SETUPS && times.len() < MAX_SETUPS);
        assert!(total >= SETUP_SECONDS - 0.05, "{times:?}");
        assert!(total - times[times.len() - 1] < SETUP_SECONDS, "{times:?}");
    }

    #[test]
    fn schema_names_are_unique() {
        let schema = per_layer_schema();
        let mut names: Vec<&str> = schema.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), schema.len());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
