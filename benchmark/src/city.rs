//! The `city` and `city_overload` workloads: the city's arrival stream
//! served through a `Front` over an `EnginePool`.
//!
//! The front runs an open loop in virtual time; in host time a pass is a
//! replay that pulls arrivals as fast as they are served. A request's
//! host latency therefore starts when the front pulls it from the
//! stream, not at a host-time due date.
//!
//! The arrival process is the canonical city at every seed, and the
//! workload seed draws each request's input window. Pull-to-sink latency
//! grows with the front's virtual backlog, and that backlog differs
//! widely between city seeds (median host latency from under 1 ms to
//! over 70 ms on the same host): with a seeded arrival process the host
//! metrics would measure the seed, not the code.
//!
//! The city's day is compressed to [`HORIZON_S`] so that a pass takes
//! a fraction of a second of host time and a run repeats every pull and
//! sink call dozens of times: each counts at its fastest repetition (see
//! `Timeline`), and the few repetitions of a multi-second pass left the
//! host's speed in the numbers.

use crate::trace::{Recorder, SpanId};
use crate::{
    mean, metric, peak_rss_mib, set_up, timed_run, Checks, Config, Events, Finish, Layers, Outcome,
    Passes, Scale, SimTally, SpanStats, Timeline,
};
use rnnasip_core::serve::{
    output_fingerprint, Arrival, BatchRequest, EnginePool, Front, FrontConfig, OverloadPolicy,
    TrafficReport,
};
use rnnasip_core::{CoreError, Engine, KernelBackend, NetworkRun};
use rnnasip_rrm::traffic::{CityConfig, CityTraffic};
use rnnasip_sim::UopProgram;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The city's traffic classes, in `CityConfig::bench_city` order.
pub(crate) const CLASS_TAGS: [&str; 3] = ["spectrum", "power", "coex"];

/// Seed of the canonical city.
const CITY_SEED: u64 = 0x5EED_C117;

/// Virtual seconds of the benchmark city: one whole diurnal day of
/// `CityConfig::bench_city`, compressed from 3 s, at the same per-UE
/// rates: 8,252 arrivals.
const HORIZON_S: f64 = 0.25;

/// Served requests the traced run replays through the serial, 1-worker
/// and 2-worker arms (an evenly strided sample of the served order).
const REPLAY_CAP: usize = 16_384;

/// Rounds the replay arms take turns over.
const REPLAY_ROUNDS: usize = 8;

/// A request's identity in the stream: (class, virtual arrival, UE).
type Key = (usize, u64, u64);

fn key(a: &Arrival) -> Key {
    (a.class, a.arrival, a.ue)
}

/// Virtual-time results of the benchmark city through the `city` and
/// `city_overload` fronts, as (goodput ppm, virtual p99 latency, served
/// cycles). Cycle counts do not depend on input values, so they hold at
/// every workload seed and pool width.
const CITY_PINS: [u64; 3] = [1_000_000, 294_911, 150_167_234];
const OVERLOAD_PINS: [u64; 3] = [126_272, 5_242_879, 93_171_850];

/// `city`: 8 virtual servers and a queue that never fills, so nothing is
/// shed. `city_overload`: 2 virtual servers and a 512-slot queue shedding
/// oldest. Both batch up to 64 requests under a 100k-cycle window.
fn front_config(overload: bool) -> FrontConfig {
    FrontConfig {
        servers: if overload { 2 } else { 8 },
        batch_window: 100_000,
        max_batch: 64,
        queue_cap: if overload { 512 } else { 1 << 20 },
        policy: OverloadPolicy::ShedOldest,
        classes: CLASS_TAGS.len(),
    }
}

fn new_pool(workers: usize, guarded: bool) -> EnginePool {
    if guarded {
        EnginePool::with_workers_guarded(workers)
    } else {
        EnginePool::with_workers(workers)
    }
}

/// One request per class through `pool`, so every class net is compiled
/// before timing starts.
fn prewarm(pool: &EnginePool, city: &CityConfig, seed: u64) -> bool {
    let mut batch = BatchRequest::new();
    for (i, class) in city.classes.iter().enumerate() {
        let net = &class.net;
        let window = rnnasip_rrm::seeded_sequence(net.n_in(), net.seq_len(), seed ^ i as u64);
        batch.push(net.clone(), class.level, window);
    }
    pool.run_batch(batch).all_ok()
}

/// The canonical arrival process with arrival `i`'s input window drawn
/// from `seed` and `i`.
fn stream(city: &CityConfig, seed: u64) -> impl Iterator<Item = Arrival> {
    CityTraffic::new(city).enumerate().map(move |(i, mut a)| {
        let mix = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        a.sequence = rnnasip_rrm::seeded_sequence(a.net.n_in(), a.net.seq_len(), mix);
        a
    })
}

/// Where a pulled arrival's host latency starts: the pull instant, the
/// arrival's index in the stream and its pull event.
type Pulled = HashMap<Key, (Instant, u64, usize)>;

/// The stream as the front pulls it: marks each pull as an event (where
/// the arrival's host latency starts) and, when traced, records a
/// `traffic.next` span per pull, covering generation and reseeding.
struct Pulls<'a, I> {
    stream: I,
    pulled: &'a RefCell<Pulled>,
    events: &'a RefCell<Events>,
    count: u64,
    trace: Option<(&'a RefCell<Recorder>, SpanId)>,
}

impl<I: Iterator<Item = Arrival>> Iterator for Pulls<'_, I> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let start = self.trace.map(|_| Instant::now());
        let arrival = self.stream.next();
        let now = Instant::now();
        if let (Some((rec, pass)), Some(start)) = (self.trace, start) {
            let req = arrival.as_ref().map(|_| self.count);
            rec.borrow_mut()
                .push("traffic.next", Some(pass), req, start, now);
        }
        let arrival = arrival?;
        let event = self.events.borrow_mut().mark(now);
        // A duplicate key (one UE twice in one cycle of one class) keeps
        // the later pull; the earlier request then goes unsampled.
        self.pulled
            .borrow_mut()
            .insert(key(&arrival), (now, self.count, event));
        self.count += 1;
        Some(arrival)
    }
}

/// What one pass through the front produced.
struct PassOut {
    report: TrafficReport,
    /// Served requests in sink order.
    served: Vec<Key>,
    /// Pulls and sink calls, with each served request from its pull to
    /// its sink call.
    events: Events,
    /// Guard (entries, fails) summed over served requests.
    guard: (u64, u64),
    secs: f64,
}

fn city_pass(
    pool: &EnginePool,
    front: &FrontConfig,
    arrivals: impl Iterator<Item = Arrival>,
    trace: Option<&RefCell<Recorder>>,
) -> PassOut {
    let pulled = RefCell::new(HashMap::new());
    let mut served = Vec::new();
    let mut guard = (0, 0);
    let started = Instant::now();
    let events = RefCell::new(Events::new(started));
    let traced = trace.map(|rec| (rec, rec.borrow_mut().open("pass", None)));
    let stream = Pulls {
        stream: arrivals,
        pulled: &pulled,
        events: &events,
        count: 0,
        trace: traced,
    };
    let report = Front::new(pool, front.clone()).serve_with(stream, |a, run| {
        let done = Instant::now();
        let mut events = events.borrow_mut();
        let sunk = events.mark_run(done, run.report.host_nanos());
        if let Some((at, req, pull)) = pulled.borrow_mut().remove(&key(a)) {
            events.op(pull, sunk);
            if let Some((rec, pass)) = traced {
                rec.borrow_mut()
                    .push("request", Some(pass), Some(req), at, done);
            }
        }
        served.push(key(a));
        if let Some(g) = run.report.guard() {
            guard.0 += g.entries();
            guard.1 += g.fails();
        }
    });
    let secs = started.elapsed().as_secs_f64();
    if let Some((rec, pass)) = traced {
        rec.borrow_mut().close(pass);
    }
    PassOut {
        report,
        served,
        events: events.into_inner(),
        guard,
        secs,
    }
}

/// One warm engine per class, compiled serially. Traced runs record the
/// compile and instantiate spans (`req` is the class index).
fn class_engines(
    city: &CityConfig,
    rec: Option<&RefCell<Recorder>>,
) -> Result<Vec<Engine>, CoreError> {
    let mut engines = Vec::new();
    for (i, class) in city.classes.iter().enumerate() {
        let t0 = Instant::now();
        let compiled = KernelBackend::new(class.level).compile_network(&class.net)?;
        let t1 = Instant::now();
        let engine = compiled.engine();
        let t2 = Instant::now();
        if let Some(rec) = rec {
            let mut rec = rec.borrow_mut();
            let req = Some(i as u64);
            rec.push("compile.compile_network", None, req, t0, t1);
            rec.push("compile.instantiate", None, req, t1, t2);
        }
        engines.push(engine);
    }
    Ok(engines)
}

/// Totals over a request set: how many ran, their cycles, the
/// order-independent output checksum the front also keeps, and errors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    count: u64,
    cycles: u64,
    fnv: u64,
    errors: u64,
}

impl Tally {
    fn add(&mut self, result: &Result<NetworkRun, CoreError>) {
        self.count += 1;
        match result {
            Ok(run) => {
                self.cycles += run.report.cycles();
                self.fnv = self.fnv.wrapping_add(output_fingerprint(&run.outputs));
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// Runs the stream's arrivals that `keep` admits (by stream index; all of
/// them without `keep`) on serial warm engines.
fn serial_reference(
    city: &CityConfig,
    seed: u64,
    keep: Option<&[bool]>,
) -> Result<Tally, CoreError> {
    let mut engines = class_engines(city, None)?;
    let mut tally = Tally::default();
    let kept = stream(city, seed)
        .enumerate()
        .filter(|&(i, _)| keep.is_none_or(|keep| keep[i]));
    for (_, a) in kept {
        tally.add(&engines[a.class].run(&a.sequence));
    }
    Ok(tally)
}

/// The canonical city at `cfg`'s scale: the bench city with its day
/// compressed to [`HORIZON_S`], or the demo city.
fn city(cfg: &Config) -> CityConfig {
    let city = match cfg.scale {
        Scale::Full => {
            let mut city = CityConfig::bench_city(CITY_SEED);
            city.horizon_s = HORIZON_S;
            city.day_s = HORIZON_S;
            city
        }
        Scale::Smoke => CityConfig::demo_city(CITY_SEED),
    };
    let names: Vec<&str> = city.classes.iter().map(|c| c.name).collect();
    assert_eq!(names, CLASS_TAGS, "city classes changed");
    let level = city.classes[0].level;
    assert!(
        city.classes.iter().all(|c| c.level == level),
        "city classes serve at one level"
    );
    city
}

/// The set-up: spawn the pool, then prewarm it. The pool comes back as
/// `Err` when a prewarm request failed.
fn setup(cfg: &Config, city: &CityConfig, guarded: bool) -> Result<EnginePool, EnginePool> {
    let pool = new_pool(cfg.workers, guarded);
    if prewarm(&pool, city, cfg.seed) {
        Ok(pool)
    } else {
        Err(pool)
    }
}

pub(crate) fn run(cfg: &Config, overload: bool) -> Outcome {
    let city = city(cfg);
    let front = front_config(overload);
    let guarded = overload;
    let mut checks = Checks::default();
    let (pool, setups) = set_up(|| setup(cfg, &city, guarded));
    let pool = pool.unwrap_or_else(|pool| {
        checks.fail(0, "prewarm request failed".into());
        pool
    });

    let rec = RefCell::new(Recorder::new());
    let mut first: Option<PassOut> = None;
    let mut timeline = Timeline::default();
    let mut untraced_secs = Vec::new();
    let passes = Passes::drive(cfg, |_, traced| {
        let arrivals = stream(&city, cfg.seed);
        let out = city_pass(&pool, &front, arrivals, traced.then_some(&rec));
        let total = out.report.aggregate();
        checks.attempted += total.offered;
        checks.failed += total.failed;
        if !overload && total.shed > 0 {
            checks.fail(total.shed, format!("no-shed city shed {}", total.shed));
        }
        if !traced {
            timeline.add_pass(0, &out.events);
            untraced_secs.push(out.secs);
        }
        let ops = (total.served, out.secs);
        match &first {
            None => first = Some(out),
            Some(f) => {
                checks.expect_eq("pass report", &out.report, &f.report, ops.0);
                checks.expect_eq("pass served order", &out.served, &f.served, ops.0);
            }
        }
        ops
    });
    let first = first.expect("at least one pass");
    let total = first.report.aggregate();
    let peak_rss_mb = peak_rss_mib();
    let panics = pool.worker_panics_caught();
    drop(pool);

    // Verification: serial warm engines reproduce the served set. The
    // overload front serves the first occurrences of each served key.
    let keep: Option<Vec<bool>> = overload.then(|| {
        let mut wanted: HashMap<Key, u32> = HashMap::new();
        for k in &first.served {
            *wanted.entry(*k).or_default() += 1;
        }
        CityTraffic::new(&city)
            .map(|a| match wanted.get_mut(&key(&a)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            })
            .collect()
    });
    match serial_reference(&city, cfg.seed, keep.as_deref()) {
        Ok(reference) => {
            let got = Tally {
                count: total.served,
                cycles: first.report.served_cycles,
                fnv: first.report.outputs_fnv,
                errors: 0,
            };
            checks.expect_eq("pass vs serial reference", got, reference, total.served);
        }
        Err(e) => checks.fail(checks.attempted, format!("compiling class nets: {e}")),
    }
    let exact = vec![
        metric("goodput_ppm", total.goodput_ppm() as f64, "ppm"),
        metric("vlatency_p99_cycles", total.latency.p99() as f64, "cycles"),
        metric("sim_cycles", first.report.served_cycles as f64, "cycles"),
    ];
    if cfg.scale == Scale::Full {
        let pins = if overload { OVERLOAD_PINS } else { CITY_PINS };
        for (m, want) in exact.iter().zip(pins) {
            checks.expect_eq(&format!("pinned {}", m.name), m.value as u64, want, 0);
        }
    }

    let layers = cfg.trace.then(|| {
        let mut engines = class_engines(&city, Some(&rec)).unwrap_or_else(|e| {
            checks.fail(0, format!("compiling class nets: {e}"));
            Vec::new()
        });
        let mut layers = Layers::default();
        let replay = Replay {
            city: &city,
            seed: cfg.seed,
            first: &first,
            guarded,
            workers: cfg.workers,
            pass_secs: mean(untraced_secs.iter().sum(), untraced_secs.len()),
            panics,
        };
        replay.run(&mut engines, &rec, &mut layers, &mut checks);
        layers
    });

    Finish {
        checks,
        passes,
        setups,
        timeline,
        peak_rss_mb,
        exact,
        layers,
        rec: rec.into_inner(),
    }
    .outcome()
}

/// The traced run's replay phases: a strided sample of the served
/// requests, in served order, runs on serial warm engines (guarded and
/// unguarded), and through a 1-worker and a 2-worker pool of the
/// workload's kind in chunks of the front's mean batch size.
struct Replay<'a> {
    city: &'a CityConfig,
    seed: u64,
    first: &'a PassOut,
    guarded: bool,
    /// Workers of the timed passes' pool.
    workers: usize,
    /// Mean host time of an untraced pass, seconds.
    pass_secs: f64,
    /// Worker panics the timed pool contained.
    panics: usize,
}

impl Replay<'_> {
    /// The sampled served requests, rebuilt by regenerating the stream.
    fn sample(&self) -> Vec<Arrival> {
        let served = &self.first.served;
        let stride = served.len().div_ceil(REPLAY_CAP).max(1);
        let wanted: Vec<Key> = served.iter().step_by(stride).copied().collect();
        let wanted_set: HashSet<Key> = wanted.iter().copied().collect();
        let mut by_key: HashMap<Key, Arrival> = stream(self.city, self.seed)
            .filter(|a| wanted_set.contains(&key(a)))
            .map(|a| (key(&a), a))
            .collect();
        wanted.iter().filter_map(|k| by_key.remove(k)).collect()
    }

    fn run(
        &self,
        engines: &mut [Engine],
        rec: &RefCell<Recorder>,
        layers: &mut Layers,
        checks: &mut Checks,
    ) {
        let report = &self.first.report;
        let total = report.aggregate();
        let batch_mean = total.served as f64 / report.batches.max(1) as f64;
        layers.set("traffic.arrivals", total.offered as f64);
        layers.set("front.batches", report.batches as f64);
        layers.set("front.batch_mean", batch_mean);
        layers.set("front.max_queue", report.max_queue as f64);
        layers.set("front.shed", total.shed as f64);
        layers.set("front.goodput_ppm", total.goodput_ppm() as f64);
        layers.set("front.vlatency_p99_cycles", total.latency.p99() as f64);
        layers.set("sim.cycles", report.served_cycles as f64);
        layers.set("guard.entries", self.first.guard.0 as f64);
        layers.set("guard.fails", self.first.guard.1 as f64);
        let requests = self.sample();
        if engines.is_empty() || requests.is_empty() {
            return;
        }
        let n = requests.len() as f64;
        let chunk = (batch_mean.round() as usize).max(1);
        let widths = [1, 2];
        let pools = widths.map(|workers| new_pool(workers, self.guarded));
        for (pool, workers) in pools.iter().zip(widths) {
            if !prewarm(pool, self.city, self.seed) {
                checks.fail(0, format!("{workers}-worker replay prewarm failed"));
            }
        }

        // Arms: serial unguarded, serial guarded (overload only), then the
        // pools. They take turns over rounds of the sample so that a
        // change in host speed hits every arm alike. The serial arm
        // matching the workload's pool records spans and counters.
        let serial_arms: &[bool] = if self.guarded {
            &[false, true]
        } else {
            &[false]
        };
        let mut serial = vec![(0.0f64, Tally::default()); serial_arms.len()];
        let mut pooled = [(0.0f64, Tally::default()); 2];
        let mut per_class = [(0.0f64, 0usize); CLASS_TAGS.len()];
        let mut sim = SimTally::default();
        let mut restored = 0usize;
        let mut recovered = 0;
        let round = requests.len().div_ceil(REPLAY_ROUNDS);
        for (r, part) in requests.chunks(round).enumerate() {
            for (arm, &armed) in serial.iter_mut().zip(serial_arms) {
                let mirror = armed == self.guarded;
                for e in engines.iter_mut() {
                    e.set_guards(armed);
                }
                let started = Instant::now();
                for (j, a) in part.iter().enumerate() {
                    let req = (r * round + j) as u64;
                    let engine = &mut engines[a.class];
                    let bulk_before = engine.machine().bulk_instrs();
                    let (result, t0, t1) = if mirror {
                        let mut rec = rec.borrow_mut();
                        timed_run(engine, &a.sequence, Some((&mut *rec, None, req)))
                    } else {
                        timed_run(engine, &a.sequence, None)
                    };
                    if mirror {
                        if let Ok(run) = &result {
                            sim.add(engine, &run.report, bulk_before);
                            restored += engine.last_restored_bytes();
                        }
                        per_class[a.class].0 += (t1 - t0).as_secs_f64();
                        per_class[a.class].1 += 1;
                    }
                    arm.1.add(&result);
                }
                arm.0 += started.elapsed().as_secs_f64();
            }
            for (arm, pool) in pooled.iter_mut().zip(&pools) {
                let batches: Vec<BatchRequest> = part
                    .chunks(chunk)
                    .map(|requests| {
                        let mut b = BatchRequest::new();
                        for a in requests {
                            b.push(a.net.clone(), a.level, a.sequence.clone());
                        }
                        b
                    })
                    .collect();
                let started = Instant::now();
                for (b, batch) in batches.into_iter().enumerate() {
                    let t0 = Instant::now();
                    let response = pool.run_batch(batch);
                    let t1 = Instant::now();
                    let req = Some((r * round + b * chunk) as u64);
                    rec.borrow_mut().push("pool.run_batch", None, req, t0, t1);
                    recovered += response.recovered();
                    for outcome in response.outcomes() {
                        arm.1.add(&outcome.result);
                    }
                }
                arm.0 += started.elapsed().as_secs_f64();
            }
        }
        if let [(plain, plain_tally), (armed, armed_tally)] = serial[..] {
            checks.expect_eq("guarded vs unguarded replay", armed_tally, plain_tally, 0);
            layers.set("guard.overhead_us", (armed - plain) / n * 1e6);
        }
        let (serial_secs, serial_tally) = *serial.last().expect("one serial arm");
        for ((_, tally), workers) in pooled.iter().zip(widths) {
            let what = format!("{workers}-worker replay vs serial");
            checks.expect_eq(&what, *tally, serial_tally, 0);
        }
        let [(one, _), (two, _)] = pooled;
        let panics: usize = pools.iter().map(EnginePool::worker_panics_caught).sum();
        layers.set("pool.overhead_us", (one - serial_secs) / n * 1e6);
        layers.set("pool.parallel_eff", one / (2.0 * two));
        layers.set("pool.recovered", recovered as f64);
        layers.set("pool.panics", (self.panics + panics) as f64);
        drop(pools);

        for (i, e) in engines.iter().enumerate() {
            let t0 = Instant::now();
            std::hint::black_box(UopProgram::translate(e.compiled().program()));
            let t1 = Instant::now();
            rec.borrow_mut()
                .push("compile.translate", None, Some(i as u64), t0, t1);
        }

        let rec = rec.borrow();
        let stats = SpanStats::new(rec.spans());
        let next_ns = stats.mean_ns("traffic.next", |_| true);
        layers.set("traffic.next_ns", next_ns);
        let served = total.served as f64;
        // The replay through a pool as wide as the timed passes' one.
        let pool_secs = if self.workers == 1 { one } else { two };
        let front_secs =
            self.pass_secs - total.offered as f64 * next_ns / 1e9 - served * pool_secs / n;
        layers.set("front.self_us", front_secs / served * 1e6);
        for (tag, (secs, count)) in CLASS_TAGS.iter().zip(per_class) {
            layers.set(&format!("engine.run_us.{tag}"), mean(secs, count) * 1e6);
        }
        layers.set(
            "engine.overhead_us",
            stats.mean_self_ns("engine.run", |_| true) / 1e3,
        );
        layers.set("engine.restored_bytes", restored as f64 / n);
        layers.set(
            "compile.instantiate_us",
            stats.mean_ns("compile.instantiate", |_| true) / 1e3,
        );
        // Every class serves at one level (checked in `run`).
        let level = self.city.classes[0].level.tag();
        layers.set(
            &format!("compile.ms.{level}"),
            stats.mean_ns("compile.compile_network", |_| true) / 1e6,
        );
        layers.set(
            &format!("compile.translate_ms.{level}"),
            stats.mean_ns("compile.translate", |_| true) / 1e6,
        );
        sim.set_layers(layers, level);
    }
}
