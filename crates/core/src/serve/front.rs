//! Deadline-aware traffic front-end over the [`EnginePool`]: micro-
//! batching, EDF admission, backpressure, and virtual-time latency
//! accounting.
//!
//! The paper's deployment constraint is that RRM decisions happen
//! *within fixed deadlines* on the baseband chip; a pool that only runs
//! pre-assembled batches says nothing about that. This module closes the
//! gap with a discrete-event front-end:
//!
//! - **Arrivals** ([`Arrival`]) carry a virtual arrival time and an
//!   absolute deadline in virtual cycles (derived from the traffic
//!   class's decision period — `rnnasip-rrm`'s `traffic` module is the
//!   canonical generator). The front consumes them in nondecreasing
//!   arrival order.
//! - **Micro-batching**: pending requests accumulate in a bounded
//!   admission queue; a batch dispatches when the batching window
//!   expires (or the queue reaches the batch size cap), *and* a virtual
//!   server is free — so under overload the admission queue, not an
//!   unbounded server backlog, absorbs the excess. Dispatch pops
//!   requests in **EDF order** (earliest absolute deadline first,
//!   admission order as the tie-break).
//! - **Backpressure**: when the queue is at [`FrontConfig::queue_cap`],
//!   [`OverloadPolicy::ShedOldest`] drops the queued request closest to
//!   its deadline (the least salvageable under backlog) while
//!   [`OverloadPolicy::RejectNew`] refuses the incoming one. Either way
//!   the queue never exceeds its cap ([`TrafficReport::max_queue`] is
//!   the proof).
//! - **Virtual-time service model**: deadline and latency accounting
//!   runs against [`FrontConfig::servers`] *virtual servers*, each
//!   serving one request at a time for exactly the request's
//!   deterministic simulated cycle count. The real [`EnginePool`] is
//!   only the compute substrate — more workers finish the same city
//!   sooner in wall-clock, but every virtual-time quantity (latencies,
//!   percentiles, goodput, shed counts, output checksum) is
//!   byte-identical at any worker count, on any host. That is what lets
//!   `BENCH_traffic.json`'s virtual section be `--check`ed as an exact
//!   string against a committed baseline.
//!
//! [`EnginePool`]: crate::serve::EnginePool

use crate::optlevel::OptLevel;
use crate::runner::NetworkRun;
use crate::serve::latency::LatencyHistogram;
use crate::serve::{BatchRequest, EnginePool};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One inference request arriving at the front-end at a point in
/// virtual time.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// The network to score (shared, like [`BatchRequest`] items).
    pub net: Arc<Network>,
    /// Optimization level to serve at.
    pub level: OptLevel,
    /// The input window.
    pub sequence: Vec<Vec<Q3p12>>,
    /// Arrival time in virtual cycles.
    pub arrival: u64,
    /// Absolute deadline in virtual cycles (arrival + the traffic
    /// class's decision period).
    pub deadline: u64,
    /// Traffic-class index for per-class accounting (environment kind).
    pub class: usize,
    /// Simulated UE identity (reporting only).
    pub ue: u64,
}

/// What to do with a new arrival when the admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the queued request with the earliest deadline (the EDF
    /// head): under backlog it is the least likely to be served in
    /// time, so shedding it frees capacity for requests that can still
    /// meet theirs.
    ShedOldest,
    /// Refuse the incoming request and keep the queue as-is.
    RejectNew,
}

/// Front-end configuration. All times are virtual cycles.
#[derive(Clone, Debug)]
pub struct FrontConfig {
    /// Virtual servers in the deadline model (≥ 1). Fixed per
    /// configuration and independent of the pool's worker count —
    /// see the module docs for why.
    pub servers: usize,
    /// How long the batcher waits after the first queued request before
    /// dispatching, in virtual cycles.
    pub batch_window: u64,
    /// Maximum requests per dispatched batch (≥ 1).
    pub max_batch: usize,
    /// Admission-queue capacity (≥ 1); the queue never grows past this.
    pub queue_cap: usize,
    /// What to shed when the queue is full.
    pub policy: OverloadPolicy,
    /// Number of traffic classes to account separately; arrivals with
    /// `class >= classes` fold into the last class.
    pub classes: usize,
}

impl Default for FrontConfig {
    /// Four virtual servers, a 100k-cycle batching window, 64-request
    /// batches, a 512-slot queue shedding oldest, three classes (the
    /// three RRM environments).
    fn default() -> Self {
        Self {
            servers: 4,
            batch_window: 100_000,
            max_batch: 64,
            queue_cap: 512,
            policy: OverloadPolicy::ShedOldest,
            classes: 3,
        }
    }
}

/// Per-class (and, merged, aggregate) accounting of one serve run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests that arrived (served + shed + failed).
    pub offered: u64,
    /// Requests served to completion by the pool.
    pub served: u64,
    /// Requests dropped by admission control.
    pub shed: u64,
    /// Requests whose simulation failed terminally (a served slot with
    /// an error after the pool's in-place recovery ladder).
    pub failed: u64,
    /// Served requests whose virtual completion met their deadline.
    pub met: u64,
    /// Served requests on which an ABFT guard flagged silent data
    /// corruption (guarded pools only; always 0 on unguarded pools).
    pub sdc_detected: u64,
    /// Flagged requests whose final attempt came back guard-clean — the
    /// pool's verify/rebuild ladder contained the corruption before the
    /// answer shipped.
    pub sdc_healed: u64,
    /// Virtual-cycle latency (completion − arrival) of served requests.
    pub latency: LatencyHistogram,
}

impl ClassStats {
    /// Deadline-met fraction of *offered* traffic, in parts-per-million
    /// (shed and failed requests count as misses). Integer math, so the
    /// value is byte-stable in reports.
    pub fn goodput_ppm(&self) -> u64 {
        if self.offered == 0 {
            0
        } else {
            (u128::from(self.met) * 1_000_000 / u128::from(self.offered)) as u64
        }
    }

    /// Folds `other` into `self` (counter addition + histogram merge —
    /// associative and order-independent).
    pub fn merge(&mut self, other: &Self) {
        self.offered += other.offered;
        self.served += other.served;
        self.shed += other.shed;
        self.failed += other.failed;
        self.met += other.met;
        self.sdc_detected += other.sdc_detected;
        self.sdc_healed += other.sdc_healed;
        self.latency.merge(&other.latency);
    }
}

/// The outcome of serving one traffic stream through the front-end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficReport {
    /// Per-class accounting, indexed by [`Arrival::class`].
    pub per_class: Vec<ClassStats>,
    /// Virtual time the last served request completed.
    pub makespan: u64,
    /// High-water mark of the admission queue (≤ the configured cap).
    pub max_queue: usize,
    /// Batches dispatched to the pool.
    pub batches: u64,
    /// Total simulated service cycles of served requests.
    pub served_cycles: u64,
    /// Order-independent checksum over every served request's outputs
    /// (wrapping sum of per-request FNV-1a hashes): equal across worker
    /// counts, and equal to a serial run over the same served set —
    /// the whole-run bit-exactness witness.
    pub outputs_fnv: u64,
}

impl TrafficReport {
    /// All classes merged into one aggregate.
    pub fn aggregate(&self) -> ClassStats {
        let mut total = ClassStats::default();
        for c in &self.per_class {
            total.merge(c);
        }
        total
    }

    /// Served requests per virtual second at `clock_hz`, integer
    /// (0 when nothing was served).
    pub fn virtual_rps(&self, clock_hz: u64) -> u64 {
        let served = self.aggregate().served;
        if self.makespan == 0 {
            0
        } else {
            (u128::from(served) * u128::from(clock_hz) / u128::from(self.makespan)) as u64
        }
    }
}

/// FNV-1a over the raw bits of an output vector — the per-request
/// fingerprint [`TrafficReport::outputs_fnv`] accumulates. Public so a
/// serial reference pass (e.g. the `traffic_serving` bench) can compute
/// the same whole-run checksum to compare against.
pub fn output_fingerprint(outputs: &[Q3p12]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for q in outputs {
        for b in q.raw().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// An admission-queue entry, ordered by (deadline, admission sequence)
/// so the EDF pop order is total and deterministic.
struct QEntry {
    deadline: u64,
    seq: u64,
    arrival: Arrival,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// The deadline-aware request front-end over an [`EnginePool`].
///
/// # Example
///
/// ```
/// use rnnasip_core::serve::{Arrival, EnginePool, Front, FrontConfig};
/// use rnnasip_core::OptLevel;
/// use std::sync::Arc;
///
/// let net = Arc::new(rnnasip_rrm::suite().remove(3).network); // eisen2019
/// let input = rnnasip_rrm::seeded_sequence(net.n_in(), net.seq_len(), 1);
/// let arrivals = (0..8u64).map(|i| Arrival {
///     net: net.clone(),
///     level: OptLevel::IfmTile,
///     sequence: input.clone(),
///     arrival: i * 1_000,
///     deadline: i * 1_000 + 400_000,
///     class: 0,
///     ue: i,
/// });
///
/// let pool = EnginePool::with_workers(2);
/// let report = Front::new(&pool, FrontConfig::default()).serve(arrivals);
/// let total = report.aggregate();
/// assert_eq!(total.served, 8);
/// assert_eq!(total.met, 8);
/// ```
pub struct Front<'a> {
    pool: &'a EnginePool,
    cfg: FrontConfig,
}

impl<'a> Front<'a> {
    /// A front-end over `pool` with `cfg` (zero-valued knobs are
    /// clamped up to 1).
    pub fn new(pool: &'a EnginePool, mut cfg: FrontConfig) -> Self {
        cfg.servers = cfg.servers.max(1);
        cfg.max_batch = cfg.max_batch.max(1);
        cfg.queue_cap = cfg.queue_cap.max(1);
        cfg.classes = cfg.classes.max(1);
        Self { pool, cfg }
    }

    /// The (clamped) configuration.
    pub fn config(&self) -> &FrontConfig {
        &self.cfg
    }

    /// Serves `arrivals` (nondecreasing [`Arrival::arrival`] order) to
    /// completion and returns the accounting.
    pub fn serve(&self, arrivals: impl Iterator<Item = Arrival>) -> TrafficReport {
        self.serve_with(arrivals, |_, _| {})
    }

    /// Like [`serve`](Self::serve), invoking `sink` for every served
    /// request with its arrival metadata and bit-exact run result — the
    /// hook the differential tests use to spot-check pooled outputs
    /// against the serial warm-engine golden path.
    pub fn serve_with(
        &self,
        mut arrivals: impl Iterator<Item = Arrival>,
        mut sink: impl FnMut(&Arrival, &NetworkRun),
    ) -> TrafficReport {
        let cfg = &self.cfg;
        let mut report = TrafficReport {
            per_class: vec![ClassStats::default(); cfg.classes],
            makespan: 0,
            max_queue: 0,
            batches: 0,
            served_cycles: 0,
            outputs_fnv: 0,
        };
        // Virtual servers: the cycle at which each becomes free.
        let mut free = vec![0u64; cfg.servers];
        let mut queue: BinaryHeap<Reverse<QEntry>> = BinaryHeap::new();
        // Virtual time the current batching window opened (first
        // request admitted into an empty queue, or the last dispatch
        // that left a remainder).
        let mut open: Option<u64> = None;
        // Latest admitted arrival time: a full batch dispatches no
        // earlier than the request that filled it (causality — without
        // this the waived window could time-stamp a dispatch before one
        // of its members arrived).
        let mut last_admit = 0u64;
        let mut seq = 0u64;
        let mut pending = arrivals.next();

        loop {
            // The next dispatch opportunity: window expiry (waived once
            // the queue holds a full batch), but never before a virtual
            // server is free — that coupling is the backpressure that
            // pushes overload into the bounded admission queue.
            let dispatch_at = open.map(|opened| {
                let gate = if queue.len() >= cfg.max_batch {
                    opened.max(last_admit)
                } else {
                    opened + cfg.batch_window
                };
                gate.max(free.iter().copied().min().unwrap_or(0))
            });

            match (&pending, dispatch_at) {
                (None, None) => break,
                // Admit strictly before dispatching at equal times, so
                // a request arriving exactly at the dispatch edge can
                // still make this batch if its deadline warrants.
                (Some(a), d) if d.is_none_or(|d| a.arrival <= d) => {
                    let arrival = pending.take().unwrap();
                    last_admit = last_admit.max(arrival.arrival);
                    self.admit(arrival, &mut queue, &mut open, &mut seq, &mut report);
                    pending = arrivals.next();
                }
                (_, Some(d)) => {
                    self.dispatch(d, &mut queue, &mut open, &mut free, &mut report, &mut sink);
                }
                (Some(_), None) => unreachable!("the admit guard covers a no-dispatch state"),
            }
        }
        report
    }

    /// Admission control: bounded queue plus overload policy.
    fn admit(
        &self,
        arrival: Arrival,
        queue: &mut BinaryHeap<Reverse<QEntry>>,
        open: &mut Option<u64>,
        seq: &mut u64,
        report: &mut TrafficReport,
    ) {
        let cfg = &self.cfg;
        let class = arrival.class.min(cfg.classes - 1);
        report.per_class[class].offered += 1;
        if queue.len() >= cfg.queue_cap {
            match cfg.policy {
                OverloadPolicy::RejectNew => {
                    report.per_class[class].shed += 1;
                    return;
                }
                OverloadPolicy::ShedOldest => {
                    let victim = queue.pop().expect("full queue has a head").0;
                    let vclass = victim.arrival.class.min(cfg.classes - 1);
                    report.per_class[vclass].shed += 1;
                }
            }
        }
        if queue.is_empty() {
            *open = Some(arrival.arrival);
        }
        queue.push(Reverse(QEntry {
            deadline: arrival.deadline,
            seq: *seq,
            arrival,
        }));
        *seq += 1;
        report.max_queue = report.max_queue.max(queue.len());
    }

    /// Pops up to `max_batch` requests in EDF order, runs them on the
    /// pool, and performs the virtual-server deadline accounting.
    fn dispatch(
        &self,
        vnow: u64,
        queue: &mut BinaryHeap<Reverse<QEntry>>,
        open: &mut Option<u64>,
        free: &mut [u64],
        report: &mut TrafficReport,
        sink: &mut impl FnMut(&Arrival, &NetworkRun),
    ) {
        let cfg = &self.cfg;
        let n = queue.len().min(cfg.max_batch);
        let entries: Vec<QEntry> = (0..n)
            .map(|_| queue.pop().expect("sized above").0)
            .collect();
        debug_assert!(
            entries.iter().all(|e| e.arrival.arrival <= vnow),
            "dispatch time-stamped before a member arrived"
        );
        let mut batch = BatchRequest::new();
        for entry in &entries {
            batch.push(
                entry.arrival.net.clone(),
                entry.arrival.level,
                entry.arrival.sequence.clone(),
            );
        }
        let response = self.pool.run_batch(batch);
        report.batches += 1;

        for (entry, outcome) in entries.iter().zip(response.outcomes()) {
            let class = entry.arrival.class.min(cfg.classes - 1);
            match &outcome.result {
                Err(_) => report.per_class[class].failed += 1,
                Ok(run) => {
                    // Earliest-free virtual server, lowest index on
                    // ties — a deterministic assignment.
                    let server = (0..free.len())
                        .min_by_key(|&s| (free[s], s))
                        .expect("at least one server");
                    let start = free[server].max(vnow);
                    let cycles = run.report.cycles();
                    let done = start + cycles;
                    free[server] = done;

                    let stats = &mut report.per_class[class];
                    stats.served += 1;
                    stats.sdc_detected += u64::from(outcome.sdc_detected);
                    stats.sdc_healed += u64::from(outcome.sdc_healed);
                    stats.latency.record(done - entry.arrival.arrival);
                    if done <= entry.arrival.deadline {
                        stats.met += 1;
                    }
                    report.makespan = report.makespan.max(done);
                    report.served_cycles += cycles;
                    report.outputs_fnv = report
                        .outputs_fnv
                        .wrapping_add(output_fingerprint(&run.outputs));
                    sink(&entry.arrival, run);
                }
            }
        }
        *open = if queue.is_empty() { None } else { Some(vnow) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_net() -> (Arc<Network>, Vec<Vec<Q3p12>>) {
        let net = Arc::new(rnnasip_rrm::suite().remove(3).network); // eisen2019
        let seq = rnnasip_rrm::seeded_sequence(net.n_in(), net.seq_len(), 7);
        (net, seq)
    }

    fn arrival(
        net: &Arc<Network>,
        seq: &[Vec<Q3p12>],
        at: u64,
        deadline: u64,
        class: usize,
    ) -> Arrival {
        Arrival {
            net: net.clone(),
            level: OptLevel::IfmTile,
            sequence: seq.to_vec(),
            arrival: at,
            deadline,
            class,
            ue: at,
        }
    }

    #[test]
    fn serves_everything_and_accounts_deadlines() {
        let (net, seq) = policy_net();
        // eisen2019 runs in 796 cycles; a 10k-cycle deadline is met, a
        // zero-cycle one cannot be.
        let arrivals = vec![
            arrival(&net, &seq, 0, 100_000, 0),
            arrival(&net, &seq, 10, 10, 1), // already hopeless
            arrival(&net, &seq, 20, 100_000, 2),
        ];
        let pool = EnginePool::with_workers(2);
        let front = Front::new(
            &pool,
            FrontConfig {
                batch_window: 1_000,
                ..FrontConfig::default()
            },
        );
        let report = front.serve(arrivals.into_iter());
        let total = report.aggregate();
        assert_eq!(total.offered, 3);
        assert_eq!(total.served, 3);
        assert_eq!(total.shed, 0);
        assert_eq!(total.met, 2);
        assert_eq!(report.per_class[1].met, 0);
        assert_eq!(report.per_class[1].served, 1);
        assert!(report.makespan > 0);
        assert_eq!(report.batches, 1);
        assert!(total.latency.count() == 3);
    }

    #[test]
    fn shed_oldest_drops_the_edf_head() {
        let (net, seq) = policy_net();
        // Three arrivals at t=0 into a 2-slot queue: the one with the
        // earliest deadline is shed.
        let arrivals = vec![
            arrival(&net, &seq, 0, 1_000, 0), // earliest deadline -> shed
            arrival(&net, &seq, 0, 5_000, 1),
            arrival(&net, &seq, 0, 9_000, 2),
        ];
        let pool = EnginePool::with_workers(1);
        let front = Front::new(
            &pool,
            FrontConfig {
                queue_cap: 2,
                batch_window: 100,
                ..FrontConfig::default()
            },
        );
        let report = front.serve(arrivals.into_iter());
        assert_eq!(report.per_class[0].shed, 1);
        assert_eq!(report.per_class[0].served, 0);
        assert_eq!(report.per_class[1].served, 1);
        assert_eq!(report.per_class[2].served, 1);
        assert_eq!(report.max_queue, 2);
    }

    #[test]
    fn reject_new_refuses_the_incoming_request() {
        let (net, seq) = policy_net();
        let arrivals = vec![
            arrival(&net, &seq, 0, 1_000, 0),
            arrival(&net, &seq, 0, 5_000, 1),
            arrival(&net, &seq, 0, 9_000, 2), // arrives at a full queue
        ];
        let pool = EnginePool::with_workers(1);
        let front = Front::new(
            &pool,
            FrontConfig {
                queue_cap: 2,
                batch_window: 100,
                policy: OverloadPolicy::RejectNew,
                ..FrontConfig::default()
            },
        );
        let report = front.serve(arrivals.into_iter());
        assert_eq!(report.per_class[2].shed, 1);
        assert_eq!(report.per_class[0].served, 1);
        assert_eq!(report.per_class[1].served, 1);
    }

    #[test]
    fn queue_never_exceeds_cap_and_reports_are_deterministic() {
        let (net, seq) = policy_net();
        let make = || {
            (0..200u64)
                .map(|i| arrival(&net, &seq, i * 37, i * 37 + 50_000, (i % 3) as usize))
                .collect::<Vec<_>>()
        };
        let cfg = FrontConfig {
            queue_cap: 16,
            max_batch: 8,
            batch_window: 500,
            servers: 2,
            ..FrontConfig::default()
        };
        let pool = EnginePool::with_workers(2);
        let a = Front::new(&pool, cfg.clone()).serve(make().into_iter());
        let pool_b = EnginePool::with_workers(1);
        let b = Front::new(&pool_b, cfg).serve(make().into_iter());
        assert!(a.max_queue <= 16);
        // Identical virtual-time accounting at different worker counts.
        assert_eq!(a, b);
        assert_eq!(a.aggregate().offered, 200);
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let pool = EnginePool::with_workers(1);
        let report = Front::new(&pool, FrontConfig::default()).serve(std::iter::empty());
        assert_eq!(report.aggregate().offered, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.makespan, 0);
        assert_eq!(report.outputs_fnv, 0);
    }

    #[test]
    fn sink_sees_bit_exact_runs() {
        let (net, seq) = policy_net();
        let golden = crate::KernelBackend::new(OptLevel::IfmTile)
            .run_network(&net, &seq)
            .unwrap();
        let arrivals = (0..5u64)
            .map(|i| arrival(&net, &seq, i * 100, i * 100 + 100_000, 0))
            .collect::<Vec<_>>();
        let pool = EnginePool::with_workers(2);
        let mut seen = 0;
        Front::new(&pool, FrontConfig::default()).serve_with(arrivals.into_iter(), |a, run| {
            assert_eq!(run.outputs, golden.outputs, "ue {}", a.ue);
            assert_eq!(run.report.cycles(), golden.report.cycles());
            seen += 1;
        });
        assert_eq!(seen, 5);
    }
}
