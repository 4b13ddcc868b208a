//! The sharded engine pool: worker threads with warm per-shard engines.

use crate::cache::{EngineCache, Key};
use crate::engine::Engine;
use crate::error::CoreError;
use crate::lock;
use crate::optlevel::OptLevel;
use crate::resilience::{climb, RecoveryAction, RetryPolicy};
use crate::serve::batch::{BatchItem, BatchRequest, BatchResponse, ItemOutcome};
use crate::serve::scheduler::Scheduler;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The workers' recovery ladder: [`ResilientEngine`](crate::ResilientEngine)'s
/// default budgets minus the degrade rung (a degraded engine would
/// silently change the batch's cycle counts).
const SERVE_POLICY: RetryPolicy = RetryPolicy {
    max_verifies: 1,
    max_rewinds: 1,
    rebuild: true,
    degrade: false,
    reference: false,
};

/// FNV-1a over the shard key — a *deterministic* router (the std
/// `HashMap` hasher is seeded per process, which would make placement,
/// and therefore warm-engine behaviour, vary run to run).
fn route(key_name: &str, level: OptLevel) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key_name.bytes().chain([level as u8]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

/// One queued unit of work: which batch slot to fill, with what request.
struct Task {
    state: Arc<BatchState>,
    index: usize,
    item: BatchItem,
}

/// Shared completion state of one in-flight batch.
struct BatchState {
    slots: Mutex<Vec<Option<ItemOutcome>>>,
    progress: Mutex<usize>,
    cv: Condvar,
    total: usize,
}

impl BatchState {
    fn new(total: usize) -> Self {
        let mut slots = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        Self {
            slots: Mutex::new(slots),
            progress: Mutex::new(0),
            cv: Condvar::new(),
            total,
        }
    }

    fn complete(&self, index: usize, outcome: ItemOutcome) {
        lock(&self.slots)[index] = Some(outcome);
        let mut done = lock(&self.progress);
        *done += 1;
        if *done == self.total {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Vec<ItemOutcome> {
        let mut done = lock(&self.progress);
        while *done < self.total {
            done = self
                .cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(done);
        self.collect()
    }

    fn is_complete(&self) -> bool {
        *lock(&self.progress) >= self.total
    }

    fn collect(&self) -> Vec<ItemOutcome> {
        lock(&self.slots)
            .drain(..)
            .map(|slot| slot.expect("completed batch has every slot filled"))
            .collect()
    }
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    sched: Scheduler<Task>,
    /// Compile-once artifacts per shard (a `(network name, OptLevel)`
    /// pair), the guard and cluster-core configuration, and the
    /// quarantine rule workers apply to their engines.
    cache: EngineCache,
    /// Test hook: pending worker panics to inject. Each claim panics one
    /// `serve_item` call mid-request, exercising the quarantine path.
    inject_panics: AtomicUsize,
    /// Worker panics caught and contained (engine quarantined +
    /// respawned; the worker thread survived).
    panics_caught: AtomicUsize,
}

/// A ticket for a submitted batch; [`wait`](Self::wait) blocks until
/// every item has been answered.
#[must_use = "a submitted batch completes in the background; wait() collects it"]
pub struct BatchTicket {
    state: Arc<BatchState>,
}

impl BatchTicket {
    /// Blocks until the batch completes and returns the response, items
    /// in submission order.
    pub fn wait(self) -> BatchResponse {
        BatchResponse {
            outcomes: self.state.wait(),
        }
    }

    /// Whether every item of the batch has been answered (a completed
    /// ticket's [`wait`](Self::wait) returns without blocking).
    pub fn is_complete(&self) -> bool {
        self.state.is_complete()
    }

    /// Non-blocking drain: the response if the batch has completed,
    /// otherwise the ticket back — the poll hook a front-end uses to
    /// overlap useful work with an in-flight batch.
    pub fn try_wait(self) -> Result<BatchResponse, BatchTicket> {
        if self.state.is_complete() {
            Ok(BatchResponse {
                outcomes: self.state.collect(),
            })
        } else {
            Err(self)
        }
    }
}

/// A pool of worker threads serving batched RNN inference from warm,
/// sharded [`Engine`]s.
///
/// See the [module docs](crate::serve) for topology and the determinism
/// argument.
///
/// # Example
///
/// ```
/// use rnnasip_core::serve::{BatchRequest, EnginePool};
/// use rnnasip_core::{KernelBackend, OptLevel};
/// use std::sync::Arc;
///
/// let net = Arc::new(rnnasip_rrm::suite().remove(3).network); // eisen2019
/// let input = vec![rnnasip_rrm::seeded_input(net.n_in(), 1)];
///
/// let mut batch = BatchRequest::new();
/// for _ in 0..4 {
///     batch.push(net.clone(), OptLevel::IfmTile, input.clone());
/// }
/// let pool = EnginePool::with_workers(2);
/// let response = pool.run_batch(batch);
/// assert!(response.all_ok());
///
/// // Bit-identical to the serial engine path, for every request.
/// let serial = KernelBackend::new(OptLevel::IfmTile).run_network(&net, &input)?;
/// for outcome in response.outcomes() {
///     let run = outcome.result.as_ref().unwrap();
///     assert_eq!(run.outputs, serial.outputs);
///     assert_eq!(run.report.cycles(), serial.report.cycles());
/// }
/// # Ok::<(), rnnasip_core::CoreError>(())
/// ```
pub struct EnginePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl EnginePool {
    /// A pool with one worker per available hardware thread.
    pub fn new() -> Self {
        Self::with_workers(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
    }

    /// A pool with exactly `workers` worker threads (at least one).
    pub fn with_workers(workers: usize) -> Self {
        Self::with_workers_and_cores(workers, 0)
    }

    /// A pool whose engines execute on simulated `cores`-core clusters:
    /// every shard is compiled with
    /// [`KernelBackend::with_cores`](crate::KernelBackend::with_cores), so
    /// each request's report carries per-core rows and a cluster
    /// latency. `cores == 0` (the [`with_workers`](Self::with_workers)
    /// default) keeps the classic single-machine artifacts.
    pub fn with_workers_and_cores(workers: usize, cores: usize) -> Self {
        Self::build(workers, EngineCache::new().with_cores(cores))
    }

    /// A pool whose engines run with ABFT guards armed: every request's
    /// outcome carries `sdc_detected`/`sdc_healed`, and a guard trip
    /// climbs the worker's in-place verify → rebuild ladder before the
    /// answer ships. Clean-input results stay bit-identical to an
    /// unguarded pool.
    pub fn with_workers_guarded(workers: usize) -> Self {
        Self::build(workers, EngineCache::guarded())
    }

    fn build(workers: usize, cache: EngineCache) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            sched: Scheduler::new(workers),
            cache,
            inject_panics: AtomicUsize::new(0),
            panics_caught: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rnnasip-serve-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.sched.workers()
    }

    /// Test hook: arms `n` one-shot worker panics. Each of the next `n`
    /// `serve` calls across the pool panics mid-request, exercising the
    /// containment path (engine quarantined + respawned, request
    /// retried, worker thread survives).
    pub fn inject_worker_panics(&self, n: usize) {
        self.shared.inject_panics.fetch_add(n, Ordering::Relaxed);
    }

    /// How many worker panics the pool has caught and contained.
    pub fn worker_panics_caught(&self) -> usize {
        self.shared.panics_caught.load(Ordering::Relaxed)
    }

    /// Enqueues a batch and returns immediately; each item is routed to
    /// the worker owning its engine shard (idle workers steal, so a hot
    /// shard never serializes the whole pool).
    pub fn submit(&self, batch: BatchRequest) -> BatchTicket {
        let state = Arc::new(BatchState::new(batch.items.len()));
        for (index, item) in batch.items.into_iter().enumerate() {
            let hint = route(item.net.name(), item.level);
            self.shared.sched.push(
                hint,
                Task {
                    state: state.clone(),
                    index,
                    item,
                },
            );
        }
        BatchTicket { state }
    }

    /// [`submit`](Self::submit) + [`BatchTicket::wait`]: runs the batch
    /// to completion and returns per-request results in submission
    /// order.
    pub fn run_batch(&self, batch: BatchRequest) -> BatchResponse {
        self.submit(batch).wait()
    }
}

impl Default for EnginePool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EnginePool {
    /// Drains queued work, then stops and joins every worker.
    fn drop(&mut self) {
        self.shared.sched.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body: pull tasks, serve them from this worker's warm
/// engines, fill the batch slots.
fn worker_loop(shared: &PoolShared, id: usize) {
    let mut engines: HashMap<Key, Engine> = HashMap::new();
    while let Some(task) = shared.sched.next(id) {
        let outcome = serve_item(shared, &mut engines, &task.item);
        task.state.complete(task.index, outcome);
    }
}

/// Claims one pending injected panic (test hook). The decrement is a
/// lock-free CAS so concurrent workers never double-claim: exactly `n`
/// calls panic after `inject_worker_panics(n)`.
fn claim_injected_panic(shared: &PoolShared) -> bool {
    shared
        .inject_panics
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Panic-containment wrapper around [`serve_item_inner`]: a panicked
/// serve call must not poison the pool. The worker thread survives
/// (`catch_unwind`), the cache's quarantine rule drops the shard's
/// engine — whose state the panic may have left mid-run — and the
/// request retries once on a fresh engine from the compiled artifact. A
/// second panic fails the single request with
/// [`CoreError::WorkerPanic`]; the batch and the other workers keep
/// flowing either way. After every request the same rule drops an
/// engine whose last run still tripped a guard.
fn serve_item(
    shared: &PoolShared,
    engines: &mut HashMap<Key, Engine>,
    item: &BatchItem,
) -> ItemOutcome {
    let key = (item.net.name().to_string(), item.level);
    let serve = |engines: &mut HashMap<Key, Engine>| {
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_item_inner(shared, engines, &key, item)
        }));
        let panicked = served.is_err();
        if panicked {
            shared.panics_caught.fetch_add(1, Ordering::Relaxed);
        }
        shared.cache.screen(engines, &key, panicked);
        served
    };
    match serve(engines) {
        Ok(outcome) => outcome,
        Err(_) => match serve(engines) {
            Ok(mut outcome) => {
                // The retry ran on a respawned engine: surface the
                // heaviest rung so `recovered()` reports it.
                outcome.recovery = RecoveryAction::Rebuild;
                outcome
            }
            Err(_) => ItemOutcome {
                result: Err(CoreError::WorkerPanic),
                recovery: RecoveryAction::Rebuild,
                sdc_detected: false,
                sdc_healed: false,
            },
        },
    }
}

/// Runs one request on this worker's engine for `key` (instantiated
/// from the cache on first use), through the shared recovery ladder
/// under [`SERVE_POLICY`]. Recovery never touches the queue — other
/// requests keep flowing on the remaining workers while this one heals.
fn serve_item_inner(
    shared: &PoolShared,
    engines: &mut HashMap<Key, Engine>,
    key: &Key,
    item: &BatchItem,
) -> ItemOutcome {
    let engine = match engines.get_mut(key) {
        Some(engine) => engine,
        None => match shared.cache.engine(&item.net, key) {
            Ok(engine) => engines.entry(key.clone()).or_insert(engine),
            Err(e) => {
                return ItemOutcome {
                    result: Err(e),
                    recovery: RecoveryAction::FirstTry,
                    sdc_detected: false,
                    sdc_healed: false,
                }
            }
        },
    };
    if claim_injected_panic(shared) {
        panic!("injected worker panic (serve-pool test hook)");
    }
    if let Some(plan) = &item.fault {
        engine.inject_faults(plan);
    }
    // SERVE_POLICY has no degrade rung, so the callback never runs.
    let outcome = climb(engine, SERVE_POLICY, &item.sequence, |_, _| Ok(()));
    ItemOutcome {
        recovery: outcome
            .attempts
            .last()
            .map_or(RecoveryAction::FirstTry, |a| a.action),
        sdc_detected: outcome.sdc_detected(),
        sdc_healed: outcome.sdc_healed(),
        result: outcome.result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_level_sensitive() {
        assert_eq!(
            route("eisen2019", OptLevel::IfmTile),
            route("eisen2019", OptLevel::IfmTile)
        );
        assert_ne!(
            route("eisen2019", OptLevel::IfmTile),
            route("eisen2019", OptLevel::Baseline),
            "levels are separate shards"
        );
    }

    #[test]
    fn fnv_routing_balances_across_worker_counts() {
        // 10k distinct shard keys must spread near-uniformly over every
        // pool width the repo tests at: the max/min per-worker load
        // ratio stays under 1.5 (a skewed router would starve warm
        // engines on some workers and hot-spot others).
        for &workers in &[1usize, 2, 8] {
            let mut loads = vec![0u64; workers];
            for i in 0..10_000 {
                let key = format!("ue-net-{i}");
                loads[route(&key, OptLevel::IfmTile) % workers] += 1;
            }
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            assert!(min > 0, "{workers} workers: a shard got no load");
            assert!(
                max as f64 / min as f64 <= 1.5,
                "{workers} workers: shard skew {max}/{min} exceeds 1.5"
            );
        }
    }

    #[test]
    fn ticket_try_wait_drains_without_blocking() {
        let suite = rnnasip_rrm::suite();
        let net = Arc::new(suite[3].network.clone());
        let mut batch = BatchRequest::new();
        for _ in 0..4 {
            batch.push(net.clone(), OptLevel::IfmTile, suite[3].input());
        }
        let pool = EnginePool::with_workers(2);
        let mut ticket = pool.submit(batch);
        // Poll until the workers finish; each failed poll returns the
        // ticket intact.
        let response = loop {
            match ticket.try_wait() {
                Ok(response) => break response,
                Err(t) => {
                    ticket = t;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(response.len(), 4);
        assert!(response.all_ok());

        // A completed ticket reports completion before the drain.
        let ticket = pool.submit(BatchRequest::new());
        assert!(ticket.is_complete());
        assert!(ticket.try_wait().is_ok());
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = EnginePool::with_workers(2);
        let response = pool.run_batch(BatchRequest::new());
        assert!(response.is_empty());
        assert!(response.all_ok());
        assert_eq!(response.merged_report().cycles(), 0);
    }

    #[test]
    fn shape_error_fails_its_slot_but_not_the_batch() {
        let suite = rnnasip_rrm::suite();
        let net = Arc::new(suite[3].network.clone());
        let good = suite[3].input();
        let mut batch = BatchRequest::new();
        batch.push(net.clone(), OptLevel::IfmTile, good.clone());
        batch.push(net.clone(), OptLevel::IfmTile, Vec::new()); // wrong seq_len
        batch.push(net.clone(), OptLevel::IfmTile, good);
        let pool = EnginePool::with_workers(2);
        let response = pool.run_batch(batch);
        assert_eq!(response.len(), 3);
        assert!(response.outcomes()[0].result.is_ok());
        assert!(matches!(
            response.outcomes()[1].result,
            Err(CoreError::Shape(_))
        ));
        assert!(response.outcomes()[2].result.is_ok());
        assert!(!response.all_ok());
    }
}
