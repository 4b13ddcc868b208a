//! The engine pool: worker threads over one FIFO, serving each request
//! on an engine borrowed from the pool's [`EngineCache`].

use crate::cache::EngineCache;
use crate::error::CoreError;
use crate::lock;
use crate::resilience::{climb, RecoveryAction, RetryPolicy};
use crate::serve::batch::{BatchItem, BatchRequest, BatchResponse, ItemOutcome};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The workers' recovery ladder: [`ResilientEngine`](crate::ResilientEngine)'s
/// default budgets minus the degrade rung (a degraded engine would
/// silently change the batch's cycle counts).
const SERVE_POLICY: RetryPolicy = RetryPolicy {
    max_verifies: 1,
    max_rewinds: 1,
    rebuild: true,
    degrade: false,
};

/// One queued unit of work: which batch slot to fill, with what request.
struct Task {
    state: Arc<BatchState>,
    index: usize,
    item: BatchItem,
}

/// The pool's one FIFO. The tasks and the shutdown latch share a lock,
/// so a worker decides "nothing queued *and* not closing" atomically
/// before it parks.
struct Queue<T> {
    inner: Mutex<Pending<T>>,
    ready: Condvar,
}

struct Pending<T> {
    tasks: VecDeque<T>,
    closed: bool,
}

impl<T> Queue<T> {
    fn new() -> Self {
        Self {
            inner: Mutex::new(Pending {
                tasks: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Appends `tasks` in order and wakes the parked workers.
    fn push(&self, tasks: impl IntoIterator<Item = T>) {
        lock(&self.inner).tasks.extend(tasks);
        self.ready.notify_all();
    }

    /// Blocking dequeue, oldest first. Returns `None` once the queue is
    /// [`close`](Self::close)d and drained.
    fn next(&self) -> Option<T> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(task) = inner.tasks.pop_front() {
                return Some(task);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Latches shutdown and wakes every parked worker; tasks already
    /// queued still drain before the workers see `None`.
    fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

/// Shared completion state of one in-flight batch: the submission-order
/// slots and how many of them are filled, under one lock.
struct BatchState {
    progress: Mutex<Progress>,
    done: Condvar,
}

struct Progress {
    slots: Vec<Option<ItemOutcome>>,
    filled: usize,
}

impl BatchState {
    fn new(total: usize) -> Self {
        let slots = (0..total).map(|_| None).collect();
        Self {
            progress: Mutex::new(Progress { slots, filled: 0 }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, index: usize, outcome: ItemOutcome) {
        let mut progress = lock(&self.progress);
        progress.slots[index] = Some(outcome);
        progress.filled += 1;
        if progress.filled == progress.slots.len() {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Vec<ItemOutcome> {
        let mut progress = lock(&self.progress);
        while progress.filled < progress.slots.len() {
            progress = self
                .done
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        progress
            .slots
            .drain(..)
            .map(|slot| slot.expect("completed batch has every slot filled"))
            .collect()
    }
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Queue<Task>,
    /// Compile-once artifacts and idle engines per `(network name,
    /// OptLevel)` key, the guard and cluster-core configuration, and the
    /// quarantine rule every check-in applies.
    cache: EngineCache,
    /// Test hook: pending worker panics to inject. Each claim panics one
    /// `serve_item` call mid-request, exercising the quarantine path.
    inject_panics: AtomicUsize,
    /// Worker panics caught and contained (engine quarantined, request
    /// retried; the worker thread survived).
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
}

/// A pool of worker threads serving batched RNN inference from warm
/// [`Engine`](crate::Engine)s lent by one [`EngineCache`].
///
/// See the [module docs](crate::serve) for the design and the
/// determinism argument.
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
        Self::with_workers_and_cores(workers, 1)
    }

    /// A pool whose engines execute on simulated `cores`-core clusters:
    /// every network is compiled with
    /// [`KernelBackend::with_cores`](crate::KernelBackend::with_cores), so
    /// each request's report carries per-core rows and a cluster
    /// latency. [`with_workers`](Self::with_workers) uses one core; `0`
    /// is taken as one.
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
        let shared = Arc::new(PoolShared {
            queue: Queue::new(),
            cache,
            inject_panics: AtomicUsize::new(0),
            panics_caught: AtomicUsize::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|id| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rnnasip-serve-{id}"))
                    .spawn(move || worker_loop(&shared))
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
        self.workers.len()
    }

    /// Test hook: arms `n` one-shot worker panics. Each of the next `n`
    /// `serve` calls across the pool panics mid-request, exercising the
    /// containment path (engine quarantined, request retried on a clean
    /// engine, worker thread survives).
    pub fn inject_worker_panics(&self, n: usize) {
        self.shared.inject_panics.fetch_add(n, Ordering::Relaxed);
    }

    /// How many worker panics the pool has caught and contained.
    pub fn worker_panics_caught(&self) -> usize {
        self.shared.panics_caught.load(Ordering::Relaxed)
    }

    /// Enqueues a batch and returns immediately. Its items join the
    /// pool's one FIFO in submission order, and the next free worker
    /// takes the oldest.
    pub fn submit(&self, batch: BatchRequest) -> BatchTicket {
        let state = Arc::new(BatchState::new(batch.items.len()));
        let tasks = batch.items.into_iter().enumerate();
        self.shared.queue.push(tasks.map(|(index, item)| Task {
            state: state.clone(),
            index,
            item,
        }));
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
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body: pull tasks, serve them, fill the batch slots.
fn worker_loop(shared: &PoolShared) {
    while let Some(task) = shared.queue.next() {
        let outcome = serve_item(shared, &task.item);
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

/// Panic-containment wrapper around [`serve_once`]: a panicked serve
/// call must not poison the pool. The worker thread survives
/// (`catch_unwind`), the unwinding check-in quarantines the engine —
/// whose state the panic may have left mid-run — and the request retries
/// once on another engine checked out of the cache. A second panic
/// fails the single request with [`CoreError::WorkerPanic`]; the batch
/// and the other workers keep flowing either way.
fn serve_item(shared: &PoolShared, item: &BatchItem) -> ItemOutcome {
    let serve = || {
        let served = catch_unwind(AssertUnwindSafe(|| serve_once(shared, item)));
        if served.is_err() {
            shared.panics_caught.fetch_add(1, Ordering::Relaxed);
        }
        served
    };
    match serve() {
        Ok(outcome) => outcome,
        Err(_) => match serve() {
            Ok(mut outcome) => {
                // The retry ran on another engine: surface the heaviest
                // rung so `recovered()` reports it.
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

/// Runs one request on an engine checked out of the pool's cache,
/// through the shared recovery ladder under [`SERVE_POLICY`]. The engine
/// is checked back in (or quarantined) when this returns or unwinds.
/// Recovery never touches the queue — other requests keep flowing on
/// the remaining workers while this one heals.
fn serve_once(shared: &PoolShared, item: &BatchItem) -> ItemOutcome {
    let mut engine = match shared.cache.checkout(&item.net, item.level) {
        Ok(engine) => engine,
        Err(e) => {
            return ItemOutcome {
                result: Err(e),
                recovery: RecoveryAction::FirstTry,
                sdc_detected: false,
                sdc_healed: false,
            }
        }
    };
    if claim_injected_panic(shared) {
        panic!("injected worker panic (serve-pool test hook)");
    }
    if let Some(plan) = &item.fault {
        engine.inject_faults(plan);
    }
    // SERVE_POLICY has no degrade rung, so the callback never runs.
    let outcome = climb(&mut engine, SERVE_POLICY, &item.sequence, |_, _| Ok(()));
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

    use crate::OptLevel;
    use std::thread;

    #[test]
    fn queue_drains_everything_across_workers_exactly_once() {
        let queue = Queue::new();
        let total = 200usize;
        queue.push(0..total);
        queue.close();
        let seen = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(task) = queue.next() {
                        seen.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(task, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(seen.into_inner(), total);
        assert_eq!(sum.into_inner(), total * (total - 1) / 2);
    }

    #[test]
    fn queue_close_wakes_a_parked_worker() {
        let queue = Arc::new(Queue::<usize>::new());
        let handle = {
            let queue = queue.clone();
            thread::spawn(move || queue.next())
        };
        // Give the worker a moment to park, then close with nothing
        // queued: it must return None rather than sleep forever.
        thread::sleep(std::time::Duration::from_millis(20));
        queue.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn queue_push_after_close_still_drains() {
        let queue = Queue::new();
        queue.close();
        queue.push([7u32, 8]);
        assert_eq!(queue.next(), Some(7));
        assert_eq!(queue.next(), Some(8));
        assert_eq!(queue.next(), None);
    }

    /// Engines live in the pool's cache: a hot key compiles once, and
    /// every engine the workers used is checked back in — at most one
    /// per worker, since a worker holds one engine at a time.
    #[test]
    fn hot_key_engines_are_lent_by_the_pool_cache() {
        let suite = rnnasip_rrm::suite();
        let net = Arc::new(suite[3].network.clone());
        let mut batch = BatchRequest::new();
        for _ in 0..64 {
            batch.push(net.clone(), OptLevel::IfmTile, suite[3].input());
        }
        let pool = EnginePool::with_workers(4);
        assert!(pool.run_batch(batch).all_ok());
        let cache = &pool.shared.cache;
        assert_eq!(cache.compiles(), 1);
        assert!(
            (1..=4).contains(&cache.warm_engines()),
            "{} idle engines",
            cache.warm_engines()
        );
    }

    /// Each caught panic quarantines the engine it interrupted, through
    /// the cache's check-in.
    #[test]
    fn each_caught_worker_panic_quarantines_one_engine() {
        let suite = rnnasip_rrm::suite();
        let net = Arc::new(suite[3].network.clone());
        let mut batch = BatchRequest::new();
        for _ in 0..8 {
            batch.push(net.clone(), OptLevel::IfmTile, suite[3].input());
        }
        let pool = EnginePool::with_workers(2);
        assert!(pool.run_batch(batch.clone()).all_ok());
        assert_eq!(pool.shared.cache.quarantined(), 0);
        pool.inject_worker_panics(3);
        let _ = pool.run_batch(batch);
        assert_eq!(pool.worker_panics_caught(), 3);
        assert_eq!(pool.shared.cache.quarantined(), 3);
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
