//! The work-stealing task scheduler under the [`EnginePool`].
//!
//! Std-only MPMC: one `Mutex<VecDeque>` per worker plus a shared
//! condvar-guarded gate counting pending tasks. Producers push onto a
//! *hinted* worker's deque (the pool hints by engine-shard key, so
//! consecutive requests for one compiled program land on the worker
//! whose engine is already warm); an idle worker first drains its own
//! deque from the front, then steals from the *back* of its neighbours'
//! deques, and only then parks on the condvar.
//!
//! Stealing from the back keeps the victim's front — the oldest, most
//! likely already-warm work — with its preferred worker, while the thief
//! takes the newest task, which is the one whose state is least likely
//! to be cached anywhere yet. None of this affects results: every task
//! is bit-exact on any worker; placement is throughput policy only.
//!
//! # Routing invariant
//!
//! The pool's producer hint is `FNV-1a(network name, OptLevel)` — a
//! **deterministic, worker-count-independent** hash. Two properties are
//! load-bearing and pinned by tests:
//!
//! 1. **Stability** — the same shard key always hints the same deque
//!    (for a fixed worker count), so consecutive requests against one
//!    compiled program land where its engine is already warm. The hash
//!    must not depend on process-seeded state (`std::collections`'s
//!    default hasher is disqualified) or placement would vary run to
//!    run.
//! 2. **Balance** — distinct keys spread near-uniformly across deques
//!    at every worker count (`fnv_routing_balances_across_worker_counts`
//!    asserts max/min load ≤ 1.5 over 10k keys at 1/2/8 workers), so no
//!    worker becomes a structural hot spot. Residual imbalance (many
//!    requests to *one* shard) is handled dynamically by stealing, not
//!    by the router.
//!
//! [`EnginePool`]: crate::serve::EnginePool

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Pending-task count plus the shutdown latch, guarded together so a
/// parked worker can atomically decide "nothing to do *and* not shutting
/// down" before sleeping.
struct Gate {
    pending: usize,
    closed: bool,
}

/// A fixed-width work-stealing queue set.
pub(crate) struct Scheduler<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    gate: Mutex<Gate>,
    cv: Condvar,
}

impl<T> Scheduler<T> {
    /// A scheduler for `workers` consumers (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(Gate {
                pending: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of worker slots.
    pub(crate) fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a task on worker `hint % workers`'s local deque and
    /// wakes a sleeper. The pending count is raised *before* the task
    /// becomes visible so a concurrent pop can never drive it negative.
    pub(crate) fn push(&self, hint: usize, task: T) {
        lock(&self.gate).pending += 1;
        lock(&self.queues[hint % self.queues.len()]).push_back(task);
        self.cv.notify_all();
    }

    /// Blocking dequeue for worker `id`: own deque front, then steal
    /// from the other deques' backs, then park. Returns `None` once the
    /// scheduler is [`close`](Self::close)d and fully drained.
    pub(crate) fn next(&self, id: usize) -> Option<T> {
        loop {
            if let Some(task) = lock(&self.queues[id]).pop_front() {
                lock(&self.gate).pending -= 1;
                return Some(task);
            }
            let n = self.queues.len();
            for offset in 1..n {
                if let Some(task) = lock(&self.queues[(id + offset) % n]).pop_back() {
                    lock(&self.gate).pending -= 1;
                    return Some(task);
                }
            }
            let mut gate = lock(&self.gate);
            loop {
                if gate.pending > 0 {
                    // Pushed (or still being claimed by another worker)
                    // since our scan — rescan the deques.
                    break;
                }
                if gate.closed {
                    return None;
                }
                gate = self
                    .cv
                    .wait(gate)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    /// Latches shutdown and wakes every parked worker; tasks already
    /// queued still drain before the workers see `None`.
    pub(crate) fn close(&self) {
        lock(&self.gate).closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn drains_everything_across_workers_exactly_once() {
        let sched = Arc::new(Scheduler::new(4));
        let total = 200usize;
        for i in 0..total {
            sched.push(i, i); // spread hints across all deques
        }
        sched.close();
        let seen = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for id in 0..sched.workers() {
                let (sched, seen, sum) = (sched.clone(), seen.clone(), sum.clone());
                s.spawn(move || {
                    while let Some(task) = sched.next(id) {
                        seen.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(task, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
    }

    #[test]
    fn steals_work_hinted_at_a_parked_worker() {
        // Everything is hinted at worker 0, but only worker 1 consumes:
        // all tasks must arrive via stealing.
        let sched = Arc::new(Scheduler::new(2));
        for i in 0..32 {
            sched.push(0, i);
        }
        sched.close();
        let mut got = Vec::new();
        while let Some(task) = sched.next(1) {
            got.push(task);
        }
        assert_eq!(got.len(), 32);
    }

    #[test]
    fn steal_order_is_fair_to_the_owner() {
        // The thief must take the *newest* task (back of the victim's
        // deque) while the owner keeps draining its oldest-first — the
        // fairness contract that keeps warm-shard work with its
        // preferred worker. Single-threaded, so the order is exact.
        let sched = Scheduler::new(2);
        for i in 0..4 {
            sched.push(0, i); // all hinted at worker 0
        }
        sched.close();
        assert_eq!(sched.next(1), Some(3), "thief steals from the back");
        assert_eq!(sched.next(0), Some(0), "owner pops its front");
        assert_eq!(sched.next(1), Some(2), "thief keeps taking newest");
        assert_eq!(sched.next(0), Some(1));
        assert_eq!(sched.next(0), None);
        assert_eq!(sched.next(1), None);
    }

    #[test]
    fn close_wakes_parked_workers() {
        let sched = Arc::new(Scheduler::<usize>::new(2));
        let handle = {
            let sched = sched.clone();
            thread::spawn(move || sched.next(0))
        };
        // Give the worker a moment to park, then close with nothing
        // queued: it must return None rather than sleep forever.
        thread::sleep(std::time::Duration::from_millis(20));
        sched.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn push_after_close_still_drains() {
        let sched = Scheduler::new(1);
        sched.close();
        sched.push(0, 7u32);
        assert_eq!(sched.next(0), Some(7));
        assert_eq!(sched.next(0), None);
    }
}
