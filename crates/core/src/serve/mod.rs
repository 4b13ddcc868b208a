//! Concurrent batch serving: a pool of worker threads over one FIFO,
//! each request served on a warm engine lent by one cache.
//!
//! The paper's deployment story is a base-station controller scoring
//! many users per scheduling tick; PRs 2–4 built the single-request
//! machinery (compile-once artifacts, warm [`Engine`]s, self-healing),
//! and this module turns that warm-engine reuse into aggregate
//! throughput:
//!
//! - [`EnginePool`] owns N `std::thread` workers and one
//!   [`EngineCache`](crate::EngineCache). A worker serves each request
//!   on an engine it checks out of the cache for the request's
//!   `(network name, OptLevel)` key and checks back in afterwards. A
//!   network is compiled exactly once per level no matter how many
//!   workers serve it, consecutive requests reuse idle warm engines —
//!   paying only the amortized dirty-block rewind and a bulk input
//!   patch, no re-compile, no image clone — and the check-in applies the
//!   cache's quarantine rule (a guard trip on the last run, or a panic
//!   mid-request).
//! - [`BatchRequest`] carries a slab of input windows (each against any
//!   network/level); [`BatchResponse`] returns per-request results in
//!   **submission order** plus an order-independent aggregate
//!   ([`BatchResponse::merged_report`]).
//! - Submitted requests join one FIFO, and the next free worker takes
//!   the oldest, so a hot key never serializes the pool: overlapping
//!   requests on one key each borrow their own engine.
//! - A worker whose run fails heals **in place** and keeps serving: it
//!   climbs the same verify → rewind → rebuild ladder as
//!   [`ResilientEngine`](crate::ResilientEngine) (one implementation,
//!   degrade rung off); the batch still completes, and the outcome
//!   records which rung recovered it.
//! - [`Front`] puts a deadline-aware traffic front-end over the pool:
//!   EDF-ordered admission from a bounded queue with shed/reject
//!   backpressure, micro-batching under a virtual-time window, and
//!   p50/p99/p999 latency accounting ([`LatencyHistogram`]) against a
//!   fixed virtual-server deadline model — byte-deterministic at any
//!   worker count (see [`Front`]).
//!
//! # Determinism
//!
//! Pooled results are bit-identical to serial execution at every worker
//! count and submission order, because every ingredient is:
//! every run starts from a full rewind of the same staged image
//! (engine runs are bit-exact regardless of history), an engine is lent
//! to one worker at a time, responses are indexed by submission slot
//! rather than completion order, and the aggregate merges `u64`
//! counters, which commute. The
//! `serve_pool_determinism` test pins all of this against the serial
//! suite golden from PR 1 at 1, 2, and 8 workers with shuffled
//! submission.
//!
//! [`Engine`]: crate::Engine

mod batch;
mod front;
mod latency;
mod pool;

pub use batch::{BatchItem, BatchRequest, BatchResponse, ItemOutcome};
pub use front::{
    output_fingerprint, Arrival, ClassStats, Front, FrontConfig, OverloadPolicy, TrafficReport,
};
pub use latency::LatencyHistogram;
pub use pool::{BatchTicket, EnginePool};

// The pool moves networks, fault plans and engines across threads; keep
// that property pinned at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BatchRequest>();
    assert_send::<BatchResponse>();
    assert_send::<crate::Engine>();
};
