//! The engine lifecycle: compile-once artifacts and warm engines keyed
//! by `(network name, OptLevel)`.
//!
//! Decision loops call their policy network every scheduling interval;
//! recompiling the kernel program and re-staging every weight matrix per
//! step would dwarf the simulated inference itself. [`EngineCache`]
//! compiles each key once and keeps warm [`Engine`]s, so each step pays
//! only input patching, simulation, and a dirty-block memory restore.
//!
//! The cache is **thread-safe** (`&self` everywhere): compiled artifacts
//! live in a shared compile-once map, and engines are handed out through
//! a checkout/check-in discipline — [`checkout`](EngineCache::checkout)
//! moves an idle engine (or instantiates a fresh one from the cached
//! artifact) out of the cache, and dropping the [`CacheEngine`] guard
//! returns it. Two threads hammering the same `(network, level)` key can
//! therefore never alias one simulator `Machine`: each holds its own
//! engine, both warmed from the same compiled artifact, and both land
//! back in the idle pool for later reuse.
//!
//! The serving pool ([`EnginePool`](crate::serve::EnginePool)) holds one
//! cache too, and its workers borrow every engine through
//! [`checkout`](EngineCache::checkout). Check-in applies the one
//! quarantine rule — an engine whose last run tripped an ABFT guard, or
//! that a panic interrupted, never serves again.

use crate::compile::CompiledNetwork;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::lock;
use crate::optlevel::OptLevel;
use crate::runner::{KernelBackend, NetworkRun};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One cache key: a `(network name, OptLevel)` pair. The name stands in
/// for the weights — one name, one fixed set of weights.
type Key = (String, OptLevel);

/// A thread-safe pool of warm [`Engine`]s keyed by
/// `(network name, OptLevel)`.
///
/// Networks are compiled on first use and reused afterwards; the cache
/// assumes a name identifies one fixed set of weights (true for the
/// `rnnasip-rrm` suite and for any loop driving a single model).
///
/// # Example
///
/// ```
/// use rnnasip_core::{EngineCache, OptLevel};
///
/// let net = &rnnasip_rrm::suite()[3]; // eisen2019, a tiny MLP
/// let cache = EngineCache::new();
/// let input = net.input();
/// let a = cache.run(&net.network, OptLevel::IfmTile, &input)?;
/// let b = cache.run(&net.network, OptLevel::IfmTile, &input)?; // warm
/// assert_eq!(a.outputs, b.outputs);
/// assert_eq!(cache.len(), 1);
/// # Ok::<(), rnnasip_core::CoreError>(())
/// ```
pub struct EngineCache {
    /// Compile-once artifacts, one per key; cloned out cheaply (the
    /// image is `Arc`-shared) whenever a fresh engine is needed.
    compiled: Mutex<HashMap<Key, CompiledNetwork>>,
    /// Checked-in engines awaiting reuse. More than one engine per key
    /// exists only if runs genuinely overlapped in time.
    idle: Mutex<HashMap<Key, Vec<Engine>>>,
    /// Monotone count of compilations performed — the witness the
    /// prewarm tests use to prove a warmed cache serves without paying
    /// compile latency inside the measurement window.
    compiles: AtomicU64,
    /// Whether engines created by this cache arm ABFT guards
    /// ([`Engine::set_guards`]).
    guards: bool,
    /// Simulated cluster cores per artifact
    /// ([`KernelBackend::with_cores`]).
    cores: usize,
    /// Engines dropped under the quarantine rule.
    quarantined: AtomicU64,
}

impl Default for EngineCache {
    fn default() -> Self {
        Self {
            compiled: Mutex::default(),
            idle: Mutex::default(),
            compiles: AtomicU64::default(),
            guards: false,
            cores: 1,
            quarantined: AtomicU64::default(),
        }
    }
}

impl EngineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose engines run with ABFT guards armed: every
    /// run's report carries a guard section, and an engine whose run
    /// trips a guard is quarantined on check-in instead of returning to
    /// the idle pool.
    pub fn guarded() -> Self {
        Self {
            guards: true,
            ..Self::default()
        }
    }

    /// This cache, compiling every artifact for a simulated
    /// `cores`-core cluster.
    pub(crate) fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Whether this cache's engines arm ABFT guards.
    pub fn guards_enabled(&self) -> bool {
        self.guards
    }

    /// Engines quarantined over the cache's lifetime: dropped because
    /// their last run tripped an ABFT guard (guarded caches only) or a
    /// panic interrupted them.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Number of networks compiled so far (artifacts, not engines).
    pub fn len(&self) -> usize {
        lock(&self.compiled).len()
    }

    /// Whether nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        lock(&self.compiled).is_empty()
    }

    /// Number of idle (checked-in) warm engines across all keys.
    pub fn warm_engines(&self) -> usize {
        lock(&self.idle).values().map(Vec::len).sum()
    }

    /// Total compilations performed over the cache's lifetime. A warmed
    /// cache serving only prewarmed `(network, level)` keys holds this
    /// constant — no compile latency on the serving path.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Warms the cache for every network in `nets` at `level`:
    /// compiles each missing artifact and checks in one idle engine per
    /// key, so later [`checkout`](Self::checkout)/[`run`](Self::run)
    /// calls pay neither compile nor engine-instantiation latency.
    /// Returns the number of networks this call compiled (idempotent: a
    /// second prewarm returns 0, and concurrent prewarms of one suite
    /// sum to the suite size).
    ///
    /// # Errors
    ///
    /// The first compilation failure ([`CoreError`]); earlier networks
    /// stay warmed.
    pub fn prewarm<'n>(
        &self,
        nets: impl IntoIterator<Item = &'n Network>,
        level: OptLevel,
    ) -> Result<usize, CoreError> {
        let mut fresh = 0;
        for net in nets {
            let key = (net.name().to_string(), level);
            let (compiled, compiled_now) = self.artifact(net, &key)?;
            fresh += usize::from(compiled_now);
            let mut idle = lock(&self.idle);
            let engines = idle.entry(key).or_default();
            if engines.is_empty() {
                engines.push(self.instantiate(compiled));
            }
        }
        Ok(fresh)
    }

    /// A fresh engine from `compiled`, guards armed per the cache's
    /// configuration.
    fn instantiate(&self, compiled: CompiledNetwork) -> Engine {
        let mut engine = Engine::new(compiled);
        engine.set_guards(self.guards);
        engine
    }

    /// The compiled artifact for `key` (`net` at `key.1`), compiling on
    /// first use, and whether this call compiled it.
    ///
    /// # Errors
    ///
    /// Compilation errors ([`CoreError`]) on a cache miss.
    fn artifact(&self, net: &Network, key: &Key) -> Result<(CompiledNetwork, bool), CoreError> {
        let mut cache = lock(&self.compiled);
        if let Some(hit) = cache.get(key) {
            return Ok((hit.clone(), false));
        }
        // Compiling under the lock serializes concurrent first requests
        // so the artifact is built exactly once per key.
        let compiled = KernelBackend::new(key.1)
            .with_cores(self.cores)
            .compile_network(net)?;
        self.compiles.fetch_add(1, Ordering::Relaxed);
        cache.insert(key.clone(), compiled.clone());
        Ok((compiled, true))
    }

    /// Checks out a warm engine for `(net, level)`, compiling on first
    /// use and instantiating a fresh engine when every cached one is
    /// already lent out. The guard checks the engine back in on drop.
    ///
    /// # Errors
    ///
    /// Compilation errors ([`CoreError`]) on a cache miss.
    pub fn checkout(&self, net: &Network, level: OptLevel) -> Result<CacheEngine<'_>, CoreError> {
        let key = (net.name().to_string(), level);
        let idle = lock(&self.idle).get_mut(&key).and_then(Vec::pop);
        let engine = match idle {
            Some(engine) => engine,
            None => self.instantiate(self.artifact(net, &key)?.0),
        };
        Ok(CacheEngine {
            cache: self,
            key,
            engine: Some(engine),
        })
    }

    /// Runs one inference through a cached engine for `(net, level)`.
    ///
    /// # Errors
    ///
    /// Compilation errors on first use, shape/simulation errors on every
    /// run ([`CoreError`]).
    pub fn run(
        &self,
        net: &Network,
        level: OptLevel,
        sequence: &[Vec<Q3p12>],
    ) -> Result<NetworkRun, CoreError> {
        self.checkout(net, level)?.run(sequence)
    }

    /// Like [`run`](Self::run) with the watchdog budget overridden for
    /// this call — for decision loops with a hard latency ceiling. The
    /// cached default is [`DEFAULT_WATCHDOG_CYCLES`](crate::DEFAULT_WATCHDOG_CYCLES).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); exceeding `max_cycles` is a
    /// simulation watchdog error, after which the cached engine has
    /// already healed and stays warm.
    pub fn run_budgeted(
        &self,
        net: &Network,
        level: OptLevel,
        sequence: &[Vec<Q3p12>],
        max_cycles: u64,
    ) -> Result<NetworkRun, CoreError> {
        self.checkout(net, level)?
            .run_budgeted(sequence, max_cycles)
    }
}

/// A checked-out engine; derefs to [`Engine`] and returns to its
/// [`EngineCache`]'s idle pool on drop.
pub struct CacheEngine<'a> {
    cache: &'a EngineCache,
    key: Key,
    engine: Option<Engine>,
}

impl Deref for CacheEngine<'_> {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        self.engine.as_ref().expect("present until drop")
    }
}

impl DerefMut for CacheEngine<'_> {
    fn deref_mut(&mut self) -> &mut Engine {
        self.engine.as_mut().expect("present until drop")
    }
}

impl Drop for CacheEngine<'_> {
    /// Checks the engine back into the idle pool — unless the one
    /// quarantine rule drops it. An engine whose last run tripped an ABFT
    /// guard may hold silent corruption a rewind cannot clear, and one a
    /// panic unwinding through the borrower may be mid-run; neither
    /// serves again. The next checkout then instantiates a fresh one
    /// from the clean cached artifact, so the damage is contained to the
    /// borrower that observed it.
    fn drop(&mut self) {
        let Some(engine) = self.engine.take() else {
            return;
        };
        if std::thread::panicking() || engine.last_guard_failed() {
            self.cache.quarantined.fetch_add(1, Ordering::Relaxed);
        } else {
            let key = (std::mem::take(&mut self.key.0), self.key.1);
            lock(&self.cache.idle).entry(key).or_default().push(engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_compiles_once_per_network_and_level() {
        let suite = rnnasip_rrm::suite();
        let net = &suite[3]; // eisen2019: smallest, fastest to compile
        let cache = EngineCache::new();
        let input = net.input();
        let warm = cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        assert_eq!(cache.len(), 1);
        cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        assert_eq!(cache.len(), 1);
        cache.run(&net.network, OptLevel::Xpulp, &input).unwrap();
        assert_eq!(cache.len(), 2);
        // Serial use keeps exactly one engine per key checked in.
        assert_eq!(cache.warm_engines(), 2);

        // Cached runs match the fresh single-shot path bit-for-bit.
        let fresh = KernelBackend::new(OptLevel::IfmTile)
            .run_network(&net.network, &input)
            .unwrap();
        assert_eq!(warm.outputs, fresh.outputs);
        assert_eq!(warm.report.cycles(), fresh.report.cycles());
    }

    #[test]
    fn budgeted_runs_share_the_warm_engine() {
        let suite = rnnasip_rrm::suite();
        let net = &suite[3];
        let cache = EngineCache::new();
        let input = net.input();
        let free = cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        // An ample explicit budget changes nothing; a one-cycle budget
        // trips the watchdog but leaves the engine healed and cached.
        let ample = cache
            .run_budgeted(&net.network, OptLevel::IfmTile, &input, 1_000_000)
            .unwrap();
        assert_eq!(free.outputs, ample.outputs);
        assert_eq!(free.report.cycles(), ample.report.cycles());
        assert!(cache
            .run_budgeted(&net.network, OptLevel::IfmTile, &input, 1)
            .is_err());
        let healed = cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        assert_eq!(free.outputs, healed.outputs);
        assert_eq!(free.report.cycles(), healed.report.cycles());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.warm_engines(), 1);
    }

    #[test]
    fn prewarmed_cache_serves_the_suite_with_zero_additional_compiles() {
        let suite = rnnasip_rrm::suite();
        let cache = EngineCache::new();
        let fresh = cache
            .prewarm(suite.iter().map(|b| &b.network), OptLevel::IfmTile)
            .unwrap();
        assert_eq!(fresh, 10);
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.warm_engines(), 10);
        assert_eq!(cache.compiles(), 10);

        // Prewarm is idempotent: nothing new to compile or instantiate.
        let again = cache
            .prewarm(suite.iter().map(|b| &b.network), OptLevel::IfmTile)
            .unwrap();
        assert_eq!(again, 0);
        assert_eq!(cache.compiles(), 10);
        assert_eq!(cache.warm_engines(), 10);

        // Serving the whole suite afterwards triggers zero compiles —
        // the front-end's measurement window never pays compile
        // latency.
        for net in &suite {
            cache
                .run(&net.network, OptLevel::IfmTile, &net.input())
                .unwrap();
        }
        assert_eq!(cache.compiles(), 10);
        assert_eq!(cache.len(), 10);
        // A different level is a different key: compiling it is new.
        cache
            .run(&suite[3].network, OptLevel::Xpulp, &suite[3].input())
            .unwrap();
        assert_eq!(cache.compiles(), 11);
    }

    /// The check-in regression: a guarded engine whose run trips an ABFT
    /// guard must be quarantined on drop — checking the corrupted engine
    /// back in would hand silent corruption (which survives the
    /// per-run rewind) to the next borrower.
    #[test]
    fn guard_tripped_engine_is_quarantined_not_checked_in() {
        use crate::{Fault, FaultPlan, FaultSite};

        let suite = rnnasip_rrm::suite();
        let net = &suite[3]; // eisen2019
        let input = net.input();
        let cache = EngineCache::guarded();
        assert!(cache.guards_enabled());
        let golden = cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        assert!(!golden.report.guard_failed(), "clean run must not trip");
        assert_eq!(cache.warm_engines(), 1);

        // A *silent* bias-word flip: evades the dirty-block rewind, so a
        // checked-in engine would stay corrupted for its next borrower.
        let mut engine = cache.checkout(&net.network, OptLevel::IfmTile).unwrap();
        let bias = engine.compiled().guards()[0].region.bias32;
        engine.inject_faults(&FaultPlan::new().with_fault(Fault {
            at_instret: 0,
            site: FaultSite::MemBit {
                addr: bias,
                bit: 4,
                silent: true,
            },
        }));
        let flagged = engine.run(&input).unwrap();
        assert!(flagged.report.guard_failed(), "the guard must trip");
        assert!(engine.last_guard_failed());
        drop(engine);

        // Quarantined: the idle pool is empty, not holding the corrupted
        // engine.
        assert_eq!(cache.warm_engines(), 0, "corrupted engine checked in");
        assert_eq!(cache.quarantined(), 1);

        // The next run instantiates fresh from the clean artifact — no
        // recompile, no residual corruption, bit-exact outputs.
        let healed = cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        assert!(!healed.report.guard_failed());
        assert_eq!(healed.outputs, golden.outputs);
        assert_eq!(healed.report.cycles(), golden.report.cycles());
        assert_eq!(cache.len(), 1, "no recompilation was needed");
        assert_eq!(cache.warm_engines(), 1, "the clean engine pools again");
    }

    #[test]
    fn checkout_holds_a_private_engine() {
        let suite = rnnasip_rrm::suite();
        let net = &suite[3];
        let cache = EngineCache::new();
        let input = net.input();
        let mut a = cache.checkout(&net.network, OptLevel::IfmTile).unwrap();
        let mut b = cache.checkout(&net.network, OptLevel::IfmTile).unwrap();
        // Two concurrent checkouts of one key are distinct machines from
        // one compiled artifact.
        assert!(!std::ptr::eq(a.machine(), b.machine()));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.warm_engines(), 0);
        let ra = a.run(&input).unwrap();
        let rb = b.run(&input).unwrap();
        assert_eq!(ra.outputs, rb.outputs);
        assert_eq!(ra.report.cycles(), rb.report.cycles());
        drop(a);
        drop(b);
        assert_eq!(cache.warm_engines(), 2);
        // The next checkout reuses a checked-in engine, not a third one.
        drop(cache.checkout(&net.network, OptLevel::IfmTile).unwrap());
        assert_eq!(cache.warm_engines(), 2);
    }

    /// Concurrent prewarms count only their own compiles: the artifact
    /// lookup reports whether it compiled, so another thread's compile
    /// never inflates this thread's count.
    #[test]
    fn concurrent_prewarms_sum_to_the_suite() {
        use std::sync::Barrier;

        let suite = rnnasip_rrm::suite();
        let cache = EngineCache::new();
        let start = Barrier::new(2);
        let fresh: usize = std::thread::scope(|s| {
            let prewarm = || {
                start.wait();
                cache
                    .prewarm(suite.iter().map(|b| &b.network), OptLevel::IfmTile)
                    .unwrap()
            };
            let a = s.spawn(prewarm);
            let b = s.spawn(prewarm);
            a.join().unwrap() + b.join().unwrap()
        });
        assert_eq!(fresh, 10);
        assert_eq!(cache.compiles(), 10);
        assert_eq!(cache.len(), 10);
    }

    /// A panic unwinding through a borrower quarantines its engine:
    /// the machine may have stopped mid-run, so it never returns to the
    /// idle pool.
    #[test]
    fn panic_interrupted_engine_is_quarantined() {
        let suite = rnnasip_rrm::suite();
        let net = &suite[3];
        let input = net.input();
        let cache = EngineCache::new();
        let golden = cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        assert_eq!(cache.warm_engines(), 1);

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _engine = cache.checkout(&net.network, OptLevel::IfmTile).unwrap();
            panic!("borrower panicked mid-request");
        }));
        assert!(unwound.is_err());
        assert_eq!(cache.warm_engines(), 0, "interrupted engine checked in");
        assert_eq!(cache.quarantined(), 1);

        let healed = cache.run(&net.network, OptLevel::IfmTile, &input).unwrap();
        assert_eq!(healed.outputs, golden.outputs);
        assert_eq!(cache.compiles(), 1, "no recompilation was needed");
    }
}
