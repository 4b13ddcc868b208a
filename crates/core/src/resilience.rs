//! Self-healing execution: watchdog-bounded runs with a recovery ladder.
//!
//! A [`ResilientEngine`] wraps an [`Engine`] and treats every
//! [`SimError`] as a recoverable event rather than a dead process. The
//! ladder, climbed one rung per failed attempt under a [`RetryPolicy`]:
//!
//! 0. **Verify** — a run that *succeeded* but tripped an ABFT guard
//!    ([`Engine::set_guards`]) re-executes the whole net on rewound
//!    memory. A clean repeat classifies the corruption as
//!    [`SdcVerdict::Transient`]; a repeat trip as
//!    [`SdcVerdict::Sticky`], which climbs straight to rebuild.
//! 1. **Rewind** — the engine's eager post-failure heal already restored
//!    every tracked write from the staged image and disarmed leftover
//!    fault state, so a retry costs only the dirty-block restore. This
//!    clears transient corruption: flipped registers, tracked memory
//!    upsets, a stuck forced watchdog.
//! 2. **Rebuild** — [`Engine::heal_rebuild`]: fresh memory from the full
//!    staged image and a program reload. This is the answer when the
//!    dirty-block bitmap itself cannot be trusted — a *silent* memory
//!    flip the write tracking never saw, or a corrupted instruction
//!    word, survives any number of rewinds but not a rebuild.
//! 3. **Degrade** — recompile one [`OptLevel`] rung lower
//!    ([`OptLevel::lower`]) and rebuild the engine from the new
//!    artifact. Every level is bit-exact against the golden models, so a
//!    degraded run still produces reference outputs — just in more
//!    cycles, on a smaller ISA surface. This models falling back to
//!    plain RV32IMC when the custom extensions are suspect.
//!
//! Non-simulation errors (shape mismatches, layout overflows) are not
//! recoverable by re-execution and abort the ladder immediately.
//!
//! Every attempt — including the successful one — is recorded in the
//! returned [`RunOutcome`], so fault campaigns can report not just
//! *whether* a trial recovered but *which rung* recovered it.
//!
//! # Example
//!
//! ```
//! use rnnasip_core::{
//!     FaultPlan, KernelBackend, OptLevel, RecoveryAction, ResilientEngine,
//! };
//!
//! let net = rnnasip_rrm::suite().remove(3).network; // eisen2019 MLP
//! let mut engine = ResilientEngine::new(&net, KernelBackend::new(OptLevel::IfmTile))?;
//! let input = vec![rnnasip_rrm::seeded_input(net.n_in(), 1)];
//!
//! let golden = engine.run(&input);
//! assert!(golden.result.is_ok());
//!
//! // A forced watchdog hangs the first attempt; the retry recovers.
//! engine.inject_faults(&FaultPlan::new().with_watchdog(10));
//! let outcome = engine.run(&input);
//! assert!(outcome.recovered());
//! assert_eq!(outcome.attempts.len(), 2);
//! assert_eq!(outcome.attempts[1].action, RecoveryAction::Rewind);
//! assert_eq!(
//!     outcome.result.unwrap().outputs,
//!     golden.result.unwrap().outputs,
//! );
//! # Ok::<(), rnnasip_core::CoreError>(())
//! ```

use crate::engine::Engine;
use crate::error::CoreError;
use crate::optlevel::OptLevel;
use crate::runner::{KernelBackend, NetworkRun};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use rnnasip_sim::{FaultPlan, SimError};

/// How many recovery rungs a [`ResilientEngine`] may climb per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Verify re-runs after a *successful* attempt whose ABFT guards
    /// flagged silent data corruption (rung 0, below rewind). The
    /// re-run costs one dirty-block restore plus the run itself; its
    /// guard verdict classifies the corruption as
    /// [`SdcVerdict::Transient`] (the retry healed it) or
    /// [`SdcVerdict::Sticky`] (climb to rebuild/degrade).
    pub max_verifies: u32,
    /// Retries after the engine's eager rewind (rung 1). Each one costs
    /// a dirty-block restore plus the re-run itself.
    pub max_rewinds: u32,
    /// Whether a full image rebuild (rung 2) is allowed once the rewind
    /// budget is exhausted.
    pub rebuild: bool,
    /// Whether recompiling at lower [`OptLevel`]s (rung 3) is allowed,
    /// walking [`OptLevel::lower`] down to `Baseline` if needed.
    pub degrade: bool,
}

impl Default for RetryPolicy {
    /// One verify re-run, one rewind retry, then rebuild, then degrade
    /// — the full ladder.
    fn default() -> Self {
        Self {
            max_verifies: 1,
            max_rewinds: 1,
            rebuild: true,
            degrade: true,
        }
    }
}

impl RetryPolicy {
    /// The full ladder with default budgets ([`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the guard-verify re-run budget.
    #[must_use]
    pub fn with_max_verifies(mut self, n: u32) -> Self {
        self.max_verifies = n;
        self
    }

    /// Sets the rewind-retry budget.
    #[must_use]
    pub fn with_max_rewinds(mut self, n: u32) -> Self {
        self.max_rewinds = n;
        self
    }

    /// Enables or disables the rebuild rung.
    #[must_use]
    pub fn with_rebuild(mut self, on: bool) -> Self {
        self.rebuild = on;
        self
    }

    /// Enables or disables the degradation rung.
    #[must_use]
    pub fn with_degrade(mut self, on: bool) -> Self {
        self.degrade = on;
        self
    }
}

/// Which recovery rung produced an attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The initial attempt — no recovery preceded it.
    FirstTry,
    /// Re-run after a *successful* attempt tripped an ABFT guard: the
    /// whole net re-executes on rewound memory and the fresh guard
    /// verdict separates transient from sticky corruption.
    Verify,
    /// Retry after the engine's eager dirty-block rewind.
    Rewind,
    /// Retry after a full rebuild from the staged image.
    Rebuild,
    /// Retry after recompiling one [`OptLevel`] lower.
    Degrade,
}

/// What a [`RecoveryAction::Verify`] re-run concluded about a guard
/// trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdcVerdict {
    /// The re-run came back clean: the corruption lived in state the
    /// rewind restores (a tracked memory flip, a register upset) and is
    /// gone.
    Transient,
    /// The re-run tripped again: the corruption survives rewinds (a
    /// silent memory flip the write tracking never saw) — only the
    /// rebuild/degrade rungs can clear it.
    Sticky,
}

/// One attempt of a resilient run: what recovery preceded it, at which
/// level it ran, and how it ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// The rung that set this attempt up.
    pub action: RecoveryAction,
    /// Optimization level the attempt ran at.
    pub level: OptLevel,
    /// The simulation error that ended the attempt, or `None` if it
    /// succeeded.
    pub error: Option<SimError>,
    /// The core whose fault activity ended the attempt
    /// ([`Engine::last_faulted_core`]), `None` for clean attempts.
    pub faulted_core: Option<usize>,
    /// Whether this attempt succeeded but tripped an ABFT guard.
    pub guard_failed: bool,
    /// Index of the first guarded region that flagged this attempt
    /// (`None` for clean attempts and for trips caught only by the
    /// final-output window check).
    pub guard_region: Option<usize>,
    /// The conclusion of a [`RecoveryAction::Verify`] re-run, on the
    /// verify attempt itself.
    pub verdict: Option<SdcVerdict>,
}

/// The structured result of a resilient run: the final outcome plus the
/// full attempt history.
#[derive(Debug)]
pub struct RunOutcome {
    /// The final result — the successful run, or the error that
    /// exhausted the ladder.
    pub result: Result<NetworkRun, CoreError>,
    /// Every attempt in order; the last entry describes `result`.
    pub attempts: Vec<Attempt>,
    /// Optimization level of the final attempt (lower than the engine
    /// started at if degradation kicked in).
    pub level: OptLevel,
}

impl RunOutcome {
    /// Whether the run succeeded only thanks to recovery (at least one
    /// failed attempt before the successful one).
    pub fn recovered(&self) -> bool {
        self.result.is_ok() && self.attempts.len() > 1
    }

    /// Whether any attempt's ABFT guards flagged silent data corruption.
    pub fn sdc_detected(&self) -> bool {
        self.attempts.iter().any(|a| a.guard_failed)
    }

    /// Whether guards flagged corruption *and* the final attempt came
    /// back clean — the ladder contained the SDC.
    pub fn sdc_healed(&self) -> bool {
        self.result.is_ok()
            && self.sdc_detected()
            && self.attempts.last().is_some_and(|a| !a.guard_failed)
    }
}

/// A self-healing wrapper around an [`Engine`].
///
/// [`run`](Self::run) climbs the recovery ladder its [`RetryPolicy`] allows.
#[derive(Debug)]
pub struct ResilientEngine {
    net: Network,
    backend: KernelBackend,
    policy: RetryPolicy,
    engine: Engine,
}

impl ResilientEngine {
    /// Compiles `net` with `backend` and wraps the engine with the
    /// default [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Compilation errors ([`CoreError`]).
    pub fn new(net: &Network, backend: KernelBackend) -> Result<Self, CoreError> {
        Self::with_policy(net, backend, RetryPolicy::default())
    }

    /// [`new`](Self::new) with an explicit policy.
    ///
    /// # Errors
    ///
    /// Compilation errors ([`CoreError`]).
    pub fn with_policy(
        net: &Network,
        backend: KernelBackend,
        policy: RetryPolicy,
    ) -> Result<Self, CoreError> {
        let engine = backend.compile_network(net)?.engine();
        Ok(Self {
            net: net.clone(),
            backend,
            policy,
            engine,
        })
    }

    /// Arms (or disarms) ABFT guards on the wrapped engine. The setting
    /// is sticky: it survives rebuilds, degradation and
    /// [`restore_level`](Self::restore_level), all of which re-create
    /// the underlying machine.
    pub fn set_guards(&mut self, on: bool) {
        self.engine.set_guards(on);
    }

    /// The wrapped engine (post-mortem state, `last_fault_log`, …).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The level the engine currently runs at — the compiled level, or
    /// lower after degradation. Degradation is sticky: later runs stay
    /// at the degraded level until [`restore_level`](Self::restore_level).
    pub fn level(&self) -> OptLevel {
        self.engine.compiled().level()
    }

    /// Arms a [`FaultPlan`] for the next attempt only (the engine
    /// disarms it after that attempt, so retries run clean — which is
    /// precisely what lets them recover from the injected fault).
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        self.engine.inject_faults(plan);
    }

    /// Recompiles at the originally configured level, undoing any
    /// degradation.
    ///
    /// # Errors
    ///
    /// Compilation errors ([`CoreError`]).
    pub fn restore_level(&mut self) -> Result<(), CoreError> {
        if self.level() != self.backend.level() {
            self.engine = recompile(&self.engine, &self.backend, &self.net)?;
        }
        Ok(())
    }

    /// Runs one inference, climbing the recovery ladder as needed.
    /// Never panics on simulation failures; the returned [`RunOutcome`]
    /// holds the final result and the attempt history.
    pub fn run(&mut self, sequence: &[Vec<Q3p12>]) -> RunOutcome {
        let (net, backend) = (&self.net, &self.backend);
        climb(&mut self.engine, self.policy, sequence, |engine, lower| {
            *engine = recompile(engine, &backend.clone().with_level(lower), net)?;
            Ok(())
        })
    }
}

/// A fresh engine for `net` compiled by `backend`, keeping `old`'s
/// guard setting.
fn recompile(old: &Engine, backend: &KernelBackend, net: &Network) -> Result<Engine, CoreError> {
    let mut engine = backend.compile_network(net)?.engine();
    engine.set_guards(old.guards_enabled());
    Ok(engine)
}

/// The recovery ladder over one engine — the single implementation
/// behind [`ResilientEngine::run`] and the serving pool's workers.
///
/// Runs `sequence`, climbing verify → rewind → rebuild → degrade under
/// `policy`. The degrade rung (only when `policy.degrade` is set and a
/// lower level exists) calls `degrade(engine, lower)`, which must swap
/// `engine` for one compiled at `lower`; a compile error ends the
/// ladder with that error. Never panics on simulation failures.
pub(crate) fn climb(
    engine: &mut Engine,
    policy: RetryPolicy,
    sequence: &[Vec<Q3p12>],
    mut degrade: impl FnMut(&mut Engine, OptLevel) -> Result<(), CoreError>,
) -> RunOutcome {
    let mut attempts = Vec::new();
    let mut action = RecoveryAction::FirstTry;
    let mut verifies_left = policy.max_verifies;
    let mut rewinds_left = policy.max_rewinds;
    let mut rebuild_left = policy.rebuild;
    loop {
        let level = engine.compiled().level();
        let result = engine.run(sequence);
        match &result {
            Ok(run) => {
                let guard_failed = run.report.guard_failed();
                // A verify re-run's own verdict: a clean repeat means
                // the rewind healed the corruption; another trip means
                // it lives in state rewinds cannot reach.
                let verdict = (action == RecoveryAction::Verify).then_some(if guard_failed {
                    SdcVerdict::Sticky
                } else {
                    SdcVerdict::Transient
                });
                attempts.push(Attempt {
                    action,
                    level,
                    error: None,
                    faulted_core: None,
                    guard_failed,
                    guard_region: run.report.guard().and_then(|g| g.first_failed_region()),
                    verdict,
                });
                if !guard_failed {
                    return RunOutcome {
                        result,
                        attempts,
                        level,
                    };
                }
                // The run completed but its outputs are suspect: climb
                // verify → rebuild → degrade. (Rewind adds nothing here
                // — every run already starts from a rewound machine, so
                // the verify re-run *is* the rewind test.)
                if verifies_left > 0 {
                    verifies_left -= 1;
                    action = RecoveryAction::Verify;
                    continue;
                }
            }
            Err(CoreError::Sim(e)) => {
                attempts.push(Attempt {
                    action,
                    level,
                    error: Some(e.clone()),
                    faulted_core: engine.last_faulted_core(),
                    guard_failed: false,
                    guard_region: None,
                    verdict: None,
                });
                if rewinds_left > 0 {
                    // The engine already rewound eagerly on failure; the
                    // retry itself is the recovery.
                    rewinds_left -= 1;
                    action = RecoveryAction::Rewind;
                    continue;
                }
            }
            Err(_) => {
                // Shape/layout/assembly errors are deterministic
                // properties of the request, not transient faults.
                attempts.push(Attempt {
                    action,
                    level,
                    error: None,
                    faulted_core: None,
                    guard_failed: false,
                    guard_region: None,
                    verdict: None,
                });
                return RunOutcome {
                    result,
                    attempts,
                    level,
                };
            }
        }
        // The heavy rungs, shared by guard trips and simulation errors.
        if rebuild_left {
            rebuild_left = false;
            engine.heal_rebuild();
            action = RecoveryAction::Rebuild;
            continue;
        }
        match level.lower().filter(|_| policy.degrade) {
            Some(lower) => {
                if let Err(compile_err) = degrade(engine, lower) {
                    return RunOutcome {
                        result: Err(compile_err),
                        attempts,
                        level,
                    };
                }
                action = RecoveryAction::Degrade;
            }
            // Ladder exhausted: surface the last result. A flagged run
            // keeps its outputs, and the detection stands in the
            // attempt history.
            None => {
                return RunOutcome {
                    result,
                    attempts,
                    level,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Through the ladder, the failed attempt names the core its forced
    /// watchdog was armed on; the rewind retry and the next run come
    /// back clean and bit-identical to the golden run.
    #[test]
    fn attempts_name_the_faulted_cluster_core() {
        let bench = rnnasip_rrm::suite().remove(3); // eisen2019 MLP
        let input = bench.input();
        for cores in [2, 4] {
            let backend = KernelBackend::new(OptLevel::IfmTile).with_cores(cores);
            let mut resilient = ResilientEngine::new(&bench.network, backend).unwrap();
            let golden = resilient.run(&input).result.unwrap();
            for k in 0..cores {
                resilient.engine.set_fault_core(k);
                resilient.inject_faults(&FaultPlan::new().with_watchdog(10));
                let outcome = resilient.run(&input);
                let actions: Vec<_> = outcome.attempts.iter().map(|a| a.action).collect();
                assert_eq!(actions, [RecoveryAction::FirstTry, RecoveryAction::Rewind]);
                assert_eq!(outcome.attempts[0].faulted_core, Some(k), "{cores} cores");
                assert_eq!(outcome.attempts[1].faulted_core, None);
                let run = outcome.result.unwrap();
                assert_eq!(run.outputs, golden.outputs);
                assert_eq!(run.report.cycles(), golden.report.cycles());

                let next = resilient.run(&input);
                assert_eq!(next.attempts.len(), 1);
                let next = next.result.unwrap();
                assert_eq!(next.outputs, golden.outputs);
                assert_eq!(next.report.latency_cycles(), golden.report.latency_cycles());
            }
        }
    }
}
