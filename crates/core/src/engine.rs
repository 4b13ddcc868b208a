//! The run phase of the compile-once / run-many split.
//!
//! An [`Engine`] owns a reusable [`Cluster`] — one core per
//! [`CompiledNetwork::cores`], a single core being a one-phase cluster —
//! seeded from the artifact's staged image. Each [`run`](Engine::run)
//! rewinds it (restoring only the memory blocks the previous run
//! dirtied — see `rnnasip_sim::Memory::restore_image`), patches the new
//! input window, simulates, and reads the outputs back. Per-request host
//! cost is therefore simulation plus a restore proportional to the
//! kernel's write footprint, not re-staging megabytes of weights or
//! re-assembling the program.
//!
//! Runs are bit-identical to a fresh session's: same Q3.12 outputs,
//! same cycle counts, same per-mnemonic histograms.

use crate::compile::CompiledNetwork;
use crate::error::CoreError;
use crate::report::RunReport;
use crate::runner::NetworkRun;
use rnnasip_fixed::Q3p12;
use rnnasip_sim::{Cluster, FaultPlan, FaultRecord, Machine, Memory};
use std::sync::Arc;

/// A reusable executor for one [`CompiledNetwork`].
///
/// # Example
///
/// ```
/// use rnnasip_core::{KernelBackend, OptLevel};
///
/// let net = rnnasip_rrm::suite().remove(3).network; // eisen2019 MLP
/// let compiled = KernelBackend::new(OptLevel::IfmTile).compile_network(&net)?;
/// let mut engine = compiled.engine();
/// let input = vec![rnnasip_rrm::seeded_input(net.n_in(), 1)];
/// let first = engine.run(&input)?;
/// let second = engine.run(&input)?;
/// assert_eq!(first.outputs, second.outputs);
/// assert_eq!(first.report.cycles(), second.report.cycles());
/// # Ok::<(), rnnasip_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    compiled: CompiledNetwork,
    cluster: Cluster,
    last_restored: usize,
    last_fault_log: Vec<FaultRecord>,
    last_faulted_core: Option<usize>,
    /// Which core the next injected plan arms on.
    fault_core: usize,
    /// Reusable input-patch staging: the request sequence flattened to
    /// little-endian halfword bytes, written into the TCDM in one bulk
    /// copy. Hoisted out of `run` so back-to-back inferences (the
    /// serving hot path) allocate nothing per request.
    patch: Vec<u8>,
    /// Whether the most recent successful run tripped a guard.
    last_guard_failed: bool,
}

impl Engine {
    /// Builds an engine around `compiled`: its cluster's shared memory
    /// loaded from the staged image, the kernels shared with the
    /// artifact — micro-op translations included — not re-translated.
    pub fn new(compiled: CompiledNetwork) -> Self {
        let cluster = Self::build_cluster(&compiled);
        let patch_capacity = 2 * compiled.input().width() * compiled.input().steps();
        Self {
            compiled,
            cluster,
            last_restored: 0,
            last_fault_log: Vec::new(),
            last_faulted_core: None,
            fault_core: 0,
            patch: Vec::with_capacity(patch_capacity),
            last_guard_failed: false,
        }
    }

    fn build_cluster(compiled: &CompiledNetwork) -> Cluster {
        Cluster::new(
            Arc::clone(compiled.cluster()),
            Memory::from_image(compiled.image()),
        )
    }

    /// The artifact this engine executes.
    pub fn compiled(&self) -> &CompiledNetwork {
        &self.compiled
    }

    /// Read-only view of core 0's machine — cycle counters, statistics,
    /// block-runner coverage diagnostics (`Machine::bulk_instrs`) and,
    /// between runs, the shared TCDM. Use [`cluster`](Self::cluster)
    /// for the other cores.
    pub fn machine(&self) -> &Machine {
        self.cluster.machine(0)
    }

    /// The cluster this engine executes on (`Some` for every engine).
    pub fn cluster(&self) -> Option<&Cluster> {
        Some(&self.cluster)
    }

    /// Memory bytes the last [`run`](Self::run) had to restore from the
    /// staged image (0 before the first run; small relative to the TCDM
    /// because only kernel-written blocks are dirty).
    pub fn last_restored_bytes(&self) -> usize {
        self.last_restored
    }

    /// Runs one inference: rewind, patch inputs, simulate, read outputs.
    ///
    /// `sequence` must have the network's `seq_len` steps of `n_in`
    /// elements each (non-recurrent networks take a single step). The
    /// simulation is bounded by the compiled watchdog budget
    /// ([`CompiledNetwork::max_cycles`], by default
    /// [`DEFAULT_WATCHDOG_CYCLES`](crate::DEFAULT_WATCHDOG_CYCLES)).
    ///
    /// # Errors
    ///
    /// [`CoreError::Shape`] on sequence length/width mismatch, or any
    /// simulation error. A failed run **heals eagerly**: the engine
    /// disarms any remaining injected faults and rewinds its memory
    /// before returning, so the next run behaves bit-identically to a
    /// fresh engine (unless the failure corrupted state the dirty-block
    /// bitmap cannot see — then [`heal_rebuild`](Self::heal_rebuild)).
    pub fn run(&mut self, sequence: &[Vec<Q3p12>]) -> Result<NetworkRun, CoreError> {
        self.run_owned(sequence, false, None)
    }

    /// Allocation-lean twin of [`run`](Self::run): outputs land in a
    /// caller-owned buffer (cleared first) instead of a fresh `Vec`, so
    /// a tight serving loop that recycles its buffers pays no per-request
    /// output allocation. Same semantics and bit-identical results
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); `outputs` is cleared on error.
    pub fn run_into(
        &mut self,
        sequence: &[Vec<Q3p12>],
        outputs: &mut Vec<Q3p12>,
    ) -> Result<RunReport, CoreError> {
        self.run_inner(sequence, false, None, outputs)
    }

    /// Like [`run`](Self::run), but every core steps one micro-op at a
    /// time (`Machine::run_stepping`) instead of running the bulk and
    /// shortcut tiers. Outputs, cycle counts, per-mnemonic rows and the
    /// guard report are bit-identical to [`run`](Self::run); only host
    /// time differs. Used by the differential tests and the
    /// `sim_throughput` benchmark's stepping column.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_reference(&mut self, sequence: &[Vec<Q3p12>]) -> Result<NetworkRun, CoreError> {
        self.run_owned(sequence, true, None)
    }

    /// Like [`run`](Self::run) with the watchdog budget overridden for
    /// this run only — tighter for latency-bounded callers, looser for
    /// deliberately slow experiments. An injected plan's forced watchdog
    /// ([`FaultPlan::with_watchdog`]) still caps the effective budget
    /// when smaller.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); exceeding `max_cycles` is
    /// `CoreError::Sim(SimError::Watchdog { .. })`.
    pub fn run_budgeted(
        &mut self,
        sequence: &[Vec<Q3p12>],
        max_cycles: u64,
    ) -> Result<NetworkRun, CoreError> {
        self.run_owned(sequence, false, Some(max_cycles))
    }

    /// Arms a [`FaultPlan`] for the **next run only**. The plan's faults
    /// fire at their `instret` triggers during that run; whatever the
    /// outcome, the engine disarms the plan afterwards and keeps the
    /// applied-fault records readable via
    /// [`last_fault_log`](Self::last_fault_log).
    ///
    /// # Example
    ///
    /// ```
    /// use rnnasip_core::{FaultPlan, KernelBackend, OptLevel};
    ///
    /// let net = rnnasip_rrm::suite().remove(3).network; // eisen2019 MLP
    /// let compiled = KernelBackend::new(OptLevel::IfmTile).compile_network(&net)?;
    /// let mut engine = compiled.engine();
    /// let input = vec![rnnasip_rrm::seeded_input(net.n_in(), 1)];
    /// let golden = engine.run(&input)?;
    ///
    /// engine.inject_faults(&FaultPlan::new().with_watchdog(10));
    /// assert!(engine.run(&input).is_err()); // hangs the next run
    ///
    /// let healed = engine.run(&input)?; // auto-rewound: fresh again
    /// assert_eq!(healed.outputs, golden.outputs);
    /// assert_eq!(healed.report.cycles(), golden.report.cycles());
    /// # Ok::<(), rnnasip_core::CoreError>(())
    /// ```
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        let core = self.fault_core.min(self.cluster.cores() - 1);
        self.cluster.arm_faults(plan, core);
    }

    /// Selects which core the next [`inject_faults`] plan arms on
    /// (clamped to the cluster width).
    ///
    /// [`inject_faults`]: Self::inject_faults
    pub fn set_fault_core(&mut self, core: usize) {
        self.fault_core = core;
    }

    /// The core that raised the most recent run's error — or, when the
    /// run completed, the last core that applied an injected fault;
    /// `None` when neither happened (see
    /// [`Cluster::last_faulted_core`]).
    pub fn last_faulted_core(&self) -> Option<usize> {
        self.last_faulted_core
    }

    /// The fault records of the most recent run (empty when nothing was
    /// injected or no fault fired) — preserved across the post-run
    /// disarm/heal so campaigns can attribute an outcome to what was
    /// actually hit.
    pub fn last_fault_log(&self) -> &[FaultRecord] {
        &self.last_fault_log
    }

    /// Arms (or disarms) the compiled artifact's ABFT guards on every
    /// core. Guarded runs verify every kernel region's column checksum
    /// natively at region exit — with one activation ledger for the
    /// whole run, shared across cores — and attach a
    /// [`GuardReport`](rnnasip_sim::GuardReport) to the [`RunReport`];
    /// outputs, cycle counts and per-mnemonic rows stay bit-identical to
    /// unguarded runs on clean inputs (the analytic guard surcharge
    /// lives in the report's separate `guard_cycles` counter).
    pub fn set_guards(&mut self, on: bool) {
        self.cluster.set_guards(on);
    }

    /// Whether ABFT guards are currently armed on this engine.
    pub fn guards_enabled(&self) -> bool {
        self.cluster.guards_armed()
    }

    /// Whether the most recent successful guarded run tripped a guard
    /// (`false` after unguarded or failed runs). Engine pools use this
    /// to quarantine a possibly-corrupted engine instead of recycling
    /// it.
    pub fn last_guard_failed(&self) -> bool {
        self.last_guard_failed
    }

    /// Rebuilds the cluster from the compiled artifact: fresh memory
    /// loaded from the full staged image, kernels reloaded (clearing any
    /// instruction-word corruption), all fault state gone.
    ///
    /// This is the heavy rung of the recovery ladder: the eager rewind
    /// after a failed run undoes *tracked* writes, but a fault that
    /// evaded the dirty-block bitmap (a silent memory upset) or that
    /// corrupted a kernel a core keeps holding survives rewinds — only a
    /// full rebuild restores the engine's invariants. Cost is
    /// proportional to the whole image rather than the last run's write
    /// footprint.
    pub fn heal_rebuild(&mut self) {
        let guards = self.guards_enabled();
        self.cluster = Self::build_cluster(&self.compiled);
        self.set_guards(guards);
        self.last_restored = self.compiled.image().len();
        self.last_guard_failed = false;
    }

    /// [`run_inner`](Self::run_inner) into a fresh output vector.
    fn run_owned(
        &mut self,
        sequence: &[Vec<Q3p12>],
        stepping: bool,
        budget: Option<u64>,
    ) -> Result<NetworkRun, CoreError> {
        let mut outputs = Vec::with_capacity(self.compiled.output().len());
        let report = self.run_inner(sequence, stepping, budget, &mut outputs)?;
        Ok(NetworkRun { outputs, report })
    }

    fn run_inner(
        &mut self,
        sequence: &[Vec<Q3p12>],
        stepping: bool,
        budget: Option<u64>,
        outputs: &mut Vec<Q3p12>,
    ) -> Result<RunReport, CoreError> {
        let input = self.compiled.input();
        if sequence.len() != input.steps() {
            return Err(CoreError::Shape(format!(
                "sequence length {} != network seq_len {}",
                sequence.len(),
                input.steps()
            )));
        }
        for x in sequence {
            if x.len() != input.width() {
                return Err(CoreError::Shape(format!(
                    "input width {} != network input width {}",
                    x.len(),
                    input.width()
                )));
            }
        }
        let result = self.attempt(sequence, stepping, budget, outputs);
        // One-shot injection semantics: stash what the plan actually did,
        // then disarm so the next run is unaffected; on failure also
        // rewind eagerly so a poisoned engine heals before the caller
        // ever observes it again (DESIGN.md, "Fault model & recovery").
        let cluster = &mut self.cluster;
        self.last_fault_log.clear();
        for core in 0..cluster.cores() {
            self.last_fault_log
                .extend_from_slice(cluster.fault_log(core));
        }
        self.last_faulted_core = cluster.last_faulted_core();
        cluster.clear_faults();
        if result.is_err() {
            outputs.clear();
            self.last_restored = cluster.rewind(self.compiled.image());
        }
        result
    }

    fn attempt(
        &mut self,
        sequence: &[Vec<Q3p12>],
        stepping: bool,
        budget: Option<u64>,
        outputs: &mut Vec<Q3p12>,
    ) -> Result<RunReport, CoreError> {
        let input = self.compiled.input();
        self.last_guard_failed = false;
        // The sequence is contiguous in the staged layout (step t at
        // base + 2*t*width), so it flattens into the reusable patch
        // scratch and lands in one bulk write.
        self.patch.clear();
        for x in sequence {
            for v in x {
                self.patch
                    .extend_from_slice(&(v.raw() as u16).to_le_bytes());
            }
        }
        let max_cycles = budget.unwrap_or_else(|| self.compiled.max_cycles());
        let cluster = &mut self.cluster;
        self.last_restored = cluster.rewind(self.compiled.image());
        cluster.mem_mut().write_bytes(input.base(), &self.patch)?;
        // Seed the guard ledger with the freshly patched request, so the
        // first region's input-sum check covers flips that land before
        // the kernel ever reads it (the cluster seeds its DMA copies).
        cluster.guard_note_range(input.base(), (self.patch.len() / 2) as u32);
        let started = std::time::Instant::now();
        cluster.run_with(max_cycles, stepping)?;
        let host_nanos = started.elapsed().as_nanos() as u64;
        let out = self.compiled.output();
        cluster
            .mem()
            .read_q3p12_into(out.base(), out.len(), outputs)?;
        let mut report = RunReport::for_cluster(cluster).with_host_nanos(host_nanos);
        // The report closes the ledger chain: the output window as read
        // back must still sum to what the last regions wrote.
        if let Some(guard) = cluster.guard_report(out.base(), out.len() as u32) {
            self.last_guard_failed = guard.failed();
            report = report.with_guard(guard);
        }
        Ok(report)
    }
}
