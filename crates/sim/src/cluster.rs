//! A simulated N-core PULP cluster: per-core machines around one shared
//! banked TCDM, a DMA engine for L2 → TCDM input staging, and a barrier
//! unit between phases.
//!
//! # Execution model
//!
//! A partitioned network arrives as a [`ClusterProgram`]: an ordered
//! list of [`ClusterPhase`]s, each holding one optional per-core
//! [`ClusterKernel`] (program + micro-op image + guard specs). A single
//! core is the degenerate case: one phase, one kernel, no DMA. Inside a
//! phase the cores work on *disjoint* output ranges and read only data
//! produced before the phase started, so the memory result does not
//! depend on the interleaving of core cycles. The cluster exploits this:
//! it runs each core's kernel to completion in turn, lending the one
//! shared TCDM [`Memory`], which core 0's [`Machine`] holds, to the
//! active core ([`Machine::swap_memory`]). That gives byte-for-byte the
//! same final memory and per-core statistics a cycle-by-cycle lockstep
//! interleaving would produce, at single-core simulation speed. Both fast execution tiers
//! (micro-op and kernel-shortcut) therefore keep working unmodified per
//! core.
//!
//! Time is modelled on top: a phase costs the *slowest* core's cycles
//! plus its analytic banking-conflict stalls, then one barrier. The
//! whole-run wall clock is [`Cluster::latency_cycles`]; per-core work
//! is still exact per-mnemonic [`Stats`] on each machine.
//!
//! # Banking-conflict model
//!
//! The TCDM is word-interleaved across [`TcdmConfig::banks`] banks
//! (2 banks/core, the PULP ratio). Per phase, each core's memory-access
//! count `A_c` is derived from its per-mnemonic statistics delta (every
//! load, store, post-increment access and `pl.sdotsp` streaming load is
//! one TCDM access). With the phase lasting `L` cycles, a competing
//! core `o` occupies a given bank in a given cycle with probability
//! `A_o / (L·B)`, so core `c` loses
//!
//! ```text
//! stall_c = A_c · (Σ_{o≠c} A_o) / (B · L)
//! ```
//!
//! cycles to conflicts (integer arithmetic, deterministic). The model
//! is applied identically whether a core executed natively through a
//! kernel-shortcut region or per micro-op — the shortcut tier commits
//! exact per-mnemonic rows, which is all the model consumes.

use crate::error::{ExitReason, SimError};
use crate::fault::{FaultPlan, FaultRecord};
use crate::guard::{GuardReport, GuardSpec, GuardUnit};
use crate::machine::Machine;
use crate::mem::{MemImage, Memory};
use crate::program::Program;
use crate::stats::Stats;
use crate::uop::UopProgram;
use rnnasip_isa::MnemonicId;
use std::sync::Arc;

/// Mnemonics that perform one TCDM data access per retired instruction —
/// the input of the banking-conflict model.
const MEM_ACCESS_MNEMONICS: &[&str] = &[
    "lb",
    "lh",
    "lw",
    "lbu",
    "lhu",
    "sb",
    "sh",
    "sw",
    "p.lb!",
    "p.lh!",
    "p.lw!",
    "p.lbu!",
    "p.lhu!",
    "p.lb",
    "p.lh",
    "p.lw",
    "p.lbu",
    "p.lhu",
    "p.sb!",
    "p.sh!",
    "p.sw!",
    "pl.sdotsp",
    "pl.sdotsp.b",
];

/// One core's share of a phase: a program plus its micro-op translation
/// (with any verified kernel-shortcut regions installed) and the ABFT
/// guard specs of its matrix-vector regions.
#[derive(Clone, Debug)]
pub struct ClusterKernel {
    /// The phase program (ends in `ecall`).
    pub program: Arc<Program>,
    /// Its micro-op image, as produced by
    /// [`UopProgram::translate_with_shortcuts`] (or plain `translate`).
    pub uops: Arc<UopProgram>,
    /// Guard specs of the kernel's regions, armed by [`Cluster::set_guards`].
    pub guards: Arc<Vec<GuardSpec>>,
}

/// One barrier-delimited step of a cluster run: per-core kernels that
/// write disjoint ranges and read only pre-phase data. `None` means the
/// core idles through the phase (waiting at the barrier).
#[derive(Clone, Debug)]
pub struct ClusterPhase {
    /// Human-readable phase label (e.g. `"fc0"`, `"lstm step 3 gates"`).
    pub label: String,
    /// One entry per core, in core order.
    pub kernels: Vec<Option<ClusterKernel>>,
}

/// One DMA descriptor: copy `len` bytes from the L2 staging area into
/// the TCDM (both addresses in the shared memory's address space).
#[derive(Clone, Copy, Debug)]
pub struct DmaXfer {
    /// Source address (L2 staging area).
    pub src: u32,
    /// Destination address (TCDM working copy).
    pub dst: u32,
    /// Transfer length in bytes.
    pub len: u32,
}

/// A network partitioned for an N-core cluster: the DMA input staging
/// plan followed by the barrier-delimited phases. A single-core program
/// is one phase with one kernel and no DMA.
#[derive(Clone, Debug, Default)]
pub struct ClusterProgram {
    /// Number of cores the phases are laid out for.
    pub cores: usize,
    /// Input-staging transfers run before phase 0 of every inference.
    pub dma: Vec<DmaXfer>,
    /// The phases, in execution order.
    pub phases: Vec<ClusterPhase>,
}

impl ClusterProgram {
    /// Every kernel, phase by phase and core by core — the order a run
    /// executes them in and the order of a guard report's rows.
    pub fn kernels(&self) -> impl Iterator<Item = &ClusterKernel> {
        self.phases.iter().flat_map(|p| p.kernels.iter().flatten())
    }
}

/// Cluster timing parameters: TCDM banking, barrier and DMA costs.
#[derive(Clone, Copy, Debug)]
pub struct TcdmConfig {
    /// Word-interleaved TCDM banks (PULP default: 2 per core).
    pub banks: usize,
    /// Cycles every core spends converging at a phase barrier (event
    /// unit round trip). Charged once per phase when `cores > 1`.
    pub barrier_cycles: u64,
    /// Fixed cost to program one DMA descriptor.
    pub dma_startup_cycles: u64,
    /// DMA payload bytes moved per cycle (64-bit AXI beat).
    pub dma_bytes_per_cycle: u64,
}

impl TcdmConfig {
    /// The default configuration for an `cores`-core cluster.
    pub fn for_cores(cores: usize) -> Self {
        Self {
            banks: (2 * cores).max(1),
            barrier_cycles: 8,
            dma_startup_cycles: 16,
            dma_bytes_per_cycle: 8,
        }
    }
}

/// Per-core accounting the cluster accumulates on top of each machine's
/// own statistics.
#[derive(Clone, Copy, Debug, Default)]
struct LaneAccount {
    /// Analytic banking-conflict stall cycles charged to this core.
    conflict_stalls: u64,
    /// TCDM accesses counted so far (cache of the stats-derived total,
    /// so per-phase deltas need no re-scan).
    accesses: u64,
    /// Phase whose kernel this core holds: a core reloads only when its
    /// next kernel differs, so corrupted instruction slots survive.
    held: Option<usize>,
    /// This core's cycles in the current phase.
    phase_cycles: u64,
    /// This core's TCDM accesses in the current phase.
    phase_accesses: u64,
}

/// The simulated multi-core cluster: per-core machines running
/// barrier-delimited phases over one shared banked TCDM.
#[derive(Debug)]
pub struct Cluster {
    program: Arc<ClusterProgram>,
    cfg: TcdmConfig,
    /// One machine per core. Core 0's holds the shared banked TCDM (plus
    /// the L2 staging area at its top); another core borrows it for the
    /// length of its kernel.
    machines: Vec<Machine>,
    /// Memory-access mnemonic ids, resolved once.
    access_ids: Vec<MnemonicId>,
    lanes: Vec<LaneAccount>,
    /// The run-wide guard unit, lent to each core for its kernels.
    guards: Option<Box<GuardUnit>>,
    /// DMA copy staging, kept across runs.
    dma_scratch: Vec<u8>,
    dma_cycles: u64,
    barrier_cycles: u64,
    latency: u64,
    /// Core whose run last raised an error or applied a fault.
    last_faulted_core: Option<usize>,
}

impl Cluster {
    /// Builds a cluster for `program` around the shared memory `mem`,
    /// with the default [`TcdmConfig`] for the program's core count.
    pub fn new(program: Arc<ClusterProgram>, mem: Memory) -> Self {
        let cfg = TcdmConfig::for_cores(program.cores);
        let cores = program.cores.max(1);
        let mut machines = vec![Machine::with_memory(mem)];
        machines.extend((1..cores).map(|_| Machine::new(0)));
        let access_ids = MEM_ACCESS_MNEMONICS
            .iter()
            .filter_map(|name| MnemonicId::from_name(name))
            .collect();
        Self {
            program,
            cfg,
            machines,
            access_ids,
            lanes: vec![LaneAccount::default(); cores],
            guards: None,
            dma_scratch: Vec::new(),
            dma_cycles: 0,
            barrier_cycles: 0,
            latency: 0,
            last_faulted_core: None,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.machines.len()
    }

    /// The shared TCDM.
    pub fn mem(&self) -> &Memory {
        self.machines[0].mem()
    }

    /// Mutable shared TCDM (for staging inputs and reading outputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        self.machines[0].mem_mut()
    }

    /// Core `i`'s machine (per-core stats, registers, fault log).
    pub fn machine(&self, i: usize) -> &Machine {
        &self.machines[i]
    }

    /// Restores the shared TCDM from `image` (dirty blocks only) and
    /// resets every core, the guard verdicts and the cluster accounting
    /// for another run. Returns the number of memory bytes restored.
    pub fn rewind(&mut self, image: &MemImage) -> usize {
        let restored = self.mem_mut().restore_image(image);
        for m in &mut self.machines {
            m.clear_stats();
            m.reset_core();
        }
        for lane in &mut self.lanes {
            (lane.conflict_stalls, lane.accesses) = (0, 0);
        }
        if let Some(g) = &mut self.guards {
            g.reset_run();
        }
        self.dma_cycles = 0;
        self.barrier_cycles = 0;
        self.latency = 0;
        self.last_faulted_core = None;
        restored
    }

    /// Arms (or disarms) ABFT guards on every kernel (see
    /// [`GuardSpec`]): one unit for the whole run, its activation ledger
    /// shared by all cores, so a consumer's input check sees every core's
    /// producer slices. Guards are pure observers — outputs, cycles and
    /// per-mnemonic rows are untouched.
    pub fn set_guards(&mut self, on: bool) {
        self.guards = on.then(|| {
            let kernels = self.program.kernels().map(|k| (&k.guards, &*k.program));
            Box::new(GuardUnit::new(kernels))
        });
    }

    /// Whether ABFT guards are armed.
    pub fn guards_armed(&self) -> bool {
        self.guards.is_some()
    }

    /// The run's guard verdicts, one row per kernel spec in
    /// [`ClusterProgram::kernels`] order, closed by the final-output
    /// check: every ledger window overlapping the `halfwords` halfwords
    /// at `out` must still sum to what its producer recorded. `None`
    /// when unguarded.
    pub fn guard_report(&self, out: u32, halfwords: u32) -> Option<GuardReport> {
        let g = self.guards.as_deref()?;
        let mut report = g.report();
        report.output_check_failed = g.verify_range(self.mem(), out, halfwords) == Some(false);
        Some(report)
    }

    /// Records `halfwords` halfwords of the shared TCDM at `base` in the
    /// guard ledger — how an engine covers the window it patched a
    /// request into. No-op when unguarded.
    pub fn guard_note_range(&mut self, base: u32, halfwords: u32) {
        if let Some(g) = self.guards.as_deref_mut() {
            g.note_range(self.machines[0].mem(), base, halfwords);
        }
    }

    /// Arms a fault plan on core `core` (cleared by
    /// [`clear_faults`](Self::clear_faults); armed faults survive phase
    /// switches within a run).
    pub fn arm_faults(&mut self, plan: &FaultPlan, core: usize) {
        self.machines[core].arm_faults(plan);
    }

    /// Disarms pending faults on every core.
    pub fn clear_faults(&mut self) {
        for m in &mut self.machines {
            m.clear_faults();
        }
    }

    /// Faults applied on core `core` since its plan was armed.
    pub fn fault_log(&self, core: usize) -> &[FaultRecord] {
        self.machines[core].fault_log()
    }

    /// The core that raised the last run's error — or, for a completed
    /// run, the last core that applied an injected fault; `None` when
    /// neither happened.
    pub fn last_faulted_core(&self) -> Option<usize> {
        self.last_faulted_core
    }

    /// Analytic banking-conflict stall cycles charged to core `i` so far.
    pub fn conflict_stalls(&self, i: usize) -> u64 {
        self.lanes[i].conflict_stalls
    }

    /// Cycles the DMA engine spent staging inputs this run.
    pub fn dma_cycles(&self) -> u64 {
        self.dma_cycles
    }

    /// Cycles spent in phase barriers this run.
    pub fn barrier_cycles(&self) -> u64 {
        self.barrier_cycles
    }

    /// The cluster wall-clock latency of the last run: DMA staging plus,
    /// per phase, the slowest core (cycles + conflict stalls) plus the
    /// barrier.
    pub fn latency_cycles(&self) -> u64 {
        self.latency
    }

    /// Sum of all cores' per-mnemonic statistics (total work; its
    /// `cycles()` is core-cycles, not wall-clock — compare
    /// [`latency_cycles`](Self::latency_cycles)).
    pub fn merged_stats(&self) -> Stats {
        let mut total = Stats::new();
        for m in &self.machines {
            total.merge(m.stats());
        }
        total
    }

    fn accesses(&self, core: usize) -> u64 {
        let stats = self.machines[core].stats();
        self.access_ids
            .iter()
            .map(|&id| stats.row_id(id).instrs)
            .sum()
    }

    /// Runs the DMA plan, charging the engine's cycles, and seeds the
    /// guard ledger with every destination window.
    fn run_dma(&mut self) -> Result<(), SimError> {
        let mem = self.machines[0].mem_mut();
        // One shared engine: descriptors are processed serially.
        for &DmaXfer { src, dst, len } in &self.program.dma {
            self.dma_cycles +=
                self.cfg.dma_startup_cycles + u64::from(len).div_ceil(self.cfg.dma_bytes_per_cycle);
            self.dma_scratch.clear();
            self.dma_scratch
                .extend_from_slice(mem.byte_slice(src, len as usize)?);
            mem.write_bytes(dst, &self.dma_scratch)?;
            if let Some(g) = self.guards.as_deref_mut() {
                g.note_range(mem, dst, len / 2);
            }
        }
        Ok(())
    }

    /// Runs core `c` through kernel `k` of phase `p`, lending it the
    /// shared TCDM and the guard unit for the duration.
    fn run_kernel(
        &mut self,
        c: usize,
        p: usize,
        k: &ClusterKernel,
        max_cycles: u64,
        stepping: bool,
    ) -> Result<ExitReason, SimError> {
        let (owner, rest) = self.machines.split_at_mut(c);
        let m = &mut rest[0];
        if self.lanes[c].held == Some(p) {
            m.restart();
        } else {
            m.load_phase_program(&k.program, &k.uops);
            self.lanes[c].held = Some(p);
        }
        if let Some(owner) = owner.first_mut() {
            m.swap_memory(owner.mem_mut());
        }
        m.swap_guards(&mut self.guards);
        let result = if stepping {
            m.run_stepping(max_cycles)
        } else {
            m.run(max_cycles)
        };
        m.swap_guards(&mut self.guards);
        if let Some(owner) = owner.first_mut() {
            m.swap_memory(owner.mem_mut());
        }
        result
    }

    /// Runs every phase to completion. `max_cycles` bounds each core's
    /// *cumulative* cycle counter across the whole run (the same
    /// absolute-budget semantics as [`Machine::run`]).
    ///
    /// # Errors
    ///
    /// Any error a core raises is propagated after recording the core in
    /// [`last_faulted_core`](Self::last_faulted_core); the shared memory
    /// is always handed back first.
    pub fn run(&mut self, max_cycles: u64) -> Result<ExitReason, SimError> {
        self.run_with(max_cycles, false)
    }

    /// [`run`](Self::run) with a tier selector: `stepping` drives every
    /// core through [`Machine::run_stepping`] (the reference path, one
    /// instruction at a time) instead of the bulk and shortcut tiers.
    pub fn run_with(&mut self, max_cycles: u64, stepping: bool) -> Result<ExitReason, SimError> {
        self.last_faulted_core = None;
        self.run_dma()?;
        self.latency += self.dma_cycles;
        let cores = self.machines.len();
        let banks = self.cfg.banks.max(1) as u64;
        let program = Arc::clone(&self.program);
        let mut kernel_no = 0;
        for (p, phase) in program.phases.iter().enumerate() {
            // Advance every participating core through its kernel.
            for (c, kernel) in phase.kernels.iter().enumerate() {
                self.lanes[c].phase_cycles = 0;
                self.lanes[c].phase_accesses = 0;
                let Some(k) = kernel else { continue };
                if let Some(g) = self.guards.as_deref_mut() {
                    g.select(kernel_no);
                }
                kernel_no += 1;
                let cycles_before = self.machines[c].core().cycle;
                let result = self.run_kernel(c, p, k, max_cycles, stepping);
                if !self.machines[c].fault_log().is_empty() {
                    self.last_faulted_core = Some(c);
                }
                match result {
                    Ok(ExitReason::Ecall) => {}
                    // An ebreak stops the whole cluster, like a halt.
                    Ok(ExitReason::Ebreak) => return Ok(ExitReason::Ebreak),
                    Err(e) => {
                        self.last_faulted_core = Some(c);
                        return Err(e);
                    }
                }
                let total = self.accesses(c);
                let lane = &mut self.lanes[c];
                lane.phase_cycles = self.machines[c].core().cycle - cycles_before;
                lane.phase_accesses = total - lane.accesses;
                lane.accesses = total;
            }
            // Charge analytic banking-conflict stalls and close the
            // phase with a barrier.
            let busiest = self.lanes.iter().map(|l| l.phase_cycles).max().unwrap_or(0);
            let all_accesses: u64 = self.lanes.iter().map(|l| l.phase_accesses).sum();
            let mut slowest = 0u64;
            for lane in &mut self.lanes {
                let others = all_accesses - lane.phase_accesses;
                let stall = if busiest == 0 {
                    0
                } else {
                    (u128::from(lane.phase_accesses) * u128::from(others)
                        / (u128::from(banks) * u128::from(busiest))) as u64
                };
                lane.conflict_stalls += stall;
                slowest = slowest.max(lane.phase_cycles + stall);
            }
            self.latency += slowest;
            if cores > 1 {
                self.latency += self.cfg.barrier_cycles;
                self.barrier_cycles += self.cfg.barrier_cycles;
            }
        }
        Ok(ExitReason::Ecall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnasip_isa::{AluImmOp, Instr, Reg, StoreOp};

    fn store_prog(addr: i32, value: i32) -> ClusterKernel {
        let program = Program::from_instrs(
            0,
            vec![
                Instr::OpImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A0,
                    rs1: Reg::ZERO,
                    imm: value,
                },
                Instr::Store {
                    op: StoreOp::Sw,
                    rs2: Reg::A0,
                    rs1: Reg::ZERO,
                    offset: addr,
                },
                Instr::Ecall,
            ],
        );
        let uops = Arc::new(UopProgram::translate(&program));
        ClusterKernel {
            program: Arc::new(program),
            uops,
            guards: Arc::default(),
        }
    }

    #[test]
    fn two_cores_share_one_memory_across_phases() {
        let prog = ClusterProgram {
            cores: 2,
            dma: vec![DmaXfer {
                src: 128,
                dst: 0,
                len: 4,
            }],
            phases: vec![
                ClusterPhase {
                    label: "p0".into(),
                    kernels: vec![Some(store_prog(16, 7)), Some(store_prog(20, 9))],
                },
                ClusterPhase {
                    label: "p1".into(),
                    kernels: vec![None, Some(store_prog(24, 11))],
                },
            ],
        };
        let mut mem = Memory::new(256);
        mem.write_u32(128, 0xABCD_1234).unwrap();
        let mut cluster = Cluster::new(Arc::new(prog), mem);
        let exit = cluster.run(10_000).unwrap();
        assert_eq!(exit, ExitReason::Ecall);
        // DMA staged the input window.
        assert_eq!(cluster.mem().read_u32(0).unwrap(), 0xABCD_1234);
        // Both cores' phase writes landed in the one shared memory.
        assert_eq!(cluster.mem().read_u32(16).unwrap(), 7);
        assert_eq!(cluster.mem().read_u32(20).unwrap(), 9);
        assert_eq!(cluster.mem().read_u32(24).unwrap(), 11);
        // DMA cost: startup 16 + ceil(4/8) = 17; two barriers of 8.
        assert_eq!(cluster.dma_cycles(), 17);
        assert_eq!(cluster.barrier_cycles(), 16);
        // Each phase costs the slowest core; conflict stalls are zero at
        // these tiny access counts (3·3 / (4·L) rounds to zero).
        let per_phase = cluster.machine(0).core().cycle;
        assert!(cluster.latency_cycles() >= 17 + 16 + per_phase);
        // Idle core 0 retired nothing in phase 1.
        assert_eq!(
            cluster.machine(0).core().instret + 3,
            cluster.machine(1).core().instret
        );
    }

    #[test]
    fn rewind_resets_cores_accounting_and_memory() {
        let prog = ClusterProgram {
            cores: 1,
            dma: Vec::new(),
            phases: vec![ClusterPhase {
                label: "p0".into(),
                kernels: vec![Some(store_prog(32, 5))],
            }],
        };
        let mem = Memory::new(256);
        let image = mem.image();
        let mut cluster = Cluster::new(Arc::new(prog), mem);
        cluster.mem_mut().load_image(&image);
        cluster.run(1_000).unwrap();
        let first_latency = cluster.latency_cycles();
        assert_eq!(cluster.mem().read_u32(32).unwrap(), 5);
        assert!(first_latency > 0);
        cluster.rewind(&image);
        assert_eq!(cluster.mem().read_u32(32).unwrap(), 0);
        assert_eq!(cluster.latency_cycles(), 0);
        assert_eq!(cluster.machine(0).core().cycle, 0);
        cluster.run(1_000).unwrap();
        assert_eq!(cluster.latency_cycles(), first_latency, "deterministic");
        assert_eq!(cluster.mem().read_u32(32).unwrap(), 5);
    }

    #[test]
    fn single_core_latency_equals_machine_cycles() {
        let prog = ClusterProgram {
            cores: 1,
            dma: Vec::new(),
            phases: vec![ClusterPhase {
                label: "p0".into(),
                kernels: vec![Some(store_prog(32, 5))],
            }],
        };
        let mut cluster = Cluster::new(Arc::new(prog), Memory::new(256));
        cluster.run(1_000).unwrap();
        assert_eq!(cluster.latency_cycles(), cluster.machine(0).core().cycle);
        assert_eq!(cluster.conflict_stalls(0), 0);
        assert_eq!(cluster.dma_cycles(), 0);
        assert_eq!(cluster.barrier_cycles(), 0);
    }

    #[test]
    fn conflict_stalls_follow_the_analytic_model() {
        // Two cores, each storing N words in a straight line: accesses
        // are known exactly, so the stall charge is checkable by hand.
        let n = 64;
        let mk = |base: i32| {
            let mut instrs = vec![Instr::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 1,
            }];
            for k in 0..n {
                instrs.push(Instr::Store {
                    op: StoreOp::Sw,
                    rs2: Reg::A0,
                    rs1: Reg::ZERO,
                    offset: base + 4 * k,
                });
            }
            instrs.push(Instr::Ecall);
            let p = Program::from_instrs(0, instrs);
            let u = Arc::new(UopProgram::translate(&p));
            ClusterKernel {
                program: Arc::new(p),
                uops: u,
                guards: Arc::default(),
            }
        };
        let prog = ClusterProgram {
            cores: 2,
            dma: Vec::new(),
            phases: vec![ClusterPhase {
                label: "p0".into(),
                kernels: vec![Some(mk(256)), Some(mk(1024))],
            }],
        };
        let mut cluster = Cluster::new(Arc::new(prog), Memory::new(4096));
        cluster.run(100_000).unwrap();
        // Each core: 64 stores; phase length L = per-core cycles
        // (identical programs); banks B = 4.
        let l = cluster.machine(0).core().cycle;
        let expect = (64u64 * 64) / (4 * l);
        assert_eq!(cluster.conflict_stalls(0), expect);
        assert_eq!(cluster.conflict_stalls(1), expect);
        // Latency = slowest core + stalls + one barrier.
        assert_eq!(cluster.latency_cycles(), l + expect + 8);
    }
}
