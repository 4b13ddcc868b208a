//! The simulation engine: fetch, execute, time, account.

use crate::core_state::{Core, HwLoop};
use crate::error::{ExitReason, SimError};
use crate::fault::{Fault, FaultEffect, FaultPlan, FaultRecord, FaultSite};
use crate::guard::{GuardReport, GuardSpec, GuardUnit};
use crate::mem::{MemImage, Memory};
use crate::program::Program;
use crate::shortcut::{read_load, ExitVal, ShortcutRegion};
use crate::stats::Stats;
use crate::uop::{
    splat, LoopExit, Target, UnaryOp, Uop, UopKind, UopProgram, NO_BODY, NO_IDX, NO_RUN, NO_SC,
};
use rnnasip_isa::{
    AluImmOp, AluOp, BranchOp, Csr, DotOp, Instr, LoadOp, MnemonicId, MulDivOp, PvAluOp, Reg,
    SimdSize, StoreOp,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Result of a single [`Machine::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired; execution continues.
    Continue,
    /// The program halted (`ecall`/`ebreak`).
    Halted(ExitReason),
}

/// Outcome of one micro-op step inside [`Machine::run`].
enum UStep {
    /// One instruction retired; at most `MAX_CYCLES_PER_STEP` consumed.
    Cont,
    /// A bulk run advanced the cycle counter by more than one step's
    /// worth; the run loop must re-derive its watchdog block.
    Bulk,
    /// The program halted.
    Halt(ExitReason),
}

/// Control-flow result of a micro-op's data semantics
/// ([`Machine::exec_uop`]); the retire bookkeeping maps it to the next
/// PC/index and the taken-branch cycle.
enum Flow {
    /// Fall through to the next micro-op.
    Fall,
    /// Redirect to a (pre- or run-time-resolved) target.
    Jump(Target),
    /// `ecall`/`ebreak`.
    Halt(ExitReason),
}

/// How control reached a loop body's first op, for
/// [`Machine::run_loop_body`].
#[derive(Clone, Copy)]
enum LoopEntry {
    /// Hardware loop `level` just jumped back — or, with `top`, its
    /// `lp.setup` just armed it and iteration 0 is next.
    Hw { level: usize, top: bool },
    /// A branch-closed body's closing branch was just taken.
    Branch,
}

/// Upper bound on the cycles one [`Machine::step`] can consume, used by
/// [`Machine::run`] to size watchdog-check-free blocks.
///
/// The true worst case is `1 + DIV_EXTRA_CYCLES + 1` (base cycle, serial
/// divide, load-use bubble) = 33; a power-of-two bound above it keeps the
/// block arithmetic a shift and leaves headroom if a costlier instruction
/// is ever modelled.
const MAX_CYCLES_PER_STEP: u64 = 64;

/// Per-entry buffers of the shortcut tier.
#[derive(Debug, Default)]
struct ShortcutScratch {
    /// The region's stores, `(address, value)` in store order.
    outs: Vec<(u32, i32)>,
    /// Exit register values.
    regs: Vec<(Reg, u32)>,
    /// Exit SPR slot contents (`None` = untouched).
    spr: [Option<u32>; 2],
    /// SPR writes still in flight at exit: `(issue instret, slot, data)`.
    pend: Vec<(u64, usize, u32)>,
}

/// The simulated machine: core + memory + loaded program + statistics.
///
/// See the [crate docs](crate) for the timing model. Construct with
/// [`Machine::new`], load a [`Program`] and data, then [`run`](Self::run).
#[derive(Debug)]
pub struct Machine {
    core: Core,
    mem: Memory,
    /// The loaded program. `Arc`-shared so cluster phase switches cost a
    /// reference count, not a copy; only fault-injected instruction
    /// patching clones it (copy-on-write via [`Arc::make_mut`]).
    program: Arc<Program>,
    /// The program lowered to micro-ops — [`Machine::run`]'s execution
    /// format. `Arc`-shared so a compiled artifact can hand one
    /// translation to any number of machines.
    uops: Arc<UopProgram>,
    stats: Stats,
    /// Destination of the immediately preceding load, for the load-use
    /// stall rule, with the mnemonic the stall is attributed to.
    pending_load: Option<(Reg, MnemonicId)>,
    /// SPR writes in flight: (instruction index at issue, SPR index, data).
    spr_pending: VecDeque<(u64, usize, u32)>,
    halted: Option<ExitReason>,
    /// Instructions retired through the bulk block runners (loop bodies
    /// and straight-line runs), for coverage diagnostics. One addition
    /// per bulk entry, not per op.
    bulk_instrs: u64,
    /// Instructions retired through installed kernel-shortcut regions
    /// (the native execution tier), for coverage diagnostics. One
    /// addition per region entry, not per op.
    shortcut_instrs: u64,
    /// Scratch buffers of the shortcut tier, kept across entries so an
    /// entry allocates nothing.
    shortcut_scratch: ShortcutScratch,
    /// Scheduled faults not yet applied, in `at_instret` order.
    armed_faults: VecDeque<Fault>,
    /// Forced watchdog budget from the armed [`FaultPlan`], capping the
    /// budget of every run until cleared.
    forced_watchdog: Option<u64>,
    /// Faults applied since the plan was armed.
    fault_log: Vec<FaultRecord>,
    /// Instruction addresses corrupted into invalid encodings; fetching
    /// one raises [`SimError::FetchFault`]. Persists across
    /// [`rewind`](Self::rewind) — program corruption is only healed by
    /// reloading the program.
    corrupted_pcs: Vec<u32>,
    /// Armed ABFT region guards (see [`arm_guards`](Self::arm_guards)),
    /// `None` when unguarded — the common case, so the hot loop pays one
    /// pointer test.
    guards: Option<Box<GuardUnit>>,
    /// Set while the stepping loop runs: every bulk runner and the
    /// shortcut tier decline (see [`bulk_ok`](Self::bulk_ok)).
    stepping: bool,
}

impl Machine {
    /// Creates a machine with `mem_size` bytes of zeroed TCDM and no
    /// program.
    pub fn new(mem_size: usize) -> Self {
        Self::with_memory(Memory::new(mem_size))
    }

    /// Creates a machine around an existing memory (e.g. one built with
    /// [`Memory::from_image`]) and no program.
    pub fn with_memory(mem: Memory) -> Self {
        Self {
            core: Core::new(0),
            mem,
            program: Arc::new(Program::default()),
            uops: Arc::new(UopProgram::default()),
            stats: Stats::new(),
            pending_load: None,
            spr_pending: VecDeque::new(),
            halted: None,
            bulk_instrs: 0,
            shortcut_instrs: 0,
            shortcut_scratch: ShortcutScratch::default(),
            armed_faults: VecDeque::new(),
            forced_watchdog: None,
            fault_log: Vec::new(),
            corrupted_pcs: Vec::new(),
            guards: None,
            stepping: false,
        }
    }

    /// Instructions retired through the specialized block runners rather
    /// than the generic per-op path, cumulative since construction.
    ///
    /// Unlike [`shortcut_instrs`](Self::shortcut_instrs), this counter
    /// is *not* cleared by [`rewind`](Self::rewind) or
    /// [`clear_stats`](Self::clear_stats), so after warm reruns it can
    /// exceed `core().instret`. One run's bulk coverage — the main
    /// diagnostic for micro-op-path throughput — is the delta across the
    /// run divided by that run's `instret`.
    pub fn bulk_instrs(&self) -> u64 {
        self.bulk_instrs
    }

    /// Instructions retired through installed kernel-shortcut regions
    /// (the native execution tier). Cleared with the statistics
    /// ([`rewind`](Self::rewind) / [`clear_stats`](Self::clear_stats)),
    /// so after a warm engine run it reflects that run alone. Zero
    /// whenever the tier is disarmed — armed faults, tracing, or a
    /// program with no verifiable kernel regions.
    pub fn shortcut_instrs(&self) -> u64 {
        self.shortcut_instrs
    }

    /// Rewinds the machine for another run of the loaded program:
    /// restores memory from `image` (dirty blocks only — see
    /// [`Memory::restore_image`]), clears the accumulated statistics and
    /// resets the core to the program entry. Returns the number of
    /// memory bytes restored.
    ///
    /// After a `rewind`, a [`run`](Self::run) is bit-identical to the
    /// first run from a freshly image-loaded machine, provided `image`
    /// is the snapshot this machine last started from.
    ///
    /// # Panics
    ///
    /// Panics if the image size differs from the memory size.
    pub fn rewind(&mut self, image: &MemImage) -> usize {
        let restored = self.mem.restore_image(image);
        self.stats.clear();
        self.shortcut_instrs = 0;
        if let Some(g) = &mut self.guards {
            g.reset_run();
        }
        self.reset_core();
        restored
    }

    /// Loads a program and resets the core to its entry point.
    ///
    /// The program is lowered to micro-ops here, once; [`run`](Self::run)
    /// executes the lowered form. Memory contents and accumulated
    /// statistics are preserved, so data can be staged before or after
    /// loading code.
    pub fn load_program(&mut self, program: &Program) {
        self.load_program_shared(program, Arc::new(UopProgram::translate(program)));
    }

    /// Loads a program together with an already-translated micro-op
    /// image, skipping re-translation — the compile-once/run-many path
    /// used by engines that instantiate several machines from one
    /// compiled artifact.
    ///
    /// `uops` must be [`UopProgram::translate`]\(`program`\) (or a clone
    /// of the `Arc` another machine got from the same program); anything
    /// else breaks the PC ↔ micro-op correspondence `run` relies on.
    pub fn load_program_shared(&mut self, program: &Program, uops: Arc<UopProgram>) {
        debug_assert_eq!(
            uops.len(),
            program.len(),
            "micro-op image must be the translation of the loaded program"
        );
        self.program = Arc::new(program.clone());
        self.uops = uops;
        self.clear_faults();
        self.corrupted_pcs.clear();
        // Guard boundary indices belong to the replaced program.
        self.guards = None;
        self.reset_core();
    }

    /// Switches to the next phase program of a partitioned (cluster)
    /// run **without** disturbing the run in progress: the cycle and
    /// retired-instruction counters, accumulated statistics, and any
    /// armed faults all carry over, while the control state (PC to the
    /// new entry, registers, pending load / SPR pipeline, halt flag) is
    /// reset as a real barrier-and-dispatch would leave it.
    ///
    /// Contrast [`load_program_shared`](Self::load_program_shared),
    /// which starts a machine over from scratch. Both take a shared
    /// micro-op image; here the program is also taken by `Arc`, so a
    /// phase switch is two reference-count bumps.
    ///
    /// Instruction slots corrupted by an earlier fault belong to the
    /// previous phase's program and are dropped with it.
    pub fn load_phase_program(&mut self, program: &Arc<Program>, uops: &Arc<UopProgram>) {
        debug_assert_eq!(
            uops.len(),
            program.len(),
            "micro-op image must be the translation of the loaded program"
        );
        self.program = Arc::clone(program);
        self.uops = Arc::clone(uops);
        self.corrupted_pcs.clear();
        self.restart();
    }

    /// Re-dispatches the loaded program: control state reset as by
    /// [`load_phase_program`](Self::load_phase_program), everything else
    /// — corrupted instruction slots included — kept.
    pub fn restart(&mut self) {
        let (cycle, instret) = (self.core.cycle, self.core.instret);
        self.reset_core();
        self.core.cycle = cycle;
        self.core.instret = instret;
    }

    /// Exchanges this machine's data memory with `other`.
    ///
    /// This is the cluster's core-multiplexing primitive: one shared
    /// TCDM [`Memory`] is swapped into whichever core's machine is
    /// advancing through the current phase, so all cores observe (and
    /// dirty-track) the same bytes without copying.
    pub fn swap_memory(&mut self, other: &mut Memory) {
        std::mem::swap(&mut self.mem, other);
    }

    /// The loaded program's micro-op translation (shareable via
    /// [`load_program_shared`](Self::load_program_shared)).
    pub fn uop_program(&self) -> &Arc<UopProgram> {
        &self.uops
    }

    /// Resets the architectural core state (PC to program entry, registers
    /// and micro-architectural state cleared). Memory and statistics are
    /// untouched.
    pub fn reset_core(&mut self) {
        self.core = Core::new(self.program.entry());
        self.pending_load = None;
        self.spr_pending.clear();
        self.halted = None;
    }

    /// The architectural state.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable architectural state (e.g. to pass kernel arguments in
    /// registers before running).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory (for staging inputs and reading back outputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The decoded instruction at `addr`, if the loaded program has one.
    pub fn fetch_instr(&self, addr: u32) -> Option<Instr> {
        self.program.fetch(addr).map(|item| item.instr)
    }

    /// Clears the accumulated statistics (including the shortcut-tier
    /// retire counter).
    pub fn clear_stats(&mut self) {
        self.stats.clear();
        self.shortcut_instrs = 0;
        if let Some(g) = &mut self.guards {
            g.reset_run();
        }
    }

    /// Arms ABFT checksum guards for the loaded program's kernel regions:
    /// from now on every run verifies each region's exit (see
    /// [`GuardSpec`]) and [`guard_report`](Self::guard_report)
    /// snapshots the verdicts. Guards are pure observers — outputs,
    /// cycles, `instret` and per-mnemonic rows are untouched — but they
    /// disable the bulk block runners (a host-throughput cost only; the
    /// kernel-shortcut tier stays armed, its entries checked the same
    /// way). Call **after** the program is loaded; region boundaries are
    /// resolved against the current micro-op image.
    pub fn arm_guards(&mut self, specs: Arc<Vec<GuardSpec>>) {
        self.guards = Some(Box::new(GuardUnit::new([(&specs, &*self.program)])));
    }

    /// Snapshot of the current run's guard verdicts, `None` when no
    /// guards are armed. A guard still pending mid-region (the run
    /// halted or faulted inside it) counts as a failed exit.
    pub fn guard_report(&self) -> Option<GuardReport> {
        self.guards.as_ref().map(|g| g.report())
    }

    /// Exchanges this machine's guard unit with `other` — how a cluster
    /// lends its one run-wide unit to the core about to execute.
    pub(crate) fn swap_guards(&mut self, other: &mut Option<Box<GuardUnit>>) {
        std::mem::swap(&mut self.guards, other);
    }

    /// Arms a fault plan: replaces any pending faults with the plan's
    /// (sorted by trigger `instret`), installs its forced watchdog and
    /// clears the fault log.
    ///
    /// Armed faults survive [`reset_core`](Self::reset_core) and
    /// [`rewind`](Self::rewind) — a plan armed before a run fires during
    /// that run even though the engine rewinds first. They are cleared
    /// by [`clear_faults`](Self::clear_faults) or by loading a program.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        let mut faults = plan.faults.clone();
        faults.sort_by_key(|f| f.at_instret);
        self.armed_faults = faults.into();
        self.forced_watchdog = plan.watchdog;
        self.fault_log.clear();
    }

    /// Disarms pending faults and the forced watchdog, and clears the
    /// fault log. Does *not* undo damage already applied: flipped
    /// memory/register bits and corrupted instruction slots persist
    /// until state is restored or the program reloaded.
    pub fn clear_faults(&mut self) {
        self.armed_faults.clear();
        self.forced_watchdog = None;
        self.fault_log.clear();
    }

    /// Faults applied since the current plan was armed, in application
    /// order.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// Whether the bulk block runners and the shortcut tier may engage:
    /// false while fault state (pending faults or corrupted instruction
    /// slots) is live and while the stepping loop runs. Exposed for
    /// diagnostics; the generic per-op path is bit-identical, so this
    /// only affects host-side throughput.
    pub fn bulk_ok(&self) -> bool {
        self.armed_faults.is_empty() && self.corrupted_pcs.is_empty() && !self.stepping
    }

    /// The run budget after applying the armed plan's forced watchdog.
    #[inline]
    fn effective_budget(&self, max_cycles: u64) -> u64 {
        match self.forced_watchdog {
            Some(w) => w.min(max_cycles),
            None => max_cycles,
        }
    }

    /// Applies every armed fault whose trigger `instret` has been
    /// reached, recording each application.
    fn apply_due_faults(&mut self) {
        while let Some(&f) = self.armed_faults.front() {
            if f.at_instret > self.core.instret {
                break;
            }
            self.armed_faults.pop_front();
            let effect = self.apply_fault(f.site);
            self.fault_log.push(FaultRecord {
                fault: f,
                pc: self.core.pc,
                cycle: self.core.cycle,
                instret: self.core.instret,
                effect,
            });
        }
    }

    fn apply_fault(&mut self, site: FaultSite) -> FaultEffect {
        match site {
            FaultSite::MemBit { addr, bit, silent } => {
                if self.mem.flip_bit(addr, bit, silent) {
                    FaultEffect::FlippedMem { addr, silent }
                } else {
                    FaultEffect::NoTarget
                }
            }
            FaultSite::RegBit { reg, bit } => {
                if reg.is_zero() {
                    return FaultEffect::NoTarget;
                }
                let v = self.core.reg(reg) ^ (1 << (bit & 31));
                self.core.set_reg(reg, v);
                FaultEffect::FlippedReg { reg }
            }
            FaultSite::InstrBit { pc, bit } => self.corrupt_instr(pc, bit),
        }
    }

    /// Flips one bit of the encoded instruction at `pc` and re-decodes
    /// the corrupted word with the same-width decoder. A still-valid
    /// encoding is patched into the program (and the micro-op image
    /// retranslated); an invalid one — or a width-class change, which
    /// would shift every following instruction — turns the slot into a
    /// permanent fetch fault instead.
    fn corrupt_instr(&mut self, pc: u32, bit: u32) -> FaultEffect {
        if self.corrupted_pcs.contains(&pc) {
            return FaultEffect::NoTarget;
        }
        let Some(item) = self.program.fetch(pc).copied() else {
            return FaultEffect::NoTarget;
        };
        let patched = if item.size == 2 {
            match rnnasip_isa::compress(&item.instr) {
                Some(half) => {
                    let flipped = half ^ (1 << (bit & 15));
                    if rnnasip_isa::is_compressed(flipped) {
                        rnnasip_isa::decode_compressed(flipped).ok()
                    } else {
                        None
                    }
                }
                None => return FaultEffect::NoTarget,
            }
        } else {
            let flipped = rnnasip_isa::encode(&item.instr) ^ (1 << (bit & 31));
            if rnnasip_isa::is_compressed(flipped as u16) {
                None
            } else {
                rnnasip_isa::decode(flipped).ok()
            }
        };
        match patched {
            Some(instr) => {
                Arc::make_mut(&mut self.program).patch(pc, instr);
                self.uops = Arc::new(UopProgram::translate(&self.program));
                FaultEffect::PatchedInstr { pc }
            }
            None => {
                self.corrupted_pcs.push(pc);
                FaultEffect::RemovedInstr { pc }
            }
        }
    }

    /// Runs until the program halts via `ecall`/`ebreak`.
    ///
    /// Execution is driven off the pre-decoded micro-op array built by
    /// [`load_program`](Self::load_program): the hot loop tracks the
    /// micro-op *index* alongside the PC, so sequential flow is an index
    /// increment and direct jumps use their pre-resolved target index.
    /// Straight-line loop bodies recognized at translation time — closed
    /// by a hardware loop or by a backward branch — run through a
    /// specialized block runner that executes only data semantics per
    /// iteration and accounts cycles and statistics in bulk. Everything
    /// observable — cycle counts, per-mnemonic rows, trace-visible
    /// state, fault points — is bit-identical to the stepping reference
    /// [`run_stepping`](Self::run_stepping).
    ///
    /// Steps are executed in watchdog-check-free blocks: while the cycle
    /// budget left exceeds `block · MAX_CYCLES_PER_STEP`, no step in the
    /// block can push the counter past `max_cycles`, so the per-step
    /// budget comparison (and the halted re-check it guards) is hoisted
    /// out of the hot loop. Once the budget gets close the loop falls
    /// back to per-step checking, making the watchdog fire on exactly
    /// the same cycle as the naive step-and-check loop. A bulk loop run
    /// never overshoots: its iteration count is capped by the remaining
    /// budget, and the block size is re-derived right after it.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] if `max_cycles` elapse first, or any
    /// fetch/memory error raised by the program.
    pub fn run(&mut self, max_cycles: u64) -> Result<ExitReason, SimError> {
        let max_cycles = self.effective_budget(max_cycles);
        if let Some(reason) = self.halted {
            return Ok(reason);
        }
        // Fault mode: while faults are pending (`bulk_ok` false), step
        // until the queue drains, then take the fast loop.
        if let Some(reason) = self.step_loop(max_cycles, true, |_, _| {})? {
            return Ok(reason);
        }
        let uops = Arc::clone(&self.uops);
        let mut idx = self.pc_index();
        loop {
            let remaining = max_cycles.saturating_sub(self.core.cycle);
            let mut block = remaining / MAX_CYCLES_PER_STEP;
            if block == 0 {
                match self.uop_step(&uops, &mut idx, max_cycles)? {
                    UStep::Halt(reason) => return Ok(reason),
                    UStep::Cont | UStep::Bulk => {
                        if self.core.cycle > max_cycles {
                            return Err(SimError::Watchdog { max_cycles });
                        }
                    }
                }
            } else {
                while block > 0 {
                    match self.uop_step(&uops, &mut idx, max_cycles)? {
                        UStep::Halt(reason) => return Ok(reason),
                        // The cycle counter jumped by a whole loop run;
                        // leave the inner loop to re-size the block.
                        UStep::Bulk => break,
                        UStep::Cont => block -= 1,
                    }
                }
            }
        }
    }

    /// The reference run: identical contract to [`run`](Self::run), but
    /// every instruction retires alone through the generic micro-op step
    /// — no bulk runner, no shortcut region — with the watchdog checked
    /// after every retire. The differential tests compare the fast tiers
    /// against it; guards and faults behave exactly as in `run`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_stepping(&mut self, max_cycles: u64) -> Result<ExitReason, SimError> {
        self.run_stepping_with(max_cycles, |_, _| {})
    }

    /// [`run_stepping`](Self::run_stepping), calling `on_retire(self, pc)`
    /// after every retired instruction (`pc` is its address).
    pub(crate) fn run_stepping_with(
        &mut self,
        max_cycles: u64,
        on_retire: impl FnMut(&Self, u32),
    ) -> Result<ExitReason, SimError> {
        let max_cycles = self.effective_budget(max_cycles);
        if let Some(reason) = self.halted {
            return Ok(reason);
        }
        self.stepping = true;
        let result = self.step_loop(max_cycles, false, on_retire);
        self.stepping = false;
        result.map(|r| r.expect("the stepping loop ends only at a halt or an error"))
    }

    /// Executes one instruction through the generic micro-op step, as
    /// [`run_stepping`](Self::run_stepping) does: due faults strike
    /// first, then the op retires alone. No watchdog applies.
    ///
    /// # Errors
    ///
    /// Fetch faults, memory faults, or hardware-loop misconfiguration.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        if let Some(reason) = self.halted {
            return Ok(StepOutcome::Halted(reason));
        }
        self.apply_due_faults();
        let uops = Arc::clone(&self.uops);
        let mut idx = self.pc_index();
        self.stepping = true;
        let step = self.uop_step(&uops, &mut idx, u64::MAX);
        self.stepping = false;
        Ok(match step? {
            UStep::Halt(reason) => StepOutcome::Halted(reason),
            UStep::Cont | UStep::Bulk => StepOutcome::Continue,
        })
    }

    /// The stepping loop: one [`uop_step`](Self::uop_step) per
    /// iteration, due faults applied at each instruction boundary and
    /// the watchdog checked after every retire. With `while_armed` it
    /// returns `Ok(None)` as soon as no fault is pending — `run`'s
    /// fault-mode prefix; otherwise it runs to a halt or an error.
    fn step_loop(
        &mut self,
        max_cycles: u64,
        while_armed: bool,
        mut on_retire: impl FnMut(&Self, u32),
    ) -> Result<Option<ExitReason>, SimError> {
        let mut uops = Arc::clone(&self.uops);
        let mut idx = self.pc_index();
        while !(while_armed && self.armed_faults.is_empty()) {
            if !self.armed_faults.is_empty() {
                self.apply_due_faults();
                // An instruction flip retranslates the micro-op image
                // (instruction sizes, hence indices, are unchanged).
                if !Arc::ptr_eq(&uops, &self.uops) {
                    uops = Arc::clone(&self.uops);
                }
            }
            let pc = self.core.pc;
            let step = self.uop_step(&uops, &mut idx, max_cycles)?;
            on_retire(self, pc);
            if let UStep::Halt(reason) = step {
                return Ok(Some(reason));
            }
            if self.core.cycle > max_cycles {
                return Err(SimError::Watchdog { max_cycles });
            }
        }
        Ok(None)
    }

    /// The micro-op index of the current PC ([`NO_IDX`] when it does not
    /// start an instruction).
    fn pc_index(&self) -> u32 {
        self.program
            .index_of(self.core.pc)
            .map_or(NO_IDX, |i| i as u32)
    }

    /// Executes one micro-op — the simulator's only per-instruction
    /// semantics — or, where one starts here and [`bulk_ok`](Self::bulk_ok)
    /// holds, a whole shortcut region, straight run or loop-body run.
    ///
    /// `idx` is the micro-op index of the current PC (or [`NO_IDX`] when
    /// the PC does not start an instruction), maintained across calls so
    /// the common case never consults the fetch table.
    fn uop_step(
        &mut self,
        uops: &UopProgram,
        idx: &mut u32,
        max_cycles: u64,
    ) -> Result<UStep, SimError> {
        if !self.spr_pending.is_empty() {
            self.drain_spr();
        }

        // An instruction slot corrupted into an invalid encoding fetch-
        // faults exactly where `step` would (after SPR drain, before the
        // load-use stall charge).
        if !self.corrupted_pcs.is_empty() && self.corrupted_pcs.contains(&self.core.pc) {
            return Err(SimError::FetchFault { pc: self.core.pc });
        }

        let Some(&u) = uops.uops.get(*idx as usize) else {
            return Err(SimError::FetchFault { pc: self.core.pc });
        };
        debug_assert_eq!(u.addr, self.core.pc, "micro-op index out of sync with PC");

        // ABFT guard boundary: finish a pending guard whose region ends
        // at this dispatch, then arm one if a region starts here — before
        // the shortcut attempt below, so both execution tiers check the
        // same entries at the same boundaries.
        if let Some(g) = self.guards.as_deref_mut() {
            g.boundary(&self.mem, *idx);
        }

        // Load-use stall: one bubble, charged to the producing load.
        if let Some((reg, id)) = self.pending_load.take() {
            if u.uses_mask & (1u32 << reg.num()) != 0 {
                self.stats.attribute_stall(id);
                self.core.cycle += 1;
            }
        }

        // An installed kernel-shortcut region starts here: execute the
        // whole region natively if the runtime preconditions hold. The
        // entry stall above is already charged either way.
        if u.shortcut != NO_SC && self.try_shortcut(uops, u.shortcut, idx, max_cycles)? {
            return Ok(UStep::Bulk);
        }

        // A specialized straight-line run starts here: execute the whole
        // run in bulk if the runtime preconditions hold (no armed loop
        // end inside, enough watchdog budget). The entry stall above is
        // already charged either way.
        if u.run != NO_RUN && self.run_straight(uops, u.run, idx, max_cycles)? {
            return Ok(UStep::Bulk);
        }

        let flow = self.exec_uop(&u)?;
        let (mut next_addr, mut next_idx, extra, halted) = match flow {
            Flow::Fall => (u.next_addr, *idx + 1, 0, None),
            Flow::Jump(t) => (t.addr, t.idx, 1, None),
            Flow::Halt(reason) => (u.next_addr, *idx + 1, 0, Some(reason)),
        };

        // Hardware loops: zero-cycle jump-back when the fall-through PC
        // reaches an armed loop's end. Inner loop (level 0) has priority.
        let mut hw_jump = false;
        let mut jump_level = 0usize;
        if matches!(flow, Flow::Fall) {
            for level in 0..2 {
                let lp = &mut self.core.hwloop[level];
                if lp.count > 0 && next_addr == lp.end {
                    if lp.count > 1 {
                        lp.count -= 1;
                        next_addr = lp.start;
                        hw_jump = true;
                        jump_level = level;
                        break;
                    }
                    // Inner loop expired: fall through so an outer loop
                    // sharing the same end address gets its jump-back.
                    lp.count = 0;
                }
            }
        }
        if hw_jump {
            next_idx = self
                .program
                .index_of(next_addr)
                .map_or(NO_IDX, |i| i as u32);
        }

        let cycles = u64::from(u.base_cycles) + extra;
        self.stats.record(u.id, cycles, u32::from(u.mac_ops));
        self.core.cycle += cycles;
        self.core.instret += 1;
        self.core.pc = next_addr;
        *idx = next_idx;
        if u.load_rd != 0 {
            self.pending_load = Some((Reg::from_bits(u32::from(u.load_rd)), u.id));
        }

        if let Some(reason) = halted {
            self.halted = Some(reason);
            return Ok(UStep::Halt(reason));
        }
        if u.body == NO_BODY {
            return Ok(UStep::Cont);
        }
        let entry = if hw_jump {
            LoopEntry::Hw {
                level: jump_level,
                top: false,
            }
        } else {
            match u.kind {
                // An lp.setup/lp.setupi that just armed a specializable
                // loop: the fall-through PC is the body start, so
                // iteration 0 can run in bulk too (top entry).
                UopKind::LpSetup { l, .. } | UopKind::LpSetupi { l, .. } => LoopEntry::Hw {
                    level: usize::from(l),
                    top: true,
                },
                // A taken backward branch closing a specializable body.
                UopKind::Branch { .. } if extra != 0 => LoopEntry::Branch,
                _ => return Ok(UStep::Cont),
            }
        };
        if self.run_loop_body(uops, u.body, entry, idx, max_cycles)? {
            return Ok(UStep::Bulk);
        }
        Ok(UStep::Cont)
    }

    /// Attempts to execute the installed kernel-shortcut region `si`,
    /// whose first op the PC sits on, as one native computation.
    ///
    /// Returns `Ok(false)` to decline — the interpreted path then
    /// executes the region bit-identically. Declines when bulk execution
    /// is disabled (armed faults / corrupted slots), when
    /// micro-architectural state is live at the region boundary (SPR
    /// writes in flight, armed hardware loops), when the watchdog budget
    /// cannot cover the whole region, or when the per-entry admission
    /// check fails (pointer cells unresolvable, operand/output ranges
    /// out of bounds, misaligned, or overlapping).
    ///
    /// On `Ok(true)` the region was executed natively: outputs written
    /// through the dirty-block bitmap, exit-live registers / SPR state /
    /// hardware-loop state reconstructed, and the pre-aggregated cycle,
    /// instret and per-mnemonic statistics retired in bulk — exactly the
    /// state the interpreted path would have produced.
    fn try_shortcut(
        &mut self,
        uops: &UopProgram,
        si: u32,
        idx: &mut u32,
        max_cycles: u64,
    ) -> Result<bool, SimError> {
        if !self.bulk_ok() || !self.spr_pending.is_empty() {
            return Ok(false);
        }
        if self.core.hwloop[0].count != 0 || self.core.hwloop[1].count != 0 {
            return Ok(false);
        }
        let sc = &uops.shortcuts[si as usize];
        if sc.total_cycles > max_cycles.saturating_sub(self.core.cycle) {
            return Ok(false);
        }
        if !sc.check_entry(&self.mem) {
            return Ok(false);
        }
        // Compute the stores and resolve every exit value before mutating
        // any state, so a failure here still declines cleanly to the
        // interpreted path. Both read entry-time memory: exit-value loads
        // re-read operands the region read, including a cell update's
        // in-place `c` rows, which the writes below then overwrite.
        let mut scratch = std::mem::take(&mut self.shortcut_scratch);
        scratch.outs.clear();
        let resolved = sc.compute(&self.mem, &mut scratch.outs)
            && self.resolve_exit(sc, &mut scratch).is_some();
        if !resolved {
            self.shortcut_scratch = scratch;
            return Ok(false);
        }

        for &(addr, v) in &scratch.outs {
            self.mem
                .write_u16(addr, v as u16)
                .expect("shortcut store spans were admission-checked");
        }
        for &(r, v) in &scratch.regs {
            self.core.set_reg(r, v);
        }
        for (s, v) in scratch.spr.into_iter().enumerate() {
            if let Some(v) = v {
                self.core.spr[s] = v;
            }
        }
        self.spr_pending.extend(scratch.pend.iter().copied());
        for (l, h) in sc.exit_hwloop.iter().enumerate() {
            if let Some(h) = h {
                self.core.hwloop[l] = HwLoop {
                    start: h.start,
                    end: h.end,
                    count: h.count,
                };
            }
        }
        self.pending_load = sc
            .exit_pending_load
            .map(|(r, id)| (Reg::from_bits(u32::from(r)), id));
        self.core.cycle += sc.total_cycles;
        self.core.instret += sc.total_instrs;
        self.shortcut_instrs += sc.total_instrs;
        for &(id, instrs, cycles, macs) in &sc.retire_rows {
            self.stats.record_many(id, instrs, cycles, macs);
        }
        for &(id, n) in &sc.stall_rows {
            self.stats.attribute_stalls(id, n);
        }
        self.core.pc = sc.desc.end_addr;
        *idx = sc.end_idx;
        self.shortcut_scratch = scratch;
        Ok(true)
    }

    /// Resolves a shortcut region's exit-live values against current
    /// memory into `scratch`: final register values, final SPR slot
    /// contents, and the still-in-flight SPR writes (re-keyed to absolute
    /// `instret`). Reads `scratch.outs`, the computed stores.
    fn resolve_exit(&self, sc: &ShortcutRegion, scratch: &mut ShortcutScratch) -> Option<()> {
        scratch.regs.clear();
        for &(r, ev) in &sc.exit_regs {
            let v = self.exit_value(sc, &scratch.outs, ev)?;
            scratch.regs.push((Reg::from_bits(u32::from(r)), v));
        }
        scratch.spr = [None, None];
        for (s, a) in sc.exit_spr.iter().enumerate() {
            if let Some(a) = a {
                scratch.spr[s] = Some(self.mem.read_u32(a.resolve(&self.mem)?).ok()?);
            }
        }
        scratch.pend.clear();
        for &(rel, slot, a) in &sc.exit_pending {
            let v = self.mem.read_u32(a.resolve(&self.mem)?).ok()?;
            scratch.pend.push((self.core.instret + rel, slot, v));
        }
        Some(())
    }

    /// One exit value of a shortcut region (`outs`: its computed stores).
    fn exit_value(&self, sc: &ShortcutRegion, outs: &[(u32, i32)], ev: ExitVal) -> Option<u32> {
        Some(match ev {
            ExitVal::Const(v) => v,
            ExitVal::CellAdd { cell, off } => self.mem.read_u32(cell).ok()?.wrapping_add(off),
            ExitVal::Load { op, addr } => read_load(&self.mem, op, addr.resolve(&self.mem)?)?,
            ExitVal::Out(k) => outs[k as usize].1 as u32,
            ExitVal::Node(i) => sc.exit_nodes[i as usize]
                .try_map(|a| self.exit_value(sc, outs, a))?
                .eval(),
        })
    }

    /// Attempts a bulk run of the specialized loop body chain starting at
    /// descriptor `head`, with the PC on the body's first op. `entry`
    /// says how control got there: a generic jump-back or top entry of a
    /// hardware loop, or a taken closing branch of a branch-closed body.
    ///
    /// Returns `Ok(false)` when no descriptor matches the entry or the
    /// preconditions for bulk execution don't hold (fewer than two
    /// hardware-loop iterations left, an armed hardware loop that could
    /// trigger inside the body, no cycle budget for one iteration) — the
    /// caller then continues on the generic path, which handles those
    /// cases bit-identically. On `Ok(true)`, whole iterations were
    /// executed and accounted in bulk; the machine state (PC, counters,
    /// statistics, pending load) is exactly what the generic path would
    /// have produced. A branch-closed loop runs until its branch falls
    /// through or the budget is spent. A mid-body fault unwinds to exact
    /// per-op accounting before returning the error.
    fn run_loop_body(
        &mut self,
        uops: &UopProgram,
        head: u32,
        entry: LoopEntry,
        idx: &mut u32,
        max_cycles: u64,
    ) -> Result<bool, SimError> {
        // Bulk execution retires many ops without fault or corrupted-slot
        // checks; fall back to the generic path while any are live. Armed
        // guards also disable it: bulk retirement skips the per-dispatch
        // guard boundary hook (host-throughput cost only — the per-op
        // path is bit-identical).
        if !self.bulk_ok() || self.guards.is_some() {
            return Ok(false);
        }
        let (body, max_iters) = match entry {
            LoopEntry::Hw { level, top } => {
                let lp = self.core.hwloop[level];
                let mut bi = head;
                let body = loop {
                    if bi == NO_BODY {
                        return Ok(false);
                    }
                    let b = &uops.bodies[bi as usize];
                    if matches!(b.exit, LoopExit::HwLoop)
                        && b.start_addr == lp.start
                        && b.end_addr == lp.end
                    {
                        break b;
                    }
                    bi = b.next;
                };
                // The final iteration (count == 1) must run generically:
                // its jump-back check falls through and may hand over to
                // an outer loop sharing the end address.
                if lp.count < 2 {
                    return Ok(false);
                }
                // Steady-state iterations pay the wrap-around stall into
                // op 0; iteration 0 does not (nothing can be pending after
                // lp.setup). Bulk accounting charges every iteration
                // identically, so top entry is only valid when that stall
                // is statically absent.
                if top && body.stall_in[0].is_some() {
                    return Ok(false);
                }
                // The other loop level must not be able to trigger
                // anywhere in the body. Its end address strictly inside
                // the body always conflicts; an end equal to this body's
                // end conflicts only when the other level is the *inner*
                // one (level 0 has priority).
                let other = self.core.hwloop[1 - level];
                if other.count > 0
                    && other.end > body.start_addr
                    && (other.end < body.end_addr || (level == 1 && other.end == body.end_addr))
                {
                    return Ok(false);
                }
                (body, u64::from(lp.count - 1))
            }
            LoopEntry::Branch => {
                let body = &uops.bodies[head as usize];
                // No armed hardware loop may trigger on any of the body's
                // fall-through addresses, the closing branch's included.
                for lp in &self.core.hwloop {
                    if lp.count > 0 && lp.end > body.start_addr && lp.end <= body.end_addr {
                        return Ok(false);
                    }
                }
                (body, u64::MAX)
            }
        };
        let budget = max_cycles.saturating_sub(self.core.cycle);
        let iters = (budget / body.iter_cycles).min(max_iters);
        if iters == 0 {
            return Ok(false);
        }

        let slice = &uops.uops[body.start_idx as usize..(body.start_idx + body.len) as usize];
        let close = match body.exit {
            LoopExit::HwLoop => None,
            LoopExit::Branch { op, rs1, rs2 } => Some((op, rs1, rs2)),
        };
        let (done, exited, fault) = self.exec_bulk(slice, iters, close);

        // Bulk-account the completed iterations: cycles and one row
        // update per mnemonic. Every completed iteration ended in a
        // jump-back, except a final untaken closing branch, whose taken
        // cycle is refunded (the branch is the only op on its row).
        let last = slice[slice.len() - 1];
        let refund = u64::from(exited);
        self.core.cycle += done * body.iter_cycles - refund;
        self.bulk_instrs += done * u64::from(body.len);
        for &(id, instrs, cycles, macs) in &body.retire_rows {
            let cycles = cycles * done - if id == last.id { refund } else { 0 };
            self.stats
                .record_many(id, instrs * done, cycles, macs * done);
        }
        for &(id, n) in &body.stall_rows {
            self.stats.attribute_stalls(id, n * done);
        }
        // A hardware loop's PC stays at the body start: its count never
        // dropped below 2 before a decrement, by the `iters` cap.
        if let LoopEntry::Hw { level, .. } = entry {
            self.core.hwloop[level].count -= done as u32;
        }

        match fault {
            None => {
                // The generic path would have retired the body's last op
                // just before returning here, leaving its load pending.
                self.pending_load =
                    (last.load_rd != 0).then(|| (Reg::from_bits(u32::from(last.load_rd)), last.id));
                if exited {
                    self.core.pc = body.end_addr;
                    *idx = body.start_idx + body.len;
                }
                Ok(true)
            }
            Some((k, e)) => {
                // A fault in op `k` of the partial iteration: retire ops
                // 0..k individually (their register/memory effects are
                // already applied), charge the stall the faulting op
                // suffered on entry, and leave the PC on the faulting op
                // — exactly the state the generic path faults with.
                for (j, u) in slice.iter().take(k).enumerate() {
                    if let Some(id) = body.stall_in[j] {
                        self.stats.attribute_stall(id);
                        self.core.cycle += 1;
                    }
                    self.stats
                        .record(u.id, u64::from(u.base_cycles), u32::from(u.mac_ops));
                    self.core.cycle += u64::from(u.base_cycles);
                }
                if let Some(id) = body.stall_in[k] {
                    self.stats.attribute_stall(id);
                    self.core.cycle += 1;
                }
                self.pending_load = None;
                self.core.pc = slice[k].addr;
                Err(e)
            }
        }
    }

    /// Attempts a bulk pass of straight-line run `ri`, whose first op the
    /// PC sits on.
    ///
    /// Returns `Ok(false)` when the preconditions don't hold: an *armed*
    /// hardware loop's end address lies on one of the run's fall-through
    /// addresses (the generic path would divert control there), or the
    /// watchdog budget can't cover the whole run. On `Ok(true)` the run
    /// was executed and accounted in bulk, leaving exactly the state the
    /// generic path would have produced; a mid-run fault unwinds to exact
    /// per-op accounting before returning the error.
    fn run_straight(
        &mut self,
        uops: &UopProgram,
        ri: u32,
        idx: &mut u32,
        max_cycles: u64,
    ) -> Result<bool, SimError> {
        // See `run_loop_body`: no bulk retirement while fault state or
        // guards are live (a straight run can cross a region's
        // fall-through exit, skipping the guard boundary hook).
        if !self.bulk_ok() || self.guards.is_some() {
            return Ok(false);
        }
        let run = &uops.runs[ri as usize];
        for lp in &self.core.hwloop {
            if lp.count > 0 && lp.end > run.start_addr && lp.end <= run.end_addr {
                return Ok(false);
            }
        }
        if run.cycles > max_cycles.saturating_sub(self.core.cycle) {
            return Ok(false);
        }

        let slice = &uops.uops[run.start_idx as usize..(run.start_idx + run.len) as usize];
        let (_, _, fault) = self.exec_bulk(slice, 1, None);

        match fault {
            None => {
                self.core.cycle += run.cycles;
                self.bulk_instrs += u64::from(run.len);
                for &(id, instrs, cycles, macs) in &run.retire_rows {
                    self.stats.record_many(id, instrs, cycles, macs);
                }
                for &(id, n) in &run.stall_rows {
                    self.stats.attribute_stalls(id, n);
                }
                let last = slice[slice.len() - 1];
                self.pending_load =
                    (last.load_rd != 0).then(|| (Reg::from_bits(u32::from(last.load_rd)), last.id));
                self.core.pc = run.end_addr;
                *idx = run.start_idx + run.len;
                Ok(true)
            }
            Some((k, e)) => {
                // Retire ops 0..k individually (their register/memory
                // effects are already applied) and charge the faulting
                // op's entry stall, leaving the PC on the faulting op —
                // exactly the state the generic path faults with. (The
                // *run* entry stall was charged by the caller.)
                for (j, u) in slice.iter().take(k).enumerate() {
                    if let Some(id) = run.stall_in[j] {
                        self.stats.attribute_stall(id);
                        self.core.cycle += 1;
                    }
                    self.stats
                        .record(u.id, u64::from(u.base_cycles), u32::from(u.mac_ops));
                    self.core.cycle += u64::from(u.base_cycles);
                }
                if let Some(id) = run.stall_in[k] {
                    self.stats.attribute_stall(id);
                    self.core.cycle += 1;
                }
                self.pending_load = None;
                self.core.pc = slice[k].addr;
                Err(e)
            }
        }
    }

    /// Executes `iters` passes over `slice` — data semantics and
    /// `instret` retirement only, no cycle or statistics accounting.
    ///
    /// The SPR write pipeline lives in host locals for the whole pass:
    /// the `issued + 2 <= instret` visibility rule bounds the in-flight
    /// set to two writes, so a two-slot array replaces the shared
    /// `spr_pending` deque and `pl.sdotsp` — the dominant op in the O3
    /// kernels — executes without any deque traffic or `drain_spr`
    /// calls. Writes land at exactly the same retirement points as on
    /// the generic path, and the deque is reconstructed verbatim (same
    /// `instret` keys) on exit, so machine state stays bit-identical.
    ///
    /// With `close`, the slice's last op is a conditional branch back to
    /// its first, evaluated from those operands after each pass: the
    /// first untaken evaluation ends the passes early.
    ///
    /// Returns the number of completed passes, whether the closing
    /// branch fell through, and, for a partial pass, the faulting op's
    /// slice index with the error. The faulting op does not retire;
    /// earlier ops of the partial pass do.
    fn exec_bulk(
        &mut self,
        slice: &[Uop],
        iters: u64,
        close: Option<(BranchOp, Reg, Reg)>,
    ) -> (u64, bool, Option<(usize, SimError)>) {
        let ops = if close.is_some() {
            &slice[..slice.len() - 1]
        } else {
            slice
        };
        let mut spr = self.core.spr;
        let mut instret = self.core.instret;
        // In-flight SPR writes, oldest first. Every path drains before
        // executing an op, so at most the two most recent retirements
        // can still have a write pending.
        assert!(self.spr_pending.len() <= 2);
        let mut q = [(0u64, 0usize, 0u32); 2];
        let mut qn = 0usize;
        while let Some(e) = self.spr_pending.pop_front() {
            q[qn] = e;
            qn += 1;
        }

        let mut done = 0u64;
        let mut exited = false;
        let mut fault: Option<(usize, SimError)> = None;
        'passes: for _ in 0..iters {
            for (k, u) in ops.iter().enumerate() {
                // Writes issued two or more retirements ago land now —
                // the same drain point as `uop_step` / `step`.
                while qn > 0 && q[0].0 + 2 <= instret {
                    spr[q[0].1] = q[0].2;
                    q[0] = q[1];
                    qn -= 1;
                }
                if let UopKind::PlSdotsp {
                    spr: s,
                    size,
                    rd,
                    rs1,
                    rs2,
                } = u.kind
                {
                    // `spr` was masked to 0/1 at translation; re-masking
                    // here lets the compiler drop the bounds checks.
                    let sl = usize::from(s & 1);
                    let w = spr[sl];
                    let x = self.core.reg(rs2);
                    // Specialized signed×signed dot: lane products fit in
                    // i32, and wrapping i32 sums equal the generic i64
                    // accumulation truncated to 32 bits.
                    let dot = match size {
                        SimdSize::Half => {
                            let p0 = (w as i16 as i32) * (x as i16 as i32);
                            let p1 = ((w >> 16) as i16 as i32) * ((x >> 16) as i16 as i32);
                            p0.wrapping_add(p1) as u32
                        }
                        SimdSize::Byte => {
                            let mut sum = 0i32;
                            for sh in [0u32, 8, 16, 24] {
                                sum += ((w >> sh) as i8 as i32) * ((x >> sh) as i8 as i32);
                            }
                            sum as u32
                        }
                    };
                    debug_assert_eq!(dot, exec_dot(DotOp::SdotSp, size, w, x));
                    let acc = self.core.reg(rd).wrapping_add(dot);
                    let addr = self.core.reg(rs1);
                    match self.mem.read_u32(addr) {
                        Ok(value) => {
                            // After aging, at most the previous op's
                            // write is still in flight, so qn <= 1.
                            debug_assert!(qn < 2);
                            q[qn & 1] = (instret, sl, value);
                            qn += 1;
                            self.core.set_reg(rd, acc);
                            self.core.set_reg(rs1, addr.wrapping_add(4));
                        }
                        Err(e) => {
                            fault = Some((k, e));
                            break 'passes;
                        }
                    }
                } else {
                    // Only `pl.sdotsp` reads or writes the SPR state and
                    // only the (body-ineligible) CSR reads observe
                    // `instret`, so the locals can stay stale across
                    // this call.
                    match self.exec_uop(u) {
                        Ok(flow) => debug_assert!(matches!(flow, Flow::Fall)),
                        Err(e) => {
                            fault = Some((k, e));
                            break 'passes;
                        }
                    }
                }
                instret += 1;
            }
            done += 1;
            if let Some((op, rs1, rs2)) = close {
                // The branch reads no SPR, so skipping the drain before
                // it lands the same writes at the next op's drain.
                instret += 1;
                if !branch_taken(op, self.core.reg(rs1), self.core.reg(rs2)) {
                    exited = true;
                    break;
                }
            }
        }

        self.core.spr = spr;
        self.core.instret = instret;
        for &e in q.iter().take(qn) {
            self.spr_pending.push_back(e);
        }
        (done, exited, fault)
    }

    /// Makes SPR writes issued two or more instructions ago visible.
    /// Visibility is keyed on `instret`, so the micro-op bulk runner —
    /// which defers *cycle* accounting but retires `instret` per op —
    /// drains at exactly the same points as the per-step path.
    #[inline]
    fn drain_spr(&mut self) {
        while let Some(&(issued, idx, value)) = self.spr_pending.front() {
            if issued + 2 <= self.core.instret {
                self.core.spr[idx] = value;
                self.spr_pending.pop_front();
            } else {
                break;
            }
        }
    }

    /// Executes a micro-op's data semantics: register/memory/SPR effects
    /// only. Timing, statistics, PC update, hardware-loop jump-back and
    /// the pending-load hand-off are the caller's responsibility, which
    /// is what lets the loop-body runner share this with `uop_step` while
    /// accounting time in bulk.
    fn exec_uop(&mut self, u: &Uop) -> Result<Flow, SimError> {
        match u.kind {
            UopKind::SetReg { rd, val } => self.core.set_reg(rd, val),
            UopKind::Jal { rd, target } => {
                self.core.set_reg(rd, u.next_addr);
                return Ok(Flow::Jump(target));
            }
            UopKind::Jalr { rd, rs1, offset } => {
                let addr = self.core.reg(rs1).wrapping_add(offset) & !1;
                self.core.set_reg(rd, u.next_addr);
                return Ok(Flow::Jump(Target {
                    addr,
                    idx: self.program.index_of(addr).map_or(NO_IDX, |i| i as u32),
                }));
            }
            UopKind::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                if branch_taken(op, self.core.reg(rs1), self.core.reg(rs2)) {
                    return Ok(Flow::Jump(target));
                }
            }
            UopKind::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.core.reg(rs1).wrapping_add(offset);
                let value = self.load_value(op, addr)?;
                self.core.set_reg(rd, value);
            }
            UopKind::LoadPostInc {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.core.reg(rs1);
                let value = self.load_value(op, addr)?;
                self.core.set_reg(rs1, addr.wrapping_add(offset));
                self.core.set_reg(rd, value);
            }
            UopKind::LoadReg { op, rd, rs1, rs2 } => {
                let addr = self.core.reg(rs1).wrapping_add(self.core.reg(rs2));
                let value = self.load_value(op, addr)?;
                self.core.set_reg(rd, value);
            }
            UopKind::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.core.reg(rs1).wrapping_add(offset);
                self.store_value(op, addr, self.core.reg(rs2))?;
            }
            UopKind::StorePostInc {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.core.reg(rs1);
                self.store_value(op, addr, self.core.reg(rs2))?;
                self.core.set_reg(rs1, addr.wrapping_add(offset));
            }
            UopKind::OpImm { op, rd, rs1, imm } => {
                let a = self.core.reg(rs1);
                let v = match op {
                    AluImmOp::Addi => a.wrapping_add(imm as u32),
                    AluImmOp::Slti => ((a as i32) < imm) as u32,
                    AluImmOp::Sltiu => (a < imm as u32) as u32,
                    AluImmOp::Xori => a ^ imm as u32,
                    AluImmOp::Ori => a | imm as u32,
                    AluImmOp::Andi => a & imm as u32,
                    AluImmOp::Slli => a << (imm & 0x1F),
                    AluImmOp::Srli => a >> (imm & 0x1F),
                    AluImmOp::Srai => ((a as i32) >> (imm & 0x1F)) as u32,
                };
                self.core.set_reg(rd, v);
            }
            UopKind::Op { op, rd, rs1, rs2 } => {
                let a = self.core.reg(rs1);
                let b = self.core.reg(rs2);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Sll => a << (b & 0x1F),
                    AluOp::Slt => ((a as i32) < (b as i32)) as u32,
                    AluOp::Sltu => (a < b) as u32,
                    AluOp::Xor => a ^ b,
                    AluOp::Srl => a >> (b & 0x1F),
                    AluOp::Sra => ((a as i32) >> (b & 0x1F)) as u32,
                    AluOp::Or => a | b,
                    AluOp::And => a & b,
                };
                self.core.set_reg(rd, v);
            }
            UopKind::MulDiv { op, rd, rs1, rs2 } => {
                // Value semantics only: the mulh/div extra latency is
                // folded into the op's static `base_cycles`.
                let a = self.core.reg(rs1);
                let b = self.core.reg(rs2);
                let v = match op {
                    MulDivOp::Mul => a.wrapping_mul(b),
                    MulDivOp::Mulh => ((a as i32 as i64 * b as i32 as i64) >> 32) as u32,
                    MulDivOp::Mulhsu => ((a as i32 as i64 * b as u64 as i64) >> 32) as u32,
                    MulDivOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
                    MulDivOp::Div => match (a as i32, b as i32) {
                        (_, 0) => u32::MAX,
                        (i32::MIN, -1) => i32::MIN as u32,
                        (x, y) => x.wrapping_div(y) as u32,
                    },
                    MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
                    MulDivOp::Rem => match (a as i32, b as i32) {
                        (x, 0) => x as u32,
                        (i32::MIN, -1) => 0,
                        (x, y) => x.wrapping_rem(y) as u32,
                    },
                    MulDivOp::Remu => {
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                };
                self.core.set_reg(rd, v);
            }
            UopKind::Nop => {}
            UopKind::Halt(reason) => return Ok(Flow::Halt(reason)),
            UopKind::CsrRead { rd, csr } => {
                let v = self.read_csr(csr);
                self.core.set_reg(rd, v);
            }
            UopKind::LpSetAddr { l, is_end, addr } => {
                let lp = &mut self.core.hwloop[l as usize];
                if is_end {
                    lp.end = addr;
                } else {
                    lp.start = addr;
                }
            }
            UopKind::LpCount { l, rs1 } => {
                self.core.hwloop[l as usize].count = self.core.reg(rs1);
            }
            UopKind::LpCounti { l, count } => {
                self.core.hwloop[l as usize].count = count;
            }
            UopKind::LpSetup { l, rs1, start, end } => {
                let count = self.core.reg(rs1);
                let lp = &mut self.core.hwloop[l as usize];
                lp.start = start;
                lp.end = end;
                lp.count = count;
                if lp.count > 0 && lp.start >= lp.end {
                    return Err(SimError::BadHwLoop { level: l as usize });
                }
            }
            UopKind::LpSetupi {
                l,
                count,
                start,
                end,
            } => {
                let lp = &mut self.core.hwloop[l as usize];
                lp.start = start;
                lp.end = end;
                lp.count = count;
                if lp.count > 0 && lp.start >= lp.end {
                    return Err(SimError::BadHwLoop { level: l as usize });
                }
            }
            UopKind::Mac { rd, rs1, rs2 } => {
                let v = self.core.reg(rd).wrapping_add(
                    (self.core.reg_i32(rs1).wrapping_mul(self.core.reg_i32(rs2))) as u32,
                );
                self.core.set_reg(rd, v);
            }
            UopKind::Msu { rd, rs1, rs2 } => {
                let v = self.core.reg(rd).wrapping_sub(
                    (self.core.reg_i32(rs1).wrapping_mul(self.core.reg_i32(rs2))) as u32,
                );
                self.core.set_reg(rd, v);
            }
            UopKind::Clip { rd, rs1, lo, hi } => {
                let v = self.core.reg_i32(rs1).clamp(lo, hi);
                self.core.set_reg(rd, v as u32);
            }
            UopKind::ClipU { rd, rs1, hi } => {
                let v = self.core.reg_i32(rs1).clamp(0, hi);
                self.core.set_reg(rd, v as u32);
            }
            UopKind::Unary { op, rd, rs1 } => {
                let a = self.core.reg(rs1);
                let v = match op {
                    UnaryOp::ExtHs => a as u16 as i16 as i32 as u32,
                    UnaryOp::ExtHz => a & 0xFFFF,
                    UnaryOp::ExtBs => a as u8 as i8 as i32 as u32,
                    UnaryOp::ExtBz => a & 0xFF,
                    UnaryOp::Abs => (a as i32).wrapping_abs() as u32,
                    UnaryOp::Ff1 => {
                        if a == 0 {
                            32
                        } else {
                            a.trailing_zeros()
                        }
                    }
                    UnaryOp::Fl1 => {
                        if a == 0 {
                            32
                        } else {
                            31 - a.leading_zeros()
                        }
                    }
                    UnaryOp::Cnt => a.count_ones(),
                    UnaryOp::Clb => {
                        // Count of leading bits equal to the sign bit,
                        // minus one; zero input yields 0 per RI5CY.
                        if a == 0 {
                            0
                        } else if (a as i32) < 0 {
                            (!a).leading_zeros() - 1
                        } else {
                            a.leading_zeros() - 1
                        }
                    }
                    UnaryOp::Tanh => {
                        let x = rnnasip_fixed::Q3p12::from_raw(a as u16 as i16);
                        rnnasip_fixed::hw_tanh(x).raw() as i32 as u32
                    }
                    UnaryOp::Sig => {
                        let x = rnnasip_fixed::Q3p12::from_raw(a as u16 as i16);
                        rnnasip_fixed::hw_sig(x).raw() as i32 as u32
                    }
                };
                self.core.set_reg(rd, v);
            }
            UopKind::PMin { rd, rs1, rs2 } => {
                self.core.set_reg(
                    rd,
                    self.core.reg_i32(rs1).min(self.core.reg_i32(rs2)) as u32,
                );
            }
            UopKind::PMax { rd, rs1, rs2 } => {
                self.core.set_reg(
                    rd,
                    self.core.reg_i32(rs1).max(self.core.reg_i32(rs2)) as u32,
                );
            }
            UopKind::Ror { rd, rs1, rs2 } => {
                let amount = self.core.reg(rs2) & 31;
                self.core
                    .set_reg(rd, self.core.reg(rs1).rotate_right(amount));
            }
            UopKind::PvAluVv {
                op,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let a = self.core.reg(rs1);
                let b = self.core.reg(rs2);
                self.core.set_reg(rd, exec_pv_alu(op, size, a, b));
            }
            UopKind::PvAluSc {
                op,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let a = self.core.reg(rs1);
                let b = splat(size, self.core.reg(rs2));
                self.core.set_reg(rd, exec_pv_alu(op, size, a, b));
            }
            UopKind::PvAluImm {
                op,
                size,
                rd,
                rs1,
                b,
            } => {
                let a = self.core.reg(rs1);
                self.core.set_reg(rd, exec_pv_alu(op, size, a, b));
            }
            UopKind::PvDot {
                op,
                size,
                rd,
                rs1,
                rs2,
            } => {
                let a = self.core.reg(rs1);
                let b = self.core.reg(rs2);
                let dot = exec_dot(op, size, a, b);
                let v = if op.accumulates() {
                    self.core.reg(rd).wrapping_add(dot)
                } else {
                    dot
                };
                self.core.set_reg(rd, v);
            }
            UopKind::PlSdotsp {
                spr,
                size,
                rd,
                rs1,
                rs2,
            } => {
                // MAC with the weight currently in SPR[spr], while the
                // LSU fetches the next weight into the same SPR (visible
                // two instructions later) and post-increments the stream
                // pointer. `spr` was masked to 0/1 at translation.
                let w = self.core.spr[spr as usize];
                let x = self.core.reg(rs2);
                let dot = exec_dot(DotOp::SdotSp, size, w, x);
                let acc = self.core.reg(rd).wrapping_add(dot);
                let addr = self.core.reg(rs1);
                let value = self.mem.read_u32(addr)?;
                self.spr_pending
                    .push_back((self.core.instret, spr as usize, value));
                self.core.set_reg(rd, acc);
                self.core.set_reg(rs1, addr.wrapping_add(4));
            }
        }
        Ok(Flow::Fall)
    }

    fn load_value(&mut self, op: LoadOp, addr: u32) -> Result<u32, SimError> {
        Ok(match op {
            LoadOp::Lb => self.mem.read_u8(addr)? as i8 as i32 as u32,
            LoadOp::Lbu => self.mem.read_u8(addr)? as u32,
            LoadOp::Lh => self.mem.read_u16(addr)? as i16 as i32 as u32,
            LoadOp::Lhu => self.mem.read_u16(addr)? as u32,
            LoadOp::Lw => self.mem.read_u32(addr)?,
        })
    }

    fn store_value(&mut self, op: StoreOp, addr: u32, value: u32) -> Result<(), SimError> {
        match op {
            StoreOp::Sb => self.mem.write_u8(addr, value as u8),
            StoreOp::Sh => self.mem.write_u16(addr, value as u16),
            StoreOp::Sw => self.mem.write_u32(addr, value),
        }
    }

    fn read_csr(&self, csr: Csr) -> u32 {
        match csr {
            Csr::Mcycle => self.core.cycle as u32,
            Csr::Mcycleh => (self.core.cycle >> 32) as u32,
            Csr::Minstret => self.core.instret as u32,
            Csr::Minstreth => (self.core.instret >> 32) as u32,
            Csr::LpStart0 => self.core.hwloop[0].start,
            Csr::LpEnd0 => self.core.hwloop[0].end,
            Csr::LpCount0 => self.core.hwloop[0].count,
            Csr::LpStart1 => self.core.hwloop[1].start,
            Csr::LpEnd1 => self.core.hwloop[1].end,
            Csr::LpCount1 => self.core.hwloop[1].count,
            Csr::Other(_) => 0,
        }
    }
}

/// Whether a conditional branch with operand values `a`, `b` is taken.
#[inline]
fn branch_taken(op: BranchOp, a: u32, b: u32) -> bool {
    match op {
        BranchOp::Beq => a == b,
        BranchOp::Bne => a != b,
        BranchOp::Blt => (a as i32) < (b as i32),
        BranchOp::Bge => (a as i32) >= (b as i32),
        BranchOp::Bltu => a < b,
        BranchOp::Bgeu => a >= b,
    }
}

/// Lane-wise SIMD ALU semantics on packed registers.
pub(crate) fn exec_pv_alu(op: PvAluOp, size: SimdSize, a: u32, b: u32) -> u32 {
    match size {
        SimdSize::Half => {
            let la = [(a & 0xFFFF) as u16 as i16, (a >> 16) as u16 as i16];
            let lb = [(b & 0xFFFF) as u16 as i16, (b >> 16) as u16 as i16];
            let mut out = [0i16; 2];
            for i in 0..2 {
                out[i] = pv_lane_op_h(op, la[i], lb[i]);
            }
            (out[0] as u16 as u32) | ((out[1] as u16 as u32) << 16)
        }
        SimdSize::Byte => {
            let la = a.to_le_bytes().map(|x| x as i8);
            let lb = b.to_le_bytes().map(|x| x as i8);
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = pv_lane_op_b(op, la[i], lb[i]) as u8;
            }
            u32::from_le_bytes(out)
        }
    }
}

fn pv_lane_op_h(op: PvAluOp, a: i16, b: i16) -> i16 {
    match op {
        PvAluOp::Add => a.wrapping_add(b),
        PvAluOp::Sub => a.wrapping_sub(b),
        PvAluOp::Avg => ((a as i32 + b as i32) >> 1) as i16,
        PvAluOp::Min => a.min(b),
        PvAluOp::Max => a.max(b),
        PvAluOp::Srl => ((a as u16) >> (b as u16 & 0xF)) as i16,
        PvAluOp::Sra => a >> (b as u16 & 0xF),
        PvAluOp::Sll => ((a as u16) << (b as u16 & 0xF)) as i16,
        PvAluOp::Or => a | b,
        PvAluOp::Xor => a ^ b,
        PvAluOp::And => a & b,
        PvAluOp::Abs => a.wrapping_abs(),
    }
}

fn pv_lane_op_b(op: PvAluOp, a: i8, b: i8) -> i8 {
    match op {
        PvAluOp::Add => a.wrapping_add(b),
        PvAluOp::Sub => a.wrapping_sub(b),
        PvAluOp::Avg => ((a as i32 + b as i32) >> 1) as i8,
        PvAluOp::Min => a.min(b),
        PvAluOp::Max => a.max(b),
        PvAluOp::Srl => ((a as u8) >> (b as u8 & 0x7)) as i8,
        PvAluOp::Sra => a >> (b as u8 & 0x7),
        PvAluOp::Sll => ((a as u8) << (b as u8 & 0x7)) as i8,
        PvAluOp::Or => a | b,
        PvAluOp::Xor => a ^ b,
        PvAluOp::And => a & b,
        PvAluOp::Abs => a.wrapping_abs(),
    }
}

/// Dot-product semantics: the *fresh* dot value, before any accumulation.
pub(crate) fn exec_dot(op: DotOp, size: SimdSize, a: u32, b: u32) -> u32 {
    let (sign_a, sign_b) = match op {
        DotOp::DotUp | DotOp::SdotUp => (false, false),
        DotOp::DotUsp | DotOp::SdotUsp => (false, true),
        DotOp::DotSp | DotOp::SdotSp => (true, true),
    };
    let lane = |word: u32, idx: u32, signed: bool, half: bool| -> i64 {
        if half {
            let raw = ((word >> (16 * idx)) & 0xFFFF) as u16;
            if signed {
                raw as i16 as i64
            } else {
                raw as i64
            }
        } else {
            let raw = ((word >> (8 * idx)) & 0xFF) as u8;
            if signed {
                raw as i8 as i64
            } else {
                raw as i64
            }
        }
    };
    let lanes = match size {
        SimdSize::Half => 2,
        SimdSize::Byte => 4,
    };
    let half = matches!(size, SimdSize::Half);
    let mut sum: i64 = 0;
    for i in 0..lanes {
        sum += lane(a, i, sign_a, half) * lane(b, i, sign_b, half);
    }
    sum as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnasip_isa::{CsrOp, LoopIdx};

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    fn run_prog(instrs: Vec<Instr>) -> Machine {
        let prog = Program::from_instrs(0, instrs);
        let mut m = Machine::new(4096);
        m.load_program(&prog);
        m.run(100_000).expect("program must halt");
        m
    }

    #[test]
    fn arithmetic_and_halt() {
        let m = run_prog(vec![
            addi(Reg::A0, Reg::ZERO, 40),
            addi(Reg::A1, Reg::ZERO, 2),
            Instr::Op {
                op: AluOp::Add,
                rd: Reg::A2,
                rs1: Reg::A0,
                rs2: Reg::A1,
            },
            Instr::Ecall,
        ]);
        assert_eq!(m.core().reg(Reg::A2), 42);
        // 4 instructions, all single-cycle.
        assert_eq!(m.stats().cycles(), 4);
        assert_eq!(m.stats().instrs(), 4);
    }

    #[test]
    fn taken_branch_costs_two_cycles() {
        // beq zero, zero, +8 skips one addi.
        let m = run_prog(vec![
            Instr::Branch {
                op: BranchOp::Beq,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                offset: 8,
            },
            addi(Reg::A0, Reg::ZERO, 1), // skipped
            Instr::Ecall,
        ]);
        assert_eq!(m.core().reg(Reg::A0), 0);
        // branch (2) + ecall (1)
        assert_eq!(m.stats().cycles(), 3);
        assert_eq!(m.stats().instrs(), 2);
    }

    #[test]
    fn untaken_branch_costs_one_cycle() {
        let m = run_prog(vec![
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                offset: 8,
            },
            Instr::Ecall,
        ]);
        assert_eq!(m.stats().cycles(), 2);
    }

    #[test]
    fn load_use_stall_attributed_to_load() {
        let prog = Program::from_instrs(
            0,
            vec![
                addi(Reg::A1, Reg::ZERO, 0x100),
                Instr::Load {
                    op: LoadOp::Lw,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 0,
                },
                addi(Reg::A0, Reg::A0, 1), // uses the loaded value: stall
                Instr::Ecall,
            ],
        );
        let mut m = Machine::new(4096);
        m.mem_mut().write_u32(0x100, 41).unwrap();
        m.load_program(&prog);
        m.run(1000).unwrap();
        assert_eq!(m.core().reg(Reg::A0), 42);
        // addi(1) + lw(1+1 stall) + addi(1) + ecall(1) = 5
        assert_eq!(m.stats().cycles(), 5);
        assert_eq!(m.stats().row("lw").cycles, 2);
        assert_eq!(m.stats().row("lw").instrs, 1);
        assert_eq!(m.stats().stall_cycles(), 1);
    }

    #[test]
    fn no_stall_with_intervening_instruction() {
        let prog = Program::from_instrs(
            0,
            vec![
                addi(Reg::A1, Reg::ZERO, 0x100),
                Instr::Load {
                    op: LoadOp::Lw,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 0,
                },
                addi(Reg::A2, Reg::ZERO, 7), // independent
                addi(Reg::A0, Reg::A0, 1),
                Instr::Ecall,
            ],
        );
        let mut m = Machine::new(4096);
        m.load_program(&prog);
        m.run(1000).unwrap();
        assert_eq!(m.stats().stall_cycles(), 0);
    }

    #[test]
    fn hardware_loop_executes_count_times() {
        // lp.setup with count in a0; body: addi a1, a1, 1 (4 bytes).
        // uimm is in halfwords: end = pc + 2*uimm; body starts at pc+4 and
        // is one instruction, so end = pc + 8 -> uimm = 4.
        let m = run_prog(vec![
            addi(Reg::A0, Reg::ZERO, 10),
            Instr::LpSetup {
                l: LoopIdx::L0,
                rs1: Reg::A0,
                uimm: 4,
            },
            addi(Reg::A1, Reg::A1, 1),
            Instr::Ecall,
        ]);
        assert_eq!(m.core().reg(Reg::A1), 10);
        // addi + lp.setup + 10 * body + ecall = 13 cycles, no loop overhead.
        assert_eq!(m.stats().cycles(), 13);
        assert_eq!(m.stats().instrs(), 13);
    }

    #[test]
    fn nested_hardware_loops() {
        // Outer loop L1 runs 3 times, inner loop L0 runs 4 times per outer
        // iteration; body increments a2.
        let m = run_prog(vec![
            addi(Reg::A0, Reg::ZERO, 3),
            addi(Reg::A1, Reg::ZERO, 4),
            // lp.setup L1: body covers the inner lp.setup and the addi;
            // both loops share the same end address (the canonical
            // nesting pattern) and the inner level has priority.
            Instr::LpSetup {
                l: LoopIdx::L1,
                rs1: Reg::A0,
                uimm: 6,
            },
            Instr::LpSetup {
                l: LoopIdx::L0,
                rs1: Reg::A1,
                uimm: 4,
            },
            addi(Reg::A2, Reg::A2, 1),
            Instr::Ecall,
        ]);
        assert_eq!(m.core().reg(Reg::A2), 12);
    }

    #[test]
    fn pl_sdotsp_merged_load_and_compute() {
        // Weights at 0x200: pairs (1, 2) then (3, 4) in Q-raw units.
        // Inputs: packed (10, 20) and (30, 40).
        let mut m = Machine::new(4096);
        let w = 0x200u32;
        m.mem_mut().write_u16(w, 1).unwrap();
        m.mem_mut().write_u16(w + 2, 2).unwrap();
        m.mem_mut().write_u16(w + 4, 3).unwrap();
        m.mem_mut().write_u16(w + 6, 4).unwrap();
        let x0 = (10u32) | (20u32 << 16);
        let x1 = (30u32) | (40u32 << 16);
        let prog = Program::from_instrs(
            0,
            vec![
                addi(Reg::A0, Reg::ZERO, 0x200), // weight pointer
                // Preload SPR0 (discard MAC: rd = x0, rs2 = x0).
                Instr::PlSdotsp {
                    spr: 0,
                    size: SimdSize::Half,
                    rd: Reg::ZERO,
                    rs1: Reg::A0,
                    rs2: Reg::ZERO,
                },
                // a1 = first input pair; a2 = second input pair.
                Instr::Lui {
                    rd: Reg::A1,
                    imm20: (x0 >> 12) as i32,
                },
                addi(Reg::A1, Reg::A1, (x0 & 0xFFF) as i32),
                Instr::Lui {
                    rd: Reg::A2,
                    imm20: (x1 >> 12) as i32,
                },
                addi(Reg::A2, Reg::A2, (x1 & 0xFFF) as i32),
                // acc += SPR0 . a1, reload SPR0 with next weights.
                Instr::PlSdotsp {
                    spr: 0,
                    size: SimdSize::Half,
                    rd: Reg::T0,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                },
                addi(Reg::ZERO, Reg::ZERO, 0), // spacer (SPR latency)
                // acc += SPR0 . a2 with the reloaded weights.
                Instr::PlSdotsp {
                    spr: 0,
                    size: SimdSize::Half,
                    rd: Reg::T0,
                    rs1: Reg::A0,
                    rs2: Reg::A2,
                },
                Instr::Ecall,
            ],
        );
        m.load_program(&prog);
        m.run(1000).unwrap();
        // 1*10 + 2*20 + 3*30 + 4*40 = 10 + 40 + 90 + 160 = 300
        assert_eq!(m.core().reg(Reg::T0), 300);
        // Weight pointer advanced by three loads of 4 bytes.
        assert_eq!(m.core().reg(Reg::A0), 0x200 + 12);
    }

    #[test]
    fn pl_tanh_matches_reference_unit() {
        let x = rnnasip_fixed::Q3p12::from_f64(0.75);
        let prog = Program::from_instrs(
            0,
            vec![
                addi(Reg::A0, Reg::ZERO, x.raw() as i32),
                Instr::PlTanh {
                    rd: Reg::A1,
                    rs1: Reg::A0,
                },
                Instr::PlSig {
                    rd: Reg::A2,
                    rs1: Reg::A0,
                },
                Instr::Ecall,
            ],
        );
        let mut m = Machine::new(4096);
        m.load_program(&prog);
        m.run(1000).unwrap();
        assert_eq!(
            m.core().reg(Reg::A1) as u16 as i16,
            rnnasip_fixed::hw_tanh(x).raw()
        );
        assert_eq!(
            m.core().reg(Reg::A2) as u16 as i16,
            rnnasip_fixed::hw_sig(x).raw()
        );
    }

    #[test]
    fn sdotsp_simd_semantics() {
        // pv.sdotsp.h: acc += a0*b0 + a1*b1 with signed lanes.
        let a = ((-3i16 as u16 as u32) << 16) | (2i16 as u16 as u32);
        let b = ((5i16 as u16 as u32) << 16) | (7i16 as u16 as u32);
        let dot = exec_dot(DotOp::SdotSp, SimdSize::Half, a, b);
        assert_eq!(dot as i32, 2 * 7 + (-3) * 5);
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let prog = Program::from_instrs(
            0,
            vec![Instr::Jal {
                rd: Reg::ZERO,
                offset: 0,
            }],
        );
        let mut m = Machine::new(64);
        m.load_program(&prog);
        assert!(matches!(
            m.run(100),
            Err(SimError::Watchdog { max_cycles: 100 })
        ));
    }

    #[test]
    fn fetch_fault_on_stray_pc() {
        let prog = Program::from_instrs(0, vec![addi(Reg::A0, Reg::ZERO, 1)]);
        let mut m = Machine::new(64);
        m.load_program(&prog);
        m.step().unwrap();
        // Next fetch is past the program end.
        assert!(matches!(m.step(), Err(SimError::FetchFault { pc: 4 })));
    }

    #[test]
    fn rewind_makes_reruns_bit_identical() {
        // lw a0, 0(a1); addi a0, a0, 1; sw a0, 0(a1); ecall — a program
        // whose output depends on its own previous run unless rewound.
        let prog = Program::from_instrs(
            0,
            vec![
                addi(Reg::A1, Reg::ZERO, 0x100),
                Instr::Load {
                    op: LoadOp::Lw,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 0,
                },
                addi(Reg::A0, Reg::A0, 1),
                Instr::Store {
                    op: StoreOp::Sw,
                    rs2: Reg::A0,
                    rs1: Reg::A1,
                    offset: 0,
                },
                Instr::Ecall,
            ],
        );
        let mut m = Machine::new(4096);
        m.mem_mut().write_u32(0x100, 41).unwrap();
        let image = m.mem().image();
        m.mem_mut().load_image(&image);
        m.load_program(&prog);

        m.run(1000).unwrap();
        let first_cycles = m.stats().cycles();
        assert_eq!(m.core().reg(Reg::A0), 42);
        assert_eq!(m.mem().read_u32(0x100).unwrap(), 42);

        let restored = m.rewind(&image);
        assert!(restored > 0, "the store must have dirtied memory");
        assert_eq!(m.mem().read_u32(0x100).unwrap(), 41);
        m.run(1000).unwrap();
        assert_eq!(m.core().reg(Reg::A0), 42);
        assert_eq!(m.stats().cycles(), first_cycles);
    }

    #[test]
    fn mcycle_csr_reads_cycle_counter() {
        let m = run_prog(vec![
            addi(Reg::A0, Reg::ZERO, 1),
            addi(Reg::A0, Reg::ZERO, 1),
            Instr::Csr {
                op: CsrOp::Csrrs,
                rd: Reg::A1,
                rs1: Reg::ZERO,
                csr: Csr::Mcycle,
            },
            Instr::Ecall,
        ]);
        // Two addi retired before the CSR read.
        assert_eq!(m.core().reg(Reg::A1), 2);
    }
}
