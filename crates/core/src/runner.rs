//! Compatibility facade over the compile/execute split: golden-model
//! layers in, simulated outputs and cycle statistics out.
//!
//! [`KernelBackend::run_network`] is a thin wrapper that
//! [compiles](KernelBackend::compile_network) the network and executes
//! it through a one-shot [`Engine`](crate::engine::Engine); callers that
//! run the same network repeatedly should hold on to the
//! [`CompiledNetwork`](crate::compile::CompiledNetwork) and reuse one
//! engine instead. Outputs, cycle counts and per-mnemonic histograms are
//! bit-identical either way. The per-layer entry points (`run_fc`,
//! `run_lstm`, `run_conv`, and `compile_fc` without the run) compile a
//! one-stage, one-core network through the same compile driver — they
//! exist for kernel-level experiments where compile cost is not on the
//! measured path. Only `run_fc8` stages and assembles by hand: INT8
//! layers have no network [`Stage`].

use crate::compile::{compile_stages, Session};
use crate::engine::Engine;
use crate::error::CoreError;
use crate::kernels::fc8::{emit_matvec8, Int8Kernel, Matvec8Spec};
use crate::kernels::KernelCtx;
use crate::optlevel::OptLevel;
use crate::report::RunReport;
use rnnasip_asm::Asm;
use rnnasip_fixed::{Q1p6, Q3p12};
use rnnasip_nn::{Conv2dLayer, FcLayer, FcLayer8, LstmLayer, Network, Stage};
use rnnasip_sim::Machine;

/// One executed layer: outputs plus statistics — a one-stage
/// [`NetworkRun`].
pub type LayerRun = NetworkRun;

/// One executed INT8 layer: Q1.6 outputs plus statistics.
#[derive(Clone, Debug)]
pub struct Layer8Run {
    /// The layer outputs read back from simulated memory.
    pub outputs: Vec<Q1p6>,
    /// Cycle/instruction statistics of the run.
    pub report: RunReport,
}

/// One executed network: final outputs plus statistics.
#[derive(Clone, Debug)]
pub struct NetworkRun {
    /// The network outputs.
    pub outputs: Vec<Q3p12>,
    /// Cycle/instruction statistics of the whole inference.
    pub report: RunReport,
}

/// Default watchdog budget, in cycles, for every public run path.
///
/// 64 million cycles is ~6× the whole ten-network suite at the baseline
/// level (the slowest configuration), so no legitimate inference comes
/// near it, while a wedged kernel — a corrupted loop bound, a branch
/// flipped into an infinite spin — is detected in well under a second of
/// host time instead of simulating two billion cycles before giving up.
/// Every run through [`KernelBackend`], [`Engine`](crate::Engine) or the
/// `rnnasip-rrm` `EngineCache` is bounded by this budget unless the
/// caller overrides it ([`KernelBackend::with_max_cycles`],
/// [`Engine::run_budgeted`](crate::Engine::run_budgeted)).
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 64_000_000;

/// The kernel execution backend for one optimization level.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct KernelBackend {
    level: OptLevel,
    pub(crate) mem_bytes: usize,
    pub(crate) max_cycles: u64,
    pub(crate) max_tile: usize,
    pub(crate) cores: usize,
}

impl KernelBackend {
    /// Creates a backend with 4 MiB of TCDM and the default watchdog
    /// ([`DEFAULT_WATCHDOG_CYCLES`]).
    pub fn new(level: OptLevel) -> Self {
        Self {
            level,
            mem_bytes: 4 << 20,
            max_cycles: DEFAULT_WATCHDOG_CYCLES,
            max_tile: crate::kernels::MAX_TILE,
            cores: 1,
        }
    }

    /// Targets an `n`-core cluster (at least one core; one is the
    /// default): for `n >= 2`, [`compile_network`] emits a partitioned
    /// [`ClusterProgram`](rnnasip_sim::ClusterProgram) — per-core phase
    /// kernels plus a DMA input stage — instead of the one-core,
    /// one-phase program.
    ///
    /// [`compile_network`]: KernelBackend::compile_network
    #[must_use]
    pub fn with_cores(mut self, n: usize) -> Self {
        self.cores = n.max(1);
        self
    }

    /// Switches the optimization level, keeping every other knob — the
    /// recompile step of the self-healing engine's degradation ladder.
    #[must_use]
    pub fn with_level(mut self, level: OptLevel) -> Self {
        self.level = level;
        self
    }

    /// Caps the output-tile size (1–10) — the paper's register-budget
    /// knob, exposed for the tiling ablation bench.
    #[must_use]
    pub fn with_max_tile(mut self, n: usize) -> Self {
        self.max_tile = n.clamp(1, crate::kernels::MAX_TILE);
        self
    }

    /// Overrides the TCDM size.
    #[must_use]
    pub fn with_memory(mut self, bytes: usize) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Overrides the watchdog budget.
    #[must_use]
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// The backend's optimization level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Runs a fully-connected layer.
    ///
    /// # Errors
    ///
    /// Shape, layout, assembly or simulation errors ([`CoreError`]).
    pub fn run_fc(&self, layer: &FcLayer, input: &[Q3p12]) -> Result<LayerRun, CoreError> {
        if input.len() != layer.n_in() {
            return Err(CoreError::Shape(format!(
                "input length {} != layer n_in {}",
                input.len(),
                layer.n_in()
            )));
        }
        self.run_stage(Stage::Fc(layer.clone()), &[input.to_vec()])
    }

    /// Runs an LSTM layer over a sequence, returning the final hidden
    /// state.
    ///
    /// # Errors
    ///
    /// Shape, layout, assembly or simulation errors ([`CoreError`]).
    pub fn run_lstm(
        &self,
        layer: &LstmLayer,
        sequence: &[Vec<Q3p12>],
    ) -> Result<LayerRun, CoreError> {
        let stage = Stage::Lstm {
            layer: layer.clone(),
            steps: sequence.len(),
        };
        self.run_stage(stage, sequence)
    }

    /// Runs a convolution layer on a flattened feature map.
    ///
    /// # Errors
    ///
    /// Shape, layout, assembly or simulation errors ([`CoreError`]).
    pub fn run_conv(&self, conv: &Conv2dLayer, input: &[Q3p12]) -> Result<LayerRun, CoreError> {
        if input.len() != conv.n_in() {
            return Err(CoreError::Shape(format!(
                "input length {} != conv n_in {}",
                input.len(),
                conv.n_in()
            )));
        }
        self.run_stage(Stage::Conv(conv.clone()), &[input.to_vec()])
    }

    /// Compiles `stage` alone for one core and runs it once on an
    /// [`Engine`].
    fn run_stage(&self, stage: Stage, sequence: &[Vec<Q3p12>]) -> Result<LayerRun, CoreError> {
        let compiled = compile_stages(self, "layer", std::slice::from_ref(&stage), 1)?;
        Engine::new(compiled).run(sequence)
    }

    /// Compiles a fully-connected layer to its program *without* running
    /// it — for disassembly inspection and the code-size metric (tiled
    /// levels trade code size for cycles by unrolling per-tile code).
    ///
    /// # Errors
    ///
    /// Shape, layout or assembly errors ([`CoreError`]).
    pub fn compile_fc(&self, layer: &FcLayer) -> Result<rnnasip_sim::Program, CoreError> {
        let stage = Stage::Fc(layer.clone());
        let compiled = compile_stages(self, "layer", std::slice::from_ref(&stage), 1)?;
        Ok(compiled.program().clone())
    }

    /// Runs an INT8 fully-connected layer (the future-work path) with
    /// the chosen inner-loop schedule.
    ///
    /// # Errors
    ///
    /// Shape, layout, assembly or simulation errors ([`CoreError`]).
    pub fn run_fc8(
        &self,
        layer: &FcLayer8,
        input: &[Q1p6],
        kernel: Int8Kernel,
    ) -> Result<Layer8Run, CoreError> {
        if input.len() != layer.n_in() {
            return Err(CoreError::Shape(format!(
                "input length {} != layer n_in {}",
                input.len(),
                layer.n_in()
            )));
        }
        let mut s = Session::new(self, 1)?;
        // Pad the input width to a multiple of four bytes.
        let n_in = (layer.n_in() + 3) & !3;
        let w_base = s
            .layout
            .alloc(((layer.n_out() * n_in) as u32) + crate::layout::STREAM_SLACK)?;
        for o in 0..layer.n_out() {
            s.mem.write_le(
                w_base + (o * n_in) as u32,
                layer.row(o).iter().map(|w| w.raw().to_le_bytes()),
            )?;
        }
        let bias32 = s.layout.alloc_words(layer.n_out())?;
        s.mem.write_le(
            bias32,
            layer
                .bias()
                .iter()
                .map(|b| ((b.raw() as i32) << 6).to_le_bytes()),
        )?;
        let x_base = s.layout.alloc(n_in as u32 + 4)?;
        s.mem
            .write_le(x_base, input.iter().map(|x| x.raw().to_le_bytes()))?;
        let out_base = s.layout.alloc(layer.n_out() as u32 + 4)?;
        let spec = Matvec8Spec {
            w_base,
            bias32,
            x_base,
            out_base,
            n_in,
            n_out: layer.n_out(),
            act: layer.act(),
        };
        let mut asm = Asm::new(0);
        emit_matvec8(
            &mut KernelCtx {
                asm: &mut asm,
                level: self.level,
                luts: s.luts,
                max_tile: self.max_tile,
                regions: &mut Vec::new(),
            },
            &spec,
            kernel,
        )?;
        asm.ecall();
        let mut machine = Machine::with_memory(s.mem);
        machine.load_program(&asm.assemble()?);
        let started = std::time::Instant::now();
        machine.run(self.max_cycles)?;
        let host_nanos = started.elapsed().as_nanos() as u64;
        let outputs = (0..layer.n_out())
            .map(|o| {
                machine
                    .mem()
                    .read_u8(out_base + o as u32)
                    .map(|b| Q1p6::from_raw(b as i8))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Layer8Run {
            outputs,
            report: RunReport::new(machine.stats().clone()).with_host_nanos(host_nanos),
        })
    }

    /// Runs a whole network inference.
    ///
    /// Equivalent to compiling with [`compile_network`] and running a
    /// one-shot [`Engine`](crate::engine::Engine); callers in inference
    /// loops should do that explicitly to pay compile cost once.
    ///
    /// [`compile_network`]: KernelBackend::compile_network
    ///
    /// # Errors
    ///
    /// Shape, layout, assembly or simulation errors ([`CoreError`]);
    /// [`CoreError::Shape`] for empty networks,
    /// [`CoreError::Unsupported`] for LSTM stages after the first.
    pub fn run_network(
        &self,
        net: &Network,
        sequence: &[Vec<Q3p12>],
    ) -> Result<NetworkRun, CoreError> {
        if sequence.len() != net.seq_len() {
            return Err(CoreError::Shape(format!(
                "sequence length {} != network seq_len {}",
                sequence.len(),
                net.seq_len()
            )));
        }
        Engine::new(self.compile_network(net)?).run(sequence)
    }
}
