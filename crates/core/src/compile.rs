//! The compile phase of the compile-once / run-many split.
//!
//! [`KernelBackend::compile_network`] lowers a [`Network`] into a
//! [`CompiledNetwork`]: the assembled [`Program`], the fully staged
//! initial TCDM image (weights, biases, LUTs, gather tables — with the
//! input window zero-filled), and typed descriptors saying where one
//! inference's inputs go and where its outputs come out. The artifact is
//! immutable and cheap to clone (the image is `Arc`-shared), so it can be
//! compiled once per `(network, OptLevel, max_tile)` and handed to any
//! number of [`Engine`](crate::engine::Engine)s.
//!
//! Compilation stages a zero-filled input window; because the memory
//! layout is purely shape-dependent, the staged image plus a patched
//! input is byte-for-byte the memory a fresh single-shot session would
//! have seen, which is what keeps engine runs bit-identical to the
//! legacy path (cycle counts, per-mnemonic histograms and Q3.12 outputs
//! alike — asserted by `crates/bench/tests/engine_differential.rs`).

use crate::error::CoreError;
use crate::kernels::conv::{emit_conv, ConvSpec};
use crate::kernels::fc::emit_matvec;
use crate::kernels::lstm::{emit_lstm, LstmSpec};
use crate::kernels::{KernelCtx, MatvecSpec, PtrSrc};
use crate::layout::DataLayout;
use crate::optlevel::OptLevel;
use crate::runner::KernelBackend;
use rnnasip_asm::Asm;
use rnnasip_fixed::Q3p12;
use rnnasip_nn::{Act, Conv2dLayer, FcLayer, LstmLayer, Matrix, Network, Stage};
use rnnasip_sim::{
    ClusterKernel, ClusterPhase, ClusterProgram, GuardSpec, Machine, MemImage, Program, UopProgram,
};
use std::sync::Arc;
use std::time::Instant;

/// First data address in the TCDM (code addresses live below it; the
/// simulator fetches from the decoded program image, so the split is a
/// realism convention, not a correctness requirement).
pub(crate) const DATA_BASE: u32 = 0x10000;

/// Where one inference's input sequence lives in the staged image.
///
/// The sequence is contiguous: step `t`, element `k` is the halfword at
/// `base + 2 * (t * width + k)`. Networks without an LSTM front have
/// `steps == 1`.
#[derive(Clone, Copy, Debug)]
pub struct InputDesc {
    pub(crate) base: u32,
    pub(crate) width: usize,
    pub(crate) steps: usize,
}

impl InputDesc {
    /// Byte address of the input window.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Elements per sequence step (the network's `n_in`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sequence steps per inference (the network's `seq_len`).
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// Where one inference's outputs are read from.
#[derive(Clone, Copy, Debug)]
pub struct OutputDesc {
    pub(crate) base: u32,
    pub(crate) len: usize,
}

impl OutputDesc {
    /// Byte address of the output buffer.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of Q3.12 output elements (the network's `n_out`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the network produces no outputs (never true for networks
    /// built from non-degenerate layers).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Host nanoseconds spent in each stage of one compile
/// ([`CompiledNetwork::stage_nanos`]). The stages run in this order and
/// together make up [`CompiledNetwork::compile_nanos`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStages {
    /// Layout, staging of weights, biases and tables, kernel emission.
    pub codegen: u64,
    /// Assembling the emitted kernels.
    pub assemble: u64,
    /// Snapshotting the staged TCDM image.
    pub snapshot: u64,
    /// Folding the ABFT guard checksums from the clean image.
    pub guard_fold: u64,
    /// Lowering to micro-ops (loop bodies, straight runs).
    pub lower: u64,
    /// Verifying and installing kernel-shortcut regions.
    pub verify: u64,
}

impl std::ops::AddAssign for CompileStages {
    fn add_assign(&mut self, o: Self) {
        self.codegen += o.codegen;
        self.assemble += o.assemble;
        self.snapshot += o.snapshot;
        self.guard_fold += o.guard_fold;
        self.lower += o.lower;
        self.verify += o.verify;
    }
}

impl CompileStages {
    /// Sum over all stages.
    pub fn total(&self) -> u64 {
        self.codegen + self.assemble + self.snapshot + self.guard_fold + self.lower + self.verify
    }

    /// Adds the micro-op translation of one program: its verification
    /// time, and the rest of `translate_nanos` as lowering.
    pub(crate) fn add_translation(&mut self, translate_nanos: u64, uops: &UopProgram) {
        self.verify += uops.verify_nanos();
        self.lower += translate_nanos.saturating_sub(uops.verify_nanos());
    }
}

/// Nanoseconds since `*mark`, moving the mark to now.
pub(crate) fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let nanos = now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
    nanos
}

/// A network compiled for one `(OptLevel, max_tile, cores)`
/// configuration: the cluster program (one phase with one kernel on a
/// single core), the staged initial TCDM image, and input/output
/// descriptors.
///
/// Produce with [`KernelBackend::compile_network`]; execute with an
/// [`Engine`](crate::engine::Engine). Cloning is cheap — the image bytes
/// and kernels are shared — so one artifact can fan out to per-worker
/// engines.
#[derive(Clone, Debug)]
pub struct CompiledNetwork {
    pub(crate) image: MemImage,
    /// The executable lowering: per-core phase kernels (each program
    /// with its micro-op translation, built once here so every engine
    /// instantiated from this artifact shares it) plus DMA descriptors.
    pub(crate) cluster: Arc<ClusterProgram>,
    /// Every kernel's ABFT guard specs (column-checksum rows folded from
    /// the clean staged image) in [`ClusterProgram::kernels`] order — the
    /// row order of a guarded run's report.
    pub(crate) guards: Arc<Vec<GuardSpec>>,
    pub(crate) input: InputDesc,
    pub(crate) output: OutputDesc,
    pub(crate) level: OptLevel,
    pub(crate) max_tile: usize,
    pub(crate) max_cycles: u64,
    pub(crate) name: String,
    pub(crate) stages: CompileStages,
}

impl CompiledNetwork {
    /// The whole network on one core; core 0's first phase on a cluster.
    fn first_kernel(&self) -> &ClusterKernel {
        self.cluster
            .kernels()
            .next()
            .expect("a compiled network has at least one kernel")
    }

    /// The assembled kernel program of a one-core artifact (core 0's
    /// first phase program on a cluster).
    pub fn program(&self) -> &Program {
        &self.first_kernel().program
    }

    /// The shared micro-op translation of [`program`](Self::program).
    pub fn uop_program(&self) -> &Arc<UopProgram> {
        &self.first_kernel().uops
    }

    /// The staged initial memory image (weights loaded, inputs zeroed).
    pub fn image(&self) -> &MemImage {
        &self.image
    }

    /// Where inputs are patched before each run.
    pub fn input(&self) -> InputDesc {
        self.input
    }

    /// Where outputs are read after each run.
    pub fn output(&self) -> OutputDesc {
        self.output
    }

    /// The optimization level this network was compiled for.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// The cluster program engines execute.
    pub fn cluster(&self) -> &Arc<ClusterProgram> {
        &self.cluster
    }

    /// The compile-time ABFT guard specs, in guard-report row order.
    pub fn guards(&self) -> &Arc<Vec<GuardSpec>> {
        &self.guards
    }

    /// How many cluster cores this artifact executes on.
    pub fn cores(&self) -> usize {
        self.cluster.cores
    }

    /// The output-tile cap this network was compiled with.
    pub fn max_tile(&self) -> usize {
        self.max_tile
    }

    /// The watchdog budget engines will run with.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// The source network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Host nanoseconds spent compiling, all stages together.
    pub fn compile_nanos(&self) -> u64 {
        self.stages.total()
    }

    /// Host nanoseconds spent compiling, per stage.
    pub fn stage_nanos(&self) -> CompileStages {
        self.stages
    }

    /// Convenience: a fresh [`Engine`](crate::engine::Engine) over a
    /// clone of this artifact.
    pub fn engine(&self) -> crate::engine::Engine {
        crate::engine::Engine::new(self.clone())
    }

    /// A clone of this artifact whose micro-op translations carry **no**
    /// shortcut regions, so engines built from it always execute the
    /// plain micro-op tier. This is the control arm for the
    /// shortcut-vs-uop differential tests and benchmarks.
    pub fn without_shortcuts(&self) -> Self {
        let mut plain = (*self.cluster).clone();
        for kernel in plain
            .phases
            .iter_mut()
            .flat_map(|p| p.kernels.iter_mut().flatten())
        {
            kernel.uops = Arc::new(UopProgram::translate(&kernel.program));
        }
        Self {
            cluster: Arc::new(plain),
            ..self.clone()
        }
    }
}

impl KernelBackend {
    /// Compiles a network once for this backend's `(level, max_tile)`:
    /// emits and assembles all stage kernels, stages every weight
    /// matrix, bias vector and lookup table into a fresh TCDM image, and
    /// records where inputs are patched and outputs read.
    ///
    /// The input window is staged zero-filled; the memory layout depends
    /// only on shapes, so an [`Engine`](crate::engine::Engine) patching
    /// real inputs reproduces the legacy single-shot path bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`CoreError::Shape`] for empty networks or kernel-incompatible
    /// shapes, [`CoreError::Unsupported`] for LSTM stages after the
    /// first, plus layout/assembly errors.
    pub fn compile_network(&self, net: &Network) -> Result<CompiledNetwork, CoreError> {
        if self.cores == 1 {
            compile_stages(self, net.name(), net.stages())
        } else {
            crate::partition::compile_clustered(self, net.name(), net.stages(), self.cores)
        }
    }
}

/// The compile pipeline over a raw stage list.
///
/// Split out from [`KernelBackend::compile_network`] so the empty-network
/// guard is unit-testable: [`Network::new`] itself rejects empty stage
/// lists, making the error unreachable through the public `Network` API.
pub(crate) fn compile_stages(
    backend: &KernelBackend,
    name: &str,
    stages: &[Stage],
) -> Result<CompiledNetwork, CoreError> {
    let mut mark = Instant::now();
    let mut s = Session::new(backend)?;
    let mut iter = stages.iter();
    let Some(first) = iter.next() else {
        return Err(CoreError::Shape("network has no stages".into()));
    };
    // The first stage owns the input window; it is staged zero-filled
    // at exactly the layout position the legacy path staged real inputs.
    let (input, mut cur_addr, mut cur_width) = match first {
        Stage::Lstm { layer, steps } => {
            let zeros = vec![vec![Q3p12::ZERO; layer.n_in()]; *steps];
            let (h_addr, x_seq) = s.emit_lstm_stage(layer, &zeros)?;
            (
                InputDesc {
                    base: x_seq,
                    width: layer.n_in(),
                    steps: *steps,
                },
                h_addr,
                layer.n_hidden(),
            )
        }
        Stage::Fc(layer) => {
            let zeros = vec![Q3p12::ZERO; layer.n_in()];
            let (out, x_addr) = s.emit_fc_stage(layer, StageInput::Staged(zeros))?;
            (
                InputDesc {
                    base: x_addr,
                    width: layer.n_in(),
                    steps: 1,
                },
                out,
                layer.n_out(),
            )
        }
        Stage::Conv(conv) => {
            let zeros = vec![Q3p12::ZERO; conv.n_in()];
            let src = s.stage_vector(&zeros)?;
            let out = s.emit_conv_stage(conv, src, zeros.len())?;
            (
                InputDesc {
                    base: src,
                    width: conv.n_in(),
                    steps: 1,
                },
                out,
                conv.n_out(),
            )
        }
    };
    for stage in iter {
        match stage {
            Stage::Fc(layer) => {
                cur_addr = s.emit_fc_stage(layer, StageInput::Buffer(cur_addr))?.0;
                cur_width = layer.n_out();
            }
            Stage::Conv(conv) => {
                cur_addr = s.emit_conv_stage(conv, cur_addr, cur_width)?;
                cur_width = conv.n_out();
            }
            Stage::Lstm { .. } => {
                // The code generator chains stages through a single
                // activation buffer; an LSTM needs a whole buffered
                // sequence, which no mid-network stage produces. See
                // DESIGN.md ("Compile/execute split") for the contract.
                return Err(CoreError::Unsupported(
                    "LSTM stages are only supported as the first stage".into(),
                ));
            }
        }
    }
    let regions = std::mem::take(&mut s.regions);
    let mut timing = CompileStages {
        codegen: lap(&mut mark),
        ..CompileStages::default()
    };
    let (program, machine) = s.into_program()?;
    timing.assemble = lap(&mut mark);
    let image = machine.mem().image();
    timing.snapshot = lap(&mut mark);
    // Fold the guard checksums from the *clean* staged weights, before
    // any input patching or fault injection can touch the image: this
    // is what makes the run-time check sensitive to later corruption.
    let guards = Arc::new(
        regions
            .iter()
            .filter_map(|r| GuardSpec::from_region(machine.mem(), r))
            .collect::<Vec<_>>(),
    );
    timing.guard_fold = lap(&mut mark);
    // The staging TCDM (`machine`) must outlive the artifact's own
    // allocations (it is freed on return): freed before them, whether
    // they split its chunk would depend on the heap's history, and so
    // would peak RSS.
    let uops = Arc::new(UopProgram::translate_with_shortcuts(&program, &regions));
    timing.add_translation(lap(&mut mark), &uops);
    let kernel = ClusterKernel {
        program: Arc::new(program),
        uops,
        guards: Arc::clone(&guards),
    };
    Ok(CompiledNetwork {
        image,
        cluster: Arc::new(ClusterProgram {
            cores: 1,
            dma: Vec::new(),
            phases: vec![ClusterPhase {
                label: "whole network".into(),
                kernels: vec![Some(kernel)],
            }],
        }),
        guards,
        input,
        output: OutputDesc {
            base: cur_addr,
            len: cur_width,
        },
        level: backend.level(),
        max_tile: backend.max_tile,
        max_cycles: backend.max_cycles,
        name: name.to_string(),
        stages: timing,
    })
}

/// Where an FC stage's input comes from.
pub(crate) enum StageInput {
    /// Values staged by the host into a fresh buffer.
    Staged(Vec<Q3p12>),
    /// An existing buffer produced by a previous stage.
    Buffer(u32),
}

/// Where one FC stage's data landed in the staged image: everything
/// needed to emit the matvec kernel — whole, or sliced by output rows
/// for cluster partitioning.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FcPlacement {
    pub(crate) w_base: u32,
    pub(crate) bias32: u32,
    pub(crate) x_addr: u32,
    pub(crate) out: u32,
    /// Padded input width (even at packed-SIMD levels).
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    pub(crate) act: Act,
}

impl FcPlacement {
    /// The matvec spec covering output rows `[row0, row0 + rows)`.
    ///
    /// Rows are independent: slicing only offsets the weight, bias and
    /// output bases, so a full-range slice emits exactly the single-core
    /// kernel.
    pub(crate) fn matvec_rows(&self, row0: usize, rows: usize, scratch: u32) -> MatvecSpec {
        MatvecSpec {
            w_base: self.w_base + (row0 * self.n_in * 2) as u32,
            bias32: self.bias32 + (row0 * 4) as u32,
            x: PtrSrc::Const(self.x_addr),
            out: PtrSrc::Const(self.out + (row0 * 2) as u32),
            out_stride: 2,
            n_in: self.n_in,
            n_out: rows,
            act: self.act,
            scratch,
        }
    }
}

/// A compilation session: one assembler, one bump layout, one machine
/// whose memory doubles as the staging area.
pub(crate) struct Session {
    pub(crate) machine: Machine,
    pub(crate) asm: Asm,
    pub(crate) layout: DataLayout,
    pub(crate) luts: (u32, u32, u32, u32),
    pub(crate) scratch: u32,
    pub(crate) level: OptLevel,
    pub(crate) max_tile: usize,
    pub(crate) regions: Vec<rnnasip_sim::KernelRegion>,
}

impl Session {
    pub(crate) fn new(backend: &KernelBackend) -> Result<Self, CoreError> {
        let mut machine = Machine::new(backend.mem_bytes);
        let mut layout = DataLayout::new(DATA_BASE, backend.mem_bytes);
        let luts = layout.stage_pla_luts(machine.mem_mut())?;
        let scratch = layout.alloc_words(1)?;
        Ok(Self {
            machine,
            asm: Asm::new(0),
            layout,
            luts,
            scratch,
            level: backend.level(),
            max_tile: backend.max_tile,
            regions: Vec::new(),
        })
    }

    pub(crate) fn ctx(&mut self) -> KernelCtx<'_> {
        KernelCtx {
            asm: &mut self.asm,
            level: self.level,
            luts: self.luts,
            max_tile: self.max_tile,
            regions: &mut self.regions,
        }
    }

    /// Stages a vector with one trailing zero halfword of padding slack.
    pub(crate) fn stage_vector(&mut self, values: &[Q3p12]) -> Result<u32, CoreError> {
        let addr = self.layout.alloc_halves(values.len() + 1)?;
        self.layout.stage_q(self.machine.mem_mut(), addr, values)?;
        Ok(addr)
    }

    /// Allocates an output buffer with one trailing zero halfword.
    fn alloc_buffer(&mut self, len: usize) -> Result<u32, CoreError> {
        self.layout.alloc_halves(len + 1)
    }

    /// Pads a weight matrix to an even column count (appending a zero
    /// column whose input counterpart is the buffer's trailing zero).
    fn pad_even(m: &Matrix) -> Matrix {
        if m.cols().is_multiple_of(2) {
            return m.clone();
        }
        let mut data = Vec::with_capacity(m.rows() * (m.cols() + 1));
        for r in 0..m.rows() {
            data.extend_from_slice(m.row(r));
            data.push(Q3p12::ZERO);
        }
        Matrix::new(m.rows(), m.cols() + 1, data)
    }

    /// Stages one FC stage's data (weights, bias, input and output
    /// buffers) without emitting any code; the placement is enough to
    /// emit the kernel — whole or as per-core row slices.
    pub(crate) fn stage_fc_data(
        &mut self,
        layer: &FcLayer,
        input: StageInput,
    ) -> Result<FcPlacement, CoreError> {
        let weights = Self::pad_even(layer.weights());
        let w_base = self.layout.alloc_matrix(&weights)?;
        self.layout
            .stage_matrix(self.machine.mem_mut(), w_base, &weights)?;
        let bias32 = self.layout.alloc_words(layer.n_out())?;
        self.layout
            .stage_bias32(self.machine.mem_mut(), bias32, layer.bias())?;
        let x_addr = match input {
            StageInput::Staged(values) => self.stage_vector(&values)?,
            StageInput::Buffer(addr) => addr,
        };
        let out = self.alloc_buffer(layer.n_out())?;
        Ok(FcPlacement {
            w_base,
            bias32,
            x_addr,
            out,
            n_in: weights.cols(),
            n_out: layer.n_out(),
            act: layer.act(),
        })
    }

    /// Emits one FC stage; returns `(output buffer, input buffer)`
    /// addresses.
    pub(crate) fn emit_fc_stage(
        &mut self,
        layer: &FcLayer,
        input: StageInput,
    ) -> Result<(u32, u32), CoreError> {
        let p = self.stage_fc_data(layer, input)?;
        let spec = p.matvec_rows(0, p.n_out, self.scratch);
        let mut ctx = self.ctx();
        emit_matvec(&mut ctx, &spec)?;
        Ok((p.out, p.x_addr))
    }

    /// Stages one LSTM stage's data (combined gate matrices, biases,
    /// gate/state buffers, input sequence, loop globals) without
    /// emitting code; the returned spec places every buffer the kernel
    /// — whole or partitioned — needs.
    pub(crate) fn stage_lstm_data(
        &mut self,
        layer: &LstmLayer,
        sequence: &[Vec<Q3p12>],
    ) -> Result<LstmSpec, CoreError> {
        let (m, n) = (layer.n_in(), layer.n_hidden());
        if m % 2 != 0 || n % 2 != 0 {
            return Err(CoreError::Shape(format!(
                "LSTM widths must be even, got {m}x{n}"
            )));
        }
        if sequence.is_empty() {
            return Err(CoreError::Shape("empty LSTM sequence".into()));
        }
        for x in sequence {
            if x.len() != m {
                return Err(CoreError::Shape("LSTM sequence width mismatch".into()));
            }
        }
        // Combined per-gate weight matrices [Wx ‖ Wh].
        let mut gates_w = [0u32; 4];
        let mut gates_b32 = [0u32; 4];
        let mut gate_bufs = [0u32; 4];
        for g in 0..4 {
            let mut data = Vec::with_capacity(n * (m + n));
            for j in 0..n {
                data.extend_from_slice(layer.wx(g).row(j));
                data.extend_from_slice(layer.wh(g).row(j));
            }
            let combined = Matrix::new(n, m + n, data);
            let w = self.layout.alloc_matrix(&combined)?;
            self.layout
                .stage_matrix(self.machine.mem_mut(), w, &combined)?;
            gates_w[g] = w;
            let b = self.layout.alloc_words(n)?;
            self.layout
                .stage_bias32(self.machine.mem_mut(), b, layer.bias(g))?;
            gates_b32[g] = b;
            gate_bufs[g] = self.alloc_buffer(n)?;
        }
        let xh = self.alloc_buffer(m + n)?;
        let c_buf = self.alloc_buffer(n)?;
        // The whole sequence, contiguous.
        let x_seq = self.layout.alloc_halves(sequence.len() * m)?;
        for (t, x) in sequence.iter().enumerate() {
            self.layout
                .stage_q(self.machine.mem_mut(), x_seq + (t * m * 2) as u32, x)?;
        }
        let g_xptr = self.layout.alloc_words(1)?;
        let g_steps = self.layout.alloc_words(1)?;
        let spec = LstmSpec {
            gates_w,
            gates_b32,
            gate_bufs,
            xh,
            c_buf,
            x_seq,
            g_xptr,
            g_steps,
            steps: sequence.len(),
            n_in: m,
            n_hidden: n,
            scratch: self.scratch,
        };
        Ok(spec)
    }

    /// Emits one LSTM stage; returns `(final hidden state, staged input
    /// sequence)` addresses.
    pub(crate) fn emit_lstm_stage(
        &mut self,
        layer: &LstmLayer,
        sequence: &[Vec<Q3p12>],
    ) -> Result<(u32, u32), CoreError> {
        let spec = self.stage_lstm_data(layer, sequence)?;
        let mut ctx = self.ctx();
        emit_lstm(&mut ctx, &spec)?;
        Ok((spec.h_addr(), spec.x_seq))
    }

    /// Stages one convolution stage's data (weights, bias, gather index
    /// table, im2col column buffer, output buffer, pixel-loop globals)
    /// without emitting code.
    pub(crate) fn stage_conv_data(
        &mut self,
        conv: &Conv2dLayer,
        src: u32,
        src_len: usize,
    ) -> Result<ConvSpec, CoreError> {
        if src_len != conv.n_in() {
            return Err(CoreError::Shape(format!(
                "conv input width {} != staged buffer {}",
                conv.n_in(),
                src_len
            )));
        }
        let weights = Self::pad_even(conv.weights());
        let taps = weights.cols();
        let n_pix = conv.out_h() * conv.out_w();
        if 2 * (src_len + 1) > 32767 {
            return Err(CoreError::Shape(
                "conv source exceeds the 16-bit gather-offset range".into(),
            ));
        }
        let w_base = self.layout.alloc_matrix(&weights)?;
        self.layout
            .stage_matrix(self.machine.mem_mut(), w_base, &weights)?;
        let bias32 = self.layout.alloc_words(conv.out_ch())?;
        self.layout
            .stage_bias32(self.machine.mem_mut(), bias32, conv.bias())?;

        // Gather index table (+1 slack entry for the software pipeline).
        let offsets = conv_gather_offsets(conv, taps, src_len);
        let idx_base = self.layout.alloc_halves(offsets.len() + 1)?;
        for (k, off) in offsets.iter().enumerate() {
            self.machine
                .mem_mut()
                .write_u16(idx_base + 2 * k as u32, *off)?;
        }
        let cols_base = self.layout.alloc_halves(n_pix * taps)?;
        let out = self.alloc_buffer(conv.out_ch() * n_pix)?;
        let g_pix = self.layout.alloc_words(1)?;
        let g_out = self.layout.alloc_words(1)?;
        let g_cnt = self.layout.alloc_words(1)?;
        let spec = ConvSpec {
            w_base,
            bias32,
            src,
            idx_base,
            cols_base,
            out_base: out,
            g_pix,
            g_out,
            g_cnt,
            n_pix,
            taps,
            out_ch: conv.out_ch(),
            act: conv.act(),
            scratch: self.scratch,
        };
        Ok(spec)
    }

    /// Emits one convolution stage reading from `src` (a buffer of
    /// `src_len` halfwords with a zeroed trailing slack element);
    /// returns the output buffer address.
    pub(crate) fn emit_conv_stage(
        &mut self,
        conv: &Conv2dLayer,
        src: u32,
        src_len: usize,
    ) -> Result<u32, CoreError> {
        let spec = self.stage_conv_data(conv, src, src_len)?;
        let mut ctx = self.ctx();
        emit_conv(&mut ctx, &spec)?;
        Ok(spec.out_base)
    }

    /// Appends the halt and assembles, handing back the program and the
    /// machine whose memory holds the staged image.
    pub(crate) fn into_program(mut self) -> Result<(Program, Machine), CoreError> {
        self.asm.ecall();
        let prog = self.asm.assemble()?;
        Ok((prog, self.machine))
    }
}

/// Builds the im2col gather offsets (bytes into the source buffer),
/// pixel-major, in exactly the tap order of the golden model's
/// [`Conv2dLayer::im2col`]; padded taps point at the source's trailing
/// zero element.
fn conv_gather_offsets(conv: &Conv2dLayer, taps: usize, src_len: usize) -> Vec<u16> {
    let (oh, ow) = (conv.out_h(), conv.out_w());
    let real_taps = conv.weights().cols();
    let zero_off = (2 * src_len) as u16;
    let mut offsets = Vec::with_capacity(oh * ow * taps);
    let (stride, pad) = (conv.stride() as isize, conv.pad() as isize);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..conv.in_ch() {
                for ky in 0..conv.kh() {
                    for kx in 0..conv.kw() {
                        let iy = oy as isize * stride + ky as isize - pad;
                        let ix = ox as isize * stride + kx as isize - pad;
                        if iy < 0
                            || ix < 0
                            || iy >= conv.in_h() as isize
                            || ix >= conv.in_w() as isize
                        {
                            // Padded tap: gather the staged zero element.
                            offsets.push(zero_off);
                        } else {
                            let idx = (c * conv.in_h() + iy as usize) * conv.in_w() + ix as usize;
                            offsets.push((2 * idx) as u16);
                        }
                    }
                }
            }
            for _ in real_taps..taps {
                offsets.push(zero_off);
            }
        }
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fc(n_out: usize, n_in: usize) -> FcLayer {
        FcLayer::new(
            Matrix::zeros(n_out, n_in),
            vec![Q3p12::ZERO; n_out],
            Act::Relu,
        )
    }

    fn lstm(m: usize, n: usize) -> LstmLayer {
        LstmLayer::new(
            std::array::from_fn(|_| Matrix::zeros(n, m)),
            std::array::from_fn(|_| Matrix::zeros(n, n)),
            std::array::from_fn(|_| vec![Q3p12::ZERO; n]),
        )
    }

    #[test]
    fn empty_network_is_a_shape_error_not_a_panic() {
        let backend = KernelBackend::new(OptLevel::Baseline);
        match compile_stages(&backend, "empty", &[]) {
            Err(CoreError::Shape(msg)) => assert!(msg.contains("no stages"), "{msg}"),
            other => panic!("expected Shape error, got {other:?}"),
        }
    }

    #[test]
    fn mid_network_lstm_is_unsupported_not_shape() {
        let stages = vec![
            Stage::Fc(fc(8, 8)),
            Stage::Lstm {
                layer: lstm(8, 8),
                steps: 2,
            },
        ];
        let backend = KernelBackend::new(OptLevel::Baseline);
        match compile_stages(&backend, "mid-lstm", &stages) {
            Err(CoreError::Unsupported(msg)) => assert!(msg.contains("LSTM"), "{msg}"),
            other => panic!("expected Unsupported error, got {other:?}"),
        }
    }

    #[test]
    fn compiled_descriptors_match_network_shape() {
        let net = Network::new(
            "probe",
            vec![
                Stage::Lstm {
                    layer: lstm(8, 16),
                    steps: 3,
                },
                Stage::Fc(fc(4, 16)),
            ],
        );
        let compiled = KernelBackend::new(OptLevel::IfmTile)
            .compile_network(&net)
            .unwrap();
        assert_eq!(compiled.input().width(), 8);
        assert_eq!(compiled.input().steps(), 3);
        assert_eq!(compiled.output().len(), 4);
        assert_eq!(compiled.name(), "probe");
        assert!(compiled.image().len() >= DATA_BASE as usize);
    }
}
