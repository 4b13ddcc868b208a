//! Partitioning one network across the cores of a simulated PULP
//! cluster.
//!
//! A [`Partition`] declares, per stage, how the stage's parallel axis is
//! sliced across cores — output neurons for FC and LSTM stages, output
//! pixels for convolutions. [`compile_clustered`] then lowers the
//! network into a [`ClusterProgram`]: data staged *once* into the shared
//! TCDM (the same bump layout the single-core compiler uses), a DMA
//! descriptor that moves each inference's input from an L2 staging area
//! into the kernel's input window, and one small phase program per
//! `(phase, core)` whose address constants point at that core's slice.
//!
//! Phase boundaries are exactly the data dependencies:
//!
//! * an FC or convolution stage is one phase — every core reads the
//!   previous stage's full output (written before the phase started) and
//!   writes a disjoint slice of the stage output;
//! * an LSTM stage is two phases per time step: core 0 copies `x_t` into
//!   the combined `[x‖h]` buffer (every core reads it next phase), then
//!   each core computes its hidden-row slice — four gate matvec slices
//!   plus the element-wise update — writing disjoint `c`/`h` rows.
//!
//! Within a phase, writes are disjoint and reads touch only pre-phase
//! data (plus the core's own writes), so running cores one after another
//! over the shared memory produces bit-identical results to true
//! lockstep execution; the cluster's timing model layers conflict
//! stalls, DMA and barrier costs on top without touching the data path.

use crate::compile::{
    lap, CompileStages, CompiledNetwork, InputDesc, OutputDesc, Session, StageInput,
};
use crate::error::CoreError;
use crate::kernels::conv::{emit_gather_range, emit_pixel_loop_range};
use crate::kernels::fc::emit_matvec;
use crate::kernels::lstm::{emit_update_rows, emit_word_copy};
use crate::optlevel::OptLevel;
use crate::runner::KernelBackend;
use rnnasip_asm::Asm;
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Stage;
use rnnasip_sim::{
    ClusterKernel, ClusterPhase, ClusterProgram, DmaXfer, GuardSpec, Memory, UopProgram,
};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// How one stage's parallel axis is split across cluster cores.
#[derive(Clone, Debug)]
pub struct StageSplit {
    /// Human-readable stage label (`"fc 500->82"`, `"lstm 32x64 x10"`).
    pub label: String,
    /// Per-core `[start, end)` ranges over the stage's parallel axis:
    /// output neurons for FC stages, hidden rows for LSTM stages, output
    /// pixels for convolutions. Cores past the axis get empty ranges
    /// (and no kernel).
    pub ranges: Vec<(usize, usize)>,
}

/// The declared layer/tile partition of a network over an `N`-core
/// cluster: one [`StageSplit`] per network stage.
///
/// Built by [`Partition::plan`] with a balanced contiguous split —
/// every core gets `⌊axis/N⌋` or `⌈axis/N⌉` consecutive rows/pixels —
/// and consumed by [`KernelBackend::compile_network`] for two or more
/// cores, which turns each range into a per-core phase program.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Cluster width the plan was built for.
    pub cores: usize,
    /// One split per network stage, in stage order.
    pub stages: Vec<StageSplit>,
}

impl Partition {
    /// Plans a balanced contiguous split of every stage across `cores`.
    pub fn plan(stages: &[Stage], cores: usize) -> Self {
        let cores = cores.max(1);
        let stages = stages
            .iter()
            .map(|stage| {
                let (label, axis) = match stage {
                    Stage::Fc(l) => (format!("fc {}->{}", l.n_in(), l.n_out()), l.n_out()),
                    Stage::Lstm { layer, steps } => (
                        format!("lstm {}x{} x{}", layer.n_in(), layer.n_hidden(), steps),
                        layer.n_hidden(),
                    ),
                    Stage::Conv(c) => (
                        format!(
                            "conv {}x{}x{} -> {}",
                            c.in_ch(),
                            c.in_h(),
                            c.in_w(),
                            c.out_ch()
                        ),
                        c.out_h() * c.out_w(),
                    ),
                };
                StageSplit {
                    label,
                    ranges: split_even(axis, cores),
                }
            })
            .collect();
        Self { cores, stages }
    }
}

/// Balanced contiguous `[start, end)` ranges covering `0..n` across
/// `cores` slots; the first `n % cores` slots get one extra element.
fn split_even(n: usize, cores: usize) -> Vec<(usize, usize)> {
    let base = n / cores;
    let rem = n % cores;
    let mut start = 0;
    (0..cores)
        .map(|c| {
            let len = base + usize::from(c < rem);
            let range = (start, start + len);
            start += len;
            range
        })
        .collect()
}

/// Assembles one per-core phase kernel: fresh assembler, fresh shortcut
/// region list, halt appended, guard specs folded from the staged
/// weights in `mem`, micro-ops translated with shortcuts.
fn build_kernel<F>(
    level: OptLevel,
    luts: (u32, u32, u32, u32),
    max_tile: usize,
    timing: &Cell<CompileStages>,
    mem: &Memory,
    emit: F,
) -> Result<ClusterKernel, CoreError>
where
    F: FnOnce(&mut crate::kernels::KernelCtx<'_>) -> Result<(), CoreError>,
{
    let mut asm = Asm::new(0);
    let mut regions = Vec::new();
    {
        let mut ctx = crate::kernels::KernelCtx {
            asm: &mut asm,
            level,
            luts,
            max_tile,
            regions: &mut regions,
        };
        emit(&mut ctx)?;
    }
    let mut mark = Instant::now();
    let mut t = timing.get();
    asm.ecall();
    let program = asm.assemble()?;
    t.assemble += lap(&mut mark);
    // A kernel's weights and biases are staged before it is emitted and
    // never written afterwards, so folding now reads the clean image.
    let guards = regions
        .iter()
        .filter_map(|r| GuardSpec::from_region(mem, r))
        .collect();
    t.guard_fold += lap(&mut mark);
    let uops = Arc::new(UopProgram::translate_with_shortcuts(&program, &regions));
    t.add_translation(lap(&mut mark), &uops);
    timing.set(t);
    Ok(ClusterKernel {
        program: Arc::new(program),
        uops,
        guards: Arc::new(guards),
    })
}

/// Compiles a network for an `cores`-core cluster (`cores >= 2`): data
/// staged once, per-core phase programs following the [`Partition`]
/// plan, the input relocated behind an L2 staging area and a DMA
/// descriptor.
///
/// # Errors
///
/// Everything the one-core `compile_stages` can raise, for the same
/// shapes.
pub(crate) fn compile_clustered(
    backend: &KernelBackend,
    name: &str,
    stages: &[Stage],
    cores: usize,
) -> Result<CompiledNetwork, CoreError> {
    let mut mark = Instant::now();
    let timing = Cell::new(CompileStages::default());
    let mut s = Session::new(backend)?;
    let plan = Partition::plan(stages, cores);
    // Per-core baseline spill scratch: one shared cell would be a
    // same-phase write collision under true lockstep.
    let mut scratches = vec![s.scratch];
    for _ in 1..cores {
        scratches.push(s.layout.alloc_words(1)?);
    }
    let (level, luts, max_tile) = (s.level, s.luts, s.max_tile);
    let kernel = |mem: &Memory,
                  emit: &mut dyn FnMut(
        &mut crate::kernels::KernelCtx<'_>,
    ) -> Result<(), CoreError>| {
        build_kernel(level, luts, max_tile, &timing, mem, |ctx| emit(ctx))
    };

    let mut phases: Vec<ClusterPhase> = Vec::new();
    let mut iter = stages.iter().zip(&plan.stages);
    let Some((first, first_split)) = iter.next() else {
        return Err(CoreError::Shape("network has no stages".into()));
    };
    // Stage the first stage's data and emit its phases; remember where
    // the per-inference input window lives so the DMA can target it.
    let (window, width, steps, mut cur_addr, mut cur_width) = match first {
        Stage::Lstm { layer, steps } => {
            let zeros = vec![vec![Q3p12::ZERO; layer.n_in()]; *steps];
            let spec = s.stage_lstm_data(layer, &zeros)?;
            let mem = s.machine.mem();
            emit_lstm_phases(&mut phases, &spec, first_split, &scratches, mem, &kernel)?;
            (
                spec.x_seq,
                layer.n_in(),
                *steps,
                spec.h_addr(),
                layer.n_hidden(),
            )
        }
        Stage::Fc(layer) => {
            let zeros = vec![Q3p12::ZERO; layer.n_in()];
            let p = s.stage_fc_data(layer, StageInput::Staged(zeros))?;
            let mem = s.machine.mem();
            emit_fc_phase(&mut phases, &p, first_split, &scratches, mem, &kernel)?;
            (p.x_addr, layer.n_in(), 1, p.out, layer.n_out())
        }
        Stage::Conv(conv) => {
            let zeros = vec![Q3p12::ZERO; conv.n_in()];
            let src = s.stage_vector(&zeros)?;
            let spec = s.stage_conv_data(conv, src, zeros.len())?;
            let globals = conv_core_globals(&mut s, &spec, cores)?;
            let mem = s.machine.mem();
            emit_conv_phase(
                &mut phases,
                &spec,
                &globals,
                first_split,
                &scratches,
                mem,
                &kernel,
            )?;
            (src, conv.n_in(), 1, spec.out_base, conv.n_out())
        }
    };
    for (stage, split) in iter {
        match stage {
            Stage::Fc(layer) => {
                let p = s.stage_fc_data(layer, StageInput::Buffer(cur_addr))?;
                let mem = s.machine.mem();
                emit_fc_phase(&mut phases, &p, split, &scratches, mem, &kernel)?;
                cur_addr = p.out;
                cur_width = layer.n_out();
            }
            Stage::Conv(conv) => {
                let spec = s.stage_conv_data(conv, cur_addr, cur_width)?;
                let globals = conv_core_globals(&mut s, &spec, cores)?;
                let mem = s.machine.mem();
                emit_conv_phase(
                    &mut phases,
                    &spec,
                    &globals,
                    split,
                    &scratches,
                    mem,
                    &kernel,
                )?;
                cur_addr = spec.out_base;
                cur_width = conv.n_out();
            }
            Stage::Lstm { .. } => {
                return Err(CoreError::Unsupported(
                    "LSTM stages are only supported as the first stage".into(),
                ));
            }
        }
    }

    // L2 staging area: engines patch inputs here; the DMA engine moves
    // them into the kernel's input window before phase 0.
    let l2_base = s.layout.alloc_halves(width * steps)?;
    let dma = vec![DmaXfer {
        src: l2_base,
        dst: window,
        len: (2 * width * steps) as u32,
    }];

    // Kernel assembly, guard folding and translation ran interleaved
    // with code generation; they were timed separately.
    let mut timing = timing.get();
    timing.codegen = lap(&mut mark)
        .saturating_sub(timing.assemble + timing.guard_fold + timing.lower + timing.verify);
    let image = s.machine.mem().image();
    timing.snapshot = lap(&mut mark);
    let cluster = ClusterProgram { cores, dma, phases };
    let guards = cluster
        .kernels()
        .flat_map(|k| k.guards.iter().cloned())
        .collect();
    Ok(CompiledNetwork {
        image,
        cluster: Arc::new(cluster),
        guards: Arc::new(guards),
        input: InputDesc {
            base: l2_base,
            width,
            steps,
        },
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

type KernelBuilder<'a> = dyn Fn(
        &Memory,
        &mut dyn FnMut(&mut crate::kernels::KernelCtx<'_>) -> Result<(), CoreError>,
    ) -> Result<ClusterKernel, CoreError>
    + 'a;

/// One FC stage phase: each active core runs its output-row slice of
/// the matvec.
fn emit_fc_phase(
    phases: &mut Vec<ClusterPhase>,
    p: &crate::compile::FcPlacement,
    split: &StageSplit,
    scratches: &[u32],
    mem: &Memory,
    kernel: &KernelBuilder<'_>,
) -> Result<(), CoreError> {
    let mut kernels = Vec::with_capacity(split.ranges.len());
    for (c, &(r0, r1)) in split.ranges.iter().enumerate() {
        if r1 == r0 {
            kernels.push(None);
            continue;
        }
        let spec = p.matvec_rows(r0, r1 - r0, scratches[c]);
        kernels.push(Some(kernel(mem, &mut |ctx| emit_matvec(ctx, &spec))?));
    }
    phases.push(ClusterPhase {
        label: split.label.clone(),
        kernels,
    });
    Ok(())
}

/// One LSTM stage: per time step, an `x_t` copy phase (core 0) followed
/// by a gates+update phase where each active core computes its hidden
/// rows.
fn emit_lstm_phases(
    phases: &mut Vec<ClusterPhase>,
    spec: &crate::kernels::lstm::LstmSpec,
    split: &StageSplit,
    scratches: &[u32],
    mem: &Memory,
    kernel: &KernelBuilder<'_>,
) -> Result<(), CoreError> {
    let cores = split.ranges.len();
    let words = spec.n_in / 2;
    for t in 0..spec.steps {
        let src = spec.x_seq + (t * spec.n_in * 2) as u32;
        let mut copy = vec![None; cores];
        copy[0] = Some(kernel(mem, &mut |ctx| {
            emit_word_copy(ctx, src, spec.xh, words);
            Ok(())
        })?);
        phases.push(ClusterPhase {
            label: format!("{} step {t} x-copy", split.label),
            kernels: copy,
        });
        // Gates and update are separate phases: the update writes h_t
        // back into the combined buffer, which every core's gate
        // matvecs still read as h_{t-1} — a barrier must sit between.
        let mut gates = Vec::with_capacity(cores);
        let mut update = Vec::with_capacity(cores);
        for (c, &(r0, r1)) in split.ranges.iter().enumerate() {
            if r1 == r0 {
                gates.push(None);
                update.push(None);
                continue;
            }
            let mut sc = *spec;
            sc.scratch = scratches[c];
            gates.push(Some(kernel(mem, &mut |ctx| {
                for g in 0..4 {
                    emit_matvec(ctx, &sc.gate_matvec_rows(g, r0, r1 - r0))?;
                }
                Ok(())
            })?));
            update.push(Some(kernel(mem, &mut |ctx| {
                emit_update_rows(ctx, &sc, r0, r1 - r0);
                Ok(())
            })?));
        }
        phases.push(ClusterPhase {
            label: format!("{} step {t} gates", split.label),
            kernels: gates,
        });
        phases.push(ClusterPhase {
            label: format!("{} step {t} update", split.label),
            kernels: update,
        });
    }
    Ok(())
}

/// Allocates the per-core pixel-loop global cells for one convolution
/// stage (core 0 reuses the staged spec's cells).
fn conv_core_globals(
    s: &mut Session,
    spec: &crate::kernels::conv::ConvSpec,
    cores: usize,
) -> Result<Vec<(u32, u32, u32)>, CoreError> {
    let mut globals = vec![(spec.g_pix, spec.g_out, spec.g_cnt)];
    for _ in 1..cores {
        globals.push((
            s.layout.alloc_words(1)?,
            s.layout.alloc_words(1)?,
            s.layout.alloc_words(1)?,
        ));
    }
    Ok(globals)
}

/// One convolution stage phase: each active core gathers and convolves
/// its output-pixel slice, with private loop globals.
fn emit_conv_phase(
    phases: &mut Vec<ClusterPhase>,
    spec: &crate::kernels::conv::ConvSpec,
    globals: &[(u32, u32, u32)],
    split: &StageSplit,
    scratches: &[u32],
    mem: &Memory,
    kernel: &KernelBuilder<'_>,
) -> Result<(), CoreError> {
    spec.validate()?;
    let mut kernels = Vec::with_capacity(split.ranges.len());
    for (c, &(p0, p1)) in split.ranges.iter().enumerate() {
        if p1 == p0 {
            kernels.push(None);
            continue;
        }
        let mut sc = *spec;
        sc.scratch = scratches[c];
        (sc.g_pix, sc.g_out, sc.g_cnt) = globals[c];
        kernels.push(Some(kernel(mem, &mut |ctx| {
            emit_gather_range(ctx, &sc, p0, p1 - p0);
            emit_pixel_loop_range(ctx, &sc, p0, p1 - p0)
        })?));
    }
    phases.push(ClusterPhase {
        label: split.label.clone(),
        kernels,
    });
    Ok(())
}
