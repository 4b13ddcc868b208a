//! Partitioning one network across the cores of a simulated PULP
//! cluster.
//!
//! A [`Partition`] declares, per stage, how the stage's parallel axis is
//! sliced across cores — output neurons for FC and LSTM stages, output
//! pixels for convolutions. The compiler's one stage walk stages the
//! network's data *once* into the shared TCDM (the same bump layout at
//! every core count, plus per-core scratch and loop-global cells); for
//! two or more cores, [`cluster_phases`] then turns the plan into one
//! small phase program per `(phase, core)` whose address constants point
//! at that core's slice, and the walk adds a DMA descriptor that moves
//! each inference's input from an L2 staging area into the kernel's
//! input window.
//!
//! Phase boundaries are exactly the data dependencies:
//!
//! * an FC or convolution stage is one phase — every core reads the
//!   previous stage's full output (written before the phase started) and
//!   writes a disjoint slice of the stage output;
//! * an LSTM stage is three phases per time step: core 0 copies `x_t`
//!   into the combined `[x‖h]` buffer (every core reads it next phase),
//!   each core computes its hidden-row slice of the four gate matvecs,
//!   then of the element-wise update, writing disjoint `c`/`h` rows.
//!
//! Within a phase, writes are disjoint and reads touch only pre-phase
//! data (plus the core's own writes), so running cores one after another
//! over the shared memory produces bit-identical results to true
//! lockstep execution; the cluster's timing model layers conflict
//! stalls, DMA and barrier costs on top without touching the data path.

use crate::compile::{FcPlacement, KernelBuilder, Placed};
use crate::error::CoreError;
use crate::kernels::conv::{emit_gather_range, emit_pixel_loop_range, ConvSpec};
use crate::kernels::fc::emit_matvec;
use crate::kernels::lstm::{emit_update_rows, emit_word_copy, LstmSpec};
use rnnasip_nn::Stage;
use rnnasip_sim::{ClusterKernel, ClusterPhase};

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
///
/// [`KernelBackend::compile_network`]: crate::KernelBackend::compile_network
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

/// The per-core phase kernels of a `cores >= 2` compile, following
/// `plan` over the staged stages: each stage's phases in stage order.
pub(crate) fn cluster_phases(
    placed: &[Placed],
    plan: &Partition,
    scratches: &[u32],
    builder: &mut KernelBuilder<'_>,
) -> Result<Vec<ClusterPhase>, CoreError> {
    let mut phases = Vec::new();
    for (stage, split) in placed.iter().zip(&plan.stages) {
        match stage {
            Placed::Fc(p) => emit_fc_phase(&mut phases, p, split, scratches, builder)?,
            Placed::Lstm(spec) => emit_lstm_phases(&mut phases, spec, split, scratches, builder)?,
            Placed::Conv(spec, globals) => {
                emit_conv_phase(&mut phases, spec, globals, split, scratches, builder)?
            }
        }
    }
    Ok(phases)
}

/// One kernel per core with a non-empty `[start, end)` range of
/// `split`, built by `build(core, start, len)`; `None` for idle cores.
fn per_core(
    split: &StageSplit,
    mut build: impl FnMut(usize, usize, usize) -> Result<ClusterKernel, CoreError>,
) -> Result<Vec<Option<ClusterKernel>>, CoreError> {
    split
        .ranges
        .iter()
        .enumerate()
        .map(|(c, &(r0, r1))| (r1 > r0).then(|| build(c, r0, r1 - r0)).transpose())
        .collect()
}

/// One FC stage phase: each active core runs its output-row slice of
/// the matvec.
fn emit_fc_phase(
    phases: &mut Vec<ClusterPhase>,
    p: &FcPlacement,
    split: &StageSplit,
    scratches: &[u32],
    builder: &mut KernelBuilder<'_>,
) -> Result<(), CoreError> {
    let kernels = per_core(split, |c, r0, rows| {
        let spec = p.matvec_rows(r0, rows, scratches[c]);
        builder.build(|ctx| emit_matvec(ctx, &spec))
    })?;
    phases.push(ClusterPhase {
        label: split.label.clone(),
        kernels,
    });
    Ok(())
}

/// One LSTM stage: per time step, an `x_t` copy phase (core 0), then a
/// gates phase and an update phase where each active core computes its
/// hidden rows.
fn emit_lstm_phases(
    phases: &mut Vec<ClusterPhase>,
    spec: &LstmSpec,
    split: &StageSplit,
    scratches: &[u32],
    builder: &mut KernelBuilder<'_>,
) -> Result<(), CoreError> {
    let words = spec.n_in / 2;
    // Core `c`'s view of the spec: its own spill scratch.
    let core_spec = |c: usize| LstmSpec {
        scratch: scratches[c],
        ..*spec
    };
    for t in 0..spec.steps {
        let src = spec.x_seq + (t * spec.n_in * 2) as u32;
        let mut copy = vec![None; split.ranges.len()];
        copy[0] = Some(builder.build(|ctx| {
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
        let gates = per_core(split, |c, r0, rows| {
            let sc = core_spec(c);
            builder.build(|ctx| {
                (0..4).try_for_each(|g| emit_matvec(ctx, &sc.gate_matvec_rows(g, r0, rows)))
            })
        })?;
        phases.push(ClusterPhase {
            label: format!("{} step {t} gates", split.label),
            kernels: gates,
        });
        let update = per_core(split, |c, r0, rows| {
            builder.build(|ctx| {
                emit_update_rows(ctx, &core_spec(c), r0, rows);
                Ok(())
            })
        })?;
        phases.push(ClusterPhase {
            label: format!("{} step {t} update", split.label),
            kernels: update,
        });
    }
    Ok(())
}

/// One convolution stage phase: each active core gathers and convolves
/// its output-pixel slice, with private loop globals.
fn emit_conv_phase(
    phases: &mut Vec<ClusterPhase>,
    spec: &ConvSpec,
    globals: &[(u32, u32, u32)],
    split: &StageSplit,
    scratches: &[u32],
    builder: &mut KernelBuilder<'_>,
) -> Result<(), CoreError> {
    spec.validate()?;
    let kernels = per_core(split, |c, p0, pixels| {
        let (g_pix, g_out, g_cnt) = globals[c];
        let sc = ConvSpec {
            scratch: scratches[c],
            g_pix,
            g_out,
            g_cnt,
            ..*spec
        };
        builder.build(|ctx| {
            emit_gather_range(ctx, &sc, p0, pixels);
            emit_pixel_loop_range(ctx, &sc, p0, pixels)
        })
    })?;
    phases.push(ClusterPhase {
        label: split.label.clone(),
        kernels,
    });
    Ok(())
}
