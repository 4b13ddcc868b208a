//! Kernel generators: RISC-V code emission for FC / LSTM / CNN layers at
//! every optimization level.
//!
//! # Register convention
//!
//! The emitters use a fixed allocation (no graph coloring — the paper's
//! hand-optimized kernels do the same):
//!
//! | Register(s) | Role |
//! |---|---|
//! | `a0` | input (activation) cursor, post-incremented |
//! | `a1` | output cursor, post-incremented |
//! | `a2` | bias-seed cursor (32-bit pre-shifted biases) |
//! | `a3` | weight cursor / tile-row seed |
//! | `ra` | weight row stride in bytes (tiled levels) |
//! | `t2` | inner-loop trip count |
//! | `t0`, `t1` | input pair values (`t1` only with input-FM tiling) |
//! | `gp`, `tp` | alternating weight values / scratch |
//! | `s0`–`s9` | weight row pointers of the output tile (up to 10) |
//! | `a4`–`a7`, `t3`–`t6`, `s10`, `s11` | tile accumulators (up to 10) |
//! | `s8`, `s9` | baseline-only saturation constants (+32767 / −32768) |
//! | `s6`, `s7` | software-PLA LUT base pointers (levels a–b only) |
//! | `t4` | baseline output-loop counter |
//!
//! The pools overlap deliberately: the baseline level never tiles (so
//! `s6`–`s9` are free for its constants), and the tiled levels never run
//! the software PLA (the `pl.tanh`/`pl.sig` instructions exist from
//! level c on).

pub mod act_sw;
pub mod conv;
pub mod fc;
pub mod fc8;
pub mod lstm;

use rnnasip_isa::Reg;

/// Fixed register roles (see module docs).
pub mod regs {
    use rnnasip_isa::Reg;

    /// Input (activation) cursor.
    pub const XP: Reg = Reg::A0;
    /// Output cursor.
    pub const OP: Reg = Reg::A1;
    /// Bias-seed cursor.
    pub const BP: Reg = Reg::A2;
    /// Weight cursor / tile-row seed.
    pub const WP: Reg = Reg::A3;
    /// Weight row stride in bytes.
    pub const ROWB: Reg = Reg::RA;
    /// Inner-loop trip count.
    pub const CNT: Reg = Reg::T2;
    /// First input pair value.
    pub const X0: Reg = Reg::T0;
    /// Second input pair value (input-FM tiling).
    pub const X1: Reg = Reg::T1;
    /// Alternating weight value 0 / scratch.
    pub const WV0: Reg = Reg::GP;
    /// Alternating weight value 1 / scratch.
    pub const WV1: Reg = Reg::TP;
    /// Baseline saturation high constant (+32767).
    pub const SAT_HI: Reg = Reg::S8;
    /// Baseline saturation low constant (−32768).
    pub const SAT_LO: Reg = Reg::S9;
    /// Software-PLA slope-LUT base.
    pub const LUT_M: Reg = Reg::S6;
    /// Software-PLA intercept-LUT base.
    pub const LUT_Q: Reg = Reg::S7;
    /// Baseline output-loop counter.
    pub const OUT_CNT: Reg = Reg::T4;
    /// Baseline accumulator value.
    pub const ACC0: Reg = Reg::T3;
    /// Baseline accumulator spill-slot address.
    pub const SPILL: Reg = Reg::T5;
    /// Baseline input end bound.
    pub const XEND: Reg = Reg::T6;
}

/// Weight-row pointer pool for output tiles.
pub const WP_POOL: [Reg; 10] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
];

/// Accumulator pool for output tiles.
pub const ACC_POOL: [Reg; 10] = [
    Reg::A4,
    Reg::A5,
    Reg::A6,
    Reg::A7,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::S10,
    Reg::S11,
];

/// Maximum output-tile size, limited by the register pools (the paper:
/// "N can be increased until the available registers are exhausted").
pub const MAX_TILE: usize = 10;

/// Where a kernel pointer comes from at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtrSrc {
    /// A compile-time constant address (`li`).
    Const(u32),
    /// Loaded from a 32-bit "global" cell in data memory (`lw`) — used
    /// when an outer software loop advances the pointer between kernel
    /// invocations (LSTM time steps, CNN output pixels).
    Global(u32),
}

/// A matrix-vector kernel instance: `out = act(bias + W · x)`.
///
/// `n_in` must be even (the runner pads); `n_out` is unconstrained.
#[derive(Clone, Copy, Debug)]
pub struct MatvecSpec {
    /// Row-major weight base address (`n_out × n_in` halfwords, plus
    /// `STREAM_SLACK` readable bytes of streaming overrun).
    pub w_base: u32,
    /// Pre-shifted 32-bit bias seeds (`n_out` words).
    pub bias32: u32,
    /// Input vector source (`n_in` halfwords).
    pub x: PtrSrc,
    /// Output base source.
    pub out: PtrSrc,
    /// Bytes between consecutive outputs (2 when dense; `2·n_pixels` for
    /// the channel-major CNN output layout).
    pub out_stride: i32,
    /// Input width (even).
    pub n_in: usize,
    /// Output count.
    pub n_out: usize,
    /// Activation applied after requantization.
    pub act: rnnasip_nn::Act,
    /// Word-aligned scratch cell for the baseline level's spilled
    /// accumulator (ignored by levels b–e).
    pub scratch: u32,
}

/// Emission context: the assembler plus everything the emitters need to
/// know about the target configuration.
pub struct KernelCtx<'a> {
    /// The program being built.
    pub asm: &'a mut rnnasip_asm::Asm,
    /// Optimization level to generate for.
    pub level: crate::OptLevel,
    /// Addresses of the staged PLA LUTs `(tanh_m, tanh_q, sig_m, sig_q)`,
    /// used by the software activation routine at levels a–b.
    pub luts: (u32, u32, u32, u32),
    /// Output-tile size cap (1..=[`MAX_TILE`]); the paper's "N can be
    /// increased until the available registers are exhausted" knob,
    /// exposed for the tiling ablation.
    pub max_tile: usize,
    /// Kernel-region descriptors recorded during emission, consumed by
    /// the simulator's shortcut tier (see [`rnnasip_sim::KernelRegion`]).
    pub regions: &'a mut Vec<rnnasip_sim::KernelRegion>,
}

impl KernelCtx<'_> {
    /// Loads a pointer source into `reg`.
    pub fn load_ptr(&mut self, reg: Reg, src: PtrSrc) {
        match src {
            PtrSrc::Const(addr) => self.asm.li(reg, addr as i32),
            PtrSrc::Global(cell) => {
                // li + lw keeps the generated pattern uniform; the cell
                // address always fits an li.
                self.asm.li(reg, cell as i32);
                self.asm.lw(reg, 0, reg);
            }
        }
    }
}
