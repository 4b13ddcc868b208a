//! CNN-layer kernels: im2col gather followed by a matrix-matrix product
//! expressed as one FC matvec per output pixel (Section II-A's `im2col`
//! lowering \[25\]).
//!
//! The gather is index-driven: the runner stages a table of byte offsets
//! (one per im2col element) into the *source* feature map, and the
//! generated code copies `src[idx[k]] → cols[k]`. From level b the copy
//! uses post-increment and register-offset loads in a software-pipelined
//! hardware loop (3 cycles/element); the baseline uses a scalar loop.
//! The MAC phase then loops over output pixels, each being one matvec
//! with the channel-major output stride.

use super::fc::emit_matvec;
use super::{regs, KernelCtx, MatvecSpec, PtrSrc};
use crate::error::CoreError;
use rnnasip_isa::{BranchOp, Instr, LoadOp, LoopIdx, Reg};
use rnnasip_nn::Act;

/// Addresses and shape of one staged convolution stage.
#[derive(Clone, Copy, Debug)]
pub struct ConvSpec {
    /// Filter matrix base: `out_ch × taps` halfwords (taps padded even).
    pub w_base: u32,
    /// Pre-shifted bias base (`out_ch` words).
    pub bias32: u32,
    /// Source feature map base (previous stage's output or the staged
    /// input image).
    pub src: u32,
    /// Gather index table: `n_pix · taps` u16 byte offsets into the
    /// source (plus one slack entry).
    pub idx_base: u32,
    /// im2col buffer: `n_pix × taps` halfwords, pixel-major.
    pub cols_base: u32,
    /// Output base, channel-major (`out_ch × n_pix` halfwords).
    pub out_base: u32,
    /// Global cells: current pixel-column pointer, current output
    /// pointer, remaining pixel count.
    pub g_pix: u32,
    /// Current output pointer global.
    pub g_out: u32,
    /// Remaining pixel count global.
    pub g_cnt: u32,
    /// Output pixels per channel.
    pub n_pix: usize,
    /// Filter taps per output (padded even).
    pub taps: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Activation.
    pub act: Act,
    /// Baseline spill scratch.
    pub scratch: u32,
}

/// Emits a complete convolution stage (gather + per-pixel matvecs).
///
/// # Errors
///
/// [`CoreError::Shape`] for empty or odd-tap shapes.
pub fn emit_conv(ctx: &mut KernelCtx<'_>, spec: &ConvSpec) -> Result<(), CoreError> {
    spec.validate()?;
    emit_gather_range(ctx, spec, 0, spec.n_pix);
    emit_pixel_loop_range(ctx, spec, 0, spec.n_pix)
}

impl ConvSpec {
    /// Bytes between consecutive output channels of one pixel.
    fn out_stride(&self) -> i32 {
        2 * self.n_pix as i32
    }

    /// Shape checks shared by the whole-stage and sliced emitters.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n_pix == 0 || self.taps == 0 || self.out_ch == 0 {
            return Err(CoreError::Shape("empty convolution stage".into()));
        }
        if !self.taps.is_multiple_of(2) {
            return Err(CoreError::Shape(format!(
                "convolution taps must be padded even, got {}",
                self.taps
            )));
        }
        if self.out_stride() >= 2048 {
            return Err(CoreError::Shape(format!(
                "output stride {} exceeds the post-increment immediate",
                self.out_stride()
            )));
        }
        Ok(())
    }
}

/// Emits the im2col gather for output pixels `[pix0, pix0+pixels)`:
/// `cols[k] = src[idx[k]]`.
///
/// Pixels are independent, so a slice only offsets the index cursor and
/// destination; the full range reproduces the single-core gather
/// exactly. (The software-pipelined variant pre-loads one offset past
/// the slice: for an interior slice that is the next slice's first
/// entry, for the last it is the table's slack entry — either way a
/// staged, in-bounds halfword.)
pub fn emit_gather_range(ctx: &mut KernelCtx<'_>, spec: &ConvSpec, pix0: usize, pixels: usize) {
    let total = pixels * spec.taps;
    let skip = (2 * pix0 * spec.taps) as u32;
    let a = &mut *ctx.asm;
    a.li(Reg::A0, (spec.idx_base + skip) as i32); // offset cursor
    a.li(Reg::A1, spec.src as i32); // source base
    a.li(Reg::A2, (spec.cols_base + skip) as i32); // destination cursor
    if ctx.level.has_xpulp() {
        // Software-pipelined: the offset for iteration i is loaded during
        // iteration i-1, so neither load stalls.
        a.lh_post(regs::WV0, 2, Reg::A0); // offset 0
        a.li(regs::CNT, total as i32);
        let end = a.new_label();
        a.lp_setup(LoopIdx::L0, regs::CNT, end);
        a.emit(Instr::LoadReg {
            op: LoadOp::Lh,
            rd: regs::WV1,
            rs1: Reg::A1,
            rs2: regs::WV0,
        });
        a.lh_post(regs::WV0, 2, Reg::A0); // next offset
        a.sh_post(regs::WV1, 2, Reg::A2);
        a.bind(end);
    } else {
        // end bound = cursor start + 2*total (may exceed addi range).
        a.li(regs::XEND, (spec.idx_base + skip + 2 * total as u32) as i32);
        let top = a.new_label();
        a.bind(top);
        a.lh(regs::WV0, 0, Reg::A0);
        a.add(regs::WV1, Reg::A1, regs::WV0);
        a.lh(regs::WV1, 0, regs::WV1);
        a.sh(regs::WV1, 0, Reg::A2);
        a.addi(Reg::A0, Reg::A0, 2);
        a.addi(Reg::A2, Reg::A2, 2);
        a.branch(BranchOp::Bltu, Reg::A0, regs::XEND, top);
    }
}

/// Emits the per-pixel matvec loop over output pixels
/// `[pix0, pix0+pixels)`.
///
/// The output stride stays the *whole* stage's `2·n_pix` (the
/// channel-major layout is global), only the loop bounds and start
/// pointers are sliced. A sliced emission must point `g_pix`/`g_out`/
/// `g_cnt` at per-core cells, since the loop mutates them.
pub fn emit_pixel_loop_range(
    ctx: &mut KernelCtx<'_>,
    spec: &ConvSpec,
    pix0: usize,
    pixels: usize,
) -> Result<(), CoreError> {
    // Initialise the pixel globals.
    {
        let a = &mut *ctx.asm;
        a.li(
            regs::X0,
            (spec.cols_base + (2 * pix0 * spec.taps) as u32) as i32,
        );
        a.li(regs::WV1, spec.g_pix as i32);
        a.sw(regs::X0, 0, regs::WV1);
        a.li(regs::X0, (spec.out_base + (2 * pix0) as u32) as i32);
        a.li(regs::WV1, spec.g_out as i32);
        a.sw(regs::X0, 0, regs::WV1);
        a.li(regs::X0, pixels as i32);
        a.li(regs::WV1, spec.g_cnt as i32);
        a.sw(regs::X0, 0, regs::WV1);
    }
    let pix_top = ctx.asm.new_label();
    ctx.asm.bind(pix_top);

    emit_matvec(
        ctx,
        &MatvecSpec {
            w_base: spec.w_base,
            bias32: spec.bias32,
            x: PtrSrc::Global(spec.g_pix),
            out: PtrSrc::Global(spec.g_out),
            out_stride: spec.out_stride(),
            n_in: spec.taps,
            n_out: spec.out_ch,
            act: spec.act,
            scratch: spec.scratch,
        },
    )?;

    // Advance the pixel globals.
    let a = &mut *ctx.asm;
    let col_bytes = 2 * spec.taps as i32;
    a.li(regs::WV1, spec.g_pix as i32);
    a.lw(regs::X0, 0, regs::WV1);
    if col_bytes < 2048 {
        a.addi(regs::X0, regs::X0, col_bytes);
    } else {
        a.li(regs::X1, col_bytes);
        a.add(regs::X0, regs::X0, regs::X1);
    }
    a.sw(regs::X0, 0, regs::WV1);
    a.li(regs::WV1, spec.g_out as i32);
    a.lw(regs::X0, 0, regs::WV1);
    a.addi(regs::X0, regs::X0, 2);
    a.sw(regs::X0, 0, regs::WV1);
    a.li(regs::WV1, spec.g_cnt as i32);
    a.lw(regs::X0, 0, regs::WV1);
    a.addi(regs::X0, regs::X0, -1);
    a.sw(regs::X0, 0, regs::WV1);
    // Inverted branch over a jal: the unrolled matvec body can exceed
    // the conditional-branch range.
    let done = a.new_label();
    a.branch(BranchOp::Beq, regs::X0, Reg::ZERO, done);
    a.j(pix_top);
    a.bind(done);
    Ok(())
}
