//! LSTM kernels: per-step gate matrix-vector products plus the
//! element-wise cell/hidden update (Equations 1–6).
//!
//! The runner stages each gate's input and recurrent weights as one
//! *combined* matrix with rows `[Wx_row ‖ Wh_row]`, and the kernel keeps
//! the activations in a combined `[x_t ‖ h_{t-1}]` buffer, so every gate
//! pre-activation is exactly one FC matvec (reusing the Table I/II
//! schedules). Per time step the generated code:
//!
//! 1. copies `x_t` into the combined buffer (word copies, hardware loop
//!    from level b),
//! 2. runs the four gate matvecs (`o,f,i,g` order; `sig`×3, `tanh`),
//! 3. runs the element-wise update loop
//!    (`c ← f∘c + i∘g`, `h ← o∘tanh(c)`), writing `h` back into the
//!    combined buffer for the next step,
//! 4. decrements the step counter held in a memory "global".

use super::act_sw::{emit_pla_hoist, emit_sat_hoist_baseline, emit_sw_pla, ActFunc};
use super::fc::emit_matvec;
use super::{regs, KernelCtx, MatvecSpec, PtrSrc};
use crate::error::CoreError;
use rnnasip_isa::{BranchOp, LoopIdx, Reg};
use rnnasip_nn::Act;
use rnnasip_sim::{CellUpdate, KernelRegion, RegionMath, ShortcutPtr};

/// Addresses and shape of one staged LSTM stage.
#[derive(Clone, Copy, Debug)]
pub struct LstmSpec {
    /// Combined `n × (m+n)` gate weight bases, `o,f,i,g` order.
    pub gates_w: [u32; 4],
    /// Pre-shifted gate bias bases.
    pub gates_b32: [u32; 4],
    /// Gate pre-activation output buffers (`n` halfwords each).
    pub gate_bufs: [u32; 4],
    /// Combined activation buffer: `x_t` at `[0, 2m)`, `h` at
    /// `[2m, 2(m+n))`.
    pub xh: u32,
    /// Cell-state buffer (`n` halfwords).
    pub c_buf: u32,
    /// First input vector of the staged `T × m` sequence.
    pub x_seq: u32,
    /// Global cell holding the current input pointer.
    pub g_xptr: u32,
    /// Global cell holding the remaining step count.
    pub g_steps: u32,
    /// Number of time steps.
    pub steps: usize,
    /// Input width `m` (even).
    pub n_in: usize,
    /// Hidden width `n` (even).
    pub n_hidden: usize,
    /// Baseline spill scratch.
    pub scratch: u32,
}

impl LstmSpec {
    /// Address where the final hidden state is left (inside the combined
    /// buffer).
    pub fn h_addr(&self) -> u32 {
        self.xh + 2 * self.n_in as u32
    }

    /// The matvec spec for gate `g` over output rows `[row0, row0+rows)`.
    ///
    /// Gate rows are independent, so slicing only offsets the weight,
    /// bias and gate-buffer bases; the full range reproduces the
    /// single-core gate matvec exactly.
    pub fn gate_matvec_rows(&self, g: usize, row0: usize, rows: usize) -> MatvecSpec {
        let act = if g == 3 { Act::Tanh } else { Act::Sigmoid };
        MatvecSpec {
            w_base: self.gates_w[g] + (row0 * (self.n_in + self.n_hidden) * 2) as u32,
            bias32: self.gates_b32[g] + (row0 * 4) as u32,
            x: PtrSrc::Const(self.xh),
            out: PtrSrc::Const(self.gate_bufs[g] + (row0 * 2) as u32),
            out_stride: 2,
            n_in: self.n_in + self.n_hidden,
            n_out: rows,
            act,
            scratch: self.scratch,
        }
    }
}

/// Emits a complete LSTM stage (all `steps` time steps).
///
/// # Errors
///
/// [`CoreError::Shape`] when widths are odd or zero.
pub fn emit_lstm(ctx: &mut KernelCtx<'_>, spec: &LstmSpec) -> Result<(), CoreError> {
    if spec.n_in == 0 || spec.n_hidden == 0 || spec.steps == 0 {
        return Err(CoreError::Shape("empty LSTM stage".into()));
    }
    if !spec.n_in.is_multiple_of(2) || !spec.n_hidden.is_multiple_of(2) {
        return Err(CoreError::Shape(format!(
            "LSTM kernels need even widths, got {}x{}",
            spec.n_in, spec.n_hidden
        )));
    }

    // Initialise the step globals.
    {
        let a = &mut *ctx.asm;
        a.li(regs::X0, spec.x_seq as i32);
        a.li(regs::WV1, spec.g_xptr as i32);
        a.sw(regs::X0, 0, regs::WV1);
        a.li(regs::X0, spec.steps as i32);
        a.li(regs::WV1, spec.g_steps as i32);
        a.sw(regs::X0, 0, regs::WV1);
    }

    let step_top = ctx.asm.new_label();
    ctx.asm.bind(step_top);

    emit_copy_x(ctx, spec);

    // Gate matvecs over the combined buffer.
    for g in 0..4 {
        emit_matvec(ctx, &spec.gate_matvec_rows(g, 0, spec.n_hidden))?;
    }

    emit_update_rows(ctx, spec, 0, spec.n_hidden);

    // Step counter. The unrolled tiled body easily exceeds the ±4 KiB
    // conditional-branch range, so the back edge is an inverted branch
    // over a `jal` (±1 MiB).
    {
        let a = &mut *ctx.asm;
        a.li(regs::WV1, spec.g_steps as i32);
        a.lw(regs::X0, 0, regs::WV1);
        a.addi(regs::X0, regs::X0, -1);
        a.sw(regs::X0, 0, regs::WV1);
        let done = a.new_label();
        a.branch(BranchOp::Beq, regs::X0, Reg::ZERO, done);
        a.j(step_top);
        a.bind(done);
    }
    Ok(())
}

/// Copies `x_t` (m halfwords = m/2 words) from the sequence cursor into
/// the combined buffer and advances the cursor global.
fn emit_copy_x(ctx: &mut KernelCtx<'_>, spec: &LstmSpec) {
    let a = &mut *ctx.asm;
    a.li(regs::WV1, spec.g_xptr as i32);
    a.lw(regs::X0, 0, regs::WV1); // src cursor
    a.li(regs::X1, spec.xh as i32); // dst
    emit_copy_loop(ctx, spec.n_in / 2);
    // The advanced source cursor is the next step's x_t.
    ctx.asm.sw(regs::X0, 0, regs::WV1);
}

/// Copies `words` words from the address in `X0` to the one in `X1`,
/// leaving both advanced past the copy (hardware loop from level b).
fn emit_copy_loop(ctx: &mut KernelCtx<'_>, words: usize) {
    let a = &mut *ctx.asm;
    if ctx.level.has_xpulp() {
        a.li(regs::CNT, words as i32);
        let end = a.new_label();
        a.lp_setup(LoopIdx::L0, regs::CNT, end);
        a.lw_post(regs::WV0, 4, regs::X0);
        a.sw_post(regs::WV0, 4, regs::X1);
        a.bind(end);
    } else {
        a.addi(regs::ACC0, regs::X0, 4 * words as i32); // end bound
        let top = a.new_label();
        a.bind(top);
        a.lw(regs::WV0, 0, regs::X0);
        a.sw(regs::WV0, 0, regs::X1);
        a.addi(regs::X0, regs::X0, 4);
        a.addi(regs::X1, regs::X1, 4);
        a.branch(BranchOp::Bltu, regs::X0, regs::ACC0, top);
    }
}

/// Emits the element-wise state update over hidden rows
/// `[row0, row0+rows)`:
/// `c ← sat((f·c)>>12 + (i·g)>>12)`, `h ← sat((o·tanh(c))>>12)`.
///
/// Rows are element-wise independent; the full range reproduces the
/// single-core update exactly, a sub-range is one core's slice.
pub fn emit_update_rows(ctx: &mut KernelCtx<'_>, spec: &LstmSpec, row0: usize, rows: usize) {
    // Hoists for the in-loop tanh and (baseline) saturation.
    if !ctx.level.has_xpulp() {
        emit_sat_hoist_baseline(ctx);
    }
    if !ctx.level.has_act_ext() {
        emit_pla_hoist(ctx, ActFunc::Tanh);
    }
    let start_addr = ctx.asm.here();
    let off = (row0 * 2) as i32;
    let (optr, fptr, iptr, gptr) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3);
    let cptr = Reg::T5;
    let hptr = Reg::T6;
    {
        let a = &mut *ctx.asm;
        a.li(optr, spec.gate_bufs[0] as i32 + off);
        a.li(fptr, spec.gate_bufs[1] as i32 + off);
        a.li(iptr, spec.gate_bufs[2] as i32 + off);
        a.li(gptr, spec.gate_bufs[3] as i32 + off);
        a.li(cptr, spec.c_buf as i32 + off);
        a.li(hptr, spec.h_addr() as i32 + off);
    }

    if ctx.level.has_xpulp() {
        let a = &mut *ctx.asm;
        a.li(regs::CNT, rows as i32);
        let end = a.new_label();
        a.lp_setup(LoopIdx::L0, regs::CNT, end);
        a.lh_post(regs::WV0, 2, fptr); // f
        a.lh(regs::WV1, 0, cptr); // c
        a.mul(Reg::T3, regs::WV0, regs::WV1);
        a.srai(Reg::T3, Reg::T3, 12);
        a.lh_post(regs::WV0, 2, iptr); // i
        a.lh_post(regs::WV1, 2, gptr); // g
        a.mul(Reg::T4, regs::WV0, regs::WV1);
        a.srai(Reg::T4, Reg::T4, 12);
        a.add(Reg::T3, Reg::T3, Reg::T4);
        a.clip(Reg::T3, Reg::T3, 16);
        a.sh_post(Reg::T3, 2, cptr); // c_t
        let _ = a;
        emit_cell_tanh(ctx);
        let a = &mut *ctx.asm;
        a.lh_post(regs::WV0, 2, optr); // o
        a.mul(Reg::T3, regs::WV0, Reg::T3);
        a.srai(Reg::T3, Reg::T3, 12);
        a.clip(Reg::T3, Reg::T3, 16);
        a.sh_post(Reg::T3, 2, hptr); // h_t
        a.bind(end);
        // With `pl.tanh` the loop is straight-line math the simulator's
        // shortcut tier can prove and run natively.
        if ctx.level.has_act_ext() && rows > 0 {
            let at = |base: u32| ShortcutPtr::Const(base + off as u32);
            ctx.regions.push(KernelRegion {
                start_addr,
                end_addr: ctx.asm.here(),
                math: RegionMath::Cell(CellUpdate {
                    gates: spec.gate_bufs.map(at),
                    c: at(spec.c_buf),
                    h: at(spec.h_addr()),
                    rows: rows as u32,
                }),
            });
        }
    } else {
        // Baseline: software loop, counter in s5.
        let a = &mut *ctx.asm;
        a.li(Reg::S5, rows as i32);
        let top = a.new_label();
        a.bind(top);
        a.lh(regs::WV0, 0, fptr);
        a.lh(regs::WV1, 0, cptr);
        a.mul(Reg::T3, regs::WV0, regs::WV1);
        a.srai(Reg::T3, Reg::T3, 12);
        a.lh(regs::WV0, 0, iptr);
        a.lh(regs::WV1, 0, gptr);
        a.mul(Reg::T4, regs::WV0, regs::WV1);
        a.srai(Reg::T4, Reg::T4, 12);
        a.add(Reg::T3, Reg::T3, Reg::T4);
        let _ = a;
        super::act_sw::emit_clamp16_baseline(ctx, Reg::T3);
        ctx.asm.sh(Reg::T3, 0, cptr);
        emit_cell_tanh(ctx);
        let a = &mut *ctx.asm;
        a.lh(regs::WV0, 0, optr);
        a.mul(Reg::T3, regs::WV0, Reg::T3);
        a.srai(Reg::T3, Reg::T3, 12);
        let _ = a;
        super::act_sw::emit_clamp16_baseline(ctx, Reg::T3);
        let a = &mut *ctx.asm;
        a.sh(Reg::T3, 0, hptr);
        for p in [optr, fptr, iptr, gptr, cptr, hptr] {
            a.addi(p, p, 2);
        }
        a.addi(Reg::S5, Reg::S5, -1);
        a.bnez(Reg::S5, top);
    }
}

/// Emits a static word copy of `words` words from `src` to `dst` — the
/// cluster's per-step `x_t → xh` copy, where the step's source address
/// is a compile-time constant (each time step is its own phase program)
/// rather than the single-core kernel's cursor global.
pub fn emit_word_copy(ctx: &mut KernelCtx<'_>, src: u32, dst: u32, words: usize) {
    if words == 0 {
        return;
    }
    ctx.asm.li(regs::X0, src as i32);
    ctx.asm.li(regs::X1, dst as i32);
    emit_copy_loop(ctx, words);
}

/// `t3 ← tanh(t3)` via the level-appropriate mechanism.
fn emit_cell_tanh(ctx: &mut KernelCtx<'_>) {
    if ctx.level.has_act_ext() {
        ctx.asm.pl_tanh(Reg::T3, Reg::T3);
    } else {
        emit_sw_pla(ctx, Reg::T3, ActFunc::Tanh);
    }
}
