//! Matrix-vector (fully-connected) kernels at all five optimization
//! levels, including the Table II inner-loop schedules.

use super::act_sw::{emit_requant_act, emit_requant_hoists};
use super::{regs, KernelCtx, MatvecSpec, PtrSrc, ACC_POOL, MAX_TILE, WP_POOL};
use crate::error::CoreError;
use crate::optlevel::OptLevel;
use rnnasip_isa::{LoopIdx, Reg};
use rnnasip_sim::{Dot, KernelRegion, Matvec, RegionMath, ShortcutAct, ShortcutPtr};

/// Emits a complete matrix-vector kernel for the context's level.
///
/// # Errors
///
/// [`CoreError::Shape`] for odd `n_in` at SIMD levels (the runner pads
/// before calling), or zero-sized shapes.
pub fn emit_matvec(ctx: &mut KernelCtx<'_>, spec: &MatvecSpec) -> Result<(), CoreError> {
    if spec.n_out == 0 || spec.n_in == 0 {
        return Err(CoreError::Shape("matvec with empty shape".into()));
    }
    if ctx.level.has_xpulp() && !spec.n_in.is_multiple_of(2) {
        return Err(CoreError::Shape(format!(
            "SIMD kernels need even n_in, got {}",
            spec.n_in
        )));
    }
    let start_addr = ctx.asm.here();
    match ctx.level {
        OptLevel::Baseline => emit_baseline(ctx, spec),
        OptLevel::Xpulp => emit_xpulp(ctx, spec),
        OptLevel::OfmTile | OptLevel::SdotSp | OptLevel::IfmTile => emit_tiled(ctx, spec),
    }
    record_region(ctx, spec, start_addr);
    Ok(())
}

/// The shortcut-layer image of a pointer source.
fn shortcut_ptr(src: PtrSrc) -> ShortcutPtr {
    match src {
        PtrSrc::Const(addr) => ShortcutPtr::Const(addr),
        PtrSrc::Global(cell) => ShortcutPtr::Cell(cell),
    }
}

/// Records a [`KernelRegion`] descriptor for the code just emitted so the
/// simulator's shortcut tier can recognize it. Recording is unconditional
/// for well-formed specs; the simulator-side walker rejects regions it
/// cannot prove safe (e.g. the baseline level's whole kernel, whose
/// accumulator is spilled and whose epilogue branches on data — its
/// per-output [`Dot`] regions run natively instead).
fn record_region(ctx: &mut KernelCtx<'_>, spec: &MatvecSpec, start_addr: u32) {
    if spec.out_stride <= 0 {
        return;
    }
    let act = match spec.act {
        rnnasip_nn::Act::None => ShortcutAct::None,
        rnnasip_nn::Act::Relu => ShortcutAct::Relu,
        rnnasip_nn::Act::Tanh => ShortcutAct::Tanh,
        rnnasip_nn::Act::Sigmoid => ShortcutAct::Sigmoid,
    };
    ctx.regions.push(KernelRegion {
        start_addr,
        end_addr: ctx.asm.here(),
        math: RegionMath::Matvec(Matvec {
            w_base: spec.w_base,
            bias32: spec.bias32,
            x: shortcut_ptr(spec.x),
            out: shortcut_ptr(spec.out),
            out_stride: spec.out_stride as u32,
            n_in: spec.n_in as u32,
            n_out: spec.n_out as u32,
            act,
        }),
    });
}

/// Level (a): scalar RV32IMC with the accumulator spilled to memory,
/// reproducing the instruction mix of Table Ia (two `lh`, one `lw`, one
/// `sw`, one `mac`, two `addi`, one `bltu` per MAC).
///
/// Each output's input-cursor reset, bias seed and inner loop is
/// declared as a [`Dot`] region over the live weight, bias and spill
/// cursors; the data-dependent epilogue after it is not.
fn emit_baseline(ctx: &mut KernelCtx<'_>, spec: &MatvecSpec) {
    emit_requant_hoists(ctx, spec.act);
    emit_bias_base(ctx, spec);
    {
        let a = &mut *ctx.asm;
        a.li(regs::SPILL, spec.scratch as i32);
        a.li(regs::WP, spec.w_base as i32);
        a.li(regs::OUT_CNT, spec.n_out as i32);
    }
    ctx.load_ptr(regs::OP, spec.out);
    let out_loop = ctx.asm.new_label();
    ctx.asm.bind(out_loop);
    let dot_start = ctx.asm.here();
    // Reset the input cursor and its end bound for this output.
    ctx.load_ptr(regs::XP, spec.x);
    {
        let a = &mut *ctx.asm;
        if 2 * spec.n_in < 2048 {
            a.addi(regs::XEND, regs::XP, 2 * spec.n_in as i32);
        } else {
            a.li(regs::XEND, 2 * spec.n_in as i32);
            a.add(regs::XEND, regs::XP, regs::XEND);
        }
        // Seed the spilled accumulator with the pre-shifted bias.
        a.lw(regs::ACC0, 0, regs::BP);
        a.addi(regs::BP, regs::BP, 4);
        a.sw(regs::ACC0, 0, regs::SPILL);

        // Inner loop: one MAC per iteration, accumulator in memory.
        let inner = a.new_label();
        a.bind(inner);
        a.lh(regs::X0, 0, regs::WP); // weight
        a.lh(regs::X1, 0, regs::XP); // input
        a.lw(regs::ACC0, 0, regs::SPILL); // accumulator
        a.addi(regs::WP, regs::WP, 2); // breaks the load-use pair
        a.mac(regs::ACC0, regs::X0, regs::X1);
        a.sw(regs::ACC0, 0, regs::SPILL);
        a.addi(regs::XP, regs::XP, 2);
        a.bltu(regs::XP, regs::XEND, inner);
    }
    ctx.regions.push(KernelRegion {
        start_addr: dot_start,
        end_addr: ctx.asm.here(),
        math: RegionMath::Dot(Dot {
            w: ShortcutPtr::Reg(regs::WP),
            x: shortcut_ptr(spec.x),
            bias32: ShortcutPtr::Reg(regs::BP),
            spill: ShortcutPtr::Reg(regs::SPILL),
            n_in: spec.n_in as u32,
        }),
    });
    // Requantize, activate, store.
    emit_requant_act(ctx, regs::ACC0, spec.act);
    {
        let a = &mut *ctx.asm;
        a.sh(regs::ACC0, 0, regs::OP);
        if spec.out_stride < 2048 {
            a.addi(regs::OP, regs::OP, spec.out_stride);
        } else {
            a.li(regs::X0, spec.out_stride);
            a.add(regs::OP, regs::OP, regs::X0);
        }
        a.addi(regs::OUT_CNT, regs::OUT_CNT, -1);
        a.bnez(regs::OUT_CNT, out_loop);
    }
}

/// Sets `BP` to the bias-seed base (shared by all levels above baseline,
/// which advance it with post-increment loads... baseline advances it
/// with `addi`).
fn emit_bias_base(ctx: &mut KernelCtx<'_>, spec: &MatvecSpec) {
    ctx.asm.li(regs::BP, spec.bias32 as i32);
}

/// Level (b): packed SIMD + hardware loop + post-increment loads, one
/// output at a time (Section III-B).
fn emit_xpulp(ctx: &mut KernelCtx<'_>, spec: &MatvecSpec) {
    emit_requant_hoists(ctx, spec.act);
    emit_bias_base(ctx, spec);
    let acc = ACC_POOL[0]; // a4
    {
        let a = &mut *ctx.asm;
        a.li(regs::WP, spec.w_base as i32);
        a.li(regs::OUT_CNT, spec.n_out as i32);
    }
    ctx.load_ptr(regs::OP, spec.out);
    let out_loop = ctx.asm.new_label();
    ctx.asm.bind(out_loop);
    ctx.load_ptr(regs::XP, spec.x);
    {
        let a = &mut *ctx.asm;
        // acc = bias seed.
        a.lw_post(acc, 4, regs::BP);
        a.li(regs::CNT, (spec.n_in / 2) as i32);
        let end = a.new_label();
        a.lp_setup(LoopIdx::L0, regs::CNT, end);
        a.lw_post(regs::WV0, 4, regs::WP); // weight pair
        a.lw_post(regs::X0, 4, regs::XP); // input pair (stalls the sdot)
        a.pv_sdotsp_h(acc, regs::WV0, regs::X0);
        a.bind(end);
    }
    emit_requant_act(ctx, acc, spec.act);
    {
        let a = &mut *ctx.asm;
        a.sh_post(acc, spec.out_stride, regs::OP);
        a.addi(regs::OUT_CNT, regs::OUT_CNT, -1);
        a.bnez(regs::OUT_CNT, out_loop);
    }
}

/// Levels (c)–(e): output-FM tiling, optionally with the `pl.sdotsp.h`
/// schedule and input-FM tiling.
fn emit_tiled(ctx: &mut KernelCtx<'_>, spec: &MatvecSpec) {
    emit_requant_hoists(ctx, spec.act);
    let row_bytes = (spec.n_in * 2) as i32;
    {
        let a = &mut *ctx.asm;
        a.li(regs::WP, spec.w_base as i32);
        a.li(regs::ROWB, row_bytes);
    }
    emit_bias_base(ctx, spec);
    ctx.load_ptr(regs::OP, spec.out);

    let mut remaining = spec.n_out;
    while remaining > 0 {
        let tile = tile_size(ctx.level, remaining, ctx.max_tile);
        emit_tile(ctx, spec, tile);
        remaining -= tile;
    }
}

/// Chooses the next output-tile size for the level.
fn tile_size(level: OptLevel, remaining: usize, max_tile: usize) -> usize {
    let max = max_tile.clamp(1, MAX_TILE).min(remaining);
    if level.has_sdotsp_ext() && max >= 2 {
        // The pl.sdotsp SPR alternation needs an even tile.
        max & !1
    } else {
        max
    }
}

/// Emits one output tile: pointer setup, accumulator seeds, the inner
/// loop in the level's schedule, then requantize/activate/store.
fn emit_tile(ctx: &mut KernelCtx<'_>, spec: &MatvecSpec, n: usize) {
    let n_pairs = spec.n_in / 2;
    {
        let a = &mut *ctx.asm;
        // Tile row pointers: wp[0] = WP; wp[j] = wp[j-1] + row_bytes.
        a.mv(WP_POOL[0], regs::WP);
        for j in 1..n {
            a.add(WP_POOL[j], WP_POOL[j - 1], regs::ROWB);
        }
        // Advance the seed for the next tile.
        a.add(regs::WP, WP_POOL[n - 1], regs::ROWB);
        // Accumulator seeds from the pre-shifted bias array.
        for (j, &acc) in ACC_POOL.iter().enumerate().take(n) {
            a.lw(acc, 4 * j as i32, regs::BP);
        }
        a.addi(regs::BP, regs::BP, 4 * n as i32);
    }
    ctx.load_ptr(regs::XP, spec.x);

    match ctx.level {
        OptLevel::OfmTile => emit_tile_ofm(ctx, n, n_pairs),
        // A lone remainder output cannot alternate the two SPRs, so it
        // falls back to the explicit-load schedule at both d and e.
        OptLevel::SdotSp if n >= 2 => emit_tile_sdotsp(ctx, n, n_pairs),
        OptLevel::IfmTile if n >= 2 => emit_tile_ifm(ctx, n, n_pairs),
        OptLevel::SdotSp | OptLevel::IfmTile => emit_tile_ofm(ctx, n, n_pairs),
        _ => unreachable!("tiled emission is only for levels c-e"),
    }

    // Requantize, activate and store each tile output.
    for &acc in ACC_POOL.iter().take(n) {
        emit_requant_act(ctx, acc, spec.act);
        ctx.asm.sh_post(acc, spec.out_stride, regs::OP);
    }
}

/// Level (c) inner loop: one shared input load, `N` explicit weight
/// loads through the two alternating value registers, `N` `pv.sdotsp.h`.
/// The alternation keeps every load two instructions ahead of its
/// consumer, so the loop runs stall-free for `N >= 2` (Table Ic).
fn emit_tile_ofm(ctx: &mut KernelCtx<'_>, n: usize, n_pairs: usize) {
    let a = &mut *ctx.asm;
    a.li(regs::CNT, n_pairs as i32);
    let end = a.new_label();
    a.lp_setup(LoopIdx::L0, regs::CNT, end);
    a.lw_post(regs::X0, 4, regs::XP);
    if n == 1 {
        // Degenerate tile: same as level (b) — one bubble per iteration.
        a.lw_post(regs::WV0, 4, WP_POOL[0]);
        a.pv_sdotsp_h(ACC_POOL[0], regs::WV0, regs::X0);
    } else {
        let wv = [regs::WV0, regs::WV1];
        // Software pipeline: prime two weight loads, then consume and
        // refill each value register so every load sits two instructions
        // ahead of its consumer.
        a.lw_post(wv[0], 4, WP_POOL[0]);
        a.lw_post(wv[1], 4, WP_POOL[1]);
        for j in 0..n {
            a.pv_sdotsp_h(ACC_POOL[j], wv[j % 2], regs::X0);
            if j + 2 < n {
                a.lw_post(wv[j % 2], 4, WP_POOL[j + 2]);
            }
        }
    }
    a.bind(end);
}

/// Level (d) inner loop (Table II, right): one shared input load and `N`
/// merged load-and-compute `pl.sdotsp.h` instructions. Instruction `j`
/// accumulates output `j` from `SPR[j mod 2]` while prefetching the pair
/// that instruction `j+2` (same parity) will consume — which is why its
/// weight pointer belongs to output `(j + 2) mod N`. The two SPRs are
/// pre-loaded before the loop.
fn emit_tile_sdotsp(ctx: &mut KernelCtx<'_>, n: usize, n_pairs: usize) {
    debug_assert!(n >= 2 && n.is_multiple_of(2), "sdotsp tiles are even");
    let a = &mut *ctx.asm;
    // Preload SPR0/SPR1 with the first pairs of rows 0 and 1.
    a.pl_sdotsp(0, Reg::ZERO, WP_POOL[0], Reg::ZERO);
    a.pl_sdotsp(1, Reg::ZERO, WP_POOL[1], Reg::ZERO);
    a.li(regs::CNT, n_pairs as i32);
    let end = a.new_label();
    a.lp_setup(LoopIdx::L0, regs::CNT, end);
    a.lw_post(regs::X0, 4, regs::XP); // stalls the first pl.sdotsp (the Table II bubble)
    for j in 0..n {
        a.pl_sdotsp((j % 2) as u8, ACC_POOL[j], WP_POOL[(j + 2) % n], regs::X0);
    }
    a.bind(end);
}

/// Level (e) inner loop: two input pairs per iteration (`2N` merged
/// MACs), which moves every `pl.sdotsp` at least two instructions away
/// from the input load — the bubble of level (d) disappears
/// (Section III-E, last paragraph).
fn emit_tile_ifm(ctx: &mut KernelCtx<'_>, n: usize, n_pairs: usize) {
    debug_assert!(n >= 2, "input-FM tiling needs at least two outputs");
    let iterations = n_pairs / 2;
    let leftover = n_pairs % 2;
    let a = &mut *ctx.asm;
    a.pl_sdotsp(0, Reg::ZERO, WP_POOL[0], Reg::ZERO);
    a.pl_sdotsp(1, Reg::ZERO, WP_POOL[1], Reg::ZERO);
    // Flat schedule over 2N merged MACs; pointer of instruction k
    // prefetches for instruction k+2.
    let schedule = |a: &mut rnnasip_asm::Asm, xs: &[Reg], n: usize| {
        let total = xs.len() * n;
        for k in 0..total {
            let x = xs[k / n];
            a.pl_sdotsp((k % 2) as u8, ACC_POOL[k % n], WP_POOL[(k + 2) % n], x);
        }
    };
    if iterations > 0 {
        a.li(regs::CNT, iterations as i32);
        let end = a.new_label();
        a.lp_setup(LoopIdx::L0, regs::CNT, end);
        a.lw_post(regs::X0, 4, regs::XP);
        a.lw_post(regs::X1, 4, regs::XP);
        schedule(a, &[regs::X0, regs::X1], n);
        a.bind(end);
    }
    if leftover == 1 {
        a.lw_post(regs::X0, 4, regs::XP);
        schedule(a, &[regs::X0], n);
    }
}

/// Returns the Table II comparison listing: the inner loop with output-FM
/// tiling only (left column) and with the `pl.sdotsp.h` instruction
/// (right column), as disassembly text for a tile of four outputs.
pub fn table2_listing() -> (String, String) {
    use crate::layout::DataLayout;
    use rnnasip_nn::Act;

    let spec = MatvecSpec {
        w_base: 0x1000,
        bias32: 0x2000,
        x: super::PtrSrc::Const(0x3000),
        out: super::PtrSrc::Const(0x4000),
        out_stride: 2,
        n_in: 18, // 9 packed pairs, matching the paper's lp.setupi count
        n_out: 4,
        act: Act::None,
        scratch: 0x5000,
    };
    let _ = DataLayout::new(0, 0x8000);
    let render = |level: OptLevel| -> String {
        let mut asm = rnnasip_asm::Asm::new(0);
        let mut regions = Vec::new();
        let mut ctx = KernelCtx {
            asm: &mut asm,
            level,
            luts: (0, 0, 0, 0),
            max_tile: 4,
            regions: &mut regions,
        };
        emit_matvec(&mut ctx, &spec).expect("table II spec is valid");
        let prog = asm.assemble().expect("table II listing assembles");
        prog.iter()
            .map(|item| format!("{}\n", item.instr))
            .collect()
    };
    (render(OptLevel::OfmTile), render(OptLevel::SdotSp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_sizes_respect_level_constraints() {
        assert_eq!(tile_size(OptLevel::OfmTile, 23, 10), 10);
        assert_eq!(tile_size(OptLevel::OfmTile, 3, 10), 3);
        assert_eq!(tile_size(OptLevel::SdotSp, 23, 10), 10);
        assert_eq!(tile_size(OptLevel::SdotSp, 7, 10), 6);
        assert_eq!(tile_size(OptLevel::SdotSp, 1, 10), 1);
        assert_eq!(tile_size(OptLevel::IfmTile, 9, 10), 8);
        // The ablation knob caps the tile.
        assert_eq!(tile_size(OptLevel::SdotSp, 23, 4), 4);
        assert_eq!(tile_size(OptLevel::OfmTile, 23, 1), 1);
        // Out-of-range requests clamp instead of panicking.
        assert_eq!(tile_size(OptLevel::OfmTile, 23, 99), 10);
    }

    #[test]
    fn table2_listing_contains_expected_mnemonics() {
        let (ofm, sdotsp) = table2_listing();
        assert!(ofm.contains("pv.sdotsp.h"));
        assert!(ofm.contains("p.lw"));
        assert!(!ofm.contains("pl.sdotsp"));
        assert!(sdotsp.contains("pl.sdotsp.h.0"));
        assert!(sdotsp.contains("pl.sdotsp.h.1"));
        assert!(sdotsp.contains("lp.setup"));
    }
}
