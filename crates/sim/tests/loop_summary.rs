//! Hand-built kernel regions exercising the shortcut verifier's
//! hardware-loop summary.
//!
//! Verification walks a declared kernel region op by op, but applies the
//! iterations of a hardware loop in closed form once one iteration has
//! shifted the walk's state by constants. Each kernel here runs on a
//! machine with the region installed (`translate_with_shortcuts`), on
//! one without it (`translate`) and on the stepping reference
//! (`run_stepping`); outputs, registers, cycles, instret, every
//! statistics row and memory must be identical. Debug builds also re-run
//! the full walk after every summary and compare the two installed
//! regions field by field.

use rnnasip_isa::{
    AluImmOp, AluOp, BranchOp, DotOp, Instr, LoadOp, LoopIdx, MulDivOp, PvAluOp, Reg, SimdMode,
    SimdSize, StoreOp,
};
use rnnasip_rng::StdRng;
use rnnasip_sim::{
    ExitReason, KernelRegion, Machine, Matvec, Memory, Program, RegionMath, ShortcutAct,
    ShortcutPtr, UopProgram,
};
use std::sync::Arc;

const CODE: u32 = 0x1000;
const BIAS: u32 = 0x100;
const X: u32 = 0x200;
const W: u32 = 0x300;
const OUT: u32 = 0x700;
const GATHER: u32 = 0x740;

const BP: Reg = Reg::T0;
const WP: Reg = Reg::T1;
const XP: Reg = Reg::T2;
const OP: Reg = Reg::S0;
const CNT: Reg = Reg::S1;
const OCNT: Reg = Reg::A0;
const GP: Reg = Reg::A2;
const WP1: Reg = Reg::A3;
const ACC: Reg = Reg::A4;
const ACC1: Reg = Reg::A5;
const WV: Reg = Reg::A6;
const XV: Reg = Reg::A7;
const TMP: Reg = Reg::A1;

fn li(rd: Reg, imm: u32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1: Reg::ZERO,
        imm: imm as i32,
    }
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

fn lw_post(rd: Reg, rs1: Reg) -> Instr {
    Instr::LoadPostInc {
        op: LoadOp::Lw,
        rd,
        rs1,
        offset: 4,
    }
}

fn sdot(rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
    Instr::PvDot {
        op: DotOp::SdotSp,
        size: SimdSize::Half,
        rd,
        rs1,
        rs2,
    }
}

fn pl_sdotsp(spr: u8, rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
    Instr::PlSdotsp {
        spr,
        size: SimdSize::Half,
        rd,
        rs1,
        rs2,
    }
}

/// `srai 12`, `clip 16`, `sh` with post-increment: the kernel epilogue.
fn requant_store(acc: Reg) -> [Instr; 3] {
    [
        Instr::OpImm {
            op: AluImmOp::Srai,
            rd: acc,
            rs1: acc,
            imm: 12,
        },
        Instr::Clip {
            rd: acc,
            rs1: acc,
            bits: 16,
        },
        Instr::StorePostInc {
            op: StoreOp::Sh,
            rs2: acc,
            rs1: OP,
            offset: 2,
        },
    ]
}

/// A kernel: the region's instructions (an `ecall` follows) and its
/// descriptor shape.
struct Kernel {
    body: Vec<Instr>,
    n_in: u32,
    n_out: u32,
}

impl Kernel {
    fn program(&self) -> Program {
        let mut instrs = self.body.clone();
        instrs.push(Instr::Ecall);
        Program::from_instrs(CODE, instrs)
    }

    fn region(&self) -> KernelRegion {
        self.region_with(|_| {})
    }

    /// The region with its descriptor changed by `edit`.
    fn region_with(&self, edit: impl FnOnce(&mut Matvec)) -> KernelRegion {
        let mut m = Matvec {
            w_base: W,
            bias32: BIAS,
            x: ShortcutPtr::Const(X),
            out: ShortcutPtr::Const(OUT),
            out_stride: 2,
            n_in: self.n_in,
            n_out: self.n_out,
            act: ShortcutAct::None,
        };
        edit(&mut m);
        KernelRegion {
            start_addr: CODE,
            end_addr: CODE + 4 * self.body.len() as u32,
            math: RegionMath::Matvec(m),
        }
    }
}

/// Level-(b) shape: a software loop over outputs around a hardware loop
/// of `count` iterations (one weight pair and one input pair each). A
/// count of 0 runs the body once, like 1.
fn xpulp_kernel(count: u32, n_out: u32) -> Kernel {
    let mut body = vec![li(BP, BIAS), li(WP, W), li(OCNT, n_out), li(OP, OUT)];
    let out_loop = body.len();
    body.extend([
        li(XP, X),
        lw_post(ACC, BP),
        li(CNT, count),
        Instr::LpSetup {
            l: LoopIdx::L0,
            rs1: CNT,
            uimm: 2 + 2 * 3,
        },
        lw_post(WV, WP),
        lw_post(XV, XP),
        sdot(ACC, WV, XV),
    ]);
    body.extend(requant_store(ACC));
    body.push(addi(OCNT, OCNT, -1));
    let back = -4 * (body.len() - out_loop) as i32;
    body.push(Instr::Branch {
        op: BranchOp::Bne,
        rs1: OCNT,
        rs2: Reg::ZERO,
        offset: back,
    });
    Kernel {
        body,
        n_in: 2 * count.max(1),
        n_out,
    }
}

/// One output whose `outer × inner` input pairs stream through two
/// hardware-loop levels that share their end address.
fn nested_kernel(outer: u32, inner: u32) -> Kernel {
    let mut body = vec![
        li(BP, BIAS),
        li(WP, W),
        li(XP, X),
        li(OP, OUT),
        lw_post(ACC, BP),
        Instr::LpSetupi {
            l: LoopIdx::L1,
            count: outer,
            uimm: 2 + 2 * 4,
        },
        Instr::LpSetupi {
            l: LoopIdx::L0,
            count: inner,
            uimm: 2 + 2 * 3,
        },
        lw_post(WV, WP),
        lw_post(XV, XP),
        sdot(ACC, WV, XV),
    ];
    body.extend(requant_store(ACC));
    Kernel {
        body,
        n_in: 2 * outer * inner,
        n_out: 1,
    }
}

/// Level-(d) shape: a two-output tile whose `pl.sdotsp` weight loads are
/// still in flight across every iteration boundary.
fn sdotsp_kernel(count: u32) -> Kernel {
    let n_in = 2 * count;
    let mut body = vec![
        li(BP, BIAS),
        li(WP, W),
        li(WP1, W + 2 * n_in),
        li(XP, X),
        li(OP, OUT),
        Instr::Load {
            op: LoadOp::Lw,
            rd: ACC,
            rs1: BP,
            offset: 0,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: ACC1,
            rs1: BP,
            offset: 4,
        },
        pl_sdotsp(0, Reg::ZERO, WP, Reg::ZERO),
        pl_sdotsp(1, Reg::ZERO, WP1, Reg::ZERO),
        li(CNT, count),
        Instr::LpSetup {
            l: LoopIdx::L0,
            rs1: CNT,
            uimm: 2 + 2 * 3,
        },
        lw_post(XV, XP),
        pl_sdotsp(0, ACC, WP, XV),
        pl_sdotsp(1, ACC1, WP1, XV),
    ];
    body.extend(requant_store(ACC));
    body.extend(requant_store(ACC1));
    Kernel {
        body,
        n_in,
        n_out: 2,
    }
}

/// One output whose input pairs are fetched through a gather table: the
/// input pointer of each iteration is a word loaded through a moving
/// pointer from a table the descriptor does not name, so verification
/// must reject the region.
fn gather_kernel(count: u32) -> Kernel {
    let mut body = vec![
        li(BP, BIAS),
        li(WP, W),
        li(GP, GATHER),
        li(OP, OUT),
        lw_post(ACC, BP),
        Instr::LpSetupi {
            l: LoopIdx::L0,
            count,
            uimm: 2 + 2 * 4,
        },
        lw_post(TMP, GP),
        lw_post(WV, WP),
        Instr::Load {
            op: LoadOp::Lw,
            rd: XV,
            rs1: TMP,
            offset: 0,
        },
        sdot(ACC, WV, XV),
    ];
    body.extend(requant_store(ACC));
    Kernel {
        body,
        n_in: 2 * count,
        n_out: 1,
    }
}

/// A machine over seeded weights, biases and inputs (and the gather
/// table `GATHER[k] = X + 4k`), running `uops`.
fn machine(prog: &Program, uops: UopProgram) -> Machine {
    let mut mem = Memory::new(64 * 1024);
    let mut rng = StdRng::seed_from_u64(0x5EED_100B);
    for a in (BIAS..OUT).step_by(2) {
        let v = (rng.gen::<u32>() % 8192) as u16 as i16 - 4096;
        mem.write_u16(a, v as u16).unwrap();
    }
    for k in 0..16 {
        mem.write_u32(GATHER + 4 * k, X + 4 * k).unwrap();
    }
    let image = mem.image();
    mem.load_image(&image);
    let mut m = Machine::with_memory(mem);
    m.load_program_shared(prog, Arc::new(uops));
    m
}

/// Asserts that two finished machines agree in every observable; `ctx`
/// leads every failure message.
fn assert_same(ctx: &str, a: &Machine, b: &Machine) {
    let (x, y) = (a.core(), b.core());
    assert_eq!(x.pc, y.pc, "{ctx}pc");
    assert_eq!(x.cycle, y.cycle, "{ctx}cycle");
    assert_eq!(x.instret, y.instret, "{ctx}instret");
    for r in Reg::all() {
        assert_eq!(x.reg(r), y.reg(r), "{ctx}register {r}");
    }
    assert_eq!(x.spr, y.spr, "{ctx}spr");
    for l in 0..2 {
        assert_eq!(x.hwloop[l].count, y.hwloop[l].count, "{ctx}hwloop count");
        assert_eq!(x.hwloop[l].start, y.hwloop[l].start, "{ctx}hwloop start");
        assert_eq!(x.hwloop[l].end, y.hwloop[l].end, "{ctx}hwloop end");
    }
    assert_eq!(a.stats().to_csv(), b.stats().to_csv(), "{ctx}stats");
    assert!(a.stats().iter().eq(b.stats().iter()), "{ctx}stats rows");
    assert!(a.mem().image() == b.mem().image(), "{ctx}memory");
}

/// Runs the kernel with and without its shortcut region, and stepping,
/// and asserts bit-identity. Returns the shortcut translation's
/// verification walk.
fn assert_identical(k: &Kernel, expect_installed: bool) -> u64 {
    assert_region(k, k.region(), expect_installed)
}

/// [`assert_identical`] with the kernel declared as `region`.
fn assert_region(k: &Kernel, region: KernelRegion, expect_installed: bool) -> u64 {
    let prog = k.program();
    let with = UopProgram::translate_with_shortcuts(&prog, &[region]);
    let walked = with.verify_ops();
    assert_eq!(with.shortcut_regions(), usize::from(expect_installed));
    let mut sc = machine(&prog, with);
    let mut plain = machine(&prog, UopProgram::translate(&prog));
    let mut step = machine(&prog, UopProgram::translate(&prog));
    assert_eq!(sc.run(1_000_000).unwrap(), ExitReason::Ecall);
    assert_eq!(plain.run(1_000_000).unwrap(), ExitReason::Ecall);
    assert_eq!(step.run_stepping(1_000_000).unwrap(), ExitReason::Ecall);
    if expect_installed {
        assert!(sc.shortcut_instrs() > 0, "the shortcut must engage");
    }
    assert_eq!(plain.shortcut_instrs(), 0);
    assert_same("", &sc, &plain);
    assert_same("", &sc, &step);
    walked
}

#[test]
fn every_loop_count_matches_the_uop_tier() {
    for count in [0, 1, 2, 3, 4, 5, 64] {
        for n_out in [1, 3] {
            assert_identical(&xpulp_kernel(count, n_out), true);
        }
    }
}

#[test]
fn summarized_walk_does_not_grow_with_the_loop_count() {
    // Two iterations are watched and the rest applied in closed form, so
    // a 64-iteration loop walks no more than a 5-iteration one.
    let short = assert_identical(&xpulp_kernel(5, 3), true);
    let long = assert_identical(&xpulp_kernel(64, 3), true);
    assert_eq!(short, long);
}

#[test]
fn loop_levels_sharing_an_end_address() {
    for (outer, inner) in [(1, 1), (2, 3), (3, 1), (4, 8), (3, 31)] {
        assert_identical(&nested_kernel(outer, inner), true);
    }
}

#[test]
fn sdotsp_writes_pending_across_iterations() {
    let mut walks = Vec::new();
    for count in [1, 2, 3, 4, 64] {
        walks.push(assert_identical(&sdotsp_kernel(count), true));
    }
    assert_eq!(walks[3], walks[4], "64 iterations walk like 4");
}

#[test]
fn region_exit_with_two_spr_writes_in_flight() {
    // The region ends in two discarding `pl.sdotsp` reads of the bias
    // words, so its commit hands the machine both writes in flight. The
    // op right after it drains the older one into SPR 0 and reads it,
    // issuing a third; the next reads SPR 1 as its write lands. A
    // prefix op enters the region at an odd `instret`.
    for (count, prefix) in [(1, 0), (4, 0), (4, 1)] {
        let mut k = sdotsp_kernel(count);
        k.body.extend([
            pl_sdotsp(0, Reg::ZERO, BP, Reg::ZERO),
            pl_sdotsp(1, Reg::ZERO, BP, Reg::ZERO),
        ]);
        let mut instrs = vec![li(GP, 0); prefix];
        instrs.extend(k.body.iter().copied());
        instrs.extend([
            pl_sdotsp(0, TMP, BP, XV),
            pl_sdotsp(1, GP, BP, XV),
            addi(TMP, TMP, 1),
            Instr::Ecall,
        ]);
        let prog = Program::from_instrs(CODE, instrs);
        let shift = 4 * prefix as u32;
        let region = KernelRegion {
            start_addr: CODE + shift,
            end_addr: CODE + shift + 4 * k.body.len() as u32,
            ..k.region()
        };
        let with = UopProgram::translate_with_shortcuts(&prog, &[region]);
        assert_eq!(with.shortcut_regions(), 1);
        let mut sc = machine(&prog, with);
        let mut step = machine(&prog, UopProgram::translate(&prog));
        assert_eq!(sc.run(1_000_000).unwrap(), ExitReason::Ecall);
        assert_eq!(step.run_stepping(1_000_000).unwrap(), ExitReason::Ecall);
        assert!(sc.shortcut_instrs() > 0, "the shortcut must engage");
        assert_ne!(
            sc.core().reg(TMP),
            1,
            "the tail must read the landed weight"
        );
        assert_same(&format!("count {count}, prefix {prefix}: "), &sc, &step);
    }
}

#[test]
fn pointer_loaded_through_a_moving_pointer_falls_back() {
    for count in [8, 16] {
        assert_identical(&gather_kernel(count), false);
    }
}

/// The pointer cell of [`residue_kernel`]'s input.
const X_CELL: u32 = 0x7F0;

/// One output over an input loaded from the pointer cell [`X_CELL`],
/// after a loop that streams four words through that pointer `stride`
/// bytes apart, inside the input span. A stride that is not a multiple
/// of 4 breaks the word residue the first read set, so the region must
/// be rejected — with or without the loop summary.
fn residue_kernel(stride: i32) -> Kernel {
    // Input pairs enough for the input span to hold the strided words.
    const PAIRS: u32 = 0xC4;
    let mut body = vec![
        li(BP, BIAS),
        li(WP, W),
        li(OP, OUT),
        Instr::Load {
            op: LoadOp::Lw,
            rd: XP,
            rs1: Reg::ZERO,
            offset: X_CELL as i32,
        },
        addi(GP, XP, 0),
        li(CNT, 4),
        Instr::LpSetup {
            l: LoopIdx::L1,
            rs1: CNT,
            uimm: 2 + 2,
        },
        Instr::LoadPostInc {
            op: LoadOp::Lw,
            rd: TMP,
            rs1: GP,
            offset: stride,
        },
        lw_post(ACC, BP),
        Instr::LpSetupi {
            l: LoopIdx::L0,
            count: PAIRS,
            uimm: 2 + 2 * 3,
        },
        lw_post(WV, WP),
        lw_post(XV, XP),
        sdot(ACC, WV, XV),
    ];
    body.extend(requant_store(ACC));
    Kernel {
        body,
        n_in: 2 * PAIRS,
        n_out: 1,
    }
}

#[test]
fn a_stride_breaking_alignment_rejects_like_the_full_walk() {
    let installed = |stride| {
        let k = residue_kernel(stride);
        let region = k.region_with(|m| m.x = ShortcutPtr::Cell(X_CELL));
        UopProgram::translate_with_shortcuts(&k.program(), &[region]).shortcut_regions()
    };
    assert_eq!(installed(0x104), 1);
    assert_eq!(installed(0x102), 0);
}

/// [`xpulp_kernel`]'s 3 outputs over 4 input pairs, declared with other
/// operands: fewer or more inputs, the weights a row off, the bias words
/// a word off. Each declared span then either misses a load or is not
/// read from end to end, so nothing installs, and the kernel runs as
/// interpreted.
#[test]
fn a_matvec_declaring_other_operands_installs_nothing() {
    let k = xpulp_kernel(4, 3);
    let row = 2 * k.n_in;
    for (n_in, w_base, bias32) in [
        (6, W, BIAS),
        (10, W, BIAS),
        (k.n_in, W + row, BIAS),
        (k.n_in, W - row, BIAS),
        (k.n_in, W, BIAS + 4),
        (k.n_in, W, BIAS - 4),
    ] {
        let region = k.region_with(|m| (m.n_in, m.w_base, m.bias32) = (n_in, w_base, bias32));
        assert_region(&k, region, false);
    }
}

/// One output over a hardware loop whose count, weight-pointer
/// displacement and input pointer come out of a constant prologue that
/// runs every pure op family on edge operands: division by zero,
/// `i32::MIN / -1`, `p.clb 0`, `p.ff1 0`, shift and rotate amounts of 32
/// or more, and `0x7FFF` / `0x8000` around the clip bounds. Every
/// prologue result is also mixed into an exit-live checksum register.
/// Verification folds all of it, so a fold that disagreed with the
/// interpreter would change the loop count, a stream or a committed
/// register.
fn folding_kernel() -> Kernel {
    const MIN: Reg = Reg::S2; // i32::MIN
    const M1: Reg = Reg::S3; // -1
    const H7: Reg = Reg::S4; // 0x7FFF
    const H8: Reg = Reg::S5; // 0x8000
    const SH: Reg = Reg::S6; // 35: shifts by 3 after masking
    const R39: Reg = Reg::S7; // 39: rotates by 7 after masking
    const PK: Reg = Reg::S8; // halves 0x8001 : 0x7FFF
    const PB: Reg = Reg::S9; // bytes 0x80 0x7F 0x01 0xFF
    const CK: Reg = Reg::S10; // checksum
    const T: Reg = Reg::S11; // each value
    let op = |op, rs1, rs2| Instr::Op {
        op,
        rd: T,
        rs1,
        rs2,
    };
    let opi = |op, rs1, imm| Instr::OpImm {
        op,
        rd: T,
        rs1,
        imm,
    };
    let md = |op, rs1, rs2| Instr::MulDiv {
        op,
        rd: T,
        rs1,
        rs2,
    };
    let pv = |op, size, mode, rs1, rs2| Instr::PvAlu {
        op,
        size,
        mode,
        rd: T,
        rs1,
        rs2,
    };
    let dot = |op, size, rs1, rs2| Instr::PvDot {
        op,
        size,
        rd: T,
        rs1,
        rs2,
    };
    let (h, b) = (SimdSize::Half, SimdSize::Byte);
    let values = [
        // OpImm
        opi(AluImmOp::Slti, MIN, 0),
        opi(AluImmOp::Sltiu, M1, -1),
        opi(AluImmOp::Xori, H7, -1),
        opi(AluImmOp::Ori, MIN, 0x7FF),
        opi(AluImmOp::Andi, M1, 0x555),
        opi(AluImmOp::Slli, M1, 31),
        opi(AluImmOp::Srli, MIN, 31),
        opi(AluImmOp::Srai, MIN, 31),
        // Op
        op(AluOp::Add, MIN, M1),
        op(AluOp::Sub, MIN, H7),
        op(AluOp::Sll, M1, SH),
        op(AluOp::Slt, MIN, H7),
        op(AluOp::Sltu, MIN, H7),
        op(AluOp::Xor, PK, PB),
        op(AluOp::Srl, MIN, SH),
        op(AluOp::Sra, MIN, R39),
        op(AluOp::Or, H8, PB),
        op(AluOp::And, PK, PB),
        // MulDiv
        md(MulDivOp::Mul, MIN, M1),
        md(MulDivOp::Mulh, MIN, MIN),
        md(MulDivOp::Mulhsu, M1, M1),
        md(MulDivOp::Mulhu, M1, M1),
        md(MulDivOp::Div, MIN, M1),
        md(MulDivOp::Div, H7, Reg::ZERO),
        md(MulDivOp::Divu, H7, Reg::ZERO),
        md(MulDivOp::Divu, M1, H8),
        md(MulDivOp::Rem, MIN, M1),
        md(MulDivOp::Rem, MIN, Reg::ZERO),
        md(MulDivOp::Remu, M1, Reg::ZERO),
        md(MulDivOp::Remu, M1, H7),
        // Mac / Msu accumulate into the previous value.
        Instr::Mac {
            rd: T,
            rs1: MIN,
            rs2: M1,
        },
        Instr::Msu {
            rd: T,
            rs1: H7,
            rs2: H8,
        },
        // Clip / ClipU
        Instr::Clip {
            rd: T,
            rs1: H8,
            bits: 16,
        },
        Instr::Clip {
            rd: T,
            rs1: MIN,
            bits: 16,
        },
        Instr::Clip {
            rd: T,
            rs1: H7,
            bits: 16,
        },
        Instr::Clip {
            rd: T,
            rs1: MIN,
            bits: 32,
        },
        Instr::Clip {
            rd: T,
            rs1: M1,
            bits: 1,
        },
        Instr::ClipU {
            rd: T,
            rs1: H8,
            bits: 16,
        },
        Instr::ClipU {
            rd: T,
            rs1: M1,
            bits: 16,
        },
        // Unary
        Instr::ExtHs { rd: T, rs1: PK },
        Instr::ExtHz { rd: T, rs1: PK },
        Instr::ExtBs { rd: T, rs1: PB },
        Instr::ExtBz { rd: T, rs1: PB },
        Instr::PAbs { rd: T, rs1: MIN },
        Instr::Ff1 {
            rd: T,
            rs1: Reg::ZERO,
        },
        Instr::Ff1 { rd: T, rs1: H8 },
        Instr::Fl1 {
            rd: T,
            rs1: Reg::ZERO,
        },
        Instr::Fl1 { rd: T, rs1: MIN },
        Instr::Cnt { rd: T, rs1: PB },
        Instr::Clb {
            rd: T,
            rs1: Reg::ZERO,
        },
        Instr::Clb { rd: T, rs1: MIN },
        Instr::Clb { rd: T, rs1: M1 },
        Instr::Clb { rd: T, rs1: H7 },
        Instr::PlTanh { rd: T, rs1: H7 },
        Instr::PlTanh { rd: T, rs1: H8 },
        Instr::PlSig { rd: T, rs1: H7 },
        Instr::PlSig { rd: T, rs1: MIN },
        // PMin / PMax / Ror
        Instr::PMin {
            rd: T,
            rs1: MIN,
            rs2: H7,
        },
        Instr::PMax {
            rd: T,
            rs1: MIN,
            rs2: M1,
        },
        Instr::Ror {
            rd: T,
            rs1: H7,
            rs2: SH,
        },
        Instr::Ror {
            rd: T,
            rs1: MIN,
            rs2: R39,
        },
        // pv.* in vector-vector, replicated-scalar and immediate modes
        pv(PvAluOp::Add, h, SimdMode::Vv, PK, PK),
        pv(PvAluOp::Sub, b, SimdMode::Vv, PB, H7),
        pv(PvAluOp::Avg, h, SimdMode::Vv, PK, MIN),
        pv(PvAluOp::Min, b, SimdMode::Vv, PB, M1),
        pv(PvAluOp::Max, h, SimdMode::Vv, PK, H8),
        pv(PvAluOp::Srl, h, SimdMode::Vv, PK, R39),
        pv(PvAluOp::Sra, b, SimdMode::Vv, PB, PB),
        pv(PvAluOp::Sll, b, SimdMode::Vv, PB, SH),
        pv(PvAluOp::Abs, h, SimdMode::Vv, PK, Reg::ZERO),
        pv(PvAluOp::Xor, b, SimdMode::Vv, PB, PK),
        pv(PvAluOp::Add, h, SimdMode::Sc, PK, M1),
        pv(PvAluOp::Sra, b, SimdMode::Sc, PB, SH),
        pv(PvAluOp::Max, h, SimdMode::Sc, PK, H8),
        pv(PvAluOp::Or, b, SimdMode::Sc, PB, H7),
        pv(PvAluOp::Add, h, SimdMode::Sci(-1), PK, Reg::ZERO),
        pv(PvAluOp::Srl, b, SimdMode::Sci(31), PB, Reg::ZERO),
        pv(PvAluOp::And, h, SimdMode::Sci(-32), PK, Reg::ZERO),
        // pv.dot*: fresh, then accumulating into the previous value
        dot(DotOp::DotUp, h, PK, PK),
        dot(DotOp::DotUsp, b, PB, PB),
        dot(DotOp::DotSp, h, PK, PK),
        dot(DotOp::DotSp, b, PB, MIN),
        dot(DotOp::SdotUp, b, PB, PB),
        dot(DotOp::SdotUsp, h, PK, PK),
        dot(DotOp::SdotSp, b, PB, PB),
        dot(DotOp::SdotSp, h, PK, H8),
    ];

    let mut body = vec![
        Instr::Lui {
            rd: MIN,
            imm20: 0x80000,
        },
        li(M1, -1i32 as u32),
        Instr::Lui { rd: H8, imm20: 0x8 },
        addi(H7, H8, -1),
        li(SH, 35),
        li(R39, 39),
        Instr::Lui {
            rd: PK,
            imm20: 0x80018,
        },
        addi(PK, PK, -1),
        Instr::Lui {
            rd: PB,
            imm20: 0x807F0,
        },
        addi(PB, PB, 0x1FF),
        li(CK, 0x5A),
    ];
    for v in values {
        body.extend([
            v,
            Instr::Op {
                op: AluOp::Xor,
                rd: CK,
                rs1: CK,
                rs2: T,
            },
            Instr::Ror {
                rd: CK,
                rs1: CK,
                rs2: R39,
            },
        ]);
    }
    // Loop count 4 = (p.ff1 0 >> 35) + p.clb 0.
    body.extend([
        Instr::Ff1 {
            rd: TMP,
            rs1: Reg::ZERO,
        },
        Instr::Op {
            op: AluOp::Srl,
            rd: TMP,
            rs1: TMP,
            rs2: SH,
        },
        Instr::Clb {
            rd: GP,
            rs1: Reg::ZERO,
        },
        Instr::Op {
            op: AluOp::Add,
            rd: CNT,
            rs1: TMP,
            rs2: GP,
        },
    ]);
    // Weight pointer (W - 8) + mulhu(-1, 9) = W.
    body.extend([
        li(WP1, 9),
        Instr::MulDiv {
            op: MulDivOp::Mulhu,
            rd: WP1,
            rs1: M1,
            rs2: WP1,
        },
        li(WP, W - 8),
        Instr::Op {
            op: AluOp::Add,
            rd: WP,
            rs1: WP,
            rs2: WP1,
        },
    ]);
    // Input pointer (X + 1) + (clip16(i32::MIN) + clip16(0x8000)) = X.
    body.extend([
        Instr::Clip {
            rd: ACC1,
            rs1: MIN,
            bits: 16,
        },
        Instr::Clip {
            rd: TMP,
            rs1: H8,
            bits: 16,
        },
        Instr::Op {
            op: AluOp::Add,
            rd: ACC1,
            rs1: ACC1,
            rs2: TMP,
        },
        li(XP, X + 1),
        Instr::Op {
            op: AluOp::Add,
            rd: XP,
            rs1: XP,
            rs2: ACC1,
        },
    ]);
    body.extend([
        li(BP, BIAS),
        li(OP, OUT),
        lw_post(ACC, BP),
        Instr::LpSetup {
            l: LoopIdx::L0,
            rs1: CNT,
            uimm: 2 + 2 * 3,
        },
        lw_post(WV, WP),
        lw_post(XV, XP),
        sdot(ACC, WV, XV),
    ]);
    body.extend(requant_store(ACC));
    Kernel {
        body,
        n_in: 8,
        n_out: 1,
    }
}

#[test]
fn constant_prologue_folds_through_every_pure_op_family() {
    assert_identical(&folding_kernel(), true);
}

/// A counter that climbs by 4 per iteration of [`pinned_kernel`]'s loop.
const K: Reg = Reg::S2;

/// One output over a hardware loop of `count` iterations whose body also
/// runs `probe`: ops that read the climbing counter [`K`] through a rule
/// that must pin it, then clear every register they wrote. A pinned
/// source that moves is not a constant shift, so the loop must be walked
/// iteration by iteration; without the pin the summary would take the
/// probe as the same in every iteration.
fn pinned_kernel(count: u32, probe: &[Instr]) -> Kernel {
    let mut body = vec![
        li(BP, BIAS),
        li(WP, W),
        li(XP, X),
        li(OP, OUT),
        li(K, 0),
        lw_post(ACC, BP),
        Instr::LpSetupi {
            l: LoopIdx::L0,
            count,
            uimm: 2 + 2 * (4 + probe.len() as u32),
        },
        lw_post(WV, WP),
        lw_post(XV, XP),
    ];
    body.extend_from_slice(probe);
    body.extend([addi(K, K, 4), sdot(ACC, WV, XV)]);
    body.extend(requant_store(ACC));
    Kernel {
        body,
        n_in: 2 * count,
        n_out: 1,
    }
}

/// Asserts that [`pinned_kernel`] matches the uop tier and that its loop
/// is walked: eight more iterations walk eight more bodies.
fn assert_pinned(probe: &[Instr]) {
    let walk = |count| assert_identical(&pinned_kernel(count, probe), true);
    let (eight, sixteen) = (walk(8), walk(16));
    assert_eq!(sixteen - eight, 8 * (4 + probe.len() as u64));
}

#[test]
fn a_constant_fold_pins_the_registers_it_reads() {
    // A dead word load of the weights at a constant address that moves
    // with `K`.
    assert_pinned(&[
        Instr::OpImm {
            op: AluImmOp::Slli,
            rd: TMP,
            rs1: K,
            imm: 0,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: GP,
            rs1: TMP,
            offset: W as i32,
        },
        li(TMP, 0),
        li(GP, 0),
    ]);
}

#[test]
fn a_pointer_sub_pins_its_subtrahend() {
    // A dead word load through `WP - K`, which stays on the second
    // weight word as both climb: unpinned, `K` would be taken as still
    // and the load as moving with `WP`.
    assert_pinned(&[
        Instr::Op {
            op: AluOp::Sub,
            rd: TMP,
            rs1: WP,
            rs2: K,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: GP,
            rs1: TMP,
            offset: 0,
        },
        li(TMP, 0),
        li(GP, 0),
    ]);
}

#[test]
fn a_min_of_a_climbing_register_summarizes() {
    // `p.min` of loaded data and the climbing `K` is opaque data the
    // iteration then overwrites: nothing a store or an exit value reads
    // depends on `K`, so the loop summarizes (16 iterations walk like 8)
    // and the region runs bit-identical.
    let probe = [
        Instr::PMin {
            rd: TMP,
            rs1: XV,
            rs2: K,
        },
        li(TMP, 0),
    ];
    let walk = |count| assert_identical(&pinned_kernel(count, &probe), true);
    assert_eq!(walk(8), walk(16));
}

// Output-row loops: the level-(b) kernel's software loop over outputs
// around its summarized hardware loop, at sizes up to 200 rows.

const R_BIAS: u32 = 0x2000;
const R_XCELL: u32 = 0x23F0;
const R_X: u32 = 0x2400;
const R_W: u32 = 0x2800;
const R_OUT: u32 = 0x6000;

/// A register that moves from row to row in the mutations.
const MV: Reg = Reg::S3;
/// A second hardware loop's count.
const CNT2: Reg = Reg::S4;
/// Where each row's dead word stream starts.
const GB: Reg = Reg::S5;

/// How [`row_kernel`] departs from the generated level-(b) shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Row {
    /// As generated.
    Plain,
    /// Each row also runs a second hardware loop whose count is the
    /// remaining-row counter plus two.
    MovingCount,
    /// The inner loop also reads a dead word stream of the weights whose
    /// pointer restarts each row and advances by a register that grows
    /// by 4 per row.
    MovingStride,
    /// The bias pointer advances two words per row, so the rows past
    /// the middle read beyond the bias span.
    WideBias,
    /// The row counter starts odd and steps by -2, so `bnez` never
    /// reaches 0.
    OddCountdown,
    /// The row stores its raw accumulator, not requantized.
    RawStore,
    /// The output pointer advances 2 bytes more than the descriptor's
    /// stride.
    WrongStride,
}

/// A level-(b) matvec with room for 200 rows: bias `lw!`, `li CNT`,
/// `lp.setup` over `lw!; lw!; pv.sdotsp.h`, requantize, `sh!`, `bnez`.
struct RowKernel {
    body: Vec<Instr>,
    row: Row,
    count: u32,
    n_out: u32,
    stride: u32,
    x_cell: bool,
    /// The bias words' address.
    bias: u32,
}

/// Where [`row_kernel`]'s bias words go: apart from the weights, or
/// (`tail`) over the weights' last two rows, so that the weight and bias
/// spans merge into one.
fn row_bias(count: u32, n_out: u32, tail: bool) -> u32 {
    if tail && n_out >= 3 {
        R_W + (n_out - 2) * 4 * count.max(1)
    } else {
        R_BIAS
    }
}

fn row_kernel(count: u32, n_out: u32, stride: u32, x_cell: bool, row: Row) -> RowKernel {
    row_kernel_at(count, n_out, stride, x_cell, row, R_BIAS)
}

fn row_kernel_at(
    count: u32,
    n_out: u32,
    stride: u32,
    x_cell: bool,
    row: Row,
    bias: u32,
) -> RowKernel {
    let rows = if row == Row::OddCountdown {
        2 * n_out - 1
    } else {
        n_out
    };
    let mut body = vec![li(BP, bias), li(WP, R_W), li(OCNT, rows), li(OP, R_OUT)];
    if row == Row::MovingStride {
        body.extend([li(GB, R_W), li(MV, 0)]);
    }
    let out_loop = body.len();
    if row == Row::MovingStride {
        body.push(addi(GP, GB, 0));
    }
    if x_cell {
        body.extend([
            li(XP, R_XCELL),
            Instr::Load {
                op: LoadOp::Lw,
                rd: XP,
                rs1: XP,
                offset: 0,
            },
        ]);
    } else {
        body.push(li(XP, R_X));
    }
    body.push(Instr::LoadPostInc {
        op: LoadOp::Lw,
        rd: ACC,
        rs1: BP,
        offset: if row == Row::WideBias { 8 } else { 4 },
    });
    body.push(li(CNT, count));
    let mut inner = vec![lw_post(WV, WP), lw_post(XV, XP)];
    if row == Row::MovingStride {
        inner.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: TMP,
                rs1: GP,
                offset: 0,
            },
            Instr::Op {
                op: AluOp::Add,
                rd: GP,
                rs1: GP,
                rs2: MV,
            },
        ]);
    }
    inner.push(sdot(ACC, WV, XV));
    body.push(Instr::LpSetup {
        l: LoopIdx::L0,
        rs1: CNT,
        uimm: 2 + 2 * inner.len() as u32,
    });
    body.extend(inner);
    if row == Row::MovingCount {
        body.extend([
            addi(CNT2, OCNT, 2),
            Instr::LpSetup {
                l: LoopIdx::L1,
                rs1: CNT2,
                uimm: 2 + 2,
            },
            li(TMP, 7),
        ]);
    }
    let mut store = requant_store(ACC);
    store[2] = Instr::StorePostInc {
        op: StoreOp::Sh,
        rs2: ACC,
        rs1: OP,
        offset: stride as i32 + if row == Row::WrongStride { 2 } else { 0 },
    };
    if row == Row::RawStore {
        body.push(store[2]);
    } else {
        body.extend(store);
    }
    if row == Row::MovingStride {
        body.push(addi(MV, MV, 4));
    }
    let step = if row == Row::OddCountdown { -2 } else { -1 };
    body.push(addi(OCNT, OCNT, step));
    let back = -4 * (body.len() - out_loop) as i32;
    body.push(Instr::Branch {
        op: BranchOp::Bne,
        rs1: OCNT,
        rs2: Reg::ZERO,
        offset: back,
    });
    RowKernel {
        body,
        row,
        count,
        n_out,
        stride,
        x_cell,
        bias,
    }
}

impl RowKernel {
    fn program(&self) -> Program {
        let mut instrs = self.body.clone();
        instrs.push(Instr::Ecall);
        Program::from_instrs(CODE, instrs)
    }

    fn region(&self) -> KernelRegion {
        KernelRegion {
            start_addr: CODE,
            end_addr: CODE + 4 * self.body.len() as u32,
            math: RegionMath::Matvec(Matvec {
                w_base: R_W,
                bias32: self.bias,
                x: if self.x_cell {
                    ShortcutPtr::Cell(R_XCELL)
                } else {
                    ShortcutPtr::Const(R_X)
                },
                out: ShortcutPtr::Const(R_OUT),
                out_stride: self.stride,
                n_in: 2 * self.count.max(1),
                n_out: self.n_out,
                act: ShortcutAct::None,
            }),
        }
    }

    /// A machine over weights, biases and inputs drawn from `seed`.
    fn machine(&self, seed: u64, uops: UopProgram) -> Machine {
        let mut mem = Memory::new(64 * 1024);
        let mut rng = StdRng::seed_from_u64(seed);
        for a in (R_BIAS..R_OUT).step_by(2) {
            let v = (rng.gen::<u32>() % 8192) as u16 as i16 - 4096;
            mem.write_u16(a, v as u16).unwrap();
        }
        mem.write_u32(R_XCELL, R_X).unwrap();
        let image = mem.image();
        mem.load_image(&image);
        let mut m = Machine::with_memory(mem);
        m.load_program_shared(&self.program(), Arc::new(uops));
        m
    }
}

/// Runs `k` with and without its shortcut region, and stepping, within
/// a cycle budget, and asserts that all three end alike in every
/// observable. Returns the shortcut translation's verification walk.
fn assert_rows(seed: u64, k: &RowKernel, expect_installed: bool) -> u64 {
    let ctx = format!(
        "seed {seed}: {:?}, count {}, {} rows, stride {}, x cell {}, bias {:#x}: ",
        k.row, k.count, k.n_out, k.stride, k.x_cell, k.bias
    );
    let prog = k.program();
    let with = UopProgram::translate_with_shortcuts(&prog, &[k.region()]);
    let walked = with.verify_ops();
    assert_eq!(
        with.shortcut_regions(),
        usize::from(expect_installed),
        "{ctx}installed regions"
    );
    let mut sc = k.machine(seed, with);
    let mut plain = k.machine(seed, UopProgram::translate(&prog));
    let mut step = k.machine(seed, UopProgram::translate(&prog));
    let budget = 200_000;
    let exit = sc.run(budget);
    assert_eq!(exit, plain.run(budget), "{ctx}exit");
    assert_eq!(exit, step.run_stepping(budget), "{ctx}exit");
    if expect_installed {
        assert_eq!(exit, Ok(ExitReason::Ecall), "{ctx}exit");
        assert!(sc.shortcut_instrs() > 0, "{ctx}the shortcut must engage");
    }
    assert_same(&ctx, &sc, &plain);
    assert_same(&ctx, &sc, &step);
    walked
}

#[test]
fn output_row_loop_walks_like_three_rows() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xB0_0000 + seed);
        // Odd and even pair counts alternate; 1 and 2 leave the inner
        // loop unsummarized.
        let count = 1 + 2 * (rng.gen::<u32>() % 4) + (seed as u32 % 2);
        let stride = 2 * (1 + rng.gen::<u32>() % 3);
        let x_cell = rng.gen::<u32>() % 2 == 1;
        let tail = rng.gen::<u32>() % 2 == 1;
        let walk = |n_out| {
            let bias = row_bias(count, n_out, tail);
            let k = row_kernel_at(count, n_out, stride, x_cell, Row::Plain, bias);
            assert_rows(seed, &k, true)
        };
        for n_out in [1, 2] {
            walk(n_out);
        }
        let walks = [3, 17, 200].map(walk);
        assert!(
            walks.iter().all(|&w| w == walks[0]),
            "seed {seed}: count {count}: walks {walks:?} grow with the row count"
        );
    }
}

#[test]
fn output_row_loop_mutations_install_nothing_or_walk_every_row() {
    for seed in 0..4u64 {
        let count = 4 + seed as u32 % 3;
        let stride = 2 + 2 * (seed as u32 % 2);
        let x_cell = seed % 2 == 1;
        for row in [Row::MovingCount, Row::MovingStride] {
            let walk = |n_out| {
                let k = row_kernel(count, n_out, stride, x_cell, row);
                assert_rows(seed, &k, true)
            };
            let (five, six, nine) = (walk(5), walk(6), walk(9));
            assert!(
                six > five && nine - five == 4 * (six - five),
                "seed {seed}: {row:?}: every row must be walked, got walks {five}, {six}, {nine}"
            );
        }
        for row in [Row::OddCountdown, Row::RawStore, Row::WrongStride] {
            for n_out in [3, 9] {
                let k = row_kernel(count, n_out, stride, x_cell, row);
                assert_rows(seed, &k, false);
            }
        }
    }
}

#[test]
fn a_row_loop_leaving_a_span_rejects_with_or_without_its_summary() {
    let count = 4;
    let plain = assert_rows(0, &row_kernel(count, 200, 2, false, Row::Plain), true);
    // With 3 rows no summary applies, and the walk meets the third row's
    // read beyond the bias span itself. With 200 rows the row loop's
    // summary meets it first, from the address of its last applied row,
    // so no more rows are walked than for a plain kernel; debug builds
    // then also walk every row and demand the same verdict.
    assert_rows(0, &row_kernel(count, 3, 2, false, Row::WideBias), false);
    let wide = assert_rows(0, &row_kernel(count, 200, 2, false, Row::WideBias), false);
    assert!(
        wide <= plain,
        "{wide} micro-ops walked, a plain kernel walks {plain}"
    );
}
