//! Matvec kernels checked against their declared formula.
//!
//! A matvec descriptor declares `out[j] = act(clip16((bias32[j] +
//! W[j]·x) >> 12))`. Verification matches every stored value's dataflow
//! against that formula: the activation, the requantizing shift and
//! clip, and which weight row and bias word feed which output. Each
//! hand-built kernel here has one of three shapes, one output per pass
//! of a level-b row loop, or a two-output tile of level c (`pv.sdotsp.h`
//! over loaded weight pairs) or level d (`pl.sdotsp.h` through the SPR
//! slots), and is run with its region installed and on the stepping
//! reference (`run_stepping`): registers, memory, cycles, instret and
//! every statistics row must agree. Kernels that compute their
//! descriptor install; each mutant, one instruction away from its
//! declared math, installs nothing.

use rnnasip_isa::{AluImmOp, BranchOp, Instr, LoadOp, LoopIdx, Reg, SimdSize, StoreOp};
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
/// Input pairs per output.
const PAIRS: u32 = 4;
/// Bytes per weight row.
const ROW: u32 = 4 * PAIRS;

const BP: Reg = Reg::T0;
const WP: Reg = Reg::T1;
const XP: Reg = Reg::T2;
const OP: Reg = Reg::S0;
const CNT: Reg = Reg::S1;
const OCNT: Reg = Reg::A0;
const WP1: Reg = Reg::A3;
const ACC: Reg = Reg::A4;
const ACC1: Reg = Reg::A5;
const WV: Reg = Reg::A6;
const XV: Reg = Reg::A7;
const WV1: Reg = Reg::A1;

/// A kernel's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Level b: a row loop of `lw!` bias, `lp.setup` over `lw!; lw!;
    /// pv.sdotsp.h`, epilogue, `sh!`.
    B,
    /// Level c: a two-output tile over explicit weight loads.
    C,
    /// Level d: a two-output tile of `pl.sdotsp.h` through the SPRs.
    D,
}

/// One instruction away from the declared math.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    None,
    /// `pl.sig` where the descriptor says `Tanh`.
    SigForTanh,
    /// The `p.max` of `Relu` dropped.
    DropMax,
    /// Output 0 sums weight row 1 (and a tile's output 1 row 0).
    NextRow,
    /// Output 0 is seeded from bias word 1 (and a tile's output 1 from
    /// word 0).
    NextBias,
    /// `srai 11`.
    Srai11,
    /// The `clip` dropped.
    NoClip,
}

const MUTANTS: [Mutation; 6] = [
    Mutation::SigForTanh,
    Mutation::DropMax,
    Mutation::NextRow,
    Mutation::NextBias,
    Mutation::Srai11,
    Mutation::NoClip,
];

fn li(rd: Reg, imm: u32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1: Reg::ZERO,
        imm: imm as i32,
    }
}

fn lw(rd: Reg, rs1: Reg, offset: i32) -> Instr {
    Instr::Load {
        op: LoadOp::Lw,
        rd,
        rs1,
        offset,
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
        op: rnnasip_isa::DotOp::SdotSp,
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

/// Requantize, activate and store `acc`, as `m` bends it.
fn epilogue(acc: Reg, act: ShortcutAct, m: Mutation) -> Vec<Instr> {
    let mut v = vec![Instr::OpImm {
        op: AluImmOp::Srai,
        rd: acc,
        rs1: acc,
        imm: if m == Mutation::Srai11 { 11 } else { 12 },
    }];
    if m != Mutation::NoClip {
        v.push(Instr::Clip {
            rd: acc,
            rs1: acc,
            bits: 16,
        });
    }
    match act {
        ShortcutAct::None => {}
        ShortcutAct::Relu if m == Mutation::DropMax => {}
        ShortcutAct::Relu => v.push(Instr::PMax {
            rd: acc,
            rs1: acc,
            rs2: Reg::ZERO,
        }),
        ShortcutAct::Tanh if m == Mutation::SigForTanh => {
            v.push(Instr::PlSig { rd: acc, rs1: acc })
        }
        ShortcutAct::Tanh => v.push(Instr::PlTanh { rd: acc, rs1: acc }),
        ShortcutAct::Sigmoid => v.push(Instr::PlSig { rd: acc, rs1: acc }),
    }
    v.push(Instr::StorePostInc {
        op: StoreOp::Sh,
        rs2: acc,
        rs1: OP,
        offset: 2,
    });
    v
}

/// The kernel's instructions, for `n_out` outputs (two for a tile).
fn body(shape: Shape, n_out: u32, act: ShortcutAct, m: Mutation) -> Vec<Instr> {
    let (row0, row1) = if m == Mutation::NextRow {
        (W + ROW, W)
    } else {
        (W, W + ROW)
    };
    let (seed0, seed1) = if m == Mutation::NextBias {
        (4, 0)
    } else {
        (0, 4)
    };
    let setup = |inner: usize| Instr::LpSetup {
        l: LoopIdx::L0,
        rs1: CNT,
        uimm: 2 + 2 * inner as u32,
    };
    let mut v = vec![li(BP, BIAS + seed0 as u32), li(OP, OUT)];
    match shape {
        Shape::B => {
            v.extend([li(WP, row0), li(OCNT, n_out)]);
            let top = v.len();
            v.extend([li(XP, X), lw_post(ACC, BP), li(CNT, PAIRS), setup(3)]);
            v.extend([lw_post(WV, WP), lw_post(XV, XP), sdot(ACC, WV, XV)]);
            v.extend(epilogue(ACC, act, m));
            v.push(Instr::OpImm {
                op: AluImmOp::Addi,
                rd: OCNT,
                rs1: OCNT,
                imm: -1,
            });
            v.push(Instr::Branch {
                op: BranchOp::Bne,
                rs1: OCNT,
                rs2: Reg::ZERO,
                offset: -4 * (v.len() - top) as i32,
            });
        }
        Shape::C => {
            v.extend([li(WP, row0), li(WP1, row1), li(XP, X)]);
            v.extend([lw(ACC, BP, 0), lw(ACC1, BP, seed1 - seed0), li(CNT, PAIRS)]);
            v.extend([
                setup(5),
                lw_post(XV, XP),
                lw_post(WV, WP),
                lw_post(WV1, WP1),
            ]);
            v.extend([sdot(ACC, WV, XV), sdot(ACC1, WV1, XV)]);
            v.extend(epilogue(ACC, act, m));
            v.extend(epilogue(ACC1, act, m));
        }
        Shape::D => {
            v.extend([li(WP, row0), li(WP1, row1), li(XP, X)]);
            v.extend([lw(ACC, BP, 0), lw(ACC1, BP, seed1 - seed0)]);
            v.extend([
                pl_sdotsp(0, Reg::ZERO, WP, Reg::ZERO),
                pl_sdotsp(1, Reg::ZERO, WP1, Reg::ZERO),
                li(CNT, PAIRS),
                setup(3),
                lw_post(XV, XP),
                pl_sdotsp(0, ACC, WP, XV),
                pl_sdotsp(1, ACC1, WP1, XV),
            ]);
            v.extend(epilogue(ACC, act, m));
            v.extend(epilogue(ACC1, act, m));
        }
    }
    v
}

/// A kernel and its descriptor.
struct Kernel {
    prog: Program,
    region: KernelRegion,
    tag: String,
}

fn kernel(shape: Shape, act: ShortcutAct, m: Mutation) -> Kernel {
    let n_out = if shape == Shape::B { 3 } else { 2 };
    let mut instrs = body(shape, n_out, act, m);
    let end = CODE + 4 * instrs.len() as u32;
    instrs.push(Instr::Ecall);
    Kernel {
        prog: Program::from_instrs(CODE, instrs),
        region: KernelRegion {
            start_addr: CODE,
            end_addr: end,
            math: RegionMath::Matvec(Matvec {
                w_base: W,
                bias32: BIAS,
                x: ShortcutPtr::Const(X),
                out: ShortcutPtr::Const(OUT),
                out_stride: 2,
                n_in: 2 * PAIRS,
                n_out,
                act,
            }),
        },
        tag: format!("{shape:?} {act:?} {m:?}: "),
    }
}

/// A machine over seeded weights, inputs and bias words of both signs,
/// scaled so that the outputs stay inside the clip and the activations'
/// curved range: each mutant then changes some output.
fn machine(prog: &Program, uops: UopProgram) -> Machine {
    let mut mem = Memory::new(64 * 1024);
    let mut rng = StdRng::seed_from_u64(0xF0_4A17);
    for a in (X..OUT).step_by(2) {
        let v = (rng.gen::<u32>() % 4096) as i32 - 2048;
        mem.write_u16(a, v as u16).unwrap();
    }
    for a in (BIAS..X).step_by(4) {
        let v = (rng.gen::<u32>() % (1 << 21)) as i32 - (1 << 20);
        mem.write_u32(a, v as u32).unwrap();
    }
    let image = mem.image();
    mem.load_image(&image);
    let mut m = Machine::with_memory(mem);
    m.load_program_shared(prog, Arc::new(uops));
    m
}

/// Runs `k` with its region offered and stepping, asserts they agree in
/// every observable, and returns whether the region installed.
fn installs(k: &Kernel) -> bool {
    let ctx = &k.tag;
    let with = UopProgram::translate_with_shortcuts(&k.prog, &[k.region]);
    let installed = with.shortcut_regions() == 1;
    let mut sc = machine(&k.prog, with);
    let mut step = machine(&k.prog, UopProgram::translate(&k.prog));
    assert_eq!(sc.run(1_000_000).unwrap(), ExitReason::Ecall, "{ctx}exit");
    assert_eq!(
        step.run_stepping(1_000_000).unwrap(),
        ExitReason::Ecall,
        "{ctx}exit"
    );
    assert_eq!(sc.shortcut_instrs() > 0, installed, "{ctx}engaged");
    let (x, y) = (sc.core(), step.core());
    assert_eq!(
        (x.pc, x.cycle, x.instret),
        (y.pc, y.cycle, y.instret),
        "{ctx}counters"
    );
    for r in Reg::all() {
        assert_eq!(x.reg(r), y.reg(r), "{ctx}register {r}");
    }
    assert_eq!(x.spr, y.spr, "{ctx}spr");
    assert_eq!(sc.stats().to_csv(), step.stats().to_csv(), "{ctx}stats");
    assert!(sc.mem().image() == step.mem().image(), "{ctx}memory");
    installed
}

const ACTS: [ShortcutAct; 4] = [
    ShortcutAct::None,
    ShortcutAct::Relu,
    ShortcutAct::Tanh,
    ShortcutAct::Sigmoid,
];

#[test]
fn kernels_computing_their_descriptor_install() {
    for shape in [Shape::B, Shape::C, Shape::D] {
        for act in ACTS {
            let k = kernel(shape, act, Mutation::None);
            assert!(installs(&k), "{}installs nothing", k.tag);
        }
    }
}

#[test]
fn kernels_one_instruction_off_their_formula_install_nothing() {
    for shape in [Shape::B, Shape::C, Shape::D] {
        for m in MUTANTS {
            // The act mutants need the act they bend.
            let act = match m {
                Mutation::SigForTanh => ShortcutAct::Tanh,
                Mutation::DropMax => ShortcutAct::Relu,
                _ => ShortcutAct::Sigmoid,
            };
            let k = kernel(shape, act, m);
            assert!(!installs(&k), "{}installs", k.tag);
        }
    }
}

#[test]
fn a_matvec_declaring_another_activation_installs_nothing() {
    // The kernel computes `Tanh`; every other declared act is a claim
    // its stores do not keep.
    for shape in [Shape::B, Shape::C, Shape::D] {
        for act in ACTS {
            let mut k = kernel(shape, ShortcutAct::Tanh, Mutation::None);
            if let RegionMath::Matvec(m) = &mut k.region.math {
                m.act = act;
            }
            k.tag = format!("{shape:?} tanh declared {act:?}: ");
            assert_eq!(installs(&k), act == ShortcutAct::Tanh, "{}", k.tag);
        }
    }
}
