//! Round-trip properties over the whole instruction space:
//! `decode(encode(i)) == i`, `decode_compressed(compress(i)) == i`
//! whenever a compressed form exists, and a stable, nonempty disassembly.
//!
//! Case `seed` draws instruction variant `seed % VARIANTS` with operands
//! from a generator seeded with `seed`, so every [`Instr`] variant is
//! drawn and every failure message starts with `seed N:` to reproduce one
//! case on its own. (That arbitrary words decode without panicking is
//! `decode_no_panic.rs`'s job.)

use rnnasip_isa::*;
use rnnasip_rng::StdRng;

/// Cases per property.
const CASES: u64 = 2048;

/// Number of instruction shapes [`instr`] draws from.
const VARIANTS: u64 = 45;

/// Uniform in `lo..hi`.
fn range(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    lo + (rng.gen::<u64>() % (hi - lo) as u64) as i64
}

/// One of `items`, uniformly.
fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen::<u64>() as usize % items.len()]
}

fn reg(rng: &mut StdRng) -> Reg {
    Reg::new(range(rng, 0, 32) as u8).expect("in range")
}

fn imm12(rng: &mut StdRng) -> i32 {
    range(rng, -2048, 2048) as i32
}

fn uimm12(rng: &mut StdRng) -> u32 {
    range(rng, 0, 4096) as u32
}

fn loop_idx(rng: &mut StdRng) -> LoopIdx {
    pick(rng, &[LoopIdx::L0, LoopIdx::L1])
}

fn simd_size(rng: &mut StdRng) -> SimdSize {
    pick(rng, &[SimdSize::Half, SimdSize::Byte])
}

fn load_op(rng: &mut StdRng) -> LoadOp {
    use LoadOp::*;
    pick(rng, &[Lb, Lh, Lw, Lbu, Lhu])
}

fn store_op(rng: &mut StdRng) -> StoreOp {
    pick(rng, &[StoreOp::Sb, StoreOp::Sh, StoreOp::Sw])
}

fn pv_alu_op(rng: &mut StdRng) -> PvAluOp {
    use PvAluOp::*;
    pick(rng, &[Add, Sub, Avg, Min, Max, Srl, Sra, Sll, Or, Xor, And])
}

/// Instruction shape `variant` in canonical form (the form the decoder
/// emits), operands drawn from `rng`.
fn instr(variant: u64, rng: &mut StdRng) -> Instr {
    let r = reg;
    match variant {
        0 => Instr::Lui {
            rd: r(rng),
            imm20: range(rng, 0, 0x10_0000) as i32,
        },
        1 => Instr::Auipc {
            rd: r(rng),
            imm20: range(rng, 0, 0x10_0000) as i32,
        },
        2 => Instr::Jal {
            rd: r(rng),
            offset: range(rng, -0x10_0000, 0x10_0000) as i32 & !1,
        },
        3 => Instr::Jalr {
            rd: r(rng),
            rs1: r(rng),
            offset: imm12(rng),
        },
        4 => {
            use BranchOp::*;
            Instr::Branch {
                op: pick(rng, &[Beq, Bne, Blt, Bge, Bltu, Bgeu]),
                rs1: r(rng),
                rs2: r(rng),
                offset: range(rng, -4096, 4096) as i32 & !1,
            }
        }
        5 => Instr::Load {
            op: load_op(rng),
            rd: r(rng),
            rs1: r(rng),
            offset: imm12(rng),
        },
        6 => Instr::Store {
            op: store_op(rng),
            rs2: r(rng),
            rs1: r(rng),
            offset: imm12(rng),
        },
        7 => {
            use AluImmOp::*;
            Instr::OpImm {
                op: pick(rng, &[Addi, Slti, Sltiu, Xori, Ori, Andi]),
                rd: r(rng),
                rs1: r(rng),
                imm: imm12(rng),
            }
        }
        8 => {
            use AluImmOp::*;
            Instr::OpImm {
                op: pick(rng, &[Slli, Srli, Srai]),
                rd: r(rng),
                rs1: r(rng),
                imm: range(rng, 0, 32) as i32,
            }
        }
        9 => {
            use AluOp::*;
            Instr::Op {
                op: pick(rng, &[Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And]),
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            }
        }
        10 => {
            use MulDivOp::*;
            Instr::MulDiv {
                op: pick(rng, &[Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu]),
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            }
        }
        11 => Instr::LoadPostInc {
            op: load_op(rng),
            rd: r(rng),
            rs1: r(rng),
            offset: imm12(rng),
        },
        12 => Instr::LoadReg {
            op: load_op(rng),
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        13 => Instr::StorePostInc {
            op: store_op(rng),
            rs2: r(rng),
            rs1: r(rng),
            offset: imm12(rng),
        },
        14 => Instr::LpStarti {
            l: loop_idx(rng),
            uimm: uimm12(rng),
        },
        15 => Instr::LpEndi {
            l: loop_idx(rng),
            uimm: uimm12(rng),
        },
        16 => Instr::LpCount {
            l: loop_idx(rng),
            rs1: r(rng),
        },
        17 => Instr::LpCounti {
            l: loop_idx(rng),
            uimm: uimm12(rng),
        },
        18 => Instr::LpSetup {
            l: loop_idx(rng),
            rs1: r(rng),
            uimm: uimm12(rng),
        },
        19 => Instr::LpSetupi {
            l: loop_idx(rng),
            count: range(rng, 0, 32) as u32,
            uimm: uimm12(rng),
        },
        20 => Instr::Mac {
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        21 => Instr::Msu {
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        22 => Instr::Clip {
            rd: r(rng),
            rs1: r(rng),
            bits: range(rng, 1, 33) as u8,
        },
        23 => Instr::ClipU {
            rd: r(rng),
            rs1: r(rng),
            bits: range(rng, 1, 33) as u8,
        },
        24 => Instr::ExtHs {
            rd: r(rng),
            rs1: r(rng),
        },
        25 => Instr::ExtHz {
            rd: r(rng),
            rs1: r(rng),
        },
        26 => Instr::ExtBs {
            rd: r(rng),
            rs1: r(rng),
        },
        27 => Instr::ExtBz {
            rd: r(rng),
            rs1: r(rng),
        },
        28 => Instr::PAbs {
            rd: r(rng),
            rs1: r(rng),
        },
        29 => Instr::Ff1 {
            rd: r(rng),
            rs1: r(rng),
        },
        30 => Instr::Fl1 {
            rd: r(rng),
            rs1: r(rng),
        },
        31 => Instr::Cnt {
            rd: r(rng),
            rs1: r(rng),
        },
        32 => Instr::Clb {
            rd: r(rng),
            rs1: r(rng),
        },
        33 => Instr::Ror {
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        34 => Instr::PMin {
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        35 => Instr::PMax {
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        // SIMD ALU, vector-vector and scalar modes.
        36 => Instr::PvAlu {
            op: pv_alu_op(rng),
            size: simd_size(rng),
            mode: pick(rng, &[SimdMode::Vv, SimdMode::Sc]),
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        // SIMD ALU immediate mode: rs2 canonically x0.
        37 => Instr::PvAlu {
            op: pv_alu_op(rng),
            size: simd_size(rng),
            mode: SimdMode::Sci(range(rng, -32, 32) as i8),
            rd: r(rng),
            rs1: r(rng),
            rs2: Reg::ZERO,
        },
        // Unary abs: rs2 canonically x0.
        38 => Instr::PvAlu {
            op: PvAluOp::Abs,
            size: simd_size(rng),
            mode: SimdMode::Vv,
            rd: r(rng),
            rs1: r(rng),
            rs2: Reg::ZERO,
        },
        39 => {
            use DotOp::*;
            Instr::PvDot {
                op: pick(rng, &[DotUp, DotUsp, DotSp, SdotUp, SdotUsp, SdotSp]),
                size: simd_size(rng),
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            }
        }
        40 => Instr::PlSdotsp {
            spr: range(rng, 0, 2) as u8,
            size: simd_size(rng),
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        41 => Instr::PlTanh {
            rd: r(rng),
            rs1: r(rng),
        },
        42 => Instr::PlSig {
            rd: r(rng),
            rs1: r(rng),
        },
        43 => Instr::Csr {
            op: pick(rng, &[CsrOp::Csrrw, CsrOp::Csrrs, CsrOp::Csrrc]),
            rd: r(rng),
            rs1: r(rng),
            csr: Csr::from_addr(range(rng, 0, 4096) as u16),
        },
        _ => pick(rng, &[Instr::Fence, Instr::Ecall, Instr::Ebreak]),
    }
}

/// Runs `check` on one canonical instruction per seed in `0..CASES`.
fn for_each_instr(mut check: impl FnMut(u64, Instr)) {
    for seed in 0..CASES {
        check(
            seed,
            instr(seed % VARIANTS, &mut StdRng::seed_from_u64(seed)),
        );
    }
}

#[test]
fn encode_decode_round_trip() {
    for_each_instr(|seed, instr| {
        let word = encode(&instr);
        match decode(word) {
            Ok(decoded) => assert_eq!(decoded, instr, "seed {seed}: word {word:#010x}"),
            Err(e) => panic!("seed {seed}: {e} (instr {instr:?})"),
        }
    });
}

#[test]
fn compressed_round_trip() {
    let mut compressed = 0;
    for_each_instr(|seed, instr| {
        let Some(half) = compress(&instr) else {
            return;
        };
        compressed += 1;
        assert!(is_compressed(half), "seed {seed}: {half:#06x} ({instr:?})");
        match decode_compressed(half) {
            Ok(expanded) => assert_eq!(expanded, instr, "seed {seed}: half {half:#06x}"),
            Err(e) => panic!("seed {seed}: {e} (instr {instr:?})"),
        }
    });
    assert!(compressed > 0, "no case had a compressed form");
}

#[test]
fn disasm_is_nonempty_and_stable() {
    for_each_instr(|seed, instr| {
        let text = instr.to_string();
        assert!(!text.is_empty(), "seed {seed}: empty text for {instr:?}");
        assert_eq!(text, instr.to_string(), "seed {seed}");
    });
}
