//! Differential tests for branch-closed loops in the bulk tier.
//!
//! A software loop — a straight-line body closed by a backward
//! conditional branch, the RV32IMC baseline's only loop form — is run in
//! bulk by the micro-op path (`Machine::run`). Every program here is
//! also run on the stepping reference path (`Machine::run_stepping`, one
//! generic micro-op at a time, bulk runners declined) on an identically
//! staged machine, and everything observable must
//! match: the `Result`, all 32 registers, PC, cycle and instret, every
//! per-mnemonic statistics row, the memory image, and the pending load
//! (probed by one more step that reads each register in turn).

use rnnasip_isa::{AluImmOp, AluOp, BranchOp, Instr, LoadOp, LoopIdx, Reg, StoreOp};
use rnnasip_sim::{ExitReason, Machine, Memory, Program, SimError};
use std::sync::Arc;

const MEM_BYTES: usize = 1024;

/// Where the per-register pending-load probes sit: `PROBES` plus
/// `4·(n−1)` holds `addi x0, xn, 0`, which reads `xn` and nothing else.
const PROBES: u32 = 0x800;

const ALL_BRANCHES: [BranchOp; 6] = [
    BranchOp::Beq,
    BranchOp::Bne,
    BranchOp::Blt,
    BranchOp::Bge,
    BranchOp::Bltu,
    BranchOp::Bgeu,
];

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
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

fn sw(rs2: Reg, rs1: Reg, offset: i32) -> Instr {
    Instr::Store {
        op: StoreOp::Sw,
        rs2,
        rs1,
        offset,
    }
}

/// A backward branch from the end of `body` to its first op, where the
/// branch itself is the next instruction after `body`.
fn close(op: BranchOp, rs1: Reg, rs2: Reg, body: &[Instr]) -> Instr {
    Instr::Branch {
        op,
        rs1,
        rs2,
        offset: -4 * body.len() as i32,
    }
}

/// Assembles `prelude`, a loop of `body` closed by `branch`, `epilogue`
/// and `ecall` at address 0, plus the pending-load probes at [`PROBES`].
fn program(prelude: &[Instr], body: &[Instr], branch: Instr, epilogue: &[Instr]) -> Program {
    let mut v: Vec<Instr> = prelude.to_vec();
    v.extend_from_slice(body);
    v.push(branch);
    v.extend_from_slice(epilogue);
    v.push(Instr::Ecall);
    assert!(4 * v.len() as u32 <= PROBES, "program overlaps the probes");
    while (4 * v.len() as u32) < PROBES {
        v.push(Instr::Ebreak);
    }
    v.extend(Reg::all().skip(1).map(|r| addi(Reg::ZERO, r, 0)));
    Program::from_instrs(0, v)
}

/// A machine with a patterned memory image: word `i` holds `i + 1`
/// except where `words` overrides it.
fn machine(prog: &Program, words: &[(u32, u32)], guards: bool) -> Machine {
    let mut mem = Memory::new(MEM_BYTES);
    for a in (0..MEM_BYTES as u32).step_by(4) {
        mem.write_u32(a, a / 4 + 1).unwrap();
    }
    for &(a, w) in words {
        mem.write_u32(a, w).unwrap();
    }
    let image = mem.image();
    mem.load_image(&image);
    let mut m = Machine::with_memory(mem);
    m.load_program(prog);
    if guards {
        m.arm_guards(Arc::new(Vec::new()));
    }
    m
}

/// Runs `prog` on both paths under `budget`, asserts bit-identity, and
/// returns the micro-op path's result and machine.
fn check(
    prog: &Program,
    words: &[(u32, u32)],
    budget: u64,
    guards: bool,
) -> (Result<ExitReason, SimError>, Machine) {
    let run_pair = || {
        let mut uop = machine(prog, words, guards);
        let mut stepping = machine(prog, words, guards);
        let ru = uop.run(budget);
        let rs = stepping.run_stepping(budget);
        (uop, ru, stepping, rs)
    };
    let (uop, ru, stepping, rs) = run_pair();
    let ctx = format!("budget {budget}, guards {guards}");
    assert_eq!(ru, rs, "exit ({ctx})");
    assert_same(&uop, &stepping, &ctx);

    // A stopped run may leave a load pending; it shows only as a stall
    // on the next op that reads its register. Probe every register.
    if ru.is_err() {
        for (n, r) in Reg::all().enumerate().skip(1) {
            let (mut uop, _, mut stepping, _) = run_pair();
            let pc = PROBES + 4 * (n as u32 - 1);
            uop.core_mut().pc = pc;
            stepping.core_mut().pc = pc;
            assert_eq!(uop.step(), stepping.step(), "probe {r} ({ctx})");
            assert_same(&uop, &stepping, &format!("probe {r}, {ctx}"));
        }
    }
    (ru, uop)
}

fn assert_same(uop: &Machine, stepping: &Machine, ctx: &str) {
    let (cu, cs) = (uop.core(), stepping.core());
    assert_eq!(cu.pc, cs.pc, "pc ({ctx})");
    assert_eq!(cu.cycle, cs.cycle, "cycle ({ctx})");
    assert_eq!(cu.instret, cs.instret, "instret ({ctx})");
    for r in Reg::all() {
        assert_eq!(cu.reg(r), cs.reg(r), "reg {r} ({ctx})");
    }
    let (su, ss) = (uop.stats(), stepping.stats());
    assert_eq!(su.stall_cycles(), ss.stall_cycles(), "stalls ({ctx})");
    assert_eq!(
        su.iter().collect::<Vec<_>>(),
        ss.iter().collect::<Vec<_>>(),
        "stats rows ({ctx})"
    );
    assert!(
        uop.mem().image() == stepping.mem().image(),
        "memory ({ctx})"
    );
}

/// A loop of `trips` iterations closed by `op`: each pass copies a word
/// and accumulates a product, then the branch operands are arranged so
/// the first `trips − 1` evaluations are taken.
fn trip_loop(op: BranchOp, trips: i32) -> Program {
    let (c, b) = (Reg::T0, Reg::T1);
    // (counter start, bound, counter step)
    let (start, bound, step) = match op {
        // Count down to zero; beq tests the flag t1 = (t0 == 0).
        BranchOp::Beq => (trips, 0, -1),
        BranchOp::Bne => (trips, 0, -1),
        // Signed: count up through negative values to zero.
        BranchOp::Blt => (-trips, 0, 1),
        BranchOp::Bge => (trips - 1, 0, -1),
        BranchOp::Bltu => (0, 4 * trips, 4),
        BranchOp::Bgeu => (trips, 1, -1),
    };
    let mut body = vec![
        lw(Reg::A0, Reg::A1, 0),
        sw(Reg::A0, Reg::A2, 0),
        Instr::Mac {
            rd: Reg::A3,
            rs1: Reg::A0,
            rs2: Reg::A0,
        },
        addi(Reg::A1, Reg::A1, 4),
        addi(Reg::A2, Reg::A2, 4),
        addi(c, c, step),
    ];
    let branch = if op == BranchOp::Beq {
        // beq with a flag: taken while the counter is nonzero.
        body.push(Instr::OpImm {
            op: AluImmOp::Sltiu,
            rd: b,
            rs1: c,
            imm: 1,
        });
        close(op, b, Reg::ZERO, &body)
    } else {
        close(op, c, b, &body)
    };
    program(
        &[
            addi(c, Reg::ZERO, start),
            addi(b, Reg::ZERO, bound),
            addi(Reg::A1, Reg::ZERO, 0x40),
            addi(Reg::A2, Reg::ZERO, 0x200),
        ],
        &body,
        branch,
        &[addi(Reg::A4, Reg::A3, 1)],
    )
}

#[test]
fn every_branch_op_closes_a_loop_at_trip_counts_1_2_3_64() {
    for op in ALL_BRANCHES {
        for trips in [1, 2, 3, 64] {
            let prog = trip_loop(op, trips);
            let m = machine(&prog, &[], false);
            assert_eq!(m.uop_program().loop_bodies(), 1, "{op:?}");
            let (result, m) = check(&prog, &[], 1_000_000, false);
            assert_eq!(result, Ok(ExitReason::Ecall), "{op:?} × {trips}");
            assert_eq!(
                m.core().reg(Reg::A2),
                0x200 + 4 * trips as u32,
                "{op:?} × {trips}: trip count"
            );
            // The first pass and its jump-back run generically; the rest
            // of the loop runs in bulk.
            let body_len = if op == BranchOp::Beq { 8 } else { 7 };
            assert!(
                m.bulk_instrs() >= (trips as u64 - 1) * body_len,
                "{op:?} × {trips}: only {} ops in bulk",
                m.bulk_instrs()
            );
        }
    }
}

#[test]
fn load_into_the_branch_operand_stalls_on_the_branch() {
    // Walk a list until a zero word: the last body op loads the word the
    // branch tests, so every evaluation of the branch stalls.
    let body = [
        addi(Reg::A3, Reg::A3, 1),
        addi(Reg::A1, Reg::A1, 4),
        lw(Reg::A0, Reg::A1, 0),
    ];
    let prog = program(
        &[addi(Reg::A1, Reg::ZERO, 0x100)],
        &body,
        close(BranchOp::Bne, Reg::A0, Reg::ZERO, &body),
        &[],
    );
    let words = [(0x100 + 4 * 40, 0)];
    let (result, m) = check(&prog, &words, 1_000_000, false);
    assert_eq!(result, Ok(ExitReason::Ecall));
    assert_eq!(m.core().reg(Reg::A3), 40);
    assert_eq!(m.stats().stall_cycles(), 40, "one stall per branch");
    assert!(m.bulk_instrs() > 0);
}

#[test]
fn pointer_stream_faulting_in_iteration_5_unwinds_exactly() {
    // The load pointer starts four words below the top of memory, so
    // iteration 5 loads out of bounds — from the body's first op, and
    // from a later one.
    let top = MEM_BYTES as i32;
    for lead in 0..3 {
        let mut body: Vec<Instr> = (0..lead).map(|k| addi(Reg::A4, Reg::A4, k + 1)).collect();
        body.extend([
            lw(Reg::A0, Reg::A1, 0),
            addi(Reg::A1, Reg::A1, 4),
            Instr::Op {
                op: AluOp::Add,
                rd: Reg::A3,
                rs1: Reg::A3,
                rs2: Reg::A0,
            },
        ]);
        let prog = program(
            &[
                addi(Reg::A1, Reg::ZERO, top - 16),
                addi(Reg::A2, Reg::ZERO, top + 64),
            ],
            &body,
            close(BranchOp::Bltu, Reg::A1, Reg::A2, &body),
            &[],
        );
        let (result, m) = check(&prog, &[], 1_000_000, false);
        assert_eq!(
            result,
            Err(SimError::MemOutOfBounds {
                addr: MEM_BYTES as u32,
                size: 4
            }),
            "lead {lead}"
        );
        assert_eq!(m.core().pc, 8 + 4 * lead as u32, "lead {lead}: faulting op");
        assert!(
            m.bulk_instrs() > 0,
            "lead {lead}: the fault must hit a bulk pass"
        );
    }
}

#[test]
fn budgets_expiring_mid_loop_match_cycle_for_cycle() {
    // Every budget across the whole run: the watchdog must fire on the
    // same cycle however the bulk runner splits the loop.
    for op in [BranchOp::Bne, BranchOp::Bltu] {
        let prog = trip_loop(op, 12);
        let mut full = machine(&prog, &[], false);
        full.run_stepping(1_000_000).unwrap();
        let total = full.core().cycle;
        for budget in 0..=total + 2 {
            let _ = check(&prog, &[], budget, false);
        }
    }
    // An endless loop (always taken) under a large budget.
    let body = [addi(Reg::A0, Reg::A0, 1), addi(Reg::A1, Reg::A1, 3)];
    let prog = program(
        &[],
        &body,
        close(BranchOp::Beq, Reg::ZERO, Reg::ZERO, &body),
        &[],
    );
    for budget in [97, 10_000, 123_457] {
        let (result, _) = check(&prog, &[], budget, false);
        assert!(matches!(result, Err(SimError::Watchdog { .. })));
    }
}

#[test]
fn armed_hardware_loop_ending_inside_the_body_declines() {
    let trips = 16;
    let body = [
        addi(Reg::A3, Reg::A3, 1),
        addi(Reg::A4, Reg::A4, 2),
        addi(Reg::A5, Reg::A5, 3),
        addi(Reg::T0, Reg::T0, -1),
    ];
    let branch = close(BranchOp::Bne, Reg::T0, Reg::ZERO, &body);

    // An outer hardware loop (3 iterations, start 4) ending at the
    // branch's fall-through (28): armed through every pass.
    let prog = program(
        &[
            Instr::LpSetupi {
                l: LoopIdx::L1,
                count: 3,
                uimm: 14,
            },
            addi(Reg::T0, Reg::ZERO, trips),
        ],
        &body,
        branch,
        &[],
    );
    let (result, m) = check(&prog, &[], 100_000, false);
    assert_eq!(result, Ok(ExitReason::Ecall));
    // Only the four-op straight run at the body start ran in bulk, once
    // per pass; an accepted loop would have bulked the branch too.
    assert_eq!(
        m.bulk_instrs(),
        3 * trips as u64 * 4,
        "the loop must decline"
    );

    // A hardware loop ending strictly inside the body (20), entered past
    // its end by a jump (8 → 20), so it stays armed — count 1000 — while
    // the software loop runs: every pass diverts at 20 through the jump.
    let prog = program(
        &[
            addi(Reg::T0, Reg::ZERO, trips),
            Instr::LpSetupi {
                l: LoopIdx::L1,
                count: 1000,
                uimm: 8,
            },
            Instr::Jal {
                rd: Reg::ZERO,
                offset: 12,
            },
        ],
        &body,
        branch,
        &[],
    );
    let (result, m) = check(&prog, &[], 100_000, false);
    assert_eq!(result, Ok(ExitReason::Ecall));
    assert_eq!(m.bulk_instrs(), 0, "the loop must decline");
    assert_eq!(m.core().hwloop[1].count, 1000 - trips as u32 + 1);

    // A hardware loop (3 iterations) over exactly the software loop, a
    // list walk: each iteration walks to the next zero word, then the
    // fall-through jumps back through the hardware loop.
    let body = [lw(Reg::A0, Reg::A1, 0), addi(Reg::A1, Reg::A1, 4)];
    let prog = program(
        &[
            addi(Reg::A1, Reg::ZERO, 0x100),
            Instr::LpSetupi {
                l: LoopIdx::L0,
                count: 3,
                uimm: 8,
            },
        ],
        &body,
        close(BranchOp::Bne, Reg::A0, Reg::ZERO, &body),
        &[],
    );
    let zeros = [
        (0x100 + 4 * 10, 0),
        (0x100 + 4 * 25, 0),
        (0x100 + 4 * 31, 0),
    ];
    let (result, m) = check(&prog, &zeros, 100_000, false);
    assert_eq!(result, Ok(ExitReason::Ecall));
    assert_eq!(m.bulk_instrs(), 0, "the loop must decline");
    assert_eq!(m.core().reg(Reg::A1), 0x100 + 4 * 32);
}

#[test]
fn armed_guards_keep_branch_loops_on_the_generic_path() {
    for op in [BranchOp::Bne, BranchOp::Bltu] {
        let prog = trip_loop(op, 64);
        let (result, m) = check(&prog, &[], 1_000_000, true);
        assert_eq!(result, Ok(ExitReason::Ecall));
        assert_eq!(
            m.bulk_instrs(),
            0,
            "{op:?}: guards disable every bulk runner"
        );
        // Budgets that stop mid-loop agree too.
        for budget in [50, 333, 901] {
            let _ = check(&prog, &[], budget, true);
        }
    }
}
