//! Regression tests for the straight-run coalescing threshold and run
//! boundaries.
//!
//! `MIN_RUN_LEN` is 4: a straight-line stretch of exactly four eligible
//! micro-ops must form one bulk `StraightRun`, while three must not —
//! and in both cases the micro-op path must stay bit-identical to the
//! stepping reference path, per-mnemonic statistics rows included.
//! A direct branch target splits a stretch: a run never has an incoming
//! branch past its first op.

use rnnasip_isa::{AluImmOp, BranchOp, Instr, Reg};
use rnnasip_sim::{ExitReason, Machine, Program, Row, UopProgram};
use std::collections::BTreeMap;

/// A program of `n` eligible straight-line ALU ops followed by `ecall`
/// (`ecall` terminates run recognition, so the stretch length is `n`).
fn straight_prog(n: usize) -> Program {
    let mut instrs: Vec<Instr> = (0..n)
        .map(|i| Instr::OpImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: (i + 1) as i32,
        })
        .collect();
    instrs.push(Instr::Ecall);
    Program::from_instrs(0x0, instrs)
}

fn rows(m: &Machine) -> BTreeMap<&'static str, Row> {
    m.stats().iter().collect()
}

/// Runs `prog` on both paths and asserts bit-identity of the register
/// result, cycles, instret, and every stats row. Returns the uop
/// machine's final a0.
fn assert_paths_identical(prog: &Program) -> u32 {
    let mut uop = Machine::new(64 * 1024);
    uop.load_program(prog);
    assert_eq!(uop.run(1_000_000).unwrap(), ExitReason::Ecall);

    let mut stepping = Machine::new(64 * 1024);
    stepping.load_program(prog);
    assert_eq!(stepping.run_stepping(1_000_000).unwrap(), ExitReason::Ecall);

    assert_eq!(uop.core().reg(Reg::A0), stepping.core().reg(Reg::A0));
    assert_eq!(uop.core().instret, stepping.core().instret);
    assert_eq!(uop.stats().cycles(), stepping.stats().cycles());
    assert_eq!(uop.stats().instrs(), stepping.stats().instrs());
    assert_eq!(rows(&uop), rows(&stepping), "per-mnemonic rows diverge");
    assert_eq!(uop.stats().to_csv(), stepping.stats().to_csv());
    uop.core().reg(Reg::A0)
}

#[test]
fn run_forms_at_exactly_min_run_len() {
    let prog = straight_prog(4);
    let uops = UopProgram::translate(&prog);
    assert_eq!(
        uops.straight_runs(),
        1,
        "four eligible ops must coalesce into one run"
    );
    let a0 = assert_paths_identical(&prog);
    assert_eq!(a0, 1 + 2 + 3 + 4);
}

#[test]
fn no_run_forms_one_below_min_run_len() {
    let prog = straight_prog(3);
    let uops = UopProgram::translate(&prog);
    assert_eq!(
        uops.straight_runs(),
        0,
        "three eligible ops must stay un-coalesced"
    );
    let a0 = assert_paths_identical(&prog);
    assert_eq!(a0, 1 + 2 + 3);
}

/// A forward branch over the first four ops of a nine-op stretch:
/// `op 4` is a branch target, so the stretch forms two runs (4 + 5 ops),
/// and a taken branch lands on the second run's start.
fn split_prog(op: BranchOp) -> Program {
    let mut instrs = vec![Instr::Branch {
        op,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        offset: 4 * 5,
    }];
    instrs.extend(straight_prog(9).iter().map(|item| item.instr));
    Program::from_instrs(0x0, instrs)
}

#[test]
fn branch_target_splits_a_stretch_into_two_runs() {
    for (op, a0, bulk) in [
        // Not taken: both runs execute in bulk.
        (BranchOp::Bne, (1..=9).sum::<u32>(), 9),
        // Taken: control lands on the second run's first op.
        (BranchOp::Beq, (5..=9).sum::<u32>(), 5),
    ] {
        let prog = split_prog(op);
        assert_eq!(
            UopProgram::translate(&prog).straight_runs(),
            2,
            "a branch target inside a stretch must start a new run"
        );
        assert_eq!(assert_paths_identical(&prog), a0);

        let mut m = Machine::new(64 * 1024);
        m.load_program(&prog);
        assert_eq!(m.run(1_000_000).unwrap(), ExitReason::Ecall);
        assert_eq!(m.bulk_instrs(), bulk, "{op:?}: ops retired in bulk");
    }
}
