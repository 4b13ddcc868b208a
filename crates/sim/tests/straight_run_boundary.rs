//! Regression tests for the straight-run coalescing threshold, run
//! boundaries, and the bulk runner's fault and watchdog exits.
//!
//! `MIN_RUN_LEN` is 4: a straight-line stretch of exactly four eligible
//! micro-ops must form one bulk straight run, while three must not —
//! and in both cases the micro-op path must stay bit-identical to the
//! stepping reference path, per-mnemonic statistics rows included.
//! A direct branch target splits a stretch: a run never has an incoming
//! branch past its first op. A run faulting at any op, or cut short by
//! any watchdog budget, must leave the state the stepping path leaves.

use rnnasip_isa::{AluImmOp, AluOp, BranchOp, Instr, LoadOp, Reg};
use rnnasip_sim::{ExitReason, Machine, Program, Row, SimError, UopProgram};
use std::collections::BTreeMap;

const MEM_BYTES: usize = 64 * 1024;

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

/// Address of the pointer word the [`load_run`] loads.
const CELL: u32 = 0x100;

/// A machine loaded with `prog`, with `pointer` in a3 and in the
/// [`CELL`] word, and a4 pointing at the cell (what [`load_run`] reads).
fn machine(prog: &Program, pointer: u32) -> Machine {
    let mut m = Machine::new(MEM_BYTES);
    m.mem_mut().write_u32(CELL, pointer).unwrap();
    m.load_program(prog);
    m.core_mut().set_reg(Reg::A3, pointer);
    m.core_mut().set_reg(Reg::A4, CELL);
    m
}

/// Runs `prog` under `budget` on the micro-op path and the stepping
/// reference path, identically staged, and asserts bit-identity of the
/// result, PC, a0, cycles, instret, and every stats row. Returns the
/// micro-op path's result and machine.
fn compare(
    case: &str,
    prog: &Program,
    pointer: u32,
    budget: u64,
) -> (Result<ExitReason, SimError>, Machine) {
    let mut uop = machine(prog, pointer);
    let mut stepping = machine(prog, pointer);
    let result = uop.run(budget);
    assert_eq!(result, stepping.run_stepping(budget), "{case}: result");
    assert_eq!(uop.core().pc, stepping.core().pc, "{case}: pc");
    assert_eq!(uop.core().reg(Reg::A0), stepping.core().reg(Reg::A0));
    assert_eq!(uop.core().cycle, stepping.core().cycle, "{case}: cycle");
    assert_eq!(uop.core().instret, stepping.core().instret, "{case}");
    assert_eq!(uop.stats().cycles(), stepping.stats().cycles(), "{case}");
    assert_eq!(uop.stats().instrs(), stepping.stats().instrs(), "{case}");
    assert_eq!(rows(&uop), rows(&stepping), "{case}: per-mnemonic rows");
    assert_eq!(uop.stats().to_csv(), stepping.stats().to_csv(), "{case}");
    (result, uop)
}

/// Runs `prog` on both paths and asserts bit-identity of the register
/// result, cycles, instret, and every stats row. Returns the uop
/// machine's final a0.
fn assert_paths_identical(prog: &Program) -> u32 {
    let (result, uop) = compare("halting run", prog, 0, 1_000_000);
    assert_eq!(result, Ok(ExitReason::Ecall));
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

/// A straight run of eight ops alternating `lw a3, 0(a4)` (a4 = [`CELL`])
/// and `add a0, a0, a3`, which stalls on the load, followed by `ecall`.
/// With `fault_at = Some(k)`, op `k` is `lw a1, 0(a3)` instead: a load
/// through the pointer the run loads from `CELL` (or finds preset in a3,
/// at `k = 0`), stalling on entry when op `k - 1` is a load.
fn load_run(fault_at: Option<usize>) -> Program {
    let mut instrs: Vec<Instr> = (0..8)
        .map(|j| match j {
            _ if Some(j) == fault_at => Instr::Load {
                op: LoadOp::Lw,
                rd: Reg::A1,
                rs1: Reg::A3,
                offset: 0,
            },
            _ if j % 2 == 0 => Instr::Load {
                op: LoadOp::Lw,
                rd: Reg::A3,
                rs1: Reg::A4,
                offset: 0,
            },
            _ => Instr::Op {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::A3,
            },
        })
        .collect();
    instrs.push(Instr::Ecall);
    Program::from_instrs(0x0, instrs)
}

#[test]
fn load_out_of_bounds_at_every_op_unwinds_exactly() {
    for k in 0..8 {
        let prog = load_run(Some(k));
        assert_eq!(UopProgram::translate(&prog).straight_runs(), 1, "k {k}");

        // In bounds, the whole run retires in bulk...
        let (result, m) = compare(&format!("k {k} in bounds"), &prog, 0x200, 1_000_000);
        assert_eq!(result, Ok(ExitReason::Ecall));
        assert_eq!(m.bulk_instrs(), 8, "k {k}: the run must retire in bulk");

        // ...so out of bounds, op k faults inside the bulk pass.
        let oob = MEM_BYTES as u32;
        let (result, m) = compare(&format!("k {k} faulting"), &prog, oob, 1_000_000);
        assert_eq!(
            result,
            Err(SimError::MemOutOfBounds {
                addr: MEM_BYTES as u32,
                size: 4
            }),
            "k {k}"
        );
        assert_eq!(m.core().pc, 4 * k as u32, "k {k}: PC on the faulting op");
        assert_eq!(m.core().instret, k as u64, "k {k}: ops before it retired");
    }
}

#[test]
fn budgets_expiring_in_a_run_match_cycle_for_cycle() {
    let prog = load_run(None);
    let mut full = machine(&prog, 0x200);
    full.run_stepping(1_000_000).unwrap();
    let total = full.core().cycle;
    for budget in 0..=total + 2 {
        let (result, _) = compare(&format!("budget {budget}"), &prog, 0x200, budget);
        // The closing one-cycle `ecall` halts whenever it gets to start.
        if budget + 1 < total {
            assert_eq!(result, Err(SimError::Watchdog { max_cycles: budget }));
        } else {
            assert_eq!(result, Ok(ExitReason::Ecall), "budget {budget}");
        }
    }
}
