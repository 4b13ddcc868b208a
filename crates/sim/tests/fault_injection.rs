//! Deterministic unit coverage of the fault-injection API: each
//! [`FaultSite`] kind, the recorded [`FaultEffect`]s, forced watchdogs,
//! and the interaction with rewind/reload — on the fast path and the
//! stepping reference path.

use rnnasip_isa::{AluImmOp, Instr, LoadOp, Reg};
use rnnasip_sim::{
    ExitReason, Fault, FaultEffect, FaultPlan, FaultSite, Machine, Memory, Program, SimError,
};

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

/// addi a0, zero, 5 ; addi a0, a0, 1 ; ecall — every test below corrupts
/// some part of this three-instruction program or its data.
fn counting_prog() -> Program {
    Program::from_instrs(
        0,
        vec![
            addi(Reg::A0, Reg::ZERO, 5),
            addi(Reg::A0, Reg::A0, 1),
            Instr::Ecall,
        ],
    )
}

fn machine_with(prog: &Program) -> Machine {
    let mut m = Machine::new(4096);
    m.load_program(prog);
    m
}

/// Runs the same plan on both paths and asserts identical outcome, a0,
/// and fault logs; returns the fast-path machine for further inspection.
fn run_both(
    prog: &Program,
    plan: &FaultPlan,
    max_cycles: u64,
) -> (Machine, Result<ExitReason, SimError>) {
    let mut stepping = machine_with(prog);
    let mut uop = machine_with(prog);
    stepping.arm_faults(plan);
    uop.arm_faults(plan);
    let rs = stepping.run_stepping(max_cycles);
    let ru = uop.run(max_cycles);
    assert_eq!(rs, ru, "exit");
    assert_eq!(stepping.core().pc, uop.core().pc, "pc");
    assert_eq!(stepping.core().cycle, uop.core().cycle, "cycle");
    assert_eq!(stepping.core().reg(Reg::A0), uop.core().reg(Reg::A0), "a0");
    assert_eq!(stepping.fault_log(), uop.fault_log(), "fault log");
    (uop, ru)
}

#[test]
fn register_flip_changes_result_and_is_logged() {
    let prog = counting_prog();
    // Flip bit 1 of a0 after the first addi retires: 5 -> 7 -> +1 = 8.
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 1,
        site: FaultSite::RegBit {
            reg: Reg::A0,
            bit: 1,
        },
    });
    let (m, r) = run_both(&prog, &plan, 1000);
    assert_eq!(r, Ok(ExitReason::Ecall));
    assert_eq!(m.core().reg(Reg::A0), 8);
    let log = m.fault_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].instret, 1);
    assert_eq!(log[0].pc, 4);
    assert_eq!(log[0].effect, FaultEffect::FlippedReg { reg: Reg::A0 });
}

#[test]
fn x0_flip_is_no_target() {
    let prog = counting_prog();
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::RegBit {
            reg: Reg::ZERO,
            bit: 5,
        },
    });
    let (m, r) = run_both(&prog, &plan, 1000);
    assert_eq!(r, Ok(ExitReason::Ecall));
    assert_eq!(m.core().reg(Reg::A0), 6, "x0 stays zero");
    assert_eq!(m.fault_log()[0].effect, FaultEffect::NoTarget);
}

#[test]
fn memory_flip_corrupts_a_later_load() {
    // lw a0, 0x100(zero) ; ecall — with 41 staged at 0x100 and bit 3 of
    // byte 0x100 flipped before the load, a0 reads 41 ^ 8 = 33.
    let prog = Program::from_instrs(
        0,
        vec![
            Instr::Load {
                op: LoadOp::Lw,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                offset: 0x100,
            },
            Instr::Ecall,
        ],
    );
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr: 0x100,
            bit: 3,
            silent: false,
        },
    });
    let mut stepping = machine_with(&prog);
    let mut uop = machine_with(&prog);
    for m in [&mut stepping, &mut uop] {
        m.mem_mut().write_u32(0x100, 41).unwrap();
        m.arm_faults(&plan);
    }
    stepping.run_stepping(1000).unwrap();
    uop.run(1000).unwrap();
    assert_eq!(stepping.core().reg(Reg::A0), 33);
    assert_eq!(uop.core().reg(Reg::A0), 33);
    assert_eq!(stepping.fault_log(), uop.fault_log());
    assert_eq!(
        uop.fault_log()[0].effect,
        FaultEffect::FlippedMem {
            addr: 0x100,
            silent: false
        }
    );
}

#[test]
fn out_of_bounds_memory_flip_is_no_target() {
    let prog = counting_prog();
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr: 1 << 30,
            bit: 0,
            silent: false,
        },
    });
    let (m, _) = run_both(&prog, &plan, 1000);
    assert_eq!(m.fault_log()[0].effect, FaultEffect::NoTarget);
}

#[test]
fn silent_memory_flip_evades_rewind_but_not_rebuild() {
    let mut mem = Memory::new(256);
    mem.write_u32(0x40, 0xAAAA_5555).unwrap();
    let image = mem.image();
    mem.load_image(&image);

    // Tracked flip: dirty, undone by restore.
    assert!(mem.flip_bit(0x40, 0, false));
    assert_eq!(mem.dirty_bytes(), 64);
    mem.restore_image(&image);
    assert_eq!(mem.read_u32(0x40).unwrap(), 0xAAAA_5555);

    // Silent flip: invisible to the bitmap, survives restore, healed
    // only by a full image load.
    assert!(mem.flip_bit(0x40, 0, true));
    assert_eq!(mem.dirty_bytes(), 0);
    mem.restore_image(&image);
    assert_eq!(mem.read_u32(0x40).unwrap(), 0xAAAA_5554, "flip survived");
    mem.load_image(&image);
    assert_eq!(mem.read_u32(0x40).unwrap(), 0xAAAA_5555, "rebuild heals");

    // Out of bounds: refused.
    assert!(!mem.flip_bit(4096, 0, false));
}

#[test]
fn instruction_patch_changes_semantics() {
    let prog = counting_prog();
    // Bit 20 is imm[0] of the I-type encoding: addi a0, a0, 1 becomes
    // addi a0, a0, 0, so a0 ends at 5 instead of 6.
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::InstrBit { pc: 4, bit: 20 },
    });
    let (m, r) = run_both(&prog, &plan, 1000);
    assert_eq!(r, Ok(ExitReason::Ecall));
    assert_eq!(m.core().reg(Reg::A0), 5);
    assert_eq!(m.fault_log()[0].effect, FaultEffect::PatchedInstr { pc: 4 });
}

#[test]
fn instruction_width_change_becomes_fetch_fault() {
    let prog = counting_prog();
    // ecall is 0x00000073; flipping bit 0 clears the 32-bit-width marker,
    // a width-class change that removes the slot instead of patching it.
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::InstrBit { pc: 8, bit: 0 },
    });
    let (m, r) = run_both(&prog, &plan, 1000);
    assert_eq!(r, Err(SimError::FetchFault { pc: 8 }));
    assert_eq!(m.fault_log()[0].effect, FaultEffect::RemovedInstr { pc: 8 });
    // The corruption is persistent: clearing fault state and resetting
    // does not heal the slot...
    let mut m = m;
    m.clear_faults();
    m.reset_core();
    assert_eq!(m.run(1000), Err(SimError::FetchFault { pc: 8 }));
    // ...but reloading the pristine program does.
    m.load_program(&prog);
    assert_eq!(m.run(1000), Ok(ExitReason::Ecall));
    assert_eq!(m.core().reg(Reg::A0), 6);
}

#[test]
fn instr_flip_outside_program_is_no_target() {
    let prog = counting_prog();
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::InstrBit { pc: 0x400, bit: 0 },
    });
    let (m, r) = run_both(&prog, &plan, 1000);
    assert_eq!(r, Ok(ExitReason::Ecall));
    assert_eq!(m.fault_log()[0].effect, FaultEffect::NoTarget);
}

#[test]
fn forced_watchdog_caps_the_budget_identically() {
    // jal zero, 0 — an infinite loop; the plan's watchdog (100) must
    // override the caller's ample budget on both paths, and the error
    // reports the effective (forced) budget.
    let prog = Program::from_instrs(
        0,
        vec![Instr::Jal {
            rd: Reg::ZERO,
            offset: 0,
        }],
    );
    let plan = FaultPlan::new().with_watchdog(100);
    let (m, r) = run_both(&prog, &plan, 1_000_000);
    assert_eq!(r, Err(SimError::Watchdog { max_cycles: 100 }));
    assert!(m.core().cycle > 100);
    assert!(m.core().cycle <= 102, "overshoot bounded by one step");
}

#[test]
fn armed_faults_survive_rewind_and_die_on_reload() {
    let prog = counting_prog();
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 1,
        site: FaultSite::RegBit {
            reg: Reg::A0,
            bit: 1,
        },
    });
    let mut m = machine_with(&prog);
    let image = m.mem().image();
    m.arm_faults(&plan);
    // The engine pattern: rewind after arming, then run — the fault must
    // still fire.
    m.rewind(&image);
    m.run(1000).unwrap();
    assert_eq!(m.core().reg(Reg::A0), 8);
    assert_eq!(m.fault_log().len(), 1);
    // Reloading the program disarms everything.
    m.arm_faults(&plan);
    m.load_program(&prog);
    m.run(1000).unwrap();
    assert_eq!(m.core().reg(Reg::A0), 6);
    assert!(m.fault_log().is_empty());
}

#[test]
fn multi_fault_plans_apply_in_instret_order() {
    let prog = counting_prog();
    // Scheduled out of order; the log must come out sorted by trigger.
    let plan = FaultPlan::new()
        .with_fault(Fault {
            at_instret: 2,
            site: FaultSite::RegBit {
                reg: Reg::A0,
                bit: 4,
            },
        })
        .with_fault(Fault {
            at_instret: 0,
            site: FaultSite::RegBit {
                reg: Reg::A0,
                bit: 0,
            },
        });
    let (m, _) = run_both(&prog, &plan, 1000);
    let log = m.fault_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].instret, 0);
    assert_eq!(log[1].instret, 2);
    // a0: 0^1=1 is overwritten by addi (5), +1 = 6, then 6^16 = 22.
    assert_eq!(m.core().reg(Reg::A0), 22);
}
