//! Tier-selection tests for the kernel-shortcut execution tier.
//!
//! The shortcut tier must be *transparent*: it engages only when its
//! preconditions hold and silently yields to the bulk or stepping
//! tiers otherwise, always bit-identically. These tests pin the three
//! disarm rules:
//!
//! 1. an armed [`FaultPlan`] (even one whose faults never fire) keeps
//!    every retired instruction on the per-op path,
//! 2. tracing (`run_with_trace`) drives the stepping loop and never
//!    retires shortcut instructions,
//! 3. a network with no admissible kernel regions (optimization level
//!    a's spilled-accumulator code) installs zero regions, so the uop
//!    stream carries no shortcut marks at all.

use rnnasip_core::{KernelBackend, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_sim::{Fault, FaultPlan, FaultSite, Machine, Memory};

fn policy_net() -> rnnasip_rrm::BenchmarkNet {
    rnnasip_rrm::suite()
        .into_iter()
        .find(|n| n.id == "eisen2019")
        .expect("policy net in suite")
}

#[test]
fn armed_fault_plan_disarms_shortcut_bit_identically() {
    let net = policy_net();
    let input = net.input();
    let compiled = KernelBackend::new(OptLevel::IfmTile)
        .compile_network(&net.network)
        .expect("compile");
    let mut engine = compiled.engine();

    // Clean run: the shortcut tier must engage on this network.
    let clean = engine.run(&input).expect("clean run");
    assert!(
        engine.machine().shortcut_instrs() > 0,
        "shortcut tier should engage on the clean run"
    );

    // Armed-but-never-firing plan: the fault trigger is unreachable, so
    // the architectural results cannot change — but the armed plan must
    // force every instruction onto the interpreted path.
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: u64::MAX,
        site: FaultSite::RegBit {
            reg: rnnasip_isa::Reg::A0,
            bit: 0,
        },
    });
    engine.inject_faults(&plan);
    let faulted = engine.run(&input).expect("armed run");
    assert_eq!(
        engine.machine().shortcut_instrs(),
        0,
        "armed fault plan must disarm the shortcut tier"
    );
    assert_eq!(clean.outputs, faulted.outputs);
    assert_eq!(clean.report.cycles(), faulted.report.cycles());
    assert_eq!(
        clean.report.stats().to_csv(),
        faulted.report.stats().to_csv()
    );

    // Disarmed again: the tier comes back.
    let healed = engine.run(&input).expect("healed run");
    assert!(
        engine.machine().shortcut_instrs() > 0,
        "shortcut tier should re-engage once the plan is gone"
    );
    assert_eq!(clean.outputs, healed.outputs);
}

#[test]
fn tracing_runs_the_stepping_tier() {
    let net = policy_net();
    let compiled = KernelBackend::new(OptLevel::IfmTile)
        .compile_network(&net.network)
        .expect("compile");

    // Engine run with zero inputs — identical memory to the staged
    // image, so a fresh traced machine must reproduce it exactly.
    let zeros = vec![vec![Q3p12::ZERO; compiled.input().width()]; compiled.input().steps()];
    let mut engine = compiled.engine();
    let run = engine.run(&zeros).expect("engine run");
    assert!(engine.machine().shortcut_instrs() > 0);

    let mut traced = Machine::with_memory(Memory::from_image(compiled.image()));
    traced.load_program_shared(compiled.program(), compiled.uop_program().clone());
    let mut retired = 0u64;
    traced
        .run_with_trace(compiled.max_cycles(), |_| retired += 1)
        .expect("traced run");

    assert_eq!(
        traced.shortcut_instrs(),
        0,
        "tracing must stay on the stepping tier"
    );
    assert_eq!(retired, run.report.instrs(), "traced instruction count");
    assert_eq!(traced.stats().cycles(), run.report.cycles());
    let out = compiled.output();
    let traced_outputs = traced
        .mem()
        .read_q3p12_slice(out.base(), out.len())
        .expect("traced outputs");
    assert_eq!(traced_outputs, run.outputs);
}

#[test]
fn unrecognized_network_installs_no_regions() {
    let net = policy_net();
    let input = net.input();
    // Level a spills the accumulator to memory inside the inner loop;
    // the walker rejects that store, so no region may install.
    let compiled = KernelBackend::new(OptLevel::Baseline)
        .compile_network(&net.network)
        .expect("compile");
    assert_eq!(
        compiled.uop_program().shortcut_regions(),
        0,
        "level a must not install shortcut regions"
    );
    let mut engine = compiled.engine();
    let run = engine.run(&input).expect("run");
    assert_eq!(engine.machine().shortcut_instrs(), 0);
    assert!(run.report.instrs() > 0);

    // The compiled artifact and its shortcut-free control are the same
    // translation when nothing installs: same uop count, zero regions —
    // the per-step overhead of the disabled tier is a single integer
    // compare per op.
    let control = compiled.without_shortcuts();
    assert_eq!(control.uop_program().shortcut_regions(), 0);
}
