//! Self-healing engine coverage: eager auto-rewind after failed runs,
//! the rewind → rebuild → degrade recovery ladder, and the structured
//! attempt history a fault campaign consumes.

use rnnasip_core::{
    CoreError, Fault, FaultPlan, FaultSite, KernelBackend, OptLevel, RecoveryAction,
    ResilientEngine, RetryPolicy, SdcVerdict, SimError, DEFAULT_WATCHDOG_CYCLES,
};
use rnnasip_fixed::Q3p12;
use rnnasip_isa::Reg;

fn policy_net() -> (rnnasip_nn::Network, Vec<Vec<Q3p12>>) {
    let net = rnnasip_rrm::suite().remove(3); // eisen2019: smallest MLP
    let input = net.input();
    (net.network, input)
}

/// Satellite regression: a faulted run must leave the engine
/// bit-identical to fresh — same outputs *and* same cycle counts on the
/// very next run, with no explicit recovery call.
#[test]
fn engine_auto_rewinds_after_sim_error() {
    let (net, input) = policy_net();
    let compiled = KernelBackend::new(OptLevel::IfmTile)
        .compile_network(&net)
        .unwrap();
    let fresh = compiled.engine().run(&input).unwrap();

    let mut engine = compiled.engine();
    // A register flip mid-run plus a tiny forced watchdog: the run dies,
    // having dirtied memory and left core state mid-kernel.
    engine.inject_faults(
        &FaultPlan::new()
            .with_fault(Fault {
                at_instret: 5,
                site: FaultSite::RegBit {
                    reg: Reg::A0,
                    bit: 31,
                },
            })
            .with_watchdog(50),
    );
    let err = engine.run(&input).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Sim(SimError::Watchdog { max_cycles: 50 })
    ));
    assert_eq!(
        engine.last_fault_log().len(),
        1,
        "the applied fault stays readable after the heal"
    );

    // No explicit heal: the next plain run must match the fresh path.
    let healed = engine.run(&input).unwrap();
    assert_eq!(healed.outputs, fresh.outputs);
    assert_eq!(healed.report.cycles(), fresh.report.cycles());
    assert!(engine.last_fault_log().is_empty(), "plan was one-shot");
}

#[test]
fn default_watchdog_is_plumbed_into_compiled_artifacts() {
    let (net, _) = policy_net();
    let compiled = KernelBackend::new(OptLevel::IfmTile)
        .compile_network(&net)
        .unwrap();
    assert_eq!(compiled.max_cycles(), DEFAULT_WATCHDOG_CYCLES);
    let tight = KernelBackend::new(OptLevel::IfmTile)
        .with_max_cycles(123)
        .compile_network(&net)
        .unwrap();
    assert_eq!(tight.max_cycles(), 123);
}

#[test]
fn run_budgeted_overrides_one_run_only() {
    let (net, input) = policy_net();
    let mut engine = KernelBackend::new(OptLevel::IfmTile)
        .compile_network(&net)
        .unwrap()
        .engine();
    let free = engine.run(&input).unwrap();
    // One simulated cycle is never enough for a whole inference.
    let err = engine.run_budgeted(&input, 1).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Sim(SimError::Watchdog { max_cycles: 1 })
    ));
    // The override does not stick.
    let after = engine.run(&input).unwrap();
    assert_eq!(after.outputs, free.outputs);
    assert_eq!(after.report.cycles(), free.report.cycles());
}

#[test]
fn watchdog_hang_recovers_on_the_rewind_rung() {
    let (net, input) = policy_net();
    let mut engine = ResilientEngine::new(&net, KernelBackend::new(OptLevel::IfmTile)).unwrap();
    let golden = engine.run(&input);
    assert_eq!(golden.attempts.len(), 1);
    assert_eq!(golden.attempts[0].action, RecoveryAction::FirstTry);
    assert!(!golden.recovered());
    let golden_run = golden.result.unwrap();

    engine.inject_faults(&FaultPlan::new().with_watchdog(25));
    let outcome = engine.run(&input);
    assert!(outcome.recovered());
    assert_eq!(outcome.level, OptLevel::IfmTile, "no degradation needed");
    let actions: Vec<_> = outcome.attempts.iter().map(|a| a.action).collect();
    assert_eq!(actions, [RecoveryAction::FirstTry, RecoveryAction::Rewind]);
    assert_eq!(
        outcome.attempts[0].error,
        Some(SimError::Watchdog { max_cycles: 25 })
    );
    assert_eq!(outcome.attempts[1].error, None);
    let run = outcome.result.unwrap();
    assert_eq!(run.outputs, golden_run.outputs);
    assert_eq!(run.report.cycles(), golden_run.report.cycles());
}

#[test]
fn instruction_corruption_needs_the_rebuild_rung() {
    let (net, input) = policy_net();
    let mut engine = ResilientEngine::new(&net, KernelBackend::new(OptLevel::IfmTile)).unwrap();
    let golden = engine.run(&input).result.unwrap();

    // Flipping bit 0 of any 4-byte instruction changes its width class
    // (the `11` marker becomes a compressed quadrant), so the slot turns
    // into a permanent fetch fault that survives rewinds — only the
    // rebuild rung reloads the pristine program.
    let victim = engine
        .engine()
        .compiled()
        .program()
        .iter()
        .find(|item| item.size == 4)
        .map(|item| item.addr)
        .expect("compiled kernels contain 4-byte instructions");
    engine.inject_faults(&FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::InstrBit { pc: victim, bit: 0 },
    }));
    let outcome = engine.run(&input);
    assert!(outcome.recovered());
    let actions: Vec<_> = outcome.attempts.iter().map(|a| a.action).collect();
    assert_eq!(
        actions,
        [
            RecoveryAction::FirstTry,
            RecoveryAction::Rewind,
            RecoveryAction::Rebuild,
        ]
    );
    for failed in &outcome.attempts[..2] {
        assert_eq!(failed.error, Some(SimError::FetchFault { pc: victim }));
    }
    // The log is per-run, so after the clean rebuild attempt it is empty
    // again — the one-shot stash is covered by the engine-level test.
    assert!(engine.engine().last_fault_log().is_empty());
    let run = outcome.result.unwrap();
    assert_eq!(run.outputs, golden.outputs);
    assert_eq!(run.report.cycles(), golden.report.cycles());
}

#[test]
fn degradation_is_the_last_rung_and_stays_bit_exact() {
    let (net, input) = policy_net();
    // Rewind and rebuild disabled: the only way out is down the ladder.
    let policy = RetryPolicy::new().with_max_rewinds(0).with_rebuild(false);
    let mut engine =
        ResilientEngine::with_policy(&net, KernelBackend::new(OptLevel::IfmTile), policy).unwrap();
    let golden = engine.run(&input).result.unwrap();

    engine.inject_faults(&FaultPlan::new().with_watchdog(25));
    let outcome = engine.run(&input);
    assert!(outcome.recovered());
    assert_eq!(outcome.level, OptLevel::SdotSp, "one rung down");
    let actions: Vec<_> = outcome.attempts.iter().map(|a| a.action).collect();
    assert_eq!(actions, [RecoveryAction::FirstTry, RecoveryAction::Degrade]);
    let run = outcome.result.unwrap();
    assert_eq!(run.outputs, golden.outputs, "all levels are bit-exact");
    assert!(
        run.report.cycles() > golden.report.cycles(),
        "the degraded level pays in cycles"
    );

    // Degradation is sticky until explicitly restored.
    assert_eq!(engine.level(), OptLevel::SdotSp);
    engine.restore_level().unwrap();
    assert_eq!(engine.level(), OptLevel::IfmTile);
    let restored = engine.run(&input).result.unwrap();
    assert_eq!(restored.report.cycles(), golden.report.cycles());
}

#[test]
fn exhausted_ladder_reports_the_final_error() {
    let (net, input) = policy_net();
    let policy = RetryPolicy::new()
        .with_max_rewinds(0)
        .with_rebuild(false)
        .with_degrade(false);
    let mut engine =
        ResilientEngine::with_policy(&net, KernelBackend::new(OptLevel::Baseline), policy).unwrap();
    engine.inject_faults(&FaultPlan::new().with_watchdog(25));
    let outcome = engine.run(&input);
    assert!(!outcome.recovered());
    assert_eq!(outcome.attempts.len(), 1);
    assert!(matches!(
        outcome.result,
        Err(CoreError::Sim(SimError::Watchdog { max_cycles: 25 }))
    ));
}

#[test]
fn shape_errors_are_not_retried() {
    let (net, _) = policy_net();
    let mut engine = ResilientEngine::new(&net, KernelBackend::new(OptLevel::IfmTile)).unwrap();
    let outcome = engine.run(&[]);
    assert_eq!(outcome.attempts.len(), 1, "deterministic errors abort");
    assert!(matches!(outcome.result, Err(CoreError::Shape(_))));
}

#[test]
fn reference_policy_matches_the_uop_path_through_recovery() {
    let (net, input) = policy_net();
    let mut uop = ResilientEngine::new(&net, KernelBackend::new(OptLevel::IfmTile)).unwrap();
    let mut legacy = ResilientEngine::with_policy(
        &net,
        KernelBackend::new(OptLevel::IfmTile),
        RetryPolicy::new().with_reference(true),
    )
    .unwrap();
    let plan = FaultPlan::new()
        .with_fault(Fault {
            at_instret: 40,
            site: FaultSite::RegBit {
                reg: Reg::A3,
                bit: 7,
            },
        })
        .with_watchdog(30);
    uop.inject_faults(&plan);
    legacy.inject_faults(&plan);
    let a = uop.run(&input);
    let b = legacy.run(&input);
    assert_eq!(a.attempts, b.attempts);
    let (ra, rb) = (a.result.unwrap(), b.result.unwrap());
    assert_eq!(ra.outputs, rb.outputs);
    assert_eq!(ra.report.cycles(), rb.report.cycles());
}

/// A *tracked* memory flip corrupts a bias word the guards watch: the
/// run succeeds but trips, the verify re-run starts from rewound
/// (clean) memory, and the verdict is `Transient`.
#[test]
fn tracked_sdc_heals_on_the_verify_rung() {
    let (net, input) = policy_net();
    let mut engine = ResilientEngine::new(&net, KernelBackend::new(OptLevel::IfmTile)).unwrap();
    engine.set_guards(true);
    let golden = engine.run(&input);
    assert!(!golden.sdc_detected());
    let golden_run = golden.result.unwrap();
    assert!(golden_run.report.guard().is_some(), "guards are armed");

    let bias = engine.engine().compiled().guards()[0].region.bias32;
    engine.inject_faults(&FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr: bias,
            bit: 4,
            silent: false,
        },
    }));
    let outcome = engine.run(&input);
    let actions: Vec<_> = outcome.attempts.iter().map(|a| a.action).collect();
    assert_eq!(actions, [RecoveryAction::FirstTry, RecoveryAction::Verify]);
    assert!(outcome.attempts[0].guard_failed);
    assert_eq!(outcome.attempts[0].guard_region, Some(0));
    assert_eq!(outcome.attempts[1].verdict, Some(SdcVerdict::Transient));
    assert!(outcome.sdc_detected());
    assert!(outcome.sdc_healed());
    let run = outcome.result.unwrap();
    assert_eq!(run.outputs, golden_run.outputs);
    assert_eq!(run.report.cycles(), golden_run.report.cycles());
}

/// A *silent* flip of the same word survives the verify re-run's rewind
/// (`Sticky`) and needs the rebuild rung to clear.
#[test]
fn silent_sdc_is_sticky_and_needs_the_rebuild_rung() {
    let (net, input) = policy_net();
    let mut engine = ResilientEngine::new(&net, KernelBackend::new(OptLevel::IfmTile)).unwrap();
    engine.set_guards(true);
    let golden = engine.run(&input).result.unwrap();

    let bias = engine.engine().compiled().guards()[0].region.bias32;
    engine.inject_faults(&FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr: bias,
            bit: 4,
            silent: true,
        },
    }));
    let outcome = engine.run(&input);
    let actions: Vec<_> = outcome.attempts.iter().map(|a| a.action).collect();
    assert_eq!(
        actions,
        [
            RecoveryAction::FirstTry,
            RecoveryAction::Verify,
            RecoveryAction::Rebuild,
        ]
    );
    assert_eq!(outcome.attempts[1].verdict, Some(SdcVerdict::Sticky));
    assert!(outcome.attempts[1].guard_failed);
    assert!(!outcome.attempts[2].guard_failed, "rebuild cleared it");
    assert!(outcome.sdc_healed());
    let run = outcome.result.unwrap();
    assert_eq!(run.outputs, golden.outputs);
    assert_eq!(run.report.cycles(), golden.report.cycles());
}

/// With every containment rung off-policy, a flagged run is surfaced
/// as-is: detection stands in the attempt history, outputs are suspect.
#[test]
fn exhausted_ladder_surfaces_the_flagged_run() {
    let (net, input) = policy_net();
    let policy = RetryPolicy::new()
        .with_max_verifies(0)
        .with_rebuild(false)
        .with_degrade(false);
    let mut engine =
        ResilientEngine::with_policy(&net, KernelBackend::new(OptLevel::IfmTile), policy).unwrap();
    engine.set_guards(true);
    let bias = engine.engine().compiled().guards()[0].region.bias32;
    engine.inject_faults(&FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr: bias,
            bit: 4,
            silent: true,
        },
    }));
    let outcome = engine.run(&input);
    assert_eq!(outcome.attempts.len(), 1);
    assert!(outcome.sdc_detected());
    assert!(!outcome.sdc_healed());
    assert!(outcome.result.is_ok(), "the run itself completed");
    assert!(outcome.result.unwrap().report.guard_failed());
}

/// `Display` coverage for every `CoreError` variant (the sim-level
/// `SimError` twin lives in `rnnasip-sim`'s tests).
#[test]
fn core_error_display_covers_every_variant() {
    let cases: Vec<(CoreError, &str)> = vec![
        (
            CoreError::Sim(SimError::Watchdog { max_cycles: 9 }),
            "simulation failed: watchdog expired after 9 cycles",
        ),
        (
            CoreError::Shape("bad".into()),
            "unsupported layer shape: bad",
        ),
        (
            CoreError::Unsupported("topo".into()),
            "unsupported network topology: topo",
        ),
        (
            CoreError::OutOfMemory {
                needed: 10,
                capacity: 4,
            },
            "data layout needs 10 bytes, TCDM has 4",
        ),
    ];
    for (err, expected) in cases {
        assert_eq!(err.to_string(), expected);
    }
    // The Asm variant wraps the assembler's own message.
    let wrapped = CoreError::from(rnnasip_asm::AsmError::UnboundLabel { name: "L7".into() });
    assert_eq!(wrapped.to_string(), "assembly failed: unbound label `L7`");
}

/// The staged image stores only its populated prefix. A tracked flip far
/// beyond it, at the top of the TCDM, is still undone by the next run's
/// rewind: its block is dirty, and restoring a block past the prefix
/// zero-fills it. The restored-byte count is the dirty footprint as
/// before.
#[test]
fn mem_flip_beyond_the_staged_extent_is_undone_by_rewind() {
    let (net, input) = policy_net();
    let compiled = KernelBackend::new(OptLevel::IfmTile)
        .compile_network(&net)
        .unwrap();
    let image = compiled.image();
    assert!(
        image.populated().len() < image.len() / 8,
        "staged data is sparse"
    );
    let addr = image.len() as u32 - 3;

    let mut engine = compiled.engine();
    let golden = engine.run(&input).unwrap();
    engine.run(&input).unwrap();
    let clean = engine.last_restored_bytes();
    engine.inject_faults(&FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr,
            bit: 5,
            silent: false,
        },
    }));
    let faulted = engine.run(&input).unwrap();
    assert_eq!(
        faulted.outputs, golden.outputs,
        "nothing reads the flipped byte"
    );
    assert_eq!(engine.machine().mem().read_u8(addr).unwrap(), 1 << 5);

    let healed = engine.run(&input).unwrap();
    assert_eq!(engine.last_restored_bytes(), clean + 64);
    assert_eq!(engine.machine().mem().read_u8(addr).unwrap(), 0);
    assert_eq!(healed.outputs, golden.outputs);
    assert_eq!(healed.report.cycles(), golden.report.cycles());
    assert_eq!(
        healed.report.stats().to_csv(),
        golden.report.stats().to_csv()
    );
}
