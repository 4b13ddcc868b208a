//! One ladder: a pool worker heals a faulted request exactly as a
//! `ResilientEngine` without the degrade rung does — same final rung,
//! same SDC flags, bit-identical outputs and cycles.

use rnnasip_core::serve::{BatchRequest, EnginePool, ItemOutcome};
use rnnasip_core::{
    Fault, FaultPlan, FaultSite, KernelBackend, OptLevel, RecoveryAction, ResilientEngine,
    RetryPolicy, RunOutcome,
};
use rnnasip_isa::Reg;
use rnnasip_rng::StdRng;
use std::sync::Arc;

const LEVEL: OptLevel = OptLevel::IfmTile;

/// The fault plans under test, each with whether it needs guards: a
/// forced watchdog, an instruction flip, seeded register flips (both
/// guard settings), and a tracked and a silent flip of a guarded bias
/// word.
fn plans(net: &rnnasip_nn::Network, input: &[Vec<rnnasip_fixed::Q3p12>]) -> Vec<(FaultPlan, bool)> {
    let compiled = KernelBackend::new(LEVEL).compile_network(net).unwrap();
    let instret = compiled.engine().run(input).unwrap().report.instrs();
    let bias = compiled.guards()[0].region.bias32;
    let instr = compiled
        .program()
        .iter()
        .find(|item| item.size == 4)
        .map(|item| item.addr)
        .expect("compiled kernels contain 4-byte instructions");
    let fault = |at_instret, site| FaultPlan::new().with_fault(Fault { at_instret, site });
    let mem_bit = |silent| {
        fault(
            0,
            FaultSite::MemBit {
                addr: bias,
                bit: 4,
                silent,
            },
        )
    };

    let mut plans = vec![
        (FaultPlan::new().with_watchdog(10), false),
        (fault(0, FaultSite::InstrBit { pc: instr, bit: 0 }), false),
        (mem_bit(false), true),
        (mem_bit(true), true),
    ];
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..8 {
        let plan = fault(
            rng.next_u64() % instret,
            FaultSite::RegBit {
                reg: Reg::from_bits(1 + (rng.next_u64() % 31) as u32),
                bit: (rng.next_u64() % 32) as u32,
            },
        );
        plans.push((plan.clone(), false));
        plans.push((plan, true));
    }
    plans
}

fn pooled(
    net: &Arc<rnnasip_nn::Network>,
    input: &[Vec<rnnasip_fixed::Q3p12>],
    plan: &FaultPlan,
    guards: bool,
) -> ItemOutcome {
    let pool = if guards {
        EnginePool::with_workers_guarded(1)
    } else {
        EnginePool::with_workers(1)
    };
    let mut batch = BatchRequest::new();
    batch.push_with_faults(net.clone(), LEVEL, input.to_vec(), plan.clone());
    pool.run_batch(batch).into_outcomes().remove(0)
}

fn resilient(
    net: &rnnasip_nn::Network,
    input: &[Vec<rnnasip_fixed::Q3p12>],
    plan: &FaultPlan,
    guards: bool,
) -> RunOutcome {
    let policy = RetryPolicy::new().with_degrade(false);
    let mut engine = ResilientEngine::with_policy(net, KernelBackend::new(LEVEL), policy).unwrap();
    engine.set_guards(guards);
    engine.inject_faults(plan);
    engine.run(input)
}

#[test]
fn pool_and_resilient_engine_climb_the_same_ladder() {
    let bench = rnnasip_rrm::suite().remove(3); // eisen2019
    let input = bench.input();
    let net = Arc::new(bench.network);
    let mut rungs = Vec::new();
    for (i, (plan, guards)) in plans(&net, &input).iter().enumerate() {
        let pool = pooled(&net, &input, plan, *guards);
        let solo = resilient(&net, &input, plan, *guards);
        let rung = solo.attempts.last().unwrap().action;
        assert_eq!(pool.recovery, rung, "plan {i}: final rung");
        assert_eq!(pool.sdc_detected, solo.sdc_detected(), "plan {i}: detected");
        assert_eq!(pool.sdc_healed, solo.sdc_healed(), "plan {i}: healed");
        match (&pool.result, &solo.result) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.outputs, b.outputs, "plan {i}: outputs");
                assert_eq!(a.report.cycles(), b.report.cycles(), "plan {i}: cycles");
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "plan {i}"),
            (a, b) => panic!("plan {i}: pool {a:?} vs resilient {b:?}"),
        }
        rungs.push(rung);
    }
    // The fixed plans cover every rung the pool climbs.
    assert_eq!(
        rungs[..4],
        [
            RecoveryAction::Rewind,
            RecoveryAction::Rebuild,
            RecoveryAction::Verify,
            RecoveryAction::Rebuild,
        ]
    );
}
