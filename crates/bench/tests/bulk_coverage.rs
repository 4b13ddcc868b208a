//! Deterministic gate on execution-tier coverage.
//!
//! One Table-I pass — the 10-net suite on one core, canonical inputs,
//! a fresh engine per network — retires every instruction through one of
//! three tiers: kernel shortcuts (`Machine::shortcut_instrs`), the bulk
//! block runners for loop bodies and straight runs
//! (`Machine::bulk_instrs`), or the generic per-op path. How many go
//! where depends only on code generation and on what the translator
//! recognizes, never on host load, so the totals are pinned exactly: a
//! change that moves work between tiers shows up here.

use rnnasip_core::{KernelBackend, OptLevel};

/// Per level: (instructions, retired in bulk, retired through shortcuts),
/// summed over the suite.
const PINNED: [(OptLevel, u64, u64, u64); 5] = [
    (OptLevel::Baseline, 10_755_216, 10_672_346, 0),
    (OptLevel::Xpulp, 2_181_922, 526_410, 1_599_654),
    (OptLevel::OfmTile, 1_474_902, 28_995, 1_443_409),
    (OptLevel::SdotSp, 822_188, 28_995, 790_695),
    (OptLevel::IfmTile, 822_188, 28_995, 790_695),
];

/// Level a's software loops are closed by backward branches; the bulk
/// tier must carry nearly all of its work.
const MIN_BASELINE_BULK_SHARE: f64 = 0.95;

fn suite_tiers(level: OptLevel) -> (u64, u64, u64) {
    rnnasip_rrm::suite()
        .iter()
        .map(|net| {
            let mut engine = KernelBackend::new(level)
                .compile_network(&net.network)
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id))
                .engine();
            let run = engine
                .run(&net.input())
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
            let m = engine.machine();
            (run.report.instrs(), m.bulk_instrs(), m.shortcut_instrs())
        })
        .fold((0, 0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1, acc.2 + t.2))
}

#[test]
fn suite_tier_coverage_is_pinned_and_level_a_runs_in_bulk() {
    let got: Vec<_> = PINNED
        .iter()
        .map(|&(level, ..)| {
            let (instrs, bulk, shortcut) = suite_tiers(level);
            (level, instrs, bulk, shortcut)
        })
        .collect();
    assert_eq!(got, PINNED, "(level, instrs, bulk, shortcut)");
    let (_, instrs, bulk, _) = got[0];
    let share = bulk as f64 / instrs as f64;
    assert!(
        share >= MIN_BASELINE_BULK_SHARE,
        "level a bulk share {share:.4} < {MIN_BASELINE_BULK_SHARE}"
    );
}
