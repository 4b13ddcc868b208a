//! Deterministic gate on execution-tier coverage.
//!
//! One Table-I pass — the 10-net suite on one core, canonical inputs,
//! a fresh engine per network — retires every instruction through one of
//! three tiers: kernel shortcuts (`Machine::shortcut_instrs`), the bulk
//! block runner for loop bodies and straight runs
//! (`Machine::bulk_instrs`), or the generic per-op path. How many go
//! where depends only on code generation and on what the translator
//! recognizes, never on host load, so the totals are pinned exactly: a
//! change that moves work between tiers shows up here.

use rnnasip_core::{KernelBackend, OptLevel};
use rnnasip_rrm::BenchmarkNet;

/// Per level: (instructions, retired in bulk, retired through shortcuts),
/// summed over the suite.
const PINNED: [(OptLevel, u64, u64, u64); 5] = [
    (OptLevel::Baseline, 10_755_216, 145_032, 10_536_860),
    (OptLevel::Xpulp, 2_181_922, 526_410, 1_599_654),
    (OptLevel::OfmTile, 1_474_902, 14_069, 1_458_893),
    (OptLevel::SdotSp, 822_188, 14_069, 806_179),
    (OptLevel::IfmTile, 822_188, 14_069, 806_179),
];

/// Level a's per-output dot products — bias seed, spilled accumulator
/// and the branch-closed MAC loop — run as shortcut regions; only the
/// requantize/activate epilogues and the output loop are left to the
/// other tiers.
const MIN_BASELINE_SHORTCUT_SHARE: f64 = 0.95;

/// From level c on, the LSTM policy nets' gate matvecs and cell updates
/// both run as shortcut regions; only the per-step `x` copy and step
/// counter are left to the other tiers.
const LSTM_NETS: [&str; 2] = ["naparstek2019", "challita2017"];
const MIN_LSTM_SHORTCUT_SHARE: f64 = 0.98;

/// (instructions, retired in bulk, retired through shortcuts) of one
/// canonical run.
fn tiers(net: &BenchmarkNet, level: OptLevel) -> (u64, u64, u64) {
    let mut engine = KernelBackend::new(level)
        .compile_network(&net.network)
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id))
        .engine();
    let run = engine
        .run(&net.input())
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
    let m = engine.machine();
    (run.report.instrs(), m.bulk_instrs(), m.shortcut_instrs())
}

fn suite_tiers(level: OptLevel) -> (u64, u64, u64) {
    rnnasip_rrm::suite()
        .iter()
        .map(|net| tiers(net, level))
        .fold((0, 0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1, acc.2 + t.2))
}

#[test]
fn suite_tier_coverage_is_pinned_and_level_a_runs_through_shortcuts() {
    let got: Vec<_> = PINNED
        .iter()
        .map(|&(level, ..)| {
            let (instrs, bulk, shortcut) = suite_tiers(level);
            (level, instrs, bulk, shortcut)
        })
        .collect();
    assert_eq!(got, PINNED, "(level, instrs, bulk, shortcut)");
    let (_, instrs, _, shortcut) = got[0];
    let share = shortcut as f64 / instrs as f64;
    assert!(
        share >= MIN_BASELINE_SHORTCUT_SHARE,
        "level a shortcut share {share:.4} < {MIN_BASELINE_SHORTCUT_SHARE}"
    );
}

#[test]
fn lstm_nets_run_through_shortcuts_from_level_c() {
    for net in rnnasip_rrm::suite()
        .iter()
        .filter(|n| LSTM_NETS.contains(&n.id))
    {
        for level in [OptLevel::OfmTile, OptLevel::SdotSp, OptLevel::IfmTile] {
            let (instrs, _, shortcut) = tiers(net, level);
            let share = shortcut as f64 / instrs as f64;
            assert!(
                share >= MIN_LSTM_SHORTCUT_SHARE,
                "{} at {level:?}: shortcut share {share:.4} < {MIN_LSTM_SHORTCUT_SHARE}",
                net.id
            );
        }
    }
}
