//! Determinism contract of the fault campaign: the same
//! [`CampaignConfig`] must reproduce byte-identical results across
//! repeated runs.
//!
//! The tests sweep single cells (`faults::cell`) on the smallest suite
//! network rather than the full campaign, so they stay fast in debug
//! builds; the full-sweep equivalent is the CI `fault_campaign --smoke
//! --check` step against the committed baseline.

use rnnasip_bench::faults::{cell, to_json, CampaignConfig, Classification};
use rnnasip_core::OptLevel;

/// Smallest suite network (eisen2019 MLP) — same pick as the core
/// crate's resilience tests.
const SMALL_NET: usize = 3;

#[test]
fn same_seed_reproduces_identical_cells() {
    let cfg = CampaignConfig { seed: 7, trials: 4 };
    let first = cell(&cfg, SMALL_NET, OptLevel::IfmTile);
    let second = cell(&cfg, SMALL_NET, OptLevel::IfmTile);
    assert_eq!(first, second);
    assert_eq!(
        to_json(&cfg, "smoke", &[first]),
        to_json(&cfg, "smoke", std::slice::from_ref(&second))
    );
    // The plan generator actually varies across trials: four trials
    // from one seed should not all pick the same injection point.
    assert!(
        second
            .trials
            .iter()
            .any(|t| (t.site, t.at_instret) != (second.trials[0].site, second.trials[0].at_instret)),
        "trial plans degenerate: {:?}",
        second.trials
    );
}

#[test]
fn detected_failures_always_record_a_recovery_rung() {
    // This seed deterministically yields one crash and one hang among
    // the eight trials, so both detected classes exercise the ladder.
    let cfg = CampaignConfig { seed: 9, trials: 8 };
    let c = cell(&cfg, SMALL_NET, OptLevel::IfmTile);
    let mut detected = 0;
    for t in &c.trials {
        match t.class {
            Classification::Crash | Classification::Hang => {
                detected += 1;
                assert!(
                    t.recovery == "rewind" || t.recovery == "rebuild",
                    "detected failure without recovery rung: {t:?}"
                );
                assert!(t.error.is_some(), "detected failure without error: {t:?}");
            }
            Classification::Masked | Classification::Sdc => {
                assert_eq!(
                    t.recovery, "none",
                    "undetected trial claims recovery: {t:?}"
                );
                assert!(
                    t.error.is_none(),
                    "undetected trial carries an error: {t:?}"
                );
            }
        }
    }
    assert!(
        detected >= 2 && c.trials.iter().any(|t| t.class == Classification::Crash),
        "seed no longer produces both detected classes: {:?}",
        c.trials
    );
}
