//! Deterministic gate on shortcut-verification work.
//!
//! Every compile verifies its kernel regions by walking their micro-ops
//! (`UopProgram::verify_ops`). Loop iterations that only shift the
//! verifier's state — of hardware loops, of the branch-closed inner loop
//! of each level-a output's dot product, and of the level-b output-row
//! loop around its summarized hardware loop — are applied in closed
//! form, so the walk is proportional to static code, not to dynamic
//! instruction count. The totals below are exact: any change to code
//! generation or to the verifier's loop summary shows up here, and none
//! depends on host load.

use rnnasip_core::{KernelBackend, OptLevel};
use rnnasip_sim::{RegionKind, VerifyBreakdown};

/// Micro-ops walked by a full (unsummarized) verification of the
/// single-core suite, per level.
const FULL_WALK: [(OptLevel, u64); 5] = [
    (OptLevel::Baseline, 48_840),
    (OptLevel::Xpulp, 1_433_532),
    (OptLevel::OfmTile, 1_035_320),
    (OptLevel::SdotSp, 559_068),
    (OptLevel::IfmTile, 559_068),
];

/// The same walk with loop summaries, per level.
const SUMMARIZED_WALK: [(OptLevel, u64); 5] = [
    (OptLevel::Baseline, 1_824),
    (OptLevel::Xpulp, 1_823),
    (OptLevel::OfmTile, 51_302),
    (OptLevel::SdotSp, 42_770),
    (OptLevel::IfmTile, 54_726),
];

/// Level b's walk is a few output rows of each matvec plus its prologue:
/// at most this fraction of the full walk.
const XPULP_WALK_PER_FULL: u64 = 500;

/// The summarized walk by region kind and verdict, per level: `(level,
/// kind, installed, regions, walked micro-ops, summaries applied)`.
/// Kinds and verdicts a level never sees are left out.
const BREAKDOWN: &[(OptLevel, RegionKind, bool, u64, u64, u64)] = &[
    (OptLevel::Baseline, RegionKind::Matvec, false, 37, 712, 0),
    (OptLevel::Baseline, RegionKind::Dot, true, 37, 1_112, 37),
    (OptLevel::Xpulp, RegionKind::Matvec, true, 26, 1_495, 104),
    (OptLevel::Xpulp, RegionKind::Matvec, false, 11, 328, 11),
    (OptLevel::OfmTile, RegionKind::Matvec, true, 37, 51_172, 484),
    (OptLevel::OfmTile, RegionKind::Cell, true, 2, 130, 2),
    (OptLevel::SdotSp, RegionKind::Matvec, true, 37, 42_640, 484),
    (OptLevel::SdotSp, RegionKind::Cell, true, 2, 130, 2),
    (OptLevel::IfmTile, RegionKind::Matvec, true, 37, 54_596, 480),
    (OptLevel::IfmTile, RegionKind::Cell, true, 2, 130, 2),
];

/// The single-core suite's verification work at `level`, summed.
fn suite_breakdown(level: OptLevel) -> VerifyBreakdown {
    let mut total = VerifyBreakdown::default();
    for net in rnnasip_rrm::suite() {
        total += *KernelBackend::new(level)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id))
            .uop_program()
            .verify_breakdown();
    }
    total
}

#[test]
fn suite_verification_walk_is_pinned_and_a_tenth_of_the_full_walk() {
    for ((level, full), (_, pinned)) in FULL_WALK.into_iter().zip(SUMMARIZED_WALK) {
        let b = suite_breakdown(level);
        let walked = b.total().walked;
        assert_eq!(walked, pinned, "verification walk at {level:?}");
        assert!(
            walked * 10 <= full,
            "{level:?} walks {walked} micro-ops, more than 10% of the full walk's {full}"
        );
        if level == OptLevel::Xpulp {
            assert!(
                walked * XPULP_WALK_PER_FULL <= full,
                "{level:?} walks {walked} micro-ops, more than 1/{XPULP_WALK_PER_FULL} \
                 of the full walk's {full}"
            );
        }
        for kind in RegionKind::ALL {
            for installed in [true, false] {
                let c = b.get(kind, installed);
                let got = (c.regions, c.walked, c.summaries);
                let want = BREAKDOWN
                    .iter()
                    .find(|r| (r.0, r.1, r.2) == (level, kind, installed))
                    .map_or((0, 0, 0), |r| (r.3, r.4, r.5));
                assert_eq!(
                    got,
                    want,
                    "{level:?} {} regions, {}: (regions, walked, summaries)",
                    kind.name(),
                    if installed { "installed" } else { "rejected" }
                );
            }
        }
    }
}
