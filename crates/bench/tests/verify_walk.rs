//! Deterministic gate on shortcut-verification work.
//!
//! Every compile verifies its kernel regions by walking their micro-ops
//! (`UopProgram::verify_ops`). Loop iterations that only shift the
//! verifier's state — of hardware loops, and at level a of the
//! branch-closed inner loop of each output's dot product — are applied
//! in closed form, so the walk is proportional to static code, not to
//! dynamic instruction count. The
//! totals below are exact: any change to code generation or to the
//! verifier's loop summary shows up here, and none depends on host load.

use rnnasip_core::{KernelBackend, OptLevel};

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
    (OptLevel::Xpulp, 73_590),
    (OptLevel::OfmTile, 51_302),
    (OptLevel::SdotSp, 42_770),
    (OptLevel::IfmTile, 54_726),
];

fn suite_verify_ops(level: OptLevel) -> u64 {
    rnnasip_rrm::suite()
        .iter()
        .map(|net| {
            KernelBackend::new(level)
                .compile_network(&net.network)
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id))
                .uop_program()
                .verify_ops()
        })
        .sum()
}

#[test]
fn suite_verification_walk_is_pinned_and_a_tenth_of_the_full_walk() {
    for ((level, full), (_, pinned)) in FULL_WALK.into_iter().zip(SUMMARIZED_WALK) {
        let walked = suite_verify_ops(level);
        assert_eq!(walked, pinned, "verification walk at {level:?}");
        assert!(
            walked * 10 <= full,
            "{level:?} walks {walked} micro-ops, more than 10% of the full walk's {full}"
        );
    }
}
