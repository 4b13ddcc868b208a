//! End-to-end bit-exactness of the whole RRM benchmark suite: the
//! simulated kernels must reproduce the golden fixed-point models
//! exactly, network by network.

use rnnasip::core::{KernelBackend, OptLevel};
use rnnasip::nn::Network;

/// Every suite network at the two extension levels (d, e) — the levels
/// that exercise the paper's new instructions end to end.
#[test]
fn full_suite_bit_exact_at_extension_levels() {
    for net in rnnasip::rrm::suite() {
        let input = net.input();
        let expect = net.network.forward_fixed(&input);
        for level in [OptLevel::SdotSp, OptLevel::IfmTile] {
            let run = KernelBackend::new(level)
                .run_network(&net.network, &input)
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
            assert_eq!(run.outputs, expect, "{} at {level:?}", net.id);
        }
    }
}

/// The smaller networks across *all five* levels (baseline included).
#[test]
fn small_networks_bit_exact_at_all_levels() {
    let suite = rnnasip::rrm::suite();
    for id in ["eisen2019", "naparstek2019", "wang2018"] {
        let net = suite
            .iter()
            .find(|n| n.id == id)
            .expect("suite contains the network");
        let input = net.input();
        let expect = net.network.forward_fixed(&input);
        for level in OptLevel::ALL {
            let run = KernelBackend::new(level)
                .run_network(&net.network, &input)
                .unwrap_or_else(|e| panic!("{id} at {level:?}: {e}"));
            assert_eq!(run.outputs, expect, "{id} at {level:?}");
        }
    }
}

/// Suite-level speedups must match the paper's shape: strictly
/// increasing a→d, and (e) at least matching (d) on the suite total.
#[test]
fn suite_speedups_have_paper_shape() {
    let mut totals = Vec::new();
    let suite = rnnasip::rrm::suite();
    for level in OptLevel::ALL {
        let mut cycles = 0u64;
        for net in &suite {
            cycles += KernelBackend::new(level)
                .run_network(&net.network, &net.input())
                .expect("suite runs")
                .report
                .cycles();
        }
        totals.push(cycles);
    }
    let speedup = |i: usize| totals[0] as f64 / totals[i] as f64;
    // Paper: 4.4x, 8.4x, 14.3x, 15.0x. Allow generous tolerance — the
    // *shape* is the claim.
    assert!(
        (3.5..5.5).contains(&speedup(1)),
        "Xpulp speedup {}",
        speedup(1)
    );
    assert!(
        (7.0..10.0).contains(&speedup(2)),
        "OFM speedup {}",
        speedup(2)
    );
    assert!(
        (11.5..16.0).contains(&speedup(3)),
        "sdotsp speedup {}",
        speedup(3)
    );
    assert!(
        (12.5..17.0).contains(&speedup(4)),
        "IFM speedup {}",
        speedup(4)
    );
    assert!(speedup(4) > speedup(3), "IFM tiling helps on the suite");
}

/// Every prefix of every suite network — its first `k` stages as a
/// network of their own, the profile binary's per-stage view — is
/// bit-exact against the golden model of that prefix at all five levels.
#[test]
fn every_suite_prefix_bit_exact_at_all_levels() {
    for net in rnnasip::rrm::suite() {
        let input = net.input();
        let stages = net.network.stages();
        for k in 1..=stages.len() {
            let head = Network::new(net.network.name(), stages[..k].to_vec());
            let expect = head.forward_fixed(&input);
            for level in OptLevel::ALL {
                let what = format!("{} first {k} stages at {level:?}", net.id);
                let run = KernelBackend::new(level)
                    .run_network(&head, &input)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(run.outputs, expect, "{what}");
            }
        }
    }
}
