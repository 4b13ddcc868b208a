//! Output-tile caps in the random shortcut differential.
//!
//! Levels c–e emit each matvec as output tiles of at most `max_tile`
//! rows (`KernelBackend::with_max_tile`). A cap of 1 gives degenerate
//! one-output tiles, and at levels d and e an odd remainder falls back to
//! the explicit-load schedule of level c. Every such tile must still
//! verify as the declared matvec: seeded random FC stacks compiled at
//! each cap install every matvec region they emit, and run bit-identical
//! (outputs, cycles, instret, per-mnemonic rows) on the shortcut, the
//! plain micro-op and the stepping tiers. A failure names the seed.

use rnnasip_bench::par;
use rnnasip_core::{KernelBackend, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::{Act, FcLayer, Matrix, Network, Stage};
use rnnasip_rng::StdRng;
use rnnasip_sim::RegionKind;

/// Seeded random stacks per (level, cap).
const SEEDS: u64 = 60;

/// The tile caps under test.
const CAPS: [usize; 4] = [1, 2, 3, 10];

/// A seeded random FC stack: 1–3 layers, widths 1–24, random activations.
fn random_net(seed: u64) -> (Network, Vec<Vec<Q3p12>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x711E_CA95);
    let mut dim = |lo: u64, hi: u64| (lo + rng.next_u64() % (hi - lo)) as usize;
    let acts = [Act::None, Act::Relu, Act::Tanh, Act::Sigmoid];
    let (depth, n_in0) = (dim(1, 4), dim(1, 25));
    let mut q = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut value = |scale: f64| Q3p12::from_f64((q.gen::<f64>() * 2.0 - 1.0) * scale);
    let mut stages = Vec::new();
    let mut n_in = n_in0;
    for _ in 0..depth {
        let (n_out, act) = (dim(1, 25), acts[dim(0, 4)]);
        let w = (0..n_out * n_in).map(|_| value(0.25)).collect();
        let b = (0..n_out).map(|_| value(0.25)).collect();
        stages.push(Stage::Fc(FcLayer::new(Matrix::new(n_out, n_in, w), b, act)));
        n_in = n_out;
    }
    let input = (0..n_in0).map(|_| value(1.0)).collect();
    (Network::new(format!("tiles{seed}"), stages), vec![input])
}

#[test]
fn every_tile_cap_installs_its_matvecs_and_runs_bit_identical() {
    let cases: Vec<(OptLevel, usize, u64)> =
        [OptLevel::OfmTile, OptLevel::SdotSp, OptLevel::IfmTile]
            .into_iter()
            .flat_map(|l| {
                CAPS.into_iter()
                    .flat_map(move |c| (0..SEEDS).map(move |s| (l, c, s)))
            })
            .collect();
    let failures: Vec<String> = par::par_map(&cases, |&(level, cap, seed)| {
        let (net, input) = random_net(seed);
        let tag = format!("seed {seed} level {} max_tile {cap}", level.tag());
        let compiled = KernelBackend::new(level)
            .with_max_tile(cap)
            .compile_network(&net)
            .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
        let mut errs = Vec::new();
        let verify = compiled.uop_program().verify_breakdown();
        let (rejected, installed) = (
            verify.get(RegionKind::Matvec, false).regions,
            verify.get(RegionKind::Matvec, true).regions,
        );
        if rejected > 0 || installed == 0 {
            errs.push(format!(
                "{tag}: {rejected} matvec regions rejected, {installed} installed"
            ));
        }
        let mut engine = compiled.engine();
        let runs = [
            engine.run(&input),
            compiled.without_shortcuts().engine().run(&input),
            engine.run_reference(&input),
        ]
        .map(|r| r.unwrap_or_else(|e| panic!("{tag}: run failed: {e}")));
        let key = |r: &rnnasip_core::NetworkRun| {
            let s = r.report.stats().to_csv();
            (r.outputs.clone(), r.report.cycles(), r.report.instrs(), s)
        };
        if runs.iter().any(|r| key(r) != key(&runs[0])) {
            errs.push(format!("{tag}: shortcut / uop / stepping tiers diverge"));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
