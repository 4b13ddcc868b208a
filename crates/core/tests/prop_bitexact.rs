//! Randomized bit-exactness: *any* well-formed FC layer is bit-exact on
//! *any* optimization level. Shapes, weights, biases, activations, tile
//! caps and inputs are all drawn from a seeded generator; the invariant
//! is absolute equality with the golden Q3.12 model.
//!
//! Each of the [`CASES`] cases is rebuilt from its seed by `case(seed)`,
//! and every failure message starts with `seed N`.

use rnnasip_core::{KernelBackend, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::{Act, FcLayer, Matrix};
use rnnasip_rng::StdRng;

/// Cases drawn. Each simulates a full kernel, so keep the count moderate.
const CASES: u64 = 48;

const ACTS: [Act; 4] = [Act::None, Act::Relu, Act::Tanh, Act::Sigmoid];

/// Uniform in `lo..hi`.
fn range(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    lo + (rng.gen::<u64>() % (hi - lo) as u64) as usize
}

/// Uniform in `[-scale, scale)`.
fn q(rng: &mut StdRng, scale: f64) -> Q3p12 {
    Q3p12::from_f64((rng.gen::<f64>() * 2.0 - 1.0) * scale)
}

/// One case: the layer, its input, the level and the tile cap.
fn case(seed: u64) -> (FcLayer, Vec<Q3p12>, OptLevel, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_out = range(&mut rng, 1, 24);
    let n_in = range(&mut rng, 1, 40);
    let act = ACTS[range(&mut rng, 0, ACTS.len())];
    let level = OptLevel::ALL[range(&mut rng, 0, OptLevel::ALL.len())];
    let tile = range(&mut rng, 1, 11);
    let weights = (0..n_out * n_in).map(|_| q(&mut rng, 4.0)).collect();
    let input = (0..n_in).map(|_| q(&mut rng, 4.0)).collect();
    let bias = (0..n_out).map(|_| q(&mut rng, 2.0)).collect();
    let layer = FcLayer::new(Matrix::new(n_out, n_in, weights), bias, act);
    (layer, input, level, tile)
}

#[test]
fn any_fc_layer_is_bit_exact() {
    let mut levels = Vec::new();
    let mut acts = Vec::new();
    for seed in 0..CASES {
        let (layer, input, level, tile) = case(seed);
        let (n_out, n_in, act) = (layer.n_out(), layer.n_in(), layer.act());
        let what =
            format!("seed {seed}: level {level:?}, tile {tile}, shape {n_out}x{n_in}, act {act:?}");
        let expect = layer.forward_fixed(&input);
        let run = KernelBackend::new(level)
            .with_max_tile(tile)
            .run_fc(&layer, &input)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(run.outputs, expect, "{what}");
        levels.push(level);
        acts.push(act);
    }
    for level in OptLevel::ALL {
        assert!(levels.contains(&level), "no case drew level {level:?}");
    }
    for act in ACTS {
        assert!(acts.contains(&act), "no case drew act {act:?}");
    }
}
