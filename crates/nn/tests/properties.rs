//! Property tests on the golden models: structural identities the
//! kernels rely on.
//!
//! Each property runs [`CASES`] cases, each drawn from its own seeded
//! generator, and every failure message starts with `seed N:` so one
//! case reproduces on its own.

use rnnasip_fixed::Q3p12;
use rnnasip_nn::{Act, Conv2dLayer, FcLayer, LstmLayer, LstmState, Matrix};
use rnnasip_rng::StdRng;

/// Cases per property.
const CASES: u64 = 256;

/// Uniform in `[-scale, scale)`.
fn q(rng: &mut StdRng, scale: f64) -> Q3p12 {
    Q3p12::from_f64((rng.gen::<f64>() * 2.0 - 1.0) * scale)
}

/// `n` values uniform in `[-scale, scale)`.
fn vec_q(rng: &mut StdRng, n: usize, scale: f64) -> Vec<Q3p12> {
    (0..n).map(|_| q(rng, scale)).collect()
}

/// Runs `check` once per seed in `0..CASES` on a generator seeded with it.
fn for_each_seed(mut check: impl FnMut(u64, &mut StdRng)) {
    for seed in 0..CASES {
        check(seed, &mut StdRng::seed_from_u64(seed));
    }
}

/// A zero-weight layer outputs exactly its (activated) bias.
#[test]
fn zero_weights_pass_bias_through() {
    for_each_seed(|seed, rng| {
        let bias = vec_q(rng, 6, 7.0);
        let x = vec_q(rng, 4, 7.0);
        let layer = FcLayer::new(Matrix::zeros(6, 4), bias.clone(), Act::None);
        assert_eq!(layer.forward_fixed(&x), bias, "seed {seed}: x {x:?}");
    });
}

/// An identity-weight layer with zero bias is the identity (when no
/// activation and values fit without requantization error).
#[test]
fn identity_layer_is_identity() {
    let mut data = vec![Q3p12::ZERO; 25];
    for i in 0..5 {
        data[i * 5 + i] = Q3p12::from_f64(1.0);
    }
    let layer = FcLayer::new(Matrix::new(5, 5, data), vec![Q3p12::ZERO; 5], Act::None);
    for_each_seed(|seed, rng| {
        let x = vec_q(rng, 5, 7.0);
        assert_eq!(layer.forward_fixed(&x), x, "seed {seed}");
    });
}

/// ReLU output is never negative and matches None-activation output
/// where that output is non-negative.
#[test]
fn relu_matches_linear_on_positive_outputs() {
    for_each_seed(|seed, rng| {
        let w = vec_q(rng, 12, 1.0);
        let b = vec_q(rng, 3, 1.0);
        let x = vec_q(rng, 4, 1.0);
        let lin = FcLayer::new(Matrix::new(3, 4, w.clone()), b.clone(), Act::None);
        let rel = FcLayer::new(Matrix::new(3, 4, w), b, Act::Relu);
        for (k, (l, r)) in lin
            .forward_fixed(&x)
            .iter()
            .zip(rel.forward_fixed(&x))
            .enumerate()
        {
            assert!(r.raw() >= 0, "seed {seed}: output {k} is {r:?}");
            let want = if l.raw() >= 0 { *l } else { Q3p12::ZERO };
            assert_eq!(r, want, "seed {seed}: output {k}, linear {l:?}");
        }
    });
}

/// The LSTM with forget gate forced to 1 and input gate to 0
/// preserves its cell state exactly.
#[test]
fn saturated_forget_gate_preserves_cell() {
    let (n, m) = (3, 2);
    let zeros_nm = Matrix::zeros(n, m);
    let zeros_nn = Matrix::zeros(n, n);
    // Biases: forget-gate bias +8 (sig -> 1), input-gate bias -8
    // (sig -> 0); output gate and candidate neutral.
    let big = Q3p12::from_f64(7.99);
    let neg = Q3p12::from_f64(-7.99);
    let layer = LstmLayer::new(
        std::array::from_fn(|_| zeros_nm.clone()),
        std::array::from_fn(|_| zeros_nn.clone()),
        [
            vec![Q3p12::ZERO; n], // o: sig(0) = 0.5
            vec![big; n],         // f -> ~1
            vec![neg; n],         // i -> ~0
            vec![Q3p12::ZERO; n], // g
        ],
    );
    for_each_seed(|seed, rng| {
        let c0 = vec_q(rng, n, 1.0);
        let x = vec_q(rng, m, 1.0);
        let state = LstmState {
            h: vec![Q3p12::ZERO; n],
            c: c0.clone(),
        };
        let next = layer.step_fixed(&x, &state);
        // f = 4096/4096 exactly (converged sigmoid), i = 0: c' = c.
        assert_eq!(next.c, c0, "seed {seed}: x {x:?}");
    });
}

/// Conv evaluated directly equals the same filter expressed as an
/// FC layer applied to each im2col column — the lowering identity
/// the CNN kernels are built on.
#[test]
fn conv_equals_fc_on_im2col_columns() {
    for_each_seed(|seed, rng| {
        let weights = vec_q(rng, 2 * 8, 0.5);
        let bias = vec_q(rng, 2, 0.5);
        let input = vec_q(rng, 2 * 3 * 4, 1.0);
        let conv = Conv2dLayer::new(
            2,
            3,
            4, // 2 channels of 3x4
            2,
            2,
            2, // 2 output channels, 2x2 kernel
            Matrix::new(2, 8, weights.clone()),
            bias.clone(),
            Act::None,
        );
        let direct = conv.forward_fixed(&input);
        let cols = conv.im2col(&input);
        let fc = FcLayer::new(Matrix::new(2, 8, weights), bias, Act::None);
        let (oh, ow) = (conv.out_h(), conv.out_w());
        for px in 0..oh * ow {
            let column: Vec<Q3p12> = (0..8).map(|t| cols.get(t, px)).collect();
            let out = fc.forward_fixed(&column);
            for k in 0..2 {
                assert_eq!(
                    out[k],
                    direct[k * oh * ow + px],
                    "seed {seed}: pixel {px}, ch {k}"
                );
            }
        }
    });
}

/// Quantization error of a whole random network stays bounded (the
/// robustness claim behind "no retraining needed").
#[test]
fn random_deep_mlp_quantization_error_is_bounded() {
    let seed = 17;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers = Vec::new();
    let widths = [12usize, 24, 24, 24, 8];
    for w in widths.windows(2) {
        let scale = (1.5 / w[0] as f64).sqrt();
        let data = vec_q(&mut rng, w[0] * w[1], scale);
        layers.push(FcLayer::new(
            Matrix::new(w[1], w[0], data),
            vec![Q3p12::ZERO; w[1]],
            Act::Tanh,
        ));
    }
    let x: Vec<f64> = (0..12).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    let mut fq: Vec<Q3p12> = x.iter().map(|&v| Q3p12::from_f64(v)).collect();
    let mut ff = x;
    for layer in &layers {
        fq = layer.forward_fixed(&fq);
        ff = layer.forward_f64(&ff);
    }
    for (q, f) in fq.iter().zip(&ff) {
        assert!(
            (q.to_f64() - f).abs() < 0.05,
            "seed {seed}: after 4 tanh layers: {} vs {f}",
            q.to_f64()
        );
    }
}
