//! Property tests on the fixed-point foundation: the invariants every
//! other crate builds on.
//!
//! Each property runs [`CASES`] cases, each drawn from its own seeded
//! generator, and every failure message starts with `seed N:` so one
//! case reproduces on its own.

use rnnasip_fixed::pla::{FitMode, PlaFunc, PlaTable};
use rnnasip_fixed::{q3p12_to_q1p6, Acc32, Q1p6, Q3p12, V2s, V4s};
use rnnasip_rng::StdRng;

/// Cases per property.
const CASES: u64 = 2048;

/// Runs `check` once per seed in `0..CASES` on a generator seeded with it.
fn for_each_seed(mut check: impl FnMut(u64, &mut StdRng)) {
    for seed in 0..CASES {
        check(seed, &mut StdRng::seed_from_u64(seed));
    }
}

fn i32_any(rng: &mut StdRng) -> i32 {
    rng.gen::<u32>() as i32
}

/// Any Q3.12 value.
fn q(rng: &mut StdRng) -> Q3p12 {
    Q3p12::from_raw(rng.gen::<u32>() as i16)
}

/// Any Q1.6 value.
fn q8(rng: &mut StdRng) -> Q1p6 {
    Q1p6::from_raw(rng.gen::<u32>() as i8)
}

/// Requantization always lands in the i16 range and equals the
/// arithmetic-shift reference.
#[test]
fn requantize_is_bounded_and_exact() {
    for_each_seed(|seed, rng| {
        let raw = i32_any(rng);
        let q = Acc32::from_raw(raw).requantize();
        let expect = (raw >> 12).clamp(i16::MIN as i32, i16::MAX as i32) as i16;
        assert_eq!(q.raw(), expect, "seed {seed}: raw {raw}");
    });
}

/// from_f64 round-trips every representable grid point exactly.
#[test]
fn f64_round_trip_on_grid() {
    for_each_seed(|seed, rng| {
        let x = q(rng);
        assert_eq!(Q3p12::from_f64(x.to_f64()), x, "seed {seed}");
    });
}

/// from_f64 is monotone.
#[test]
fn from_f64_is_monotone() {
    for_each_seed(|seed, rng| {
        let a = rng.gen::<f64>() * 20.0 - 10.0;
        let b = rng.gen::<f64>() * 20.0 - 10.0;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            Q3p12::from_f64(lo) <= Q3p12::from_f64(hi),
            "seed {seed}: {lo} vs {hi}"
        );
    });
}

/// Packed v2s dot product equals the scalar MACs.
#[test]
fn v2s_dot_matches_scalar() {
    for_each_seed(|seed, rng| {
        let (a0, a1, b0, b1) = (q(rng), q(rng), q(rng), q(rng));
        let acc = i32_any(rng);
        let v = V2s::pack(a0, a1).sdotsp(V2s::pack(b0, b1), Acc32::from_raw(acc));
        let expect = Acc32::from_raw(acc).mac(a0, b0).mac(a1, b1);
        assert_eq!(v, expect, "seed {seed}");
    });
}

/// Packed v4s dot product equals the scalar sum.
#[test]
fn v4s_dot_matches_scalar() {
    for_each_seed(|seed, rng| {
        let lanes_a = [q8(rng), q8(rng), q8(rng), q8(rng)];
        let lanes_b = [q8(rng), q8(rng), q8(rng), q8(rng)];
        let acc = i32_any(rng);
        let v = V4s::pack(lanes_a).sdotsp(V4s::pack(lanes_b), Acc32::from_raw(acc));
        let mut expect = acc;
        for (a, b) in lanes_a.iter().zip(&lanes_b) {
            expect = expect.wrapping_add(a.widening_mul(*b));
        }
        assert_eq!(v.raw(), expect, "seed {seed}");
    });
}

/// The MAC chain equals the wide integer sum wrapped to i32.
#[test]
fn mac_chain_equals_wrapped_wide_sum() {
    for_each_seed(|seed, rng| {
        let n = rng.gen::<u32>() % 64;
        let mut acc = Acc32::ZERO;
        let mut wide: i64 = 0;
        for _ in 0..n {
            let (w, x) = (q(rng), q(rng));
            acc = acc.mac(w, x);
            wide += (w.raw() as i64) * (x.raw() as i64);
        }
        assert_eq!(acc.raw(), wide as i32, "seed {seed}: {n} terms");
    });
}

/// Q3.12 -> Q1.6 conversion is monotone and bounded.
#[test]
fn q8_conversion_monotone() {
    for_each_seed(|seed, rng| {
        let (a, b) = (q(rng), q(rng));
        if a <= b {
            assert!(q3p12_to_q1p6(a) <= q3p12_to_q1p6(b), "seed {seed}");
        }
        let c = q3p12_to_q1p6(a);
        assert!(
            (c.to_f64() - a.to_f64().clamp(-2.0, 2.0 - 1.0 / 64.0)).abs() <= 1.0 / 128.0 + 1e-9,
            "seed {seed}: {a:?} -> {c:?}"
        );
    });
}

/// The hardware tanh stays in [-1, 1] and is odd (up to one LSB at
/// the origin); sigmoid stays in [0, 1].
#[test]
fn hw_activations_are_bounded() {
    for_each_seed(|seed, rng| {
        let x = q(rng);
        let t = rnnasip_fixed::hw_tanh(x);
        assert!(t.raw() >= -4096 && t.raw() <= 4096, "seed {seed}: tanh");
        let s = rnnasip_fixed::hw_sig(x);
        assert!(s.raw() >= 0 && s.raw() <= 4096, "seed {seed}: sig");
        // Symmetry: sig(x) + sig(-x) == 1.0 exactly (construction).
        if x.raw() != i16::MIN {
            let nx = Q3p12::from_raw(-x.raw());
            assert_eq!(
                s.raw() + rnnasip_fixed::hw_sig(nx).raw(),
                4096,
                "seed {seed}: x {x:?}"
            );
        }
    });
}

/// Both activations are monotone non-decreasing.
#[test]
fn hw_activations_are_monotone() {
    for_each_seed(|seed, rng| {
        let (a, b) = (q(rng), q(rng));
        if a <= b {
            assert!(
                rnnasip_fixed::hw_tanh(a) <= rnnasip_fixed::hw_tanh(b),
                "seed {seed}: tanh"
            );
            assert!(
                rnnasip_fixed::hw_sig(a) <= rnnasip_fixed::hw_sig(b),
                "seed {seed}: sig"
            );
        }
    });
}

/// Table-level property: every fitted PLA approximates its reference
/// within the interval-count-dependent bound.
#[test]
fn pla_error_shrinks_quadratically_with_intervals() {
    let mut last = f64::MAX;
    for (m, shift) in [(4u32, 12u32), (8, 11), (16, 10), (32, 9)] {
        let t = PlaTable::fit(PlaFunc::Tanh, m, shift, FitMode::LeastSquares);
        let e = t.max_error();
        assert!(e < last, "error must shrink: {e} !< {last}");
        last = e;
    }
}
