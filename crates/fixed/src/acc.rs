//! 32-bit multiply-accumulate register model.

use crate::q::{saturate_i32, Fx16, Q3p12};
use core::fmt;

/// The 32-bit accumulator used by the MAC / sum-dot-product datapath.
///
/// A fully-connected output in the paper is computed as
/// `o = b + Σ w·x` where each product of two Q3.12 operands lands in this
/// accumulator with 24 fractional bits of headroom folded into plain i32
/// wrapping arithmetic (the hardware adder wraps; overflow is the
/// programmer's responsibility, exactly like `pv.sdotsp.h`). The final
/// requantization shifts right by 12 and saturates to Q3.12
/// (Algorithm 1, lines 13–14).
///
/// # Example
///
/// ```
/// use rnnasip_fixed::{Acc32, Q3p12};
///
/// let acc = Acc32::from_bias(Q3p12::from_f64(0.5))
///     .mac(Q3p12::from_f64(2.0), Q3p12::from_f64(1.5));
/// assert_eq!(acc.requantize(), Q3p12::from_f64(3.5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Acc32(i32);

impl Acc32 {
    /// The zero accumulator.
    pub const ZERO: Self = Self(0);

    /// Creates an accumulator from its raw i32 contents.
    #[inline]
    pub const fn from_raw(raw: i32) -> Self {
        Self(raw)
    }

    /// Raw i32 contents.
    #[inline]
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Seeds the accumulator with a Q3.12 bias, pre-shifted so that the
    /// final `>> 12` requantization recovers it: `acc = bias << 12`.
    ///
    /// This matches how the optimized kernels initialise `temp_out`
    /// registers with the layer bias before the MAC loop.
    #[inline]
    pub fn from_bias(bias: Q3p12) -> Self {
        Self((bias.raw() as i32) << 12)
    }

    /// One multiply-accumulate step: `acc += w * x` (wrapping, like the
    /// hardware adder).
    #[inline]
    #[must_use]
    pub fn mac<const F: u32>(self, w: Fx16<F>, x: Fx16<F>) -> Self {
        Self(self.0.wrapping_add(w.widening_mul(x)))
    }

    /// One multiply-subtract step: `acc -= w * x` (the `p.msu` flavour).
    #[inline]
    #[must_use]
    pub fn msu<const F: u32>(self, w: Fx16<F>, x: Fx16<F>) -> Self {
        Self(self.0.wrapping_sub(w.widening_mul(x)))
    }

    /// Adds another accumulator (wrapping).
    #[inline]
    #[must_use]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        Self(self.0.wrapping_add(rhs.0))
    }

    /// Requantizes to Q3.12: arithmetic shift right by 12 (truncating
    /// toward negative infinity), then saturate to the i16 range.
    #[inline]
    pub fn requantize(self) -> Q3p12 {
        Q3p12::from_raw(saturate_i32(self.0 >> 12))
    }
}

impl fmt::Display for Acc32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acc({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_round_trips_through_requantize() {
        for v in [-8.0, -0.5, 0.0, 0.25, 7.5] {
            let b = Q3p12::from_f64(v);
            assert_eq!(Acc32::from_bias(b).requantize(), b);
        }
    }

    #[test]
    fn mac_chain_matches_direct_sum() {
        let ws = [0.5, -1.25, 3.0];
        let xs = [2.0, 0.75, -0.125];
        let mut acc = Acc32::ZERO;
        let mut expect = 0i32;
        for (w, x) in ws.iter().zip(&xs) {
            let (wq, xq) = (Q3p12::from_f64(*w), Q3p12::from_f64(*x));
            acc = acc.mac(wq, xq);
            expect += wq.raw() as i32 * xq.raw() as i32;
        }
        assert_eq!(acc.raw(), expect);
    }

    #[test]
    fn requantize_saturates() {
        let acc = Acc32::from_raw(i32::MAX);
        assert_eq!(acc.requantize(), Q3p12::MAX);
        let acc = Acc32::from_raw(i32::MIN);
        assert_eq!(acc.requantize(), Q3p12::MIN);
    }

    #[test]
    fn requantize_truncates_negative() {
        // -1 raw (i.e. -2^-24) must requantize to -1 in Q3.12 raw units,
        // because the arithmetic shift truncates toward negative infinity.
        assert_eq!(Acc32::from_raw(-1).requantize().raw(), -1);
        assert_eq!(Acc32::from_raw(-4096).requantize().raw(), -1);
        assert_eq!(Acc32::from_raw(-4097).requantize().raw(), -2);
    }

    #[test]
    fn msu_is_inverse_of_mac() {
        let w = Q3p12::from_f64(1.5);
        let x = Q3p12::from_f64(-2.25);
        let acc = Acc32::from_raw(777).mac(w, x).msu(w, x);
        assert_eq!(acc.raw(), 777);
    }
}
