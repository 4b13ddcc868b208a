//! 2-D convolutional layer with im2col lowering.

use crate::fc::Act;
use crate::matrix::Matrix;
use rnnasip_fixed::{Acc32, Q3p12};

/// A 2-D convolution layer: `in_ch` input channels of `h × w` pixels,
/// `out_ch` output channels, `kh × kw` filters, configurable stride and
/// symmetric zero padding (defaults: stride 1, no padding, giving the
/// *valid* output `(h-kh+1) × (w-kw+1)`).
///
/// Feature maps are stored channel-major, row-major within a channel
/// (`c·h·w + y·w + x`). The convolution is evaluated both directly and via
/// **im2col** (the lowering the paper cites from \[25\], which lets the CNN
/// reuse the FC kernels); the two are bit-identical because the
/// accumulation order is preserved.
#[derive(Clone, Debug)]
pub struct Conv2dLayer {
    in_ch: usize,
    in_h: usize,
    in_w: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    /// `out_ch × (in_ch·kh·kw)` filter matrix, one row per output channel,
    /// inner order: channel-major, then kernel row, then kernel column.
    weights: Matrix,
    bias: Vec<Q3p12>,
    act: Act,
    stride: usize,
    pad: usize,
}

impl Conv2dLayer {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or the kernel exceeds the input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_ch: usize,
        in_h: usize,
        in_w: usize,
        out_ch: usize,
        kh: usize,
        kw: usize,
        weights: Matrix,
        bias: Vec<Q3p12>,
        act: Act,
    ) -> Self {
        Self::with_geometry(in_ch, in_h, in_w, out_ch, kh, kw, 1, 0, weights, bias, act)
    }

    /// Creates a convolution layer with explicit stride and symmetric
    /// zero padding. Output is
    /// `floor((in + 2·pad - k) / stride) + 1` per dimension.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent, `stride == 0`, or the padded
    /// input is smaller than the kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn with_geometry(
        in_ch: usize,
        in_h: usize,
        in_w: usize,
        out_ch: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        weights: Matrix,
        bias: Vec<Q3p12>,
        act: Act,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            kh <= in_h + 2 * pad && kw <= in_w + 2 * pad,
            "kernel larger than padded input"
        );
        assert_eq!(weights.rows(), out_ch, "weight rows");
        assert_eq!(weights.cols(), in_ch * kh * kw, "weight cols");
        assert_eq!(bias.len(), out_ch, "bias length");
        Self {
            in_ch,
            in_h,
            in_w,
            out_ch,
            kh,
            kw,
            weights,
            bias,
            act,
            stride,
            pad,
        }
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Number of input channels.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Input height.
    pub fn in_h(&self) -> usize {
        self.in_h
    }

    /// Input width.
    pub fn in_w(&self) -> usize {
        self.in_w
    }

    /// Kernel height.
    pub fn kh(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kw(&self) -> usize {
        self.kw
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Number of output channels.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Flattened input length (`in_ch·in_h·in_w`).
    pub fn n_in(&self) -> usize {
        self.in_ch * self.in_h * self.in_w
    }

    /// Flattened output length (`out_ch·out_h·out_w`).
    pub fn n_out(&self) -> usize {
        self.out_ch * self.out_h() * self.out_w()
    }

    /// The filter matrix (one row per output channel).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &[Q3p12] {
        &self.bias
    }

    /// The activation.
    pub fn act(&self) -> Act {
        self.act
    }

    /// MAC operations per forward pass.
    pub fn mac_count(&self) -> u64 {
        (self.out_ch * self.out_h() * self.out_w() * self.in_ch * self.kh * self.kw) as u64
    }

    /// The im2col matrix: one *column* per output pixel, one row per
    /// filter tap, returned row-major as `(in_ch·kh·kw) × (out_h·out_w)`.
    /// Lowering the convolution this way turns it into the matrix-matrix
    /// product the FC kernels compute (Section II-A).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n_in()`.
    pub fn im2col(&self, input: &[Q3p12]) -> Matrix {
        assert_eq!(input.len(), self.n_in(), "input length mismatch");
        let (oh, ow) = (self.out_h(), self.out_w());
        let rows = self.in_ch * self.kh * self.kw;
        let mut data = vec![Q3p12::ZERO; rows * oh * ow];
        for c in 0..self.in_ch {
            for ky in 0..self.kh {
                for kx in 0..self.kw {
                    let row = (c * self.kh + ky) * self.kw + kx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                            let v = if iy < 0
                                || ix < 0
                                || iy >= self.in_h as isize
                                || ix >= self.in_w as isize
                            {
                                Q3p12::ZERO
                            } else {
                                input[(c * self.in_h + iy as usize) * self.in_w + ix as usize]
                            };
                            data[row * (oh * ow) + oy * ow + ox] = v;
                        }
                    }
                }
            }
        }
        Matrix::new(rows, oh * ow, data)
    }

    /// Bit-exact fixed-point forward pass (direct evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n_in()`.
    pub fn forward_fixed(&self, input: &[Q3p12]) -> Vec<Q3p12> {
        let cols = self.im2col(input);
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = vec![Q3p12::ZERO; self.n_out()];
        for k in 0..self.out_ch {
            for px in 0..oh * ow {
                let mut acc = Acc32::from_bias(self.bias[k]);
                for (tap, w) in self.weights.row(k).iter().enumerate() {
                    acc = acc.mac(*w, cols.get(tap, px));
                }
                out[k * oh * ow + px] = self.act.apply_fixed(acc.requantize());
            }
        }
        out
    }

    /// Double-precision forward pass on dequantized weights.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n_in()`.
    pub fn forward_f64(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.n_in(), "input length mismatch");
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = vec![0.0; self.n_out()];
        for k in 0..self.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut sum = self.bias[k].to_f64();
                    for c in 0..self.in_ch {
                        for ky in 0..self.kh {
                            for kx in 0..self.kw {
                                let tap = (c * self.kh + ky) * self.kw + kx;
                                let w = self.weights.get(k, tap).to_f64();
                                let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                                let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= self.in_h as isize
                                    || ix >= self.in_w as isize
                                {
                                    continue;
                                }
                                let x =
                                    input[(c * self.in_h + iy as usize) * self.in_w + ix as usize];
                                sum += w * x;
                            }
                        }
                    }
                    out[(k * oh + oy) * ow + ox] = self.act.apply_f64(sum);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-channel 3x3 input, single 2x2 averaging-ish filter.
    fn tiny_conv() -> Conv2dLayer {
        Conv2dLayer::new(
            1,
            3,
            3,
            1,
            2,
            2,
            Matrix::from_f64(1, 4, &[0.25, 0.25, 0.25, 0.25]),
            vec![Q3p12::ZERO],
            Act::None,
        )
    }

    #[test]
    fn averaging_filter() {
        let conv = tiny_conv();
        let input: Vec<Q3p12> = (1..=9).map(|v| Q3p12::from_f64(v as f64 / 4.0)).collect();
        let out = conv.forward_fixed(&input);
        assert_eq!(out.len(), 4);
        // Top-left window: (1+2+4+5)/4 * 0.25 ... values/4: mean of
        // {0.25,0.5,1.0,1.25} * ... filter 0.25 each -> sum/4 = 0.75.
        assert!((out[0].to_f64() - 0.75).abs() < 1e-2);
    }

    #[test]
    fn fixed_matches_f64() {
        let conv = Conv2dLayer::new(
            2,
            4,
            4,
            3,
            3,
            3,
            Matrix::from_f64(
                3,
                18,
                &(0..54)
                    .map(|i| ((i as f64) - 27.0) / 40.0)
                    .collect::<Vec<_>>(),
            ),
            vec![
                Q3p12::from_f64(0.1),
                Q3p12::from_f64(-0.1),
                Q3p12::from_f64(0.0),
            ],
            Act::Relu,
        );
        let input_f: Vec<f64> = (0..32).map(|i| ((i % 7) as f64 - 3.0) / 4.0).collect();
        let input_q: Vec<Q3p12> = input_f.iter().map(|&v| Q3p12::from_f64(v)).collect();
        let qf = conv.forward_fixed(&input_q);
        let ff = conv.forward_f64(&input_f);
        assert_eq!(qf.len(), ff.len());
        for (q, f) in qf.iter().zip(&ff) {
            assert!((q.to_f64() - f).abs() < 0.05, "{} vs {}", q.to_f64(), f);
        }
    }

    #[test]
    fn im2col_shape() {
        let conv = tiny_conv();
        let input = vec![Q3p12::from_f64(1.0); 9];
        let cols = conv.im2col(&input);
        assert_eq!(cols.rows(), 4); // 1 channel * 2*2 taps
        assert_eq!(cols.cols(), 4); // 2*2 output pixels
    }

    #[test]
    fn mac_count() {
        let conv = tiny_conv();
        // 1 out-ch * 2*2 out pixels * 1 in-ch * 2*2 taps = 16.
        assert_eq!(conv.mac_count(), 16);
    }
}
