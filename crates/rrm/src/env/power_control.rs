//! Downlink power-control environment.

use rnnasip_fixed::Q3p12;
use rnnasip_rng::StdRng;

/// A deterministic interference network of `n` transmitter–receiver
/// pairs on a unit square, with log-distance path loss and slowly
/// evolving Rayleigh-like fading.
///
/// The observation is the flattened `n × n` channel-gain matrix in a
/// normalized log scale — exactly the feature map the power-control
/// networks (\[2\], \[12\], \[15\]) consume. [`sum_rate`](Self::sum_rate)
/// scores a power allocation, so examples can compare the network's
/// decision against baselines (max power, random).
///
/// # Example
///
/// ```
/// use rnnasip_rrm::env::PowerControlEnv;
///
/// let mut env = PowerControlEnv::new(10, 7);
/// let features = env.features();
/// assert_eq!(features.len(), 100);
/// let rate = env.sum_rate(&vec![1.0; 10]);
/// assert!(rate > 0.0);
/// env.step();
/// ```
#[derive(Clone, Debug)]
pub struct PowerControlEnv {
    n: usize,
    /// Direct+cross gains, linear scale: `gain[i*n+j]` = link j→rx i.
    gains: Vec<f64>,
    /// Static path-loss component (linear).
    path_loss: Vec<f64>,
    rng: StdRng,
    /// Receiver noise power (linear).
    noise: f64,
}

impl PowerControlEnv {
    /// Creates an environment with `n` pairs and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "need at least one pair");
        let mut rng = StdRng::seed_from_u64(seed);
        // Transmitters and receivers on a unit square; each rx near its tx.
        let tx: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let rx: Vec<(f64, f64)> = tx
            .iter()
            .map(|&(x, y)| {
                (
                    (x + (rng.gen::<f64>() - 0.5) * 0.1).clamp(0.0, 1.0),
                    (y + (rng.gen::<f64>() - 0.5) * 0.1).clamp(0.0, 1.0),
                )
            })
            .collect();
        let mut path_loss = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let dx = rx[i].0 - tx[j].0;
                let dy = rx[i].1 - tx[j].1;
                let d = (dx * dx + dy * dy).sqrt().max(0.01);
                // Log-distance path loss, exponent 3.
                path_loss[i * n + j] = d.powi(-3).min(1e6);
            }
        }
        let mut env = Self {
            n,
            gains: vec![0.0; n * n],
            path_loss,
            rng,
            noise: 1.0,
        };
        env.step();
        env
    }

    /// Number of pairs.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Advances the fading state (call once per scheduling interval).
    pub fn step(&mut self) {
        for (g, &pl) in self.gains.iter_mut().zip(&self.path_loss) {
            // Rayleigh-like power fading: exponential with unit mean,
            // low-pass filtered for temporal correlation.
            let fade = -(1.0 - self.rng.gen::<f64>()).ln();
            *g = if *g == 0.0 {
                pl * fade
            } else {
                0.7 * *g + 0.3 * pl * fade
            };
        }
    }

    /// The normalized log-gain feature map (`n²` Q3.12 values in
    /// roughly `[-4, 4]`).
    pub fn features(&self) -> Vec<Q3p12> {
        self.gains
            .iter()
            .map(|&g| Q3p12::from_f64((g.max(1e-9).log10()).clamp(-4.0, 4.0)))
            .collect()
    }

    /// Sum rate (bits/s/Hz) of a power allocation `p ∈ [0, 1]^n`.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != n`.
    pub fn sum_rate(&self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.n, "power vector length");
        (0..self.n)
            .map(|i| {
                let signal = self.gains[i * self.n + i] * p[i];
                let interference: f64 = (0..self.n)
                    .filter(|&j| j != i)
                    .map(|j| self.gains[i * self.n + j] * p[j])
                    .sum();
                (1.0 + signal / (self.noise + interference)).log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = PowerControlEnv::new(6, 3).features();
        let b = PowerControlEnv::new(6, 3).features();
        assert_eq!(a, b);
    }

    #[test]
    fn direct_links_beat_cross_links_on_average() {
        let env = PowerControlEnv::new(8, 1);
        let n = env.n();
        let diag: f64 = (0..n).map(|i| env.gains[i * n + i]).sum::<f64>() / n as f64;
        let off: f64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| env.gains[i * n + j])
            .sum::<f64>()
            / (n * (n - 1)) as f64;
        assert!(diag > off, "diag {diag} vs off {off}");
    }

    #[test]
    fn max_power_rate_positive_and_zero_power_rate_zero() {
        let env = PowerControlEnv::new(5, 9);
        assert!(env.sum_rate(&[1.0; 5]) > 0.0);
        assert_eq!(env.sum_rate(&[0.0; 5]), 0.0);
    }

    #[test]
    fn fading_evolves() {
        let mut env = PowerControlEnv::new(4, 11);
        let before = env.features();
        env.step();
        env.step();
        assert_ne!(before, env.features());
    }
}
