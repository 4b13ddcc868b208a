//! Multichannel opportunistic spectrum-access environment.

use rnnasip_fixed::Q3p12;
use rnnasip_rng::StdRng;

/// `k` independent Gilbert–Elliott channels (two-state Markov: *free* /
/// *busy*) observed through noisy energy detection — the classic
/// dynamic-spectrum-access model the RL papers (\[14\], \[17\]) evaluate on.
///
/// Per slot: [`observe`](Self::observe) yields the noisy per-channel
/// availability features (what the LSTM sees),
/// [`attempt`](Self::attempt) transmits on one channel and reports
/// success, [`step`](Self::step) advances the Markov chains.
///
/// # Example
///
/// ```
/// use rnnasip_rrm::env::SpectrumAccessEnv;
///
/// let mut env = SpectrumAccessEnv::new(8, 42);
/// let obs = env.observe();
/// assert_eq!(obs.len(), 8);
/// let _success = env.attempt(0);
/// env.step();
/// ```
#[derive(Clone, Debug)]
pub struct SpectrumAccessEnv {
    /// Per-channel state: `true` = free.
    free: Vec<bool>,
    /// Per-channel P(stay free) and P(become free).
    p_stay_free: Vec<f64>,
    p_become_free: Vec<f64>,
    rng: StdRng,
}

impl SpectrumAccessEnv {
    /// Creates `k` channels with heterogeneous Markov dynamics.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one channel");
        let mut rng = StdRng::seed_from_u64(seed);
        let p_stay_free: Vec<f64> = (0..k).map(|_| 0.6 + 0.35 * rng.gen::<f64>()).collect();
        let p_become_free: Vec<f64> = (0..k).map(|_| 0.1 + 0.4 * rng.gen::<f64>()).collect();
        let free: Vec<bool> = (0..k).map(|_| rng.gen::<f64>() < 0.5).collect();
        Self {
            free,
            p_stay_free,
            p_become_free,
            rng,
        }
    }

    /// Number of channels.
    pub fn k(&self) -> usize {
        self.free.len()
    }

    /// Advances every channel's Markov chain by one slot.
    pub fn step(&mut self) {
        for i in 0..self.free.len() {
            let p = if self.free[i] {
                self.p_stay_free[i]
            } else {
                self.p_become_free[i]
            };
            self.free[i] = self.rng.gen::<f64>() < p;
        }
    }

    /// Noisy energy-detection features: ≈ +1 for free channels, ≈ −1
    /// for busy ones, with observation noise.
    pub fn observe(&mut self) -> Vec<Q3p12> {
        let noise: Vec<f64> = (0..self.free.len())
            .map(|_| (self.rng.gen::<f64>() - 0.5) * 0.4)
            .collect();
        self.free
            .iter()
            .zip(noise)
            .map(|(&f, n)| Q3p12::from_f64(if f { 1.0 + n } else { -1.0 + n }))
            .collect()
    }

    /// Attempts a transmission on `channel`; succeeds iff it is free.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= k`.
    pub fn attempt(&self, channel: usize) -> bool {
        self.free[channel]
    }

    /// Fraction of currently free channels (an oracle statistic used by
    /// examples to contextualize network performance).
    pub fn free_fraction(&self) -> f64 {
        self.free.iter().filter(|&&f| f).count() as f64 / self.free.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SpectrumAccessEnv::new(6, 5);
        let mut b = SpectrumAccessEnv::new(6, 5);
        for _ in 0..10 {
            assert_eq!(a.observe(), b.observe());
            a.step();
            b.step();
        }
    }

    #[test]
    fn observations_separate_free_from_busy() {
        let mut env = SpectrumAccessEnv::new(16, 2);
        let obs = env.observe();
        for (i, o) in obs.iter().enumerate() {
            if env.attempt(i) {
                assert!(o.to_f64() > 0.0, "channel {i}");
            } else {
                assert!(o.to_f64() < 0.0, "channel {i}");
            }
        }
    }

    #[test]
    fn chains_mix_over_time() {
        let mut env = SpectrumAccessEnv::new(8, 3);
        let initial = env.free.clone();
        let mut changed = false;
        for _ in 0..50 {
            env.step();
            if env.free != initial {
                changed = true;
                break;
            }
        }
        assert!(changed, "channel states never changed");
    }
}
