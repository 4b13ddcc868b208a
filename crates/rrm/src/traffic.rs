//! A deterministic virtual-clock traffic generator: a simulated city of
//! UEs emitting inference requests against the RRM environments.
//!
//! The paper's deployment context is a base-station baseband chip
//! scoring many users against hard decision deadlines. This module
//! models the *load* side of that story: each traffic class pairs one
//! RRM environment family with its benchmark policy network
//! (spectrum access → `naparstek2019`, power control → `eisen2019`,
//! LTE-U coexistence → `challita2017`) and a population of simulated
//! UEs whose aggregate request process is a **non-homogeneous Poisson
//! process**: a diurnal rate curve (piecewise-linear over a configurable
//! day length) modulated by **MMPP on/off burst episodes** (a two-state
//! Markov-modulated Poisson process with exponential sojourns). Arrivals
//! are generated by thinning against the class's peak rate and merged
//! across classes in virtual-time order.
//!
//! # Determinism
//!
//! Every quantity is derived from the seeded [`rnnasip_rng`] stream and
//! pure IEEE-754 arithmetic: the exponential sampler uses a local
//! bit-decomposition `ln` (`det_ln`) instead of the platform `libm`
//! (whose last-bit results vary across hosts), and the diurnal curve is
//! table interpolation, not trigonometry. A given [`CityConfig`]
//! therefore yields the byte-identical arrival stream — times, UE ids,
//! deadlines, and input windows — on every host, which is what lets the
//! `BENCH_traffic.json` virtual-time section be compared as an exact
//! string against a committed baseline.
//!
//! Generation is **streaming**: memory is O(classes), independent of
//! the UE population or the request count, so a run can model millions
//! of UEs. UE identity only selects the per-request input window seed.

use crate::weights::seeded_sequence;
use rnnasip_core::serve::Arrival;
use rnnasip_core::OptLevel;
use rnnasip_nn::Network;
use rnnasip_rng::StdRng;
use std::sync::Arc;

/// Natural log by exponent/mantissa decomposition plus an `atanh`
/// series — pure f64 arithmetic, bit-identical on every host (unlike
/// `f64::ln`, which routes to the platform libm).
fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    // ln(m) = 2·atanh(t), t = (m−1)/(m+1) ∈ [0, 1/3] for m ∈ [1, 2):
    // the series term shrinks ≥ 9× per step, so 30 terms is far past
    // f64 precision.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = 0.0;
    let mut k = 1.0;
    for _ in 0..30 {
        sum += term / k;
        term *= t2;
        k += 2.0;
    }
    2.0 * sum + e as f64 * std::f64::consts::LN_2
}

/// One exponential inter-event sample at `rate` events/s.
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    // 1 − u ∈ (0, 1]: ln stays finite.
    -det_ln(1.0 - rng.gen::<f64>()) / rate
}

/// Normalized diurnal demand curve: 12 knots over one day period,
/// linearly interpolated, max 1.0 — night trough, morning ramp, evening
/// peak (the classic mobile-traffic shape).
const DIURNAL: [f64; 12] = [
    0.20, 0.12, 0.10, 0.18, 0.45, 0.70, 0.80, 0.85, 0.90, 1.00, 0.75, 0.40,
];

/// Diurnal multiplier at `t` seconds into the (wrapping) day.
fn diurnal(t: f64, day_s: f64) -> f64 {
    let pos = (t / day_s).rem_euclid(1.0) * DIURNAL.len() as f64;
    let i = (pos as usize) % DIURNAL.len();
    let frac = pos - pos.floor();
    let a = DIURNAL[i];
    let b = DIURNAL[(i + 1) % DIURNAL.len()];
    a + (b - a) * frac
}

/// One traffic class: an RRM environment family, its policy network,
/// and the arrival-process parameters of its UE population.
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Display name (environment family).
    pub name: &'static str,
    /// The policy network every request of this class scores.
    pub net: Arc<Network>,
    /// Optimization level requests are served at.
    pub level: OptLevel,
    /// Simulated UE population of this class.
    pub ues: u64,
    /// Per-UE request rate at diurnal peak, Hz (aggregate peak rate is
    /// `ues × rate_per_ue_hz`, before the burst multiplier).
    pub rate_per_ue_hz: f64,
    /// Decision period in virtual cycles: each request's deadline is
    /// its arrival plus this.
    pub period_cycles: u64,
    /// Rate multiplier while an MMPP burst episode is on (≥ 1).
    pub burst_mult: f64,
    /// Mean burst episode length, seconds.
    pub mean_on_s: f64,
    /// Mean gap between burst episodes, seconds.
    pub mean_off_s: f64,
}

impl ClassSpec {
    /// Peak aggregate rate the thinning sampler bounds against.
    fn peak_rate(&self) -> f64 {
        self.ues as f64 * self.rate_per_ue_hz * self.burst_mult
    }
}

/// A full city configuration: seeded classes over a virtual clock.
#[derive(Clone, Debug)]
pub struct CityConfig {
    /// Master seed; each class derives an independent stream from it.
    pub seed: u64,
    /// Virtual cycles per second (the modeled core clock).
    pub clock_hz: u64,
    /// Generate arrivals in `[0, horizon_s)` virtual seconds.
    pub horizon_s: f64,
    /// Length of one diurnal day, seconds (compressed so a short run
    /// still sweeps trough and peak).
    pub day_s: f64,
    /// The traffic classes; [`Arrival::class`] is the index here.
    pub classes: Vec<ClassSpec>,
}

impl CityConfig {
    /// The canonical three-class benchmark city: ~2.6 million simulated
    /// UEs offering on the order of 110k requests over 3 virtual
    /// seconds (one compressed diurnal day) at a 200 MHz virtual
    /// clock — spectrum sensing every 1 ms slot, power control every
    /// 2 ms, LTE-U coexistence every 10 ms frame.
    pub fn bench_city(seed: u64) -> Self {
        let suite = crate::suite();
        let pick = |id: &str| {
            Arc::new(
                suite
                    .iter()
                    .find(|n| n.id == id)
                    .unwrap_or_else(|| panic!("{id} in suite"))
                    .network
                    .clone(),
            )
        };
        let clock_hz = 200_000_000;
        Self {
            seed,
            clock_hz,
            horizon_s: 3.0,
            day_s: 3.0,
            classes: vec![
                ClassSpec {
                    name: "spectrum",
                    net: pick("naparstek2019"),
                    level: OptLevel::IfmTile,
                    ues: 500_000,
                    rate_per_ue_hz: 0.032, // 16k req/s aggregate at peak
                    period_cycles: clock_hz / 1_000, // 1 ms slot
                    burst_mult: 2.5,
                    mean_on_s: 0.12,
                    mean_off_s: 0.42,
                },
                ClassSpec {
                    name: "power",
                    net: pick("eisen2019"),
                    level: OptLevel::IfmTile,
                    ues: 2_000_000,
                    rate_per_ue_hz: 0.021, // 42k req/s aggregate at peak
                    period_cycles: clock_hz / 500, // 2 ms interval
                    burst_mult: 2.0,
                    mean_on_s: 0.08,
                    mean_off_s: 0.35,
                },
                ClassSpec {
                    name: "coex",
                    net: pick("challita2017"),
                    level: OptLevel::IfmTile,
                    ues: 120_000,
                    rate_per_ue_hz: 0.025,         // 3k req/s aggregate at peak
                    period_cycles: clock_hz / 100, // 10 ms frame
                    burst_mult: 2.0,
                    mean_on_s: 0.20,
                    mean_off_s: 0.60,
                },
            ],
        }
    }

    /// A small three-class city (a few hundred requests) sized for
    /// debug-mode tests and the quickstart example.
    pub fn demo_city(seed: u64) -> Self {
        let mut city = Self::bench_city(seed);
        city.horizon_s = 0.25;
        city.day_s = 0.25;
        for (class, scale) in city.classes.iter_mut().zip([0.04f64, 0.04, 0.08]) {
            // Keep the UE population (ids stay city-scale); thin the
            // per-UE rate so the stream stays test-sized.
            class.rate_per_ue_hz *= scale;
        }
        city
    }

    /// Nominal peak request rate across all classes, req/s.
    pub fn peak_rate(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.ues as f64 * c.rate_per_ue_hz)
            .sum()
    }
}

/// Per-class generator state: thinned NHPP + MMPP burst chain.
struct ClassStream {
    spec: ClassSpec,
    class: usize,
    rng: StdRng,
    /// Current virtual time, seconds.
    t: f64,
    burst_on: bool,
    /// Virtual time the burst chain next toggles, seconds.
    next_toggle: f64,
    /// Requests emitted so far (part of the input-window seed).
    emitted: u64,
    /// The peeked next arrival, if any.
    next: Option<Arrival>,
}

impl ClassStream {
    fn new(
        spec: ClassSpec,
        class: usize,
        city_seed: u64,
        horizon_s: f64,
        day_s: f64,
        clock_hz: u64,
    ) -> Self {
        // Derive an independent per-class stream with a SplitMix64 hop
        // so classes never share rng state.
        let mut seeder =
            StdRng::seed_from_u64(city_seed ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(seeder.next_u64());
        let mean_off = spec.mean_off_s;
        let next_toggle = exp_sample(&mut rng, 1.0 / mean_off);
        let mut stream = Self {
            spec,
            class,
            rng,
            t: 0.0,
            burst_on: false,
            next_toggle,
            emitted: 0,
            next: None,
        };
        stream.next = stream.generate(horizon_s, day_s, clock_hz);
        stream
    }

    /// Thins candidates at the class's peak rate until one is accepted
    /// (or the horizon ends): candidate times advance by exponential
    /// gaps at `peak_rate`, the burst chain toggles lazily as time
    /// passes, and each candidate survives with probability
    /// `rate(t) / peak_rate`.
    fn generate(&mut self, horizon_s: f64, day_s: f64, clock_hz: u64) -> Option<Arrival> {
        let peak = self.spec.peak_rate();
        loop {
            self.t += exp_sample(&mut self.rng, peak);
            if self.t >= horizon_s {
                return None;
            }
            while self.t >= self.next_toggle {
                self.burst_on = !self.burst_on;
                let mean = if self.burst_on {
                    self.spec.mean_on_s
                } else {
                    self.spec.mean_off_s
                };
                self.next_toggle += exp_sample(&mut self.rng, 1.0 / mean);
            }
            let burst = if self.burst_on {
                self.spec.burst_mult
            } else {
                1.0
            };
            let rate =
                self.spec.ues as f64 * self.spec.rate_per_ue_hz * diurnal(self.t, day_s) * burst;
            if self.rng.gen::<f64>() * peak < rate {
                let arrival_cycles = (self.t * clock_hz as f64) as u64;
                let ue = self.rng.next_u64() % self.spec.ues.max(1);
                let seed = self
                    .spec
                    .net
                    .name()
                    .bytes()
                    .fold(0x5EED_0000_0000_0000u64 ^ ue, |h, b| {
                        h.wrapping_mul(31).wrapping_add(u64::from(b))
                    })
                    ^ self.emitted.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let sequence = seeded_sequence(self.spec.net.n_in(), self.spec.net.seq_len(), seed);
                self.emitted += 1;
                return Some(Arrival {
                    net: self.spec.net.clone(),
                    level: self.spec.level,
                    sequence,
                    arrival: arrival_cycles,
                    deadline: arrival_cycles + self.spec.period_cycles,
                    class: self.class,
                    ue,
                });
            }
        }
    }
}

/// The merged, streaming arrival source for one city: an iterator of
/// [`Arrival`]s in nondecreasing virtual-time order — exactly what
/// [`Front::serve`](rnnasip_core::serve::Front::serve) consumes.
///
/// # Example
///
/// ```
/// use rnnasip_rrm::traffic::{CityConfig, CityTraffic};
///
/// let city = CityConfig::demo_city(7);
/// let arrivals: Vec<_> = CityTraffic::new(&city).collect();
/// assert!(arrivals.len() > 100);
/// // Nondecreasing virtual-time order, deadlines from class periods.
/// for pair in arrivals.windows(2) {
///     assert!(pair[0].arrival <= pair[1].arrival);
/// }
/// // Byte-deterministic: a second instantiation is identical.
/// let again: Vec<_> = CityTraffic::new(&city).collect();
/// assert_eq!(arrivals.len(), again.len());
/// assert!(arrivals
///     .iter()
///     .zip(&again)
///     .all(|(a, b)| a.arrival == b.arrival && a.ue == b.ue && a.sequence == b.sequence));
/// ```
pub struct CityTraffic {
    streams: Vec<ClassStream>,
    horizon_s: f64,
    day_s: f64,
    clock_hz: u64,
}

impl CityTraffic {
    /// A fresh arrival stream for `city` (restart by constructing
    /// again — same config, same stream).
    pub fn new(city: &CityConfig) -> Self {
        let streams = city
            .classes
            .iter()
            .enumerate()
            .map(|(class, spec)| {
                ClassStream::new(
                    spec.clone(),
                    class,
                    city.seed,
                    city.horizon_s,
                    city.day_s,
                    city.clock_hz,
                )
            })
            .collect();
        Self {
            streams,
            horizon_s: city.horizon_s,
            day_s: city.day_s,
            clock_hz: city.clock_hz,
        }
    }
}

impl Iterator for CityTraffic {
    type Item = Arrival;

    /// The earliest pending arrival across classes (ties broken by
    /// class index — deterministic).
    fn next(&mut self) -> Option<Arrival> {
        let idx = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.next.as_ref().map(|a| (a.arrival, i)))
            .min()?
            .1;
        let (horizon_s, day_s, clock_hz) = (self.horizon_s, self.day_s, self.clock_hz);
        let stream = &mut self.streams[idx];
        let refill = stream.generate(horizon_s, day_s, clock_hz);
        std::mem::replace(&mut stream.next, refill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_matches_libm_closely() {
        // Not bit-equal to libm (that is the point), but must agree to
        // ~1e-14 relative so the sampled process is a faithful
        // exponential.
        for &x in &[1e-9, 0.1, 0.5, 0.999, 1.0, 1.5, 2.0, 123.456, 1e12] {
            let got = det_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= 1e-13 * want.abs().max(1.0),
                "ln({x}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn diurnal_is_bounded_and_periodic() {
        for i in 0..200 {
            let t = i as f64 * 0.37;
            let v = diurnal(t, 24.0);
            assert!((0.05..=1.0).contains(&v), "diurnal({t}) = {v}");
            let w = diurnal(t + 24.0, 24.0);
            assert!((v - w).abs() < 1e-9, "period: {v} vs {w}");
        }
    }

    #[test]
    fn demo_city_is_deterministic_and_ordered() {
        let city = CityConfig::demo_city(42);
        let a: Vec<Arrival> = CityTraffic::new(&city).collect();
        let b: Vec<Arrival> = CityTraffic::new(&city).collect();
        assert!(a.len() > 50, "demo city too small: {}", a.len());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.ue, y.ue);
            assert_eq!(x.class, y.class);
            assert_eq!(x.sequence, y.sequence);
        }
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // Deadlines derive from the class decision period.
        for x in &a {
            assert_eq!(x.deadline - x.arrival, city.classes[x.class].period_cycles);
        }
        // All three classes contribute.
        for class in 0..city.classes.len() {
            assert!(
                a.iter().filter(|x| x.class == class).count() > 0,
                "class {class} silent"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a: Vec<Arrival> = CityTraffic::new(&CityConfig::demo_city(1)).collect();
        let b: Vec<Arrival> = CityTraffic::new(&CityConfig::demo_city(2)).collect();
        assert!(
            a.len() != b.len() || a.iter().zip(&b).any(|(x, y)| x.arrival != y.arrival),
            "seeds 1 and 2 generated identical streams"
        );
    }

    #[test]
    fn bench_city_offers_city_scale_traffic() {
        // Configuration-level check (no arrivals materialized): the
        // benchmark city must model a UE population in the millions
        // with an aggregate offered rate in the tens of thousands of
        // requests per second.
        let city = CityConfig::bench_city(7);
        assert!(city.peak_rate() > 40_000.0);
        assert!(city.classes.iter().map(|c| c.ues).sum::<u64>() > 2_000_000);
    }
}
