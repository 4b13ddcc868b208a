//! The seeded sweep the fault and SDC campaigns share: their
//! configuration, the per-trial generator, and the parallel run over
//! every `(network, OptLevel)` cell.

use crate::harness::Args;
use crate::par;
use rnnasip_core::OptLevel;
use rnnasip_rng::StdRng;
use rnnasip_rrm::BenchmarkNet;

/// Campaign parameters. Every output byte is a pure function of this
/// struct.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Master seed; trial draws derive from `(seed, net, level, trial)`.
    pub seed: u64,
    /// Trials per `(network, level)` cell.
    pub trials: u32,
}

impl CampaignConfig {
    /// The CI smoke configuration: few trials, every cell covered.
    pub fn smoke(seed: u64) -> Self {
        Self { seed, trials: 3 }
    }

    /// The full sweep.
    pub fn full(seed: u64) -> Self {
        Self { seed, trials: 12 }
    }

    /// The configuration the flags select, with its mode label for the
    /// report: `--smoke` picks [`smoke`](Self::smoke) over
    /// [`full`](Self::full), `--seed` defaults to 7, and `--trials`
    /// overrides the trial count.
    pub fn from_args(args: &Args) -> (Self, &'static str) {
        let seed = args.seed.unwrap_or(7);
        let (mut cfg, mode) = if args.smoke {
            (Self::smoke(seed), "smoke")
        } else {
            (Self::full(seed), "full")
        };
        if let Some(trials) = args.trials {
            cfg.trials = trials;
        }
        (cfg, mode)
    }
}

/// Runs `run_cell(net, net_idx, level)` on every suite network × every
/// [`OptLevel`], cells in parallel, results in suite order.
pub(crate) fn sweep<C: Send>(
    run_cell: impl Fn(&BenchmarkNet, usize, OptLevel) -> C + Sync,
) -> Vec<C> {
    let nets = rnnasip_rrm::suite();
    let cells: Vec<(usize, OptLevel)> = (0..nets.len())
        .flat_map(|n| OptLevel::ALL.into_iter().map(move |l| (n, l)))
        .collect();
    par::par_map(&cells, |&(net_idx, level)| {
        run_cell(&nets[net_idx], net_idx, level)
    })
}

/// The generator of one trial. SplitMix64 decorrelates the packed
/// indices, so neighbouring cells and trials share no structure.
pub(crate) fn trial_rng(
    cfg: &CampaignConfig,
    net_idx: usize,
    level: OptLevel,
    trial: u32,
) -> StdRng {
    let level_idx = OptLevel::ALL.iter().position(|&l| l == level).unwrap() as u64;
    StdRng::seed_from_u64(
        cfg.seed ^ ((net_idx as u64) << 32) ^ (level_idx << 40) ^ ((u64::from(trial) + 1) << 44),
    )
}

/// A draw in `0..n` (`0` when `n` is 0).
pub(crate) fn uniform(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n.max(1)
}
