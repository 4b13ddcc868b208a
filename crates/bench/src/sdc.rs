//! Deterministic SDC-detection campaign: ABFT guard coverage and cost.
//!
//! Where [`faults`](crate::faults) measures how the *recovery ladder*
//! handles architecturally visible failures, this campaign measures the
//! in-band **detection** layer: seeded single-bit flips land in guarded
//! kernel words (weight matrices and bias seeds of every
//! `KernelRegion`), and each trial asks whether the per-region ABFT
//! checksum caught the corruption. Every trial runs twice — guards on
//! and guards off — and the two arms must agree bit-for-bit on the
//! fault's architectural effect, proving the guards observe execution
//! without perturbing it.
//!
//! Verdicts, per trial:
//!
//! | verdict | outputs vs golden | guard |
//! |---|---|---|
//! | `detected` | differ | tripped |
//! | `missed` | differ | clean |
//! | `flagged_benign` | equal | tripped (real corruption, masked output) |
//! | `masked` | equal | clean |
//!
//! Headline numbers: **coverage** (`detected / (detected + missed)`,
//! required ≥ 90%), **false positives** (guard trips on the *clean*
//! suite, required 0 — checked once per cell), and **overhead** (the
//! analytic guard-cycle surcharge relative to the unguarded cycle
//! count, which the guards never touch).
//!
//! Everything derives from the campaign seed and cell indices, so the
//! emitted JSON is byte-identical across reruns and host core counts
//! (`crates/bench/tests/sdc_determinism.rs`, and CI's `--check` against
//! the committed baseline).

pub use crate::campaign::CampaignConfig;

use crate::campaign::{sweep, trial_rng, uniform};
use crate::json::{array, Obj};
use rnnasip_core::{
    CompiledNetwork, Fault, FaultPlan, FaultSite, KernelBackend, NetworkRun, OptLevel,
};
use rnnasip_rrm::BenchmarkNet;

/// Outcome of one guarded fault trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Outputs corrupted and the guard tripped.
    Detected,
    /// Outputs corrupted but no guard tripped — a detection escape.
    Missed,
    /// Outputs bit-identical to golden, yet the guard tripped: the flip
    /// genuinely corrupted guarded memory (so the trip is *correct*,
    /// not a false positive), but clamping/activation masked it out of
    /// the visible outputs.
    FlaggedBenign,
    /// Outputs bit-identical and no trip (e.g. the flip landed after
    /// its region had already consumed the word).
    Masked,
}

impl Verdict {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Detected => "detected",
            Verdict::Missed => "missed",
            Verdict::FlaggedBenign => "flagged_benign",
            Verdict::Masked => "masked",
        }
    }
}

/// One classified trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trial {
    /// Trial index within the cell.
    pub trial: u32,
    /// Which guarded region's words were targeted.
    pub region: u32,
    /// Targeted word kind: `"w"` (weight matrix) or `"bias"`.
    pub site: &'static str,
    /// The applied fault's stable one-line record
    /// ([`FaultRecord`](rnnasip_core::FaultRecord) `Display` form) from
    /// the guarded arm's fault log.
    pub record: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// One `(network, level)` cell of the sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Network identifier (`BenchmarkNet::id`).
    pub net: &'static str,
    /// Level tag (`"a"`–`"e"`).
    pub level: &'static str,
    /// Fault-free cycle count (identical guarded and unguarded).
    pub golden_cycles: u64,
    /// Guarded kernel regions in the compiled artifact.
    pub guard_regions: u64,
    /// Guard boundary checks performed on the clean guarded run.
    pub guard_entries: u64,
    /// Analytic guard surcharge of the clean run, in its own counter —
    /// never folded into `golden_cycles`.
    pub guard_cycles: u64,
    /// `guard_cycles` relative to `golden_cycles`, parts per million.
    pub overhead_ppm: u64,
    /// Guard trips on the clean run — any nonzero value is a false
    /// positive (the acceptance bar is 0).
    pub clean_trips: u64,
    /// The classified trials, in trial order.
    pub trials: Vec<Trial>,
}

impl Cell {
    /// Trials with `verdict`.
    pub fn count(&self, verdict: Verdict) -> u64 {
        self.trials.iter().filter(|t| t.verdict == verdict).count() as u64
    }
}

/// Runs the whole campaign: every suite network × every [`OptLevel`],
/// cells simulated in parallel and merged in deterministic suite order.
///
/// # Panics
///
/// If a suite network fails to compile or run clean, if a guarded and
/// unguarded arm of one trial disagree architecturally, or if a trial
/// errors outright — all invariants of the fault model (data-word flips
/// cannot crash the core), not data-dependent outcomes.
pub fn campaign(cfg: &CampaignConfig) -> Vec<Cell> {
    sweep(|net, net_idx, level| run_cell(net, net_idx, level, cfg))
}

/// Runs a single `(network, level)` cell — the unit the determinism
/// tests exercise without paying for the full campaign.
pub fn cell(cfg: &CampaignConfig, net_idx: usize, level: OptLevel) -> Cell {
    run_cell(&rnnasip_rrm::suite()[net_idx], net_idx, level, cfg)
}

/// The guarded word ranges of `compiled`: per region, the weight matrix
/// (`n_out × n_in` halfwords) and the bias seeds (`n_out` words). Flips
/// inside these are exactly the corruption class the ABFT checksums
/// cover end to end.
fn site_pool(compiled: &CompiledNetwork) -> Vec<(u32, &'static str, u32, u32)> {
    compiled
        .guards()
        .iter()
        .enumerate()
        .flat_map(|(idx, spec)| {
            let r = &spec.region;
            [
                (idx as u32, "w", r.w_base, 2 * r.n_in * r.n_out),
                (idx as u32, "bias", r.bias32, 4 * r.n_out),
            ]
        })
        .collect()
}

fn must_run(run: Result<NetworkRun, rnnasip_core::CoreError>, what: &str) -> NetworkRun {
    run.unwrap_or_else(|e| panic!("{what}: {e} (data-word flips cannot crash the core)"))
}

fn run_cell(net: &BenchmarkNet, net_idx: usize, level: OptLevel, cfg: &CampaignConfig) -> Cell {
    let compiled = KernelBackend::new(level)
        .compile_network(&net.network)
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
    let input = net.input();

    // Guard-off arm: the reference execution every trial is compared to.
    let mut plain = compiled.engine();
    let golden = must_run(plain.run(&input), "golden run");
    let golden_cycles = golden.report.cycles();

    // Guard-on arm, clean: bit-identity plus the false-positive check.
    let mut guarded = compiled.engine();
    guarded.set_guards(true);
    let clean = must_run(guarded.run(&input), "clean guarded run");
    assert_eq!(
        clean.outputs, golden.outputs,
        "{} at {level:?}: guards changed clean outputs",
        net.id
    );
    assert_eq!(
        clean.report.cycles(),
        golden_cycles,
        "{} at {level:?}: guards changed clean cycle count",
        net.id
    );
    let (guard_regions, guard_entries, guard_cycles, clean_trips) = clean
        .report
        .guard()
        .map(|g| {
            (
                g.regions.len() as u64,
                g.entries(),
                g.guard_cycles,
                g.fails() + u64::from(g.output_check_failed),
            )
        })
        .unwrap_or_default();
    let overhead_ppm = if golden_cycles == 0 {
        0
    } else {
        (u128::from(guard_cycles) * 1_000_000 / u128::from(golden_cycles)) as u64
    };

    let pool = site_pool(&compiled);
    let trials = (0..cfg.trials)
        .map(|trial| {
            let mut rng = trial_rng(cfg, net_idx, level, trial);
            let (region, site, base, len) = pool[uniform(&mut rng, pool.len() as u64) as usize];
            let plan = FaultPlan::new().with_fault(Fault {
                at_instret: uniform(&mut rng, golden.report.stats().instrs()),
                site: FaultSite::MemBit {
                    addr: base + uniform(&mut rng, u64::from(len)) as u32,
                    bit: uniform(&mut rng, 8) as u32,
                    // Silent: evades the dirty-block tracker, so only
                    // the ABFT checksum can see it in-band.
                    silent: true,
                },
            });

            guarded.inject_faults(&plan);
            let hit = must_run(guarded.run(&input), "guarded trial");
            let record = guarded
                .last_fault_log()
                .first()
                .map(ToString::to_string)
                .unwrap_or_default();
            let corrupting = hit.outputs != golden.outputs;
            let tripped = hit.report.guard_failed();
            guarded.heal_rebuild();

            // Guard-off arm of the same flip: identical architectural
            // effect, or the guards are perturbing execution.
            plain.inject_faults(&plan);
            let off = must_run(plain.run(&input), "unguarded trial");
            assert_eq!(
                off.outputs, hit.outputs,
                "{} at {level:?} trial {trial}: guards changed the fault's effect",
                net.id
            );
            plain.heal_rebuild();

            let verdict = match (corrupting, tripped) {
                (true, true) => Verdict::Detected,
                (true, false) => Verdict::Missed,
                (false, true) => Verdict::FlaggedBenign,
                (false, false) => Verdict::Masked,
            };
            Trial {
                trial,
                region,
                site,
                record,
                verdict,
            }
        })
        .collect();

    Cell {
        net: net.id,
        level: level.tag(),
        golden_cycles,
        guard_regions,
        guard_entries,
        guard_cycles,
        overhead_ppm,
        clean_trips,
        trials,
    }
}

/// Campaign-wide detection coverage in parts per million:
/// `detected / (detected + missed)` over every output-corrupting trial
/// (1,000,000 when nothing corrupted — vacuously full coverage).
pub fn coverage_ppm(cells: &[Cell]) -> u64 {
    let detected: u64 = cells.iter().map(|c| c.count(Verdict::Detected)).sum();
    let missed: u64 = cells.iter().map(|c| c.count(Verdict::Missed)).sum();
    if detected + missed == 0 {
        1_000_000
    } else {
        (u128::from(detected) * 1_000_000 / u128::from(detected + missed)) as u64
    }
}

/// Serializes a campaign into the `BENCH_sdc.json` document
/// (integer-only fields, byte-deterministic).
pub fn to_json(cfg: &CampaignConfig, mode: &str, cells: &[Cell]) -> String {
    let cell_objs = array(cells.iter().map(|cell| {
        let trials = array(cell.trials.iter().map(|t| {
            Obj::new()
                .num("trial", u64::from(t.trial))
                .num("region", u64::from(t.region))
                .str("site", t.site)
                .str("record", &t.record)
                .str("verdict", t.verdict.label())
                .build()
        }));
        Obj::new()
            .str("net", cell.net)
            .str("level", cell.level)
            .num("golden_cycles", cell.golden_cycles)
            .num("guard_regions", cell.guard_regions)
            .num("guard_entries", cell.guard_entries)
            .num("guard_cycles", cell.guard_cycles)
            .num("overhead_ppm", cell.overhead_ppm)
            .num("clean_trips", cell.clean_trips)
            .num("detected", cell.count(Verdict::Detected))
            .num("missed", cell.count(Verdict::Missed))
            .num("flagged_benign", cell.count(Verdict::FlaggedBenign))
            .num("masked", cell.count(Verdict::Masked))
            .raw("trials", trials)
            .build()
    }));
    let all = |v| -> u64 { cells.iter().map(|c| c.count(v)).sum() };
    let totals = Obj::new()
        .num("detected", all(Verdict::Detected))
        .num("missed", all(Verdict::Missed))
        .num("flagged_benign", all(Verdict::FlaggedBenign))
        .num("masked", all(Verdict::Masked))
        .num("coverage_ppm", coverage_ppm(cells))
        .num(
            "false_positives",
            cells.iter().map(|c| c.clean_trips).sum::<u64>(),
        )
        .build();
    Obj::new()
        .str("report", "sdc_campaign")
        .num("seed", cfg.seed)
        .str("mode", mode)
        .num("trials_per_cell", u64::from(cfg.trials))
        .raw("cells", cell_objs)
        .raw("totals", totals)
        .build()
}

/// Per-level rollup in Table I order:
/// `(tag, [detected, missed, flagged_benign, masked], coverage_ppm,
/// max_overhead_ppm)` — the table the campaign binary prints and the
/// README excerpts.
pub fn level_summary(cells: &[Cell]) -> Vec<(&'static str, [u64; 4], u64, u64)> {
    OptLevel::ALL
        .into_iter()
        .map(|level| {
            let tag = level.tag();
            let of_level: Vec<Cell> = cells.iter().filter(|c| c.level == tag).cloned().collect();
            let row = [
                of_level.iter().map(|c| c.count(Verdict::Detected)).sum(),
                of_level.iter().map(|c| c.count(Verdict::Missed)).sum(),
                of_level
                    .iter()
                    .map(|c| c.count(Verdict::FlaggedBenign))
                    .sum(),
                of_level.iter().map(|c| c.count(Verdict::Masked)).sum(),
            ];
            let overhead = of_level.iter().map(|c| c.overhead_ppm).max().unwrap_or(0);
            (tag, row, coverage_ppm(&of_level), overhead)
        })
        .collect()
}
