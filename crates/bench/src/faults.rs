//! Deterministic fault-injection campaigns over the benchmark suite.
//!
//! A campaign sweeps seeded [`FaultPlan`]s across every `(network,
//! OptLevel)` cell: each trial corrupts one architectural site mid-run
//! (or forces an early watchdog), classifies the outcome against the
//! cell's golden run, and — for detected failures — verifies that the
//! engine recovers in-process, recording which rung of the recovery
//! ladder did it.
//!
//! Classification, per trial:
//!
//! | class | meaning |
//! |---|---|
//! | `masked` | run completed, outputs bit-identical to golden |
//! | `sdc` | run completed, outputs differ (silent data corruption) |
//! | `crash` | simulation error other than the watchdog |
//! | `hang` | watchdog expired |
//!
//! Everything is derived from the campaign seed and cell indices — not
//! from thread scheduling or host time — so the emitted JSON is
//! byte-identical across repeated runs, which is asserted by
//! `crates/bench/tests/fault_determinism.rs` and by the CI `--check`
//! against the committed baseline.

pub use crate::campaign::CampaignConfig;

use crate::campaign::{sweep, trial_rng, uniform};
use crate::json::{array, escape, Obj};
use rnnasip_core::{CoreError, Fault, FaultPlan, FaultSite, KernelBackend, OptLevel, SimError};
use rnnasip_isa::Reg;
use rnnasip_rrm::BenchmarkNet;

/// First TCDM data address (mirrors the core crate's layout constant;
/// memory-fault addresses are drawn at or above it so flips land in
/// staged weights and activations rather than the empty code hole).
const DATA_BASE: u32 = 0x10000;

/// Outcome class of one fault trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// Completed with golden outputs.
    Masked,
    /// Completed with wrong outputs.
    Sdc,
    /// Detected failure: fetch fault, bad access, bad loop.
    Crash,
    /// Detected failure: watchdog expiry.
    Hang,
}

impl Classification {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Classification::Masked => "masked",
            Classification::Sdc => "sdc",
            Classification::Crash => "crash",
            Classification::Hang => "hang",
        }
    }
}

/// One classified trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trial {
    /// Trial index within the cell.
    pub trial: u32,
    /// Injection-site kind label (`mem`, `mem_silent`, `reg`, `instr`,
    /// `hang`).
    pub site: &'static str,
    /// Instruction-retirement trigger of the injected fault (0 for
    /// forced-watchdog trials).
    pub at_instret: u64,
    /// The outcome class.
    pub class: Classification,
    /// Rendered simulation error for detected failures.
    pub error: Option<String>,
    /// Which recovery rung restored golden behaviour afterwards:
    /// `none` (nothing to recover), `rewind`, or `rebuild`.
    pub recovery: &'static str,
}

/// One `(network, level)` cell of the sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Network identifier (`BenchmarkNet::id`).
    pub net: &'static str,
    /// Level tag (`"a"`–`"e"`).
    pub level: &'static str,
    /// Golden-run cycle count (fault-free reference).
    pub golden_cycles: u64,
    /// Golden-run retired-instruction count.
    pub golden_instrs: u64,
    /// The classified trials, in trial order.
    pub trials: Vec<Trial>,
}

impl Cell {
    /// Trials in `class`.
    pub fn count(&self, class: Classification) -> u64 {
        self.trials.iter().filter(|t| t.class == class).count() as u64
    }
}

/// Runs the whole campaign: every suite network × every [`OptLevel`],
/// `cfg.trials` seeded fault trials each, cells simulated in parallel
/// and merged in deterministic suite order.
///
/// # Panics
///
/// If a compiled suite network fails its golden run, or if a detected
/// failure cannot be recovered by the rewind → rebuild ladder — both
/// are invariants of the fault model, not data-dependent outcomes.
pub fn campaign(cfg: &CampaignConfig) -> Vec<Cell> {
    sweep(|net, net_idx, level| run_cell(net, net_idx, level, cfg))
}

/// Runs a single `(network, level)` cell of the sweep — the unit the
/// determinism tests exercise without paying for the full campaign.
pub fn cell(cfg: &CampaignConfig, net_idx: usize, level: OptLevel) -> Cell {
    run_cell(&rnnasip_rrm::suite()[net_idx], net_idx, level, cfg)
}

/// Span of staged data past `DATA_BASE` (the bump allocator packs from
/// the bottom, so the last non-zero byte bounds the interesting region).
fn data_span(image: &[u8]) -> u64 {
    let top = image
        .iter()
        .rposition(|&b| b != 0)
        .unwrap_or(DATA_BASE as usize);
    (top.saturating_sub(DATA_BASE as usize) as u64).max(1024)
}

fn run_cell(net: &BenchmarkNet, net_idx: usize, level: OptLevel, cfg: &CampaignConfig) -> Cell {
    let compiled = KernelBackend::new(level)
        .compile_network(&net.network)
        .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
    let input = net.input();
    let mut engine = compiled.engine();
    let golden = engine
        .run_budgeted(&input, compiled.max_cycles())
        .unwrap_or_else(|e| panic!("{} at {level:?} golden run: {e}", net.id));
    let golden_cycles = golden.report.cycles();
    let golden_instrs = golden.report.stats().instrs();
    let span = data_span(compiled.image().populated());
    let prog_items: Vec<u32> = compiled.program().iter().map(|item| item.addr).collect();
    let budget = golden_cycles * 4;

    let trials = (0..cfg.trials)
        .map(|trial| {
            let mut rng = trial_rng(cfg, net_idx, level, trial);
            let at_instret = uniform(&mut rng, golden_instrs);
            let (site, plan) = match uniform(&mut rng, 10) {
                0..=3 => (
                    "mem",
                    FaultPlan::new().with_fault(Fault {
                        at_instret,
                        site: FaultSite::MemBit {
                            addr: DATA_BASE + uniform(&mut rng, span) as u32,
                            bit: uniform(&mut rng, 8) as u32,
                            silent: false,
                        },
                    }),
                ),
                4 => (
                    "mem_silent",
                    FaultPlan::new().with_fault(Fault {
                        at_instret,
                        site: FaultSite::MemBit {
                            addr: DATA_BASE + uniform(&mut rng, span) as u32,
                            bit: uniform(&mut rng, 8) as u32,
                            silent: true,
                        },
                    }),
                ),
                5 | 6 => (
                    "reg",
                    FaultPlan::new().with_fault(Fault {
                        at_instret,
                        site: FaultSite::RegBit {
                            reg: Reg::from_bits(rng.next_u64() as u32),
                            bit: uniform(&mut rng, 32) as u32,
                        },
                    }),
                ),
                7 | 8 => (
                    "instr",
                    FaultPlan::new().with_fault(Fault {
                        at_instret,
                        site: FaultSite::InstrBit {
                            pc: prog_items[uniform(&mut rng, prog_items.len() as u64) as usize],
                            bit: uniform(&mut rng, 32) as u32,
                        },
                    }),
                ),
                _ => (
                    "hang",
                    FaultPlan::new().with_watchdog((golden_cycles / 2).max(1)),
                ),
            };
            let at_instret = if site == "hang" { 0 } else { at_instret };

            engine.inject_faults(&plan);
            let result = engine.run_budgeted(&input, budget);
            let (class, error) = match &result {
                Ok(run) if run.outputs == golden.outputs => (Classification::Masked, None),
                Ok(_) => (Classification::Sdc, None),
                Err(e @ CoreError::Sim(SimError::Watchdog { .. })) => {
                    (Classification::Hang, Some(e.to_string()))
                }
                Err(e) => (Classification::Crash, Some(e.to_string())),
            };

            // Detected failures must recover in-process: the eager
            // rewind already ran, so a plain retry is rung one; a full
            // rebuild is rung two and final.
            let recovery = if result.is_err() {
                let retried = engine.run_budgeted(&input, budget);
                let rewound = matches!(
                    &retried,
                    Ok(run) if run.outputs == golden.outputs
                        && run.report.cycles() == golden_cycles
                );
                if rewound {
                    "rewind"
                } else {
                    engine.heal_rebuild();
                    let rebuilt = engine.run_budgeted(&input, budget).unwrap_or_else(|e| {
                        panic!("{} at {level:?} trial {trial}: unrecovered: {e}", net.id)
                    });
                    assert_eq!(
                        rebuilt.outputs, golden.outputs,
                        "{} at {level:?} trial {trial}: rebuild did not restore golden outputs",
                        net.id
                    );
                    "rebuild"
                }
            } else {
                "none"
            };

            // Hygiene between trials: a masked/SDC trial may still have
            // planted corruption the dirty-block rewind cannot see (a
            // silent flip in untouched memory); rebuild restores the
            // cell invariant that every trial starts from a pristine
            // engine.
            engine.heal_rebuild();

            Trial {
                trial,
                site,
                at_instret,
                class,
                error,
                recovery,
            }
        })
        .collect();

    Cell {
        net: net.id,
        level: level.tag(),
        golden_cycles,
        golden_instrs,
        trials,
    }
}

/// Serializes a campaign into the `BENCH_faults.json` document.
pub fn to_json(cfg: &CampaignConfig, mode: &str, cells: &[Cell]) -> String {
    let cell_objs = array(cells.iter().map(|cell| {
        let trials = array(cell.trials.iter().map(|t| {
            let error = match &t.error {
                Some(e) => format!("\"{}\"", escape(e)),
                None => "null".to_string(),
            };
            Obj::new()
                .num("trial", u64::from(t.trial))
                .str("site", t.site)
                .num("at_instret", t.at_instret)
                .str("class", t.class.label())
                .raw("error", error)
                .str("recovery", t.recovery)
                .build()
        }));
        Obj::new()
            .str("net", cell.net)
            .str("level", cell.level)
            .num("golden_cycles", cell.golden_cycles)
            .num("golden_instrs", cell.golden_instrs)
            .num("masked", cell.count(Classification::Masked))
            .num("sdc", cell.count(Classification::Sdc))
            .num("crash", cell.count(Classification::Crash))
            .num("hang", cell.count(Classification::Hang))
            .raw("trials", trials)
            .build()
    }));
    let all = |class| -> u64 { cells.iter().map(|c| c.count(class)).sum() };
    let recovered: u64 = cells
        .iter()
        .flat_map(|c| &c.trials)
        .filter(|t| t.recovery != "none")
        .count() as u64;
    let totals = Obj::new()
        .num("masked", all(Classification::Masked))
        .num("sdc", all(Classification::Sdc))
        .num("crash", all(Classification::Crash))
        .num("hang", all(Classification::Hang))
        .num("recovered", recovered)
        .build();
    Obj::new()
        .str("report", "fault_campaign")
        .num("seed", cfg.seed)
        .str("mode", mode)
        .num("trials_per_cell", u64::from(cfg.trials))
        .raw("cells", cell_objs)
        .raw("totals", totals)
        .build()
}

/// Aggregates `(masked, sdc, crash, hang, recovered)` per level tag, in
/// Table I order — the resilience table the campaign binary prints and
/// the README excerpts.
pub fn level_summary(cells: &[Cell]) -> Vec<(&'static str, [u64; 5])> {
    OptLevel::ALL
        .into_iter()
        .map(|level| {
            let tag = level.tag();
            let mut row = [0u64; 5];
            for cell in cells.iter().filter(|c| c.level == tag) {
                row[0] += cell.count(Classification::Masked);
                row[1] += cell.count(Classification::Sdc);
                row[2] += cell.count(Classification::Crash);
                row[3] += cell.count(Classification::Hang);
                row[4] += cell.trials.iter().filter(|t| t.recovery != "none").count() as u64;
            }
            (tag, row)
        })
        .collect()
}
