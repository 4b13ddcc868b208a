//! ABFT guard coverage: clean suite runs never trip a guard and stay
//! bit-identical to unguarded runs; seeded single-bit flips into guarded
//! TCDM weight/bias/activation words are detected whenever they corrupt
//! an output. Every sweep runs on one core and on 2- and 4-core
//! clusters, whose guards cover each core's row slices.

use rnnasip_core::{
    CompiledNetwork, Fault, FaultPlan, FaultSite, KernelBackend, OptLevel, ShortcutPtr,
};
use rnnasip_rng::StdRng;

/// The core counts every sweep covers.
const CORES: [usize; 3] = [1, 2, 4];

fn uniform(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n.max(1)
}

fn cell_seed(net: usize, level: OptLevel) -> u64 {
    0x5DC0_17A9 ^ ((net as u64) << 8) ^ ((level.tag().as_bytes()[0] as u64) << 16)
}

/// Byte ranges whose single-bit flips a guarded run *must* detect when
/// they corrupt an output: every guarded region's weight matrix (or a
/// core's row slice of it) and bias vector, plus the window the kernels
/// read the request from when some region reads it directly (FC chains;
/// LSTM xh staging and conv im2col gathers read derived buffers the
/// monitor does not ledger). On a cluster that window is the DMA
/// destination, not the L2 area the request is patched into.
fn must_detect_ranges(compiled: &CompiledNetwork) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let input = compiled.input();
    let (in_base, in_bytes) = match compiled.cluster().dma.first() {
        Some(xfer) => (xfer.dst, xfer.len),
        None => (input.base(), (2 * input.width() * input.steps()) as u32),
    };
    let mut input_covered = false;
    for spec in compiled.guards().iter() {
        let r = &spec.region;
        ranges.push((r.w_base, 2 * r.n_in * r.n_out));
        ranges.push((r.bias32, 4 * r.n_out));
        if let ShortcutPtr::Const(x) = r.x {
            if x < in_base + in_bytes && in_base < x + 2 * r.n_in {
                input_covered = true;
            }
        }
    }
    if input_covered {
        ranges.push((in_base, in_bytes));
    }
    ranges
}

#[test]
fn guarded_clean_suite_is_bit_identical_and_never_trips() {
    for bench in rnnasip_rrm::suite() {
        let input = bench.input();
        for (level, cores) in OptLevel::ALL
            .into_iter()
            .flat_map(|l| CORES.map(|c| (l, c)))
        {
            let compiled = KernelBackend::new(level)
                .with_cores(cores)
                .compile_network(&bench.network)
                .unwrap();
            let golden = compiled.engine().run(&input).unwrap();

            let mut engine = compiled.engine();
            engine.set_guards(true);
            let run = engine.run(&input).unwrap();
            let tag = format!("{} level {} on {cores} cores", bench.tag, level.tag());
            assert_eq!(run.outputs, golden.outputs, "outputs drift: {tag}");
            assert_eq!(run.report.cycles(), golden.report.cycles(), "cycles: {tag}");
            assert_eq!(
                run.report.instrs(),
                golden.report.instrs(),
                "instret: {tag}"
            );
            assert_eq!(
                run.report.stats().to_csv(),
                golden.report.stats().to_csv(),
                "per-mnemonic rows: {tag}"
            );
            assert!(golden.report.guard().is_none());

            let guard = run.report.guard().expect("guarded run carries a report");
            assert!(!guard.failed(), "clean run tripped a guard: {tag}");
            assert!(!engine.last_guard_failed());
            assert_eq!(guard.regions.len(), compiled.guards().len());
            if !compiled.guards().is_empty() {
                assert!(guard.entries() > 0, "no guarded entries: {tag}");
                assert!(guard.guard_cycles > 0, "no surcharge: {tag}");
            }

            // Reruns are deterministic, including the guard verdicts.
            let again = engine.run(&input).unwrap();
            assert_eq!(again.outputs, run.outputs);
            assert_eq!(again.report.guard(), Some(guard), "guard drift: {tag}");
        }
    }
}

#[test]
fn guard_accounting_is_tier_identical() {
    // The analytic surcharge and entry counts must not depend on which
    // execution tier ran the kernel: shortcut-enabled vs plain micro-op
    // artifacts vs the stepping reference produce byte-equal guard
    // reports.
    for net in [0usize, 3, 6] {
        let bench = rnnasip_rrm::suite().remove(net);
        let input = bench.input();
        for (level, cores) in [OptLevel::Baseline, OptLevel::IfmTile]
            .into_iter()
            .flat_map(|l| CORES.map(|c| (l, c)))
        {
            let compiled = KernelBackend::new(level)
                .with_cores(cores)
                .compile_network(&bench.network)
                .unwrap();
            let mut fast = compiled.engine();
            fast.set_guards(true);
            let a = fast.run(&input).unwrap();
            let mut plain = compiled.without_shortcuts().engine();
            plain.set_guards(true);
            let b = plain.run(&input).unwrap();
            let tag = format!("{} level {} on {cores} cores", bench.tag, level.tag());
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.report.guard(), b.report.guard(), "{tag}: tiers disagree");
            // The stepping reference is observed by the same monitor.
            let c = fast.run_reference(&input).unwrap();
            assert_eq!(c.outputs, a.outputs, "{tag}: stepping outputs");
            assert_eq!(
                c.report.cycles(),
                a.report.cycles(),
                "{tag}: stepping cycles"
            );
            assert!(c.report.guard().is_some(), "{tag}: stepping run unguarded");
            assert_eq!(
                c.report.guard(),
                a.report.guard(),
                "{tag}: stepping disagrees"
            );
        }
    }
}

#[test]
fn corrupting_flips_in_guarded_words_are_detected() {
    let mut escapes: Vec<String> = Vec::new();
    let mut corrupting = [0u32; CORES.len()];
    for (ni, bench) in rnnasip_rrm::suite().iter().enumerate() {
        let input = bench.input();
        for (level, (arm, cores)) in OptLevel::ALL
            .into_iter()
            .flat_map(|l| CORES.into_iter().enumerate().map(move |c| (l, c)))
        {
            let compiled = KernelBackend::new(level)
                .with_cores(cores)
                .compile_network(&bench.network)
                .unwrap();
            let ranges = must_detect_ranges(&compiled);
            if ranges.is_empty() {
                continue;
            }
            let mut engine = compiled.engine();
            engine.set_guards(true);
            let golden = engine.run(&input).unwrap();
            let mut rng = StdRng::seed_from_u64(cell_seed(ni, level) ^ ((cores as u64 - 1) << 32));
            for _ in 0..4 {
                let (base, len) = ranges[uniform(&mut rng, ranges.len() as u64) as usize];
                let addr = base + uniform(&mut rng, u64::from(len)) as u32;
                let bit = uniform(&mut rng, 8) as u32;
                // Silent flips evade the dirty-block bitmap, so nothing
                // but the guard can notice them.
                engine.inject_faults(&FaultPlan::new().with_fault(Fault {
                    at_instret: 0,
                    site: FaultSite::MemBit {
                        addr,
                        bit,
                        silent: true,
                    },
                }));
                if let Ok(run) = engine.run(&input) {
                    if run.outputs != golden.outputs {
                        corrupting[arm] += 1;
                        if !run.report.guard_failed() {
                            escapes.push(format!(
                                "{} level {} on {cores} cores: flip 0x{addr:08x}.{bit} escaped",
                                bench.tag,
                                level.tag()
                            ));
                        } else {
                            assert!(engine.last_guard_failed());
                        }
                    }
                }
                // The silent corruption survives rewinds by design; only
                // a rebuild restores a clean TCDM for the next trial.
                engine.heal_rebuild();
            }
        }
    }
    assert!(escapes.is_empty(), "undetected SDC: {escapes:#?}");
    for (cores, n) in CORES.iter().zip(corrupting) {
        assert!(n > 0, "sweep never corrupted an output on {cores} cores");
    }
}

/// Regression: a cluster engine used to ignore `set_guards` silently.
#[test]
fn cluster_engines_honour_set_guards() {
    let bench = rnnasip_rrm::suite().remove(3);
    let compiled = KernelBackend::new(OptLevel::IfmTile)
        .with_cores(2)
        .compile_network(&bench.network)
        .unwrap();
    let mut engine = compiled.engine();
    engine.set_guards(true);
    assert!(engine.guards_enabled());
    let run = engine.run(&bench.input()).unwrap();
    let guard = run
        .report
        .guard()
        .expect("guarded cluster run carries a report");
    assert!(guard.entries() > 0, "no guarded entries on a 2-core engine");
    assert!(!guard.failed());
}
