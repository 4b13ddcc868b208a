//! Three-way differential for the kernel-shortcut execution tier.
//!
//! Every network of the RRM suite at every optimization level a–e runs
//! on all three tiers:
//!
//! * **shortcut** — the default engine, executing installed kernel
//!   regions as native Rust,
//! * **uop** — a [`CompiledNetwork::without_shortcuts`] engine, the
//!   pre-decoded micro-op path alone,
//! * **stepping** — the reference path, one generic micro-op at a time
//!   (`Engine::run_reference`).
//!
//! All three must agree bit-for-bit on the Q3.12 outputs, the total
//! cycle count, and every per-mnemonic statistics row (including the
//! rendered CSV, which pins row ordering). A second randomized pass
//! compiles 400 seeded random FC stacks and repeats the comparison, so
//! the walker's admission decisions are exercised far outside the
//! hand-picked suite shapes. A third compiles seeded random LSTMs (gate
//! matvecs plus the cell-update region) and also runs them on clusters
//! of 2, 3 and 8 cores, where small hidden widths leave cores idle; every
//! output must equal the fixed-point golden model. At level a every
//! network, suite or random, must also engage the shortcut tier through
//! its per-output dot-product regions. Each failure line names the seed
//! that reproduces it.

use rnnasip_bench::par;
use rnnasip_core::{CompiledNetwork, KernelBackend, NetworkRun, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::{Act, FcLayer, LstmLayer, Matrix, Network, Stage};
use rnnasip_rng::StdRng;

/// Seeded random-network cases for the randomized pass.
const RANDOM_SEEDS: u64 = 400;

/// Seeded random-LSTM cases.
const LSTM_SEEDS: u64 = 60;

/// Cluster sizes every random LSTM also runs on.
const LSTM_CORES: [usize; 3] = [2, 3, 8];

fn csv(run: &NetworkRun) -> String {
    run.report.stats().to_csv()
}

/// Runs one compiled network on all three tiers and returns the error
/// strings (empty = bit-identical). Also returns the shortcut tier's
/// retired-native-instruction count for engagement assertions.
fn diff_three_way(
    tag: &str,
    compiled: &CompiledNetwork,
    input: &[Vec<Q3p12>],
) -> (Vec<String>, u64) {
    let mut sc_engine = compiled.engine();
    let mut uop_engine = compiled.without_shortcuts().engine();

    let shortcut = sc_engine
        .run(input)
        .unwrap_or_else(|e| panic!("{tag}: shortcut run failed: {e}"));
    let shortcut_instrs = sc_engine.machine().shortcut_instrs();
    let uop = uop_engine
        .run(input)
        .unwrap_or_else(|e| panic!("{tag}: uop run failed: {e}"));
    let stepping = sc_engine
        .run_reference(input)
        .unwrap_or_else(|e| panic!("{tag}: stepping run failed: {e}"));

    let mut errs = Vec::new();
    if shortcut.outputs != uop.outputs || shortcut.outputs != stepping.outputs {
        errs.push(format!("{tag}: outputs diverge"));
    }
    if shortcut.report.cycles() != uop.report.cycles()
        || shortcut.report.cycles() != stepping.report.cycles()
    {
        errs.push(format!(
            "{tag}: cycles diverge (shortcut {} / uop {} / stepping {})",
            shortcut.report.cycles(),
            uop.report.cycles(),
            stepping.report.cycles()
        ));
    }
    if shortcut.report.instrs() != uop.report.instrs()
        || shortcut.report.instrs() != stepping.report.instrs()
    {
        errs.push(format!(
            "{tag}: instruction totals diverge (shortcut {} / uop {} / stepping {})",
            shortcut.report.instrs(),
            uop.report.instrs(),
            stepping.report.instrs()
        ));
    }
    if csv(&shortcut) != csv(&uop) || csv(&shortcut) != csv(&stepping) {
        errs.push(format!("{tag}: per-mnemonic stats rows diverge"));
    }
    if uop_engine.machine().shortcut_instrs() != 0 {
        errs.push(format!(
            "{tag}: without_shortcuts engine retired shortcut instructions"
        ));
    }
    (errs, shortcut_instrs)
}

#[test]
fn suite_three_way_bit_identical_and_engaged() {
    let suite = rnnasip_rrm::suite();
    let cases: Vec<(usize, OptLevel)> = (0..suite.len())
        .flat_map(|i| OptLevel::ALL.into_iter().map(move |level| (i, level)))
        .collect();

    let failures: Vec<String> = par::par_map(&cases, |&(i, level)| {
        let net = &suite[i];
        let input = net.input();
        let tag = format!("{} level {}", net.id, level.tag());
        let compiled = KernelBackend::new(level)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
        let (mut errs, shortcut_instrs) = diff_three_way(&tag, &compiled, &input);
        // Engagement: at the tiled levels every suite network contains at
        // least one FC-shaped kernel the walker must admit, and at level a
        // every matvec's dot products. Level b's branchy software-PLA
        // kernels are legitimately rejected for some networks, so only
        // a/c/d/e assert coverage.
        if level != OptLevel::Xpulp && shortcut_instrs == 0 {
            errs.push(format!("{tag}: shortcut tier never engaged"));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A seeded random FC stack: 1–3 layers, widths 1–40, random
/// activations. Shapes are deliberately allowed to be odd/degenerate —
/// the compiler pads and the walker must either admit the region exactly
/// or leave it interpreted.
fn random_net(seed: u64) -> (Network, Vec<Vec<Q3p12>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dim = |lo: usize, hi: usize| lo + (rng.gen::<f64>() * (hi - lo) as f64) as usize;
    let depth = dim(1, 4);
    let n_in0 = dim(1, 41);
    let acts = [Act::None, Act::Relu, Act::Tanh, Act::Sigmoid];
    let mut stages = Vec::new();
    let mut n_in = n_in0;
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    for _ in 0..depth {
        let n_out = dim(1, 41);
        let act = acts[dim(0, 4).min(3)];
        let w: Vec<Q3p12> = (0..n_out * n_in)
            .map(|_| Q3p12::from_f64(rng2.gen::<f64>() * 0.5 - 0.25))
            .collect();
        let b: Vec<Q3p12> = (0..n_out)
            .map(|_| Q3p12::from_f64(rng2.gen::<f64>() * 0.5 - 0.25))
            .collect();
        stages.push(Stage::Fc(FcLayer::new(Matrix::new(n_out, n_in, w), b, act)));
        n_in = n_out;
    }
    let input: Vec<Q3p12> = (0..n_in0)
        .map(|_| Q3p12::from_f64(rng2.gen::<f64>() * 2.0 - 1.0))
        .collect();
    (Network::new(format!("rand{seed}"), stages), vec![input])
}

#[test]
fn randomized_networks_three_way_bit_identical() {
    let seeds: Vec<u64> = (0..RANDOM_SEEDS).collect();
    let failures: Vec<String> = par::par_map(&seeds, |&seed| {
        let (net, input) = random_net(seed);
        // Rotate through all five levels across the seed space.
        let level = OptLevel::ALL[(seed % 5) as usize];
        let tag = format!("seed {seed} level {}", level.tag());
        let compiled = KernelBackend::new(level)
            .compile_network(&net)
            .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
        let (mut errs, shortcut_instrs) = diff_three_way(&tag, &compiled, &input);
        if level == OptLevel::Baseline && shortcut_instrs == 0 {
            errs.push(format!("{tag}: shortcut tier never engaged"));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A seeded random LSTM: even `n_in` and `n_hidden` in 2–48, 1–10 time
/// steps, gate weights and biases in ±0.5 and inputs in ±1 (Q3.12).
fn random_lstm(seed: u64) -> (Network, Vec<Vec<Q3p12>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x15D7_CE11);
    let mut even = |hi: usize| 2 * (1 + rng.next_u64() as usize % (hi / 2));
    let (n_in, n_hidden) = (even(48), even(48));
    let steps = 1 + rng.next_u64() as usize % 10;
    let mut q = |scale: f64| Q3p12::from_f64((rng.gen::<f64>() * 2.0 - 1.0) * scale);
    let mut matrix = |rows: usize, cols: usize| {
        Matrix::new(rows, cols, (0..rows * cols).map(|_| q(0.5)).collect())
    };
    let wx = std::array::from_fn(|_| matrix(n_hidden, n_in));
    let wh = std::array::from_fn(|_| matrix(n_hidden, n_hidden));
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xB1A5);
    let mut q2 = |scale: f64| Q3p12::from_f64((rng2.gen::<f64>() * 2.0 - 1.0) * scale);
    let bias = std::array::from_fn(|_| (0..n_hidden).map(|_| q2(0.5)).collect());
    let input = (0..steps)
        .map(|_| (0..n_in).map(|_| q2(1.0)).collect())
        .collect();
    let layer = LstmLayer::new(wx, wh, bias);
    let net = Network::new(format!("lstm{seed}"), vec![Stage::Lstm { layer, steps }]);
    (net, input)
}

#[test]
fn randomized_lstms_three_way_bit_identical_on_every_core_count() {
    let seeds: Vec<u64> = (0..LSTM_SEEDS).collect();
    let failures: Vec<String> = par::par_map(&seeds, |&seed| {
        let (net, input) = random_lstm(seed);
        let golden = net.forward_fixed(&input);
        let level = OptLevel::ALL[(seed % 5) as usize];
        let tag = format!("random LSTM seed {seed} level {}", level.tag());
        let compiled = KernelBackend::new(level)
            .compile_network(&net)
            .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
        let (mut errs, shortcut_instrs) = diff_three_way(&tag, &compiled, &input);
        if level == OptLevel::Baseline && shortcut_instrs == 0 {
            errs.push(format!("{tag}: shortcut tier never engaged"));
        }
        for cores in LSTM_CORES {
            let tag = format!("{tag} cores {cores}");
            let compiled = KernelBackend::new(level)
                .with_cores(cores)
                .compile_network(&net)
                .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
            let run = |c: &CompiledNetwork| {
                c.engine()
                    .run(&input)
                    .unwrap_or_else(|e| panic!("{tag}: run failed: {e}"))
            };
            let (sc, plain) = (run(&compiled), run(&compiled.without_shortcuts()));
            if sc.outputs != golden {
                errs.push(format!("{tag}: outputs differ from forward_fixed"));
            }
            if sc.outputs != plain.outputs
                || sc.report.cycles() != plain.report.cycles()
                || sc.report.instrs() != plain.report.instrs()
                || csv(&sc) != csv(&plain)
            {
                errs.push(format!("{tag}: shortcut and uop tiers diverge"));
            }
        }
        let one_core = compiled.engine().run(&input).map(|r| r.outputs);
        if one_core.as_ref().ok() != Some(&golden) {
            errs.push(format!("{tag}: outputs differ from forward_fixed"));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
