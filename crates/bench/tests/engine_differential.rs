//! Differential test for the compile-once / run-many engine.
//!
//! For every network of the RRM suite at every optimization level a–e,
//! one warm [`Engine`] runs the same inference **twice** (the second run
//! exercises the dirty-block restore path) and the legacy one-shot
//! [`KernelBackend::run_network`] runs it once from a fresh machine.
//! All three runs must agree bit-for-bit on:
//!
//! * the Q3.12 output vector,
//! * total cycles, and
//! * every per-mnemonic statistics row (name, cycles, instructions).
//!
//! This is the proof that the compile/execute split and the memory
//! rewind are architecturally invisible: reusing a machine is
//! indistinguishable from rebuilding one.

use rnnasip_bench::par;
use rnnasip_core::{KernelBackend, OptLevel};
use rnnasip_sim::Row;
use std::collections::BTreeMap;

/// Per-mnemonic rows in a canonical (name-sorted) form for comparison.
fn rows(run: &rnnasip_core::NetworkRun) -> BTreeMap<&'static str, Row> {
    run.report.stats().iter().collect()
}

#[test]
fn engine_reuse_is_bit_identical_to_fresh_runs() {
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
        let mut engine = compiled.engine();
        let first = engine
            .run(&input)
            .unwrap_or_else(|e| panic!("{tag}: first engine run failed: {e}"));
        let second = engine
            .run(&input)
            .unwrap_or_else(|e| panic!("{tag}: second engine run failed: {e}"));
        let fresh = KernelBackend::new(level)
            .run_network(&net.network, &input)
            .unwrap_or_else(|e| panic!("{tag}: legacy run failed: {e}"));

        let mut errs = Vec::new();
        if first.outputs != second.outputs || first.outputs != fresh.outputs {
            errs.push(format!("{tag}: outputs diverge"));
        }
        if first.report.cycles() != second.report.cycles()
            || first.report.cycles() != fresh.report.cycles()
        {
            errs.push(format!(
                "{tag}: cycles diverge ({} / {} / {})",
                first.report.cycles(),
                second.report.cycles(),
                fresh.report.cycles()
            ));
        }
        let (r1, r2, rf) = (rows(&first), rows(&second), rows(&fresh));
        if r1 != r2 || r1 != rf {
            errs.push(format!("{tag}: per-mnemonic stats rows diverge"));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// An engine's TCDM is backed up to its image's footprint, a fraction of
/// the TCDM, and a clean run of any suite artifact, on one core or four,
/// stays inside it: nothing a kernel touches lies past the layout's
/// high-water mark.
#[test]
fn clean_runs_stay_inside_the_image_footprint() {
    let suite = rnnasip_rrm::suite();
    let cases: Vec<(usize, OptLevel, usize)> = (0..suite.len())
        .flat_map(|i| {
            OptLevel::ALL
                .into_iter()
                .flat_map(move |level| [1, 4].map(|cores| (i, level, cores)))
        })
        .collect();
    let failures: Vec<String> = par::par_map(&cases, |&(i, level, cores)| {
        let net = &suite[i];
        let tag = format!("{} level {} on {cores} cores", net.id, level.tag());
        let compiled = KernelBackend::new(level)
            .with_cores(cores)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
        let image = compiled.image();
        let mut engine = compiled.engine();
        for _ in 0..2 {
            engine
                .run(&net.input())
                .unwrap_or_else(|e| panic!("{tag}: run failed: {e}"));
        }
        let backing = engine.machine().mem().backing();
        (backing != image.footprint() || image.footprint() >= image.len()).then(|| {
            format!(
                "{tag}: backing {backing} B, footprint {} B, TCDM {} B",
                image.footprint(),
                image.len()
            )
        })
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
