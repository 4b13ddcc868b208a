//! Regenerates **Table I**: cycle and instruction count histograms for
//! the entire RRM benchmark suite at every optimization level, plus the
//! cumulative improvement row.

use rnnasip_bench::harness::Args;
use rnnasip_bench::json::{array, Obj};
use rnnasip_bench::{format_column, paper, run_suite, run_suite_report, table_rows};
use rnnasip_core::OptLevel;

/// Emits the whole table as one JSON document: per level the suite
/// totals, simulated-MIPS of the run that produced them, the speedup
/// ladder, and the paper-named histogram rows.
fn print_json() {
    let mut base_cycles = 0u64;
    let mut levels = Vec::new();
    for level in OptLevel::ALL {
        let report = run_suite_report(level);
        let stats = report.stats();
        if base_cycles == 0 {
            base_cycles = stats.cycles();
        }
        let rows = array(table_rows(stats).into_iter().map(|(name, cycles, instrs)| {
            Obj::new()
                .str("mnemonic", &name)
                .num("cycles", cycles)
                .num("instrs", instrs)
                .build()
        }));
        levels.push(
            Obj::new()
                .str("level", level.tag())
                .str("column", level.column())
                .num("cycles", stats.cycles())
                .num("instrs", stats.instrs())
                .num("stall_cycles", stats.stall_cycles())
                .num("mac_ops", stats.mac_ops())
                .float("sim_mips", report.sim_mips())
                .float(
                    "speedup_vs_baseline",
                    Some(base_cycles as f64 / stats.cycles() as f64),
                )
                .raw("rows", rows)
                .build(),
        );
    }
    println!(
        "{}",
        Obj::new()
            .str("report", "table1")
            .raw("levels", array(levels))
            .build()
    );
}

fn main() {
    if Args::parse().json {
        print_json();
        return;
    }
    println!("TABLE I — cycle and instruction counts, whole RRM suite");
    println!("(paper columns a–e; counts in kilo-units)\n");
    let mut base_cycles = 0u64;
    let mut prev_cycles = 0u64;
    for level in OptLevel::ALL {
        let stats = run_suite(level);
        println!("{}", format_column(level.column(), &stats, 6));
        if base_cycles == 0 {
            base_cycles = stats.cycles();
            prev_cycles = stats.cycles();
            println!("Impr.  baseline (1x)\n");
        } else {
            println!(
                "Impr.  {:.1}x  ({:.2}x over previous level)\n",
                base_cycles as f64 / stats.cycles() as f64,
                prev_cycles as f64 / stats.cycles() as f64
            );
            prev_cycles = stats.cycles();
        }
    }
    println!("Paper reference (suite speedups vs RV32IMC):");
    for (tag, s) in paper::SUITE_SPEEDUPS {
        println!("  ({tag}) {s}x");
    }
}
