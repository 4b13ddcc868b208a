//! Prints the benchmark-suite inventory as a markdown table (the
//! documentation companion of `rnnasip-rrm::suite()`): citation, task,
//! kernel family, topology, MACs and activation counts per inference.

use rnnasip_bench::harness::Args;
use rnnasip_bench::json::{array, Obj};
use rnnasip_bench::run_suite_report;
use rnnasip_core::OptLevel;
use rnnasip_nn::Stage;

fn topology(net: &rnnasip_rrm::BenchmarkNet) -> String {
    net.network
        .stages()
        .iter()
        .map(|s| match s {
            Stage::Fc(l) => format!("fc{}x{}", l.n_out(), l.n_in()),
            Stage::Lstm { layer, steps } => {
                format!("lstm{}x{}(T={})", layer.n_in(), layer.n_hidden(), steps)
            }
            Stage::Conv(c) => format!(
                "conv{}x{}x{}->{}k{}",
                c.in_ch(),
                c.in_h(),
                c.in_w(),
                c.out_ch(),
                c.kh()
            ),
        })
        .collect::<Vec<_>>()
        .join(" → ")
}

/// Emits the inventory plus measured suite totals as one JSON document:
/// every network's shape and MAC budget, and for each optimization
/// level the full-suite cycle/instruction counts with the simulated-MIPS
/// throughput of the run that produced them.
fn print_json() {
    let suite = rnnasip_rrm::suite();
    let networks = array(suite.iter().map(|net| {
        Obj::new()
            .str("tag", net.tag)
            .str("id", net.id)
            .str("kind", net.kind.label())
            .str("task", net.task)
            .str("topology", &topology(net))
            .num("macs", net.network.mac_count())
            .num("activations", net.network.act_count())
            .build()
    }));
    let levels = array(OptLevel::ALL.into_iter().map(|level| {
        let report = run_suite_report(level);
        Obj::new()
            .str("level", level.tag())
            .num("cycles", report.stats().cycles())
            .num("instrs", report.stats().instrs())
            .num("mac_ops", report.stats().mac_ops())
            .float("sim_mips", report.sim_mips())
            .build()
    }));
    println!(
        "{}",
        Obj::new()
            .str("report", "suite_summary")
            .raw("networks", networks)
            .raw("levels", levels)
            .build()
    );
}

fn main() {
    if Args::parse().json {
        print_json();
        return;
    }
    println!("| tag | id | kind | task | topology | MACs | tanh/sig |");
    println!("|---|---|---|---|---|---|---|");
    let suite = rnnasip_rrm::suite();
    let mut total_macs = 0u64;
    for net in &suite {
        total_macs += net.network.mac_count();
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            net.tag,
            net.id,
            net.kind.label(),
            net.task,
            topology(net),
            net.network.mac_count(),
            net.network.act_count()
        );
    }
    println!("\nsuite total: {total_macs} MACs per full-suite inference");
    println!("(paper's Table I suite: ~1.62 M packed-pair MAC instructions)");
}
