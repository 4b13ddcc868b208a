//! Per-stage cycle profile of every benchmark network at the fully
//! extended level — where each network actually spends its cycles
//! (gate matvecs vs. update loops vs. im2col gathers vs. FC heads).
//!
//! Stage `k`'s figures are the difference between the one-core runs of
//! the network's first `k` stages and its first `k - 1`: a prefix's
//! program is a prefix of the whole program, so the per-stage figures
//! add up exactly to the whole network's.

use rnnasip_core::{KernelBackend, OptLevel, Partition};
use rnnasip_nn::Network;

fn main() {
    let backend = KernelBackend::new(OptLevel::IfmTile);
    for net in rnnasip_rrm::suite() {
        let stages = net.network.stages();
        let input = net.input();
        // (cycles, MACs) of every prefix, the empty one first.
        let mut prefix = vec![(0, 0)];
        let mut outputs = 0;
        for k in 1..=stages.len() {
            let head = Network::new(net.network.name(), stages[..k].to_vec());
            let run = backend
                .run_network(&head, &input)
                .unwrap_or_else(|e| panic!("{} first {k} stages: {e}", net.id));
            prefix.push((run.report.cycles(), run.report.mac_ops()));
            outputs = run.outputs.len();
        }
        let total = prefix[stages.len()].0;
        println!(
            "{} {} — {} stages, {} cycles total, {} outputs",
            net.tag,
            net.id,
            stages.len(),
            total,
            outputs
        );
        let plan = Partition::plan(stages, 1);
        for (split, w) in plan.stages.iter().zip(prefix.windows(2)) {
            let (cycles, macs) = (w[1].0 - w[0].0, w[1].1 - w[0].1);
            let per_mac = if macs == 0 {
                f64::NAN
            } else {
                cycles as f64 / macs as f64
            };
            println!(
                "    {:<28} {:>9} cycles ({:>5.1}%)  {:>7} MACs  {:>6.3} cyc/MAC",
                split.label,
                cycles,
                100.0 * cycles as f64 / total as f64,
                macs,
                per_mac
            );
        }
        println!();
    }
}
