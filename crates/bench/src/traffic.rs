//! Shared pieces of the deadline-aware traffic bench (`traffic_serving`)
//! and its determinism tests: the canonical city seed, the overload
//! front-end configuration, and the **byte-stable** serialization of the
//! virtual-time results.
//!
//! The `"virtual"` section of `BENCH_traffic.json` contains only
//! integer fields derived from the virtual-time service model
//! ([`rnnasip_core::serve::Front`]), so it is byte-identical across
//! hosts, worker counts, and runs — the `--check` mode compares it as an
//! exact string against the committed baseline
//! ([`pinned_report`](crate::harness::pinned_report)). Keeping the row
//! serialization here, used by both the bench binary and the
//! `traffic_determinism` test, is what makes that comparison meaningful.

use crate::json::{array, Obj};
use rnnasip_core::serve::{EnginePool, Front, FrontConfig, OverloadPolicy, TrafficReport};
use rnnasip_rrm::traffic::{CityConfig, CityTraffic};

/// Master seed of the benchmark city; part of the committed baseline's
/// identity (changing it invalidates `BENCH_traffic_baseline.json`).
pub const CITY_SEED: u64 = 0x5EED_C117;

/// The deterministic scaling sweep: virtual-server counts the bench
/// reports (and `--check` pins) regardless of the host's hardware.
pub const VIRTUAL_SERVERS: [usize; 4] = [1, 2, 4, 8];

/// The canonical benchmark city at the canonical seed.
pub fn bench_city() -> CityConfig {
    CityConfig::bench_city(CITY_SEED)
}

/// The overload front-end configuration of the virtual sweep: a bounded
/// 512-slot queue shedding oldest, 64-request batches under a
/// 100k-cycle window. At [`VIRTUAL_SERVERS`] counts below the city's
/// offered load this configuration sheds — that is the point: the sweep
/// shows goodput recovering as virtual capacity grows.
pub fn overload_front(servers: usize) -> FrontConfig {
    FrontConfig {
        servers,
        batch_window: 100_000,
        max_batch: 64,
        queue_cap: 512,
        policy: OverloadPolicy::ShedOldest,
        classes: 3,
    }
}

/// Serializes one virtual-sweep row. Integer fields only (ppm for
/// ratios, hex for the output checksum) — byte-stable by construction.
pub fn virtual_row(city: &CityConfig, servers: usize, report: &TrafficReport) -> String {
    let total = report.aggregate();
    let classes = array(report.per_class.iter().enumerate().map(|(i, c)| {
        Obj::new()
            .str("class", city.classes[i].name)
            .num("offered", c.offered)
            .num("served", c.served)
            .num("shed", c.shed)
            .num("failed", c.failed)
            .num("met", c.met)
            .num("goodput_ppm", c.goodput_ppm())
            .num("p50", c.latency.p50())
            .num("p99", c.latency.p99())
            .num("p999", c.latency.p999())
            .build()
    }));
    Obj::new()
        .num("servers", servers as u64)
        .num("offered", total.offered)
        .num("served", total.served)
        .num("shed", total.shed)
        .num("failed", total.failed)
        .num("met", total.met)
        .num("goodput_ppm", total.goodput_ppm())
        .num("p50", total.latency.p50())
        .num("p99", total.latency.p99())
        .num("p999", total.latency.p999())
        .num("makespan", report.makespan)
        .num("virtual_rps", report.virtual_rps(city.clock_hz))
        .num("max_queue", report.max_queue as u64)
        .num("batches", report.batches)
        .num("served_cycles", report.served_cycles)
        .str("outputs_fnv", &format!("{:016x}", report.outputs_fnv))
        .raw("classes", classes)
        .build()
}

/// Runs the [`VIRTUAL_SERVERS`] sweep of `city` over `pool` and returns
/// `(servers, report)` per configuration. Each pass regenerates the
/// arrival stream (it is deterministic) rather than materializing it.
pub fn virtual_sweep(city: &CityConfig, pool: &EnginePool) -> Vec<(usize, TrafficReport)> {
    VIRTUAL_SERVERS
        .iter()
        .map(|&servers| {
            let report = Front::new(pool, overload_front(servers)).serve(CityTraffic::new(city));
            (servers, report)
        })
        .collect()
}

/// Serializes a sweep as the JSON array the `"virtual"` key carries.
pub fn virtual_section(city: &CityConfig, rows: &[(usize, TrafficReport)]) -> String {
    array(rows.iter().map(|(v, r)| virtual_row(city, *v, r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_front_matches_the_documented_shape() {
        let cfg = overload_front(4);
        assert_eq!(cfg.servers, 4);
        assert_eq!(cfg.queue_cap, 512);
        assert_eq!(cfg.max_batch, 64);
        assert_eq!(cfg.policy, OverloadPolicy::ShedOldest);
    }
}
