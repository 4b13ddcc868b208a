//! Deadline-aware traffic bench: a simulated city of UEs served through
//! the [`Front`] over the [`EnginePool`].
//!
//! The city ([`rnnasip_bench::traffic::bench_city`]) models ~2.6 million
//! UEs across the three RRM environments — spectrum sensing
//! (`naparstek2019`, 1 ms slots), power control (`eisen2019`, 2 ms
//! intervals), LTE-U coexistence (`challita2017`, 10 ms frames) — whose
//! seeded non-homogeneous Poisson arrivals (diurnal curve × MMPP bursts)
//! offer over 100k requests across 3 virtual seconds (one compressed
//! diurnal day) at a 200 MHz virtual clock.
//!
//! Two result sections:
//!
//! - **virtual** — the deterministic scaling curve: the overload
//!   front-end configuration (bounded 512-slot queue, shed-oldest, EDF
//!   dispatch) at 1, 2, 4 and 8 *virtual servers*. Offered/served/shed
//!   counts, deadline goodput, p50/p99/p999 latency and the output
//!   checksum are pure virtual-time quantities: byte-identical on every
//!   host and at every pool worker count. `--check` compares this
//!   section as an exact string against the committed
//!   `BENCH_traffic_baseline.json`.
//! - **wall** — the host-dependent scaling curve: wall-clock requests/s
//!   of the full city through pools of 1, 2, 4, … workers (powers of two
//!   up to the hardware thread count), in a no-shed configuration whose
//!   served set is the whole city. Before a sample's timing is accepted,
//!   its whole-run output checksum, served count and served cycles must
//!   equal the serial warm-engine reference — the pooled front changes
//!   nothing architecturally.
//!
//! Asserted floors: the 8-virtual-server goodput must beat the
//! 1-server goodput (always — it is deterministic), and with ≥ 4
//! hardware threads the widest pool must serve the city at ≥ 3× the
//! serial wall-clock rate (gated on the core count, like the other
//! serving benches).
//!
//! The serial reference and each pool pass are timed once, in that
//! order.
//!
//! Flags: `--json` writes `BENCH_traffic.json`; `--check` compares the
//! virtual section against `BENCH_traffic_baseline.json`.
//!
//! [`Front`]: rnnasip_core::serve::Front
//! [`EnginePool`]: rnnasip_core::serve::EnginePool

use rnnasip_bench::harness::{assert_gates, pinned_report, pool_widths, time, Args, Curve};
use rnnasip_bench::json::Obj;
use rnnasip_bench::traffic::{
    bench_city, overload_front, virtual_section, virtual_sweep, CITY_SEED,
};
use rnnasip_core::serve::{output_fingerprint, EnginePool, Front, FrontConfig};
use rnnasip_core::{Engine, KernelBackend};
use rnnasip_rrm::traffic::{CityConfig, CityTraffic};

/// Required pooled-front-vs-serial wall-clock speedup at the widest
/// pool, on a host with at least 4 hardware threads.
const MIN_FRONT_SPEEDUP: f64 = 3.0;

/// What a city pass served: `(requests, summed cycles, whole-run
/// output checksum)`. Every pool pass must equal the serial reference's.
type Served = (u64, u64, u64);

/// The serial reference over one city pass: every arrival run
/// back-to-back on its class's warm engine (compiled before timing).
fn serial_pass(city: &CityConfig, engines: &mut [Engine]) -> Served {
    let (mut count, mut cycles, mut fnv) = (0u64, 0u64, 0u64);
    for arrival in CityTraffic::new(city) {
        let run = engines[arrival.class].run(&arrival.sequence).unwrap();
        count += 1;
        cycles += run.report.cycles();
        fnv = fnv.wrapping_add(output_fingerprint(&run.outputs));
    }
    (count, cycles, fnv)
}

/// The no-shed verification/timing configuration: enough virtual
/// capacity and queue depth that the whole city is served, so the run's
/// checksum is comparable to the serial reference.
fn no_shed_front() -> FrontConfig {
    FrontConfig {
        queue_cap: 1 << 20,
        ..overload_front(8)
    }
}

/// One full-city pass through `pool` in the no-shed configuration.
fn pool_pass(city: &CityConfig, pool: &EnginePool) -> Served {
    let report = Front::new(pool, no_shed_front()).serve(CityTraffic::new(city));
    let total = report.aggregate();
    let workers = pool.workers();
    assert_eq!(total.shed, 0, "{workers} workers: no-shed config shed");
    assert_eq!(total.failed, 0, "{workers} workers: failures");
    (total.served, report.served_cycles, report.outputs_fnv)
}

fn main() {
    let args = Args::parse();

    let (hw, counts) = pool_widths();
    let city = bench_city();
    println!(
        "traffic-serving: seed {CITY_SEED:#x}, {:.1} virtual s at {} MHz, \
         {:.0} req/s nominal peak, {hw} hardware threads",
        city.horizon_s,
        city.clock_hz / 1_000_000,
        city.peak_rate()
    );

    // Deterministic virtual-server sweep (overload config, sheds).
    let pool = EnginePool::with_workers(hw);
    let rows = virtual_sweep(&city, &pool);
    drop(pool);
    println!(
        "\n{:<10} {:>8} {:>8} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "virtual", "served", "shed", "good%", "p50", "p99", "p999", "rps"
    );
    for (servers, report) in &rows {
        let total = report.aggregate();
        println!(
            "{:<10} {:>8} {:>8} {:>6.1}% {:>12} {:>10} {:>10} {:>10}",
            format!("servers x{servers}"),
            total.served,
            total.shed,
            total.goodput_ppm() as f64 / 10_000.0,
            total.latency.p50(),
            total.latency.p99(),
            total.latency.p999(),
            report.virtual_rps(city.clock_hz)
        );
    }
    let offered = rows[0].1.aggregate().offered;
    let goodput_1 = rows.first().unwrap().1.aggregate().goodput_ppm();
    let goodput_8 = rows.last().unwrap().1.aggregate().goodput_ppm();
    assert!(
        goodput_8 > goodput_1,
        "virtual scaling is flat: {goodput_8} ppm at 8 servers vs {goodput_1} ppm at 1"
    );

    // Wall-clock scaling curve (no-shed config): the serial warm-engine
    // pass is the reference every pool pass must reproduce bit-exactly;
    // each pool pass goes through a fresh pool of `workers` workers.
    let mut engines: Vec<Engine> = city
        .classes
        .iter()
        .map(|class| {
            KernelBackend::new(class.level)
                .compile_network(&class.net)
                .unwrap_or_else(|e| panic!("{} at {:?}: {e}", class.name, class.level))
                .engine()
        })
        .collect();
    let mut serial = (0, 0, 0);
    let mut times = vec![time(|| serial = serial_pass(&city, &mut engines))];
    for &workers in &counts {
        let pool = EnginePool::with_workers(workers);
        let mut pass = (0, 0, 0);
        times.push(time(|| pass = pool_pass(&city, &pool)));
        assert_eq!(
            pass, serial,
            "{workers} workers: served (requests, cycles, outputs) diverged from the serial reference"
        );
    }
    let (count, cycles, fnv) = serial;
    assert_eq!(offered, count, "virtual sweep offered != generated");
    let wall = Curve::new(count, &counts, &times);
    println!("\nwall-clock");
    wall.print();

    let doc = Obj::new()
        .str("bench", "traffic_serving")
        .num("seed", CITY_SEED)
        .num("clock_hz", city.clock_hz)
        .float("horizon_s", Some(city.horizon_s))
        .num("hw_threads", hw as u64)
        .num("offered", offered)
        .num("serial_cycles", cycles)
        .str("serial_fnv", &format!("{fnv:016x}"))
        .float("serial_rps", Some(wall.serial_rps))
        .raw("virtual", virtual_section(&city, &rows))
        .raw("wall", wall.json())
        .build();
    pinned_report(&args, "traffic", &doc, Some("virtual"));

    println!();
    assert_gates(wall.widest_gate("front", MIN_FRONT_SPEEDUP));
}
