//! Figure 6: 1-8 database servers concurrently reading remote memory on
//! ONE donor, each with fixed demand tuned so ~4 DB servers saturate the
//! donor's NIC.
//!
//! Paper: aggregate throughput scales ~linearly until the NIC saturates,
//! after which latency climbs while throughput plateaus.

use remem::RFileConfig;
use remem_bench::Report;
use remem_sim::rng::SimRng;
use remem_sim::{Clock, ClosedLoopDriver, Histogram, SimDuration, SimTime};

const WINDOW: u64 = 100_000_000; // 100 ms
/// Per-DB demand shaping: each worker computes for this long between reads.
const THINK: SimDuration = SimDuration::from_micros(8);
const WORKERS_PER_DB: usize = 4;

fn main() {
    let mut report = Report::new(
        "repro_fig6_multi_db_servers",
        "Fig 6",
        "N DB servers -> 1 memory server, NIC saturation",
    );
    let mut rows = Vec::new();
    let mut tput = Vec::new();
    let mut p99 = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let cluster = remem::Cluster::builder()
            .memory_servers(1)
            .memory_per_server(160 << 20)
            .metrics(report.registry())
            .build();
        let mut setup = Clock::new();
        let mut files = Vec::new();
        for i in 0..n {
            let db = if i == 0 {
                cluster.db_server
            } else {
                cluster.add_db_server(format!("DB{}", i + 1), 20)
            };
            files.push(
                cluster
                    .remote_file(&mut setup, db, 16 << 20, RFileConfig::custom())
                    .expect("file"),
            );
        }
        let start = setup.now();
        let horizon = SimTime(start.as_nanos() + WINDOW);
        let workers = n * WORKERS_PER_DB;
        let lat = Histogram::new();
        let mut buf = vec![0u8; 8192];
        let mut driver = ClosedLoopDriver::new(workers, horizon).starting_at(start);
        let mut rng = SimRng::seeded(7);
        let ops = driver.run(&lat, |w, c| {
            let file = &files[w / WORKERS_PER_DB];
            let b = rng.uniform(0, file.size() / 8192);
            file.read(c, b * 8192, &mut buf).expect("read");
            c.advance(THINK);
        });
        let gbps = ops as f64 * 8192.0 / (WINDOW as f64 / 1e9) / 1e9;
        rows.push(vec![
            n.to_string(),
            format!("{gbps:.2}"),
            format!("{:.1}", lat.mean().as_micros_f64()),
            format!("{:.1}", lat.percentile(99.0).as_micros_f64()),
        ]);
        tput.push((n.to_string(), gbps));
        p99.push((n.to_string(), lat.percentile(99.0).as_micros_f64()));
    }
    report.table(
        "",
        &["DB servers", "aggregate GB/s", "mean us", "p99 us"],
        rows,
    );
    report.series("aggregate_gbps", &tput);
    report.series("p99_us", &p99);
    report.blank();
    report.note("shape check vs paper: near-linear scaling until the donor NIC");
    report.note("saturates (~4 DB servers), then flat throughput and rising latency.");
    report.check_order_asc(
        "tput_scales_then_plateaus",
        "aggregate throughput never falls as DB servers are added",
        &tput,
        2.0,
    );
    report.check_ratio_ge(
        "scaling_before_saturation",
        "2 DB servers deliver >= 1.7x the single-server throughput",
        ("2 DBs", tput[1].1),
        ("1 DB", tput[0].1),
        1.7,
    );
    report.check_flat(
        "saturated_plateau",
        "throughput is flat between 4 and 8 DB servers (NIC saturated)",
        &tput[2..],
        10.0,
    );
    report.check_ratio_ge(
        "latency_climbs_past_saturation",
        "p99 latency at 8 DBs >= 2x the 1-DB p99",
        ("8 DBs p99", p99[3].1),
        ("1 DB p99", p99[0].1),
        2.0,
    );
    report.gauge("gbps_1db", tput[0].1, 10.0);
    report.gauge("gbps_8db", tput[3].1, 10.0);
    report.finish();
}
