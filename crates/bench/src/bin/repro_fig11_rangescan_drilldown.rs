//! Figure 11: drill-down of the read-only RangeScan — per-second I/O
//! throughput, CPU utilization and BPExt I/O latency for HDD+SSD,
//! SMBDirect+RamDrive and Custom.
//!
//! Paper: Custom moves ~900 MB/s of pages and is CPU-bound (~100 %), while
//! HDD+SSD idles at ~20 % CPU; Custom page reads take ~13 µs vs ~272 µs on
//! SMBDirect (async I/O handling + SMB overheads).

use std::sync::Arc;

use remem::{Cluster, Design, Device};
use remem_bench::{rangescan_opts, windowed_util, Report};
use remem_engine::{Database, DbConfig, DeviceSet};
use remem_rfile::RFileConfig;
use remem_sim::{Clock, MetricsRegistry, SimDuration};
use remem_storage::{HddArray, HddConfig, MeteredDevice, Ssd, SsdConfig};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};

const ROWS: u64 = 60_000;
const WINDOWS: usize = 10;
const WINDOW: SimDuration = SimDuration::from_millis(100);

fn main() {
    let mut report = Report::new(
        "repro_fig11_rangescan_drilldown",
        "Fig 11",
        "RangeScan drill-down: I/O MB/s, CPU %, BPExt I/O latency",
    );
    // steady-state (last window) numbers per design, for checks and gauges
    let mut steady_mbs = Vec::new();
    let mut steady_cpu = Vec::new();
    let mut steady_lat = Vec::new();
    for design in [Design::HddSsd, Design::SmbDirectRamDrive, Design::Custom] {
        let opts = rangescan_opts(20);
        let cluster = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(96 << 20)
            .build();
        let mut clock = Clock::new();
        // build the design manually so the BPExt device is instrumented
        let ext_inner: Arc<dyn Device> = match design {
            Design::HddSsd => Arc::new(Ssd::new(SsdConfig::with_capacity(opts.bpext_bytes))),
            Design::SmbDirectRamDrive => cluster
                .remote_file(
                    &mut clock,
                    cluster.db_server,
                    opts.bpext_bytes,
                    RFileConfig::smb_direct(),
                )
                .unwrap(),
            _ => cluster
                .remote_file(
                    &mut clock,
                    cluster.db_server,
                    opts.bpext_bytes,
                    RFileConfig::custom(),
                )
                .unwrap(),
        };
        // metered on a private registry, so each window reads this device only
        let meters = MetricsRegistry::shared();
        let ext = MeteredDevice::new(ext_inner, Arc::clone(&meters), "bpext");
        let read_lat = meters.histogram("bpext.read.lat");
        let moved = [
            meters.counter("bpext.read.bytes"),
            meters.counter("bpext.write.bytes"),
        ];
        let db = Database::new(
            DbConfig::with_pool(opts.pool_bytes),
            cluster
                .fabric
                .server(cluster.db_server)
                .unwrap()
                .cpu_handle(),
            DeviceSet {
                data: Arc::new(HddArray::new(HddConfig::with_spindles(20, opts.data_bytes))),
                log: Arc::new(HddArray::new(HddConfig::with_spindles(20, 64 << 20))),
                tempdb: Arc::new(Ssd::new(SsdConfig::with_capacity(opts.tempdb_bytes))),
                bpext: Some(Arc::new(ext)),
                wal_ring: None,
            },
        );
        let t = load_customer(&db, &mut clock, ROWS);
        let mut rows = Vec::new();
        let cpu = db.cpu();
        let mut start = clock.now();
        let (mut last_mbs, mut last_cpu, mut last_lat) = (0.0, 0.0, 0.0);
        for w in 0..WINDOWS {
            read_lat.reset();
            moved.iter().for_each(|c| c.reset());
            let u0 = cpu.utilization(start);
            run_rangescan(
                &db,
                t,
                &RangeScanParams {
                    workers: 80,
                    duration: WINDOW,
                    ..Default::default()
                },
                start,
            );
            let end = start + WINDOW;
            let u1 = cpu.utilization(end);
            let bytes: u64 = moved.iter().map(|c| c.get()).sum();
            last_mbs = bytes as f64 / WINDOW.as_secs_f64() / 1e6;
            last_cpu = windowed_util(u1, end, u0, start) * 100.0;
            last_lat = read_lat.mean().as_micros_f64();
            rows.push(vec![
                format!("{:.1}", (w as f64 + 1.0) * WINDOW.as_secs_f64()),
                format!("{last_mbs:.0}"),
                format!("{last_cpu:.0}"),
                format!("{last_lat:.0}"),
            ]);
            start = end;
        }
        report.table(
            &format!("--- {} ---", design.label()),
            &["t (s)", "BPExt MB/s", "CPU %", "read latency us"],
            rows,
        );
        steady_mbs.push((design.label().to_string(), last_mbs));
        steady_cpu.push((design.label().to_string(), last_cpu));
        steady_lat.push((design.label().to_string(), last_lat));
    }
    report.series("steady_bpext_mbs", &steady_mbs);
    report.series("steady_cpu_pct", &steady_cpu);
    report.series("steady_read_lat_us", &steady_lat);
    report.blank();
    let pick = |set: &[(String, f64)], label: &str| {
        set.iter().find(|(l, _)| l == label).expect("design").1
    };
    report.check_order_desc(
        "custom_moves_most_bytes",
        "Custom sustains the highest BPExt MB/s, then SMBDirect, then SSD",
        &[
            ("Custom", pick(&steady_mbs, "Custom")),
            (
                "SMBDirect+RamDrive",
                pick(&steady_mbs, "SMBDirect+RamDrive"),
            ),
            ("HDD+SSD", pick(&steady_mbs, "HDD+SSD")),
        ],
        2.0,
    );
    report.check_ratio_ge(
        "custom_cpu_bound",
        "Custom burns at least 3x the CPU of the disk-bound HDD+SSD design",
        ("Custom CPU%", pick(&steady_cpu, "Custom")),
        ("HDD+SSD CPU%", pick(&steady_cpu, "HDD+SSD")),
        3.0,
    );
    report.check_ratio_ge(
        "smbdirect_lat_penalty",
        "SMBDirect page reads pay >= 3x Custom's latency (async I/O + SMB)",
        ("SMBDirect us", pick(&steady_lat, "SMBDirect+RamDrive")),
        ("Custom us", pick(&steady_lat, "Custom")),
        3.0,
    );
    report.gauge("custom_steady_mbs", pick(&steady_mbs, "Custom"), 10.0);
    report.gauge("custom_read_lat_us", pick(&steady_lat, "Custom"), 15.0);
    report.finish();
}
