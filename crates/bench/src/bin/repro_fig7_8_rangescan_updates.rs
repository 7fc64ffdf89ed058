//! Figures 7 & 8: RangeScan with 20 % updates — throughput and latency per
//! design alternative, at 4 / 8 / 20 log spindles.
//!
//! Paper: all remote-memory designs beat BPExt-on-SSD; more spindles raise
//! throughput because updates append to the HDD transaction log.

use remem::{Cluster, Design};
use remem_bench::{rangescan_opts, Report};
use remem_sim::{Clock, SimDuration};
use remem_workloads::rangescan::{load_customer, run_rangescan, RangeScanParams};

const ROWS: u64 = 60_000;

fn main() {
    let mut report = Report::new(
        "repro_fig7_8_rangescan_updates",
        "Fig 7/8",
        "RangeScan (20% updates): throughput & latency x design x spindles",
    );
    let mut tput_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut tput20 = Vec::new();
    let mut custom_by_spindles = Vec::new();
    for design in Design::ALL {
        let mut tput = vec![design.label().to_string()];
        let mut lat = vec![design.label().to_string()];
        for spindles in [4usize, 8, 20] {
            let cluster = Cluster::builder()
                .memory_servers(2)
                .memory_per_server(96 << 20)
                .metrics(report.registry())
                .build();
            let mut clock = Clock::new();
            let db = design
                .build(&cluster, &mut clock, &rangescan_opts(spindles))
                .expect("build design");
            let t = load_customer(&db, &mut clock, ROWS);
            let p = RangeScanParams {
                workers: 80,
                update_fraction: 0.2,
                duration: SimDuration::from_millis(400),
                ..Default::default()
            };
            let s = run_rangescan(&db, t, &p, clock.now());
            tput.push(format!("{:.0}", s.throughput_per_sec));
            lat.push(format!("{:.1}", s.mean_latency_us / 1000.0));
            if spindles == 20 {
                tput20.push((design.label().to_string(), s.throughput_per_sec));
            }
            if design == Design::Custom {
                custom_by_spindles.push((spindles.to_string(), s.throughput_per_sec));
            }
        }
        tput_rows.push(tput);
        lat_rows.push(lat);
    }
    report.table(
        "Throughput (queries/sec) — Fig 7:",
        &["design", "4 spindles", "8 spindles", "20 spindles"],
        tput_rows,
    );
    report.table(
        "Mean latency (ms) — Fig 8:",
        &["design", "4 spindles", "8 spindles", "20 spindles"],
        lat_rows,
    );
    report.series("tput_20spindles", &tput20);
    report.series("custom_tput_by_spindles", &custom_by_spindles);
    report.blank();
    let find = |label: &str| tput20.iter().find(|(l, _)| l == label).expect("design").1;
    report.check_order_desc(
        "remote_beats_ssd_beats_hdd",
        "Custom >= SMBDirect >= SMB >= HDD+SSD >= HDD at 20 spindles",
        &[
            ("Custom", find("Custom")),
            ("SMBDirect+RamDrive", find("SMBDirect+RamDrive")),
            ("SMB+RamDrive", find("SMB+RamDrive")),
            ("HDD+SSD", find("HDD+SSD")),
            ("HDD", find("HDD")),
        ],
        2.0,
    );
    report.check_ratio_ge(
        "custom_near_local",
        "Custom within ~15% of Local Memory despite remote BPExt",
        ("Custom", find("Custom")),
        ("Local Memory * 0.85", find("Local Memory") * 0.85),
        1.0,
    );
    report.check_order_asc(
        "custom_scales_with_log_spindles",
        "update log appends benefit from spindles (throughput non-decreasing)",
        &custom_by_spindles,
        5.0,
    );
    report.gauge("custom_tput_20spindles", find("Custom"), 10.0);
    report.gauge("hddssd_tput_20spindles", find("HDD+SSD"), 10.0);
    report.finish();
}
