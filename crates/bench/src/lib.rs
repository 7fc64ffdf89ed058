//! # remem-bench — harness shared by the `repro_*` figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index, `EXPERIMENTS.md` for measured output).
//! This library holds the shared scaffolding: standard cluster/option
//! presets and aligned-table printing.

pub mod check;
pub mod json;
pub mod report;

pub use report::Report;

use remem::{Cluster, DbOptions};
use remem_sim::{Clock, SimDuration, SimTime};

/// Windowed utilization of a cumulative-utilization resource: the busy
/// fraction within `[t0, t1]` given cumulative utilizations at both
/// instants.
pub fn windowed_util(u1: f64, t1: SimTime, u0: f64, t0: SimTime) -> f64 {
    let span = (t1.as_nanos() - t0.as_nanos()) as f64;
    if span <= 0.0 {
        return 0.0;
    }
    ((u1 * t1.as_nanos() as f64 - u0 * t0.as_nanos() as f64) / span).clamp(0.0, 1.0)
}

/// Format a `SimDuration` as fractional milliseconds.
pub fn ms(d: SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// Run `tasks` across `streams` concurrent workers (the paper's TPC runs
/// use 5 streams, Table 4), dealing tasks round-robin and always advancing
/// the worker with the smallest clock. Returns the makespan and each task's
/// measured latency.
pub fn run_streams(
    start: SimTime,
    streams: usize,
    tasks: &[usize],
    mut run: impl FnMut(&mut Clock, usize),
) -> (SimDuration, Vec<(usize, SimDuration)>) {
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); streams];
    for (i, &t) in tasks.iter().enumerate() {
        queues[i % streams].push(t);
    }
    for q in &mut queues {
        q.reverse(); // pop() runs them in deal order
    }
    let mut clocks: Vec<Clock> = (0..streams).map(|_| Clock::starting_at(start)).collect();
    let mut latencies = Vec::with_capacity(tasks.len());
    loop {
        let next = clocks
            .iter()
            .enumerate()
            .filter(|(i, _)| !queues[*i].is_empty())
            .min_by_key(|(i, c)| (c.now(), *i))
            .map(|(i, _)| i);
        let Some(w) = next else { break };
        let task = queues[w].pop().expect("non-empty queue");
        let t0 = clocks[w].now();
        run(&mut clocks[w], task);
        latencies.push((task, clocks[w].now().since(t0)));
    }
    let makespan = clocks
        .iter()
        .map(|c| c.now())
        .max()
        .unwrap_or(start)
        .since(start);
    (makespan, latencies)
}

/// Print the standard experiment header (scale note included, since all
/// data sizes are the paper's divided by 1000).
pub fn header(figure: &str, what: &str) {
    println!("==============================================================");
    println!("{figure}: {what}");
    println!(
        "scale = paper sizes / {}, device constants unchanged",
        remem_workloads::SCALE_DENOMINATOR
    );
    println!("==============================================================");
}

/// A fresh two-donor cluster with enough memory for the standard presets.
pub fn standard_cluster() -> Cluster {
    Cluster::builder()
        .memory_servers(2)
        .memory_per_server(192 << 20)
        .build()
}

/// A cluster with `n` donors of `bytes` each, spread placement.
pub fn spread_cluster(n: usize, bytes: u64) -> Cluster {
    Cluster::builder()
        .memory_servers(n)
        .memory_per_server(bytes)
        .placement(remem::PlacementPolicy::Spread)
        .build()
}

/// RangeScan-shaped sizing (Table 4 row 1, scaled).
pub fn rangescan_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 2 << 20,
        bpext_bytes: 32 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 256 << 20,
        spindles,
        oltp: true,
        workspace_bytes: None,
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// Hash+Sort-shaped sizing (Table 4 row 2, scaled): scans cached, grants
/// capped so both operators spill.
pub fn hashsort_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 64 << 20,
        bpext_bytes: 8 << 20,
        tempdb_bytes: 128 << 20,
        data_bytes: 256 << 20,
        spindles,
        oltp: false,
        workspace_bytes: Some(1 << 20),
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// Decision-support sizing (TPC-H / TPC-DS rows of Table 4, scaled).
pub fn dss_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 16 << 20,
        bpext_bytes: 64 << 20,
        tempdb_bytes: 64 << 20,
        data_bytes: 512 << 20,
        spindles,
        oltp: false,
        workspace_bytes: Some(2 << 20),
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// OLTP sizing (TPC-C row of Table 4, scaled).
pub fn tpcc_opts(spindles: usize) -> DbOptions {
    DbOptions {
        pool_bytes: 4 << 20,
        bpext_bytes: 16 << 20,
        tempdb_bytes: 8 << 20,
        data_bytes: 256 << 20,
        spindles,
        oltp: true,
        workspace_bytes: None,
        replicas: 1,
        fault_log: None,
        metrics: None,
        remote_wal: false,
        wal_ring_bytes: 8 << 20,
    }
}

/// Render one aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print an aligned table with a left-justified first column.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<w$}", w = widths[0])
                } else {
                    format!("{c:>w$}", w = widths[i])
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        let c = standard_cluster();
        assert_eq!(c.memory_servers.len(), 2);
        assert!(rangescan_opts(20).oltp);
        assert!(!hashsort_opts(20).oltp);
        assert!(dss_opts(20).workspace_bytes.is_some());
        assert!(tpcc_opts(20).oltp);
    }

    #[test]
    fn table_renders_aligned() {
        // smoke: must not panic on ragged content
        print_table(
            &["design", "value"],
            &[
                vec!["Custom".into(), "42".into()],
                vec!["HDD".into(), "1".into()],
            ],
        );
    }
}
