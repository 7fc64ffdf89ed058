//! Per-layer metrics of a traced run.
//!
//! Counts come from the engine's own statistics and from the registry the
//! cluster publishes into, each taken as the difference between a probe at
//! the start of the measured window and one at its end. Virtual time below
//! the engine API comes from the registry's `rfile.*`, `net.*` and
//! `storage.*` spans; host and virtual time at the API come from the
//! benchmark's own spans. Every ratio keeps its base.

use std::collections::BTreeMap;

use remem_engine::bufferpool::BpStats;
use remem_engine::page::PAGE_SIZE;
use remem_engine::{Database, WalStats};
use remem_sim::MetricsRegistry;

use crate::stats::{percentile, sorted, Ratio};
use crate::trace::SpanAgg;
use crate::workloads::TPCC_TX;

/// Engine calls the benchmark wraps in spans.
pub const ENGINE_CALLS: [&str; 3] = ["engine.range", "engine.join_hash", "engine.sort_rows"];

/// One per-layer metric with the numbers it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub layer: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was formed, e.g. `"1234 evictions / 617 ops"`.
    pub base: String,
    /// True for counts and virtual times, which repeat exactly for one
    /// seed; false for host times.
    pub deterministic: bool,
}

/// The layer a span name belongs to.
pub fn span_layer(name: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 10] = [
        ("tpcc.", "workloads::tpcc"),
        ("engine.", "engine"),
        ("storage.bpext.", "engine::bufferpool"),
        ("storage.log.", "engine::wal"),
        ("storage.tempdb.", "engine::tempdb"),
        ("storage.", "storage"),
        ("rfile.", "rfile"),
        ("net.", "net"),
        ("setup.", "setup"),
        ("op", "driver"),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map(|(_, l)| *l)
        .unwrap_or("other")
}

/// Window-boundary snapshot of every count the per-layer metrics use.
#[derive(Debug, Clone)]
pub struct Probe {
    counters: BTreeMap<String, u64>,
    /// Registry span `(total_ns, self_ns)` by name.
    spans: BTreeMap<String, (u64, u64)>,
    nic_read_lat_len: usize,
    batches: usize,
    batched_wrs: u64,
    bp: BpStats,
    wal: WalStats,
    spilled: u64,
    read_back: u64,
    pub tempdb_pages: u64,
}

impl Probe {
    pub fn take(reg: &MetricsRegistry, db: &Database) -> Probe {
        let snap = reg.snapshot();
        let batch = reg.histogram("fabric.batch.size").raw_samples();
        Probe {
            counters: snap.counters.into_iter().collect(),
            spans: snap
                .spans
                .into_iter()
                .map(|(n, s)| (n, (s.total_ns, s.self_ns)))
                .collect(),
            nic_read_lat_len: reg.histogram("nic.read.lat").len(),
            batches: batch.len(),
            batched_wrs: batch.iter().sum(),
            bp: db.bp_stats(),
            wal: db.wal().stats(),
            spilled: db.tempdb().bytes_spilled(),
            read_back: db.tempdb().bytes_read_back(),
            tempdb_pages: db.tempdb().file().allocated_pages(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Registry span `(total_ns, self_ns)` of `name` at this probe.
    pub fn span_totals(&self, name: &str) -> (u64, u64) {
        self.spans.get(name).copied().unwrap_or((0, 0))
    }
}

/// Everything a traced run measured, gathered for [`per_layer`].
pub struct Traced<'a> {
    pub reg: &'a MetricsRegistry,
    pub before: &'a Probe,
    pub after: &'a Probe,
    /// The benchmark's spans of the traced window, by name.
    pub spans: &'a BTreeMap<&'static str, SpanAgg>,
    /// Successful ops in the traced window: the base of every "per op".
    pub ok_ops: u64,
    /// Host seconds of the traced window.
    pub window_host_s: f64,
    /// Host µs outside the op spans, in the driver and the bench loop.
    pub driver_self_host_us: f64,
    /// Untraced set-up phase times, in host seconds.
    pub setup: [f64; 3],
    /// Host seconds of the untraced window.
    pub untraced_host_s: f64,
    /// Largest relative difference of a `sim_*` metric, traced vs not.
    pub sim_drift: f64,
    pub sim_drift_detail: String,
}

/// Compute every per-layer metric, in the order of `BENCHMARK.json`.
pub fn per_layer(t: &Traced) -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let ops = t.ok_ops as f64;
    let (a, b) = (t.before, t.after);
    let dc = |name: &str| (b.counter(name) - a.counter(name)) as f64;
    let dspan = |name: &str| {
        let ((t1, s1), (t0, s0)) = (b.span_totals(name), a.span_totals(name));
        ((t1 - t0) as f64, (s1 - s0) as f64)
    };
    let mut push = |name: &str, layer, unit, value: f64, base: String, det: bool| {
        out.push(LayerMetric {
            name: name.to_string(),
            layer,
            unit,
            value,
            base,
            deterministic: det,
        })
    };
    let per_op = |num: f64, what: &str| {
        let r = Ratio::new(num, ops);
        (r.value(), format!("{num} {what} / {ops} ops"))
    };

    // driver + bench loop
    let r = Ratio::new(t.driver_self_host_us, ops);
    push(
        "driver.self_host_us_per_op",
        "driver",
        "us/op",
        r.value(),
        format!("{:.0} host us outside op spans / {ops} ops", r.num),
        false,
    );

    // span-level p50s: TPC-C transactions, then engine calls
    let p50 = |name: &str| -> (u64, f64, f64) {
        t.spans.get(name).map_or((0, 0.0, 0.0), |s| {
            (
                s.count,
                percentile(&sorted(&s.host_us), 50.0),
                percentile(&sorted(&s.sim_us), 50.0),
            )
        })
    };
    for tx in TPCC_TX {
        let (n, host, sim) = p50(tx);
        let base = format!("p50 of {n} spans");
        push(
            &format!("{tx}.host_us"),
            "workloads::tpcc",
            "us",
            host,
            base.clone(),
            false,
        );
        push(
            &format!("{tx}.sim_us"),
            "workloads::tpcc",
            "us",
            sim,
            base,
            true,
        );
    }
    for call in ENGINE_CALLS {
        let (n, host, sim) = p50(call);
        let base = format!("p50 of {n} calls");
        push(
            &format!("{call}.calls"),
            "engine",
            "count",
            n as f64,
            format!("{n} calls in the window"),
            true,
        );
        push(
            &format!("{call}.host_us"),
            "engine",
            "us",
            host,
            base.clone(),
            false,
        );
        push(&format!("{call}.sim_us"), "engine", "us", sim, base, true);
    }

    // buffer pool and BPExt
    let (bp0, bp1) = (&a.bp, &b.bp);
    let hits = (bp1.hits - bp0.hits) as f64;
    let misses = (bp1.misses - bp0.misses) as f64;
    let ext_hits = (bp1.ext_hits - bp0.ext_hits) as f64;
    let base_reads = (bp1.base_reads - bp0.base_reads) as f64;
    let bp = "engine::bufferpool";
    push(
        "bp.hit_ratio",
        bp,
        "frac",
        Ratio::new(hits, hits + misses).value(),
        format!("{hits} hits / {} lookups", hits + misses),
        true,
    );
    push(
        "bpext.hit_ratio",
        bp,
        "frac",
        Ratio::new(ext_hits, ext_hits + base_reads).value(),
        format!(
            "{ext_hits} ext hits / {} ext hits + base reads",
            ext_hits + base_reads
        ),
        true,
    );
    for (name, num, what) in [
        (
            "bp.evictions_per_op",
            bp1.evictions - bp0.evictions,
            "evictions",
        ),
        (
            "bp.dirty_flushes_per_op",
            bp1.dirty_flushes - bp0.dirty_flushes,
            "dirty flushes",
        ),
        (
            "bpext.writes_per_op",
            bp1.ext_writes - bp0.ext_writes,
            "BPExt writes",
        ),
    ] {
        let (v, base) = per_op(num as f64, what);
        push(name, bp, "1/op", v, base, true);
    }

    // WAL and the log device
    let wal = "engine::wal";
    let groups = (b.wal.groups - a.wal.groups) as f64;
    let records = (b.wal.records - a.wal.records) as f64;
    let (v, base) = per_op(groups, "groups");
    push("wal.groups_per_op", wal, "1/op", v, base, true);
    let r = Ratio::new(records, groups);
    push(
        "wal.records_per_group",
        wal,
        "1/group",
        r.value(),
        format!("{records} records / {groups} groups"),
        true,
    );
    let (v, base) = per_op((b.wal.append_bytes - a.wal.append_bytes) as f64, "bytes");
    push("wal.bytes_per_op", wal, "B/op", v, base, true);
    let (v, base) = per_op(dc("storage.log.force.ops"), "log forces");
    push("storage.log.force_ops_per_op", wal, "1/op", v, base, true);
    let (v, base) = per_op(
        dspan("storage.log.write").0 / 1e3,
        "virtual us in log writes",
    );
    push(
        "storage.log.write.sim_us_per_op",
        wal,
        "us/op",
        v,
        base,
        true,
    );

    // TempDB
    let td = "engine::tempdb";
    let spilled = (b.spilled - a.spilled) as f64;
    let (v, base) = per_op(spilled, "bytes spilled");
    push("tempdb.spill_bytes_per_query", td, "B/op", v, base, true);
    let (v, base) = per_op((b.read_back - a.read_back) as f64, "bytes read back");
    push("tempdb.readback_bytes_per_query", td, "B/op", v, base, true);
    let alloc = ((b.tempdb_pages - a.tempdb_pages) * PAGE_SIZE as u64) as f64;
    push(
        "tempdb.alloc_bytes_per_spill_byte",
        td,
        "B/B",
        Ratio::new(alloc, spilled).value(),
        format!("{alloc} bytes allocated / {spilled} bytes spilled"),
        true,
    );
    push(
        "tempdb.pages_allocated",
        td,
        "count",
        b.tempdb_pages as f64,
        format!("{} of the file's pages, at window end", b.tempdb_pages),
        true,
    );

    // rfile
    for dir in ["read", "write"] {
        let (v, base) = per_op(dc(&format!("rfile.{dir}.ops")), &format!("rfile {dir}s"));
        push(
            &format!("rfile.{dir}.ops_per_op"),
            "rfile",
            "1/op",
            v,
            base,
            true,
        );
        let (v, base) = per_op(dc(&format!("rfile.{dir}.bytes")), "bytes");
        push(
            &format!("rfile.{dir}.bytes_per_op"),
            "rfile",
            "B/op",
            v,
            base,
            true,
        );
    }
    let retries = dc("rfile.retries");
    push(
        "rfile.retries",
        "rfile",
        "count",
        retries,
        format!("{retries} retries in the window"),
        true,
    );
    for dir in ["read", "write"] {
        let (v, base) = per_op(dspan(&format!("rfile.{dir}")).1 / 1e3, "virtual self us");
        push(
            &format!("rfile.{dir}.self_sim_us_per_op"),
            "rfile",
            "us/op",
            v,
            base,
            true,
        );
    }

    // net: fabric and NIC
    for dir in ["read", "write"] {
        let (v, base) = per_op(dc(&format!("fabric.{dir}.bytes")), "bytes");
        push(
            &format!("fabric.{dir}.bytes_per_op"),
            "net",
            "B/op",
            v,
            base,
            true,
        );
    }
    // a scalar verb rings its own doorbell; a batch rings one for all its WRs
    let wrs = dc("nic.read.ops") + dc("nic.write.ops");
    let batched = (b.batched_wrs - a.batched_wrs) as f64;
    let doorbells = dc("fabric.batch.doorbells") + (wrs - batched);
    push(
        "fabric.wrs_per_doorbell",
        "net",
        "1/doorbell",
        Ratio::new(wrs, doorbells).value(),
        format!(
            "{wrs} WRs / {doorbells} doorbells ({} batches)",
            b.batches - a.batches
        ),
        true,
    );
    let lat: Vec<f64> = t.reg.histogram("nic.read.lat").raw_samples()
        [a.nic_read_lat_len..b.nic_read_lat_len]
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    push(
        "nic.read.lat_p50_us",
        "net",
        "us",
        percentile(&sorted(&lat), 50.0),
        format!("p50 of {} NIC reads", lat.len()),
        true,
    );
    for dir in ["read", "write"] {
        let (v, base) = per_op(dspan(&format!("net.{dir}")).0 / 1e3, "virtual us");
        push(
            &format!("net.{dir}.sim_us_per_op"),
            "net",
            "us/op",
            v,
            base,
            true,
        );
    }

    // the data file
    for dir in ["read", "write"] {
        let (v, base) = per_op(dc(&format!("storage.data.{dir}.ops")), "device ops");
        push(
            &format!("storage.data.{dir}.ops_per_op"),
            "storage",
            "1/op",
            v,
            base,
            true,
        );
    }
    let (v, base) = per_op(dspan("storage.data.read").0 / 1e3, "virtual us");
    push(
        "storage.data.read.sim_us_per_op",
        "storage",
        "us/op",
        v,
        base,
        true,
    );

    // set-up: host phases of the untraced set-up, cluster-wide counts
    for (name, s) in ["setup.build_s", "setup.load_s", "setup.warmup_s"]
        .into_iter()
        .zip(t.setup)
    {
        push(
            name,
            "setup",
            "s",
            s,
            "host seconds, untraced set-up".into(),
            false,
        );
    }
    for name in ["broker.leases.granted", "fabric.mr.registrations"] {
        let n = b.counter(name) as f64;
        push(
            name,
            "setup",
            "count",
            n,
            format!("{n} since the cluster was built"),
            true,
        );
    }

    // trace health
    let r = Ratio::new(t.window_host_s - t.untraced_host_s, t.untraced_host_s);
    push(
        "trace.overhead_frac",
        "trace",
        "frac",
        r.value(),
        format!(
            "({:.3} traced - {:.3} untraced) / {:.3} host s",
            t.window_host_s, t.untraced_host_s, t.untraced_host_s
        ),
        false,
    );
    push(
        "trace.sim_drift",
        "trace",
        "frac",
        t.sim_drift,
        t.sim_drift_detail.clone(),
        true,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_bench::rangescan_opts;
    use remem_sim::Clock;
    use std::sync::Arc;

    /// Ratios divide window deltas by the successful ops of the window.
    #[test]
    fn per_op_bases_are_window_deltas_over_successful_ops() {
        let reg = Arc::new(MetricsRegistry::new());
        let cluster = remem::Cluster::builder()
            .memory_servers(1)
            .memory_per_server(64 << 20)
            .metrics(Arc::clone(&reg))
            .build();
        let mut clock = Clock::new();
        let db = remem::Design::Custom
            .build(&cluster, &mut clock, &rangescan_opts(20))
            .unwrap();
        let table = remem_workloads::rangescan::load_customer(&db, &mut clock, 2_000);
        let before = Probe::take(&reg, &db);
        for start in [0, 500, 1_000, 1_500] {
            db.range(&mut clock, table, start, start + 100).unwrap();
        }
        let after = Probe::take(&reg, &db);
        let spans = BTreeMap::new();
        let t = Traced {
            reg: &reg,
            before: &before,
            after: &after,
            spans: &spans,
            ok_ops: 4,
            window_host_s: 1.0,
            driver_self_host_us: 8.0,
            setup: [0.0; 3],
            untraced_host_s: 0.5,
            sim_drift: 0.0,
            sim_drift_detail: String::new(),
        };
        let m = per_layer(&t);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().clone();
        assert_eq!(get("driver.self_host_us_per_op").value, 2.0);
        let lookups = (after.bp.hits - before.bp.hits) + (after.bp.misses - before.bp.misses);
        assert!(lookups > 0);
        let ev = get("bp.evictions_per_op");
        let n_ev = (after.bp.evictions - before.bp.evictions) as f64;
        assert_eq!(ev.value, n_ev / 4.0);
        assert_eq!(ev.base, format!("{n_ev} evictions / 4 ops"));
        // nothing was written to the log inside the window
        assert_eq!(get("wal.groups_per_op").value, 0.0);
        assert_eq!(get("trace.overhead_frac").value, 1.0);
        // counts taken since the cluster was built are totals, not deltas
        assert!(get("fabric.mr.registrations").value > 0.0);
    }

    #[test]
    fn spans_map_to_layers() {
        assert_eq!(span_layer("storage.bpext.read"), "engine::bufferpool");
        assert_eq!(span_layer("storage.data.read"), "storage");
        assert_eq!(span_layer("tpcc.payment"), "workloads::tpcc");
        assert_eq!(span_layer("op"), "driver");
        assert_eq!(span_layer("net.write"), "net");
    }
}
