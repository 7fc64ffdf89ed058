//! The three workloads, each on the paper's `Design::Custom` and driven
//! only through public calls: cluster and design builders, `Database`,
//! the `remem_workloads` generators and TPC-C transactions.
//!
//! Every op runs under a span named after the public call it makes, and
//! each workload carries its own output oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use remem::{Cluster, Design, StorageError};
use remem_bench::json::fnv1a_64;
use remem_engine::exec::sum_float;
use remem_engine::{Database, DbError, Row, TableId};
use remem_sim::rng::SimRng;
use remem_sim::{Clock, ClosedLoopDriver, Histogram, MetricsRegistry, SimDuration, SimTime};
use remem_workloads::{hashsort, rangescan, tpcc};

use crate::trace::Tracer;

/// What one op came to.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    /// A public call returned `Err`; the payload is the error kind.
    Err(String),
    /// The oracle rejected the op's result.
    Wrong(String),
}

/// The three workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RangeScan,
    Tpcc,
    HashSort,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::RangeScan, Kind::Tpcc, Kind::HashSort];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RangeScan => "rangescan_bpext",
            Kind::Tpcc => "tpcc_default",
            Kind::HashSort => "hashsort_spill",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Virtual clients inside the closed-loop driver.
    pub fn workers(self) -> usize {
        match self {
            Kind::RangeScan => RS_WORKERS,
            Kind::Tpcc => TPCC_WORKERS,
            Kind::HashSort => HS_STREAMS,
        }
    }

    /// The virtual window of each of a run's repetitions when the run is
    /// asked to measure for `seconds`. It is a fixed function of
    /// `seconds`, never of host speed, so every virtual metric repeats
    /// exactly for one seed. The rates are sized so the five untraced
    /// windows of a run take about `seconds` of host time together on a
    /// 2-core 2.1 GHz Xeon VM, and so each window's op count stays clear of
    /// a step of the tail-percentile ladder.
    pub fn window(self, seconds: u64) -> SimDuration {
        let per_host_s_us = match self {
            Kind::RangeScan => RS_VIRTUAL_US_PER_HOST_S,
            Kind::Tpcc => TPCC_VIRTUAL_US_PER_HOST_S,
            Kind::HashSort => HS_VIRTUAL_US_PER_HOST_S,
        };
        SimDuration::from_micros(seconds * per_host_s_us)
    }

    /// Build the cluster and database, load, checkpoint and warm up.
    pub fn setup(
        self,
        seed: u64,
        metrics: Option<Arc<MetricsRegistry>>,
        tr: &mut Tracer,
    ) -> Result<(Box<dyn Workload>, SetupTimes), String> {
        let t0 = tr.host_us();
        let mut clock = Clock::new();
        tr.enter("setup.build", clock.now());
        let mut builder = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(192 << 20);
        if let Some(m) = metrics {
            builder = builder.metrics(m);
        }
        let cluster = builder.build();
        let opts = match self {
            Kind::RangeScan => remem_bench::rangescan_opts(20),
            Kind::Tpcc => remem_bench::tpcc_opts(20),
            Kind::HashSort => remem_bench::hashsort_opts(20),
        };
        let db = Design::Custom
            .build(&cluster, &mut clock, &opts)
            .map_err(|e| format!("Design::build: {e}"))?;
        tr.exit(clock.now());
        let t1 = tr.host_us();
        tr.enter("setup.load", clock.now());
        let mut w: Box<dyn Workload> = match self {
            Kind::RangeScan => Box::new(RangeScan::load(cluster, db, &mut clock, seed)),
            Kind::Tpcc => Box::new(Tpcc::load(cluster, db, &mut clock, seed)),
            Kind::HashSort => Box::new(HashSort::load(cluster, db, &mut clock, seed)),
        };
        tr.exit(clock.now());
        let t2 = tr.host_us();
        tr.enter("setup.warmup", clock.now());
        let start = w.warm_up(&mut clock)?;
        tr.exit(start);
        let t3 = tr.host_us();
        Ok((
            w,
            SetupTimes {
                build_s: (t1 - t0) / 1e6,
                load_s: (t2 - t1) / 1e6,
                warmup_s: (t3 - t2) / 1e6,
                start,
            },
        ))
    }
}

/// Host seconds of each set-up phase, and where the measured window starts
/// in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub build_s: f64,
    pub load_s: f64,
    pub warmup_s: f64,
    pub start: SimTime,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.load_s + self.warmup_s
    }
}

/// One loaded, warmed-up workload.
pub trait Workload {
    fn db(&self) -> &Database;
    /// Pages the loaded tables take: the working set to size caches against.
    fn data_pages(&self) -> u64;
    /// Warm the caches; returns the virtual instant the window starts at.
    fn warm_up(&mut self, clock: &mut Clock) -> Result<SimTime, String>;
    /// One op of the closed loop, on its virtual client's clock.
    fn op(&mut self, clock: &mut Clock, tr: &mut Tracer) -> Outcome;
    /// Oracle checks that need the whole window; each entry is a
    /// rejected result.
    fn verify(&self) -> Vec<String>;
    /// Lines describing each op, printed after the window.
    fn op_log(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Closed-loop warm-up of `virtual_time` from `clock`; returns the
/// makespan, so the window starts after every warm-up op has ended.
fn warm_loop(
    w: &mut dyn Workload,
    workers: usize,
    clock: &Clock,
    virtual_time: SimDuration,
) -> Result<SimTime, String> {
    let start = clock.now();
    let mut quiet = Tracer::new(false);
    let mut bad = None;
    let mut driver = ClosedLoopDriver::new(workers, start + virtual_time).starting_at(start);
    let out = driver.run_outcome(&Histogram::new(), |_, c| {
        if let o @ (Outcome::Err(_) | Outcome::Wrong(_)) = w.op(c, &mut quiet) {
            bad.get_or_insert(o);
        }
    });
    match bad {
        None => Ok(out.makespan),
        Some(o) => Err(format!("warm-up op failed: {o:?}")),
    }
}

/// The error kind of `e`, without its payload.
pub fn error_kind(e: &DbError) -> String {
    match e {
        DbError::Storage(s) => format!(
            "Storage({})",
            match s {
                StorageError::OutOfBounds { .. } => "OutOfBounds",
                StorageError::Unavailable(_) => "Unavailable",
                StorageError::Transient(_) => "Transient",
            }
        ),
        DbError::NoSuchTable(_) => "NoSuchTable".into(),
        DbError::DuplicateKey { .. } => "DuplicateKey".into(),
    }
}

/// An independent RNG stream for `purpose` under the run's seed.
fn stream(seed: u64, purpose: u64) -> SimRng {
    SimRng::for_worker(seed, purpose)
}

// ---------------------------------------------------------------------
// rangescan_bpext
// ---------------------------------------------------------------------

const RS_ROWS: u64 = 60_000;
const RS_RANGE: u64 = 100;
const RS_WORKERS: usize = 80;
const RS_WARMUP: SimDuration = SimDuration::from_millis(300);
const RS_VIRTUAL_US_PER_HOST_S: u64 = 80_000;

/// Read-only RangeScan over a customer table larger than the local pool.
pub struct RangeScan {
    _cluster: Cluster,
    db: Arc<Database>,
    table: TableId,
    rng: SimRng,
}

impl RangeScan {
    fn load(cluster: Cluster, db: Arc<Database>, clock: &mut Clock, seed: u64) -> RangeScan {
        let table = rangescan::load_customer(&db, clock, RS_ROWS);
        RangeScan {
            _cluster: cluster,
            db,
            table,
            rng: stream(seed, 1),
        }
    }
}

/// Σ acctbal over `[start, start + range)` from `customer_row`'s closed
/// form `acctbal(k) = (k mod 10,000) / 7`.
pub fn expected_acctbal(start: i64, range: i64) -> f64 {
    let total: i64 = (start..start + range).map(|k| k % 10_000).sum();
    total as f64 / 7.0
}

impl Workload for RangeScan {
    fn db(&self) -> &Database {
        &self.db
    }

    fn data_pages(&self) -> u64 {
        self.db.table_pages(self.table)
    }

    fn warm_up(&mut self, clock: &mut Clock) -> Result<SimTime, String> {
        // a full scan, then long enough a closed loop that the BPExt
        // settles: after a 50 ms loop the first part of a window still met
        // capacity misses that read the data file, which swung the tail
        // from ~1.9 to ~8 ms between seeds
        self.db
            .scan(clock, self.table)
            .map_err(|e| format!("warm-up scan: {e}"))?;
        warm_loop(self, RS_WORKERS, clock, RS_WARMUP)
    }

    fn op(&mut self, clock: &mut Clock, tr: &mut Tracer) -> Outcome {
        let start = self.rng.uniform(0, RS_ROWS - RS_RANGE) as i64;
        let end = start + RS_RANGE as i64;
        let db = &self.db;
        let mut ctx = db.exec_ctx(clock);
        ctx.charge(ctx.costs.statement_overhead);
        drop(ctx);
        let rows = match tr.span("engine.range", clock, |c| {
            db.range(c, self.table, start, end)
        }) {
            Ok(rows) => rows,
            Err(e) => return Outcome::Err(error_kind(&e)),
        };
        let sum = sum_float(&mut db.exec_ctx(clock), &rows, 2);
        let keys_ok =
            rows.len() == RS_RANGE as usize && rows.iter().zip(start..).all(|(r, k)| r.int(0) == k);
        if !keys_ok {
            return Outcome::Wrong(format!(
                "range [{start}, {end}) returned {} rows, not the contiguous keys",
                rows.len()
            ));
        }
        let want = expected_acctbal(start, RS_RANGE as i64);
        if (sum - want).abs() > 1e-9 * want.abs().max(1.0) {
            return Outcome::Wrong(format!(
                "range [{start}, {end}): sum(acctbal) {sum} != {want}"
            ));
        }
        Outcome::Ok
    }

    fn verify(&self) -> Vec<String> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// tpcc_default
// ---------------------------------------------------------------------

const TPCC_WAREHOUSES: i64 = 24;
const TPCC_WORKERS: usize = 300;
const TPCC_WARMUP: SimDuration = SimDuration::from_millis(20);
const TPCC_VIRTUAL_US_PER_HOST_S: u64 = 30_000;

/// Span names of the five transaction types, in `Mix` order.
pub const TPCC_TX: [&str; 5] = [
    "tpcc.new_order",
    "tpcc.payment",
    "tpcc.order_status",
    "tpcc.delivery",
    "tpcc.stock_level",
];

/// The TPC-C default mix on `tpcc_opts`.
pub struct Tpcc {
    _cluster: Cluster,
    db: Arc<Database>,
    t: tpcc::Tpcc,
    mix: [f64; 5],
    rng: SimRng,
}

impl Tpcc {
    fn load(cluster: Cluster, db: Arc<Database>, clock: &mut Clock, seed: u64) -> Tpcc {
        let params = tpcc::TpccParams {
            warehouses: TPCC_WAREHOUSES,
            seed: stream(seed, 2).next_u64(),
            ..Default::default()
        };
        let t = tpcc::load(&db, clock, &params);
        let m = tpcc::Mix::default_mix();
        Tpcc {
            _cluster: cluster,
            db,
            t,
            mix: [
                m.new_order,
                m.payment,
                m.order_status,
                m.delivery,
                m.stock_level,
            ],
            rng: stream(seed, 3),
        }
    }

    fn check_invariants(&self) -> Result<Vec<String>, DbError> {
        let mut clock = Clock::new();
        let mut bad = Vec::new();
        let p = &self.t.params;
        // `tpcc::load` starts every w_ytd and d_ytd at 0, so the current
        // values are the changes since the load
        let w_ytd = self.db.scan(&mut clock, self.t.warehouse)?;
        let districts = self.db.scan(&mut clock, self.t.district)?;
        for w in 0..p.warehouses {
            let dw = w_ytd[w as usize].float(1);
            let dd: f64 = (0..p.districts_per_wh)
                .map(|d| districts[self.t.district_key(w, d) as usize].float(1))
                .sum();
            if (dw - dd).abs() > 1e-6 * dw.abs().max(1.0) {
                bad.push(format!(
                    "warehouse {w}: w_ytd moved {dw}, its districts' d_ytd {dd}"
                ));
            }
        }
        // highest order id and line count per order, from one scan each
        let orders = self.db.scan(&mut clock, self.t.orders)?;
        let mut max_oid: BTreeMap<i64, i64> = BTreeMap::new();
        for o in &orders {
            let (dist, oid) = (o.int(0) / 10_000_000, o.int(0) % 10_000_000);
            let m = max_oid.entry(dist).or_insert(oid);
            *m = (*m).max(oid);
        }
        for d in &districts {
            let next = d.int(2);
            match max_oid.get(&d.int(0)) {
                Some(&m) if m + 1 == next => {}
                m => bad.push(format!(
                    "district {}: next order id {next}, highest order {m:?}",
                    d.int(0)
                )),
            }
        }
        let mut lines: BTreeMap<i64, i64> = BTreeMap::new();
        for l in self.db.scan(&mut clock, self.t.order_line)? {
            *lines.entry(l.int(0) / 16).or_insert(0) += 1;
        }
        for o in &orders {
            let have = lines.get(&o.int(0)).copied().unwrap_or(0);
            if have != o.int(3) {
                bad.push(format!(
                    "order {}: ol_cnt {} but {have} order lines",
                    o.int(0),
                    o.int(3)
                ));
            }
        }
        Ok(bad)
    }
}

impl Workload for Tpcc {
    fn db(&self) -> &Database {
        &self.db
    }

    fn data_pages(&self) -> u64 {
        let t = &self.t;
        [
            t.warehouse,
            t.district,
            t.customer,
            t.stock,
            t.item,
            t.orders,
            t.order_line,
            t.new_orders,
        ]
        .into_iter()
        .map(|id| self.db.table_pages(id))
        .sum()
    }

    fn warm_up(&mut self, clock: &mut Clock) -> Result<SimTime, String> {
        warm_loop(self, TPCC_WORKERS, clock, TPCC_WARMUP)
    }

    fn op(&mut self, clock: &mut Clock, tr: &mut Tracer) -> Outcome {
        let Tpcc {
            db, t, mix, rng, ..
        } = self;
        // the draw order of `tpcc::run_mix`: the type, then the body
        let x = rng.unit();
        let mut acc = 0.0;
        let kind = mix
            .iter()
            .position(|w| {
                acc += w;
                x < acc
            })
            .unwrap_or(4);
        tr.span(TPCC_TX[kind], clock, |c| match kind {
            0 => {
                tpcc::new_order(db, c, t, rng);
            }
            1 => tpcc::payment(db, c, t, rng),
            2 => {
                tpcc::order_status(db, c, t, rng);
            }
            3 => {
                tpcc::delivery(db, c, t, rng);
            }
            _ => {
                tpcc::stock_level(db, c, t, rng);
            }
        });
        Outcome::Ok
    }

    fn verify(&self) -> Vec<String> {
        self.check_invariants()
            .unwrap_or_else(|e| vec![format!("oracle scan failed: {e}")])
    }
}

// ---------------------------------------------------------------------
// hashsort_spill
// ---------------------------------------------------------------------

const HS_STREAMS: usize = 4;
const HS_WINDOW_ORDERS: (u64, u64) = (4_000, 6_001);
const HS_VIRTUAL_US_PER_HOST_S: u64 = 200_000;

/// One Hash+Sort query as run, for the oracle and the op log.
struct HsQuery {
    lo: i64,
    orders: i64,
    /// Result digest, or the error kind.
    result: Result<u64, String>,
    tempdb_pages: u64,
}

/// Repeated Hash+Sort queries over random order windows, spilling to the
/// remote TempDB.
pub struct HashSort {
    _cluster: Cluster,
    db: Arc<Database>,
    tables: hashsort::HashSortTables,
    top_n: usize,
    n_orders: u64,
    rng: SimRng,
    /// `totalprice` by orderkey, and `(lineid, extendedprice)` by lineid,
    /// both from one scan after the load.
    order_price: Vec<f64>,
    lines: Vec<(i64, f64)>,
    queries: Vec<HsQuery>,
}

/// Order-sensitive digest of a Top-N result: every row's lineid, price
/// and joined totalprice.
fn digest(rows: impl Iterator<Item = (i64, f64, f64)>) -> u64 {
    let mut bytes = Vec::new();
    for (id, price, total) in rows {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&price.to_bits().to_le_bytes());
        bytes.extend_from_slice(&total.to_bits().to_le_bytes());
    }
    fnv1a_64(&bytes)
}

impl HashSort {
    fn load(cluster: Cluster, db: Arc<Database>, clock: &mut Clock, seed: u64) -> HashSort {
        let params = hashsort::HashSortParams {
            seed: stream(seed, 4).next_u64(),
            ..Default::default()
        };
        let tables = hashsort::load_tables(&db, clock, &params);
        HashSort {
            _cluster: cluster,
            db,
            tables,
            top_n: params.top_n,
            n_orders: params.orders,
            rng: stream(seed, 5),
            order_price: Vec::new(),
            lines: Vec::new(),
            queries: Vec::new(),
        }
    }

    /// The query's answer from plain Rust over the post-load scan.
    fn expected(&self, lo: i64, orders: i64) -> u64 {
        let (first, last) = (lo * 8, (lo + orders) * 8);
        let from = self.lines.partition_point(|l| l.0 < first);
        let to = self.lines.partition_point(|l| l.0 < last);
        let mut joined: Vec<(i64, f64, f64)> = self.lines[from..to]
            .iter()
            .map(|&(id, price)| (id, price, self.order_price[(id / 8) as usize]))
            .collect();
        joined.sort_by(|a, b| a.1.total_cmp(&b.1));
        joined.truncate(self.top_n);
        digest(joined.into_iter())
    }

    fn query(
        &mut self,
        clock: &mut Clock,
        tr: &mut Tracer,
        lo: i64,
        n: i64,
    ) -> Result<u64, DbError> {
        let (db, t) = (&self.db, self.tables);
        let orders = tr.span("engine.range", clock, |c| db.range(c, t.orders, lo, lo + n))?;
        let lines = tr.span("engine.range", clock, |c| {
            db.range(c, t.lineitem, lo * 8, (lo + n) * 8)
        })?;
        // the join and Top-N of `hashsort::run_hash_sort`, on the window
        let joined = tr.span("engine.join_hash", clock, |c| {
            db.join_hash(
                c,
                orders,
                lines,
                |o| o.int(0),
                |l| l.int(1),
                |o, l| {
                    let mut v = l.0.clone();
                    v.push(o.0[2].clone());
                    Row::new(v)
                },
            )
        })?;
        let top = self.top_n;
        let sorted = tr.span("engine.sort_rows", clock, |c| {
            db.sort_rows(c, joined, |r| r.float(2), Some(top))
        })?;
        Ok(digest(
            sorted.iter().map(|r| (r.int(0), r.float(2), r.float(5))),
        ))
    }
}

impl Workload for HashSort {
    fn db(&self) -> &Database {
        &self.db
    }

    fn data_pages(&self) -> u64 {
        self.db.table_pages(self.tables.orders) + self.db.table_pages(self.tables.lineitem)
    }

    fn warm_up(&mut self, clock: &mut Clock) -> Result<SimTime, String> {
        // the one post-load scan: it warms the pool and feeds the oracle
        let scan = |clock: &mut Clock, t| self.db.scan(clock, t).map_err(|e| e.to_string());
        let orders = scan(clock, self.tables.orders)?;
        let lines = scan(clock, self.tables.lineitem)?;
        self.order_price = orders.iter().map(|o| o.float(2)).collect();
        self.lines = lines.iter().map(|l| (l.int(0), l.float(2))).collect();
        Ok(clock.now())
    }

    fn op(&mut self, clock: &mut Clock, tr: &mut Tracer) -> Outcome {
        let n = self.rng.uniform(HS_WINDOW_ORDERS.0, HS_WINDOW_ORDERS.1);
        let lo = self.rng.uniform(0, self.n_orders - n + 1) as i64;
        let n = n as i64;
        let result = self.query(clock, tr, lo, n).map_err(|e| error_kind(&e));
        let outcome = match &result {
            Ok(_) => Outcome::Ok,
            Err(kind) => Outcome::Err(kind.clone()),
        };
        self.queries.push(HsQuery {
            lo,
            orders: n,
            result,
            tempdb_pages: self.db.tempdb().file().allocated_pages(),
        });
        outcome
    }

    fn verify(&self) -> Vec<String> {
        self.queries
            .iter()
            .filter_map(|q| match q.result {
                Ok(d) if d != self.expected(q.lo, q.orders) => Some(format!(
                    "hash+sort over orders [{}, {}): Top-{} differs from the plain-Rust answer",
                    q.lo,
                    q.lo + q.orders,
                    self.top_n
                )),
                _ => None,
            })
            .collect()
    }

    fn op_log(&self) -> Vec<String> {
        self.queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                format!(
                    "[hashsort] query {i}: orders [{}, {}) -> {}  tempdb.pages_allocated={}",
                    q.lo,
                    q.lo + q.orders,
                    match &q.result {
                        Ok(_) => "ok".to_string(),
                        Err(kind) => format!("Err {kind}"),
                    },
                    q.tempdb_pages
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_customer_rows() {
        for start in [0i64, 9_950, 59_899] {
            let rows: f64 = (start..start + 100)
                .map(|k| rangescan::customer_row(k).float(2))
                .sum();
            let want = expected_acctbal(start, 100);
            assert!(
                (rows - want).abs() < 1e-9 * want,
                "{start}: {rows} vs {want}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
