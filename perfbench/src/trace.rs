//! The benchmark's own spans, recorded around every public call it makes.
//!
//! A span keeps its name, host and virtual start and end, its parent and
//! the op it belongs to. Spans stay in memory for the whole run and are
//! written out, one JSON object a line, when it ends; self times are worked
//! out once at the end, as the span's duration minus the durations of its
//! direct children.

use std::collections::BTreeMap;

use remem_bench::json::Json;
use remem_sim::{Clock, SimTime, Stopwatch};

/// Op id of spans outside the measured window (set-up, warm-up).
pub const NO_OP: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub host_start_us: f64,
    pub host_end_us: f64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    pub fn host_us(&self) -> f64 {
        self.host_end_us - self.host_start_us
    }

    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns - self.sim_start_ns
    }
}

/// Host time since the run started, plus the span log when tracing is on.
pub struct Tracer {
    host: Stopwatch,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            host: Stopwatch::start(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
            op: NO_OP,
        }
    }

    /// Host microseconds since this tracer was created.
    pub fn host_us(&self) -> f64 {
        self.host.elapsed_ms() * 1e3
    }

    /// Tag the spans opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str, now: SimTime) {
        if !self.on {
            return;
        }
        let host = self.host_us();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            op: self.op,
            host_start_us: host,
            host_end_us: host,
            sim_start_ns: now.0,
            sim_end_ns: now.0,
        });
    }

    pub fn exit(&mut self, now: SimTime) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("span exit without a matching enter");
        let host = self.host_us();
        let s = &mut self.spans[i];
        s.host_end_us = host;
        s.sim_end_ns = now.0;
    }

    /// Run `f` under the span `name`, timed on `clock`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        clock: &mut Clock,
        f: impl FnOnce(&mut Clock) -> T,
    ) -> T {
        self.enter(name, clock.now());
        let out = f(clock);
        self.exit(clock.now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Every span as one JSON object a line: its index `id`, `name`, the `id`
/// of its `parent` and its `op` (null outside the window), and host µs and
/// virtual ns start and end.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = Json::Obj(vec![
            ("id".into(), Json::Num(id as f64)),
            ("name".into(), Json::str(s.name)),
            ("parent".into(), opt(s.parent.map(|p| p as u64))),
            ("op".into(), opt(Some(s.op).filter(|&op| op != NO_OP))),
            ("host_start_us".into(), Json::Num(s.host_start_us)),
            ("host_end_us".into(), Json::Num(s.host_end_us)),
            ("sim_start_ns".into(), Json::Num(s.sim_start_ns as f64)),
            ("sim_end_ns".into(), Json::Num(s.sim_end_ns as f64)),
        ]);
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

/// Totals and per-span samples for every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanAgg {
    pub count: u64,
    pub host_total_us: f64,
    pub host_self_us: f64,
    pub sim_total_ns: u64,
    pub sim_self_ns: u64,
    pub host_us: Vec<f64>,
    pub sim_us: Vec<f64>,
}

/// Aggregate `spans` by name, with self time = duration − children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, SpanAgg> {
    let mut child_host = vec![0.0; spans.len()];
    let mut child_sim = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_host[p] += s.host_us();
            child_sim[p] += s.sim_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.host_total_us += s.host_us();
        a.host_self_us += s.host_us() - child_host[i];
        a.sim_total_ns += s.sim_ns();
        a.sim_self_ns += s.sim_ns() - child_sim[i];
        a.host_us.push(s.host_us());
        a.sim_us.push(s.sim_ns() as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, host: (f64, f64), sim: (u64, u64)) -> Span {
        Span {
            name,
            parent,
            op: 0,
            host_start_us: host.0,
            host_end_us: host.1,
            sim_start_ns: sim.0,
            sim_end_ns: sim.1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("op", None, (0.0, 100.0), (0, 1_000)),
            span("engine.range", Some(0), (10.0, 40.0), (100, 400)),
            span("engine.join_hash", Some(0), (40.0, 90.0), (400, 900)),
            // a grandchild is charged to its parent, not to the op
            span("engine.range", Some(2), (50.0, 60.0), (500, 600)),
        ];
        let agg = aggregate(&spans);
        let op = &agg["op"];
        assert_eq!(op.host_self_us, 20.0);
        assert_eq!(op.sim_self_ns, 200);
        let join = &agg["engine.join_hash"];
        assert_eq!(join.host_self_us, 40.0);
        assert_eq!(join.sim_self_ns, 400);
        let range = &agg["engine.range"];
        assert_eq!(range.count, 2);
        assert_eq!(range.host_total_us, 40.0);
        assert_eq!(range.host_self_us, 40.0);
        assert_eq!(range.sim_us, vec![0.3, 0.1]);
    }

    #[test]
    fn tracer_nests_spans_and_tags_ops() {
        let mut t = Tracer::new(true);
        let mut clock = Clock::new();
        t.set_op(7);
        t.span("op", &mut clock, |c| {
            c.advance(remem_sim::SimDuration::from_nanos(5));
        });
        t.enter("outer", clock.now());
        t.enter("inner", clock.now());
        t.exit(clock.now());
        t.exit(clock.now());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[0].op, s[0].sim_ns()), (None, 7, 5));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|s| s.host_end_us >= s.host_start_us));
    }

    #[test]
    fn raw_spans_keep_parent_and_op() {
        let mut spans = vec![
            span("op", None, (1.0, 9.0), (10, 90)),
            span("engine.range", Some(0), (2.0, 3.0), (20, 30)),
        ];
        spans[0].op = NO_OP;
        let text = spans_jsonl(&spans);
        let lines: Vec<Json> = text
            .lines()
            .map(|l| remem_bench::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("op"), Some(&Json::Null));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("op").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            lines[1].get("sim_end_ns").and_then(Json::as_f64),
            Some(30.0)
        );
        assert_eq!(
            lines[1].get("name").and_then(Json::as_str),
            Some("engine.range")
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let mut clock = Clock::new();
        t.span("op", &mut clock, |_| ());
        assert!(t.spans().is_empty());
    }
}
