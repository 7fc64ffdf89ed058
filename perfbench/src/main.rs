//! remem-perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! remem-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! remem-perfbench all [--seed <n>] [--seconds <s>]
//! remem-perfbench selfcheck [--seed <n>] [--seconds <s>]
//! remem-perfbench diff <a.json> <b.json>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` repeats the untraced window, then runs it again with a
//! registry attached and the benchmark's spans on, and reports the
//! per-layer metrics. The last line of standard output is one JSON object.
//! See `perfbench/README.md`.

mod diff;
mod layers;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use remem_bench::json::Json;
use remem_engine::page::PAGE_SIZE;
use remem_sim::rng::SimRng;
use remem_sim::{ClosedLoopDriver, Histogram, MetricsRegistry, SimDuration};

use layers::{per_layer, span_layer, LayerMetric, Probe, Traced};
use speed::{HostSpeed, SETUP_SLICES, SLICE_EVERY_US};
use stats::{percentile, sorted, tail, Ratio};
use trace::{aggregate, spans_jsonl, Tracer};
use workloads::{Kind, Outcome, SetupTimes, Workload};

/// Independent set-up + window repetitions per untraced run. Each
/// end-to-end metric is the median across them.
const REPS: usize = 5;

/// Seed kept out of every run made while tuning the benchmark, so a later
/// performance claim can be confirmed on inputs it was not tuned on.
const HELD_OUT_SEED: u64 = 90_210;

/// What one measured window did.
struct Window {
    attempted: u64,
    ok: u64,
    /// Successful ops that also ended inside the window.
    ok_in_horizon: u64,
    errors: BTreeMap<String, u64>,
    wrong: Vec<String>,
    /// Ops that returned without advancing virtual time, charged 1 ns.
    zero_time: u64,
    /// Virtual µs, scaled host µs and raw host µs of each successful op.
    sim_lat_us: Vec<f64>,
    host_op_us: Vec<f64>,
    raw_host_op_us: Vec<f64>,
    /// The same for each failed op, printed but never a metric: a failed
    /// op must not pass for a fast one.
    failed_sim_lat_us: Vec<f64>,
    failed_host_op_us: Vec<f64>,
    /// Host seconds of the window, reference slices excluded.
    host_s: f64,
    /// The same, each stretch scaled by the slowdown around it.
    scaled_host_s: f64,
    /// Median slowdown over the window, for the notes.
    slowdown: f64,
    horizon: SimDuration,
}

impl Window {
    fn failed(&self) -> u64 {
        self.errors.values().sum::<u64>() + self.wrong.len() as u64
    }

    /// `sim_ops_per_s`, `sim_lat_p50_us` and `sim_lat_tail_us`.
    fn sim(&self) -> [f64; 3] {
        let lat = sorted(&self.sim_lat_us);
        [
            self.ok_in_horizon as f64 / self.horizon.as_secs_f64(),
            percentile(&lat, 50.0),
            tail(&lat).1,
        ]
    }

    /// How the failed ops ran, for the notes: count and p50s.
    fn failed_summary(&self) -> String {
        let n = self.failed_sim_lat_us.len();
        if n == 0 {
            return "no failed ops".into();
        }
        format!(
            "{n} failed ops, not in this metric: sim p50 {} us, raw host p50 {} us",
            percentile(&sorted(&self.failed_sim_lat_us), 50.0),
            percentile(&sorted(&self.failed_host_op_us), 50.0)
        )
    }

    fn error_summary(&self) -> String {
        if self.errors.is_empty() {
            return "none".into();
        }
        self.errors
            .iter()
            .map(|(k, n)| format!("{k} x{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Run the closed loop over `[start, start + horizon)`, stopping for a
/// reference slice on `speed` every [`SLICE_EVERY_US`] of host time.
fn run_window(
    w: &mut dyn Workload,
    kind: Kind,
    setup: &SetupTimes,
    horizon: SimDuration,
    tr: &mut Tracer,
    speed: &mut HostSpeed,
) -> Window {
    let end = setup.start + horizon;
    let mut win = Window {
        attempted: 0,
        ok: 0,
        ok_in_horizon: 0,
        errors: BTreeMap::new(),
        wrong: Vec::new(),
        zero_time: 0,
        sim_lat_us: Vec::new(),
        host_op_us: Vec::new(),
        raw_host_op_us: Vec::new(),
        failed_sim_lat_us: Vec::new(),
        failed_host_op_us: Vec::new(),
        host_s: 0.0,
        scaled_host_s: 0.0,
        slowdown: 1.0,
        horizon,
    };
    let mut driver = ClosedLoopDriver::new(kind.workers(), end).starting_at(setup.start);
    let t0 = tr.host_us();
    // the first op is preceded by a slice, so every window has a speed
    let (mut last_slice, mut slices_us) = (t0 - SLICE_EVERY_US, 0.0);
    // measured host µs at which each successful op started
    let mut ok_at_us = Vec::new();
    driver.run_outcome(&Histogram::new(), |_, clock| {
        if tr.host_us() - last_slice >= SLICE_EVERY_US {
            slices_us += speed.slice(tr.host_us() - t0 - slices_us) * 1e3;
            last_slice = tr.host_us();
        }
        tr.set_op(win.attempted);
        let (sim0, host0) = (clock.now(), tr.host_us());
        let at_us = host0 - t0 - slices_us;
        tr.enter("op", sim0);
        let outcome = w.op(clock, tr);
        if clock.now() == sim0 {
            // a TPC-C Delivery that finds nothing to deliver makes no call
            // that charges time, and the driver requires every op to advance
            clock.advance(SimDuration::from_nanos(1));
            win.zero_time += 1;
        }
        tr.exit(clock.now());
        let host_us = tr.host_us() - host0;
        let sim_us = clock.now().since(sim0).as_micros_f64();
        win.attempted += 1;
        let ok = matches!(outcome, Outcome::Ok);
        match outcome {
            Outcome::Ok => {
                win.ok += 1;
                win.ok_in_horizon += u64::from(clock.now() <= end);
            }
            Outcome::Err(kind) => *win.errors.entry(kind).or_default() += 1,
            Outcome::Wrong(why) => win.wrong.push(why),
        }
        let (sim, host) = if ok {
            ok_at_us.push(at_us);
            (&mut win.sim_lat_us, &mut win.raw_host_op_us)
        } else {
            (&mut win.failed_sim_lat_us, &mut win.failed_host_op_us)
        };
        sim.push(sim_us);
        host.push(host_us);
    });
    win.host_s = (tr.host_us() - t0 - slices_us) / 1e6;
    win.scaled_host_s = speed.scaled_us(win.host_s * 1e6) / 1e6;
    win.slowdown = speed.slowdown();
    win.host_op_us = (ok_at_us.iter().zip(&win.raw_host_op_us))
        .map(|(&at, &us)| us / speed.slowdown_at(at))
        .collect();
    // whole-window oracles run after the clock stops
    win.wrong.extend(w.verify());
    win
}

fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 50.0)
}

/// One end-to-end metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics one window gives: all but `setup_s` and
/// `peak_rss_mb`, in `BENCHMARK.json` order. Latencies are over the
/// successful ops; host figures are scaled by the slowdown around them.
fn window_metrics(win: &Window) -> Vec<Metric> {
    let lat = sorted(&win.sim_lat_us);
    let (p, tail_us) = tail(&lat);
    let [ops_per_s, p50, _] = win.sim();
    let host_p50 = percentile(&sorted(&win.host_op_us), 50.0);
    let raw_p50 = percentile(&sorted(&win.raw_host_op_us), 50.0);
    let (n, k) = (win.attempted, win.ok);
    let ok = Ratio::new(win.ok as f64, n as f64);
    let failed = win.failed_summary();
    vec![
        Metric {
            name: "sim_ops_per_s",
            unit: "1/s",
            value: ops_per_s,
            note: format!(
                "{} ok ops ended in {} s virtual",
                win.ok_in_horizon,
                win.horizon.as_secs_f64()
            ),
        },
        Metric {
            name: "sim_lat_p50_us",
            unit: "us",
            value: p50,
            note: format!("p50 of {k} ok ops; {failed}"),
        },
        Metric {
            name: "sim_lat_tail_us",
            unit: "us",
            value: tail_us,
            note: format!(
                "p{p} of {k} ok ops; p99 {}, p99.9 {}, p99.99 {}, max {}",
                percentile(&lat, 99.0),
                percentile(&lat, 99.9),
                percentile(&lat, 99.99),
                percentile(&lat, 100.0)
            ),
        },
        Metric {
            name: "host_ops_per_s",
            unit: "1/s",
            value: win.ok as f64 / win.scaled_host_s,
            note: format!(
                "{k} ok ops / {:.4} scaled host s; raw {:.4} host s, {} ops/s; median slowdown {:.4}",
                win.scaled_host_s,
                win.host_s,
                win.ok as f64 / win.host_s,
                win.slowdown
            ),
        },
        Metric {
            name: "host_op_p50_us",
            unit: "us",
            value: host_p50,
            note: format!("p50 of {k} ok ops, each scaled; raw p50 {raw_p50} us; {failed}"),
        },
        Metric {
            name: "ok_frac",
            unit: "frac",
            value: ok.value(),
            note: format!(
                "{} ok / {n} attempted; failed_frac = {}; errors: {}; ops that did not advance virtual time, charged 1 ns: {}",
                win.ok,
                1.0 - ok.value(),
                win.error_summary(),
                win.zero_time
            ),
        },
    ]
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Kind::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&a.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            f => return Err(format!("unknown argument `{f}`")),
        }
    }
    Ok(a)
}

/// Result of one untraced run: its windows and the medians across them.
struct Untraced {
    metrics: Vec<Metric>,
    wins: Vec<Window>,
}

impl Untraced {
    fn wrong(&self) -> Vec<String> {
        self.wins.iter().flat_map(|w| w.wrong.clone()).collect()
    }
}

/// The seed of repetition `rep` of a run seeded `seed`.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    SimRng::for_worker(seed, 1_000 + rep as u64).next_u64()
}

fn run_untraced(kind: Kind, seed: u64, seconds: u64) -> Result<Untraced, String> {
    let mut tr = Tracer::new(false);
    let mut per_rep = Vec::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut wins = Vec::new();
    let mut rss = 0.0;
    for rep in 0..REPS {
        let mut setup_speed = HostSpeed::new();
        setup_speed.slices_now(SETUP_SLICES);
        let (mut w, st) = kind.setup(rep_seed(seed, rep), None, &mut tr)?;
        setup_speed.slices_now(SETUP_SLICES);
        let mut speed = HostSpeed::new();
        println!(
            "[rep {rep}] set-up: build {:.3} s, load {:.3} s, warm-up {:.3} s; tables ~{:.1} MiB at window start",
            st.build_s,
            st.load_s,
            st.warmup_s,
            (w.data_pages() * PAGE_SIZE as u64) as f64 / (1 << 20) as f64
        );
        let win = run_window(
            &mut *w,
            kind,
            &st,
            kind.window(seconds),
            &mut tr,
            &mut speed,
        );
        for line in w.op_log() {
            println!("[rep {rep}] {line}");
        }
        println!(
            "[rep {rep}] host speed: median reference slice {:.4} ms of {} around set-up, {:.4} ms of {} in the window -> slowdown {:.4} / {:.4} (median)",
            setup_speed.median_slice_ms(),
            setup_speed.slices(),
            speed.median_slice_ms(),
            speed.slices(),
            setup_speed.slowdown(),
            win.slowdown
        );
        drop(w);
        if rep == 0 {
            // later set-ups reuse the heap this one freed, and whether the
            // allocator zeroes it by touching it varies from run to run
            rss = peak_rss_mb();
        }
        let m = window_metrics(&win);
        for x in &m {
            println!(
                "[rep {rep}] {} = {} {}  ({})",
                x.name, x.value, x.unit, x.note
            );
        }
        per_rep.push(m);
        setups.push(st.total_s() / setup_speed.slowdown());
        raw_setups.push(st.total_s());
        wins.push(win);
    }
    let mut metrics: Vec<Metric> = (0..per_rep[0].len())
        .map(|i| {
            let vals: Vec<f64> = per_rep.iter().map(|m| m[i].value).collect();
            Metric {
                name: per_rep[0][i].name,
                unit: per_rep[0][i].unit,
                value: median(&vals),
                note: format!("median of {REPS} windows: {vals:?}"),
            }
        })
        .collect();
    let errors: u64 = wins.iter().flat_map(|w| w.errors.values()).sum();
    let kinds: Vec<String> = wins.iter().map(Window::error_summary).collect();
    let ok = metrics.last_mut().expect("ok_frac is last");
    ok.note = format!(
        "{}; failed_frac = {}; errors per window: {}; ops charged 1 ns for not advancing virtual time: {}",
        ok.note,
        1.0 - ok.value,
        if errors == 0 {
            "none".into()
        } else {
            kinds.join(" | ")
        },
        wins.iter().map(|w| w.zero_time).sum::<u64>()
    );
    metrics.insert(
        5,
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups),
            note: format!(
                "median of {REPS} set-ups, each / its slowdown: {setups:?}; raw {raw_setups:?}"
            ),
        },
    );
    metrics.insert(
        6,
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: rss,
            note: "VmHWM after the first set-up and window".into(),
        },
    );
    Ok(Untraced { metrics, wins })
}

/// Result of one traced run.
struct TracedRun {
    layers: Vec<LayerMetric>,
    untraced: Window,
    traced: Window,
    file: Json,
    /// Every raw span of the traced run, one JSON object a line.
    spans_jsonl: String,
}

fn run_traced(kind: Kind, seed: u64, seconds: u64) -> Result<TracedRun, String> {
    let horizon = kind.window(seconds);
    // repetition 0 of an untraced run, untraced (the reference), then traced
    let rep0 = rep_seed(seed, 0);
    let mut tr0 = Tracer::new(false);
    let (mut w, st0) = kind.setup(rep0, None, &mut tr0)?;
    let untraced = run_window(
        &mut *w,
        kind,
        &st0,
        horizon,
        &mut tr0,
        &mut HostSpeed::new(),
    );
    drop(w);

    let reg = Arc::new(MetricsRegistry::new());
    let mut tr = Tracer::new(true);
    let (mut w, st) = kind.setup(rep0, Some(Arc::clone(&reg)), &mut tr)?;
    let before = Probe::take(&reg, w.db());
    let traced = run_window(&mut *w, kind, &st, horizon, &mut tr, &mut HostSpeed::new());
    let after = Probe::take(&reg, w.db());
    for line in w.op_log() {
        println!("{line}");
    }
    let spans = aggregate(tr.spans());
    let op_host_us = spans.get("op").map_or(0.0, |s| s.host_total_us);
    let (a, b) = (untraced.sim(), traced.sim());
    let names = ["sim_ops_per_s", "sim_lat_p50_us", "sim_lat_tail_us"];
    let drift = (0..3)
        .map(|i| Ratio::new((b[i] - a[i]).abs(), a[i]).value())
        .fold(0.0, f64::max);
    let detail = (0..3)
        .map(|i| format!("{} {} untraced vs {} traced", names[i], a[i], b[i]))
        .collect::<Vec<_>>()
        .join("; ");
    let detail = if drift > 0.0 {
        format!(
            "{detail}. Cause: MeteredDevice does not forward read_vectored/write_vectored, \
             so with telemetry on, BPExt and TempDB batches fall back to serial scalar I/O"
        )
    } else {
        detail
    };
    let ok_ops = traced.ok;
    let layers = per_layer(&Traced {
        reg: &reg,
        before: &before,
        after: &after,
        spans: &spans,
        ok_ops,
        window_host_s: traced.host_s,
        driver_self_host_us: traced.host_s * 1e6 - op_host_us,
        setup: [st0.build_s, st0.load_s, st0.warmup_s],
        untraced_host_s: untraced.host_s,
        sim_drift: drift,
        sim_drift_detail: detail,
    });

    // the result file: per-layer metrics and per-span self times
    let num = |v: f64| Json::Num(v);
    let mut span_rows: Vec<Json> = spans
        .iter()
        .map(|(name, s)| {
            Json::Obj(vec![
                ("name".into(), Json::str(*name)),
                ("layer".into(), Json::str(span_layer(name))),
                ("count".into(), num(s.count as f64)),
                ("host_self_us".into(), num(s.host_self_us)),
                ("sim_self_us".into(), num(s.sim_self_ns as f64 / 1e3)),
            ])
        })
        .collect();
    span_rows.push(Json::Obj(vec![
        ("name".into(), Json::str("driver")),
        ("layer".into(), Json::str("driver")),
        ("count".into(), num(traced.attempted as f64)),
        ("host_self_us".into(), num(traced.host_s * 1e6 - op_host_us)),
        ("sim_self_us".into(), num(0.0)),
    ]));
    let reg_spans = reg.snapshot().spans;
    for (name, _) in &reg_spans {
        let delta = |p: &Probe| p.span_totals(name);
        let ((t1, s1), (t0, s0)) = (delta(&after), delta(&before));
        span_rows.push(Json::Obj(vec![
            ("name".into(), Json::str(name.clone())),
            ("layer".into(), Json::str(span_layer(name))),
            ("count".into(), Json::Null),
            ("host_self_us".into(), num(0.0)),
            ("sim_self_us".into(), num((s1 - s0) as f64 / 1e3)),
            ("sim_total_us".into(), num((t1 - t0) as f64 / 1e3)),
        ]));
    }
    let file = Json::Obj(vec![
        ("schema".into(), Json::str("remem-perfbench/v1")),
        ("workload".into(), Json::str(kind.name())),
        ("seed".into(), num(seed as f64)),
        ("seconds".into(), num(seconds as f64)),
        ("ok_ops".into(), num(ok_ops as f64)),
        ("attempted".into(), num(traced.attempted as f64)),
        (
            "metrics".into(),
            Json::Arr(
                layers
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(m.name.clone())),
                            ("layer".into(), Json::str(m.layer)),
                            ("unit".into(), Json::str(m.unit)),
                            ("value".into(), num(m.value)),
                            ("base".into(), Json::str(m.base.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans".into(), Json::Arr(span_rows)),
    ]);
    Ok(TracedRun {
        layers,
        untraced,
        traced,
        file,
        spans_jsonl: spans_jsonl(tr.spans()),
    })
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, u, v)| {
                        (
                            n.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*v)),
                                ("unit".into(), Json::str(*u)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_compact()
}

fn print_wrong(wrong: &[String]) {
    for w in wrong.iter().take(20) {
        println!("[oracle] WRONG: {w}");
    }
    if wrong.len() > 20 {
        println!("[oracle] ... and {} more", wrong.len() - 20);
    }
}

fn header(kind: Kind, a: &Args) {
    println!(
        "[perfbench] workload={} seed={} seconds={} trace={} window={} s virtual, {} virtual clients, closed loop",
        kind.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        kind.window(a.seconds).as_secs_f64(),
        kind.workers()
    );
}

/// Run one workload as the command line asks; returns whether every
/// result was correct.
fn run_one(kind: Kind, a: &Args) -> Result<bool, String> {
    header(kind, a);
    if !a.trace {
        let r = run_untraced(kind, a.seed, a.seconds)?;
        let wrong = r.wrong();
        print_wrong(&wrong);
        for m in &r.metrics {
            println!("{} = {} {}  ({})", m.name, m.value, m.unit, m.note);
        }
        let correct = wrong.is_empty();
        let metrics: Vec<_> = r
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.value))
            .collect();
        let attempted = r.wins.iter().map(|w| w.attempted).sum();
        let failed = r.wins.iter().map(Window::failed).sum();
        println!("{}", result_line(correct, attempted, failed, &metrics));
        return Ok(correct);
    }
    let r = run_traced(kind, a.seed, a.seconds)?;
    print_wrong(&r.untraced.wrong);
    print_wrong(&r.traced.wrong);
    println!(
        "[trace] untraced window {:.3} host s, traced {:.3} host s; traced ops: {} ok / {} attempted, errors: {}",
        r.untraced.host_s,
        r.traced.host_s,
        r.traced.ok,
        r.traced.attempted,
        r.traced.error_summary()
    );
    let mut layer = "";
    for m in &r.layers {
        if m.layer != layer {
            layer = m.layer;
            println!("-- {layer}");
        }
        println!("{} = {} {}  (base: {})", m.name, m.value, m.unit, m.base);
    }
    let path = a.out.clone().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.json", kind.name(), a.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, r.file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("[trace] result file: {}", path.display());
    // raw spans run to tens of MiB, so by default each workload keeps only
    // those of its latest traced run
    let raw = match &a.out {
        Some(p) => p.with_extension("spans.jsonl"),
        None => path.with_file_name(format!("{}.spans.jsonl", kind.name())),
    };
    std::fs::write(&raw, &r.spans_jsonl).map_err(|e| format!("{}: {e}", raw.display()))?;
    println!("[trace] raw spans: {}", raw.display());
    let correct = r.untraced.wrong.is_empty() && r.traced.wrong.is_empty();
    let metrics: Vec<_> = r
        .layers
        .iter()
        .map(|m| (m.name.clone(), m.unit, m.value))
        .collect();
    println!(
        "{}",
        result_line(correct, r.traced.attempted, r.traced.failed(), &metrics)
    );
    Ok(correct)
}

/// Determinism self-check: two same-seed traced runs agree byte for byte
/// on every `sim_*` and per-layer count metric; another seed moves them.
fn selfcheck(a: &Args) -> Result<bool, String> {
    let fingerprint = |kind: Kind, seed: u64| -> Result<String, String> {
        let r = run_traced(kind, seed, a.seconds)?;
        let mut fp = format!("{:?} {:?} |", r.untraced.sim(), r.traced.sim());
        for m in r.layers.iter().filter(|m| m.deterministic) {
            fp.push_str(&format!(" {}={}", m.name, m.value));
        }
        Ok(fp)
    };
    let mut pass = true;
    for kind in Kind::ALL {
        let first = fingerprint(kind, a.seed)?;
        let again = fingerprint(kind, a.seed)?;
        let other = fingerprint(kind, a.seed + 1)?;
        let same = first == again;
        let moved = first != other;
        println!(
            "[selfcheck] {}: same seed {} -> {}; seed {} -> {}",
            kind.name(),
            a.seed,
            if same { "byte-identical" } else { "DIFFERENT" },
            a.seed + 1,
            if moved { "changed" } else { "UNCHANGED" }
        );
        pass &= same && moved;
    }
    println!(
        "[selfcheck] {}; held-out seed for later claims: {HELD_OUT_SEED}",
        if pass { "PASS" } else { "FAIL" }
    );
    Ok(pass)
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ok = match argv.first().map(String::as_str) {
        Some("diff") => {
            let [a, b] = &argv[1..] else {
                return Err("usage: diff <a.json> <b.json>".into());
            };
            diff::diff(a, b)?;
            true
        }
        Some("selfcheck") => {
            let mut a = parse_args(&argv[1..])?;
            if !argv.iter().any(|s| s == "--seconds") {
                a.seconds = 1;
            }
            selfcheck(&a)?
        }
        Some("all") => {
            let a = parse_args(&argv[1..])?;
            let mut ok = true;
            for kind in Kind::ALL {
                for trace in [false, true] {
                    ok &= run_one(kind, &Args { trace, ..a.clone() })?;
                }
            }
            let check = Args { seconds: 1, ..a };
            ok & selfcheck(&check)?
        }
        _ => {
            let a = parse_args(&argv)?;
            let kind = a.workload.ok_or("--workload is required")?;
            run_one(kind, &a)?
        }
    };
    Ok(if ok { 0 } else { 1 })
}

fn main() {
    let code = real_main().unwrap_or_else(|e| {
        eprintln!("remem-perfbench: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_single_run_command_line() {
        let a = args("--workload tpcc_default --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Kind::Tpcc));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 1, &[("setup_s".into(), "s", 0.5)]);
        let j = remem_bench::json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
