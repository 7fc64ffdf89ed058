//! Layer-by-layer diff of two traced result files.
//!
//! Layers are ordered by how much their self time on the blocking path
//! moved per successful op, the larger of the host and the virtual change
//! first, so a change shows where its saving (or cost) landed. Under each
//! layer every per-layer metric is printed for both files with the ratio
//! B/A and both bases.

use std::collections::BTreeMap;

use remem_bench::json::{parse, Json};

struct File {
    ok_ops: f64,
    /// (name, layer, unit, value, base)
    metrics: Vec<(String, String, String, f64, String)>,
    /// Self µs per op by layer: (host, virtual).
    self_per_op: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<File, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |o: &Json, k: &str| -> Result<f64, String> {
        o.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("{path}: missing number `{k}`"))
    };
    let text_of = |o: &Json, k: &str| -> Result<String, String> {
        o.get(k)
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or(format!("{path}: missing string `{k}`"))
    };
    let ok_ops = field(&j, "ok_ops")?;
    let arr = |k: &str| {
        j.get(k)
            .and_then(Json::as_arr)
            .ok_or(format!("{path}: missing array `{k}`"))
    };
    let mut metrics = Vec::new();
    for m in arr("metrics")? {
        metrics.push((
            text_of(m, "name")?,
            text_of(m, "layer")?,
            text_of(m, "unit")?,
            field(m, "value")?,
            text_of(m, "base")?,
        ));
    }
    let mut self_per_op: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for s in arr("spans")? {
        let e = self_per_op.entry(text_of(s, "layer")?).or_default();
        let per_op = |v: f64| if ok_ops > 0.0 { v / ok_ops } else { 0.0 };
        e.0 += per_op(field(s, "host_self_us")?);
        e.1 += per_op(field(s, "sim_self_us")?);
    }
    Ok(File {
        ok_ops,
        metrics,
        self_per_op,
    })
}

/// Print the diff of result files `a` and `b`.
pub fn diff(a: &str, b: &str) -> Result<(), String> {
    let (fa, fb) = (load(a)?, load(b)?);
    println!(
        "A = {a} ({} ok ops)\nB = {b} ({} ok ops)",
        fa.ok_ops, fb.ok_ops
    );
    let mut layers: Vec<String> = fa
        .metrics
        .iter()
        .chain(&fb.metrics)
        .map(|m| m.1.clone())
        .chain(fa.self_per_op.keys().cloned())
        .chain(fb.self_per_op.keys().cloned())
        .collect();
    layers.sort();
    layers.dedup();
    let delta = |layer: &str| {
        let (ha, sa) = fa.self_per_op.get(layer).copied().unwrap_or_default();
        let (hb, sb) = fb.self_per_op.get(layer).copied().unwrap_or_default();
        (hb - ha, sb - sa)
    };
    let key = |layer: &str| {
        let (h, s) = delta(layer);
        h.abs().max(s.abs())
    };
    layers.sort_by(|x, y| key(y).total_cmp(&key(x)).then(x.cmp(y)));
    for layer in &layers {
        let (h, s) = delta(layer);
        println!("\n== {layer}: self time per op moved {h:+.3} host us, {s:+.3} virtual us");
        for (name, _, unit, va, base_a) in fa.metrics.iter().filter(|m| &m.1 == layer) {
            let other = fb.metrics.iter().find(|m| &m.0 == name);
            let (vb, base_b) = other.map_or((f64::NAN, "-"), |m| (m.3, m.4.as_str()));
            let ratio = if *va == 0.0 { f64::NAN } else { vb / va };
            println!("  {name:<36} {va:>14.4} {vb:>14.4} {unit:<10} B/A {ratio:>8.4}   [A: {base_a}] [B: {base_b}]");
        }
        for (name, _, unit, vb, base_b) in fb.metrics.iter().filter(|m| &m.1 == layer) {
            if !fa.metrics.iter().any(|m| &m.0 == name) {
                println!(
                    "  {name:<36} {:>14} {vb:>14.4} {unit:<10} (only in B) [B: {base_b}]",
                    "-"
                );
            }
        }
    }
    Ok(())
}
