//! The audit rule engine: repo-specific determinism rules applied to the
//! token stream produced by [`crate::lexer`].
//!
//! Rules (see DESIGN.md "Determinism rules" for rationale):
//!
//! * `wall-clock`   — no `Instant` / `SystemTime` / `thread::sleep` outside
//!   `crates/sim`; virtual time is the only clock.
//! * `hash-iter`    — no `HashMap` / `HashSet` in non-test code of the
//!   replay-critical crates (`broker`, `net`, `rfile`, `engine`): their
//!   iteration order is per-process random and silently breaks replay.
//! * `no-unwrap`    — no `.unwrap()` / `.expect(…)` in non-test library code
//!   of the fallible remote-memory path (`broker`, `net`, `rfile`).
//! * `seeded-rng`   — no `SimRng::seeded(…)` outside `sim`/`workloads`/
//!   `bench` lib code or tests; randomness must flow from one seed.
//! * `clock-charge` — any fn in `net`/`storage`/`rfile` that takes
//!   `clock: &mut Clock` must charge it (call a non-`now` method) or forward
//!   it to a callee; rename the param to `_clock` to document an
//!   intentionally free operation.
//! * `bench-report` — no bare `print!`/`println!`/`eprint!`/`eprintln!` in
//!   `crates/bench/src/bin/`: repro binaries must route output through
//!   `remem_bench::Report` so every figure lands in the machine-readable
//!   JSON pipeline, not just on stdout.
//! * `nondet-parallel` — no thread-identity or host-topology APIs
//!   (`thread::current`, `ThreadId`, `available_parallelism`, `thread_rng`,
//!   `park_timeout`) in non-test `crates/sim` code: every simulation result
//!   must be a pure function of the seed (same seed ⇒ same bytes, under any
//!   driver), so nothing may branch on which OS thread ran an op or how
//!   many cores the host has. Structured concurrency (`thread::scope`,
//!   `Barrier`, channels) is fine.
//! * `quorum-write` — no direct `fabric.write(…)` / `fab.write(…)` in
//!   non-test `crates/rfile` code, nor in engine files whose path mentions
//!   `wal` (the commit log ships to a replicated remote ring): a replicated
//!   MR written through the scalar path updates one copy and silently
//!   diverges the replica set. All data-path writes go through
//!   `Fabric::write_quorum`; the few legitimate single-copy writes (zeroing
//!   a fresh stripe, unreplicated files, replica seeding) carry a waiver
//!   pragma naming why.
//! * `pushdown-charge` — no direct `fabric.pushdown(…)` / `fab.pushdown(…)`
//!   in non-test library code outside `net`/`rfile`: the pushdown verb
//!   charges the memory server's CPU on the caller's clock only when routed
//!   through `RemoteFile::read_pushdown`, which also owns extent fan-out and
//!   replica failover. A raw call from the engine or a workload computes on
//!   the server for free and skips the broker's compute ledger.
//!
//! Any rule can be waived per line with `// audit: allow(<rule>, <reason>)`
//! on the offending line or the line directly above. Unused or unknown
//! pragmas are themselves violations, so the escape hatch can't rot.

use std::fmt;
use std::path::Path;

use crate::lexer::{strip, tokenize, Pragma, Tok};

pub const RULES: &[&str] = &[
    "wall-clock",
    "hash-iter",
    "no-unwrap",
    "seeded-rng",
    "clock-charge",
    "bench-report",
    "nondet-parallel",
    "quorum-write",
    "pushdown-charge",
    // interprocedural passes (crate::passes)
    "panic-path",
    "lock-order",
    "det-taint",
];

/// Crates whose data structures feed the replay fingerprint.
const REPLAY_CRITICAL: &[&str] = &["broker", "net", "rfile", "engine"];
/// Crates where a panic tears down a simulated cluster mid-protocol.
const NO_UNWRAP: &[&str] = &["broker", "net", "rfile"];
/// Crates allowed to construct `SimRng` in library code (seed owners).
const RNG_OWNERS: &[&str] = &["sim", "workloads", "bench", "audit"];
/// Crates whose public clock-taking ops model hardware and must charge time.
const CLOCK_CHARGED: &[&str] = &["net", "storage", "rfile"];
/// Crates allowed to drive the fabric's pushdown verb directly: `net` owns
/// it, `rfile` wraps it in the charged, failover-aware scan path.
const PUSHDOWN_OWNERS: &[&str] = &["net", "rfile"];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// What the walker learned about one file, for the summary line.
#[derive(Debug, Default)]
pub struct LintStats {
    pub files: usize,
    pub pragmas_used: usize,
}

/// Token-index spans that belong to `#[cfg(test)]` / `#[test]` items.
fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut depth = 0usize;
    let mut pending_test = false;
    // bracket depth inside a pending item header, so `;` inside `[u8; 4]`
    // doesn't cancel the attribute attachment
    let mut header_nest = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            // parse `#[ … ]`, detect cfg(test) / test / tokio::test
            "#" if toks.get(i + 1).map(|t| t.is("[")) == Some(true) => {
                let mut j = i + 2;
                let mut nest = 1usize;
                let mut attr = Vec::new();
                while j < toks.len() && nest > 0 {
                    match toks[j].text.as_str() {
                        "[" => nest += 1,
                        "]" => nest -= 1,
                        s => attr.push(s.to_string()),
                    }
                    j += 1;
                }
                let is_cfg_test =
                    attr.len() >= 3 && attr[0] == "cfg" && attr.contains(&"test".to_string());
                let is_test_attr = attr.first().map(|s| s == "test") == Some(true)
                    || attr.windows(2).any(|w| w[0] == "::" && w[1] == "test");
                if is_cfg_test || is_test_attr {
                    pending_test = true;
                    header_nest = 0;
                }
                i = j;
                continue;
            }
            "{" => {
                if pending_test && header_nest == 0 {
                    // find the matching close brace
                    let open_depth = depth;
                    depth += 1;
                    let start = i;
                    let mut j = i + 1;
                    let mut d = depth;
                    while j < toks.len() && d > open_depth {
                        match toks[j].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    spans.push((start, j));
                    pending_test = false;
                    depth = open_depth;
                    i = j;
                    continue;
                }
                depth += 1;
            }
            "}" => depth = depth.saturating_sub(1),
            "(" | "[" | "<" if pending_test => header_nest += 1,
            ")" | "]" | ">" if pending_test => header_nest = header_nest.saturating_sub(1),
            ";" if pending_test && header_nest == 0 => pending_test = false,
            _ => {}
        }
        i += 1;
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// Crate name from a path like `crates/<name>/src/foo.rs`, if any.
fn crate_of(path: &str) -> Option<&str> {
    let norm = path.replace('\\', "/");
    let idx = norm.find("crates/")?;
    let rest = &path[idx + "crates/".len()..];
    rest.split('/').next().map(|s| {
        // return a slice of the original path
        let start = idx + "crates/".len();
        &path[start..start + s.len()]
    })
}

/// True for files that are test/bench/example scaffolding by location.
fn is_test_path(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm.contains("/tests/") || norm.contains("/benches/") || norm.contains("/examples/")
}

struct Ctx<'a> {
    path: &'a str,
    krate: Option<&'a str>,
    toks: Vec<Tok>,
    spans: Vec<(usize, usize)>,
    test_file: bool,
    /// lines whose first token is `use` (possibly after `pub …`)
    use_lines: Vec<usize>,
    pragmas: Vec<Pragma>,
    pragma_used: Vec<bool>,
    out: Vec<Violation>,
}

impl<'a> Ctx<'a> {
    fn in_test(&self, idx: usize) -> bool {
        self.test_file || in_spans(&self.spans, idx)
    }

    /// Check the pragma table for a waiver covering `rule` at `line`
    /// (same line or the line directly above). Marks the pragma used.
    fn waived(&mut self, rule: &str, line: usize) -> bool {
        for (k, p) in self.pragmas.iter().enumerate() {
            if p.rule == rule && (p.line == line || p.line + 1 == line) {
                self.pragma_used[k] = true;
                return true;
            }
        }
        false
    }

    fn push(&mut self, rule: &'static str, line: usize, msg: String) {
        if self.waived(rule, line) {
            return;
        }
        self.out.push(Violation {
            file: self.path.to_string(),
            line,
            rule,
            msg,
        });
    }
}

/// Result of the per-file rules alone (no pragma hygiene): the graph
/// passes get a chance to consume pragmas before unused-pragma detection
/// runs once at the workspace level.
pub struct FileLint {
    pub violations: Vec<Violation>,
    pub pragmas: Vec<Pragma>,
    pub used: Vec<bool>,
}

/// Run the per-line rules on one file, returning the pragma table and its
/// used flags alongside the findings. Hygiene is deferred to the caller.
pub fn lint_file(path: &str, src: &str) -> FileLint {
    let stripped = strip(src);
    let toks = tokenize(&stripped.code);
    let spans = test_spans(&toks);

    let mut use_lines = Vec::new();
    let mut last_line = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.line != last_line {
            last_line = t.line;
            let first = &t.text;
            let second = toks.get(i + 1).map(|t| t.text.as_str());
            if first == "use" || (first == "pub" && second == Some("use")) {
                use_lines.push(t.line);
            }
        }
    }

    let n_pragmas = stripped.pragmas.len();
    let mut ctx = Ctx {
        path,
        krate: crate_of(path),
        toks,
        spans,
        test_file: is_test_path(path),
        use_lines,
        pragmas: stripped.pragmas,
        pragma_used: vec![false; n_pragmas],
        out: Vec::new(),
    };

    rule_wall_clock(&mut ctx);
    rule_hash_iter(&mut ctx);
    rule_no_unwrap(&mut ctx);
    rule_seeded_rng(&mut ctx);
    rule_clock_charge(&mut ctx);
    rule_bench_report(&mut ctx);
    rule_nondet_parallel(&mut ctx);
    rule_quorum_write(&mut ctx);
    rule_pushdown_charge(&mut ctx);

    FileLint {
        violations: ctx.out,
        pragmas: ctx.pragmas,
        used: ctx.pragma_used,
    }
}

/// Pragma hygiene: unknown rule names, unused waivers, and missing reasons
/// are violations. `used` must reflect every consumer (per-line rules and
/// graph passes).
pub fn pragma_hygiene(path: &str, pragmas: &[Pragma], used: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (k, p) in pragmas.iter().enumerate() {
        if !RULES.contains(&p.rule.as_str()) {
            out.push(Violation {
                file: path.to_string(),
                line: p.line,
                rule: "pragma",
                msg: format!("pragma names unknown rule `{}`", p.rule),
            });
        } else if !used[k] {
            out.push(Violation {
                file: path.to_string(),
                line: p.line,
                rule: "pragma",
                msg: format!("unused pragma for `{}`: nothing to waive here", p.rule),
            });
        } else if p.reason.is_empty() {
            out.push(Violation {
                file: path.to_string(),
                line: p.line,
                rule: "pragma",
                msg: format!("pragma for `{}` must carry a reason", p.rule),
            });
        }
    }
    out
}

/// Lint a single source file (per-line rules + pragma hygiene). `path` is
/// used for crate scoping and display; pass a repo-relative path like
/// `crates/broker/src/broker.rs`. Note this sees only one file: waivers
/// consumed by the interprocedural passes are visible to
/// [`crate::analyze::analyze_tree`], not here.
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    let fl = lint_file(path, src);
    let mut out = fl.violations;
    out.extend(pragma_hygiene(path, &fl.pragmas, &fl.used));
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Count of used (justified) pragmas in a file — for the budget report.
pub fn count_pragmas(src: &str) -> usize {
    strip(src)
        .pragmas
        .iter()
        .filter(|p| RULES.contains(&p.rule.as_str()))
        .count()
}

// ─── individual rules ────────────────────────────────────────────────────

fn rule_wall_clock(ctx: &mut Ctx) {
    if ctx.krate == Some("sim") {
        return; // the simulator owns the (virtual) clock
    }
    let hits: Vec<(usize, String)> = ctx
        .toks
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t.text.as_str() {
            "Instant" | "SystemTime" => Some((t.line, format!("wall-clock API `{}`", t.text))),
            "sleep" if i >= 2 && ctx.toks[i - 1].is("::") && ctx.toks[i - 2].is("thread") => {
                Some((t.line, "wall-clock API `thread::sleep`".to_string()))
            }
            _ => None,
        })
        .collect();
    for (line, what) in hits {
        ctx.push(
            "wall-clock",
            line,
            format!("{what} outside crates/sim; use the virtual Clock/SimTime"),
        );
    }
}

fn rule_hash_iter(ctx: &mut Ctx) {
    let Some(k) = ctx.krate else { return };
    if !REPLAY_CRITICAL.contains(&k) {
        return;
    }
    let mut hits = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if (t.is("HashMap") || t.is("HashSet"))
            && !ctx.in_test(i)
            && !ctx.use_lines.contains(&t.line)
        {
            hits.push((t.line, t.text.clone()));
        }
    }
    for (line, ty) in hits {
        ctx.push(
            "hash-iter",
            line,
            format!(
                "`{ty}` in replay-critical crate `{k}`: iteration order is per-process \
                 random; use BTreeMap/BTreeSet or sorted iteration"
            ),
        );
    }
}

fn rule_no_unwrap(ctx: &mut Ctx) {
    let Some(k) = ctx.krate else { return };
    if !NO_UNWRAP.contains(&k) {
        return;
    }
    let mut hits = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if (t.is("unwrap") || t.is("expect"))
            && i >= 1
            && ctx.toks[i - 1].is(".")
            && ctx.toks.get(i + 1).map(|n| n.is("(")) == Some(true)
            && !ctx.in_test(i)
        {
            hits.push((t.line, t.text.clone()));
        }
    }
    for (line, m) in hits {
        ctx.push(
            "no-unwrap",
            line,
            format!("`.{m}()` in fallible library code of `{k}`: return a typed error"),
        );
    }
}

fn rule_seeded_rng(ctx: &mut Ctx) {
    let Some(k) = ctx.krate else { return };
    if RNG_OWNERS.contains(&k) {
        return;
    }
    let mut hits = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.is("SimRng")
            && ctx.toks.get(i + 1).map(|n| n.is("::")) == Some(true)
            && ctx.toks.get(i + 2).map(|n| n.is("seeded")) == Some(true)
            && !ctx.in_test(i)
        {
            hits.push(t.line);
        }
    }
    for line in hits {
        ctx.push(
            "seeded-rng",
            line,
            format!(
                "`SimRng::seeded` constructed in `{k}` library code: derive randomness \
                 from the workload/injector seed instead of minting a new stream"
            ),
        );
    }
}

/// For `clock-charge`: find fn items, check pub-ness, params, and body use.
fn rule_clock_charge(ctx: &mut Ctx) {
    let Some(k) = ctx.krate else { return };
    if !CLOCK_CHARGED.contains(&k) {
        return;
    }
    let toks = &ctx.toks;
    let mut hits = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is("fn") || ctx.in_test(i) {
            i += 1;
            continue;
        }
        let fn_idx = i;
        let name = toks
            .get(fn_idx + 1)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        // find the param list ( … ) — skip over generics `<…>` first
        let mut j = fn_idx + 1;
        while j < toks.len() && !toks[j].is("(") && !toks[j].is("{") && !toks[j].is(";") {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is("(") {
            i = fn_idx + 1;
            continue;
        }
        let params_start = j;
        let mut nest = 0usize;
        while j < toks.len() {
            if toks[j].is("(") {
                nest += 1;
            } else if toks[j].is(")") {
                nest -= 1;
                if nest == 0 {
                    break;
                }
            }
            j += 1;
        }
        let params_end = j;
        // `clock : & mut Clock` inside the params?
        let mut takes_clock = false;
        let mut p = params_start;
        while p + 4 <= params_end {
            if toks[p].is("clock")
                && toks[p + 1].is(":")
                && toks[p + 2].is("&")
                && toks[p + 3].is("mut")
                && toks.get(p + 4).map(|t| t.is("Clock")) == Some(true)
            {
                takes_clock = true;
                break;
            }
            p += 1;
        }
        // find body start (or `;` → trait signature, skip)
        let mut b = params_end + 1;
        while b < toks.len() && !toks[b].is("{") && !toks[b].is(";") {
            b += 1;
        }
        if b >= toks.len() || toks[b].is(";") {
            i = params_end + 1;
            continue;
        }
        let body_start = b;
        let mut depth = 0usize;
        let mut body_end = b;
        while body_end < toks.len() {
            if toks[body_end].is("{") {
                depth += 1;
            } else if toks[body_end].is("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            body_end += 1;
        }
        // No `pub` gate: trait-impl methods (`impl Device for …`) carry no
        // `pub` keyword yet are exactly the ops that must charge time.
        if takes_clock {
            let mut charged = false;
            for c in body_start..body_end {
                if !toks[c].is("clock") {
                    continue;
                }
                let next = toks.get(c + 1).map(|t| t.text.as_str());
                let next2 = toks.get(c + 2).map(|t| t.text.as_str());
                let prev = if c > 0 {
                    Some(toks[c - 1].text.as_str())
                } else {
                    None
                };
                match next {
                    // method call: anything but the read-only `now()`
                    Some(".") if next2 != Some("now") => {
                        charged = true;
                        break;
                    }
                    // argument position → the callee charges it
                    Some(",") | Some(")") => {
                        charged = true;
                        break;
                    }
                    _ => {}
                }
                if matches!(prev, Some("(") | Some(",") | Some("mut") | Some("&")) {
                    charged = true;
                    break;
                }
            }
            if !charged {
                hits.push((toks[fn_idx].line, name.clone()));
            }
        }
        i = body_start + 1;
    }
    for (line, name) in hits {
        ctx.push(
            "clock-charge",
            line,
            format!(
                "fn `{name}` takes `clock: &mut Clock` but neither charges nor \
                 forwards it; charge the op or rename the param `_clock` to mark it free"
            ),
        );
    }
}

/// For `bench-report`: repro binaries write their figures through the Report
/// harness, never straight to stdout — a bare print bypasses the JSON
/// pipeline and the CI regression gate silently loses that data.
fn rule_bench_report(ctx: &mut Ctx) {
    let norm = ctx.path.replace('\\', "/");
    if !norm.contains("crates/bench/src/bin/") {
        return;
    }
    let mut hits = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if matches!(t.text.as_str(), "print" | "println" | "eprint" | "eprintln")
            && ctx.toks.get(i + 1).map(|n| n.is("!")) == Some(true)
            && !ctx.in_test(i)
        {
            hits.push((t.line, t.text.clone()));
        }
    }
    for (line, mac) in hits {
        ctx.push(
            "bench-report",
            line,
            format!(
                "bare `{mac}!` in a repro binary: route output through \
                 `remem_bench::Report` (note/table/series) so it reaches the JSON pipeline"
            ),
        );
    }
}

/// For `nondet-parallel`: same-seed replay holds under any driver only if
/// nothing in `crates/sim` observes its own thread identity or the host's
/// topology. Structured concurrency primitives (`thread::scope`,
/// `Barrier`, mutexes, channels) are the intended tools and are not
/// flagged.
fn rule_nondet_parallel(ctx: &mut Ctx) {
    if ctx.krate != Some("sim") {
        return;
    }
    let mut hits = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let what = match t.text.as_str() {
            "ThreadId" => Some("`ThreadId`"),
            "available_parallelism" => Some("`available_parallelism`"),
            "thread_rng" => Some("`thread_rng`"),
            "park_timeout" => Some("`park_timeout`"),
            "current" if i >= 2 && ctx.toks[i - 1].is("::") && ctx.toks[i - 2].is("thread") => {
                Some("`thread::current`")
            }
            _ => None,
        };
        if let Some(what) = what {
            hits.push((t.line, what));
        }
    }
    for (line, what) in hits {
        ctx.push(
            "nondet-parallel",
            line,
            format!(
                "{what} in crates/sim: simulation results must not depend on thread \
                 identity or host topology — derive them from the seed and worker id"
            ),
        );
    }
}

/// For `quorum-write`: the remote file is the only layer that knows whether
/// an MR is replicated, so it must never bypass its own quorum routing. A
/// direct `fabric.write(…)` against a replicated MR updates exactly one
/// copy — reads that later fail over to a peer see stale bytes, and no
/// audit of the broker's ledger can catch it. Flags `.write(` whose
/// receiver ident is `fabric` or `fab` in non-test `crates/rfile` code,
/// and — since the WAL ships commit groups into a replicated ring — in any
/// engine file whose path mentions `wal`: a scalar fabric write from the
/// log path is a committed transaction with one copy, exactly the loss
/// the ring exists to prevent. Intentional single-copy writes carry a
/// waiver pragma.
fn rule_quorum_write(ctx: &mut Ctx) {
    let wal_path = ctx.krate == Some("engine") && ctx.path.contains("wal");
    if ctx.krate != Some("rfile") && !wal_path {
        return;
    }
    let mut hits = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.is("write")
            && i >= 2
            && ctx.toks[i - 1].is(".")
            && (ctx.toks[i - 2].is("fabric") || ctx.toks[i - 2].is("fab"))
            && ctx.toks.get(i + 1).map(|n| n.is("(")) == Some(true)
            && !ctx.in_test(i)
        {
            hits.push(t.line);
        }
    }
    for line in hits {
        let msg = if wal_path {
            "direct `fabric.write` on the WAL path: commit groups must reach the \
             replicated ring through its quorum append, never a scalar write; \
             waive only intentional single-copy writes"
        } else {
            "direct `fabric.write` in rfile library code: replicated MRs must go \
             through the quorum path (`write_quorum`); waive only intentional \
             single-copy writes"
        };
        ctx.push("quorum-write", line, msg.to_string());
    }
}

/// For `pushdown-charge`: the pushdown verb spends a *memory server's* CPU,
/// and only `RemoteFile::read_pushdown` routes that charge onto the
/// caller's clock, splits the span on extent boundaries, and retries
/// replicas on failover. A raw `fabric.pushdown(…)` outside `net`/`rfile`
/// library code computes near memory for free — the broker's compute ledger
/// never sees it and the simulated time stays flat. Flags `.pushdown(`
/// whose receiver ident is `fabric` or `fab` in non-test code of every
/// other crate; deliberate low-level experiments carry a waiver pragma.
fn rule_pushdown_charge(ctx: &mut Ctx) {
    let Some(krate) = ctx.krate else { return };
    if PUSHDOWN_OWNERS.contains(&krate) || ctx.test_file {
        return;
    }
    let mut hits = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.is("pushdown")
            && i >= 2
            && ctx.toks[i - 1].is(".")
            && (ctx.toks[i - 2].is("fabric") || ctx.toks[i - 2].is("fab"))
            && ctx.toks.get(i + 1).map(|n| n.is("(")) == Some(true)
            && !ctx.in_test(i)
        {
            hits.push(t.line);
        }
    }
    for line in hits {
        ctx.push(
            "pushdown-charge",
            line,
            "direct `fabric.pushdown` outside net/rfile: near-memory compute must \
             go through `RemoteFile::read_pushdown` so the server CPU charge, the \
             broker's compute ledger and replica failover all apply"
                .to_string(),
        );
    }
}

// ─── tree walker ─────────────────────────────────────────────────────────

/// Recursively collect `*.rs` files under `root/crates`, skipping `target`
/// and `fixtures` (the audit crate's own analysis test trees must not be
/// linted as workspace code).
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().map(|n| n == "target" || n == "fixtures") == Some(true) {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().map(|x| x == "rs") == Some(true) {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint every `crates/**/*.rs` under `root`: per-line rules, the four
/// interprocedural passes, and workspace-level pragma hygiene. Returns the
/// violations plus stats for the summary.
pub fn lint_tree(root: &Path) -> std::io::Result<(Vec<Violation>, LintStats)> {
    let a = crate::analyze::analyze_tree(root)?;
    Ok((a.violations, a.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn wall_clock_flagged_outside_sim_only() {
        let src = "fn f() { let t = Instant::now(); thread::sleep(d); }\n";
        let got = rules_of("crates/net/src/a.rs", src);
        assert_eq!(got, vec!["wall-clock", "wall-clock"]);
        assert!(
            rules_of("crates/sim/src/a.rs", src).is_empty(),
            "sim owns the clock"
        );
        // a local fn named sleep is not thread::sleep
        assert!(rules_of("crates/net/src/a.rs", "fn g() { sleep(d); }\n").is_empty());
    }

    #[test]
    fn hash_iter_flagged_in_replay_critical_non_test_code() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        assert_eq!(
            rules_of("crates/broker/src/a.rs", src),
            vec!["hash-iter", "hash-iter"]
        );
        assert!(
            rules_of("crates/workloads/src/a.rs", src).is_empty(),
            "not replay-critical"
        );
        // `use` lines and test code are exempt
        assert!(rules_of("crates/broker/src/a.rs", "use std::collections::HashMap;\n").is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n  fn f() { let m = HashMap::new(); }\n}\n";
        assert!(rules_of("crates/broker/src/a.rs", test_src).is_empty());
        assert!(
            rules_of("crates/broker/tests/a.rs", src).is_empty(),
            "test files exempt"
        );
    }

    #[test]
    fn no_unwrap_flagged_on_fallible_path_crates() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(
            rules_of("crates/rfile/src/a.rs", src),
            vec!["no-unwrap", "no-unwrap"]
        );
        assert!(
            rules_of("crates/engine/src/a.rs", src).is_empty(),
            "engine not in scope"
        );
        let test_src = "#[test]\nfn t() { x.unwrap(); }\n";
        assert!(rules_of("crates/rfile/src/a.rs", test_src).is_empty());
        // `unwrap` as a field/name, not a call, is fine
        assert!(rules_of("crates/rfile/src/a.rs", "fn f() { let unwrap = 1; }\n").is_empty());
    }

    #[test]
    fn seeded_rng_flagged_outside_seed_owners() {
        let src = "fn f() { let r = SimRng::seeded(7); }\n";
        assert_eq!(rules_of("crates/net/src/a.rs", src), vec!["seeded-rng"]);
        assert!(
            rules_of("crates/workloads/src/a.rs", src).is_empty(),
            "seed owner"
        );
        assert!(rules_of(
            "crates/net/src/a.rs",
            "#[test]\nfn t() { SimRng::seeded(7); }\n"
        )
        .is_empty());
    }

    #[test]
    fn clock_charge_requires_charge_or_forward() {
        // neither charges nor forwards → violation
        let bad = "fn read(&self, clock: &mut Clock, off: u64) -> u64 { off + 1 }\n";
        assert_eq!(
            rules_of("crates/storage/src/a.rs", bad),
            vec!["clock-charge"]
        );
        // charging via a method is fine
        let charge = "fn read(&self, clock: &mut Clock) { clock.advance(d); }\n";
        assert!(rules_of("crates/storage/src/a.rs", charge).is_empty());
        // forwarding to a callee is fine
        let fwd = "fn read(&self, clock: &mut Clock) { self.inner.read(clock, 0) }\n";
        assert!(rules_of("crates/storage/src/a.rs", fwd).is_empty());
        // `now()` alone does NOT count as charging
        let peek = "fn read(&self, clock: &mut Clock) -> SimTime { clock.now() }\n";
        assert_eq!(
            rules_of("crates/storage/src/a.rs", peek),
            vec!["clock-charge"]
        );
        // `_clock` opts out; trait signatures (no body) are skipped
        assert!(rules_of(
            "crates/storage/src/a.rs",
            "fn cap(&self, _clock: &mut Clock) {}\n"
        )
        .is_empty());
        assert!(rules_of(
            "crates/storage/src/a.rs",
            "trait D { fn read(&self, clock: &mut Clock); }\n"
        )
        .is_empty());
        // out-of-scope crates are not checked
        assert!(rules_of("crates/engine/src/a.rs", bad).is_empty());
    }

    #[test]
    fn pragmas_waive_and_hygiene_is_enforced() {
        // a pragma on the line above waives exactly that rule
        let waived = "// audit: allow(hash-iter, order never escapes)\n\
                      fn f() { let m = HashMap::new(); }\n";
        assert!(rules_of("crates/broker/src/a.rs", waived).is_empty());
        // unknown rule name
        let unknown = "// audit: allow(no-such-rule, whatever)\nfn f() {}\n";
        assert_eq!(rules_of("crates/broker/src/a.rs", unknown), vec!["pragma"]);
        // unused waiver
        let unused = "// audit: allow(hash-iter, nothing here)\nfn f() {}\n";
        assert_eq!(rules_of("crates/broker/src/a.rs", unused), vec!["pragma"]);
        // a used waiver without a reason still fails hygiene
        let bare = "// audit: allow(hash-iter)\nfn f() { let m = HashMap::new(); }\n";
        assert_eq!(rules_of("crates/broker/src/a.rs", bare), vec!["pragma"]);
        // count_pragmas only counts known-rule pragmas
        assert_eq!(count_pragmas(waived), 1);
        assert_eq!(count_pragmas(unknown), 0);
    }

    #[test]
    fn bench_report_flags_bare_prints_in_repro_binaries() {
        let src = "fn main() { println!(\"x\"); eprint!(\"y\"); }\n";
        assert_eq!(
            rules_of("crates/bench/src/bin/repro_fig1.rs", src),
            vec!["bench-report", "bench-report"]
        );
        // the harness library itself may print
        assert!(rules_of("crates/bench/src/report.rs", src).is_empty());
        assert!(rules_of("crates/engine/src/a.rs", src).is_empty());
        // waivable like every other rule
        let waived = "fn main() {\n// audit: allow(bench-report, debug aid)\nprintln!(\"x\");\n}\n";
        assert!(rules_of("crates/bench/src/bin/repro_fig1.rs", waived).is_empty());
        // a fn named println (no `!`) is not a macro call
        assert!(rules_of(
            "crates/bench/src/bin/repro_fig1.rs",
            "fn main() { println(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn nondet_parallel_flags_thread_identity_in_sim() {
        let src = "fn f() { let id = thread::current().id(); }\n";
        assert_eq!(
            rules_of("crates/sim/src/a.rs", src),
            vec!["nondet-parallel"]
        );
        let topo = "fn f() -> usize { std::thread::available_parallelism().unwrap().get() }\n";
        assert_eq!(
            rules_of("crates/sim/src/a.rs", topo),
            vec!["nondet-parallel"]
        );
        assert_eq!(
            rules_of("crates/sim/src/a.rs", "fn f(x: ThreadId) {}\n"),
            vec!["nondet-parallel"]
        );
        // structured concurrency is the intended tool, never flagged
        let scoped =
            "fn f() { thread::scope(|s| { s.spawn(|| {}); }); let b = Barrier::new(2); }\n";
        assert!(rules_of("crates/sim/src/a.rs", scoped).is_empty());
        // other crates and sim tests are out of scope
        assert!(rules_of("crates/net/src/a.rs", src).is_empty());
        let test_src = "#[test]\nfn t() { thread::current(); }\n";
        assert!(rules_of("crates/sim/src/a.rs", test_src).is_empty());
        // waivable like every other rule
        let waived = "// audit: allow(nondet-parallel, diagnostics only)\n\
                      fn f() { let id = thread::current(); }\n";
        assert!(rules_of("crates/sim/src/a.rs", waived).is_empty());
    }

    #[test]
    fn quorum_write_flags_direct_fabric_writes_in_rfile() {
        let src = "fn f() { self.fabric.write(clock, proto, local, mr, off, data); }\n";
        assert_eq!(rules_of("crates/rfile/src/a.rs", src), vec!["quorum-write"]);
        // the short binding used inside closures is caught too
        let short = "fn f() { fab.write(clock, proto, local, mr, off, data); }\n";
        assert_eq!(
            rules_of("crates/rfile/src/a.rs", short),
            vec!["quorum-write"]
        );
        // the quorum path itself and reads are fine
        let ok = "fn f() { fabric.write_quorum(clock, proto, local, &t, d); \
                  fabric.read(clock, proto, local, mr, off, buf); }\n";
        assert!(rules_of("crates/rfile/src/a.rs", ok).is_empty());
        // other writers (net itself, the broker's migration copies) are out
        // of scope — only rfile knows replication
        assert!(rules_of("crates/net/src/a.rs", src).is_empty());
        // tests may poke single copies to set up divergence scenarios
        let test_src = "#[test]\nfn t() { fabric.write(c, p, l, m, 0, d); }\n";
        assert!(rules_of("crates/rfile/src/a.rs", test_src).is_empty());
        // waivable like every other rule
        let waived = "fn f() {\n// audit: allow(quorum-write, zeroing a fresh stripe)\n\
                      fabric.write(c, p, l, m, 0, d);\n}\n";
        assert!(rules_of("crates/rfile/src/a.rs", waived).is_empty());
    }

    #[test]
    fn quorum_write_covers_the_engine_wal_path() {
        // a scalar fabric write from the WAL library path is a committed
        // transaction with one copy — flagged
        let src = "fn f() { self.fabric.write(clock, proto, local, mr, off, data); }\n";
        assert_eq!(
            rules_of("crates/engine/src/wal.rs", src),
            vec!["quorum-write"]
        );
        // the rest of the engine stays out of scope (it owns no fabric)
        assert!(rules_of("crates/engine/src/db.rs", src).is_empty());
        // WAL-path tests and waivers behave as in rfile
        let test_src = "#[test]\nfn t() { fabric.write(c, p, l, m, 0, d); }\n";
        assert!(rules_of("crates/engine/src/wal.rs", test_src).is_empty());
        let waived = "fn f() {\n// audit: allow(quorum-write, archive seeding is single-copy)\n\
                      fab.write(c, p, l, m, 0, d);\n}\n";
        assert!(rules_of("crates/engine/src/wal.rs", waived).is_empty());
    }

    #[test]
    fn pushdown_charge_flags_raw_verb_calls_outside_net_and_rfile() {
        let src = "fn f() { let r = fabric.pushdown(clock, proto, local, &req); }\n";
        assert_eq!(
            rules_of("crates/engine/src/a.rs", src),
            vec!["pushdown-charge"]
        );
        let short = "fn f() { fab.pushdown(clock, proto, local, &req); }\n";
        assert_eq!(
            rules_of("crates/workloads/src/a.rs", short),
            vec!["pushdown-charge"]
        );
        // the owners are exempt: net implements the verb, rfile is the
        // sanctioned charged path
        assert!(rules_of("crates/net/src/a.rs", src).is_empty());
        assert!(rules_of("crates/rfile/src/a.rs", src).is_empty());
        // the charged wrapper and other receivers are fine
        let ok = "fn f() { let s = file.read_pushdown(clock, off, len, &prog); \
                  planner.pushdown(est); }\n";
        assert!(rules_of("crates/engine/src/a.rs", ok).is_empty());
        // tests may drive the verb to pin protocol behavior
        let test_src = "#[test]\nfn t() { fabric.pushdown(c, p, l, &req); }\n";
        assert!(rules_of("crates/engine/src/a.rs", test_src).is_empty());
        assert!(rules_of("crates/engine/tests/a.rs", src).is_empty());
        // waivable like every other rule
        let waived = "fn f() {\n// audit: allow(pushdown-charge, protocol probe)\n\
                      fabric.pushdown(c, p, l, &req);\n}\n";
        assert!(rules_of("crates/engine/src/a.rs", waived).is_empty());
    }

    #[test]
    fn crate_scoping_parses_paths() {
        assert_eq!(crate_of("crates/broker/src/broker.rs"), Some("broker"));
        assert_eq!(crate_of("shims/parking_lot/src/lib.rs"), None);
        assert!(is_test_path("crates/net/tests/fabric.rs"));
        assert!(is_test_path("crates/net/benches/lat.rs"));
        assert!(!is_test_path("crates/net/src/fabric.rs"));
    }
}
