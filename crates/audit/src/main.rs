//! CLI for the workspace determinism lint and interprocedural analysis.
//!
//! ```text
//! cargo run -p remem-audit -- lint  [--root <path>] [--budget-ms <n>]
//! cargo run -p remem-audit -- graph [--root <path>] [--format dot|json]
//! cargo run -p remem-audit -- paths [--root <path>] --to <panic|index|NAME>
//!                                   [--from kernel|bins|NAME]
//! ```
//!
//! `lint` runs the per-line rules plus all four interprocedural passes
//! (clock-charge soundness, panic reachability, lock-order, determinism
//! taint) and exits non-zero if anything fires, the justified-pragma
//! budget (10) is exceeded, or more panic sites are reachable from the
//! repro binaries than their budget (197). `--budget-ms` additionally
//! fails the run when the full-workspace analysis itself takes longer than
//! the given wall time — the CI perf budget keeping the lint cheap enough
//! for every PR.
//!
//! `graph` dumps the resolved call graph (DOT for eyeballs, JSON for
//! tooling); `paths` answers "how does the kernel reach this sink?" with
//! the same shortest-call-path witnesses the lint prints.

use std::path::PathBuf;
use std::process::ExitCode;

use remem_audit::callgraph::Workspace;
use remem_audit::passes::{bin_roots, kernel_roots, Waivers};

/// Hard ceiling on `// audit: allow` pragmas across the tree: the escape
/// hatch must stay an exception, not a lifestyle.
const PRAGMA_BUDGET: usize = 10;

/// Ceiling on panic sites reachable from the repro binaries (`paths --to
/// panic --from bins`): the count may shrink but never grow.
const BIN_PANIC_BUDGET: usize = 197;

fn usage() -> ExitCode {
    eprintln!(
        "usage: remem-audit lint  [--root <dir>] [--budget-ms <n>]\n\
         \x20      remem-audit graph [--root <dir>] [--format dot|json]\n\
         \x20      remem-audit paths [--root <dir>] --to <panic|index|NAME> \
         [--from kernel|bins|NAME]"
    );
    ExitCode::from(2)
}

struct Opts {
    root: PathBuf,
    budget_ms: Option<u64>,
    format: String,
    to: Option<String>,
    from: String,
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        budget_ms: None,
        format: "dot".to_string(),
        to: None,
        from: "kernel".to_string(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => o.root = PathBuf::from(it.next()?),
            "--budget-ms" => o.budget_ms = Some(it.next()?.parse().ok()?),
            "--format" => o.format = it.next()?.clone(),
            "--to" => o.to = Some(it.next()?.clone()),
            "--from" => o.from = it.next()?.clone(),
            _ => return None,
        }
    }
    Some(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(opts) = parse(&args[1..]) else {
        return usage();
    };
    match cmd.as_str() {
        "lint" => cmd_lint(&opts),
        "graph" => cmd_graph(&opts),
        "paths" => cmd_paths(&opts),
        _ => usage(),
    }
}

fn analyze(opts: &Opts) -> Result<(remem_audit::Analysis, u64), ExitCode> {
    // audit: allow(wall-clock, lint self-timing for the CI perf budget; never inside a simulation)
    let t0 = std::time::Instant::now();
    match remem_audit::analyze_tree(&opts.root) {
        Ok(a) => Ok((a, t0.elapsed().as_millis() as u64)),
        Err(e) => {
            eprintln!("remem-audit: cannot walk {}: {e}", opts.root.display());
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_lint(opts: &Opts) -> ExitCode {
    let (a, elapsed_ms) = match analyze(opts) {
        Ok(r) => r,
        Err(c) => return c,
    };
    for v in &a.violations {
        println!("{v}");
    }
    let budget_blown = a.stats.pragmas_used > PRAGMA_BUDGET;
    if budget_blown {
        println!(
            "remem-audit: pragma budget exceeded: {} used > {} allowed",
            a.stats.pragmas_used, PRAGMA_BUDGET
        );
    }
    let time_blown = opts.budget_ms.map(|b| elapsed_ms > b) == Some(true);
    if time_blown {
        println!(
            "remem-audit: analysis took {elapsed_ms} ms > budget {} ms",
            opts.budget_ms.unwrap_or(0)
        );
    }
    let panics_blown = a.advisory.bin_panic_sites > BIN_PANIC_BUDGET;
    if panics_blown {
        println!(
            "remem-audit: bin panic budget exceeded: {} panic sites reachable from repro \
             binaries > {} allowed (inspect with `paths --to panic --from bins`)",
            a.advisory.bin_panic_sites, BIN_PANIC_BUDGET
        );
    }
    println!(
        "remem-audit: {} files, {} violations, {}/{} pragmas, {}/{} bin panic sites, \
         lock graph {} nodes / {} edges, {} ms",
        a.stats.files,
        a.violations.len(),
        a.stats.pragmas_used,
        PRAGMA_BUDGET,
        a.advisory.bin_panic_sites,
        BIN_PANIC_BUDGET,
        a.advisory.lock_nodes,
        a.advisory.lock_edges,
        elapsed_ms
    );
    if a.violations.is_empty() && !budget_blown && !time_blown && !panics_blown {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_graph(opts: &Opts) -> ExitCode {
    let (a, _) = match analyze(opts) {
        Ok(r) => r,
        Err(c) => return c,
    };
    match opts.format.as_str() {
        "dot" => print!("{}", a.workspace.to_dot()),
        "json" => print!("{}", a.workspace.to_json()),
        other => {
            eprintln!("remem-audit: unknown --format `{other}` (dot|json)");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn roots_of(ws: &Workspace, spec: &str) -> Vec<usize> {
    match spec {
        "kernel" => kernel_roots(ws),
        "bins" => bin_roots(ws),
        name => (0..ws.fns.len())
            .filter(|&id| !ws.item(id).is_test && ws.qual_name(id).contains(name))
            .collect(),
    }
}

fn cmd_paths(opts: &Opts) -> ExitCode {
    let Some(to) = &opts.to else {
        return usage();
    };
    let (a, _) = match analyze(opts) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let ws = &a.workspace;
    let roots = roots_of(ws, &opts.from);
    if roots.is_empty() {
        eprintln!("remem-audit: no roots match `{}`", opts.from);
        return ExitCode::from(2);
    }
    let waivers = Waivers::new(&ws.files);
    match to.as_str() {
        "panic" => {
            let reach = ws.reachable(&roots);
            let mut unwaived = 0usize;
            let mut total = 0usize;
            for &id in &reach {
                let f = ws.item(id);
                for p in &f.panics {
                    total += 1;
                    let fi = ws.fns[id].0;
                    let waived = waivers.peek(&ws.files, fi, "panic-path", p.line)
                        || waivers.peek(&ws.files, fi, "panic-path", f.line);
                    if !waived {
                        unwaived += 1;
                    }
                    let chain = ws
                        .shortest_path(&roots, |x| x == id)
                        .unwrap_or_else(|| vec![id]);
                    let names: Vec<String> = chain.iter().map(|&c| ws.qual_name(c)).collect();
                    println!(
                        "{}`{}` at {}:{}  via {}",
                        if waived { "[waived] " } else { "" },
                        p.what,
                        ws.file(id).path,
                        p.line,
                        names.join(" -> ")
                    );
                }
            }
            println!(
                "paths: {total} panic sites reachable from `{}` ({unwaived} unwaived)",
                opts.from
            );
            if unwaived == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "index" => {
            let reach = ws.reachable(&roots);
            let mut total = 0usize;
            for &id in &reach {
                for line in &ws.item(id).indexing {
                    total += 1;
                    println!(
                        "indexing at {}:{} in {}",
                        ws.file(id).path,
                        line,
                        ws.qual_name(id)
                    );
                }
            }
            println!(
                "paths: {total} indexing sites reachable from `{}` (advisory)",
                opts.from
            );
            ExitCode::SUCCESS
        }
        name => match ws.shortest_path(&roots, |id| ws.qual_name(id).contains(name)) {
            Some(chain) => {
                let names: Vec<String> = chain
                    .iter()
                    .map(|&c| format!("{} ({})", ws.qual_name(c), ws.locus(c)))
                    .collect();
                println!("{}", names.join(" -> "));
                ExitCode::SUCCESS
            }
            None => {
                println!("paths: no path from `{}` to `{name}`", opts.from);
                ExitCode::SUCCESS
            }
        },
    }
}
