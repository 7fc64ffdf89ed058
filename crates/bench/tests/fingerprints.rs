//! Regression pin for every committed repro report fingerprint.
//!
//! The determinism fingerprint (`fnv1a:<16 hex>` over the whole report
//! minus its volatile notes) is the byte-level contract the kernel
//! optimizations promise to preserve: a change to scheduling order, RNG
//! consumption, metric snapshots, or report serialization shows up here
//! before anyone diffs a figure. When a report changes *intentionally*,
//! regenerate it and update the pin (the failure message prints the new
//! value); see EXPERIMENTS.md "Refreshing baselines".

use std::path::{Path, PathBuf};

use remem_bench::json::{parse, Json};

/// `(report name, committed fingerprint)` — one row per `repro_*` binary.
const PINNED: &[(&str, &str)] = &[
    ("repro_failover_recovery", "fnv1a:c658c7dbd5c47247"),
    ("repro_fault_recovery", "fnv1a:291163e2440b839c"),
    ("repro_fig11_rangescan_drilldown", "fnv1a:6b4cdc4da48d9954"),
    ("repro_fig12_bpext_size", "fnv1a:0040086c23d502b7"),
    ("repro_fig13_remote_impact", "fnv1a:d34ed385457f7e5a"),
    ("repro_fig14_hash_sort", "fnv1a:fed713f9287682bb"),
    ("repro_fig15a_semantic_mv", "fnv1a:4dec3fcfaea68910"),
    ("repro_fig15b_inlj_hj_crossover", "fnv1a:a3a81a1e3f385a62"),
    ("repro_fig16_priming", "fnv1a:fcb9ed8d0c95cc00"),
    ("repro_fig18_19_tpch", "fnv1a:7daebf6d13f9b61c"),
    ("repro_fig20_21_tpcds", "fnv1a:4aaf26764c8e44ea"),
    ("repro_fig22_23_tpcc", "fnv1a:176528fab67c3037"),
    ("repro_fig24_local_memory", "fnv1a:5f6dcd392cccbf51"),
    ("repro_fig25_multi_db_rangescan", "fnv1a:01cf4d1a3a4a0c79"),
    ("repro_fig26_cache_recovery", "fnv1a:7cdec298cc9d1ff7"),
    ("repro_fig27_parallel_load", "fnv1a:3688cc6b3c66a14b"),
    ("repro_fig3_4_io_micro", "fnv1a:57575db364e11d2d"),
    ("repro_fig5_multi_mem_servers", "fnv1a:5db006d1721d45fc"),
    ("repro_fig6_multi_db_servers", "fnv1a:84b33e9a1096fd0a"),
    ("repro_fig7_8_rangescan_updates", "fnv1a:f9f904d8b60655c3"),
    ("repro_fig9_10_rangescan_readonly", "fnv1a:461e1bb06af3191e"),
    ("repro_pushdown_selectivity", "fnv1a:ef1301068cd0fdbe"),
    ("repro_qd_sweep", "fnv1a:ad4365cd0de325aa"),
    ("repro_remote_wal", "fnv1a:8b2561d8572e93e6"),
    ("repro_sim_throughput", "fnv1a:1bc2b308a8d77d60"),
    ("repro_table1_ablations", "fnv1a:cbdaa88e2443124e"),
];

/// Repo root, resolved from this crate's manifest (`crates/bench/../..`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn fingerprint_of(path: &Path) -> String {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("remem-bench/v1"),
        "{} schema",
        path.display()
    );
    doc.get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{} has no fingerprint", path.display()))
        .to_string()
}

#[test]
fn committed_reports_match_pinned_fingerprints() {
    let root = repo_root();
    for (name, pinned) in PINNED {
        let got = fingerprint_of(&root.join(format!("results/{name}.json")));
        assert_eq!(
            &got, pinned,
            "results/{name}.json fingerprint changed — if intentional, \
             regenerate the report and update the pin to \"{got}\""
        );
    }
}

/// Every committed report is pinned: a new `repro_*` binary must add its
/// fingerprint above (and a deleted one must remove it).
#[test]
fn pin_table_is_complete() {
    let root = repo_root();
    let mut on_disk: Vec<String> = std::fs::read_dir(root.join("results"))
        .expect("results dir")
        .filter_map(|e| {
            let name = e.ok()?.file_name().to_string_lossy().into_owned();
            let stem = name.strip_suffix(".json")?;
            stem.starts_with("repro_").then(|| stem.to_string())
        })
        .collect();
    on_disk.sort();
    let pinned: Vec<String> = PINNED.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(on_disk, pinned, "pin table out of sync with results/");
}
