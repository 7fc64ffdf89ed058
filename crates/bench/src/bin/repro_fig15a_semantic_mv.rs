//! Figure 15a: semantic caching with materialized views — the improvement
//! factor of MV-answerable TPC-H queries when the MV lives on HDD+SSD vs
//! pinned in remote memory.
//!
//! Paper: MVs give 1-4 orders of magnitude over the base plans even on
//! disk; pinning them in remote memory adds up to another order of
//! magnitude, with larger MVs benefiting more.

use std::sync::Arc;

use remem::{Cluster, Design, Device, RFileConfig};
use remem_bench::{dss_opts, Report};
use remem_engine::semantic::MvPolicy;
use remem_sim::Clock;
use remem_workloads::tpch::{self, TpchParams};

/// The seven TPC-H queries DTA recommended MVs for (we use our shapes for
/// Q1, Q3, Q5, Q9, Q10, Q12, Q18).
const MV_QUERIES: [usize; 7] = [1, 3, 5, 9, 10, 12, 18];

fn main() {
    let mut report = Report::new(
        "repro_fig15a_semantic_mv",
        "Fig 15a",
        "MV speed-up: base plan vs MV on SSD vs MV in remote memory",
    );
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(192 << 20)
        .metrics(report.registry())
        .build();
    let mut clock = Clock::new();
    let db = Design::Custom
        .build(&cluster, &mut clock, &dss_opts(20))
        .expect("build");
    let t = tpch::load(&db, &mut clock, &TpchParams::default());

    let mut rows = Vec::new();
    let mut ssd_factors = Vec::new();
    let mut remote_factors = Vec::new();
    for q in MV_QUERIES {
        // base plan
        let t0 = clock.now();
        let result_cardinality = tpch::run_query(&db, &mut clock, &t, q);
        let base = clock.now().since(t0);

        // the MV materializes the query's (small) result; row count mirrors
        // the base result so bigger results -> bigger MVs
        let mv_rows: Vec<remem_engine::Row> = (0..result_cardinality.max(1) as i64)
            .map(|i| remem_engine::exec::int_row(&[i, i * 2, i * 3]))
            .collect();

        let mut factors = Vec::new();
        for (name, device) in [
            (
                "ssd",
                Arc::new(remem::Ssd::new(remem::SsdConfig::with_capacity(16 << 20)))
                    as Arc<dyn Device>,
            ),
            (
                "remote",
                cluster
                    .remote_file(
                        &mut clock,
                        cluster.db_server,
                        16 << 20,
                        RFileConfig::custom(),
                    )
                    .unwrap() as Arc<dyn Device>,
            ),
        ] {
            let mv_name = format!("q{q}_{name}");
            {
                let mut ctx = db.exec_ctx(&mut clock);
                db.semantic()
                    .create_mv(
                        &mut ctx,
                        &mv_name,
                        vec![t.lineitem],
                        MvPolicy::Snapshot,
                        &mv_rows,
                        device,
                    )
                    .expect("create mv");
            }
            let t1 = clock.now();
            let served = {
                let mut ctx = db.exec_ctx(&mut clock);
                db.semantic()
                    .get_mv(&mut ctx, &mv_name)
                    .expect("mv")
                    .expect("valid")
            };
            assert_eq!(served.len(), mv_rows.len());
            let cached = clock.now().since(t1);
            factors.push(base.as_nanos() as f64 / cached.as_nanos().max(1) as f64);
        }
        rows.push(vec![
            format!("Q{q}"),
            format!("{:.1}", base.as_millis_f64()),
            format!("{:.0}x", factors[0]),
            format!("{:.0}x", factors[1]),
        ]);
        ssd_factors.push((format!("Q{q}"), factors[0]));
        remote_factors.push((format!("Q{q}"), factors[1]));
    }
    report.table(
        "",
        &["query", "base ms", "MV on HDD+SSD", "MV in remote memory"],
        rows,
    );
    report.series("mv_ssd_speedup", &ssd_factors);
    report.series("mv_remote_speedup", &remote_factors);
    report.blank();
    let min_ssd = ssd_factors
        .iter()
        .map(|(_, f)| *f)
        .fold(f64::INFINITY, f64::min);
    report.check_ratio_ge(
        "mv_orders_of_magnitude",
        "every MV gives at least 10x over its base plan even on SSD",
        ("min SSD speedup", min_ssd),
        ("10x floor", 10.0),
        1.0,
    );
    let remote_wins = ssd_factors
        .iter()
        .zip(&remote_factors)
        .filter(|((_, s), (_, r))| r > s)
        .count();
    report.check_assert(
        "remote_beats_ssd",
        "remote-memory MVs beat SSD MVs on every query",
        remote_wins == ssd_factors.len(),
    );
    let best_gain = ssd_factors
        .iter()
        .zip(&remote_factors)
        .map(|((_, s), (_, r))| r / s)
        .fold(0.0f64, f64::max);
    report.check_ratio_ge(
        "remote_adds_magnitude",
        "pinning in remote memory adds >= 3x over SSD for the biggest MV",
        ("best remote/ssd gain", best_gain),
        ("3x floor", 3.0),
        1.0,
    );
    report.gauge("min_ssd_speedup", min_ssd, 20.0);
    report.gauge("best_remote_over_ssd", best_gain, 20.0);
    report.finish();
}
