//! Figure 27 (Appendix C): parallel data loading using idle remote servers'
//! CPU and memory — load splits into remote in-memory files, then pull them
//! to the destination over RDMA.
//!
//! Paper: 160 GB / 80 splits; 1 server takes 6,919 s, 8 servers 894 s
//! (~7.7× speedup) with the copy time negligible throughout.

use remem_bench::Report;
use remem_workloads::loading::{run_parallel_load, LoadingParams};

fn main() {
    let mut report = Report::new(
        "repro_fig27_parallel_load",
        "Fig 27",
        "parallel loading: 160 (scaled) GB over 1-8 loader servers",
    );
    let p = LoadingParams::default();
    let base = run_parallel_load(&p, 1).total();
    let mut rows = Vec::new();
    let mut speedup = Vec::new();
    let mut copy_frac_pct = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let r = run_parallel_load(&p, n);
        let s = base.as_nanos() as f64 / r.total().as_nanos() as f64;
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", r.load.as_secs_f64()),
            format!("{:.3}", r.copy.as_secs_f64()),
            format!("{s:.1}x"),
        ]);
        speedup.push((format!("{n}srv"), s));
        copy_frac_pct.push((
            format!("{n}srv"),
            r.copy.as_secs_f64() / r.total().as_secs_f64().max(1e-9) * 100.0,
        ));
    }
    report.table(
        "load and copy time vs loader-server count:",
        &["loader servers", "load s", "copy s", "speedup"],
        rows,
    );
    report.series("speedup", &speedup);
    report.series("copy_pct_of_total", &copy_frac_pct);
    report.blank();
    report.check_order_asc(
        "speedup_grows_with_servers",
        "speedup rises monotonically with loader servers",
        &speedup,
        2.0,
    );
    report.check_ratio_ge(
        "near_linear_at_8",
        "8 loader servers reach >= 6x (paper: 7.7x)",
        ("speedup at 8", speedup[3].1),
        ("6x floor", 6.0),
        1.0,
    );
    let worst_copy = copy_frac_pct.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    report.check_assert(
        "copy_time_negligible",
        "the RDMA copy never exceeds 10% of the total load time",
        worst_copy <= 10.0,
    );
    report.gauge("speedup_8_servers", speedup[3].1, 10.0);
    report.gauge("copy_pct_worst", worst_copy, 50.0);
    report.finish();
}
