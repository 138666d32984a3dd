//! E3 — DBG/OPT relative execution time across 22 queries (slides 40–41).
//!
//! The paper's figure plots `DBG/OPT` per TPC-H query, all points between
//! 1.0 and ~2.2 ("compiler optimization ⇒ up to factor 2 performance
//! difference"). Our DBG engine is a row-at-a-time interpreter rather than
//! a `-O0` build of the same binary, so the ratios skew larger on
//! scan-heavy queries; the shape to match is: OPT wins essentially
//! everywhere, by a query-dependent factor of roughly one-to-a-few.
//!
//! Also writes `dbg_opt.csv` + a gnuplot script if `PERFEVAL_OUT` is set.

use crate::Ctx;
use minidb::ExecMode;
use perfeval_bench::{bench_catalog, measure_user_ms, session_with_mode};
use perfeval_harness::{write_csv, GnuplotScript};
use perfeval_stats::Summary;
use workload::queries;

pub fn run(ctx: &Ctx) {
    let threads = ctx.threads();
    if threads > 1 {
        println!("running on {threads} worker threads (-Dthreads={threads})\n");
    }
    let catalog = bench_catalog();
    let family = queries::all_family();

    // Each query measures on its own worker; results come back in query
    // order regardless of thread count. With -Dthreads=1 (the default, and
    // the right choice for publishable timings) this is the serial loop.
    let measured = perfeval_exec::parallel_map(family.len(), threads, |i| {
        let mut dbg = session_with_mode(&catalog, ExecMode::Debug);
        let mut opt = session_with_mode(&catalog, ExecMode::Optimized);
        let d = measure_user_ms(&mut dbg, &family[i], 5);
        let o = measure_user_ms(&mut opt, &family[i], 5);
        (d, o)
    })
    .0;

    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    println!(" q   DBG (ms)   OPT (ms)   DBG/OPT");
    for (i, &(d, o)) in measured.iter().enumerate() {
        let ratio = d / o.max(1e-9);
        println!("{:>2}  {:>9.3}  {:>9.3}  {:>8.2}", i + 1, d, o, ratio);
        ratios.push(ratio);
        rows.push(vec![(i + 1) as f64, ratio]);
    }

    let s = Summary::from_slice(&ratios);
    let geo = s.geometric_mean().expect("positive ratios");
    println!(
        "\nDBG/OPT ratio: min {:.2}, geometric mean {:.2}, max {:.2}",
        s.min(),
        geo,
        s.max()
    );
    println!("paper's figure: ratios between 1.0 and ~2.2 across 22 TPC-H queries");

    // Shape assertions.
    let opt_wins = ratios.iter().filter(|r| **r > 1.0).count();
    assert!(
        opt_wins >= 18,
        "OPT must win on (almost) every query; won {opt_wins}/22"
    );
    assert!(geo > 1.3, "the build factor must be material: {geo:.2}");
    assert!(
        s.max() / s.min().max(0.1) > 1.5,
        "ratio must vary per query"
    );

    if let Some(dir) = &ctx.out {
        write_csv(&dir.join("dbg_opt.csv"), &["query", "ratio"], &rows).expect("write csv");
        GnuplotScript::new(
            "relative execution time: DBG/OPT",
            "TPC-H-like queries",
            "relative execution time DBG/OPT (ratio)",
            "dbg_opt.eps",
        )
        .single("dbg_opt.csv")
        .paper_size(0.5, 0.5)
        .write_to(&dir.join("dbg_opt.gnu"))
        .expect("write gnuplot");
        println!("wrote {}/dbg_opt.{{csv,gnu}}", dir.display());
    }
}
