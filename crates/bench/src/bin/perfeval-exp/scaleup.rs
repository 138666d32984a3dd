//! Supplementary experiment — the scale-factor sweep behind the slide-202
//! gnuplot example ("Execution time for various scale factors"), run for
//! real: Q1 and Q6 across five scale factors, with a power-law fit that
//! classifies the empirical scalability, and the full suite artifact
//! (CSV + gnuplot + config + README) written when `PERFEVAL_OUT` is set.

use crate::Ctx;
use minidb::{ExecMode, Session};
use perfeval_bench::{catalog_at, measure_user_ms};
use perfeval_harness::suite::{ExperimentSuite, Instructions};
use perfeval_harness::{AsciiChart, GnuplotScript, Properties};
use perfeval_stats::regression::power_law_fit;
use workload::queries;

pub fn run(ctx: &Ctx) {
    let threads = ctx.threads();
    if threads > 1 {
        println!("running on {threads} worker threads (-Dthreads={threads})\n");
    }

    let sfs = [0.002, 0.004, 0.008, 0.016, 0.032];
    // Only the *untimed* work parallelizes: catalog generation is
    // deterministic (splittable dbgen streams) and lands in sfs order at
    // any thread count. The timed runs stay serial on purpose — concurrent
    // measurements compete for cores, and the wall-clock inflation would
    // make the thread count an unrecorded factor in the scale-up curve.
    let catalogs = perfeval_exec::parallel_map(sfs.len(), threads, |i| catalog_at(sfs[i])).0;
    let mut q1_points = Vec::new();
    let mut q6_points = Vec::new();
    println!("engine: {} (Session::new's tier)\n", ExecMode::default());
    println!("   sf      Q1 (ms)    Q6 (ms)");
    for (&sf, catalog) in sfs.iter().zip(catalogs) {
        let mut session = Session::new(catalog);
        let q1 = measure_user_ms(&mut session, &queries::q1(), 3);
        let q6 = measure_user_ms(&mut session, &queries::q6(), 3);
        println!("{sf:>6.3}  {q1:>9.3}  {q6:>9.3}");
        q1_points.push((sf, q1));
        q6_points.push((sf, q6));
    }

    // Power-law fits: time = a * sf^b; b ~ 1 is linear scale-up.
    for (name, points) in [("Q1", &q1_points), ("Q6", &q6_points)] {
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let (a, b, r2) = power_law_fit(&xs, &ys).expect("positive data");
        println!(
            "\n{name}: time ≈ {a:.2}·sf^{b:.2}  (R²={r2:.3}) — {}",
            if (0.7..1.3).contains(&b) {
                "linear scale-up"
            } else if b < 0.7 {
                "sub-linear (fixed overheads amortize)"
            } else {
                "super-linear (trouble at scale)"
            }
        );
        assert!(
            (0.5..1.6).contains(&b),
            "{name}: scan-bound queries must scale roughly linearly, got exponent {b:.2}"
        );
    }

    let chart = AsciiChart::new(
        "execution time for various scale factors",
        "scale factor",
        "server time (ms)",
    )
    .series("Q1", q1_points.clone())
    .series("Q6", q6_points.clone());
    println!("\n{}", chart.render());

    if let Some(root) = &ctx.out {
        let suite = ExperimentSuite::create(root, "scaleup").expect("suite");
        let rows: Vec<Vec<f64>> = q1_points
            .iter()
            .zip(&q6_points)
            .map(|(&(sf, q1), &(_, q6))| vec![sf, q1, q6])
            .collect();
        suite
            .write_result("scaleup.csv", &["sf", "q1_ms", "q6_ms"], &rows)
            .expect("csv");
        suite
            .write_plot(
                "scaleup.gnu",
                &GnuplotScript::new(
                    "Execution time for various scale factors",
                    "Scale factor",
                    "Execution time (ms)",
                    "scaleup.eps",
                )
                .series(perfeval_harness::gnuplot::Series {
                    data_file: "../res/scaleup.csv".into(),
                    x_col: 1,
                    y_col: 2,
                    title: "Q1".into(),
                })
                .series(perfeval_harness::gnuplot::Series {
                    data_file: "../res/scaleup.csv".into(),
                    x_col: 1,
                    y_col: 3,
                    title: "Q6".into(),
                })
                .paper_size(0.5, 0.5),
            )
            .expect("plot");
        let mut conf = Properties::new();
        conf.set("seed", &perfeval_bench::BENCH_SEED.to_string());
        conf.set("sfs", "0.002,0.004,0.008,0.016,0.032");
        conf.set("replications", "3");
        conf.set("threads", &threads.to_string());
        conf.set("engine", &ExecMode::default().to_string());
        suite.record_config(&conf).expect("config");
        suite
            .write_instructions(&Instructions {
                title: "scale-up sweep".into(),
                requirements: "Rust 1.80+".into(),
                extra_setup: String::new(),
                command:
                    "PERFEVAL_OUT=out cargo run --release -p perfeval-bench --bin perfeval-exp -- scaleup"
                        .into(),
                output_location: "res/scaleup.csv, graphs/scaleup.gnu".into(),
                duration: "~1 min".into(),
            })
            .expect("instructions");
        println!("wrote suite under {}/scaleup", root.display());
    }
}
