//! The complete workflow, end to end: adaptive measurement, a replicated
//! factorial design with ANOVA significance, and a rendered experiment
//! report — the document the repeatability chapter says should accompany
//! every published number.
//!
//! Run with: `cargo run --release --example lab_notebook`

use perfeval::core::anova::anova;
use perfeval::core::runner::Runner;
use perfeval::harness::report::{Report, ResultTable};
use perfeval::measure::{measure_until, SoftwareSpec};
use perfeval::minidb::optimizer::OptimizerConfig;
use perfeval::prelude::*;
use perfeval::workload::queries;

fn main() {
    let config = GenConfig {
        scale_factor: 0.005,
        ..GenConfig::default()
    };
    let catalog = generate(&config);
    let sql = queries::q6();

    // --- adaptive measurement: replicate until the CI is tight ---
    let mut session = Session::new(catalog.clone());
    session.query(&sql).run().unwrap(); // warm
    let adaptive = measure_until(0.95, 0.05, 5, 200, || {
        session.query(&sql).run().unwrap().server_user_ms()
    });
    println!(
        "adaptive measurement, engine {}: {} runs, mean {} (converged: {})",
        session.mode(),
        adaptive.runs(),
        adaptive.interval,
        adaptive.converged
    );

    // --- replicated 2x2 design + ANOVA ---
    let design = TwoLevelDesign::full(&["engine", "rewriter"]);
    let mut experiment = |a: &Assignment| {
        let mode = if a.num("engine").unwrap() > 0.0 {
            ExecMode::Optimized
        } else {
            ExecMode::Debug
        };
        let mut s = Session::new(catalog.clone()).with_mode(mode);
        if a.num("rewriter").unwrap() < 0.0 {
            s.set_optimizer(OptimizerConfig::none());
        }
        s.query(&sql).run().unwrap();
        s.query(&sql).run().unwrap().server_user_ms()
    };
    let table = Runner::new(4).run_two_level(&design, &mut experiment);
    let significance = anova(&design, &table.replicates, 0.95).unwrap();
    println!("\nANOVA over (engine, rewriter), 4 replications:");
    print!("{}", significance.render());
    println!(
        "significant effects: {:?}",
        significance.significant_effects()
    );

    // --- the report ---
    let mut results = ResultTable::new("Q6 server time by configuration", "ms");
    for (assignment, reps) in table.assignments.iter().zip(&table.replicates) {
        results.row(&assignment.to_string(), reps.clone());
    }
    let mut props = Properties::new();
    props.set("seed", &config.seed.to_string());
    props.set("scale_factor", &config.scale_factor.to_string());
    props.set("query", "q6");
    props.set("replications", "4");

    let report = Report::new(
        "Q6: engine build × plan rewriter",
        "quantify how much of Q6's runtime is governed by the execution \
         engine versus the plan rewriter, with proper error accounting",
    )
    .environment(perfeval::measure::EnvSpec::capture())
    .software(SoftwareSpec::new(
        "minidb",
        env!("CARGO_PKG_VERSION"),
        "this repository",
        "cargo release profile; engines: DBG (interpreter) / OPT (vectorized)",
    ))
    .protocol("one warmup run per configuration, 4 measured replications, hot buffer state")
    .config(props)
    .table(results)
    .conclusions(
        "the engine build dominates (see ANOVA); the rewriter's effect is \
         an order of magnitude smaller on this single-table query, and the \
         interaction is within noise.",
    );

    println!("\n==================== report ====================\n");
    print!("{}", report.render());
    if !report.missing_sections().is_empty() {
        println!("(missing sections: {:?})", report.missing_sections());
    }
}
