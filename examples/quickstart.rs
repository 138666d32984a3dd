//! Quickstart: load a workload, measure a query the honest way, and find
//! out which knob matters with a 2² factorial design.
//!
//! Run with: `cargo run --release --example quickstart`

use perfeval::prelude::*;
use perfeval::workload::queries;

fn main() {
    // 1. A deterministic TPC-H-like database: seed + scale factor is the
    //    whole recipe (repeatability!).
    let config = GenConfig {
        scale_factor: 0.002,
        ..GenConfig::default()
    };
    println!("generating TPC-H-like data (sf={})...", config.scale_factor);
    let catalog = generate(&config);
    println!(
        "  lineitem: {} rows",
        catalog.table("lineitem").unwrap().row_count()
    );

    // 2. Run Q1 with per-phase timing — know what you measure, including
    //    which engine tier: `Session::new` runs the default, SIMD (the one
    //    `minidb-serve` serves); `with_mode` picks another.
    let mut session = Session::new(catalog.clone());
    let result = session.query(&queries::q1()).run().unwrap();
    println!(
        "\nQ1 phase breakdown (mclient -t style), engine {}:",
        session.mode()
    );
    print!("{}", result.phases.render());
    println!("rows: {}", result.row_count());

    // 3. Replicate and report a confidence interval, not a single number.
    let times: Vec<f64> = (0..5)
        .map(|_| {
            session
                .query(&queries::q1())
                .run()
                .unwrap()
                .server_user_ms()
        })
        .collect();
    let ci = mean_confidence_interval(&times, 0.95).unwrap();
    println!("\nQ1 server time over 5 hot runs: {ci} ms");

    // 4. Which knob matters: execution engine (DBG/OPT) or the optimizer?
    //    A 2² design answers with 4·reps runs and quantifies the
    //    interaction, which one-at-a-time testing would miss.
    let design = TwoLevelDesign::full(&["engine_opt", "rewriter_on"]);
    let mut experiment = |a: &Assignment| {
        let mode = if a.num("engine_opt").unwrap() > 0.0 {
            ExecMode::Optimized
        } else {
            ExecMode::Debug
        };
        let mut s = Session::new(catalog.clone()).with_mode(mode);
        if a.num("rewriter_on").unwrap() < 0.0 {
            s.set_optimizer(perfeval::minidb::optimizer::OptimizerConfig::none());
        }
        s.query(&queries::q1()).run().unwrap(); // warm up
        s.query(&queries::q1()).run().unwrap().server_user_ms()
    };
    let (runs, variation) = run_and_analyze(&design, 3, &mut experiment).unwrap();
    println!("\n2x2 design over (engine build, plan rewriter), 3 replications:");
    print!("{}", runs.render());
    println!("\nallocation of variation:");
    print!("{}", variation.render());
    println!(
        "-> the dominant factor is '{}'",
        variation.ranked_effects()[0].0
    );
}
