//! E15 — automatically generating graphs with gnuplot (slides 202–205).
//!
//! Reproduces the tutorial's exact workflow: a data file
//! `results-m1-n5.csv` with the slide's numbers, a generated
//! `plot-m1-n5.gnu` command file, and the full suite layout
//! (`data/ res/ graphs/`) with recorded configuration and instructions.

use crate::Ctx;
use perfeval_harness::csvio::read_csv;
use perfeval_harness::suite::{ExperimentSuite, Instructions};
use perfeval_harness::{GnuplotScript, Properties};

pub fn run(ctx: &Ctx) {
    let root = ctx
        .out
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join("perfeval_e15"));
    let suite = ExperimentSuite::create(&root, "m1-n5").expect("suite layout");

    // 1. The data file, exactly as on the slide.
    let rows = vec![vec![1.0, 1234.0], vec![2.0, 2467.0], vec![3.0, 4623.0]];
    let csv = suite
        .write_result("results-m1-n5.csv", &["scale_factor", "ms"], &rows)
        .expect("write results");
    println!("1. data file {}:", csv.display());
    print!("{}", std::fs::read_to_string(&csv).expect("readable"));

    // 2. The gnuplot command file, exactly the slide's settings.
    let script = GnuplotScript::new(
        "Execution time for various scale factors",
        "Scale factor",
        "Execution time (ms)",
        "results-m1-n5.eps",
    )
    .single("../res/results-m1-n5.csv")
    .paper_size(0.5, 0.5);
    let gnu = suite
        .write_plot("plot-m1-n5.gnu", &script)
        .expect("write plot");
    println!("\n2. command file {}:", gnu.display());
    print!("{}", std::fs::read_to_string(&gnu).expect("readable"));

    // 3. Configuration + instructions recorded next to the results.
    let mut props = Properties::new();
    props.set("m", "1");
    props.set("n", "5");
    props.set("seed", "20080408");
    suite.record_config(&props).expect("record config");
    suite
        .write_instructions(&Instructions {
            title: "m1-n5 scale-factor sweep".into(),
            requirements: "Rust 1.80+, gnuplot (optional, for rendering)".into(),
            extra_setup: String::new(),
            command: "cargo run --release -p perfeval-bench --bin perfeval-exp -- e15".into(),
            output_location: "res/results-m1-n5.csv, graphs/plot-m1-n5.gnu".into(),
            duration: "< 1 s".into(),
        })
        .expect("write instructions");
    println!("\n3. call: gnuplot graphs/plot-m1-n5.gnu  (config + README recorded)");

    // Verify the whole artifact reads back cleanly.
    let table = read_csv(&csv).expect("valid csv");
    assert_eq!(table.rows, rows);
    let gnu_text = std::fs::read_to_string(&gnu).expect("readable");
    assert!(gnu_text.contains("set ylabel \"Execution time (ms)\""));
    assert!(gnu_text.contains("set size ratio 0 0.75,0.5"));
    assert!(root.join("m1-n5/experiment.conf").exists());
    assert!(root.join("m1-n5/README.md").exists());
    println!("\nartifact verified: CSV valid, labels carry units, size rule applied.");
}
