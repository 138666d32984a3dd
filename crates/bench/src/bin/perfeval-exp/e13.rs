//! E13 — pictorial games: confidence intervals and histogram cells
//! (slides 138–145).
//!
//! Three exhibits:
//! 1. the "MINE is better than YOURS" truncated-axis bar chart, caught by
//!    the chart lint;
//! 2. slide 142: two systems whose point estimates differ but whose
//!    confidence intervals overlap — statistically indifferent;
//! 3. slide 144: the same response-time sample binned at width 2 vs
//!    width 6, and the ≥5-points-per-cell rule.

use crate::Ctx;
use perfeval_harness::chartlint::{lint, ChartKind, ChartSpec};
use perfeval_stats::histogram::Histogram;
use perfeval_stats::rng::SplitMix64;
use perfeval_stats::{compare_means, ComparisonVerdict};

pub fn run(_: &Ctx) {
    // --- 1. MINE vs YOURS ---
    println!("--- the truncated-axis trick (slide 138) ---");
    let dishonest = ChartSpec {
        kind: ChartKind::Bar,
        series: 2,
        y_label: "time (ms)".into(),
        x_label: "system".into(),
        y_axis_start: 2600.0, // MINE=2600, YOURS=2610 drawn from 2600
        y_data_min: 2600.0,
        plots_random_quantities: true,
        has_error_bars: false,
    };
    let lints = lint(&dishonest);
    for l in &lints {
        println!("lint: {l}");
    }
    assert!(lints.iter().any(|l| l.rule == "truncated-axis"));
    assert!(lints.iter().any(|l| l.rule == "no-confidence-intervals"));
    let honest = ChartSpec {
        y_axis_start: 0.0,
        has_error_bars: true,
        ..dishonest
    };
    assert!(lint(&honest).is_empty());
    println!("axis from 0 + error bars -> clean.\n");

    // --- 2. overlapping confidence intervals (slide 142) ---
    println!("--- overlapping confidence intervals (slide 142) ---");
    let mut rng = SplitMix64::new(2008);
    let mine: Vec<f64> = (0..10)
        .map(|_| 2600.0 + rng.next_range_f64(-40.0, 40.0))
        .collect();
    let yours: Vec<f64> = (0..10)
        .map(|_| 2610.0 + rng.next_range_f64(-40.0, 40.0))
        .collect();
    let cmp = compare_means(&mine, &yours, 0.95).expect("two samples");
    println!("MINE : {}", perfeval_stats::Summary::from_slice(&mine));
    println!("YOURS: {}", perfeval_stats::Summary::from_slice(&yours));
    println!("difference CI: {}", cmp.difference);
    println!("verdict: {}", cmp.verdict);
    assert_eq!(
        cmp.verdict,
        ComparisonVerdict::Indistinguishable,
        "10 ms apart with ±40 ms noise must be indistinguishable"
    );
    println!("overlapping confidence intervals sometimes mean the two quantities");
    println!("are statistically indifferent.\n");

    // --- 3. histogram cell size (slide 144) ---
    println!("--- histogram cell-size manipulation (slide 144) ---");
    // Response times spread over [0, 12): a sample whose fine binning
    // leaves cells under 5 points.
    let mut times = Vec::new();
    for _ in 0..30 {
        times.push(rng.next_range_f64(0.0, 12.0));
    }
    let fine = Histogram::with_bins(&times, 6).expect("histogram");
    let coarse = Histogram::with_bins(&times, 2).expect("histogram");
    println!("width-2 cells (6 bins):");
    print!("{}", fine.render_ascii(30));
    println!("width-6 cells (2 bins):");
    print!("{}", coarse.render_ascii(30));
    println!(
        "fine bins satisfy the >=5-points rule: {}",
        fine.satisfies_cell_rule(5)
    );
    println!(
        "coarse bins satisfy the >=5-points rule: {}",
        coarse.satisfies_cell_rule(5)
    );
    let auto = Histogram::auto(&times, 5).expect("histogram");
    println!(
        "auto-binning picked {} cells (rule satisfied: {})",
        auto.bins(),
        auto.satisfies_cell_rule(5) || auto.bins() == 1
    );
    assert!(coarse.satisfies_cell_rule(5));
    println!("\nrule of thumb: each cell should have at least five points —");
    println!("not sufficient to uniquely determine what one should do.");
}
