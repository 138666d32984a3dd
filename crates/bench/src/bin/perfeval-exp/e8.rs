//! E8 — allocation of variation: the memory-interconnect example
//! (slides 86–93).
//!
//! Paper's table of variation explained (%):
//!
//! ```text
//!        T     N     R
//! qA   17.2   20   10.9
//! qB   77.0   80   87.8
//! qAB   5.8    0    1.3
//! ```
//!
//! with A = type of network (Crossbar/Omega), B = address pattern
//! (Random/Matrix), and the conclusion *"the address pattern influences
//! most."* Note: the slide's data table lists its ± columns in the order
//! that makes the *first* column the address pattern; we follow the
//! printed responses and label factors so the published percentages come
//! out (see EXPERIMENTS.md).

use crate::Ctx;
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation;

pub fn run(_: &Ctx) {
    // First (fast-toggling) factor: B = address pattern; second: A =
    // network type.
    let design = TwoLevelDesign::full(&["B", "A"]);
    let responses = [
        ("T (throughput)", vec![0.6041, 0.4220, 0.7922, 0.4717]),
        ("N (90% transit time)", vec![3.0, 5.0, 2.0, 4.0]),
        ("R (response time)", vec![1.655, 2.378, 1.262, 2.190]),
    ];

    println!("factors: A = network type (Crossbar/Omega), B = address pattern (Random/Matrix)\n");
    println!("variation explained (%):");
    println!("        {:>8} {:>8} {:>8}", "T", "N", "R");

    let mut table_pct = Vec::new();
    for effect in [vec!["A"], vec!["B"], vec!["B", "A"]] {
        let mut row = Vec::new();
        for (_, y) in &responses {
            let t = allocate_variation(&design, y).expect("responses match design");
            let frac = t
                .fraction_of(&design, &effect.iter().map(|s| &**s).collect::<Vec<_>>())
                .expect("effect exists");
            row.push(frac * 100.0);
        }
        let label = match effect.len() {
            1 => format!("q{}", effect[0]),
            _ => "qAB".to_owned(),
        };
        println!(
            "{:<7} {:>8.1} {:>8.1} {:>8.1}",
            label, row[0], row[1], row[2]
        );
        table_pct.push(row);
    }

    println!("\npaper:   qA 17.2/20/10.9, qB 77.0/80/87.8, qAB 5.8/0/1.3");

    // Assert the published numbers within rounding.
    let expect = [[17.2, 20.0, 10.9], [77.0, 80.0, 87.8], [5.8, 0.0, 1.3]];
    for (got_row, want_row) in table_pct.iter().zip(&expect) {
        for (got, want) in got_row.iter().zip(want_row) {
            assert!(
                (got - want).abs() < 0.15,
                "got {got:.2}%, paper says {want}%"
            );
        }
    }

    // The conclusion.
    for (name, y) in &responses {
        let t = allocate_variation(&design, y).expect("responses match design");
        assert_eq!(
            t.ranked_effects()[0].0,
            "B",
            "{name}: address pattern must dominate"
        );
    }
    println!("\nconclusion: the address pattern influences most — the chosen");
    println!("patterns are very different. (Reproduced for all three responses.)");
}
