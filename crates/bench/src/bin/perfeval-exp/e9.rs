//! E9 — the three-level fractional factorial design (slide 67).
//!
//! Paper's table: four factors (CPU, memory, workload type, educational
//! level), 3 levels each except the CPU's 3 — covered in 9 experiments via
//! a Latin-square assignment instead of the full 81.

use crate::Ctx;
use perfeval_core::design::Design;
use perfeval_core::factor::Factor;
use perfeval_core::mistakes::audit_design;

pub fn run(_: &Ctx) {
    let design = Design::latin_square_fraction(vec![
        Factor::categorical("CPU", &["68000", "Z80", "8086"]),
        Factor::categorical("Memory", &["512K", "2M", "8M"]),
        Factor::categorical("Workload", &["Managerial", "Scientific", "Secretarial"]),
        Factor::categorical("Education", &["High school", "Postgraduate", "College"]),
    ]);

    print!("{}", design.render());

    let full: usize = design.factors().iter().map(|f| f.level_count()).product();
    println!(
        "\n{} experiments instead of the full {} — less experiments,",
        design.run_count(),
        full
    );
    println!("some information loss (interactions!). Maybe they were negligible?");

    // Structural claims.
    assert_eq!(design.run_count(), 9);
    assert!(design.is_balanced(), "every level tested equally often");
    for i in 0..4 {
        for j in (i + 1)..4 {
            assert!(
                design.covers_pairs(i, j),
                "factors {i} and {j} must co-occur on all level pairs"
            );
        }
    }
    println!("\nbalance: every level of every factor appears exactly 3 times;");
    println!("pairwise coverage: every level pair of every factor pair occurs once.");

    // The design audit is clean (it is neither one-at-a-time nor enormous).
    assert!(audit_design(&design).is_empty());

    // Reproduce the slide's exact rows.
    let expect_row_4 = ["Z80", "512K", "Scientific", "College"];
    let got: Vec<String> = design
        .factors()
        .iter()
        .zip(design.run(3))
        .map(|(f, &l)| f.levels()[l].label())
        .collect();
    assert_eq!(got, expect_row_4);
    println!("row 4 matches the slide: Z80 / 512K / Scientific / College.");
}
