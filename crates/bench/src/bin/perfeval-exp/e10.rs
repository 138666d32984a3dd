//! E10 — preparing a 2^(7−4) fractional design (slides 100–103).
//!
//! Paper's method: build the full 2³ on A, B, C, then relabel the AB, AC,
//! BC, ABC interaction columns as D, E, F, G. The resulting table has
//! "7 zero-sum columns … 3 orthogonal factor columns … all coefficients of
//! interactions have been erased."

use crate::Ctx;
use perfeval_core::alias::{AliasStructure, Generator};
use perfeval_core::twolevel::TwoLevelDesign;

pub fn run(_: &Ctx) {
    let design = TwoLevelDesign::fractional(
        &["A", "B", "C", "D", "E", "F", "G"],
        &[
            Generator::parse("D=AB").expect("valid generator"),
            Generator::parse("E=AC").expect("valid generator"),
            Generator::parse("F=BC").expect("valid generator"),
            Generator::parse("G=ABC").expect("valid generator"),
        ],
    )
    .expect("valid 2^(7-4) construction");

    print!("{}", design.render());

    println!(
        "\nseven factors in {} runs (a full design would need {}).",
        design.run_count(),
        1 << 7
    );

    // The slide's structural claims.
    assert_eq!(design.run_count(), 8);
    assert!(design.columns_are_zero_sum(), "7 zero-sum columns");
    assert!(design.columns_are_orthogonal(), "orthogonal columns");
    println!("zero-sum columns: both levels of every factor get equally tested ✓");
    println!("orthogonality: any two factor columns agree as often as they disagree ✓");

    // The slide's first two data rows.
    assert_eq!(
        design.run_signs(0),
        vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0]
    );
    assert_eq!(
        design.run_signs(1),
        vec![1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
    );
    println!("rows 1 and 2 match the slide's table ✓");

    // What was paid: resolution III, mains confounded with two-factor
    // interactions.
    let alias = AliasStructure::of(&design).expect("alias structure");
    println!(
        "\nresolution: {} (main effects confounded with 2-factor interactions)",
        alias.resolution().expect("fractional design")
    );
    println!(
        "defining relation has {} words; e.g. the aliases of A:",
        alias.defining_relation().len()
    );
    let a_set = alias.alias_set(1);
    let labels: Vec<String> = a_set.iter().take(4).map(|&m| alias.label(m)).collect();
    println!("  A = {} = ...", labels[1..].join(" = "));
    assert_eq!(alias.resolution(), Some(3));
    assert_eq!(alias.defining_relation().len(), 16);
}
