//! Supplementary experiment — the design-chapter opener made concrete
//! (slides 56–66): given the same measurement budget, what does each
//! classical design buy you?
//!
//! A system with a strong interaction is measured three ways:
//! * **simple (one-at-a-time)** — cheapest, and *"impossible to identify
//!   interactions"*: it mispredicts the corner it never visited;
//! * **full 2²** — sees the interaction;
//! * **2^(5−2) fractional** — screens five factors for the price of eight
//!   runs, with the alias structure stating what it cannot see.

use crate::Ctx;
use perfeval_core::alias::{AliasStructure, Generator};
use perfeval_core::design::Design;
use perfeval_core::effects::estimate_effects;
use perfeval_core::factor::Factor;
use perfeval_core::mistakes::audit_design;
use perfeval_core::runner::{Assignment, Runner};
use perfeval_core::twolevel::TwoLevelDesign;

/// The system under test: response with a large A×B interaction.
/// y = 100 + 10·xA + 5·xB + 20·xA·xB (plus three inert factors C, D, E).
fn system(a: &Assignment) -> f64 {
    let xa = a.num("A").unwrap_or(-1.0);
    let xb = a.num("B").unwrap_or(-1.0);
    100.0 + 10.0 * xa + 5.0 * xb + 20.0 * xa * xb
}

pub fn run(_: &Ctx) {
    println!("true system: y = 100 + 10·xA + 5·xB + 20·xA·xB\n");

    // --- simple one-at-a-time design over A and B ---
    let simple = Design::simple(vec![
        Factor::numeric("A", &[-1.0, 1.0]),
        Factor::numeric("B", &[-1.0, 1.0]),
    ]);
    let mut exp = system;
    let table = Runner::new(1).run_design(&simple, &mut exp);
    println!("--- simple design ({} runs) ---", simple.run_count());
    print!("{}", table.render());
    // One-at-a-time prediction for the unvisited (+1, +1) corner: baseline
    // plus the two individual deltas.
    let base = table.means()[0];
    let delta_a = table.means()[1] - base;
    let delta_b = table.means()[2] - base;
    let predicted = base + delta_a + delta_b;
    let actual = system(&Assignment::new(vec![
        ("A".into(), perfeval_core::factor::Level::Num(1.0)),
        ("B".into(), perfeval_core::factor::Level::Num(1.0)),
    ]));
    println!(
        "one-at-a-time predicts y(+1,+1) = {predicted} — actually {actual} \
         (off by {}!)",
        actual - predicted
    );
    for finding in audit_design(&simple) {
        println!("audit: {finding}");
    }

    // --- full 2^2 ---
    let full = TwoLevelDesign::full(&["A", "B"]);
    let runs = Runner::new(1).run_two_level(&full, &mut exp);
    let model = estimate_effects(&full, &runs.means()).expect("responses match");
    println!("\n--- full 2^2 ({} runs) ---", full.run_count());
    println!("recovered: {}", model.render());
    let q_ab = model.coefficient(&["A", "B"]).expect("fitted");
    assert_eq!(q_ab, 20.0, "full factorial must recover the interaction");

    // --- 2^(5-2) fraction over five factors ---
    let frac = TwoLevelDesign::fractional(
        &["A", "B", "C", "D", "E"],
        &[
            Generator::parse("D=AB").expect("valid"),
            Generator::parse("E=AC").expect("valid"),
        ],
    )
    .expect("valid 2^(5-2)");
    let runs = Runner::new(1).run_two_level(&frac, &mut exp);
    let model = estimate_effects(&frac, &runs.means()).expect("responses match");
    let alias = AliasStructure::of(&frac).expect("alias structure");
    println!(
        "\n--- 2^(5-2) fraction ({} runs, resolution {:?}) ---",
        frac.run_count(),
        alias.resolution().expect("fractional")
    );
    // The A×B interaction is aliased with main effect D: the fraction
    // charges the 20-unit interaction to D, and the algebra *predicts* it.
    let ab = frac.effect_mask(&["A", "B"]).expect("mask");
    let d = frac.effect_mask(&["D"]).expect("mask");
    assert!(alias.are_aliased(ab, d), "AB = D under D=AB");
    let q_d = model.coefficient(&["D"]).expect("fitted");
    println!(
        "the 20-unit A·B interaction shows up as qD = {q_d} — exactly where \
         the defining relation (I = ABD = ACE = BCDE) says it must."
    );
    assert_eq!(q_d, 20.0);

    println!("\nconclusions:");
    println!(
        "  simple  : {} runs, blind to interactions (answer off by 80)",
        simple.run_count()
    );
    println!("  full 2^2: 4 runs, interaction recovered exactly");
    println!("  2^(5-2) : 8 runs for FIVE factors, confounding known in advance");
    println!("\n\"You don't know what you haven't tested.\"");
}
