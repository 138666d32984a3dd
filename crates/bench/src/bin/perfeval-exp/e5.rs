//! E5 — factor interaction (slide 58).
//!
//! The paper's two tables:
//!
//! ```text
//! (a)  A1 A2        (b)  A1 A2
//! B1    3  5        B1    3  5
//! B2    6  8        B2    6  9
//! ```
//!
//! (a) the effect of A is +2 regardless of B — no interaction;
//! (b) the effect of A depends on B — interaction.

use crate::Ctx;
use perfeval_core::effects::estimate_effects;
use perfeval_core::interaction::TwoByTwo;
use perfeval_core::twolevel::TwoLevelDesign;

fn show(name: &str, t: &TwoByTwo) {
    println!("table ({name}):");
    print!("{}", t.render());
    println!(
        "effect of A at B1: {:+.0}, at B2: {:+.0}, interaction: {:+.0} -> {}",
        t.a_effect_at_b1(),
        t.a_effect_at_b2(),
        t.interaction(),
        if t.interacts(1e-9) {
            "INTERACTION"
        } else {
            "no interaction"
        }
    );
    // Cross-check with the regression model's q_AB.
    let d = TwoLevelDesign::full(&["A", "B"]);
    let m = estimate_effects(&d, &[t.a1b1, t.a2b1, t.a1b2, t.a2b2]).expect("4 responses");
    println!(
        "model: {} (q_AB = {})\n",
        m.render(),
        m.coefficient(&["A", "B"]).expect("fitted")
    );
}

pub fn run(_: &Ctx) {
    let a = TwoByTwo {
        a1b1: 3.0,
        a2b1: 5.0,
        a1b2: 6.0,
        a2b2: 8.0,
    };
    let b = TwoByTwo {
        a1b1: 3.0,
        a2b1: 5.0,
        a1b2: 6.0,
        a2b2: 9.0,
    };
    show("a", &a);
    show("b", &b);

    assert!(!a.interacts(1e-9), "(a) must show no interaction");
    assert!(b.interacts(1e-9), "(b) must show interaction");
    println!("same effect of A regardless of B -> no interaction;");
    println!("different effect depending on B -> interaction.");
}
