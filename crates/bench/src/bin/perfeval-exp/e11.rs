//! E11 — comparison of two 2^(4−1) designs (slides 104–109).
//!
//! Paper's listing for `D = ABC`:
//! `AD = BC, BD = AC, AB = CD, A = BCD, B = ACD, C = ABD, I = ABCD`
//! versus for `D = AB`:
//! `A = BD, B = AD, D = AB, I = ABD, AC = BCD, BC = ACD, CD = ABC,
//! C = ABCD` — and the verdict: *"D = ABC is preferred"* by the
//! sparsity-of-effects principle.

use crate::Ctx;
use perfeval_core::alias::{AliasStructure, Generator};
use perfeval_core::twolevel::TwoLevelDesign;

fn structure(generator: &str) -> AliasStructure {
    let design = TwoLevelDesign::fractional(
        &["A", "B", "C", "D"],
        &[Generator::parse(generator).expect("valid generator")],
    )
    .expect("valid 2^(4-1)");
    AliasStructure::of(&design).expect("alias structure")
}

fn mask(s: &str) -> u32 {
    s.chars().fold(0, |m, c| m | (1 << (c as u8 - b'A')))
}

pub fn run(_: &Ctx) {
    let abc = structure("D=ABC");
    let ab = structure("D=AB");

    println!("confoundings of D = ABC:");
    print!("{}", abc.render());
    println!("\nconfoundings of D = AB:");
    print!("{}", ab.render());

    // The slide's specific identities.
    for (a, b) in [
        ("AD", "BC"),
        ("BD", "AC"),
        ("AB", "CD"),
        ("A", "BCD"),
        ("B", "ACD"),
        ("C", "ABD"),
    ] {
        assert!(abc.are_aliased(mask(a), mask(b)), "D=ABC: {a} = {b}");
    }
    assert!(abc.are_aliased(0, mask("ABCD")), "D=ABC: I = ABCD");
    for (a, b) in [
        ("A", "BD"),
        ("B", "AD"),
        ("D", "AB"),
        ("AC", "BCD"),
        ("BC", "ACD"),
        ("CD", "ABC"),
    ] {
        assert!(ab.are_aliased(mask(a), mask(b)), "D=AB: {a} = {b}");
    }
    assert!(ab.are_aliased(0, mask("ABD")), "D=AB: I = ABD");
    assert!(ab.are_aliased(mask("C"), mask("ABCD")), "D=AB: C = ABCD");

    println!(
        "\nresolution: D=ABC is {:?}, D=AB is {:?}",
        abc.resolution().expect("fractional"),
        ab.resolution().expect("fractional")
    );
    assert_eq!(abc.resolution(), Some(4));
    assert_eq!(ab.resolution(), Some(3));
    assert_eq!(
        abc.compare_preference(&ab),
        std::cmp::Ordering::Greater,
        "sparsity of effects prefers D=ABC"
    );

    println!("\nD = ABC is preferred: it confounds the mean with the 4th-order");
    println!("interaction and main effects with 3rd-order interactions, which the");
    println!("sparsity-of-effects principle says are the smallest.");
}
