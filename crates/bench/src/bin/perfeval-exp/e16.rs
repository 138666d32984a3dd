//! E16 — why you should generate your own graphs (slides 212–215).
//!
//! The war story: `avgs.out` holds average times 13.666 / 15 / 12.3333 /
//! 13; copy-pasting into OpenOffice 2.3.0 under the wrong locale turns
//! them into 13666 / 15 / 123333 / 13, "the graph doesn't look good", and
//! with twenty hand-made graphs the corruption ships. The harness pipeline
//! detects exactly this on read.

use crate::Ctx;
use perfeval_harness::csvio::{parse_csv, validate_locale, CsvError};

pub fn run(_: &Ctx) {
    let original = "run,avg_ms\n1,13.666\n2,15\n3,12.3333\n4,13\n";
    let pasted = "run,avg_ms\n1,13666\n2,15\n3,123333\n4,13\n";

    println!("avgs.out (averages over three runs):");
    print!("{original}");
    println!("\nafter copy-paste into a wrong-locale spreadsheet:");
    print!("{pasted}");

    let clean = parse_csv(original).expect("well-formed csv");
    assert!(validate_locale(&clean).is_ok());
    println!("\noriginal file: validation passes.");

    let corrupt = parse_csv(pasted).expect("well-formed csv");
    match validate_locale(&corrupt) {
        Err(CsvError::LocaleCorruption { column, ratio }) => {
            println!(
                "pasted file:   CORRUPTION DETECTED in column '{column}' \
                 (values ~{ratio:.0}x the rest; 13666/10^3 = 13.666 is no accident)"
            );
            assert_eq!(column, "avg_ms");
            assert!(ratio > 500.0);
        }
        other => panic!("corruption must be detected, got {other:?}"),
    }

    println!("\n\"Hard to figure out when you have to produce by hand 20 such");
    println!("graphs and most of them look OK\" — so don't produce them by hand:");
    println!("the suite writes CSV directly and validates on every read.");
}
