//! E14 — how SIGMOD 2008 repeatability went (slides 218–220).
//!
//! The paper's three pie charts, reproduced as honest tables (numbers
//! beat pies — our own presentation chapter says so), plus the headline:
//! 298 of 436 submissions provided code.

use crate::Ctx;
use perfeval_harness::repeatability::{
    sigmod2008_populations, Checklist, RepeatOutcome, SIGMOD2008_PROVIDED_CODE,
    SIGMOD2008_SUBMISSIONS,
};

pub fn run(_: &Ctx) {
    println!(
        "{SIGMOD2008_PROVIDED_CODE} of {SIGMOD2008_SUBMISSIONS} submissions provided code \
         ({:.0}%)\n",
        100.0 * SIGMOD2008_PROVIDED_CODE as f64 / SIGMOD2008_SUBMISSIONS as f64
    );

    let populations = sigmod2008_populations();
    for p in &populations {
        print!("{}", p.render());
        println!(
            "  -> at least partially repeated: {:.0}%\n",
            p.at_least_some_repeated() * 100.0
        );
    }

    // Slide totals.
    assert_eq!(populations[0].total(), 78);
    assert_eq!(populations[1].total(), 11);
    assert_eq!(populations[2].total(), 64);
    // The encouraging headline: most verified papers repeated at least
    // partially.
    assert!(populations[2].at_least_some_repeated() > 0.8);
    assert!(populations[2].fraction(RepeatOutcome::NoneRepeated) < 0.2);

    // And what it takes: the checklist this repository itself satisfies.
    let ours = Checklist {
        parameterizable: true,  // Properties + -Dkey=value everywhere
        portable: true,         // pure Rust, no exotic deps
        scripted: true,         // one cargo command per experiment
        graphs_automated: true, // CSV + gnuplot generated by the harness
        documented: true,       // README/EXPERIMENTS.md + per-suite READMEs
        data_regenerable: true, // everything from recorded seeds
    };
    println!(
        "repeatability checklist for this repository: {}/6",
        ours.score()
    );
    assert!(ours.is_repeatable());
    println!("\n\"It will take literally years for the field to become comfortable");
    println!("with it … every author doing an experiment will think instinctively");
    println!("about repeatability.\" — senior ACM SIGMOD officer, 2008");
}
