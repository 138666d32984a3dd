//! E24 — the engine as a *three-level* design factor: DBG / OPT / SIMD.
//!
//! E3 (slide 41) treats the build as a two-level factor. This experiment
//! extends it with the explicit-SIMD tier: engine (3 levels) × workload
//! (the 4 pinned statements of `perfeval_bench::suite`), fully replicated,
//! analyzed the paper's way —
//!
//! * **allocation of variation**: a two-factor ANOVA with replication
//!   decomposes total variation into engine, workload, their interaction,
//!   and replicate residual. The sign-table shortcut of E6 only covers
//!   2-level factors, so the sums of squares are computed from cell means
//!   directly (same math, general levels).
//! * **effect sizes with CIs**: per workload, the Kalibera–Jones interval
//!   on SIMD/OPT − 1; the claim "SIMD is faster" must survive its
//!   confidence interval, not just its median.
//! * **correctness gate first**: before a single timing is kept, every
//!   workload's result must be identical across all three engines — the
//!   "same question, same answer" precondition for comparing their times.
//!
//! `--smoke` shrinks the data and the replication; `-Dreps=N` sets the
//! replication alone.

use crate::Ctx;
use perfeval_bench::knobs::Knob;
use perfeval_bench::suite::{suite, ENGINES};
use perfeval_bench::{catalog_at, median, session_with_mode};
use perfeval_core::variation::allocate_variation_general;
use perfeval_stats::effect_size_ci;

#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob::new("reps", "11", "replicates per cell; at least 2").smoke("5"),
];

pub fn run(ctx: &Ctx) {
    let smoke = ctx.smoke();
    let reps = ctx.get::<usize>("reps").max(2);
    let sf = if smoke { 0.002 } else { 0.01 };
    println!("design: engine (3) x workload (4), r={reps} replicates, sf={sf}\n");

    let catalog = catalog_at(sf);
    let workloads = suite();

    // Correctness gate: the three engines must agree bit-for-bit on every
    // workload before any timing comparison means anything.
    for w in &workloads {
        let sql = (w.sql)();
        let mut results = ENGINES.iter().map(|&m| {
            session_with_mode(&catalog, m)
                .query(&sql)
                .run()
                .expect("gate run")
                .rows
        });
        let first = results.next().expect("three engines");
        for (rows, &mode) in results.zip(&ENGINES[1..]) {
            assert_eq!(rows, first, "{mode} diverged from DBG on {}", w.name);
        }
    }
    println!("correctness gate: all 3 engines agree on all 4 workloads\n");

    // Replicated, interleaved measurement: y[engine][workload][replicate].
    let mut sessions: Vec<Vec<(minidb::Session, String)>> = ENGINES
        .iter()
        .map(|&m| {
            workloads
                .iter()
                .map(|w| (session_with_mode(&catalog, m), (w.sql)()))
                .collect()
        })
        .collect();
    for row in &mut sessions {
        for (s, sql) in row.iter_mut() {
            s.query(sql).run().expect("warmup");
        }
    }
    let mut y: Vec<Vec<Vec<f64>>> = vec![vec![Vec::with_capacity(reps); workloads.len()]; 3];
    for _ in 0..reps {
        for (ei, row) in sessions.iter_mut().enumerate() {
            for (wi, (s, sql)) in row.iter_mut().enumerate() {
                y[ei][wi].push(s.query(sql).run().expect("measured run").server_user_ms());
            }
        }
    }

    println!(
        "{:<14} {:>10} {:>10} {:>10}   {:>9} {:>9}",
        "workload (ms)", "DBG", "OPT", "SIMD", "DBG/OPT", "OPT/SIMD"
    );
    for (wi, w) in workloads.iter().enumerate() {
        let m: Vec<f64> = (0..3).map(|ei| median(y[ei][wi].clone())).collect();
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>10.3}   {:>9.2} {:>9.2}",
            w.name,
            m[0],
            m[1],
            m[2],
            m[0] / m[1].max(1e-9),
            m[1] / m[2].max(1e-9)
        );
    }

    // Per-workload SIMD-vs-OPT effect with its Kalibera-Jones interval
    // (negative = SIMD faster; the CI must exclude zero to claim anything).
    println!("\nSIMD vs OPT effect (ratio - 1, 95% CI):");
    let mut simd_wins: Vec<&str> = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let e = effect_size_ci(&y[2][wi], &y[1][wi], 0.95).expect("effect");
        let excludes_zero = e.effect.upper < 0.0 || e.effect.lower > 0.0;
        println!(
            "  {:<14} {:+6.1}%  [{:+6.1}%, {:+6.1}%]  {}",
            w.name,
            e.effect.estimate * 100.0,
            e.effect.lower * 100.0,
            e.effect.upper * 100.0,
            if !excludes_zero {
                "indistinguishable"
            } else if e.effect.upper < 0.0 {
                simd_wins.push(w.name);
                "SIMD faster"
            } else {
                "SIMD slower"
            }
        );
    }

    // Allocation of variation over log times (ratios of engines are the
    // meaningful scale; logs make them additive).
    let logs: Vec<Vec<Vec<f64>>> = y
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| cell.iter().map(|v| v.max(1e-9).ln()).collect())
                .collect()
        })
        .collect();
    let v = allocate_variation_general(&logs).expect("every cell has `reps` replicates");
    let (ss_e, ss_err, ss_t) = (v.ss_a, v.sse, v.sst);
    println!("\nallocation of variation (log ms):");
    for (name, ss) in [
        ("engine", ss_e),
        ("workload", v.ss_b),
        ("interaction", v.ss_ab),
        ("replicates", ss_err),
    ] {
        println!("  {:<12} {:>6.1}%", name, 100.0 * ss / ss_t.max(1e-12));
    }

    // Shape assertions: the engine factor must matter (DBG is an
    // interpreter), and its share plus the workload share must dominate
    // replicate noise — otherwise the experiment design is broken.
    assert!(
        ss_e / ss_t > 0.2,
        "engine factor must explain real variation: {:.1}%",
        100.0 * ss_e / ss_t
    );
    assert!(
        ss_err / ss_t < 0.2,
        "replicate noise must stay minor: {:.1}%",
        100.0 * ss_err / ss_t
    );
    if !smoke {
        // The kernel-bound workloads are the tier's reason to exist: the
        // speedup claim must survive its interval on both of them.
        for required in ["filter-heavy", "agg-heavy"] {
            assert!(
                simd_wins.contains(&required),
                "SIMD vs OPT CI must exclude zero on {required}; wins: {simd_wins:?}"
            );
        }
    }
    println!("\nconclusion: the build is a 3-level factor; DBG/OPT dwarfs OPT/SIMD,");
    println!("and the SIMD tier's wins are claimed only where the CI clears zero.");
}
