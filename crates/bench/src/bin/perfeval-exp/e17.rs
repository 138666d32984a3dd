//! E17 — metrics: how to measure? (slides 27–29).
//!
//! The paper's timer catalogue: `/usr/bin/time` (whole process, coarse),
//! `gettimeofday()` (µs wall clock), `timeGetTime()` (ms, with a default
//! resolution "as low as 10 milliseconds"), and the DBMS's own phase
//! timers (`mclient -t`: `Trans/Shred/Query/Print`). We measure one query
//! with all of them side by side and show the 10 ms timer erasing a
//! fast query entirely.

use crate::Ctx;
use minidb::Session;
use perfeval_bench::bench_catalog;
use perfeval_measure::{Clock, CpuClock, ManualClock, QuantizedClock, WallClock};
use workload::queries;

pub fn run(_: &Ctx) {
    let mut session = Session::new(bench_catalog());
    println!("engine: {} (Session::new's tier)\n", session.mode());
    let sql = queries::q6();
    session.query(&sql).run().expect("warmup");

    // The timer catalogue.
    let wall = WallClock::new();
    let cpu = CpuClock::new();
    println!("available timers:");
    for (name, desc, res) in [
        ("wall (gettimeofday)", wall.describe(), wall.resolution_ns()),
        (
            "cpu (/usr/bin/time user)",
            cpu.describe(),
            cpu.resolution_ns(),
        ),
    ] {
        println!("  {name:<26} {desc}  [resolution {res} ns]");
    }
    println!("  timeGetTime (simulated)    quantized clock, 10 ms resolution\n");

    // Measure the same query with the wall clock.
    let (result, wall_ns) = wall.time(|| session.query(&sql).run().expect("measured run"));
    println!("wall clock: {:.3} ms", wall_ns as f64 / 1e6);

    // The engine's own phase timers (mclient -t style) — always prefer the
    // tested software's instrumentation when it exists.
    println!("engine phase breakdown:");
    print!("{}", result.phases.render());

    // The 10 ms timer pitfall, deterministically: replay the measured
    // duration through a simulated coarse clock.
    let manual = ManualClock::new();
    let coarse = QuantizedClock::new(manual.clone(), 10_000_000);
    let before = coarse.now_ns();
    manual.advance_ns(wall_ns);
    let coarse_reading = coarse.now_ns() - before;
    println!(
        "\nthe same {:.3} ms query read through a 10 ms-resolution timer: {} ms",
        wall_ns as f64 / 1e6,
        coarse_reading / 1_000_000
    );
    if wall_ns < 10_000_000 {
        assert_eq!(
            coarse_reading, 0,
            "sub-10ms query invisible to coarse timer"
        );
        println!("-> the query is invisible. Resolution matters.");
    }

    // Repeat 50 times through the coarse timer: quantization distorts the
    // distribution, not just individual readings.
    let mut coarse_total = 0u64;
    let mut fine_total = 0u64;
    for _ in 0..50 {
        let (_, ns) = wall.time(|| session.query(&sql).run().expect("rep"));
        fine_total += ns;
        let t0 = coarse.now_ns();
        manual.advance_ns(ns);
        coarse_total += coarse.now_ns() - t0;
    }
    println!(
        "\n50 replications: fine timer total {:.1} ms, 10 ms timer total {} ms",
        fine_total as f64 / 1e6,
        coarse_total / 1_000_000
    );
    let err = (coarse_total as f64 - fine_total as f64).abs() / fine_total as f64;
    println!("quantization error: {:.0}%", err * 100.0);
    println!("\nuse timings provided by the tested software; know what you measure,");
    println!("and know the resolution of whatever measures it.");
}
