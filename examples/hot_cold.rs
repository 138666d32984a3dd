//! Hot vs. cold runs, and user vs. real time (slides 30–36).
//!
//! Reproduces the shape of the tutorial's table: a cold TPC-H Q1 whose
//! wall-clock time dwarfs its CPU time (disk waits), next to a hot run
//! where the two nearly coincide — all on a simulated 5400 RPM laptop disk
//! so the experiment is deterministic and runs anywhere. The engine never
//! sees the modeled disk: `era_scan_io_ms` charges it beside each run from
//! the plan's scanned tables. (For *measured* hot vs. cold — real segment
//! files behind a real buffer pool — see `perfeval-exp e26`.)
//!
//! Run with: `cargo run --release --example hot_cold`

use perfeval::minidb::QueryResult;
use perfeval::prelude::*;
use perfeval::workload::queries;
use perfeval_bench::era_scan_io_ms;

fn main() {
    let catalog = generate(&GenConfig {
        scale_factor: 0.01,
        ..GenConfig::default()
    });
    let mut session = Session::new(catalog);
    let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 50_000);

    println!("protocols:");
    println!("  cold: {}", RunProtocol::cold(1).describe());
    println!("  hot : {}\n", RunProtocol::last_of_three_hot().describe());

    let sql = queries::q1();

    // Cold: flush everything first (the "reboot").
    pool.flush();
    // One run: the measured result plus the simulated disk wait.
    let mut run = || -> (QueryResult, f64) {
        let sim_io_ms = era_scan_io_ms(&session, &sql, &mut pool);
        (session.query(&sql).run().unwrap(), sim_io_ms)
    };
    let (cold, cold_io_ms) = run();

    // Hot: measured last of three consecutive runs.
    let _ = run();
    let _ = run();
    let (hot, hot_io_ms) = run();
    let cold_real_ms = cold.server_real_ms() + cold_io_ms;

    println!("              cold                hot");
    println!("Q    user     real      user     real   ... time (milliseconds)");
    println!(
        "1  {:>7.0}  {:>7.0}   {:>7.0}  {:>7.0}",
        cold.server_user_ms(),
        cold_real_ms,
        hot.server_user_ms(),
        hot.server_real_ms() + hot_io_ms
    );
    println!(
        "\nbuffer pool hit rate after hot run: {:.1}%",
        pool.hit_rate() * 100.0
    );

    let io_share = cold_io_ms / cold_real_ms;
    println!(
        "cold run spent {:.0}% of wall-clock time waiting on the (simulated) disk",
        io_share * 100.0
    );
    println!("\nBe aware what you measure!");
    assert!(
        cold_real_ms > 1.5 * cold.server_user_ms(),
        "cold (simulated) real must exceed cold user"
    );
    assert!(hot_io_ms == 0.0, "hot run must not touch the disk");
}
