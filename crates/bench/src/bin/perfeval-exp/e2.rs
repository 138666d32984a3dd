//! E2 — hot vs. cold × user vs. real time (slides 33–36); it stays beside
//! E26 because its shape — cold real ≫ cold user, a gap over 2× — needs a
//! disk slower than this host's page cache, which E26 cannot produce: on
//! tmpfs its cold is pool-cold only, so E26 asserts counters, never seconds.
//!
//! Paper's table (Pentium M laptop, TPC-H sf 1, Q1):
//!
//! ```text
//!        cold            hot
//! Q   user   real    user   real
//! 1   2930  13243    2830   3534
//! ```
//!
//! Shape to match: cold-user ≈ hot-user (same CPU work), cold-real ≫
//! cold-user (disk waits), hot-real ≈ hot-user. Our absolute numbers come
//! from the simulated 5400 RPM disk and a much smaller scale factor.
//!
//! This is an **era what-if**: the disk is `memsim`'s model of the
//! tutorial laptop, useful precisely because we cannot ship that
//! hardware. The engine knows nothing of it — the modeled pool is charged
//! beside each run from the plan's scanned tables
//! (`perfeval_bench::era_scan_io_ms`) and the simulated wait is added to
//! the measured wall time here. For the measured version of this table — real segment
//! files, a real buffer pool, counted (not modeled) hits and misses —
//! see `perfeval-exp e26`.

use crate::Ctx;
use memsim::{BufferPool, Disk};
use minidb::{QueryResult, Session};
use perfeval_bench::{bench_catalog, era_scan_io_ms};
use perfeval_measure::RunProtocol;
use workload::queries;

pub fn run(_: &Ctx) {
    println!("protocol (cold): {}", RunProtocol::cold(1).describe());
    println!(
        "protocol (hot) : {}\n",
        RunProtocol::last_of_three_hot().describe()
    );

    let mut session = Session::new(bench_catalog());
    println!("engine: {} (Session::new's tier)\n", session.mode());
    let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 100_000);
    let sql = queries::q1();
    // One run: the measured result plus the simulated era-disk wait.
    let mut run = |what: &str| -> (QueryResult, f64) {
        let sim_io_ms = era_scan_io_ms(&session, &sql, &mut pool);
        (session.query(&sql).run().expect(what), sim_io_ms)
    };

    // Cold: the pool starts empty; run once.
    let (cold, cold_io_ms) = run("cold run");

    // Hot: measured last of three consecutive runs.
    let _ = run("hot warm 1");
    let _ = run("hot warm 2");
    let (hot, hot_io_ms) = run("hot measured");
    let cold_real_ms = cold.server_real_ms() + cold_io_ms;
    let hot_real_ms = hot.server_real_ms() + hot_io_ms;

    println!("        cold               hot        (real = simulated era-disk real time)");
    println!("Q    user    real      user    real    ... time (milliseconds)");
    println!(
        "1  {:>6.0}  {:>6.0}    {:>6.0}  {:>6.0}",
        cold.server_user_ms(),
        cold_real_ms,
        hot.server_user_ms(),
        hot_real_ms
    );
    println!("simulated I/O: cold {cold_io_ms:.3} ms, hot {hot_io_ms:.3} ms");

    let cold_gap = cold_real_ms / cold.server_user_ms();
    let hot_gap = hot_real_ms / hot.server_user_ms();
    println!("\ncold real/user = {cold_gap:.1}x   hot real/user = {hot_gap:.2}x");
    println!(
        "paper: cold 13243/2930 = {:.1}x, hot 3534/2830 = {:.2}x",
        13243.0 / 2930.0,
        3534.0 / 2830.0
    );

    assert!(cold_gap > 2.0, "cold real must dwarf cold user");
    assert!(hot_gap < 1.05, "hot real ~ hot user");
    assert_eq!(hot_io_ms, 0.0, "hot run touches no disk");
    let user_ratio = cold.server_user_ms() / hot.server_user_ms();
    // Wide tolerance: this is real wall-clock CPU work on a possibly noisy
    // host; the claim is only that the CPU component is the *same order*
    // hot and cold, unlike the I/O component.
    assert!(
        (0.1..10.0).contains(&user_ratio),
        "CPU work is similar hot and cold (ratio {user_ratio:.2})"
    );
    println!("\nBe aware what you measure!");
}
