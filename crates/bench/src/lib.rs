//! # perfeval-bench
//!
//! The benchmark harness reproducing **every table and figure** of the
//! paper's content. Each `exp_*` binary regenerates one exhibit and prints
//! the same rows/series the slides show; `EXPERIMENTS.md` at the repository
//! root records paper-vs-measured for each.
//!
//! | binary | exhibit |
//! |--------|---------|
//! | `exp_e1_what_to_measure` | slides 23–26: server/client, file/terminal table |
//! | `exp_e2_hot_cold` | slides 33–36: hot vs cold × user vs real |
//! | `exp_e3_dbg_opt` | slide 41: DBG/OPT ratio across 22 queries |
//! | `exp_e4_memory_wall` | slides 46/51: scan ns/iteration, 5 machines |
//! | `exp_e5_interaction` | slide 58: interaction tables (a) and (b) |
//! | `exp_e6_twok` | slides 70–85: 2² design, sign table, allocation |
//! | `exp_e8_networks` | slides 86–93: variation-explained table |
//! | `exp_e9_latin` | slide 67: 9-run fractional design table |
//! | `exp_e10_2_7_4` | slides 102–103: 2^(7−4) sign table |
//! | `exp_e11_confounding` | slides 104–109: D=ABC vs D=AB |
//! | `exp_e12_profile` | slide 54: per-operator profile trace |
//! | `exp_e13_presentation` | slides 142/144: CI overlap + histogram cells |
//! | `exp_e14_repeatability` | slides 218–220: SIGMOD 2008 outcomes |
//! | `exp_e15_gnuplot` | slides 202–205: CSV → gnuplot automation |
//! | `exp_e16_locale` | slides 212–215: the 13.666 → 13666 bug |
//! | `exp_e17_timers` | slides 27–29: timers and their resolutions |
//! | `exp_e18_observer_effect` | tracing overhead: off/disabled/sampled/full arms |
//! | `exp_e19_parallel_speedup` | morsel-parallel speed-up as a 2³ designed experiment |
//! | `exp_e20_fault_robustness` | injected panics/hangs: retries, quarantine, watchdog deadlines |
//! | `exp_e21_client_server` | slides 23–26 measured over a real wire: transport × sink × result size |
//! | `exp_e22_load_knee` | the throughput knee: arrival × concurrency × mix, coordinated-omission-safe tails |
//! | `exp_e23_sharded_server` | sharded event loop vs thread-per-connection × connection scale |
//! | `exp_e24_simd` | the engine as a 3-level factor (DBG/OPT/SIMD): effect CIs + allocation of variation |
//! | `minidb-serve` | standalone TCP server for `minidb-net` clients (not an exhibit) |
//! | `minidb-load` | multi-client load-generator CLI (not an exhibit) |
//! | `minidb-bench` | perf-trajectory suite runner + the CI regression gate (not an exhibit) |
//!
//! Criterion benches under `benches/` measure the engine primitives and the
//! ablations DESIGN.md calls out.

pub mod trajectory;

use memsim::BufferPool;
use minidb::{Catalog, ExecMode, Plan, Session};
use perfeval_harness::Properties;
use workload::dbgen::{generate, GenConfig};

/// The standard scale factor used by the experiment binaries: large enough
/// for stable timings, small enough to regenerate in seconds.
pub const BENCH_SCALE_FACTOR: f64 = 0.01;

/// The standard seed (recorded; the whole data set regenerates from it).
pub const BENCH_SEED: u64 = 20080408;

/// Generates the standard benchmark catalog.
pub fn bench_catalog() -> Catalog {
    generate(&GenConfig {
        scale_factor: BENCH_SCALE_FACTOR,
        seed: BENCH_SEED,
        part_skew: None,
    })
}

/// Generates a catalog at an explicit scale factor.
pub fn catalog_at(scale_factor: f64) -> Catalog {
    generate(&GenConfig {
        scale_factor,
        seed: BENCH_SEED,
        part_skew: None,
    })
}

/// Median of a sample (destructive order).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    values[values.len() / 2]
}

/// Measures a query's server user time: one warmup run, then the median of
/// `reps` measured runs.
pub fn measure_user_ms(session: &mut Session, sql: &str, reps: usize) -> f64 {
    session.query(sql).run().expect("warmup run");
    median(
        (0..reps)
            .map(|_| {
                session
                    .query(sql)
                    .run()
                    .expect("measured run")
                    .server_user_ms()
            })
            .collect(),
    )
}

/// Era what-if I/O (E2): charges `pool` one sequential read of every table
/// the optimized plan of `sql` scans — 8 KiB pages, tables in execution
/// order — and returns the simulated wait that added, in milliseconds.
///
/// The engine never sees the modeled pool: call this once beside each run
/// of `sql` and add the result to the measured `server_real_ms()` to get
/// the era-disk "real" time. A warm pool returns `0.0`.
pub fn era_scan_io_ms(session: &Session, sql: &str, pool: &mut BufferPool) -> f64 {
    fn scans<'p>(plan: &'p Plan, out: &mut Vec<&'p str>) {
        match plan {
            Plan::Scan { table, .. } => out.push(table),
            Plan::Join { left, right, .. } => {
                scans(left, out);
                scans(right, out);
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input }
            | Plan::TopN { input, .. } => scans(input, out),
        }
    }
    let plan = session.plan(sql).expect("plannable query");
    let mut tables = Vec::new();
    scans(&plan, &mut tables);
    let before = pool.sim_wait_ns();
    for table in tables {
        let catalog = session.catalog();
        let file = catalog.file_id(table).expect("scanned table exists");
        let pages = catalog
            .table(table)
            .expect("scanned table")
            .page_count(8192);
        for page in 0..pages {
            pool.read((file, page));
        }
    }
    (pool.sim_wait_ns() - before) / 1e6
}

/// Builds a session in the given mode over a shared catalog.
pub fn session_with_mode(catalog: &Catalog, mode: ExecMode) -> Session {
    Session::new(catalog.clone()).with_mode(mode)
}

/// The shared experiment knobs, defaults overridden by `-Dkey=value`
/// command-line arguments (the slide-193 layering):
///
/// * `threads` — worker count for parallel sweeps (default 1, serial).
/// * `cache` — `on`/`off`, the resumable result cache (default off here;
///   experiments that use it honor `-Dcache=on`).
///
/// # Panics
/// Panics with the malformed argument when a `-D` option does not parse.
pub fn bench_props() -> Properties {
    let mut props = Properties::with_defaults(&[("threads", "1"), ("cache", "off")]);
    let args: Vec<String> = std::env::args().skip(1).collect();
    props
        .apply_args(args.iter().map(String::as_str))
        .expect("arguments must be -Dkey=value");
    props
}

/// The `threads` knob of [`bench_props`], clamped to at least 1.
pub fn threads_knob(props: &Properties) -> usize {
    props
        .get_u64("threads")
        .expect("-Dthreads must be a number")
        .unwrap_or(1)
        .max(1) as usize
}

/// Prints a horizontal rule and a heading, the shared exhibit banner.
pub fn banner(experiment: &str, slide: &str) {
    println!("{}", "=".repeat(72));
    println!("{experiment}  (reproduces {slide})");
    println!("{}", "=".repeat(72));
}

/// The wire protocol a served experiment speaks — the client/driver
/// configuration is part of what a report must state.
pub fn print_wire_protocol() {
    println!(
        "wire protocol: version {} (results stream as ColumnBatch frames)",
        minidb_net::PROTOCOL_VERSION
    );
}

/// Environment line printed by every experiment: "document what you do".
pub fn print_environment() {
    let spec = perfeval_measure::EnvSpec::capture();
    println!("host: {}", spec.render());
    println!(
        "workload: TPC-H-like, sf={BENCH_SCALE_FACTOR}, seed={BENCH_SEED} \
         (regenerates bit-identically)"
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_catalog_is_deterministic() {
        let a = bench_catalog();
        let b = bench_catalog();
        assert_eq!(
            a.table("lineitem").unwrap().row_count(),
            b.table("lineitem").unwrap().row_count()
        );
    }

    /// Pins E2's table: the cold simulated wait is the value the in-engine
    /// pool charged before it moved out here, and a warm pool is free.
    #[test]
    fn era_scan_io_reproduces_e2_cold_and_hot() {
        let session = Session::new(bench_catalog());
        let mut pool = BufferPool::new(memsim::Disk::laptop_5400rpm(), 100_000);
        let sql = workload::queries::q1();
        let cold = era_scan_io_ms(&session, &sql, &mut pool);
        assert_eq!(cold, 154.53472222222248, "E2 cold sim_io, ms");
        assert!(pool.physical_reads() > 0, "cold scan reads pages");
        assert_eq!(era_scan_io_ms(&session, &sql, &mut pool), 0.0, "hot");
        pool.flush();
        assert_eq!(era_scan_io_ms(&session, &sql, &mut pool), cold, "re-cold");
        // A join charges both of its inputs.
        let join = "SELECT COUNT(*) FROM orders JOIN customer ON o_custkey = c_custkey";
        pool.flush();
        assert!(era_scan_io_ms(&session, join, &mut pool) > 0.0);
        assert_eq!(era_scan_io_ms(&session, join, &mut pool), 0.0);
    }

    #[test]
    fn median_behaviour() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn measure_user_ms_is_positive() {
        let catalog = catalog_at(0.001);
        let mut s = Session::new(catalog);
        let ms = measure_user_ms(&mut s, "SELECT COUNT(*) FROM lineitem", 3);
        assert!(ms >= 0.0);
    }

    #[test]
    #[should_panic(expected = "median of empty sample")]
    fn median_empty_panics() {
        median(Vec::new());
    }

    #[test]
    fn threads_knob_defaults_and_clamps() {
        let props = Properties::with_defaults(&[("threads", "4")]);
        assert_eq!(threads_knob(&props), 4);
        let zero = Properties::with_defaults(&[("threads", "0")]);
        assert_eq!(threads_knob(&zero), 1, "0 threads clamps to serial");
        assert_eq!(threads_knob(&Properties::new()), 1, "default is serial");
    }
}
