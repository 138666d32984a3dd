//! # perfeval-bench
//!
//! The benchmark harness reproducing **every table and figure** of the
//! paper's content. One binary, `perfeval-exp`, holds every exhibit behind a
//! manifest: `perfeval-exp list` prints it (id, title, what it reproduces,
//! knobs), `perfeval-exp <id> [--smoke] [-Dkey=value …]` regenerates one
//! exhibit and prints the same rows/series the slides show, `perfeval-exp
//! all [--smoke]` runs every one. `EXPERIMENTS.md` at the repository root
//! records paper-vs-measured for each.
//!
//! Two more binaries are tools, not exhibits: `minidb-serve` (standalone
//! TCP server for `minidb-net` clients) and `minidb-load` (multi-client load
//! generator). Both and every experiment declare their command-line knobs
//! through [`knobs`], which refuses what it does not know. [`suite`] pins
//! the four statements × three engine tiers that E24 measures in process;
//! the served path is measured by `benchmark/` at the repository root.

pub mod knobs;
pub mod suite;

use std::path::Path;

use memsim::BufferPool;
use minidb::{Catalog, ExecMode, Plan, Session, StoreConfig};
use minidb_net::ServerMode;
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

/// Median of a sample — `perfeval-stats`' median, so an even sample
/// interpolates its two middle values like every other median printed here.
pub fn median(values: Vec<f64>) -> f64 {
    perfeval_stats::Summary::from_slice(&values)
        .median()
        .expect("median of empty sample")
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

/// The process's command-line arguments — the one place this crate's
/// knob-driven binaries read them.
pub fn cli_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The server core a `mode` knob names: `threaded` is thread-per-connection
/// with `workers` acceptors, `sharded` the event-driven core with `shards`
/// readiness loops (0 = one per core, the builder's choice) and
/// `queue_depth` frames of write queue per connection.
///
/// # Errors
/// Names the value when it is neither.
pub fn server_mode(
    mode: &str,
    workers: usize,
    shards: usize,
    queue_depth: usize,
) -> Result<ServerMode, String> {
    match mode {
        "threaded" => Ok(ServerMode::ThreadPerConn { workers }),
        "sharded" => Ok(ServerMode::Sharded {
            shards: match (shards, ServerMode::default()) {
                (0, ServerMode::Sharded { shards, .. }) => shards,
                (n, _) => n,
            },
            queue_depth,
        }),
        other => Err(format!(
            "-Dmode must be 'sharded' or 'threaded', got '{other}'"
        )),
    }
}

/// Serves `data_dir` disk-backed: the standard catalog at `sf` is persisted
/// there on first use (no manifest yet) and reopened through the
/// `perfeval-store` buffer pool that `config` sizes.
///
/// # Panics
/// Panics when the directory can be neither written nor reopened.
pub fn open_or_persist(data_dir: &Path, sf: f64, config: StoreConfig) -> Catalog {
    if !data_dir
        .join(perfeval_store::manifest::CATALOG_MANIFEST)
        .exists()
    {
        catalog_at(sf)
            .persist(data_dir)
            .unwrap_or_else(|e| panic!("persist catalog into {}: {e}", data_dir.display()));
        println!("persisted sf={sf} catalog into {}", data_dir.display());
    }
    Catalog::open_with(data_dir, config)
        .unwrap_or_else(|e| panic!("open catalog in {}: {e}", data_dir.display()))
}

/// What every run of every binary opens with: the banner, the machine, the
/// standard workload, and the configuration this run *actually* uses —
/// "document what you do", written once.
pub fn print_header(title: &str, reproduces: &str, config: &knobs::Config) {
    println!("{}", "=".repeat(72));
    println!("{title}  (reproduces {reproduces})");
    println!("{}", "=".repeat(72));
    println!("host: {}", perfeval_measure::EnvSpec::capture().render());
    println!(
        "workload: TPC-H-like, sf={BENCH_SCALE_FACTOR} unless the run states its own, \
         seed={BENCH_SEED} (regenerates bit-identically)"
    );
    println!("config: {}", config.render());
    println!();
}

/// The wire protocol a served run speaks and the engine tier its sessions
/// execute — the client/driver configuration and the build are part of
/// what a report must state. `engine` is read off a served session
/// ([`Session::mode`]), never named, so the banner cannot outlive a change
/// of `ExecMode`'s default; `None` when the server is another process.
pub fn print_wire_protocol(engine: Option<ExecMode>) {
    println!(
        "wire protocol: version {} (results stream as ColumnBatch frames)",
        minidb_net::PROTOCOL_VERSION
    );
    match engine {
        Some(mode) => println!("engine: {mode}"),
        None => println!("engine: the remote server's (its banner names it)"),
    }
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
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
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
    fn one_mode_knob_names_both_server_cores() {
        assert_eq!(
            server_mode("threaded", 4, 9, 64),
            Ok(ServerMode::ThreadPerConn { workers: 4 })
        );
        assert_eq!(
            server_mode("sharded", 4, 3, 16),
            Ok(ServerMode::Sharded {
                shards: 3,
                queue_depth: 16
            })
        );
        // 0 shards: the builder's per-core default, with the asked depth.
        let ServerMode::Sharded { shards, .. } = ServerMode::default() else {
            panic!("the default core is sharded");
        };
        assert_eq!(
            server_mode("sharded", 4, 0, 16),
            Ok(ServerMode::Sharded {
                shards,
                queue_depth: 16
            })
        );
        assert!(server_mode("evented", 4, 0, 16)
            .unwrap_err()
            .contains("evented"));
    }

    #[test]
    fn open_or_persist_persists_once_then_reopens() {
        let dir = std::env::temp_dir().join(format!("perfeval_bench_oop_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rows = |c: &Catalog| c.table("lineitem").unwrap().row_count();
        let first = open_or_persist(&dir, 0.001, StoreConfig::default());
        assert!(first.storage().is_some(), "served disk-backed");
        // A second call finds the manifest and reopens what is there,
        // whatever scale factor it is handed.
        let second = open_or_persist(&dir, 0.002, StoreConfig::default());
        assert_eq!(rows(&first), rows(&second));
        assert_eq!(rows(&first), rows(&catalog_at(0.001)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
