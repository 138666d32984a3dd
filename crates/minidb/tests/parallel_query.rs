//! Determinism suite for the morsel-parallel engine.
//!
//! The contract under test: for any data, any query shape the engine
//! supports, any thread count, and any morsel size — including one-row
//! morsels, ragged tails, and empty tables — the parallel optimized
//! engine returns **bit-identical** results to the serial optimized
//! engine, which in turn matches the debug engine. Float cells are
//! compared by bit pattern, not `==`, so `-0.0` vs `0.0` or differently
//! rounded sums cannot hide behind float equality.

use minidb::{Catalog, DataType, ExecMode, Session, TableBuilder, Value};
use proptest::prelude::*;

/// Deterministic little generator (the proptest shim hands us seeds).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    fn float(&mut self) -> f64 {
        // Includes negatives and awkward magnitudes so float summation
        // order genuinely matters.
        (self.next() % 2_000_000) as f64 / 97.0 - 10_000.0
    }
}

const STRINGS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Builds a catalog with a fact table `t (k, v, s)` of `n` rows and a
/// dimension table `u (j, w)` of `m` rows.
fn build_catalog(n: usize, m: usize, seed: u64) -> Catalog {
    let mut rng = Lcg(seed | 1);
    let mut catalog = Catalog::new();
    let mut t = TableBuilder::new("t")
        .column("k", DataType::Int)
        .column("v", DataType::Float)
        .column("s", DataType::Str)
        .build();
    for _ in 0..n {
        t.push_row(vec![
            Value::Int(rng.below(50) as i64),
            Value::Float(rng.float()),
            Value::Str(STRINGS[rng.below(STRINGS.len() as u64) as usize].to_owned()),
        ])
        .unwrap();
    }
    catalog.register(t).unwrap();
    let mut u = TableBuilder::new("u")
        .column("j", DataType::Int)
        .column("w", DataType::Float)
        .build();
    for _ in 0..m {
        u.push_row(vec![
            Value::Int(rng.below(50) as i64),
            Value::Float(rng.float()),
        ])
        .unwrap();
    }
    catalog.register(u).unwrap();
    catalog
}

/// Query shapes covering every parallel operator: pipelines (filter,
/// project, both), fused aggregation (grouped and global), the parallel
/// join probe, and aggregation over a materialized (join) input.
fn query_shapes() -> Vec<String> {
    vec![
        "SELECT k, v FROM t WHERE k < 25".to_owned(),
        "SELECT k + 1 AS k2, v * 0.5 AS half FROM t WHERE v > 0.0 AND k < 40".to_owned(),
        "SELECT s, v FROM t WHERE s = 'beta'".to_owned(),
        "SELECT s, SUM(v) AS total, COUNT(*) AS n FROM t WHERE k < 30 GROUP BY s".to_owned(),
        "SELECT SUM(v), AVG(v), MIN(k), MAX(k), COUNT(*) FROM t".to_owned(),
        "SELECT k, SUM(v * 2.0) AS dbl FROM t GROUP BY k ORDER BY dbl DESC LIMIT 7".to_owned(),
        "SELECT k, w FROM t JOIN u ON k = j".to_owned(),
        "SELECT s, SUM(w) AS tw FROM t JOIN u ON k = j GROUP BY s ORDER BY s".to_owned(),
        "SELECT k, v FROM t WHERE v > -5000.0 ORDER BY k, v DESC".to_owned(),
        "SELECT COUNT(*) FROM t WHERE s = 'gamma' AND v < 500.0".to_owned(),
    ]
}

/// Bitwise row equality: floats must match to the last bit.
fn rows_bit_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    (x, y) => x == y,
                })
        })
}

fn run(
    catalog: &Catalog,
    mode: ExecMode,
    threads: usize,
    morsel: usize,
    sql: &str,
) -> Vec<Vec<Value>> {
    let mut session = Session::new(catalog.clone())
        .with_mode(mode)
        .with_parallelism(threads)
        .with_morsel_rows(morsel);
    session.query(sql).run().unwrap().rows
}

proptest! {
    #[test]
    fn parallel_is_bit_identical_to_serial_and_debug(
        n in 0usize..220,
        m in 0usize..120,
        seed in any::<u64>(),
    ) {
        let catalog = build_catalog(n, m, seed);
        for sql in query_shapes() {
            let debug = run(&catalog, ExecMode::Debug, 1, 64, &sql);
            let serial = run(&catalog, ExecMode::Optimized, 1, 64, &sql);
            prop_assert!(
                rows_bit_equal(&debug, &serial),
                "DBG vs serial OPT diverged on {sql} (n={n}, m={m}, seed={seed})"
            );
            for threads in [2usize, 3, 8] {
                for morsel in [1usize, 3, 64] {
                    let parallel = run(&catalog, ExecMode::Optimized, threads, morsel, &sql);
                    prop_assert!(
                        rows_bit_equal(&serial, &parallel),
                        "parallel OPT ({threads} threads, morsel {morsel}) diverged on {sql} \
                         (n={n}, m={m}, seed={seed})"
                    );
                }
            }
        }
    }
}

/// The ragged-tail and empty-table corners, pinned explicitly (the
/// property test reaches them probabilistically).
#[test]
fn edge_morsel_geometries() {
    for n in [0usize, 1, 2, 63, 64, 65, 128, 129] {
        let catalog = build_catalog(n, 7, 0xfeed);
        for sql in query_shapes() {
            let serial = run(&catalog, ExecMode::Optimized, 1, 64, &sql);
            for (threads, morsel) in [(2, 64), (4, 1), (3, 63), (8, 130)] {
                let parallel = run(&catalog, ExecMode::Optimized, threads, morsel, &sql);
                assert!(
                    rows_bit_equal(&serial, &parallel),
                    "n={n} threads={threads} morsel={morsel} sql={sql}"
                );
            }
        }
    }
}

/// The parallel profile must tell the same story as the serial one: same
/// operators at the same depths with the same row counts (only the times
/// and notes may differ), and the per-worker morsel spans must account
/// for exactly the rows entering and leaving every swept operator — no row
/// lost or double-counted across workers. Checked for a pipeline, a join
/// probe, an aggregate fused with its filter, and a filter above a join.
#[test]
fn parallel_profile_and_trace_account_for_every_row() {
    let catalog = build_catalog(10_000, 100, 0xabcdef);
    // Each shape names its sweeps as (operator feeding rows in, operator
    // whose rows come out), looked up in the serial profile.
    let shapes: [(&str, &[(&str, &str)]); 4] = [
        ("SELECT k, v FROM t WHERE k < 25", &[("Scan t", "Project")]),
        (
            "SELECT k, w FROM t JOIN u ON k = j",
            &[("Scan t", "HashJoin"), ("HashJoin", "Project")],
        ),
        (
            "SELECT k, SUM(v) AS s FROM t WHERE k < 30 GROUP BY k",
            &[("Scan t", "Filter")],
        ),
        (
            "SELECT k, w FROM t JOIN u ON k = j WHERE v > w",
            &[("Scan t", "HashJoin"), ("HashJoin", "Project")],
        ),
    ];
    for (sql, sweeps) in shapes {
        let serial_result = Session::new(catalog.clone()).query(sql).run().unwrap();

        let tracer = perfeval_trace::Tracer::new();
        let mut parallel = Session::new(catalog.clone())
            .with_parallelism(4)
            .with_morsel_rows(1024);
        let parallel_result = parallel.query(sql).traced(&tracer).run().unwrap();
        assert!(rows_bit_equal(&serial_result.rows, &parallel_result.rows));

        // Profile: operator tree and row counts match the serial engine.
        let shape = |profile: &[minidb::exec::ProfileEntry]| -> Vec<(String, usize, usize)> {
            profile
                .iter()
                .map(|e| (e.op.clone(), e.depth, e.rows_out))
                .collect()
        };
        assert_eq!(
            shape(&serial_result.profile),
            shape(&parallel_result.profile),
            "{sql}\nserial:\n{}\nparallel:\n{}",
            minidb::exec::render_profile(&serial_result.profile),
            minidb::exec::render_profile(&parallel_result.profile),
        );

        // Trace: worker lanes exist, and their morsel spans' rows_in and
        // rows_out sum to what the profile says each sweep took and gave.
        let rows_of = |op: &str| -> usize {
            let entry = serial_result.profile.iter().find(|e| e.op == op);
            entry.unwrap_or_else(|| panic!("{sql}: no {op}")).rows_out
        };
        let trace = tracer.snapshot();
        assert!(trace.lanes.len() > 1, "worker lanes expected in the trace");
        let morsels: Vec<_> = trace
            .lanes
            .iter()
            .flat_map(|l| l.records.iter())
            .filter(|r| r.name.starts_with("morsel "))
            .collect();
        let attr_sum = |key: &str| -> usize {
            morsels
                .iter()
                .map(|r| match r.attr(key) {
                    Some(perfeval_trace::AttrValue::Int(v)) => *v as usize,
                    other => panic!("morsel span missing {key}: {other:?}"),
                })
                .sum()
        };
        let want = |f: &dyn Fn(&(&str, &str)) -> usize| sweeps.iter().map(f).sum::<usize>();
        assert_eq!(
            morsels.len(),
            want(&|(src, _)| rows_of(src).div_ceil(1024)),
            "{sql}: one span per 1024-row morsel of every sweep"
        );
        assert_eq!(attr_sum("rows_in"), want(&|(src, _)| rows_of(src)), "{sql}");
        assert_eq!(
            attr_sum("rows_out"),
            want(&|(_, out)| rows_of(out)),
            "{sql}"
        );
    }
}

/// Scans must be zero-copy: running scan-only and scan+filter queries,
/// serial and parallel, may not deep-copy a single column (`Column`'s
/// instrumented `Clone` counts every cloned byte).
#[test]
fn scans_never_clone_column_bytes() {
    let catalog = build_catalog(50_000, 100, 0x5eed);
    let before = minidb::column::cloned_bytes();
    for (threads, morsel) in [(1usize, 16_384usize), (4, 1024)] {
        let mut s = Session::new(catalog.clone())
            .with_parallelism(threads)
            .with_morsel_rows(morsel);
        s.query("SELECT k FROM t").run().unwrap();
        s.query("SELECT k, v FROM t WHERE k < 10").run().unwrap();
        s.query("SELECT SUM(v) FROM t WHERE k < 25").run().unwrap();
    }
    let after = minidb::column::cloned_bytes();
    assert_eq!(after - before, 0, "queries deep-copied column data");
}
