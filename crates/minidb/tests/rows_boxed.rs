//! No statement shape of the served benchmark evaluates anything one boxed
//! row at a time: `minidb::exec::rows_boxed()` — charged by the batch
//! engine's row-at-a-time fallback with the rows it boxes — stays where it
//! was over the eight `scan-agg` shapes (six of them are `over-budget`'s), a
//! `result-heavy` select and the four `point-open` shapes, under OPT and
//! SIMD at one and two threads, on a multi-chunk disk-backed catalog.
//!
//! This is the pin that would have caught `COUNT(*)` — parsed as `COUNT(1)`
//! — boxing every column of every row to evaluate the constant 1. The
//! counter is process-global, so the pin lives alone in its own test binary
//! (like `scan_concat.rs`).

use minidb::exec::rows_boxed;
use minidb::{Catalog, DataType, ExecMode, Session, StoreConfig, TableBuilder, Value};

/// The benchmark's statements (`benchmark/src/workloads.rs`), constants
/// fixed.
const SHAPES: [&str; 13] = [
    // scan-agg / over-budget: Q6 and family queries 3, 7, 8, 12, 15.
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
     WHERE l_shipdate >= 700 AND l_shipdate < 1065 \
     AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < 1200",
    "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS charge \
     FROM lineitem WHERE l_shipdate >= 40",
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders \
     WHERE o_orderdate BETWEEN 900 AND 1300 GROUP BY o_orderpriority \
     ORDER BY o_orderpriority",
    "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey \
     WHERE o_orderdate < 400 AND l_shipdate < 500",
    "SELECT l_suppkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM lineitem WHERE l_shipdate >= 1000 AND l_shipdate < 1090 \
     GROUP BY l_suppkey ORDER BY revenue DESC, l_suppkey LIMIT 10",
    // scan-agg only: family query 5 and Q1.
    "SELECT l_returnflag, COUNT(*) AS n FROM lineitem WHERE l_shipdate >= 40 \
     GROUP BY l_returnflag ORDER BY n DESC",
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
     SUM(l_extendedprice) AS sum_base_price, \
     SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
     AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
     AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
     FROM lineitem WHERE l_shipdate <= 2440 \
     GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    // result-heavy.
    "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate \
     FROM orders WHERE o_orderdate >= 300 AND o_orderdate < 900",
    // point-open.
    "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = 321",
    "SELECT c_custkey, c_name, c_acctbal FROM customer \
     WHERE c_custkey >= 100 AND c_custkey < 120",
    "SELECT p_partkey, p_name, p_retailprice FROM part \
     WHERE p_partkey >= 400 AND p_partkey < 430",
    "SELECT p_brand, COUNT(*) AS n FROM part WHERE p_size = 7 \
     GROUP BY p_brand ORDER BY p_brand",
];

type ColSpec<'a> = (&'a str, DataType, &'a dyn Fn(i64) -> Value);

fn table(name: &str, rows: i64, cols: &[ColSpec<'_>]) -> minidb::Table {
    let mut b = TableBuilder::new(name);
    for (col, dt, _) in cols {
        b = b.column(col, *dt);
    }
    let mut t = b.build();
    for i in 0..rows {
        t.push_row(cols.iter().map(|(_, _, f)| f(i)).collect())
            .unwrap();
    }
    t
}

const LINEITEMS: i64 = 6_000;

/// The columns the shapes name, with the benchmark schema's types.
fn catalog() -> Catalog {
    let int = |m: i64| move |i: i64| Value::Int((i * 7919) % m);
    let float = |m: i64| move |i: i64| Value::Float(((i * 104_729) % m) as f64 / 100.0);
    let tag = |p: &'static str, m: i64| move |i: i64| Value::Str(format!("{p}{}", (i * 31) % m));
    let mut c = Catalog::new();
    c.register(table(
        "lineitem",
        LINEITEMS,
        &[
            ("l_orderkey", DataType::Int, &int(1_500)),
            ("l_suppkey", DataType::Int, &int(50)),
            ("l_quantity", DataType::Float, &float(5_000)),
            ("l_extendedprice", DataType::Float, &float(9_000_000)),
            ("l_discount", DataType::Float, &float(11)),
            ("l_tax", DataType::Float, &float(9)),
            ("l_returnflag", DataType::Str, &tag("R", 3)),
            ("l_linestatus", DataType::Str, &tag("S", 2)),
            ("l_shipdate", DataType::Int, &int(2_500)),
        ],
    ))
    .unwrap();
    c.register(table(
        "orders",
        1_500,
        &[
            ("o_orderkey", DataType::Int, &Value::Int),
            ("o_custkey", DataType::Int, &int(750)),
            ("o_totalprice", DataType::Float, &float(40_000_000)),
            ("o_orderdate", DataType::Int, &int(2_400)),
            ("o_orderpriority", DataType::Str, &tag("P", 5)),
        ],
    ))
    .unwrap();
    c.register(table(
        "customer",
        750,
        &[
            ("c_custkey", DataType::Int, &Value::Int),
            ("c_name", DataType::Str, &|i| {
                Value::Str(format!("Customer#{i}"))
            }),
            ("c_acctbal", DataType::Float, &float(1_000_000)),
            ("c_mktsegment", DataType::Str, &tag("M", 5)),
        ],
    ))
    .unwrap();
    c.register(table(
        "part",
        1_000,
        &[
            ("p_partkey", DataType::Int, &Value::Int),
            ("p_name", DataType::Str, &|i| {
                Value::Str(format!("part {i}"))
            }),
            ("p_brand", DataType::Str, &tag("Brand#", 25)),
            ("p_size", DataType::Int, &int(50)),
            ("p_retailprice", DataType::Float, &float(200_000)),
        ],
    ))
    .unwrap();
    c
}

#[test]
fn no_benchmark_shape_boxes_a_row() {
    let mem = catalog();
    let dir = std::env::temp_dir().join(format!("minidb_rows_boxed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(512))
        .unwrap();
    let disk = Catalog::open(&dir).unwrap();

    let before = rows_boxed();
    for mode in [ExecMode::Optimized, ExecMode::Simd] {
        for threads in [1, 2] {
            let mut session = Session::new(disk.clone())
                .with_mode(mode)
                .with_parallelism(threads)
                .with_morsel_rows(200);
            for sql in SHAPES {
                let got = session
                    .query(sql)
                    .run()
                    .unwrap_or_else(|e| panic!("{e}: {sql}"));
                assert!(got.store_logical_reads > 0, "{sql}: must read the pool");
                assert_eq!(
                    rows_boxed() - before,
                    0,
                    "{mode}, {threads} threads boxed rows: {sql}"
                );
            }
        }
    }

    // The pin is live: Int arithmetic has no typed kernel, so it is still
    // evaluated row by row, and charged for exactly the rows it boxed —
    // in one part or in several.
    for threads in [1, 2] {
        let before = rows_boxed();
        let mut session = Session::new(disk.clone()).with_parallelism(threads);
        let sql = "SELECT l_suppkey + 1 FROM lineitem";
        assert_eq!(
            session.query(sql).run().unwrap().rows.len() as i64,
            LINEITEMS
        );
        assert_eq!(
            (rows_boxed() - before) as i64,
            LINEITEMS,
            "{threads} threads"
        );
    }
    // The debug interpreter is not the batch engine: it boxes every row by
    // design and charges nothing.
    let before = rows_boxed();
    let mut session = Session::new(disk).with_mode(ExecMode::Debug);
    session.query(SHAPES[6]).run().unwrap();
    assert_eq!(rows_boxed() - before, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
