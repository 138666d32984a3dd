//! The served tier, pinned from the outside: a server built the default way
//! (`Session::new` per connection, the sharded core) answers every statement
//! shape of the served benchmark **bit-identically to the debug
//! interpreter**, over TCP, from a disk-backed catalog whose `lineitem` and
//! `orders` span several chunks, with one shard (no lent core) and with two
//! (a lone connection borrows the idle one) — and the server's own trace
//! says which tier answered: SIMD, the default since the served path stopped
//! running the OPT tier's branchy filter.
//!
//! Floats are compared by `to_bits()`.

use std::sync::OnceLock;

use perfeval::net::DEFAULT_QUEUE_DEPTH;
use perfeval::prelude::*;
use perfeval::trace::{AttrValue, Tracer};
use perfeval::workload::dbgen::{generate, GenConfig};

/// The benchmark's statements, constants fixed. Tests cannot import
/// `benchmark/`: this is a copy of the shapes `benchmark/src/workloads.rs`
/// generates (`scan_statement`, `result_statement`, `point_statement`).
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
    // result-heavy: the range select.
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

/// Rows per persisted chunk: `lineitem` (≈ 24 000 rows at sf 0.004) spans
/// about twelve, `orders` (6 000) three.
const CHUNK_ROWS: usize = 2048;

/// The disk-backed catalog, persisted once per test binary.
fn disk_catalog() -> Catalog {
    static DISK: OnceLock<Catalog> = OnceLock::new();
    DISK.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("perfeval_served_tier_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        generate(&GenConfig {
            scale_factor: 0.004,
            ..GenConfig::default()
        })
        .persist_with(&dir, &StoreConfig::default().chunk_rows(CHUNK_ROWS))
        .expect("persist");
        let disk = Catalog::open(&dir).expect("reopen");
        for table in ["lineitem", "orders"] {
            let rows = disk.table(table).unwrap().row_count();
            assert!(rows > 2 * CHUNK_ROWS, "{table} must span several chunks");
        }
        disk
    })
    .clone()
}

fn assert_bit_identical(sql: &str, got: &[Vec<Value>], want: &[Vec<Value>]) {
    assert_eq!(got.len(), want.len(), "row count: {sql}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "row {i} width: {sql}");
        for (gv, wv) in g.iter().zip(w) {
            let same = match (gv, wv) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => gv == wv,
            };
            assert!(same, "{sql}: row {i}: served {gv:?} != debug {wv:?}");
        }
    }
}

#[test]
fn a_default_server_answers_the_benchmark_shapes_as_the_debug_oracle_does() {
    let disk = disk_catalog();
    let mut oracle = Session::new(disk.clone()).with_mode(ExecMode::Debug);
    let want: Vec<_> = SHAPES
        .iter()
        .map(|sql| {
            oracle
                .query(sql)
                .run()
                .unwrap_or_else(|e| panic!("{e}: {sql}"))
        })
        .collect();

    for shards in [1, 2] {
        let tracer = Tracer::new();
        let endpoint = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = endpoint.local_addr().unwrap();
        let served = disk.clone();
        let server = Server::builder()
            .transport(endpoint)
            .mode(ServerMode::Sharded {
                shards,
                queue_depth: DEFAULT_QUEUE_DEPTH,
            })
            .traced(&tracer)
            .serve(move || Session::new(served.clone()));
        let mut client = Client::connect(Box::new(TcpTransport::connect(addr).unwrap())).unwrap();
        for (sql, want) in SHAPES.iter().zip(&want) {
            let got = client.query(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
            assert_eq!(got.columns, want.column_names, "columns: {sql}");
            assert_bit_identical(sql, &got.rows, &want.rows);
        }
        client.close().unwrap();
        let lent = server.steal_borrows();
        server.wait();
        if shards == 2 {
            assert!(
                lent > 0,
                "a lone connection on two shards borrows the idle one"
            );
        }

        // The server's own record of which tier answered each statement.
        let trace = tracer.snapshot();
        let modes: Vec<_> = (trace.lanes.iter().flat_map(|l| &l.records))
            .filter(|r| r.name == "query")
            .map(|r| r.attr("mode"))
            .collect();
        assert_eq!(
            modes.len(),
            SHAPES.len(),
            "{shards} shard(s): one query span a statement"
        );
        for mode in modes {
            assert_eq!(
                mode,
                Some(&AttrValue::Str("SIMD".into())),
                "{shards} shard(s): the served tier"
            );
        }
    }
}
