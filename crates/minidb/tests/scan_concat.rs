//! Chunk-at-a-time scans copy nothing out of the buffer pool: a `Filter`,
//! `Project` or `Aggregate` over a multi-chunk disk-backed table must not
//! move `minidb::column::scan_concat_bytes()`, the counter charged whenever
//! a whole column is assembled from its chunks. The counter is
//! process-global, so this pin lives alone in its own test binary (like
//! `scans_never_clone_column_bytes`, which has `parallel_query.rs` to
//! itself as far as `Column::clone` goes).

use minidb::column::scan_concat_bytes;
use minidb::{Catalog, DataType, ExecMode, Session, StoreConfig, TableBuilder, Value};

#[test]
fn sweeps_over_a_multi_chunk_table_copy_no_scan_bytes() {
    let rows = 10_000i64;
    let mut t = TableBuilder::new("t")
        .column("k", DataType::Int)
        .column("v", DataType::Float)
        .column("s", DataType::Str)
        .build();
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(i % 100),
            Value::Float(i as f64 * 0.5),
            Value::Str(format!("s{}", i % 5)),
        ])
        .unwrap();
    }
    let mut mem = Catalog::new();
    mem.register(t).unwrap();
    let dir = std::env::temp_dir().join(format!("minidb_scan_concat_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(1024))
        .unwrap();
    let disk = Catalog::open(&dir).unwrap();

    let before = scan_concat_bytes();
    for (threads, morsel) in [(1usize, 16_384usize), (4, 256)] {
        let mut s = Session::new(disk.clone())
            .with_parallelism(threads)
            .with_morsel_rows(morsel);
        for sql in [
            "SELECT k, s FROM t WHERE k < 10",
            "SELECT k + 1 AS k1, v FROM t WHERE v > 100.0",
            "SELECT SUM(v), COUNT(*) FROM t",
            "SELECT s, SUM(v), AVG(v) FROM t WHERE k < 50 GROUP BY s",
            "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k LIMIT 3",
        ] {
            let got = s.query(sql).run().unwrap();
            assert!(got.store_logical_reads > 0, "{sql}: must read the pool");
        }
    }
    assert_eq!(
        scan_concat_bytes() - before,
        0,
        "a sweep over a multi-chunk table assembled a whole column"
    );

    // The counter is live: a bare scan under ORDER BY (no Project between)
    // and the debug engine materialize the columns they scan whole, and are
    // charged for exactly those bytes.
    let mut s = Session::new(disk.clone());
    s.query("SELECT * FROM t ORDER BY v DESC LIMIT 1")
        .run()
        .unwrap();
    assert_eq!(scan_concat_bytes() - before, (8 + 8 + 4) * rows as u64);
    let before = scan_concat_bytes();
    let mut s = Session::new(disk).with_mode(ExecMode::Debug);
    s.query("SELECT k, v FROM t WHERE k < 1").run().unwrap();
    assert_eq!(scan_concat_bytes() - before, 2 * 8 * rows as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
