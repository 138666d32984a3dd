//! Persistence integration: persist → reopen must be bit-identical, the
//! real buffer pool must count honestly (cold/hot/flush), backed tables
//! are read-only, injected `store.read` faults surface as I/O errors the
//! session survives, and tiny pool budgets force eviction mid-query
//! without changing answers.

use minidb::{Catalog, DbError, ExecMode, Session, StoreConfig, TableBuilder, Value};
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};
use perfeval_store::Evict;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minidb_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A catalog with edge-case data: NaN and signed zeros, a low-cardinality
/// string column, bools, and enough rows to span several chunks at small
/// `chunk_rows`.
fn build_catalog(rows: i64) -> Catalog {
    let mut catalog = Catalog::new();
    let mut t = TableBuilder::new("probe")
        .column("id", minidb::DataType::Int)
        .column("v", minidb::DataType::Float)
        .column("tag", minidb::DataType::Str)
        .column("flag", minidb::DataType::Bool)
        .build();
    for i in 0..rows {
        let v = match i % 4 {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            _ => i as f64 * 0.5,
        };
        t.push_row(vec![
            Value::Int(i),
            Value::Float(v),
            Value::Str(format!("tag{}", i % 7)),
            Value::Bool(i % 3 == 0),
        ])
        .unwrap();
    }
    catalog.register(t).unwrap();
    let mut small = TableBuilder::new("aside")
        .column("k", minidb::DataType::Int)
        .build();
    small.push_row(vec![Value::Int(42)]).unwrap();
    catalog.register(small).unwrap();
    catalog
}

/// Compares every column of every table bit-for-bit (floats by
/// `to_bits`, strings by decoded value).
fn assert_bit_identical(a: &Catalog, b: &Catalog) {
    assert_eq!(a.table_names(), b.table_names());
    for name in a.table_names() {
        let ta = a.table(name).unwrap();
        let tb = b.table(name).unwrap();
        assert_eq!(ta.row_count(), tb.row_count(), "{name} row count");
        assert_eq!(ta.schema(), tb.schema(), "{name} schema");
        for ci in 0..ta.column_count() {
            let ca = ta.column_arc_io(ci).unwrap();
            let cb = tb.column_arc_io(ci).unwrap();
            assert_eq!(ca.len(), cb.len());
            if let (Some(fa), Some(fb)) = (ca.as_float(), cb.as_float()) {
                for (x, y) in fa.iter().zip(fb) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name} col {ci} float bits");
                }
            } else {
                for i in 0..ca.len() {
                    assert_eq!(ca.get(i), cb.get(i), "{name} col {ci} row {i}");
                }
            }
        }
    }
}

#[test]
fn persist_reopen_is_bit_identical() {
    let dir = temp_dir("roundtrip");
    let mem = build_catalog(1000);
    mem.persist(&dir).unwrap();
    let disk = Catalog::open(&dir).unwrap();
    assert!(disk.storage().is_some());
    assert!(disk.storage().unwrap().quarantined().is_empty());
    assert_bit_identical(&mem, &disk);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_agree_between_memory_and_disk_across_modes() {
    let dir = temp_dir("modes");
    let mem = build_catalog(500);
    mem.persist(&dir).unwrap();
    let sql =
        "SELECT tag, COUNT(*), SUM(id) FROM probe WHERE flag = true GROUP BY tag ORDER BY tag";
    for mode in [ExecMode::Debug, ExecMode::Optimized, ExecMode::Simd] {
        let want = Session::new(mem.clone())
            .with_mode(mode)
            .query(sql)
            .run()
            .unwrap();
        let disk = Catalog::open(&dir).unwrap();
        let got = Session::new(disk).with_mode(mode).query(sql).run().unwrap();
        assert_eq!(want.rows, got.rows, "{mode:?}");
        assert!(
            got.store_logical_reads > 0,
            "{mode:?}: disk-backed scan must hit the real pool"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backed_tables_are_read_only() {
    let dir = temp_dir("readonly");
    build_catalog(10).persist(&dir).unwrap();
    let mut disk = Catalog::open(&dir).unwrap();
    let err = disk
        .table_mut("probe")
        .unwrap()
        .push_row(vec![
            Value::Int(999),
            Value::Float(1.0),
            Value::Str("x".into()),
            Value::Bool(false),
        ])
        .unwrap_err();
    assert!(matches!(err, DbError::Semantic(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_pool_forces_eviction_without_changing_answers() {
    let dir = temp_dir("evict");
    let mem = build_catalog(2000);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(128))
        .unwrap();
    let want = Session::new(mem)
        .query("SELECT SUM(id), COUNT(*) FROM probe")
        .run()
        .unwrap();
    for evict in Evict::all() {
        // ~4 KiB holds only a couple of 128-row chunks: every policy must
        // evict mid-query and still answer identically.
        let disk =
            Catalog::open_with(&dir, StoreConfig::default().pool_bytes(4096).evict(evict)).unwrap();
        let store = Arc::clone(disk.storage().unwrap());
        let got = Session::new(disk)
            .query("SELECT SUM(id), COUNT(*) FROM probe")
            .run()
            .unwrap();
        assert_eq!(want.rows, got.rows, "{evict:?}");
        let c = store.counters();
        assert!(c.evictions > 0, "{evict:?}: pool must have evicted");
        assert!(
            store.resident_bytes() <= 4096 || c.overcommits > 0,
            "{evict:?}: budget respected or overcommit counted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_hot_flush_counters_are_real() {
    let dir = temp_dir("coldhot");
    build_catalog(1000).persist(&dir).unwrap();
    let disk = Catalog::open(&dir).unwrap();
    let mut session = Session::new(disk);
    let sql = "SELECT SUM(v) FROM probe WHERE id >= 0";

    let tracer = perfeval_trace::Tracer::new();
    let cold = session.query(sql).traced(&tracer).run().unwrap();
    assert!(cold.store_physical_reads > 0, "cold run must touch disk");

    let hot = session.query(sql).traced(&tracer).run().unwrap();
    assert_eq!(hot.store_physical_reads, 0, "hot rerun must be all hits");
    assert!(hot.store_logical_reads > 0);
    assert_eq!(session.pool_hit_rate(), Some(1.0));

    // The execute and scan spans carry the same measured accounting.
    let trace = tracer.snapshot();
    let int_attr = |span: &perfeval_trace::SpanRecord, key: &str| match span.attr(key) {
        Some(perfeval_trace::AttrValue::Int(v)) => *v,
        other => panic!("{}: {key} = {other:?}", span.name),
    };
    for name in ["execute", "Scan probe"] {
        let spans: Vec<_> = trace.find(name).collect();
        assert_eq!(spans.len(), 2, "{name}: one span per run");
        assert!(int_attr(spans[0], "pool_misses") > 0, "{name}: cold misses");
        assert_eq!(int_attr(spans[1], "pool_misses"), 0, "{name}: hot does not");
        assert!(int_attr(spans[1], "pool_hits") > 0, "{name}: hot run hits");
    }

    session.flush_caches();
    let recold = session.query(sql).run().unwrap();
    assert!(
        recold.store_physical_reads > 0,
        "flush_caches must produce a genuine cold run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_read_fault_surfaces_as_io_error_and_session_survives() {
    let dir = temp_dir("readfault");
    build_catalog(100).persist(&dir).unwrap();
    // Table ids follow sorted name order: aside=0, probe=1. Fault the
    // first chunk of probe's first column only.
    let probe_key = minidb::storage::read_fault_key((1, 0, 0));
    let faults = Arc::new(FaultRegistry::new(7).armed_always(
        "store.read",
        Trigger::Key(probe_key),
        FaultAction::FailIo,
    ));
    let disk = Catalog::open_with(&dir, StoreConfig::default().faults(faults)).unwrap();
    let mut session = Session::new(disk);
    let err = session
        .query("SELECT COUNT(*) FROM probe WHERE id > 1")
        .run()
        .unwrap_err();
    assert!(matches!(err, DbError::Io(_)), "{err}");
    // The session (and its pool) survive: an unfaulted table still answers.
    let ok = session.query("SELECT k FROM aside").run().unwrap();
    assert_eq!(ok.rows, vec![vec![Value::Int(42)]]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stray_files_are_quarantined_and_counted() {
    let dir = temp_dir("quarantine");
    build_catalog(10).persist(&dir).unwrap();
    std::fs::write(dir.join("probe").join("g9_c0_k0.seg"), b"stray").unwrap();
    std::fs::write(dir.join("probe").join("TABLE.manifest.tmp"), b"torn").unwrap();
    let disk = Catalog::open(&dir).unwrap();
    let q = disk.storage().unwrap().quarantined();
    assert_eq!(q.len(), 2, "{q:?}");
    assert!(q.iter().any(|f| f.contains("g9_c0_k0.seg")));
    // Quarantined, not deleted: the bytes are preserved for forensics.
    assert!(dir.join("quarantine").join("probe__g9_c0_k0.seg").exists());
    // Reopening after quarantine is clean.
    let again = Catalog::open(&dir).unwrap();
    assert!(again.storage().unwrap().quarantined().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
