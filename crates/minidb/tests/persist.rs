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

/// An integer attribute of a recorded span.
fn int_attr(span: &perfeval_trace::SpanRecord, key: &str) -> i64 {
    match span.attr(key) {
        Some(perfeval_trace::AttrValue::Int(v)) => *v,
        other => panic!("{}: {key} = {other:?}", span.name),
    }
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

// ---------------------------------------------------------------------
// Chunk-at-a-time sweeps: a Filter/Project/Aggregate over a multi-chunk
// backed table reads one chunk per unit. Answers, pool counters and span
// accounting must not depend on chunk size, morsel size, thread count,
// pool budget or eviction policy.
// ---------------------------------------------------------------------

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

/// `fact` (`rows` rows: floats whose sums depend on addition order, a
/// low-cardinality string whose first-seen order differs chunk to chunk),
/// `dim` (a join partner a third its size) and `empty`.
fn sweep_catalog(rows: i64) -> Catalog {
    let mut catalog = Catalog::new();
    let mut fact = TableBuilder::new("fact")
        .column("id", minidb::DataType::Int)
        .column("x", minidb::DataType::Float)
        .column("tag", minidb::DataType::Str)
        .column("flag", minidb::DataType::Bool)
        .build();
    for i in 0..rows {
        let x = match i % 11 {
            0 => -0.0,
            1 => 1e16,
            2 => -1e16,
            _ => (i as f64) * 0.1 + 1e-9 * (i % 13) as f64,
        };
        fact.push_row(vec![
            Value::Int(i),
            Value::Float(x),
            Value::Str(format!("tag{}", (i * 7 + i / 5) % 9)),
            Value::Bool(i % 3 != 0),
        ])
        .unwrap();
    }
    catalog.register(fact).unwrap();
    let mut dim = TableBuilder::new("dim")
        .column("j", minidb::DataType::Int)
        .column("w", minidb::DataType::Float)
        .build();
    for j in 0..rows / 3 {
        dim.push_row(vec![Value::Int(j * 2), Value::Float(j as f64 * 0.25)])
            .unwrap();
    }
    catalog.register(dim).unwrap();
    let empty = TableBuilder::new("empty")
        .column("k", minidb::DataType::Int)
        .column("s", minidb::DataType::Str)
        .build();
    catalog.register(empty).unwrap();
    catalog
}

/// The statement shapes a chunked sweep must get right: every way a
/// `Scan` can sit under (or beside) the sweeping operators.
const SWEEP_SQL: [&str; 12] = [
    // Filter-only select returning a string column: per-chunk
    // dictionaries are stitched back together.
    "SELECT id, tag FROM fact WHERE flag = true",
    "SELECT tag FROM fact WHERE id >= 0",
    // Aggregate directly over the scan (no chain), global and grouped.
    "SELECT COUNT(*), SUM(x), AVG(x), MIN(id), MAX(id) FROM fact",
    "SELECT tag, COUNT(*), SUM(id) FROM fact GROUP BY tag ORDER BY tag",
    // Grouped float SUM/AVG under a filter: addition order is visible.
    "SELECT tag, flag, SUM(x), AVG(x) FROM fact WHERE id > 3 GROUP BY tag, flag ORDER BY tag, flag",
    // Filter above a join; a bare-scan join side.
    "SELECT id, w FROM fact JOIN dim ON id = j WHERE x > w",
    "SELECT id, w FROM fact JOIN dim ON id = j",
    // ORDER BY ... LIMIT over a bare scan (`*`: no Project between) and
    // over a projecting one; DISTINCT.
    "SELECT * FROM fact ORDER BY id DESC LIMIT 5",
    "SELECT id, tag FROM fact ORDER BY id DESC LIMIT 5",
    "SELECT DISTINCT tag FROM fact",
    // An empty table.
    "SELECT COUNT(*), SUM(k) FROM empty",
    "SELECT k, s FROM empty WHERE k > 0",
];

#[test]
fn chunked_sweeps_match_the_oracle_by_bits() {
    // Small chunks over a small table, big chunks over a bigger one: both
    // reach ragged last chunks, one-row chunks, exactly-one-chunk and
    // chunk-larger-than-table geometries.
    let geometries: [(i64, &[usize]); 2] = [(300, &[1, 7]), (9000, &[1000, 4097, 9000, 9001])];
    for (rows, chunk_sizes) in geometries {
        let mem = sweep_catalog(rows);
        let oracle: Vec<Vec<Vec<Value>>> = SWEEP_SQL
            .iter()
            .map(|sql| {
                let mut s = Session::new(mem.clone()).with_mode(ExecMode::Debug);
                s.query(sql).run().unwrap().rows
            })
            .collect();
        for &chunk_rows in chunk_sizes {
            let dir = temp_dir(&format!("sweep_{rows}_{chunk_rows}"));
            mem.persist_with(&dir, &StoreConfig::default().chunk_rows(chunk_rows))
                .unwrap();
            // One Int chunk's bytes: every scan evicts as it goes.
            let one_chunk = 8 * chunk_rows.min(rows as usize) as u64;
            for pool_bytes in [one_chunk, minidb::storage::DEFAULT_POOL_BYTES] {
                for evict in Evict::all() {
                    let config = StoreConfig::default().pool_bytes(pool_bytes).evict(evict);
                    let disk = Catalog::open_with(&dir, config).unwrap();
                    for threads in [1usize, 2, 8] {
                        for morsel in [1usize, 64, 16_384] {
                            let mut s = Session::new(disk.clone())
                                .with_parallelism(threads)
                                .with_morsel_rows(morsel);
                            for (sql, want) in SWEEP_SQL.iter().zip(&oracle) {
                                let got = s.query(sql).run().unwrap();
                                assert!(
                                    rows_bit_equal(want, &got.rows),
                                    "{sql}: rows={rows} chunk={chunk_rows} pool={pool_bytes} \
                                     {evict:?} threads={threads} morsel={morsel}"
                                );
                            }
                        }
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// SIMD kernels over chunk batches, and the profile: a chunked sweep tells
/// the same operator story (labels, depths, row counts) as the in-memory
/// run of the same statement.
#[test]
fn chunked_sweeps_keep_simd_answers_and_the_profile_shape() {
    let mem = sweep_catalog(2000);
    let dir = temp_dir("sweep_profile");
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(300))
        .unwrap();
    let disk = Catalog::open(&dir).unwrap();
    let shape = |profile: &[minidb::exec::ProfileEntry]| -> Vec<(String, usize, usize)> {
        profile
            .iter()
            .map(|e| (e.op.clone(), e.depth, e.rows_out))
            .collect()
    };
    for sql in SWEEP_SQL {
        let want = Session::new(mem.clone()).query(sql).run().unwrap();
        for mode in [ExecMode::Optimized, ExecMode::Simd] {
            for threads in [1usize, 4] {
                let got = Session::new(disk.clone())
                    .with_mode(mode)
                    .with_parallelism(threads)
                    .with_morsel_rows(128)
                    .query(sql)
                    .run()
                    .unwrap();
                assert!(rows_bit_equal(&want.rows, &got.rows), "{sql} {mode:?}");
                assert_eq!(
                    shape(&want.profile),
                    shape(&got.profile),
                    "{sql} {mode:?} threads={threads}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A statement's pool counters are those of a one-thread scan whatever the
/// schedule: units take their turn at the pool in chunk order. On a pool of
/// four chunks, 50 repetitions of one statement move the counters through
/// exactly the same sequence at 1, 2 and 8 threads, and every `(column,
/// chunk)` is looked up exactly once per scan.
#[test]
fn pool_counters_are_schedule_independent() {
    let dir = temp_dir("sweep_counters");
    let rows = 4000usize;
    let chunk_rows = 250usize;
    sweep_catalog(rows as i64)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(chunk_rows))
        .unwrap();
    let chunks = rows.div_ceil(chunk_rows) as u64;
    // (statement, projected columns of `fact`)
    let statements = [
        ("SELECT SUM(x) FROM fact WHERE id >= 0", 2u64),
        (
            "SELECT tag, COUNT(*) FROM fact WHERE flag = true GROUP BY tag",
            2,
        ),
        ("SELECT id, x, tag FROM fact WHERE id > 100", 3),
    ];
    for (sql, projected) in statements {
        let mut sequences = Vec::new();
        for threads in [1usize, 2, 8] {
            for morsel in [64usize, 16_384] {
                let config = StoreConfig::default().pool_bytes(4 * 8 * chunk_rows as u64);
                let disk = Catalog::open_with(&dir, config).unwrap();
                let store = Arc::clone(disk.storage().unwrap());
                let mut s = Session::new(disk)
                    .with_parallelism(threads)
                    .with_morsel_rows(morsel);
                let mut deltas = Vec::new();
                for _ in 0..50 {
                    let before = store.counters();
                    s.query(sql).run().unwrap();
                    let d = store.counters().since(&before);
                    assert_eq!(
                        d.logical_reads,
                        chunks * projected,
                        "{sql}: one lookup per (column, chunk), threads={threads}"
                    );
                    deltas.push(d);
                }
                sequences.push((threads, morsel, deltas));
            }
        }
        let (_, _, want) = &sequences[0];
        assert!(want.iter().any(|d| d.evictions > 0), "{sql}: pool too big");
        for (threads, morsel, got) in &sequences {
            assert_eq!(want, got, "{sql}: threads={threads} morsel={morsel}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected `store.read` failure in the middle of a chunked sweep, at
/// any thread count: a typed I/O error, no unit left waiting for its turn
/// at the pool, and the session (and its pool) keep answering.
#[test]
fn read_fault_mid_sweep_is_typed_and_nobody_waits() {
    let dir = temp_dir("sweep_fault");
    let mem = sweep_catalog(900);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(100))
        .unwrap();
    // Table ids follow sorted name order: dim=0, empty=1, fact=2.
    for (column, chunk) in [(0u32, 0u32), (1, 4), (0, 8)] {
        for threads in [1usize, 2, 8] {
            let faults = Arc::new(FaultRegistry::new(7).armed_always(
                "store.read",
                Trigger::Key(minidb::storage::read_fault_key((2, column, chunk))),
                FaultAction::FailIo,
            ));
            let disk = Catalog::open_with(&dir, StoreConfig::default().faults(faults)).unwrap();
            let mut session = Session::new(disk).with_parallelism(threads);
            for sql in [
                "SELECT SUM(x) FROM fact WHERE id >= 0",
                "SELECT id, x FROM fact WHERE id > 5",
            ] {
                let err = session.query(sql).run().unwrap_err();
                assert!(
                    matches!(err, DbError::Io(_)),
                    "{sql} threads={threads}: {err}"
                );
            }
            let ok = session.query("SELECT COUNT(*) FROM dim WHERE j >= 0").run();
            assert_eq!(ok.unwrap().rows, vec![vec![Value::Int(300)]]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Panic` arm at `store.read` — a crashing reader — costs the statement
/// that hit it and nothing else: the panic reaches the caller (who contains
/// it, as a server does), every unit still takes and passes its turn at any
/// thread count, and the next statements on the same session, catalog and
/// pool — sweeps over the same table that do not touch the armed column —
/// answer by bits.
#[test]
fn a_panicking_reader_costs_one_statement_and_nobody_waits() {
    let dir = temp_dir("sweep_panic");
    let mem = sweep_catalog(900);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(100))
        .unwrap();
    // Statements that read `fact.x` (column 1), chunk by chunk and whole.
    let armed = [
        "SELECT SUM(x) FROM fact WHERE id >= 0",
        "SELECT id, x FROM fact WHERE id > 5",
        "SELECT id, x FROM fact ORDER BY id DESC LIMIT 3",
    ];
    let spared = [
        "SELECT tag, COUNT(*), SUM(id) FROM fact WHERE flag = true GROUP BY tag ORDER BY tag",
        "SELECT id, tag FROM fact WHERE id > 5",
    ];
    let oracle: Vec<_> = spared
        .iter()
        .map(|sql| Session::new(mem.clone()).query(sql).run().unwrap().rows)
        .collect();
    // Table ids follow sorted name order: dim=0, empty=1, fact=2.
    for chunk in [0u32, 4, 8] {
        for threads in [1usize, 2, 8] {
            let key = minidb::storage::read_fault_key((2, 1, chunk));
            let faults = Arc::new(FaultRegistry::new(7).armed_always(
                "store.read",
                Trigger::Key(key),
                FaultAction::Panic,
            ));
            // A pool of three chunks: evictions go on around the panics.
            let config = StoreConfig::default()
                .pool_bytes(3 * 8 * 100)
                .faults(Arc::clone(&faults));
            let disk = Catalog::open_with(&dir, config).unwrap();
            let store = Arc::clone(disk.storage().unwrap());
            let (done, finished) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let mut session = Session::new(disk).with_parallelism(threads);
                let mut answers = Vec::new();
                for (a, b) in armed.iter().zip(spared.iter().cycle()) {
                    let run = std::panic::AssertUnwindSafe(|| session.query(a).run());
                    let payload = std::panic::catch_unwind(run).expect_err("armed chunk");
                    let message = perfeval_fault::panic_message(payload.as_ref());
                    answers.push((message, session.query(b).run().unwrap().rows));
                }
                done.send(answers).unwrap();
            });
            // A unit left waiting for its turn would hang its sweep forever.
            let answers = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("threads={threads}: a sweep never finished"));
            worker.join().unwrap();
            for ((message, rows), want) in answers.iter().zip(oracle.iter().cycle()) {
                assert!(
                    message.contains(&format!("store.read (key {key}")),
                    "threads={threads}: {message}"
                );
                assert!(
                    rows_bit_equal(want, rows),
                    "threads={threads} chunk={chunk}"
                );
            }
            assert_eq!(faults.fired("store.read"), armed.len() as u64);
            let c = store.counters();
            assert!(
                c.evictions > 0 && c.physical_reads <= c.logical_reads,
                "{c:?}"
            );
            assert!(store.resident_bytes() <= store.capacity_bytes());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation is polled at every unit of a chunked sweep: a token raised
/// while the scan is under way stops it after a handful of chunks, not
/// after the table, and the session survives.
#[test]
fn cancellation_stops_a_chunked_sweep_between_units() {
    let dir = temp_dir("sweep_cancel");
    let rows = 20_000usize;
    sweep_catalog(rows as i64)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(10))
        .unwrap();
    let total_reads = 2 * rows.div_ceil(10) as u64;
    for threads in [1usize, 4] {
        let disk = Catalog::open(&dir).unwrap();
        let store = Arc::clone(disk.storage().unwrap());
        let mut session = Session::new(disk).with_parallelism(threads);
        let token = minidb::CancelToken::new();
        let canceller = {
            let (store, token) = (Arc::clone(&store), token.clone());
            std::thread::spawn(move || {
                while store.counters().logical_reads < 16 {
                    std::hint::spin_loop();
                }
                token.cancel();
            })
        };
        let err = session
            .query("SELECT SUM(x) FROM fact WHERE id >= 0")
            .cancel(token)
            .run()
            .unwrap_err();
        canceller.join().unwrap();
        assert!(
            matches!(err, DbError::Cancelled(_)),
            "threads={threads}: {err}"
        );
        let reads = store.counters().logical_reads;
        assert!(
            (16..total_reads).contains(&reads),
            "threads={threads}: {reads} of {total_reads} reads before the sweep stopped"
        );
        // A deadline that has already passed never reaches the pool.
        let before = store.counters();
        let err = session
            .query("SELECT SUM(x) FROM fact WHERE id >= 0")
            .cancel(minidb::CancelToken::with_deadline_ms(0.0))
            .run()
            .unwrap_err();
        assert!(matches!(err, DbError::Cancelled(_)), "{err}");
        assert_eq!(store.counters().since(&before).logical_reads, 0);
        let ok = session.query("SELECT COUNT(*) FROM dim WHERE j >= 0").run();
        assert_eq!(ok.unwrap().rows.len(), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Scan` span reports the scan's own pool accesses: two sessions
/// scanning different tables of one catalog (one shared pool) at the same
/// time are each charged exactly their own chunks, under a sweep and under
/// a whole-column materialization alike.
#[test]
fn concurrent_scans_report_only_their_own_chunks() {
    let dir = temp_dir("sweep_spans");
    sweep_catalog(3000)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(100))
        .unwrap();
    let disk = Catalog::open(&dir).unwrap();
    // (table, chunks, statement, projected columns)
    let scans = [
        ("fact", 30, "SELECT SUM(x) FROM fact WHERE id >= 0", 2),
        ("dim", 10, "SELECT j, w FROM dim ORDER BY j LIMIT 3", 2),
    ];
    std::thread::scope(|scope| {
        for (table, chunks, sql, projected) in scans {
            let catalog = disk.clone();
            scope.spawn(move || {
                let mut session = Session::new(catalog).with_parallelism(2);
                for _ in 0..40 {
                    let tracer = perfeval_trace::Tracer::new();
                    session.query(sql).traced(&tracer).run().unwrap();
                    let trace = tracer.snapshot();
                    let name = format!("Scan {table}");
                    let spans: Vec<_> = trace.find(&name).collect();
                    assert_eq!(spans.len(), 1, "{sql}");
                    assert_eq!(int_attr(spans[0], "chunks"), chunks, "{sql}");
                    assert_eq!(
                        int_attr(spans[0], "pool_hits") + int_attr(spans[0], "pool_misses"),
                        chunks * projected,
                        "{sql}: a scan is charged its own reads only"
                    );
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every segment that was really read is a physical read, admitted or not.
/// Two sessions scan the same cold four-chunk table at once on a slow disk,
/// so both peek before either admits and one of them reads chunks the other
/// gets to admit first: those values are dropped, and still counted — by
/// the pool (`physical_reads` = `store.read` site firings) and on the
/// scans' own spans (`pool_misses`, of which `discarded`).
#[test]
fn discarded_reads_are_still_physical_reads() {
    let dir = temp_dir("sweep_discard");
    let mem = sweep_catalog(400);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(100))
        .unwrap();
    let sql = "SELECT tag, SUM(x) FROM fact WHERE id >= 0 GROUP BY tag ORDER BY tag";
    let want = Session::new(mem).query(sql).run().unwrap().rows;
    let faults = Arc::new(FaultRegistry::new(1).armed_always(
        "store.read",
        Trigger::Always,
        FaultAction::DelayMs(2.0),
    ));
    let config = StoreConfig::default().faults(Arc::clone(&faults));
    let disk = Catalog::open_with(&dir, config).unwrap();
    let store = Arc::clone(disk.storage().unwrap());
    let mut discarded = 0;
    for round in 0..20 {
        store.drop_caches();
        let (before, fired) = (store.counters(), faults.fired("store.read"));
        let start = std::sync::Barrier::new(2);
        let scans: Vec<[u64; 3]> = std::thread::scope(|scope| {
            let scan = || {
                let mut session = Session::new(disk.clone()).with_parallelism(2);
                let tracer = perfeval_trace::Tracer::new();
                start.wait();
                let got = session.query(sql).traced(&tracer).run().unwrap();
                assert!(rows_bit_equal(&want, &got.rows), "round {round}");
                let trace = tracer.snapshot();
                let span = trace.find("Scan fact").next().expect("scan span");
                ["pool_hits", "pool_misses", "discarded"].map(|key| int_attr(span, key) as u64)
            };
            let handles = [scope.spawn(scan), scope.spawn(scan)];
            handles.map(|h| h.join().unwrap()).to_vec()
        });
        let d = store.counters().since(&before);
        // Three projected columns x four chunks, per scan.
        assert_eq!(d.logical_reads, 24);
        assert_eq!(
            d.physical_reads,
            faults.fired("store.read") - fired,
            "round {round}: every read made is counted, {scans:?}"
        );
        assert_eq!(
            scans.iter().map(|s| s[1]).sum::<u64>(),
            d.physical_reads,
            "round {round}: the scans' own misses are the pool's reads"
        );
        for [hits, misses, dropped] in &scans {
            assert_eq!(hits + misses, 12, "round {round}");
            assert!(dropped <= misses);
        }
        // Each chunk is admitted once; what was read beyond was dropped.
        assert_eq!(
            scans.iter().map(|s| s[2]).sum::<u64>(),
            d.physical_reads - 12,
            "round {round}: {scans:?}"
        );
        discarded += d.physical_reads - 12;
    }
    assert!(discarded > 0, "two cold scans at once never raced");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold sweep overlaps its reads across workers: on a disk that takes 5 ms
/// per segment (a `DelayMs` arm — a sleep, so the test does not depend on
/// how many CPUs it gets) two threads finish a twelve-chunk table in well
/// under the time one thread takes, with the same answer and the same pool
/// counters. Fails with the reads made under the turn.
#[test]
fn cold_reads_of_different_chunks_overlap_across_workers() {
    let dir = temp_dir("sweep_overlap");
    let mem = sweep_catalog(1200);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(100))
        .unwrap();
    let sql = "SELECT SUM(x), COUNT(*) FROM fact WHERE id >= 0";
    let want = Session::new(mem).query(sql).run().unwrap().rows;
    let faults = Arc::new(FaultRegistry::new(1).armed_always(
        "store.read",
        Trigger::Always,
        FaultAction::DelayMs(5.0),
    ));
    // A one-chunk pool: every one of the 2 x 12 lookups is a read.
    let config = StoreConfig::default().pool_bytes(8 * 100).faults(faults);
    let disk = Catalog::open_with(&dir, config).unwrap();
    let store = Arc::clone(disk.storage().unwrap());
    let sweep = |threads: usize| {
        let mut session = Session::new(disk.clone()).with_parallelism(threads);
        store.drop_caches();
        let before = store.counters();
        let t0 = std::time::Instant::now();
        let got = session.query(sql).run().unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert!(rows_bit_equal(&want, &got.rows), "threads={threads}");
        (secs, store.counters().since(&before))
    };
    // Best of three per arm: a stalled runner lengthens a sweep, never
    // shortens one.
    let best = |threads| {
        let runs: Vec<_> = (0..3).map(|_| sweep(threads)).collect();
        assert!(runs.iter().all(|r| r.1 == runs[0].1), "threads={threads}");
        let secs = runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        (secs, runs[0].1)
    };
    let (one, counters_one) = best(1);
    let (two, counters_two) = best(2);
    assert_eq!(counters_one, counters_two);
    assert_eq!(counters_one.physical_reads, 24, "{counters_one:?}");
    assert!(
        one >= 0.120,
        "24 reads x 5 ms on one thread took {one:.3} s"
    );
    assert!(
        two <= 0.7 * one,
        "two threads took {two:.3} s, one took {one:.3} s: reads did not overlap"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced chunk unit shows whether it waited on the disk or on its
/// neighbours: a `read` span (before the turn: how many of its columns it
/// read ahead) and a `turn` span (the wait plus the pool lookups), in that
/// order, under each `chunk N` span — worker 0's on the calling thread's
/// lane, nested under the `Scan` span.
#[test]
fn chunk_units_split_their_fetch_into_read_and_turn() {
    let dir = temp_dir("sweep_read_turn");
    sweep_catalog(800)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(100))
        .unwrap();
    let disk = Catalog::open(&dir).unwrap();
    let mut session = Session::new(disk).with_parallelism(2);
    for ahead in [2i64, 0] {
        let tracer = perfeval_trace::Tracer::new();
        session
            .query("SELECT SUM(x) FROM fact WHERE id >= 0")
            .traced(&tracer)
            .run()
            .unwrap();
        let trace = tracer.snapshot();
        let scan = trace.find("Scan fact").next().expect("scan span").clone();
        let mut units = 0;
        for lane in &trace.lanes {
            let callers = lane.records.iter().any(|r| r.id == scan.id);
            for unit in lane.records.iter().filter(|r| r.name.starts_with("chunk ")) {
                units += 1;
                if callers {
                    assert_eq!(unit.parent, Some(scan.id), "{} nests", unit.name);
                } else {
                    assert_eq!(lane.label, "worker-1", "{}", unit.name);
                }
                let child = |name: &str| {
                    let mut found = (lane.records.iter())
                        .filter(|r| r.parent == Some(unit.id) && r.name == name);
                    let span = found
                        .next()
                        .unwrap_or_else(|| panic!("{}: {name}", unit.name));
                    assert!(found.next().is_none(), "{}: one {name} span", unit.name);
                    span
                };
                let (read, turn) = (child("read"), child("turn"));
                assert!(
                    read.end_ns <= turn.start_ns,
                    "{}: read, then turn",
                    unit.name
                );
                assert_eq!(read.attr("columns"), Some(&2i64.into()));
                // Cold: both columns read ahead. Warm: nothing to read.
                assert_eq!(read.attr("ahead"), Some(&ahead.into()), "{}", unit.name);
            }
        }
        assert_eq!(units, 8);
        assert_eq!(trace.find("fetch").count(), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The operator's span says whether the borrowed worker paid:
/// `units_by_worker` is what each worker's lane shows, worker 0 first. One
/// thread borrows nothing and says nothing.
#[test]
fn the_operators_span_counts_each_workers_units() {
    let dir = temp_dir("sweep_units_by_worker");
    sweep_catalog(800)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(100))
        .unwrap();
    let disk = Catalog::open(&dir).unwrap();
    for threads in [1, 2] {
        let mut session = Session::new(disk.clone()).with_parallelism(threads);
        let tracer = perfeval_trace::Tracer::new();
        session
            .query("SELECT SUM(x) FROM fact WHERE id >= 0")
            .traced(&tracer)
            .run()
            .unwrap();
        let trace = tracer.snapshot();
        let said: Vec<_> = (trace.lanes.iter().flat_map(|l| &l.records))
            .filter_map(|r| r.attr("units_by_worker"))
            .collect();
        if threads == 1 {
            assert!(said.is_empty(), "{said:?}");
            continue;
        }
        let on_lane = |label: &str| {
            let lane = trace.lanes.iter().find(|l| l.label == label);
            lane.map_or(0, |l| {
                (l.records.iter().filter(|r| r.name.starts_with("chunk "))).count()
            })
        };
        let caller = trace.lanes[0].label.clone();
        let expect = format!("{},{}", on_lane(&caller), on_lane("worker-1"));
        assert_eq!(said, [&expect.as_str().into()], "one sweep, one attribute");
        assert_eq!(on_lane(&caller) + on_lane("worker-1"), 8);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites a committed manifest's body with a consistent checksum, the
/// way a buggy writer (not a torn write) would leave it.
fn edit_manifest(table_dir: &std::path::Path, edit: fn(&str) -> String) {
    let path = table_dir.join("TABLE.manifest");
    let text = std::fs::read_to_string(&path).unwrap();
    let body = &text[..text.rfind("checksum ").unwrap()];
    let body = edit(body);
    let sum = perfeval_store::fnv1a64(body.as_bytes());
    std::fs::write(&path, format!("{body}checksum {sum:016x}\n")).unwrap();
}

/// The manifest's geometry is what a sweep cuts units from, so a manifest
/// that does not tile its table, or a segment that does not hold the rows
/// the manifest says, is refused with a typed error — never a panic, an
/// out-of-bounds index or silently dropped rows.
#[test]
fn untiled_manifests_and_short_segments_are_refused() {
    let mem = sweep_catalog(300);
    let config = StoreConfig::default().chunk_rows(7);
    type Edit = fn(&str) -> String;
    let edits: [(&str, Edit); 4] = [
        ("rows beyond the chunks", |b| {
            b.replace("rows 300\n", "rows 301\n")
        }),
        ("zero chunk_rows", |b| {
            b.replace("chunk_rows 7\n", "chunk_rows 0\n")
        }),
        ("fewer chunks than slots", |b| {
            b.replace("chunk_rows 7\n", "chunk_rows 6\n")
        }),
        ("a chunk that is not its slot's length", |b| {
            b.replacen("seg 7 ", "seg 8 ", 1)
        }),
    ];
    for (what, edit) in edits {
        let dir = temp_dir("untiled");
        mem.persist_with(&dir, &config).unwrap();
        edit_manifest(&dir.join("fact"), edit);
        match Catalog::open(&dir) {
            Err(DbError::Io(msg)) => assert!(msg.contains("does not tile"), "{what}: {msg}"),
            other => panic!("{what}: expected a typed refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The ragged last chunk's file (6 rows) in a full slot (7 rows): the
    // manifest still tiles, the physical read does not deliver.
    let dir = temp_dir("short_segment");
    mem.persist_with(&dir, &config).unwrap();
    let fact = dir.join("fact");
    std::fs::copy(fact.join("g1_c0_k42.seg"), fact.join("g1_c0_k3.seg")).unwrap();
    let mut session = Session::new(Catalog::open(&dir).unwrap());
    for sql in [
        "SELECT SUM(id) FROM fact WHERE id >= 0",
        "SELECT id FROM fact ORDER BY id LIMIT 1",
    ] {
        let err = session.query(sql).run().unwrap_err();
        assert!(
            matches!(&err, DbError::Io(m) if m.contains("manifest says 7")),
            "{err}"
        );
    }
    let ok = session.query("SELECT COUNT(*) FROM dim WHERE j >= 0").run();
    assert_eq!(ok.unwrap().rows, vec![vec![Value::Int(100)]]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seals `bytes` the way the segment writer does: bytes 24..32 become the
/// checksum of whatever the header and the payload now say.
fn reseal(bytes: &mut [u8]) {
    let (header, payload) = bytes.split_at(32);
    let sum = perfeval_store::segment_checksum(header[..24].try_into().unwrap(), payload);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// A segment's type tag is under its checksum, so a flipped tag is corrupt;
/// but `I64` and `F64` share the Plain layout, and a writer that seals the
/// wrong tag leaves a file that decodes — to a column of the wrong type. It
/// is refused against the manifest like a segment of the wrong length, in
/// every tier, and never reaches the pool.
#[test]
fn a_segment_of_the_wrong_type_is_refused_and_never_admitted() {
    let dir = temp_dir("wrong_type");
    build_catalog(100)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(25))
        .unwrap();
    // Chunk 1 of 4 of `probe.id`, ids 25..50. The writer stores them as FOR,
    // which no float shares; they are rewritten as the Plain segment of the
    // same ids, which the format reads alike.
    let seg = dir.join("probe").join("g1_c0_k1.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    assert_eq!(bytes[6..8], [0, 3], "an I64 FOR segment");
    let ids: Vec<u8> = (25..50_i64).flat_map(i64::to_le_bytes).collect();
    bytes[7] = 0;
    bytes.truncate(32);
    bytes[16..24].copy_from_slice(&(ids.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&ids);
    reseal(&mut bytes);
    std::fs::write(&seg, &bytes).unwrap();
    let plain = perfeval_store::read_segment(&seg, None, 0).unwrap();
    assert_eq!(plain, perfeval_store::ColumnData::I64((25..50).collect()));
    bytes[6] ^= 1;
    std::fs::write(&seg, &bytes).unwrap();
    assert!(matches!(
        perfeval_store::read_segment(&seg, None, 0),
        Err(perfeval_store::StoreError::Corrupt(_))
    ));
    reseal(&mut bytes);
    std::fs::write(&seg, &bytes).unwrap();
    let as_read = perfeval_store::read_segment(&seg, None, 0).expect("the decoder has no quarrel");
    assert_eq!(as_read.type_tag(), perfeval_store::TypeTag::F64);

    let disk = Catalog::open(&dir).unwrap();
    for mode in [ExecMode::Debug, ExecMode::Optimized, ExecMode::Simd] {
        let mut session = Session::new(disk.clone()).with_mode(mode);
        let storage = disk.storage().unwrap();
        for sql in [
            "SELECT SUM(id) FROM probe WHERE id >= 0",
            "SELECT id FROM probe ORDER BY id LIMIT 1",
        ] {
            let mut attempt = || {
                let err = session.query(sql).run().unwrap_err();
                assert!(
                    matches!(&err, DbError::Io(m) if m.contains("holds f64 values, manifest says i64")),
                    "{mode}: {sql}: {err}"
                );
                (storage.resident_bytes(), storage.counters().physical_reads)
            };
            // Whatever the first attempt admitted (the chunks before the
            // damaged one) the second finds resident; the refused chunk is
            // read from its file again, because it was never admitted.
            let (resident, reads) = attempt();
            let (resident_again, reads_again) = attempt();
            assert_eq!(resident_again, resident, "{mode}: {sql}");
            assert_eq!(reads_again, reads + 1, "{mode}: {sql}");
        }
        let ok = session.query("SELECT k FROM aside").run().unwrap();
        assert_eq!(ok.rows, vec![vec![Value::Int(42)]], "{mode}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persists the probe catalog, lets `age` rewrite one segment's bytes into
/// an older format, and runs a statement that reads it: the statement gets a
/// typed error naming `version`, and the session goes on.
fn an_old_segment_is_a_typed_error(name: &str, version: u16, age: impl Fn(&mut Vec<u8>)) {
    let dir = temp_dir(name);
    build_catalog(100)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(25))
        .unwrap();
    let seg = dir.join("probe").join("g1_c0_k1.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    age(&mut bytes);
    std::fs::write(&seg, &bytes).unwrap();

    let mut session = Session::new(Catalog::open(&dir).unwrap());
    let err = session
        .query("SELECT SUM(id) FROM probe WHERE id >= 0")
        .run()
        .unwrap_err();
    let named = format!("unsupported format version {version}");
    assert!(
        matches!(&err, DbError::Io(m) if m.contains(&named)),
        "{err}"
    );
    let ok = session.query("SELECT k FROM aside").run().unwrap();
    assert_eq!(ok.rows, vec![vec![Value::Int(42)]]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file of segment format version 1 (FNV-1a-64 of the payload alone at
/// bytes 24..32) under a manifest of today.
#[test]
fn a_version_1_segment_is_a_typed_error_and_the_session_survives() {
    an_old_segment_is_a_typed_error("version_1", 1, |bytes| {
        let sum = perfeval_store::fnv1a64(&bytes[32..]);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
    });
}

/// A file of segment format version 2 (today's header and checksum, 4-byte
/// codes, no FOR) under a manifest of today.
#[test]
fn a_version_2_segment_is_a_typed_error_and_the_session_survives() {
    an_old_segment_is_a_typed_error("version_2", 2, |bytes| {
        let header = bytes[..24].try_into().unwrap();
        let sum = perfeval_store::segment_checksum(header, &bytes[32..]);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
    });
}
