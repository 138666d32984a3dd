//! The storage acceptance battery: all 22 family queries must be
//! bit-identical between the in-memory catalog and the same catalog
//! persisted and reopened from disk — at DBG / OPT / SIMD × 1 and 8
//! threads, and again under a pool budget small enough to force
//! eviction mid-query, and again with every table cut into many ragged
//! chunks so each sweep runs chunk-at-a-time. If persistence changed a single bit, every
//! hot-vs-cold comparison on top of it would be apples and oranges.

use minidb::{Catalog, ExecMode, StoreConfig, Value};
use perfeval_bench::catalog_at;
use std::path::PathBuf;
use workload::queries;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store_family_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(catalog: Catalog, mode: ExecMode, threads: usize, sql: &str) -> Vec<Vec<Value>> {
    minidb::Session::new(catalog)
        .with_mode(mode)
        .with_parallelism(threads)
        .query(sql)
        .run()
        .unwrap()
        .rows
}

#[test]
fn family_queries_bit_identical_memory_vs_disk() {
    let mem = catalog_at(0.001);
    let dir = temp_dir("full");
    mem.persist(&dir).unwrap();
    for (qi, sql) in queries::all_family().iter().enumerate() {
        for mode in [ExecMode::Debug, ExecMode::Optimized, ExecMode::Simd] {
            for threads in [1usize, 8] {
                let want = run(mem.clone(), mode, threads, sql);
                let disk = Catalog::open(&dir).unwrap();
                let got = run(disk, mode, threads, sql);
                assert!(
                    rows_bit_equal(&want, &got),
                    "Q{} diverged on disk under {mode} ({threads} threads)",
                    qi + 1
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn family_queries_bit_identical_under_forced_eviction() {
    let mem = catalog_at(0.001);
    let dir = temp_dir("evict");
    // Small chunks + an 8 KiB pool: multi-chunk scans must evict their
    // own head mid-assembly.
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(256))
        .unwrap();
    let mut evicted = false;
    for (qi, sql) in queries::all_family().iter().enumerate() {
        let want = run(mem.clone(), ExecMode::Optimized, 8, sql);
        let disk = Catalog::open_with(&dir, StoreConfig::default().pool_bytes(8 * 1024)).unwrap();
        let store = std::sync::Arc::clone(disk.storage().unwrap());
        let got = run(disk, ExecMode::Optimized, 8, sql);
        assert!(
            rows_bit_equal(&want, &got),
            "Q{} diverged under forced eviction",
            qi + 1
        );
        evicted |= store.counters().evictions > 0;
    }
    assert!(evicted, "an 8 KiB pool must evict on at least one query");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chunk-at-a-time: 97-row chunks cut every table but the smallest into
/// many units with a ragged tail, so each `Filter`/`Project`/`Aggregate`
/// over a scan fetches its input one pooled chunk per unit. Answers must
/// not move, by bits, for either kernel tier at 1, 2 or 8 threads, on a
/// pool that fits and on one that holds a handful of chunks.
#[test]
fn family_queries_bit_identical_chunk_at_a_time() {
    let mem = catalog_at(0.001);
    let dir = temp_dir("chunked");
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(97))
        .unwrap();
    let oracle: Vec<_> = queries::all_family()
        .iter()
        .map(|sql| run(mem.clone(), ExecMode::Debug, 1, sql))
        .collect();
    for pool_bytes in [4 * 1024, minidb::storage::DEFAULT_POOL_BYTES] {
        let disk = Catalog::open_with(&dir, StoreConfig::default().pool_bytes(pool_bytes)).unwrap();
        for (qi, (sql, want)) in queries::all_family().iter().zip(&oracle).enumerate() {
            for mode in [ExecMode::Optimized, ExecMode::Simd] {
                for threads in [1usize, 2, 8] {
                    let got = run(disk.clone(), mode, threads, sql);
                    assert!(
                        rows_bit_equal(want, &got),
                        "Q{} diverged chunk-at-a-time under {mode} ({threads} threads, \
                         {pool_bytes} B pool)",
                        qi + 1
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
