//! Criterion benchmarks, one per paper exhibit with a timing dimension:
//! E2 (hot vs cold), E3 (DBG vs OPT per query shape), E4 (memory wall by
//! machine), E1 (result sinks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memsim::scan::scan_cost;
use memsim::MachineSpec;
use minidb::{Catalog, ExecMode, FileSink, NullSink, Session, TerminalSink};
use perfeval_bench::catalog_at;
use workload::queries;

/// E2: the same Q6 executed cold (flush before every iteration) vs hot,
/// over a persisted-and-reopened catalog so the cold arm pays real
/// `pread`s (the measured protocol of E26), not a modeled wait.
fn bench_e2_hot_cold(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("exhibits_e2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    catalog_at(0.002).persist(&dir).expect("persist catalog");
    let sql = queries::q6();
    let mut group = c.benchmark_group("e2_hot_cold");
    group.sample_size(10);
    let mut hot = Session::new(Catalog::open(&dir).expect("reopen catalog"));
    hot.query(&sql).run().unwrap();
    group.bench_function("hot", |b| {
        b.iter(|| {
            let r = hot.query(&sql).run().unwrap();
            assert_eq!(r.store_physical_reads, 0, "hot arm stays in the pool");
            r.server_real_ms()
        })
    });
    let mut cold = Session::new(Catalog::open(&dir).expect("reopen catalog"));
    group.bench_function("cold", |b| {
        b.iter(|| {
            cold.flush_caches();
            let r = cold.query(&sql).run().unwrap();
            assert!(r.store_physical_reads > 0, "cold arm reads segments");
            r.server_real_ms()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// E3: DBG vs OPT on three representative query shapes.
fn bench_e3_dbg_opt(c: &mut Criterion) {
    let catalog = catalog_at(0.002);
    let mut group = c.benchmark_group("e3_dbg_opt");
    group.sample_size(10);
    for (name, sql) in [
        ("q1_scan_agg", queries::q1()),
        ("q6_selective", queries::q6()),
        ("q16_join_group", queries::q16()),
    ] {
        for mode in [ExecMode::Debug, ExecMode::Optimized] {
            let mut session = Session::new(catalog.clone()).with_mode(mode);
            session.query(&sql).run().unwrap();
            group.bench_with_input(BenchmarkId::new(name, mode), &sql, |b, sql| {
                b.iter(|| session.query(sql).run().unwrap().row_count())
            });
        }
    }
    group.finish();
}

/// E4: the memory-wall scan on each historical machine (simulation speed;
/// the simulated per-iteration costs are printed by `perfeval-exp e4`).
fn bench_e4_memory_wall(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_memory_wall_sim");
    group.sample_size(10);
    for machine in MachineSpec::memory_wall_lineup() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&machine.system),
            &machine,
            |b, m| b.iter(|| scan_cost(m, 50_000, 128).total_ns_per_iter()),
        );
    }
    group.finish();
}

/// E1: where the result goes — null vs file vs terminal sink on the
/// large-result query.
fn bench_e1_sinks(c: &mut Criterion) {
    let catalog = catalog_at(0.002);
    let sql = queries::q16();
    let mut session = Session::new(catalog);
    session.query(&sql).run().unwrap();
    let mut group = c.benchmark_group("e1_sinks");
    group.sample_size(10);
    group.bench_function("null", |b| {
        b.iter(|| {
            session
                .query(&sql)
                .sink(&mut NullSink)
                .run()
                .unwrap()
                .result_bytes
        })
    });
    let tmp = std::env::temp_dir().join("perfeval_bench_sink.tsv");
    group.bench_function("file", |b| {
        b.iter(|| {
            let mut sink = FileSink::new(&tmp);
            session
                .query(&sql)
                .sink(&mut sink)
                .run()
                .unwrap()
                .result_bytes
        })
    });
    group.bench_function("terminal", |b| {
        b.iter(|| {
            let mut sink = TerminalSink::new();
            session
                .query(&sql)
                .sink(&mut sink)
                .run()
                .unwrap()
                .result_bytes
        })
    });
    std::fs::remove_file(&tmp).ok();
    group.finish();
}

criterion_group!(
    benches,
    bench_e2_hot_cold,
    bench_e3_dbg_opt,
    bench_e4_memory_wall,
    bench_e1_sinks
);
criterion_main!(benches);
