//! Criterion benchmarks of the SIMD kernel tier, measured end-to-end
//! through the engine: each pinned statement of `perfeval_bench::suite`
//! swept across all three engines (DBG / OPT / SIMD), so the kernel
//! speedups are observed on exactly the cells E24 measures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfeval_bench::catalog_at;
use perfeval_bench::suite::{suite, ENGINES};

fn bench_suite_workloads(c: &mut Criterion) {
    let catalog = catalog_at(0.002);
    for w in suite() {
        let mut group = c.benchmark_group(w.name);
        group.sample_size(20);
        let sql = (w.sql)();
        for mode in ENGINES {
            let mut session = minidb::Session::new(catalog.clone()).with_mode(mode);
            session.query(&sql).run().unwrap();
            group.bench_with_input(BenchmarkId::from_parameter(mode), &sql, |b, sql| {
                b.iter(|| session.query(sql).run().unwrap().row_count())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_suite_workloads);
criterion_main!(benches);
