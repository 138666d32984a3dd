//! E12 — find out what happens: per-operator profiling of Q1 (slide 54).
//!
//! The paper shows two profiling traces of TPC-H Q1 — a MySQL `gprof`
//! call-graph and a MonetDB/MIL operator trace — to make one point: the
//! engines spend their time in completely different places, and only a
//! profile reveals where. We reproduce the *form* (per-operator exclusive
//! time and cardinality) for our two engines, whose time distributions
//! differ exactly the way interpreted vs. vectorized engines do.

use crate::Ctx;
use minidb::ExecMode;
use perfeval_bench::{bench_catalog, session_with_mode};
use workload::queries;

pub fn run(_: &Ctx) {
    let catalog = bench_catalog();
    let sql = queries::q1();

    let mut traces = Vec::new();
    for mode in [ExecMode::Debug, ExecMode::Optimized] {
        let mut session = session_with_mode(&catalog, mode);
        session.query(&sql).run().expect("warmup");
        let result = session.query(&sql).run().expect("profiled run");
        println!("--- {mode} engine trace ---");
        print!("{}", minidb::exec::render_profile(&result.profile));
        println!();
        traces.push((mode, result.profile));
    }

    // EXPLAIN for good measure (the other slide-52 tool).
    let session = session_with_mode(&catalog, ExecMode::Optimized);
    println!("--- EXPLAIN (the plan both engines run) ---");
    print!("{}", session.explain(&sql).expect("valid query"));

    // Shape assertions: both traces cover the same operators, and the
    // scan+aggregate dominate.
    for (mode, trace) in &traces {
        assert!(trace.iter().any(|e| e.op.starts_with("Scan")), "{mode}");
        assert!(trace.iter().any(|e| e.op == "HashAggregate"), "{mode}");
        let total: f64 = trace.iter().map(|e| e.exclusive_ms).sum();
        assert!(total > 0.0);
        let agg_scan: f64 = trace
            .iter()
            .filter(|e| e.op.starts_with("Scan") || e.op == "HashAggregate" || e.op == "Filter")
            .map(|e| e.exclusive_ms)
            .sum();
        assert!(
            agg_scan / total > 0.5,
            "{mode}: scan+filter+aggregate must dominate Q1 ({:.0}%)",
            100.0 * agg_scan / total
        );
    }
    // The engines distribute time differently (that is the slide's point).
    let share = |trace: &[minidb::exec::ProfileEntry], op: &str| -> f64 {
        let total: f64 = trace.iter().map(|e| e.exclusive_ms).sum();
        trace
            .iter()
            .filter(|e| e.op.starts_with(op))
            .map(|e| e.exclusive_ms)
            .sum::<f64>()
            / total
    };
    let dbg_agg = share(&traces[0].1, "HashAggregate");
    let opt_agg = share(&traces[1].1, "HashAggregate");
    println!(
        "\naggregation's share of execution: DBG {:.0}%, OPT {:.0}% — the",
        dbg_agg * 100.0,
        opt_agg * 100.0
    );
    println!("engines spend their time in different places; only the trace shows it.");
}
