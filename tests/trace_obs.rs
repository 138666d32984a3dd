//! Cross-crate observability integration: the span tracer driven through
//! the real engine and scheduler, and the exporters' format contracts
//! checked property-style.

use perfeval::exec::{parallel_map_traced, OrderPolicy, Scheduler};
use perfeval::measure::AtomicClock;
use perfeval::minidb::Session;
use perfeval::trace::{chrome_trace_json, folded_stacks, render_tree, validate_chrome, Tracer};
use perfeval::workload::dbgen::{generate, GenConfig};
use proptest::prelude::*;

fn small_catalog() -> perfeval::minidb::Catalog {
    generate(&GenConfig {
        scale_factor: 0.001,
        ..GenConfig::default()
    })
}

#[test]
fn traced_query_and_sweep_stitch_into_one_timeline() {
    let tracer = Tracer::new();
    tracer.label_thread("coordinator");

    // A traced minidb query on the coordinator thread...
    let mut session = Session::new(small_catalog());
    session
        .query("SELECT COUNT(*) FROM lineitem")
        .traced(&tracer)
        .run()
        .unwrap();

    // ...and a traced scheduler sweep fanning out to workers, recorded
    // into the *same* tracer.
    let plan = {
        use perfeval::core::factor::Level;
        use perfeval::core::runner::Assignment;
        use perfeval::measure::RunProtocol;
        let assignments = (0..4)
            .map(|i| Assignment::new(vec![("x".into(), Level::Num(i as f64))]))
            .collect();
        perfeval::exec::RunPlan::expand(assignments, RunProtocol::hot(0, 2), 0)
    };
    let exp = |a: &perfeval::core::runner::Assignment| a.num("x").unwrap();
    Scheduler::new(2)
        .with_order(OrderPolicy::AsDesigned)
        .execute_traced(&plan, &exp, None, Some(&tracer));

    let trace = tracer.snapshot();
    assert!(trace.lanes.len() >= 2, "coordinator + worker lanes");
    let coordinator = trace
        .lanes
        .iter()
        .find(|l| l.label == "coordinator")
        .expect("labelled coordinator lane");
    assert!(coordinator.records.iter().any(|s| s.name == "query"));
    assert!(coordinator.records.iter().any(|s| s.name == "sweep"));
    assert_eq!(
        trace
            .lanes
            .iter()
            .flat_map(|l| l.records.iter())
            .filter(|s| s.name.starts_with("unit "))
            .count(),
        8
    );

    // Every exporter accepts the stitched timeline.
    let json = chrome_trace_json(&trace);
    let summary = validate_chrome(&json).expect("well-formed Chrome trace");
    assert_eq!(summary.thread_names.len(), trace.lanes.len());
    assert!(render_tree(&trace).contains("sweep"));
    let folded = folded_stacks(&trace);
    assert!(folded.contains("coordinator;query;"), "query phases nest");
    assert!(folded.contains("coordinator;sweep"), "sweep on coordinator");
}

#[test]
fn worker_lanes_carry_their_pool_names() {
    let tracer = Tracer::new();
    tracer.label_thread("caller");
    parallel_map_traced(16, 3, Some(&tracer), |i| {
        drop(tracer.span("work"));
        i
    });
    let trace = tracer.snapshot();
    // The calling thread is worker 0 and keeps its own lane; the two
    // helpers label theirs.
    let mut labels: Vec<_> = trace.lanes.iter().map(|l| l.label.as_str()).collect();
    labels.sort_unstable();
    assert_eq!(labels, ["caller", "worker-1", "worker-2"]);
    assert_eq!(
        trace.lanes.iter().flat_map(|l| l.records.iter()).count(),
        16,
        "every unit recorded exactly one span"
    );
}

#[test]
fn ring_overflow_is_accounted_not_silent() {
    let tracer = Tracer::with_capacity(8);
    for i in 0..50 {
        drop(tracer.span(&format!("s{i}")));
    }
    let stats = tracer.stats();
    assert_eq!(stats.recorded, 8, "ring keeps only the newest spans");
    assert_eq!(stats.dropped, 42, "evictions are counted");
    // The drop count survives into the export.
    let json = chrome_trace_json(&tracer.snapshot());
    let summary = validate_chrome(&json).unwrap();
    assert_eq!(summary.dropped, 42);
}

/// Replays a random open/close script against a deterministic clock,
/// returning the resulting trace. Commands: even byte = open a span,
/// odd byte = close the deepest open span. Whatever remains open at the
/// end is closed by guard drop order.
fn run_script(script: &[u32], capacity: usize) -> perfeval::trace::Trace {
    let clock = AtomicClock::new();
    let tracer = Tracer::custom(capacity, clock.clone());
    let mut open = Vec::new();
    for (i, b) in script.iter().enumerate() {
        clock.advance_ns(1 + u64::from(*b));
        if b % 2 == 0 {
            let mut g = tracer.span(&format!("op{}", b / 16));
            g.attr("step", i);
            open.push(g);
        } else {
            drop(open.pop());
        }
    }
    clock.advance_ns(1);
    drop(open);
    tracer.snapshot()
}

proptest! {
    #[test]
    fn chrome_export_is_well_formed_for_arbitrary_nesting(
        script in prop::collection::vec(0u32..256, 0..200),
        capacity in 1usize..64,
    ) {
        let trace = run_script(&script, capacity);
        let json = chrome_trace_json(&trace);
        let summary = validate_chrome(&json)
            .map_err(TestCaseError::fail)?;
        // One B and one E per retained span, one thread_name metadata
        // event per lane, one process_name event for the document.
        let retained: usize = trace.lanes.iter().map(|l| l.records.len()).sum();
        prop_assert_eq!(summary.spans, retained);
        prop_assert_eq!(summary.events, 2 * retained + trace.lanes.len() + 1);
    }

    #[test]
    fn exporters_never_panic_on_random_scripts(
        script in prop::collection::vec(0u32..256, 0..200),
    ) {
        let trace = run_script(&script, 16);
        let _ = render_tree(&trace);
        let _ = folded_stacks(&trace);
    }
}
