//! Satellite regression: a **dropped connection surfaces as a contained
//! [`UnitOutcome`], never a dead sweep**.
//!
//! Each experiment unit dials the server over an in-process loopback and
//! runs a real query. One unit's client carries a fault registry armed to
//! fail its `net.read` I/O — a deterministic stand-in for the wire dying
//! mid-conversation. The scheduler must classify exactly that unit as
//! quarantined (its panic message names the dropped connection), measure
//! every other unit to the fault-free value, refuse to assemble a partial
//! table, and leave the server alive for the next client.
//!
//! Determinism matters as much as containment: the faulted client is keyed
//! by **unit index** (not by the server's accept ordinal, which depends on
//! arrival order under threads), so the same target drops on every run, at
//! any thread count.

use std::sync::{Arc, OnceLock};

use perfeval::core::two_level_assignments;
use perfeval::exec::{RunPlan, RunUnit, UnitExperiment};
use perfeval::net::{LoopbackConnector, LoopbackEndpoint, Server};
use perfeval::prelude::*;
use perfeval::workload::dbgen::{generate, GenConfig};
use perfeval::workload::queries;

/// The canonical index of the unit whose connection is made to drop.
const DROPPED_UNIT: usize = 3;

fn catalog() -> Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG
        .get_or_init(|| {
            generate(&GenConfig {
                scale_factor: 0.002,
                ..GenConfig::default()
            })
        })
        .clone()
}

/// Silences the intentional dropped-connection panics (each would
/// otherwise dump a backtrace into the test log). Real failures print.
fn quiet_dropped_connection_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let ours = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("net connection dropped"));
            if !ours {
                default_hook(info);
            }
        }));
    });
}

/// One unit = one fresh connection + one real query over the wire. The
/// response is a pure function of the assignment (which family query) and
/// the shared read-only catalog, so a re-run reproduces it bit for bit.
struct WireExperiment {
    dial: LoopbackConnector,
    client_faults: Arc<FaultRegistry>,
}

impl UnitExperiment for WireExperiment {
    fn respond_unit(&self, a: &Assignment, unit: &RunUnit) -> f64 {
        let transport = Box::new(self.dial.connect().expect("loopback connect"));
        // Keyed by canonical unit index: the *same* unit drops on every
        // run and at every thread count, because the key does not depend
        // on server accept order.
        let mut client = Client::connect_with(
            transport,
            Arc::clone(&self.client_faults),
            unit.index as u64,
        )
        .unwrap_or_else(|e| panic!("net connection dropped during handshake: {e}"));
        let qi = if a.num("Q").unwrap() > 0.0 { 6 } else { 1 };
        let r = client
            .query(&queries::family(qi))
            .unwrap_or_else(|e| panic!("net connection dropped mid-query: {e}"));
        let _ = client.close();
        r.rows.len() as f64 + r.footer.rows as f64 / 1e6
    }
}

fn plan() -> RunPlan {
    RunPlan::expand(two_level_assignments(&TwoLevelDesign::full(&["Q"])), 3, 42)
}

fn sweep(
    threads: usize,
    server_workers: usize,
    client_faults: Arc<FaultRegistry>,
) -> (SweepResult, perfeval::net::ServerStats) {
    let ep = LoopbackEndpoint::new();
    let experiment = WireExperiment {
        dial: ep.connector(),
        client_faults,
    };
    let server = Server::builder()
        .transport(ep)
        .mode(perfeval::net::ServerMode::ThreadPerConn {
            workers: server_workers,
        })
        .serve(|| Session::new(catalog()));
    let result = Scheduler::new(threads)
        .with_policy(RetryPolicy {
            max_attempts: 2,
            backoff_ms: 0.0,
            deadline_ms: None,
        })
        .execute(&plan(), &experiment, None);

    // The server must have survived the dropped connection: a fresh
    // client on the same listener still gets real answers.
    let mut probe = Client::connect(Box::new(experiment.dial.connect().unwrap())).unwrap();
    let r = probe.query(&queries::family(1)).expect("server is alive");
    assert!(!r.rows.is_empty(), "post-sweep probe query returns rows");
    probe.close().unwrap();

    let stats = server.wait();
    assert_eq!(stats.worker_panics, 0, "a wire drop is not a server panic");
    (result, stats)
}

fn dropped_read_faults() -> Arc<FaultRegistry> {
    Arc::new(FaultRegistry::new(0).armed_always(
        "net.read",
        Trigger::Key(DROPPED_UNIT as u64),
        FaultAction::FailIo,
    ))
}

#[test]
fn dropped_connection_is_a_contained_unit_outcome_not_a_dead_sweep() {
    quiet_dropped_connection_panics();

    let (clean, clean_stats) = sweep(1, 1, Arc::new(FaultRegistry::disabled()));
    assert!(clean.is_complete(), "fault-free sweep assembles a table");
    assert_eq!(clean_stats.disconnects, 0, "clean clients part with Bye");

    let (faulted, stats) = sweep(1, 1, dropped_read_faults());
    assert!(
        stats.disconnects >= 1,
        "the injected drop shows up in server disconnect counters"
    );

    // Contained: exactly the targeted unit is quarantined, with the drop
    // named in its taxonomy entry — and the sweep still *returned*, with
    // every other unit measured to its fault-free value.
    assert_eq!(faulted.report.quarantined, vec![DROPPED_UNIT]);
    match &faulted.report.units[DROPPED_UNIT].outcome {
        UnitOutcome::Panicked(msg) => assert!(
            msg.contains("net connection dropped"),
            "taxonomy names the dropped connection, got: {msg}"
        ),
        other => panic!("expected Panicked for the dropped unit, got {other:?}"),
    }
    assert!(
        faulted.table.is_none(),
        "a partial sweep never silently assembles"
    );
    for u in 0..faulted.responses.len() {
        if u == DROPPED_UNIT {
            assert!(faulted.responses[u].is_none());
        } else {
            assert_eq!(
                faulted.responses[u], clean.responses[u],
                "surviving unit {u} measured its fault-free value"
            );
            assert_eq!(faulted.report.units[u].outcome, UnitOutcome::Measured);
        }
    }
    // Both allowed attempts were burned on the persistent wire fault.
    assert_eq!(faulted.report.retries, 1);
}

#[test]
fn dropped_connection_taxonomy_is_identical_under_threads() {
    quiet_dropped_connection_panics();
    let (serial, _) = sweep(1, 1, dropped_read_faults());
    let (parallel, _) = sweep(4, 4, dropped_read_faults());
    assert_eq!(parallel.report.quarantined, serial.report.quarantined);
    assert_eq!(parallel.report.units, serial.report.units);
    assert_eq!(parallel.responses, serial.responses);
}
