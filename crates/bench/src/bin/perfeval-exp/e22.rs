//! E22 — the load knee: arrival discipline × concurrency × query mix,
//! with honest tail latencies.
//!
//! Everything before this experiment measured one query at a time. E22
//! drives the server at production-like concurrency through
//! `perfeval-load` and asks the questions that only make sense under
//! load:
//!
//! * **Where is the knee?** Offered load is swept by concurrency; the
//!   knee curve shows achieved throughput saturating while the offered
//!   schedule keeps climbing — and what that does to p99/p99.9.
//! * **Does the arrival discipline matter?** The same concurrency run
//!   closed-loop (clients throttle with the server) and open-loop (the
//!   schedule marches on) produces different tails — arrival mode is a
//!   factor in the allocation of variation, not a harness accident.
//! * **Are the answers still right?** Every result is checksummed
//!   against serial in-process execution (bit-identical floats). A
//!   throughput number over wrong answers would be worse than no number.
//!
//! The factorial is a replicated 2³ — arrival (closed → open), clients
//! (4 → 64), mix (light Q6 → heavy Q1) — with allocation of variation on
//! the p99 intended-time latency. A separate 3-level concurrency sweep
//! (4, 16, 64) per arrival mode draws the knee curve, and a fault arm
//! (flapping client, slow client) shows that degraded sessions are
//! contained scenarios, not crashes. Tail confidence intervals follow
//! Kalibera–Jones: one estimate per replicated run, CI over runs.

use std::sync::Arc;

use crate::ctx::{run_arm, tail_line, Arm};
use crate::Ctx;
use perfeval_bench::knobs::Knob;
use perfeval_bench::{bench_catalog, catalog_at, BENCH_SCALE_FACTOR};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation_replicated;
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};
use perfeval_harness::ResultTable;
use perfeval_load::{Arrival, LoadSpec};
use workload::queries;

#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob::new("reps", "3", "replicated runs per arm (CIs are over runs); at least 2").smoke("2"),
    Knob::new("requests", "1200", "requests per run; at least 100").smoke("120"),
    Knob::new("think_ms", "1.0", "mean think time of a closed-loop client, ms"),
    Knob::new("rate_per_client", "400", "open-loop offered q/s per client"),
];

pub fn run(ctx: &Ctx) {
    let smoke = ctx.smoke();
    let reps = ctx.get::<usize>("reps").max(2);
    let requests = ctx.get::<usize>("requests").max(100);
    let think_ms = ctx.get::<f64>("think_ms");
    let rate_per_client = ctx.get::<f64>("rate_per_client");

    // --smoke shrinks the catalog so the heavy arms stay CI-friendly even
    // on a single slow core; the knee is about queueing, not table size.
    let catalog = if smoke {
        catalog_at(BENCH_SCALE_FACTOR / 4.0)
    } else {
        bench_catalog()
    };
    let light = vec![queries::q6(), queries::family(4)];
    let heavy = vec![queries::q1()];

    // ---- 2^3 factorial with allocation of variation on p99 ----
    let design = TwoLevelDesign::full(&["arrival", "clients", "mix"]);
    let mut replicates: Vec<Vec<f64>> = Vec::with_capacity(design.run_count());
    let mut sections = Vec::new();
    println!(
        "\nfactorial: {} arms x {reps} reps x {requests} requests\n",
        design.run_count()
    );
    println!("  arm               offered q/s  achieved q/s  tails (ms, 95% CI over runs)");
    for r in 0..design.run_count() {
        let open = design.factor_sign(r, 0) > 0.0;
        let many = design.factor_sign(r, 1) > 0.0;
        let heavy_mix = design.factor_sign(r, 2) > 0.0;
        let clients = if many { 64 } else { 4 };
        let arrival = if open {
            Arrival::OpenPoisson {
                rate_qps: clients as f64 * rate_per_client,
            }
        } else {
            Arrival::Closed { think_ms }
        };
        let name = format!(
            "{}/{clients}/{}",
            if open { "open" } else { "closed" },
            if heavy_mix { "heavy" } else { "light" }
        );
        let spec = LoadSpec::new(&name, clients, requests, arrival).mix(if heavy_mix {
            heavy.clone()
        } else {
            light.clone()
        });
        let (report, _) = run_arm(&catalog, spec, Arm::threaded(clients), reps);
        assert!(
            report.is_complete(),
            "arm {name}: {} error(s), {} dropped, {} checksum mismatch(es)",
            report.errors,
            report.dropped_sessions,
            report.checksum_mismatches
        );
        println!(
            "  {name:<17} {:>11}  {:>12.1}  {}",
            report
                .offered_qps
                .map_or("(closed)".to_owned(), |o| format!("{o:.0}")),
            report.achieved_qps(),
            tail_line(&report)
        );
        // Response for the allocation of variation: per-run p99 of the
        // coordinated-omission-safe latency.
        replicates.push(report.runs.iter().map(|run| run.tail_ms[2]).collect());
        sections.push(report.to_section());
    }

    let table =
        allocate_variation_replicated(&design, &replicates).expect("responses match design");
    println!("\nallocation of variation (response = p99 intended-time latency, ms):");
    print!("{}", table.render());
    let ranked = table.ranked_effects();
    println!(
        "largest effect on tail latency: {} ({:.1}% of variation)\n",
        ranked[0].0,
        ranked[0].1 * 100.0
    );

    // ---- knee curve: 3 concurrency levels per arrival mode, heavy mix ----
    // Open-loop offered scales with concurrency; achieved saturates at the
    // server's capacity — the knee. The closed loop self-throttles, so its
    // "offered" column is what it achieved.
    let levels = [4usize, 16, 64];
    let mut knee_table = ResultTable::new("knee: achieved throughput by concurrency", "q/s");
    let mut knee_utilization: Vec<(usize, f64)> = Vec::new();
    println!(
        "knee curve ({} requests, heavy mix, {reps} reps):",
        requests
    );
    println!("  arrival  clients  offered q/s  achieved q/s  p99 ms  p99.9 ms");
    for open in [false, true] {
        for &clients in &levels {
            let arrival = if open {
                Arrival::OpenPoisson {
                    rate_qps: clients as f64 * rate_per_client,
                }
            } else {
                Arrival::Closed { think_ms }
            };
            let name = format!("knee/{}/{clients}", if open { "open" } else { "closed" });
            let spec = LoadSpec::new(&name, clients, requests, arrival).mix(heavy.clone());
            let (report, _) = run_arm(&catalog, spec, Arm::threaded(clients), reps);
            assert!(report.is_complete(), "knee arm {name} incomplete");
            let offered = report.offered_qps;
            println!(
                "  {:<7}  {clients:>7}  {:>11}  {:>12.1}  {:>6.2}  {:>8.2}",
                if open { "open" } else { "closed" },
                offered.map_or("(closed)".to_owned(), |o| format!("{o:.0}")),
                report.achieved_qps(),
                report.intended.quantile(0.99).unwrap_or(0.0),
                report.intended.quantile(0.999).unwrap_or(0.0),
            );
            if let Some(o) = offered {
                knee_utilization.push((clients, report.achieved_qps() / o));
            }
            knee_table.row(&name, report.achieved_qps_runs());
            sections.push(report.to_section());
        }
    }

    // The knee, quantitatively: open-loop utilization (achieved/offered)
    // must fall as offered load climbs past capacity.
    let low = knee_utilization.first().expect("open arms ran").1;
    let high = knee_utilization.last().expect("open arms ran").1;
    assert!(
        high < low,
        "knee: utilization should fall with offered load (low {low:.2}, high {high:.2})"
    );
    println!(
        "knee confirmed: open-loop utilization falls {:.0}% -> {:.0}% as offered climbs {}x.\n",
        low * 100.0,
        high * 100.0,
        levels[levels.len() - 1] / levels[0]
    );

    // ---- fault arm: flapping + slow client are contained scenarios ----
    // Client 5 suffers an injected send failure on every request (reconnect
    // + retry each time); client 3's receive path is slowed 15 ms per
    // request (visible in ITS latencies, nobody else's).
    let faults = Arc::new(
        FaultRegistry::new(20080408)
            .armed_always("load.send", Trigger::Key(5), FaultAction::FailIo)
            .armed_always("load.recv", Trigger::Key(3), FaultAction::DelayMs(15.0)),
    );
    let spec = LoadSpec::new(
        "fault/8/light",
        8,
        requests.min(400),
        Arrival::Closed { think_ms },
    )
    .mix(light.clone());
    let arm = Arm {
        client_faults: Some(Arc::clone(&faults)),
        ..Arm::threaded(8)
    };
    let (report, _) = run_arm(&catalog, spec, arm, reps);
    println!("fault arm (flapping client 5, slow client 3):");
    for line in report.render_lines() {
        println!("  {line}");
    }
    println!("  fired: {:?}", faults.fired_summary());
    assert!(
        report.reconnects > 0,
        "the flapping client must have reconnected"
    );
    assert_eq!(
        report.dropped_sessions, 0,
        "flapping is contained, not fatal"
    );
    assert_eq!(report.errors, 0, "every retried request still succeeded");
    assert_eq!(report.checksum_mismatches, 0, "degraded but still correct");
    sections.push(report.to_section());

    // ---- the report: load arms under the same documentation contract ----
    let report = ctx
        .report(
            "locate the throughput knee and quantify what arrival discipline, \
             concurrency, and query mix do to tail latency",
            "loopback transport, thread-per-connection",
        )
        .protocol(
            "replicated runs per arm (fresh connections each), coordinated-omission-safe \
             recording from the intended arrival schedule, results checksummed against \
             serial execution",
        )
        .table(knee_table)
        .conclusions(
            "the open-loop tail diverges from the closed-loop tail past the knee; \
             arrival discipline is a design factor, not a harness detail.",
        );
    ctx.finish_report(report, sections);

    if smoke {
        println!("\n--smoke: reduced requests/reps; same arms, same assertions.");
    }
    println!(
        "\nconclusion: throughput saturates at the knee while the open-loop tail \
         keeps growing — only intended-time recording shows what users behind \
         the backlog actually wait."
    );
}
