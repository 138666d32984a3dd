//! E25 — overload protection: admission control, query deadlines, and
//! client backoff under saturation.
//!
//! E22 located the knee and showed what an open-loop schedule does to the
//! tail *when the server accepts everything*. E25 asks the robustness
//! question that follows: what should a saturated server **do**? The
//! overload-protection answer — shed excess work fast with a typed
//! `Rejected` frame, enforce per-query deadlines by cooperative
//! cancellation, and let clients back off and give up instead of piling
//! on — is evaluated as a replicated 2³ factorial:
//!
//! * **rate** — offered load below the knee (0.5×) vs. past it (4×),
//! * **shedding** — admit-all vs. a bounded in-flight budget plus client
//!   etiquette (seeded jittered backoff, bounded retries, breaker),
//! * **deadline** — none vs. a tight per-query deadline in the frame
//!   header, enforced server-side by cooperative cancellation.
//!
//! Saturation is *injected*, not hoped for: every `slow_every`-th
//! statement of each server session stalls `slow_ms` at the
//! `minidb.execute` failpoint (an uninterruptible stall, so a deadline's
//! win is the typed signal and the trimmed completion tail — the slot
//! time is only reclaimed once the stall ends). That pins the knee to a
//! known place on any machine, so the rate axis means the same thing in
//! CI as on a workstation.
//!
//! The claims, each with a Kalibera–Jones CI over replicated runs:
//!
//! * **Collapse is real, protection prevents it.** Past the knee with
//!   everything off (admit-all, no deadline), the coordinated-omission-
//!   safe p99.9 grows with the backlog. With protection fully on —
//!   budget + deadline + etiquette — it stays bounded: the budget sheds
//!   excess concurrency, and the intended-anchored deadline sheds stale
//!   requests a backlogged client would otherwise complete late. The
//!   paired per-run difference (off − on) excludes zero at 95%. The two
//!   levers are deliberately *both* needed: admission alone still lets a
//!   backlogged client win the admission race with a stale request, which
//!   is exactly what the 2³ decomposition shows.
//! * **Shedding sustains goodput.** The protected arm's achieved
//!   throughput past the knee stays within its budget's capacity — its
//!   CI excludes the collapse region — while its p99.9 stays bounded.
//! * **Deadlines trim the completion tail.** With the tight deadline,
//!   stalled statements come back `DeadlineExceeded` instead of late;
//!   the naive p99.9 of what *did* complete drops below the stall.
//! * **Nothing is silently dropped.** Every designed request of every
//!   arm is accounted: completed + errors + give-ups = requests.
//!
//! This binary drives the thread-per-connection engine, whose global
//! in-flight gauge gives the cleanest budget semantics for a saturation
//! sweep; the sharded core's run-queue admission and both engines'
//! cancellation paths are pinned by `crates/net/tests/overload.rs` and
//! the chaos CI job (which replays `--smoke` across fault seeds).

use std::sync::Arc;

use crate::ctx::{run_arm, Arm};
use crate::Ctx;
use minidb_net::{Admission, BackoffPolicy};
use perfeval_bench::knobs::Knob;
use perfeval_bench::{bench_catalog, catalog_at, BENCH_SCALE_FACTOR};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation_replicated;
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};
use perfeval_harness::ResultTable;
use perfeval_load::{Arrival, LoadReport, LoadSpec};
use perfeval_stats::mean_confidence_interval;
use workload::queries;

fn ci_str(data: &[f64]) -> String {
    match mean_confidence_interval(data, 0.95) {
        Ok(ci) => format!("{:.1} [{:.1},{:.1}]", ci.estimate, ci.lower, ci.upper),
        Err(_) => "n/a".to_owned(),
    }
}

fn p999_runs(r: &LoadReport) -> Vec<f64> {
    r.runs.iter().map(|run| run.tail_ms[3]).collect()
}

#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob::new("reps", "3", "replicated runs per arm (the CIs are paired over runs); at least 2"),
    Knob::new("requests", "1200", "requests per run; at least 200").smoke("480"),
    Knob::new("clients", "16", "client sessions; at least 2"),
    Knob::new("slow_every", "4", "every n-th statement of a session stalls; at least 2"),
    Knob::new("slow_ms", "30", "the injected stall, ms: pins the knee"),
    Knob::new("deadline_ms", "10", "the tight level of the deadline factor, ms"),
    Knob::new("inflight", "8", "the shedding level's in-flight budget"),
    Knob::new("faultseed", "20080408", "redraws the stall schedule and the backoff jitter"),
];

pub fn run(ctx: &Ctx) {
    let smoke = ctx.smoke();
    let reps = ctx.get::<usize>("reps").max(2);
    let requests = ctx.get::<usize>("requests").max(200);
    let clients = ctx.get::<usize>("clients").max(2);
    let slow_every = ctx.get::<u64>("slow_every").max(2);
    let slow_ms = ctx.get::<f64>("slow_ms");
    let deadline_ms = ctx.get::<u32>("deadline_ms").max(1);
    let inflight = ctx.get::<usize>("inflight").max(1);
    let faultseed = ctx.get::<u64>("faultseed");

    // Saturation is injected: the knee sits at a *designed* service time,
    // not at whatever this machine happens to sustain today.
    let catalog = if smoke {
        catalog_at(BENCH_SCALE_FACTOR / 4.0)
    } else {
        bench_catalog()
    };
    let mix = vec![queries::q6()];
    let session_faults = Arc::new(FaultRegistry::new(faultseed).armed_always(
        "minidb.execute",
        Trigger::KeyModulo {
            modulus: slow_every,
            remainder: slow_every - 1,
        },
        FaultAction::DelayMs(slow_ms),
    ));
    // Mean designed service time, ms: the injected stall amortized over
    // the mix (the light query itself is ~1 ms at this scale).
    let mean_service_ms = slow_ms / slow_every as f64 + 1.0;
    let capacity_qps = clients as f64 * 1000.0 / mean_service_ms;
    let below_qps = 0.5 * capacity_qps;
    let past_qps = 4.0 * capacity_qps;
    println!(
        "\ndesigned knee: {clients} clients x {mean_service_ms:.1} ms mean service \
         ~ {capacity_qps:.0} q/s; rates {below_qps:.0} (below) / {past_qps:.0} (past)\n"
    );

    // ---- the 2^3: rate x shedding x deadline, `reps` replicates each ----
    let design = TwoLevelDesign::full(&["rate", "shedding", "deadline"]);
    let mut replicates: Vec<Vec<f64>> = Vec::with_capacity(design.run_count());
    let mut sections = Vec::new();
    let mut arms: Vec<LoadReport> = Vec::with_capacity(design.run_count());
    let mut arm_index = std::collections::HashMap::new();
    let mut goodput_table = ResultTable::new("goodput by arm (completed q/s)", "q/s");
    println!(
        "  arm                    offered q/s  goodput q/s  p99.9 ms (intended)  rejects  give-ups"
    );
    for r in 0..design.run_count() {
        let past = design.factor_sign(r, 0) > 0.0;
        let shed = design.factor_sign(r, 1) > 0.0;
        let tight = design.factor_sign(r, 2) > 0.0;
        let rate = if past { past_qps } else { below_qps };
        let name = format!(
            "{}/{}/{}",
            if past { "past" } else { "below" },
            if shed { "shed" } else { "admit-all" },
            if tight { "deadline" } else { "none" }
        );
        let mut spec = LoadSpec::new(
            &name,
            clients,
            requests,
            Arrival::OpenPoisson { rate_qps: rate },
        )
        .mix(mix.clone())
        .seed(0x4532_5e25 ^ faultseed);
        if tight {
            spec = spec.deadline_ms(deadline_ms);
        }
        let admission = if shed {
            // Client etiquette rides with the server budget. It must be
            // *cheap*: a backlogged client clears a given-up request in
            // ~1 ms of backoff (vs. ~8.5 ms of service), and once the
            // breaker opens the whole backlog is skipped instantly — the
            // mechanism that keeps completed requests on schedule.
            spec = spec
                .retry(
                    BackoffPolicy::retries(1)
                        .with_base_ms(0.5)
                        .with_cap_ms(2.0)
                        .with_seed(faultseed),
                )
                .breaker(4, 8.0);
            Admission::default()
                .max_inflight(inflight)
                .retry_after_ms(2)
        } else {
            Admission::default()
        };
        let arm = Arm {
            admission,
            session_faults: Some(Arc::clone(&session_faults)),
            ..Arm::threaded(clients)
        };
        let (report, _) = run_arm(&catalog, spec, arm, reps);
        // The etiquette invariant: every designed request is accounted,
        // in every arm — completed, errored, or deliberately given up.
        assert_eq!(report.dropped_sessions, 0, "arm {name}: no session drops");
        assert_eq!(
            report.requests + report.errors + report.give_ups,
            (requests * reps) as u64,
            "arm {name}: every designed request accounted"
        );
        assert_eq!(report.checksum_mismatches, 0, "arm {name}: still correct");
        println!(
            "  {name:<22} {rate:>11.0}  {:>11.1}  {:>19}  {:>7}  {:>8}",
            report.achieved_qps(),
            ci_str(&p999_runs(&report)),
            report.rejects,
            report.give_ups,
        );
        replicates.push(p999_runs(&report));
        goodput_table.row(&name, report.achieved_qps_runs());
        sections.push(report.to_section());
        arm_index.insert((past, shed, tight), r);
        arms.push(report);
    }
    let arm = |past: bool, shed: bool, tight: bool| -> &LoadReport {
        &arms[arm_index[&(past, shed, tight)]]
    };

    // ---- claim 0: the baseline arm is clean ----
    let baseline = arm(false, false, false);
    assert!(
        baseline.is_complete(),
        "below-knee admit-all arm must complete: {} error(s), {} give-up(s)",
        baseline.errors,
        baseline.give_ups
    );

    // ---- claim 1: collapse is real, and protection prevents it ----
    // Paired per-run difference of intended-time p99.9 past the knee:
    // protection fully off (admit-all, no deadline) minus fully on
    // (budget + deadline + etiquette). KJ CI over replicates must
    // exclude zero on the positive side. Both levers matter: the budget
    // sheds excess concurrency, the intended-anchored deadline sheds the
    // stale requests a backlogged client would otherwise complete late.
    let off = p999_runs(arm(true, false, false));
    let on = p999_runs(arm(true, true, true));
    let diffs: Vec<f64> = off.iter().zip(&on).map(|(o, s)| o - s).collect();
    let ci = mean_confidence_interval(&diffs, 0.95).expect("reps >= 2");
    println!(
        "\npast-knee p99.9 (unprotected minus protected): {:.1} ms [{:.1}, {:.1}] over {reps} paired runs",
        ci.estimate, ci.lower, ci.upper
    );
    assert!(
        ci.lower > 0.0,
        "full protection must beat admit-all on the past-knee tail with 95% confidence \
         (CI [{:.1}, {:.1}] includes zero)",
        ci.lower,
        ci.upper
    );
    // And the protected tail is bounded in absolute terms: nothing
    // completes later than deadline + retry backoff + the uninterruptible
    // stall — generously doubled for scheduling noise.
    let bound_ms = 2.0 * (f64::from(deadline_ms) + 4.0 + slow_ms);
    let on_ci = mean_confidence_interval(&on, 0.95).expect("reps >= 2");
    assert!(
        on_ci.upper < bound_ms,
        "protected p99.9 (CI upper {:.1} ms) must stay under the designed bound {bound_ms:.1} ms",
        on_ci.upper
    );

    // ---- claim 2: shedding sustains goodput past the knee ----
    // The protected arm's goodput CI must exclude the collapse region:
    // at least half of what the same policy achieves below the knee.
    let shed_below = arm(false, true, true).achieved_qps();
    let shed_past = mean_confidence_interval(&arm(true, true, true).achieved_qps_runs(), 0.95)
        .expect("reps >= 2");
    println!(
        "shed goodput: below-knee {shed_below:.0} q/s, past-knee {:.0} q/s [{:.0}, {:.0}]",
        shed_past.estimate, shed_past.lower, shed_past.upper
    );
    assert!(
        shed_past.lower > 0.5 * shed_below,
        "past-knee shed goodput (CI lower {:.0}) must sustain >= half the \
         below-knee goodput ({shed_below:.0})",
        shed_past.lower
    );

    // ---- claim 3: deadlines trim the completion tail ----
    // Past the knee, the tight-deadline arm's *completed* requests must
    // not include the injected stall: its naive p99.9 sits well below
    // `slow_ms`, while the no-deadline arm's sits at or above it.
    for shed in [false, true] {
        let none = arm(true, shed, false).naive.quantile(0.999).unwrap_or(0.0);
        let tight_arm = arm(true, shed, true);
        let tight = tight_arm.naive.quantile(0.999).unwrap_or(0.0);
        println!(
            "deadline trim ({}): naive p99.9 {none:.1} ms -> {tight:.1} ms, {} deadline reject(s)",
            if shed { "shed" } else { "admit-all" },
            tight_arm.rejects
        );
        assert!(
            tight_arm.rejects > 0,
            "the tight deadline must shed the injected stalls"
        );
        assert!(
            tight < none * 0.7,
            "deadline must trim the completion tail ({tight:.1} ms vs {none:.1} ms)"
        );
    }

    // ---- where does the tail variation come from? ----
    let table =
        allocate_variation_replicated(&design, &replicates).expect("responses match design");
    println!("\nallocation of variation (response = p99.9 intended-time latency, ms):");
    print!("{}", table.render());
    let ranked = table.ranked_effects();
    println!(
        "largest effect on the tail: {} ({:.1}% of variation)\n",
        ranked[0].0,
        ranked[0].1 * 100.0
    );

    // ---- the breaker, deterministically ----
    // A server whose admission verdict is forced to reject everything
    // (`net.admit` failpoint): the client's breaker must open, requests
    // must become give-ups — not errors, not hangs — and every one of
    // them must still be accounted.
    let server_faults = Arc::new(FaultRegistry::new(faultseed).armed_always(
        "net.admit",
        Trigger::Always,
        FaultAction::FailIo,
    ));
    let spec = LoadSpec::new(
        "breaker/reject-all",
        4,
        requests.min(80),
        Arrival::Closed { think_ms: 0.2 },
    )
    .mix(mix.clone())
    .seed(faultseed)
    .retry(
        BackoffPolicy::retries(2)
            .with_base_ms(1.0)
            .with_cap_ms(4.0)
            .with_seed(faultseed),
    )
    .breaker(3, 10.0);
    let arm = Arm {
        admission: Admission::default().retry_after_ms(1),
        server_faults: Some(server_faults),
        ..Arm::threaded(4)
    };
    let (report, _) = run_arm(&catalog, spec, arm, reps);
    println!("breaker arm (every admission verdict forced to reject):");
    for line in report.render_lines() {
        println!("  {line}");
    }
    assert_eq!(report.requests, 0, "nothing is admitted");
    assert_eq!(
        report.give_ups,
        (requests.min(80) * reps) as u64,
        "every designed request gives up cleanly"
    );
    assert!(report.rejects > 0, "rejections observed");
    assert!(report.breaker_opens > 0, "the breaker opened");
    assert_eq!(report.dropped_sessions, 0, "rejection never kills sessions");
    sections.push(report.to_section());

    // ---- the report: same documentation contract as every experiment ----
    let report = ctx
        .report(
            "show that admission control, query deadlines, and client backoff \
             turn saturation from a latency collapse into bounded, typed shedding",
            "loopback transport, thread-per-connection, \
             injected execute stalls pin the knee",
        )
        .protocol(
            "replicated 2^3 factorial (rate x shedding x deadline), open-loop \
             Poisson arrivals, coordinated-omission-safe recording, paired \
             Kalibera-Jones CIs over runs, every request accounted",
        )
        .table(goodput_table)
        .conclusions(
            "past the knee, admit-all collapses the intended-time tail while the \
             shed arm holds goodput and a bounded p99.9; tight deadlines convert \
             stalled statements into typed DeadlineExceeded rejections.",
        );
    ctx.finish_report(report, sections);

    if smoke {
        println!("\n--smoke: reduced requests; same arms, same assertions.");
    }
    println!(
        "\nconclusion: a saturated server that sheds fast, cancels at the \
         deadline, and faces clients that back off keeps its goodput and its \
         tail; one that accepts everything keeps neither."
    );
}
