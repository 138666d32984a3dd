//! E20 — fault robustness: the execution stack under injected failure.
//!
//! The tutorial's repeatability chapter assumes the sweep *finishes*. Real
//! sweeps die at 3 a.m.: a unit segfaults, a driver hangs, a cache file is
//! half-written. This exhibit injects those failures deterministically
//! (`perfeval-fault`) and shows what the hardened scheduler does about
//! each:
//!
//! * **transient faults + retries** — every unit recovers, and the
//!   assembled response table and effect estimates are *bit-identical* to
//!   the fault-free sweep (a retry is a re-measurement from the same seed,
//!   not a different experiment);
//! * **persistent panics** — the sweep completes anyway, quarantines the
//!   failing cells, and reports a PARTIAL table honestly instead of
//!   fabricating one;
//! * **hangs** — a watchdog lane cancels units past their wall-clock
//!   deadline; the hung cell becomes `timed_out`, the rest still measure.
//!
//! The response is a synthetic pure function of (assignment, replicate) —
//! not a timing — so bit-identity is checkable exactly, on any machine.
//! Fault schedules are a pure function of `(site, key, attempt, seed)`:
//! rerun with the same `-Dfaultseed` and the same cells fail, on any
//! thread count. `--smoke` shrinks replication for CI.

use crate::Ctx;
use perfeval_bench::knobs::Knob;
use perfeval_core::effects::estimate_effects_replicated;
use perfeval_core::runner::{two_level_assignments, Assignment, SyncExperiment};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_exec::{RetryPolicy, RunPlan, Scheduler, UnitOutcome};
use perfeval_fault::{FaultAction, FaultRegistry, TimeoutSignal, Trigger};
use perfeval_measure::protocol::RunProtocol;
use perfeval_trace::Tracer;
use std::sync::Arc;

/// Root seed of every plan in this exhibit (recorded: the whole sweep
/// replays bit-identically from it).
const ROOT_SEED: u64 = 20090324;

/// The synthetic system under test: a pure function of the assignment and
/// the replicate index. Deliberately not a timing — the point of this
/// exhibit is failure semantics, and a closed-form response makes
/// "bit-identical after recovery" an exact assertion instead of a hope.
struct Synthetic;

impl SyncExperiment for Synthetic {
    fn respond(&self, a: &Assignment, replicate: usize) -> f64 {
        let b = a.num("B").expect("factor B");
        let c = a.num("C").expect("factor C");
        let v = a.num("V").expect("factor V");
        // Known effect model + deterministic per-replicate wobble.
        let wobble = ((replicate as u64).wrapping_mul(7919) % 13) as f64 * 0.01;
        100.0 - 30.0 * b - 12.0 * c - 5.0 * v + 4.0 * b * c + wobble
    }
}

/// Silences the default panic printout for *injected* panics only —
/// hundreds of intentional backtraces would bury the exhibit's output.
/// Genuine failures (assertions, bugs) still print through the old hook.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info.payload().downcast_ref::<TimeoutSignal>().is_some()
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
}

#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob::new("threads", "4", "scheduler workers; the failing cells do not depend on it"),
    Knob::new("faultseed", "1", "seed of the fault schedule: same seed, same cells fail"),
];

pub fn run(ctx: &Ctx) {
    quiet_injected_panics();

    let smoke = ctx.smoke();
    let threads = ctx.threads();
    let faultseed = ctx.get::<u64>("faultseed");

    let reps = if smoke { 2 } else { 4 };
    let design = TwoLevelDesign::full(&["B", "C", "V"]);
    let plan = RunPlan::expand(
        two_level_assignments(&design),
        RunProtocol::hot(0, reps),
        ROOT_SEED,
    );
    println!(
        "design: 2^3 (B, C, V), {} — threads={threads}, faultseed={faultseed}{}\n",
        plan.describe(),
        if smoke { ", --smoke" } else { "" }
    );

    // ---- arm 0: the fault-free baseline --------------------------------
    let clean = Scheduler::new(threads).execute_contained(
        &plan,
        &Synthetic,
        None,
    );
    assert!(clean.is_complete(), "clean sweep completes");
    let clean_table = clean.table.as_ref().expect("clean table assembles");
    let clean_effects =
        estimate_effects_replicated(&design, &clean_table.replicates).expect("effects estimable");
    println!("arm 0 — fault-free baseline:");
    println!("  model: {}", clean_effects.render());

    // ---- arm 1: transient faults, recovered by retries -----------------
    // A seeded ~40% of units panic on attempts 1–2 and succeed on attempt
    // 3. With two retries granted, the sweep must complete and match the
    // baseline bit for bit: same unit seeds, same pure response.
    let transient = Arc::new(FaultRegistry::new(faultseed).armed_transient(
        "exec.unit.run",
        Trigger::Seeded {
            permille: 400,
            seed: faultseed,
        },
        3,
        FaultAction::Panic,
    ));
    let recovered = Scheduler::new(threads)
        .with_policy(RetryPolicy::retries(2))
        .with_faults(Arc::clone(&transient))
        .execute_contained(&plan, &Synthetic, None);
    assert!(recovered.is_complete(), "retries absorb transient faults");
    let recovered_table = recovered.table.as_ref().expect("recovered table assembles");
    assert_eq!(
        recovered_table, clean_table,
        "recovered sweep must be bit-identical to the fault-free one"
    );
    let recovered_effects = estimate_effects_replicated(&design, &recovered_table.replicates)
        .expect("effects estimable");
    for factor in ["B", "C", "V"] {
        let a = clean_effects.coefficient(&[factor]).expect("coefficient");
        let b = recovered_effects
            .coefficient(&[factor])
            .expect("coefficient");
        assert_eq!(a.to_bits(), b.to_bits(), "effect {factor} drifted");
    }
    println!("\narm 1 — transient panics (seeded, ~40% of units, 2 retries granted):");
    println!(
        "  {} unit(s) retried, {} extra attempt(s), {} fault(s) fired — sweep complete,",
        recovered.report.retried(),
        recovered.report.retries,
        transient.fired("exec.unit.run"),
    );
    println!("  response table and every effect estimate bit-identical to arm 0.");

    // ---- arm 2: persistent panics, quarantined and reported ------------
    // Units with index % 7 == 3 panic on *every* attempt: no retry budget
    // saves them. The sweep still completes, accounts for every cell, and
    // refuses to assemble a table it cannot stand behind.
    let persistent = Arc::new(FaultRegistry::new(faultseed).armed_always(
        "exec.unit.run",
        Trigger::KeyModulo {
            modulus: 7,
            remainder: 3,
        },
        FaultAction::Panic,
    ));
    let partial = Scheduler::new(threads)
        .with_policy(RetryPolicy::retries(1))
        .with_faults(persistent)
        .execute_contained(&plan, &Synthetic, None);
    assert!(
        !partial.is_complete(),
        "persistent faults cannot be retried away"
    );
    assert!(
        partial.table.is_none(),
        "a partial sweep never assembles a table"
    );
    assert_eq!(
        partial.report.units.len(),
        plan.unit_count(),
        "every cell gets an outcome, measured or not"
    );
    assert!(
        partial.report.quarantined.iter().all(|&u| u % 7 == 3),
        "exactly the armed cells fail"
    );
    println!("\narm 2 — persistent panics (unit index % 7 == 3, every attempt):");
    for line in partial.report.render_lines() {
        println!("  {line}");
    }

    // ---- arm 3: a hang, cancelled by the watchdog ----------------------
    // One unit hangs far past any patience; a 50 ms per-unit deadline and
    // the watchdog lane turn it into `timed_out` while its neighbors
    // measure normally. Traced, so the cancellation is visible.
    let hang_plan = RunPlan::expand(
        two_level_assignments(&TwoLevelDesign::full(&["B"])),
        RunProtocol::hot(0, 1),
        ROOT_SEED,
    );
    struct OneFactor;
    impl SyncExperiment for OneFactor {
        fn respond(&self, a: &Assignment, replicate: usize) -> f64 {
            10.0 + a.num("B").expect("factor B") + replicate as f64
        }
    }
    let hangs = Arc::new(FaultRegistry::new(faultseed).armed_always(
        "exec.unit.run",
        Trigger::Key(1),
        FaultAction::Hang { ms: 30_000.0 },
    ));
    let tracer = Tracer::new();
    let t0 = std::time::Instant::now();
    let hung = Scheduler::new(2)
        .with_policy(RetryPolicy::default().with_deadline_ms(50.0))
        .with_faults(hangs)
        .execute_contained_traced(
            &hang_plan,
            &OneFactor,
            None,
            Some(&tracer),
        );
    let wall = t0.elapsed();
    assert!(
        wall.as_secs() < 10,
        "watchdog must cancel a 30 s hang under a 50 ms deadline"
    );
    assert_eq!(hung.report.units[1].outcome, UnitOutcome::TimedOut);
    assert_eq!(hung.report.units[0].outcome, UnitOutcome::Measured);
    let trace = tracer.snapshot();
    assert!(
        trace.lanes.iter().any(|l| l.label == "watchdog"),
        "watchdog lane recorded"
    );
    assert!(trace.find("deadline-fired").count() >= 1);
    assert!(trace.count_attr("outcome", "timed_out") >= 1);
    println!("\narm 3 — a 30 s hang under a 50 ms per-unit deadline:");
    println!(
        "  cancelled in {:.0} ms wall; outcomes: {:?}; {} deadline-fired span(s) on the watchdog lane.",
        wall.as_secs_f64() * 1e3,
        hung.report
            .units
            .iter()
            .map(|u| u.outcome.label())
            .collect::<Vec<_>>(),
        trace.find("deadline-fired").count(),
    );

    // Export the traced hang for inspection — the watchdog lane and the
    // cancelled unit are visible in any Chrome-trace viewer.
    ctx.export_trace("  trace", &trace);

    println!(
        "\nverdict: panics and hangs are per-unit *outcomes*, not sweep killers; \
         retried cells reproduce bit-identically; partial sweeps say so."
    );
}
