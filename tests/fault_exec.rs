//! Integration tests for fault-contained execution: the failure taxonomy
//! is part of the determinism contract. A fault schedule is a pure
//! function of `(site, key, attempt, seed)` — never of arrival order — so
//! the same [`RunPlan`] seed plus the same armed faults must yield an
//! identical [`perfeval::exec::ExecReport`] (per-unit outcomes, retry
//! counts, quarantine set) across repeated runs, thread counts, and
//! run-order policies. Timeout behavior is asserted separately, without
//! property machinery, because wall clocks need wide margins.

use perfeval::core::{design_assignments, two_level_assignments};
use perfeval::exec::RunPlan;
use perfeval::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Silences the default panic printout for injected panics only: the
/// properties below fire thousands of them on purpose, and each would
/// otherwise dump a backtrace. Real failures still print.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<perfeval::fault::TimeoutSignal>()
                .is_some()
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
    });
}

/// The system under test: a pure function of (assignment, replicate), so
/// a retried measurement reproduces the original bit for bit.
struct Surface;

impl SyncExperiment for Surface {
    fn respond(&self, a: &Assignment, replicate: usize) -> f64 {
        7.0 * a.num("A").unwrap() - 3.0 * a.num("B").unwrap()
            + 2.0 * a.num("C").unwrap()
            + replicate as f64 * 0.03125
    }
}

fn plan_for(seed: u64, reps: usize) -> RunPlan {
    let design = TwoLevelDesign::full(&["A", "B", "C"]);
    RunPlan::expand(two_level_assignments(&design), reps, seed)
}

/// Retry policy with zero backoff: the properties run thousands of
/// sweeps, and the backoff *choice* is already covered by unit tests.
fn fast_retries(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff_ms: 0.0,
        deadline_ms: None,
    }
}

proptest! {
    /// The satellite acceptance property: same plan seed + same fault
    /// schedule => identical ExecReport taxonomy (outcomes, attempts,
    /// retry totals, quarantine set) and identical responses, across
    /// repeated runs, thread counts, and order policies. Transient faults
    /// exhaust before the retry budget, so the recovered table must also
    /// equal the fault-free one.
    #[test]
    fn fault_schedule_and_taxonomy_replay_identically(
        seed in any::<u64>(),
        faultseed in any::<u64>(),
        threads in 2usize..7,
        reps in 1usize..4,
        permille in 100u64..700,
    ) {
        quiet_injected_panics();
        let plan = plan_for(seed, reps);
        let faults = || {
            Arc::new(FaultRegistry::new(faultseed).armed_transient(
                "exec.unit.run",
                Trigger::Seeded { permille: permille as u16, seed: faultseed },
                3,
                FaultAction::Panic,
            ))
        };
        let sweep = |threads: usize, order: OrderPolicy| {
            Scheduler::new(threads)
                .with_order(order)
                .with_policy(fast_retries(3))
                .with_faults(faults())
                .execute(&plan, &Surface, None)
        };

        let baseline = sweep(1, OrderPolicy::AsDesigned);
        prop_assert!(baseline.is_complete(), "3 attempts absorb 2 transient failures");

        // Repeated run: the schedule replays, not just the summary.
        let again = sweep(1, OrderPolicy::AsDesigned);
        prop_assert_eq!(&again.report.units, &baseline.report.units);
        prop_assert_eq!(again.report.retries, baseline.report.retries);

        // Threads and order are not factors of the failure taxonomy.
        for order in [OrderPolicy::AsDesigned, OrderPolicy::Shuffled(seed), OrderPolicy::Blocked] {
            let parallel = sweep(threads, order);
            prop_assert_eq!(&parallel.report.units, &baseline.report.units);
            prop_assert_eq!(&parallel.report.quarantined, &baseline.report.quarantined);
            prop_assert_eq!(parallel.report.retries, baseline.report.retries);
            prop_assert_eq!(&parallel.responses, &baseline.responses);
        }

        // Recovery is a re-measurement, not a different experiment.
        let clean = Scheduler::new(1)
            .execute(&plan, &Surface, None)
            .expect_complete()
            .0;
        prop_assert_eq!(baseline.table.as_ref().expect("complete"), &clean);
    }

    /// Persistent faults quarantine exactly the armed cells — predictable
    /// from the trigger alone, identical under any execution schedule,
    /// and the surviving cells still carry fault-free responses.
    #[test]
    fn persistent_faults_quarantine_the_same_cells_everywhere(
        seed in any::<u64>(),
        faultseed in any::<u64>(),
        threads in 2usize..7,
        reps in 1usize..4,
        modulus in 2u64..6,
    ) {
        quiet_injected_panics();
        let plan = plan_for(seed, reps);
        let remainder = faultseed % modulus;
        let faults = || {
            Arc::new(FaultRegistry::new(faultseed).armed_always(
                "exec.unit.run",
                Trigger::KeyModulo { modulus, remainder },
                FaultAction::Panic,
            ))
        };
        let expected: Vec<usize> = (0..plan.unit_count())
            .filter(|&u| u as u64 % modulus == remainder)
            .collect();

        let baseline = Scheduler::new(1)
            .with_policy(fast_retries(2))
            .with_faults(faults())
            .execute(&plan, &Surface, None);
        prop_assert_eq!(&baseline.report.quarantined, &expected);
        prop_assert!(baseline.table.is_none(), "partial sweeps never assemble");
        prop_assert_eq!(baseline.report.units.len(), plan.unit_count());

        let parallel = Scheduler::new(threads)
            .with_order(OrderPolicy::Shuffled(seed))
            .with_policy(fast_retries(2))
            .with_faults(faults())
            .execute(&plan, &Surface, None);
        prop_assert_eq!(&parallel.report.units, &baseline.report.units);
        prop_assert_eq!(&parallel.report.quarantined, &baseline.report.quarantined);
        prop_assert_eq!(&parallel.responses, &baseline.responses);

        // Every surviving cell measured its fault-free value.
        let clean = Scheduler::new(1)
            .execute(&plan, &Surface, None);
        for u in 0..plan.unit_count() {
            if expected.contains(&u) {
                prop_assert!(baseline.responses[u].is_none());
            } else {
                prop_assert_eq!(baseline.responses[u], clean.responses[u]);
            }
        }
    }
}

/// Timeouts, outside the property loop: wall-clock margins are wide (a
/// 10 s hang against a 25 ms deadline) so shared CI runners cannot flake
/// it, and the *outcome* — not the timing — is asserted deterministic.
#[test]
fn hang_timeouts_are_deterministic_outcomes() {
    quiet_injected_panics();
    let plan = plan_for(99, 1);
    let run = || {
        let faults = Arc::new(FaultRegistry::new(0).armed_always(
            "exec.unit.run",
            Trigger::Keys(vec![1, 4]),
            FaultAction::Hang { ms: 10_000.0 },
        ));
        let t0 = std::time::Instant::now();
        let sweep = Scheduler::new(4)
            .with_policy(RetryPolicy::default().with_deadline_ms(25.0))
            .with_faults(faults)
            .execute(&plan, &Surface, None);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(8),
            "watchdog must cancel 10 s hangs well before they finish"
        );
        sweep
    };
    let first = run();
    let second = run();
    assert_eq!(first.report.quarantined, vec![1, 4]);
    for u in [1usize, 4] {
        assert_eq!(first.report.units[u].outcome, UnitOutcome::TimedOut);
    }
    assert_eq!(first.report.units, second.report.units);
    assert_eq!(first.responses, second.responses);
    assert!(first.table.is_none());
}

/// A panicking *closure* — the experiment itself, not an injected fault —
/// is contained like any other unit failure: its cells are quarantined,
/// the healthy ones measured, and the table refuses to assemble.
#[test]
fn a_panicking_closure_yields_a_partial_sweep() {
    let design = Design::full_factorial(vec![Factor::numeric("a", &[1.0, 2.0, 3.0])]);
    let exp = |a: &Assignment| {
        let v = a.num("a").unwrap();
        assert!(v < 3.0, "experiment rejects a=3");
        v * 10.0
    };
    let plan = RunPlan::expand(design_assignments(&design), 2, 0);
    let sweep = Scheduler::new(4).execute(&plan, &exp, None);
    assert!(!sweep.is_complete());
    assert_eq!(sweep.report.quarantined.len(), 2, "both a=3 replicates");
    assert_eq!(
        sweep.responses.iter().filter(|r| r.is_some()).count(),
        4,
        "healthy cells all measured"
    );
}
