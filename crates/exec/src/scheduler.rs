//! The scheduler: executes a [`RunPlan`] across the worker pool.
//!
//! Responsibilities, in order: permute the units per the
//! [`OrderPolicy`], execute them through the worker pool, scatter results
//! back into canonical slots, and assemble the [`ResponseTable`]. The
//! determinism argument lives in the scatter step: position `p` of the
//! execution order maps to canonical unit `order[p]`, so the assembled
//! table is invariant under the order policy and thread count.
//!
//! Failure containment (the [`RetryPolicy`] path): every measurement
//! attempt runs under `catch_unwind`, so a panicking unit yields
//! [`UnitOutcome::Panicked`] instead of killing the sweep; a watchdog
//! thread cancels units past their wall-clock deadline (cooperatively,
//! through the fault layer's cancel token — in-process containment cannot
//! kill a thread), yielding [`UnitOutcome::TimedOut`]; failed units retry
//! with seeded, bounded backoff up to `max_attempts`, and units that fail
//! every attempt are quarantined. The [`SweepResult`] reports every cell
//! either way — a partial sweep never silently assembles into a table.

use crate::order::OrderPolicy;
use crate::outcome::{RetryPolicy, SweepResult, UnitOutcome, UnitReport};
use crate::plan::{RunPlan, RunUnit};
use crate::pool::parallel_map_caught;
use crate::progress::{ExecReport, ProgressSnapshot};
use perfeval_core::runner::{Assignment, ResponseTable, SyncExperiment};
use perfeval_fault::{panic_message, set_cancel_token, FaultRegistry, TimeoutSignal};
use perfeval_stats::backoff_ms;
use perfeval_trace::Tracer;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A system under test addressed at unit granularity. The blanket impl
/// adapts any [`SyncExperiment`]; implement this directly to consume the
/// per-unit seed (e.g. to drive a per-measurement workload generator).
pub trait UnitExperiment: Sync {
    /// Measures one unit and returns its response.
    fn respond_unit(&self, assignment: &Assignment, unit: &RunUnit) -> f64;

    /// Optional per-unit setup (e.g. flush caches for cold protocols).
    fn prepare(&self, _assignment: &Assignment) {}
}

impl<E: SyncExperiment> UnitExperiment for E {
    fn respond_unit(&self, assignment: &Assignment, unit: &RunUnit) -> f64 {
        SyncExperiment::respond(self, assignment, unit.replicate)
    }

    fn prepare(&self, assignment: &Assignment) {
        SyncExperiment::prepare(self, assignment);
    }
}

/// Progress hook type: called after every completed unit.
pub type ProgressHook<'a> = &'a (dyn Fn(ProgressSnapshot) + Sync);

/// The watchdog lane's cancel board: canonical unit index → (deadline,
/// cancel flag). Workers register an entry per attempt; the watchdog trips
/// the flag when the deadline passes.
type CancelBoard = Mutex<HashMap<usize, (Instant, Arc<AtomicBool>)>>;

/// Executes run plans deterministically in parallel.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Worker threads (1 = serial, no spawning).
    pub threads: usize,
    /// Execution-order policy.
    pub order: OrderPolicy,
    /// Failure-containment policy (attempts, backoff, deadline). The
    /// default grants one attempt with no deadline.
    pub policy: RetryPolicy,
    /// Fault registry consulted at the `exec.unit.run` failpoint before
    /// every measurement attempt; `None` injects nothing.
    pub faults: Option<Arc<FaultRegistry>>,
}

impl Scheduler {
    /// A scheduler with `threads` workers and as-designed order.
    pub fn new(threads: usize) -> Self {
        Scheduler {
            threads: threads.max(1),
            order: OrderPolicy::AsDesigned,
            policy: RetryPolicy::default(),
            faults: None,
        }
    }

    /// Sets the order policy.
    pub fn with_order(mut self, order: OrderPolicy) -> Self {
        self.order = order;
        self
    }

    /// Sets the failure-containment policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms a fault registry: the scheduler evaluates the `exec.unit.run`
    /// failpoint (keyed by canonical unit index, 1-based attempt) before
    /// every measurement attempt.
    pub fn with_faults(mut self, faults: Arc<FaultRegistry>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Executes `plan` against `experiment`, reporting progress through
    /// `progress` (if given).
    ///
    /// Returns the assembled [`ResponseTable`] — bit-identical regardless
    /// of `threads` and `order` — plus an [`ExecReport`] describing how
    /// the execution went.
    ///
    /// # Panics
    /// Panics with the missing-cell taxonomy if any unit failed every
    /// allowed attempt (the historical fail-fast contract). Callers that
    /// can degrade should use [`Scheduler::execute_contained`].
    pub fn execute<E: UnitExperiment + ?Sized>(
        &self,
        plan: &RunPlan,
        experiment: &E,
        progress: Option<ProgressHook<'_>>,
    ) -> (ResponseTable, ExecReport) {
        self.execute_contained_traced(plan, experiment, progress, None)
            .expect_complete()
    }

    /// [`Scheduler::execute`] with an optional tracer.
    ///
    /// The sweep records one `sweep` root span on the calling thread and,
    /// per unit, a `unit <n>` span on whichever worker lane ran it. Each
    /// unit span starts when its worker became free, so it decomposes into
    /// a `queue-wait` child (dispatch) and a `run` child per measurement
    /// attempt. Unit spans carry `queued_ms`, `outcome`, and `attempts`
    /// attributes.
    ///
    /// # Panics
    /// Like [`Scheduler::execute`], panics if any unit was quarantined.
    pub fn execute_traced<E: UnitExperiment + ?Sized>(
        &self,
        plan: &RunPlan,
        experiment: &E,
        progress: Option<ProgressHook<'_>>,
        tracer: Option<&Tracer>,
    ) -> (ResponseTable, ExecReport) {
        self.execute_contained_traced(plan, experiment, progress, tracer)
            .expect_complete()
    }

    /// Failure-contained execution: never panics on unit failure. Returns
    /// a [`SweepResult`] whose report accounts for every cell; the table
    /// assembles only when every cell was measured.
    pub fn execute_contained<E: UnitExperiment + ?Sized>(
        &self,
        plan: &RunPlan,
        experiment: &E,
        progress: Option<ProgressHook<'_>>,
    ) -> SweepResult {
        self.execute_contained_traced(plan, experiment, progress, None)
    }

    /// [`Scheduler::execute_contained`] with an optional tracer. When a
    /// deadline is set, a `watchdog` lane appears in the trace with one
    /// `deadline-fired` span per cancelled attempt.
    pub fn execute_contained_traced<E: UnitExperiment + ?Sized>(
        &self,
        plan: &RunPlan,
        experiment: &E,
        progress: Option<ProgressHook<'_>>,
        tracer: Option<&Tracer>,
    ) -> SweepResult {
        let order = self.order.order(plan);
        let total = order.len();
        let executed = AtomicUsize::new(0);
        let retries = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let t0 = Instant::now();

        let mut sweep = tracer.map(|t| t.span("sweep"));
        if let Some(g) = sweep.as_mut() {
            g.attr("units", total)
                .attr("threads", self.threads)
                .attr("order", self.order.describe())
                .attr("policy", self.policy.describe());
        }
        let sweep_start_ns = tracer.map(|t| t.now_ns()).unwrap_or(0);

        let board: CancelBoard = Mutex::new(HashMap::new());
        let watchdog_stop = AtomicBool::new(false);

        let run_unit = |p: usize| -> (Option<f64>, UnitReport) {
            let canonical = order[p];
            let unit = &plan.units[canonical];
            let assignment = &plan.assignments[unit.run];
            // Anchor the unit span where this worker became free: the gap
            // until the work is actually picked up is genuine queue wait,
            // not run time — conflating them is exactly the "be aware what
            // you measure" trap.
            let anchor_ns = tracer.map(|t| t.lane_resume_ns().max(sweep_start_ns));
            let pickup_ns = tracer.map(|t| t.now_ns());
            let mut unit_span =
                tracer.map(|t| t.span_at(&format!("unit {canonical}"), anchor_ns.unwrap()));
            if let (Some(g), Some(anchor), Some(pickup)) =
                (unit_span.as_mut(), anchor_ns, pickup_ns)
            {
                g.attr("run", unit.run)
                    .attr("replicate", unit.replicate)
                    .attr("queued_ms", pickup.saturating_sub(anchor) as f64 / 1e6);
            }
            drop(tracer.map(|t| t.span_at("queue-wait", anchor_ns.unwrap_or(0))));

            let mut attempt = 0u32;
            let (value, outcome, attempts) = loop {
                attempt += 1;
                if attempt > 1 {
                    retries.fetch_add(1, Ordering::Relaxed);
                    // At most 250 ms, and the same for a unit seed and attempt.
                    let wait = backoff_ms(self.policy.backoff_ms, 250.0, unit.seed, attempt);
                    if wait > 0.0 {
                        let mut bspan = tracer.map(|t| t.span("backoff"));
                        if let Some(g) = bspan.as_mut() {
                            g.attr("attempt", attempt as usize);
                        }
                        std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
                    }
                }

                let cancel = Arc::new(AtomicBool::new(false));
                let started = Instant::now();
                if let Some(deadline) = self.policy.deadline_ms {
                    board.lock().unwrap_or_else(PoisonError::into_inner).insert(
                        canonical,
                        (
                            started + Duration::from_secs_f64(deadline / 1e3),
                            Arc::clone(&cancel),
                        ),
                    );
                }
                set_cancel_token(Some(Arc::clone(&cancel)));
                let mut run_span = tracer.map(|t| t.span("run"));
                if let Some(g) = run_span.as_mut() {
                    g.attr("attempt", attempt as usize);
                }
                // AssertUnwindSafe: the attempt writes nothing the sweep
                // reads after a failure — its only output is the caught
                // return value.
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if let Some(faults) = &self.faults {
                        faults.fire("exec.unit.run", canonical as u64, attempt);
                    }
                    experiment.prepare(assignment);
                    experiment.respond_unit(assignment, unit)
                }));
                drop(run_span);
                set_cancel_token(None);
                if self.policy.deadline_ms.is_some() {
                    board
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&canonical);
                }

                let failure = match result {
                    Ok(v) => {
                        // A value computed past the deadline is a measurement
                        // the policy already declared invalid — classify,
                        // don't keep it.
                        let late = self.policy.deadline_ms.is_some_and(|d| {
                            cancel.load(Ordering::Relaxed)
                                || started.elapsed().as_secs_f64() * 1e3 > d
                        });
                        if !late {
                            executed.fetch_add(1, Ordering::Relaxed);
                            break (Some(v), UnitOutcome::Measured, attempt);
                        }
                        UnitOutcome::TimedOut
                    }
                    Err(payload) => {
                        if payload.downcast_ref::<TimeoutSignal>().is_some() {
                            UnitOutcome::TimedOut
                        } else {
                            UnitOutcome::Panicked(panic_message(payload.as_ref()))
                        }
                    }
                };
                if attempt >= self.policy.max_attempts {
                    break (None, failure, attempt);
                }
            };

            let quarantined = value.is_none();
            if let Some(g) = unit_span.as_mut() {
                g.attr("outcome", outcome.label())
                    .attr("attempts", attempts as usize);
                if quarantined {
                    g.attr("quarantined", "true");
                }
            }
            drop(unit_span);
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(hook) = progress {
                hook(ProgressSnapshot {
                    completed: done,
                    total,
                    elapsed_secs: t0.elapsed().as_secs_f64(),
                });
            }
            (
                value,
                UnitReport {
                    unit: canonical,
                    run: unit.run,
                    replicate: unit.replicate,
                    outcome,
                    attempts,
                    quarantined,
                },
            )
        };

        // The watchdog shares the workers' scope so it can borrow the
        // board and tracer; it polls well under the deadline granularity
        // and trips cancel flags — the fault layer's `Hang` observes them.
        let (slots, workers) = std::thread::scope(|scope| {
            let watchdog = self.policy.deadline_ms.map(|deadline| {
                let board = &board;
                let stop = &watchdog_stop;
                let poll = Duration::from_secs_f64((deadline / 8.0).clamp(1.0, 10.0) / 1e3);
                std::thread::Builder::new()
                    .name("watchdog".into())
                    .spawn_scoped(scope, move || {
                        if let Some(t) = tracer {
                            t.label_thread("watchdog");
                        }
                        while !stop.load(Ordering::Relaxed) {
                            let now = Instant::now();
                            {
                                let entries = board.lock().unwrap_or_else(PoisonError::into_inner);
                                for (unit, (due, flag)) in entries.iter() {
                                    if now >= *due && !flag.swap(true, Ordering::Relaxed) {
                                        if let Some(t) = tracer {
                                            let mut g = t.span("deadline-fired");
                                            g.attr("unit", *unit);
                                        }
                                    }
                                }
                            }
                            std::thread::sleep(poll);
                        }
                    })
                    .expect("failed to spawn watchdog")
            });
            let out = parallel_map_caught(total, self.threads, tracer, run_unit);
            watchdog_stop.store(true, Ordering::Relaxed);
            if let Some(handle) = watchdog {
                let _ = handle.join();
            }
            out
        });
        drop(sweep);

        // Scatter execution-order results back into canonical unit slots.
        // The pool-level catch is a second belt — `run_unit` contains its
        // own panics — but a panicking progress hook still lands here.
        let mut responses: Vec<Option<f64>> = vec![None; plan.unit_count()];
        let mut units: Vec<Option<UnitReport>> = vec![None; plan.unit_count()];
        for (p, slot) in slots.into_iter().enumerate() {
            let canonical = order[p];
            let (value, unit_report) = match slot {
                Ok(pair) => pair,
                Err(caught) => {
                    let unit = &plan.units[canonical];
                    (
                        None,
                        UnitReport {
                            unit: canonical,
                            run: unit.run,
                            replicate: unit.replicate,
                            outcome: UnitOutcome::Panicked(caught.message),
                            attempts: 1,
                            quarantined: true,
                        },
                    )
                }
            };
            responses[canonical] = value;
            units[canonical] = Some(unit_report);
        }
        let units: Vec<UnitReport> = units
            .into_iter()
            .map(|u| u.expect("every unit reported"))
            .collect();
        let quarantined: Vec<usize> = units
            .iter()
            .filter(|u| u.quarantined)
            .map(|u| u.unit)
            .collect();

        let table = if responses.iter().all(Option::is_some) {
            let values: Vec<f64> = responses.iter().map(|v| v.unwrap()).collect();
            Some(plan.assemble(&values))
        } else {
            None
        };
        let report = ExecReport {
            threads: self.threads,
            total_units: total,
            executed: executed.into_inner(),
            retries: retries.into_inner(),
            quarantined,
            units,
            wall_secs: t0.elapsed().as_secs_f64(),
            workers,
            order: self.order.describe(),
            plan: plan.describe(),
        };
        SweepResult {
            responses,
            table,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfeval_core::factor::Level;
    use perfeval_fault::{FaultAction, Trigger};
    use perfeval_measure::protocol::RunProtocol;

    fn plan(runs: usize, reps: usize, seed: u64) -> RunPlan {
        let assignments = (0..runs)
            .map(|i| Assignment::new(vec![("x".into(), Level::Num(i as f64))]))
            .collect();
        RunPlan::expand(assignments, RunProtocol::hot(0, reps), seed)
    }

    /// Response depends on assignment and replicate only — the purity the
    /// determinism contract requires.
    fn experiment() -> impl SyncExperiment {
        struct Exp;
        impl SyncExperiment for Exp {
            fn respond(&self, a: &Assignment, replicate: usize) -> f64 {
                a.num("x").unwrap() * 100.0 + replicate as f64
            }
        }
        Exp
    }

    #[test]
    fn identical_across_threads_and_orders() {
        let p = plan(5, 3, 42);
        let exp = experiment();
        let baseline = Scheduler::new(1).execute(&p, &exp, None).0;
        for threads in [2, 4] {
            for order in [
                OrderPolicy::AsDesigned,
                OrderPolicy::Shuffled(9),
                OrderPolicy::Blocked,
            ] {
                let table = Scheduler::new(threads)
                    .with_order(order)
                    .execute(&p, &exp, None)
                    .0;
                assert_eq!(table, baseline, "threads={threads} order={order:?}");
            }
        }
    }

    #[test]
    fn progress_hook_fires_once_per_unit() {
        let p = plan(3, 2, 0);
        let calls = AtomicUsize::new(0);
        let hook = |s: ProgressSnapshot| {
            assert_eq!(s.total, 6);
            assert!(s.completed >= 1 && s.completed <= 6);
            calls.fetch_add(1, Ordering::Relaxed);
        };
        let exp = experiment();
        Scheduler::new(2).execute(&p, &exp, Some(&hook));
        assert_eq!(calls.into_inner(), 6);
    }

    #[test]
    fn closure_experiments_work_via_blanket_impls() {
        let p = plan(2, 2, 0);
        let exp = |a: &Assignment| a.num("x").unwrap() + 1.0;
        let (table, _) = Scheduler::new(1).execute(&p, &exp, None);
        assert_eq!(table.means(), vec![1.0, 2.0]);
    }

    #[test]
    fn traced_sweep_records_units_across_worker_lanes() {
        let p = plan(4, 4, 1);
        let exp = |a: &Assignment| {
            // Enough work per unit that both workers demonstrably run some.
            let mut acc = a.num("x").unwrap() as u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (acc % 97) as f64
        };
        let tracer = Tracer::new();
        let untraced = Scheduler::new(2).execute(&p, &exp, None).0;
        let traced = Scheduler::new(2)
            .execute_traced(&p, &exp, None, Some(&tracer))
            .0;
        assert_eq!(traced, untraced, "tracing must not perturb results");

        let trace = tracer.snapshot();
        let sweep = trace.find("sweep").next().expect("sweep span recorded");
        assert_eq!(sweep.attr("units"), Some(&16u64.into()));
        assert_eq!(trace.find("sweep").count(), 1, "one sweep root");

        // Two workers: the calling thread (its units nest under `sweep` on
        // its own lane) and one helper, `worker-1`.
        let lanes_with_units: Vec<&str> = trace
            .lanes
            .iter()
            .filter(|l| l.records.iter().any(|s| s.name.starts_with("unit ")))
            .map(|l| l.label.as_str())
            .collect();
        assert_eq!(
            lanes_with_units.len(),
            2,
            "expected unit spans on both workers' lanes, got {lanes_with_units:?}"
        );
        assert!(
            lanes_with_units.contains(&"worker-1"),
            "{lanes_with_units:?}"
        );

        // 16 units: every unit span has a queue-wait child and a run child.
        let units: Vec<_> = trace
            .lanes
            .iter()
            .flat_map(|l| l.records.iter())
            .filter(|s| s.name.starts_with("unit "))
            .collect();
        assert_eq!(units.len(), 16);
        for u in &units {
            assert!(u.attr("queued_ms").is_some());
            assert_eq!(u.attr("outcome"), Some(&"measured".into()));
            assert_eq!(u.attr("attempts"), Some(&1u64.into()));
        }
        assert_eq!(trace.find("queue-wait").count(), 16);
        assert_eq!(trace.find("run").count(), 16);
    }

    #[test]
    fn serial_traced_sweep_nests_units_under_sweep() {
        let p = plan(2, 2, 3);
        let exp = experiment();
        let tracer = Tracer::new();
        Scheduler::new(1).execute_traced(&p, &exp, None, Some(&tracer));
        let trace = tracer.snapshot();
        assert_eq!(trace.lanes.len(), 1, "serial sweep uses one lane");
        let sweep = trace.find("sweep").next().expect("sweep recorded").clone();
        let units: Vec<_> = trace
            .lanes
            .iter()
            .flat_map(|l| l.records.iter())
            .filter(|s| s.name.starts_with("unit "))
            .collect();
        assert_eq!(units.len(), 4);
        let mut prev_end = 0u64;
        for u in &units {
            assert_eq!(u.parent, Some(sweep.id), "unit nests under sweep");
            assert!(u.start_ns >= sweep.start_ns && u.end_ns <= sweep.end_ns);
            assert!(u.start_ns >= prev_end, "sibling units must not overlap");
            prev_end = u.end_ns;
        }
    }

    #[test]
    fn unit_experiment_can_consume_seeds() {
        struct Seeded;
        impl UnitExperiment for Seeded {
            fn respond_unit(&self, _: &Assignment, unit: &RunUnit) -> f64 {
                unit.seed as f64
            }
        }
        let p = plan(2, 1, 5);
        let serial = Scheduler::new(1).execute(&p, &Seeded, None).0;
        let parallel = Scheduler::new(4)
            .with_order(OrderPolicy::Shuffled(3))
            .execute(&p, &Seeded, None)
            .0;
        assert_eq!(serial, parallel, "seeds are order-independent");
    }

    // ---- failure containment -------------------------------------------

    /// A registry that panics units 2 and 5 on every attempt.
    fn persistent_panics() -> Arc<FaultRegistry> {
        Arc::new(FaultRegistry::new(7).armed_always(
            "exec.unit.run",
            Trigger::Keys(vec![2, 5]),
            FaultAction::Panic,
        ))
    }

    #[test]
    fn panicking_units_are_contained_and_reported() {
        let p = plan(3, 2, 42);
        let exp = experiment();
        for threads in [1, 4] {
            let sweep = Scheduler::new(threads)
                .with_faults(persistent_panics())
                .execute_contained(&p, &exp, None);
            assert!(!sweep.is_complete());
            assert!(sweep.table.is_none(), "partial sweep never assembles");
            assert_eq!(sweep.report.quarantined, vec![2, 5]);
            assert_eq!(sweep.report.units.len(), 6, "every cell accounted for");
            for u in &sweep.report.units {
                if u.unit == 2 || u.unit == 5 {
                    assert!(matches!(u.outcome, UnitOutcome::Panicked(_)));
                    assert!(u.quarantined);
                    assert!(sweep.responses[u.unit].is_none());
                } else {
                    assert_eq!(u.outcome, UnitOutcome::Measured);
                    assert!(sweep.responses[u.unit].is_some());
                }
            }
        }
    }

    #[test]
    fn transient_faults_recover_via_retries_bit_identically() {
        let p = plan(4, 2, 9);
        let exp = experiment();
        let clean = Scheduler::new(1).execute(&p, &exp, None).0;
        // Every unit panics on attempts 1-2, succeeds on attempt 3.
        let faults = || {
            Arc::new(FaultRegistry::new(1).armed_transient(
                "exec.unit.run",
                Trigger::Always,
                3,
                FaultAction::Panic,
            ))
        };
        for threads in [1, 4] {
            let sweep = Scheduler::new(threads)
                .with_policy(RetryPolicy::retries(2))
                .with_faults(faults())
                .execute_contained(&p, &exp, None);
            assert!(sweep.is_complete(), "threads={threads}");
            assert_eq!(
                sweep.table.as_ref().unwrap(),
                &clean,
                "recovered sweep is bit-identical to the clean one"
            );
            assert_eq!(sweep.report.retries, 16, "2 extra attempts x 8 units");
            assert!(sweep
                .report
                .units
                .iter()
                .all(|u| u.attempts == 3 && u.outcome == UnitOutcome::Measured));
        }
    }

    #[test]
    fn exhausted_retries_quarantine_with_final_outcome() {
        let p = plan(2, 1, 3);
        let exp = experiment();
        let faults = Arc::new(FaultRegistry::new(0).armed_always(
            "exec.unit.run",
            Trigger::Key(0),
            FaultAction::Panic,
        ));
        let sweep = Scheduler::new(1)
            .with_policy(RetryPolicy::retries(1))
            .with_faults(faults)
            .execute_contained(&p, &exp, None);
        assert_eq!(sweep.report.quarantined, vec![0]);
        let failed = &sweep.report.units[0];
        assert_eq!(failed.attempts, 2, "both attempts consumed");
        assert!(matches!(failed.outcome, UnitOutcome::Panicked(_)));
        assert_eq!(sweep.report.retries, 1);
    }

    #[test]
    fn hung_units_time_out_via_watchdog() {
        let p = plan(2, 1, 8);
        let exp = experiment();
        // Unit 1 hangs for 30s (far past the deadline); the watchdog must
        // cancel it, and unit 0 must still measure.
        let faults = Arc::new(FaultRegistry::new(0).armed_always(
            "exec.unit.run",
            Trigger::Key(1),
            FaultAction::Hang { ms: 30_000.0 },
        ));
        let t0 = Instant::now();
        let sweep = Scheduler::new(2)
            .with_policy(RetryPolicy::default().with_deadline_ms(40.0))
            .with_faults(faults)
            .execute_contained(&p, &exp, None);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "watchdog cancelled the hang"
        );
        assert_eq!(sweep.report.units[1].outcome, UnitOutcome::TimedOut);
        assert!(sweep.report.units[1].quarantined);
        assert_eq!(sweep.report.units[0].outcome, UnitOutcome::Measured);
        assert_eq!(sweep.report.quarantined, vec![1]);
    }

    #[test]
    fn traced_watchdog_lane_records_cancellations() {
        let p = plan(1, 1, 0);
        let exp = experiment();
        let faults = Arc::new(FaultRegistry::new(0).armed_always(
            "exec.unit.run",
            Trigger::Always,
            FaultAction::Hang { ms: 30_000.0 },
        ));
        let tracer = Tracer::new();
        let sweep = Scheduler::new(1)
            .with_policy(RetryPolicy::default().with_deadline_ms(30.0))
            .with_faults(faults)
            .execute_contained_traced(&p, &exp, None, Some(&tracer));
        assert_eq!(sweep.report.units[0].outcome, UnitOutcome::TimedOut);
        let trace = tracer.snapshot();
        assert!(
            trace.lanes.iter().any(|l| l.label == "watchdog"),
            "watchdog lane present"
        );
        assert!(
            trace.find("deadline-fired").count() >= 1,
            "cancellation recorded"
        );
        let unit = trace
            .lanes
            .iter()
            .flat_map(|l| l.records.iter())
            .find(|s| s.name.starts_with("unit "))
            .expect("unit span");
        assert_eq!(unit.attr("outcome"), Some(&"timed_out".into()));
        assert_eq!(unit.attr("quarantined"), Some(&"true".into()));
    }

    #[test]
    #[should_panic(expected = "sweep incomplete")]
    fn legacy_execute_panics_with_taxonomy_on_quarantine() {
        let p = plan(3, 2, 42);
        let exp = experiment();
        let _ = Scheduler::new(1)
            .with_faults(persistent_panics())
            .execute(&p, &exp, None);
    }

    #[test]
    fn failure_report_is_invariant_under_threads_and_order() {
        let p = plan(4, 3, 13);
        let exp = experiment();
        let faults = || {
            Arc::new(
                FaultRegistry::new(5)
                    .armed_always(
                        "exec.unit.run",
                        Trigger::KeyModulo {
                            modulus: 5,
                            remainder: 2,
                        },
                        FaultAction::Panic,
                    )
                    .armed_transient("exec.unit.run", Trigger::Key(0), 2, FaultAction::Panic),
            )
        };
        let baseline = Scheduler::new(1)
            .with_policy(RetryPolicy::retries(1))
            .with_faults(faults())
            .execute_contained(&p, &exp, None);
        for threads in [2, 4] {
            for order in [OrderPolicy::Shuffled(3), OrderPolicy::Blocked] {
                let sweep = Scheduler::new(threads)
                    .with_order(order)
                    .with_policy(RetryPolicy::retries(1))
                    .with_faults(faults())
                    .execute_contained(&p, &exp, None);
                assert_eq!(sweep.report.units, baseline.report.units);
                assert_eq!(sweep.report.quarantined, baseline.report.quarantined);
                assert_eq!(sweep.report.retries, baseline.report.retries);
                assert_eq!(sweep.responses, baseline.responses);
            }
        }
    }
}
