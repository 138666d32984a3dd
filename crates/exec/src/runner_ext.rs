//! `run_parallel`: the parallel sibling of [`Runner`]'s serial sync paths.
//!
//! `perfeval-core` cannot depend on this crate, so the parallel entry
//! points are an extension trait: bring [`ParallelRunner`] into scope and
//! every [`Runner`] gains `run_*_parallel` methods whose results are
//! bit-identical to the corresponding `run_*_sync` calls (the property the
//! workspace proptests assert).

use crate::order::OrderPolicy;
use crate::outcome::{RetryPolicy, SweepResult};
use crate::plan::RunPlan;
use crate::scheduler::Scheduler;
use perfeval_core::design::Design;
use perfeval_core::runner::{
    design_assignments, two_level_assignments, Assignment, ResponseTable, Runner, SyncExperiment,
};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_measure::protocol::RunProtocol;
use perfeval_trace::Tracer;

/// Root seed used when the caller does not care about per-unit seeds
/// (plain [`SyncExperiment`]s never see them).
const DEFAULT_ROOT_SEED: u64 = 0;

/// Parallel execution methods for [`Runner`].
pub trait ParallelRunner {
    /// Executes an explicit run list on `threads` workers. The returned
    /// table is bit-identical to
    /// [`Runner::run_assignments_sync`] on the same inputs.
    fn run_assignments_parallel<E: SyncExperiment>(
        &self,
        assignments: Vec<Assignment>,
        experiment: &E,
        threads: usize,
    ) -> ResponseTable;

    /// Executes a multi-level [`Design`] on `threads` workers.
    fn run_design_parallel<E: SyncExperiment>(
        &self,
        design: &Design,
        experiment: &E,
        threads: usize,
    ) -> ResponseTable;

    /// Executes a [`TwoLevelDesign`] on `threads` workers.
    fn run_two_level_parallel<E: SyncExperiment>(
        &self,
        design: &TwoLevelDesign,
        experiment: &E,
        threads: usize,
    ) -> ResponseTable;

    /// [`ParallelRunner::run_assignments_parallel`] recording the sweep
    /// into `tracer`: one `sweep` root span plus per-unit `unit <n>` spans
    /// (with `queue-wait`/`run` children) on each worker's lane.
    fn run_assignments_parallel_traced<E: SyncExperiment>(
        &self,
        assignments: Vec<Assignment>,
        experiment: &E,
        threads: usize,
        tracer: &Tracer,
    ) -> ResponseTable;

    /// [`ParallelRunner::run_design_parallel`] recording into `tracer`.
    fn run_design_parallel_traced<E: SyncExperiment>(
        &self,
        design: &Design,
        experiment: &E,
        threads: usize,
        tracer: &Tracer,
    ) -> ResponseTable;

    /// [`ParallelRunner::run_two_level_parallel`] recording into `tracer`.
    fn run_two_level_parallel_traced<E: SyncExperiment>(
        &self,
        design: &TwoLevelDesign,
        experiment: &E,
        threads: usize,
        tracer: &Tracer,
    ) -> ResponseTable;

    /// Failure-contained execution of an explicit run list: a panicking or
    /// hanging experiment yields a [`SweepResult`] with per-unit outcomes
    /// instead of killing the process. `policy` sets attempts, backoff,
    /// and the per-unit deadline.
    fn run_assignments_contained<E: SyncExperiment>(
        &self,
        assignments: Vec<Assignment>,
        experiment: &E,
        threads: usize,
        policy: RetryPolicy,
    ) -> SweepResult;
}

impl ParallelRunner for Runner {
    fn run_assignments_parallel<E: SyncExperiment>(
        &self,
        assignments: Vec<Assignment>,
        experiment: &E,
        threads: usize,
    ) -> ResponseTable {
        run_assignments(self, assignments, experiment, threads, None)
    }

    fn run_design_parallel<E: SyncExperiment>(
        &self,
        design: &Design,
        experiment: &E,
        threads: usize,
    ) -> ResponseTable {
        self.run_assignments_parallel(design_assignments(design), experiment, threads)
    }

    fn run_two_level_parallel<E: SyncExperiment>(
        &self,
        design: &TwoLevelDesign,
        experiment: &E,
        threads: usize,
    ) -> ResponseTable {
        self.run_assignments_parallel(two_level_assignments(design), experiment, threads)
    }

    fn run_assignments_parallel_traced<E: SyncExperiment>(
        &self,
        assignments: Vec<Assignment>,
        experiment: &E,
        threads: usize,
        tracer: &Tracer,
    ) -> ResponseTable {
        run_assignments(self, assignments, experiment, threads, Some(tracer))
    }

    fn run_design_parallel_traced<E: SyncExperiment>(
        &self,
        design: &Design,
        experiment: &E,
        threads: usize,
        tracer: &Tracer,
    ) -> ResponseTable {
        self.run_assignments_parallel_traced(
            design_assignments(design),
            experiment,
            threads,
            tracer,
        )
    }

    fn run_two_level_parallel_traced<E: SyncExperiment>(
        &self,
        design: &TwoLevelDesign,
        experiment: &E,
        threads: usize,
        tracer: &Tracer,
    ) -> ResponseTable {
        self.run_assignments_parallel_traced(
            two_level_assignments(design),
            experiment,
            threads,
            tracer,
        )
    }

    fn run_assignments_contained<E: SyncExperiment>(
        &self,
        assignments: Vec<Assignment>,
        experiment: &E,
        threads: usize,
        policy: RetryPolicy,
    ) -> SweepResult {
        let plan = RunPlan::expand(
            assignments,
            RunProtocol::hot(0, self.replications),
            DEFAULT_ROOT_SEED,
        );
        Scheduler::new(threads)
            .with_order(OrderPolicy::AsDesigned)
            .with_policy(policy)
            .execute_contained(&plan, experiment, None)
    }
}

/// Shared body of the traced/untraced assignment paths.
fn run_assignments<E: SyncExperiment>(
    runner: &Runner,
    assignments: Vec<Assignment>,
    experiment: &E,
    threads: usize,
    tracer: Option<&Tracer>,
) -> ResponseTable {
    // hot(0, n) + KeepPolicy::All mirrors the serial Runner exactly:
    // n measured replications per run, all kept.
    let plan = RunPlan::expand(
        assignments,
        RunProtocol::hot(0, runner.replications),
        DEFAULT_ROOT_SEED,
    );
    Scheduler::new(threads)
        .with_order(OrderPolicy::AsDesigned)
        .execute_traced(&plan, experiment, None, tracer)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfeval_core::factor::Factor;

    #[test]
    fn parallel_matches_serial_sync_on_a_design() {
        let design = Design::full_factorial(vec![
            Factor::numeric("a", &[1.0, 2.0, 3.0]),
            Factor::numeric("b", &[10.0, 20.0]),
        ]);
        let exp = |a: &Assignment| a.num("a").unwrap() * a.num("b").unwrap();
        let runner = Runner::new(4);
        let serial = runner.run_design_sync(&design, &exp);
        for threads in [1, 2, 8] {
            assert_eq!(runner.run_design_parallel(&design, &exp, threads), serial);
        }
    }

    #[test]
    fn parallel_matches_serial_sync_on_two_level() {
        let d = TwoLevelDesign::full(&["A", "B", "C"]);
        let exp = |a: &Assignment| {
            40.0 + 20.0 * a.num("A").unwrap() + 10.0 * a.num("B").unwrap()
                - 3.0 * a.num("C").unwrap()
        };
        let runner = Runner::new(2);
        assert_eq!(
            runner.run_two_level_parallel(&d, &exp, 4),
            runner.run_two_level_sync(&d, &exp)
        );
    }

    #[test]
    fn replicate_dependent_experiments_stay_identical() {
        struct Exp;
        impl SyncExperiment for Exp {
            fn respond(&self, a: &Assignment, replicate: usize) -> f64 {
                a.num("A").unwrap() * 7.0 + replicate as f64 * 0.125
            }
        }
        let d = TwoLevelDesign::full(&["A"]);
        let runner = Runner::new(5);
        assert_eq!(
            runner.run_two_level_parallel(&d, &Exp, 3),
            runner.run_two_level_sync(&d, &Exp)
        );
    }

    #[test]
    fn contained_run_survives_a_panicking_experiment() {
        let design = Design::full_factorial(vec![Factor::numeric("a", &[1.0, 2.0, 3.0])]);
        let exp = |a: &Assignment| {
            let v = a.num("a").unwrap();
            assert!(v < 3.0, "experiment rejects a=3");
            v * 10.0
        };
        let runner = Runner::new(2);
        let sweep = runner.run_assignments_contained(
            design_assignments(&design),
            &exp,
            4,
            RetryPolicy::default(),
        );
        assert!(!sweep.is_complete());
        assert_eq!(sweep.report.quarantined.len(), 2, "both a=3 replicates");
        assert_eq!(
            sweep.responses.iter().filter(|r| r.is_some()).count(),
            4,
            "healthy cells all measured"
        );
    }
}
