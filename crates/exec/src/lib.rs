//! # perfeval-exec
//!
//! Deterministic parallel experiment execution for the `perfeval` toolkit.
//!
//! The tutorial's repeatability chapter demands that an experiment be
//! re-runnable bit-identically from its recorded configuration. This crate
//! extends that demand across threads: a design executed on 8 workers must
//! produce the *same* response table as the same design executed serially,
//! or parallelism has silently become a factor of the experiment. The
//! pieces that make it hold:
//!
//! * [`plan`] — [`plan::RunPlan`] expands a design × replication count
//!   into independent [`plan::RunUnit`]s (one measured replicate each),
//!   with per-unit seeds derived as a pure function of a root seed.
//! * [`order`] — [`order::OrderPolicy`]: as-designed, shuffled (the
//!   Jain ch. 16 recommendation), or replicate-major blocks. Order affects
//!   which environment drift lands on which unit — never which response
//!   lands in which design row.
//! * [`progress`] — the end-of-sweep [`progress::ExecReport`] with
//!   per-worker counters, straggler flags, and the per-unit failure
//!   taxonomy.
//! * [`outcome`] — failure containment: [`outcome::UnitOutcome`] (a unit
//!   panicking or hanging becomes a *value*, not a dead sweep),
//!   [`outcome::RetryPolicy`] (bounded seeded-backoff retries, per-unit
//!   wall-clock deadlines), and [`outcome::SweepResult`] (a partial sweep
//!   reports its missing cells instead of silently assembling).
//! * [`scheduler`] — [`Scheduler::execute`], the one way a plan runs:
//!   units go through the shared `perfeval-pool` worker pool, with an
//!   `exec.unit.run` failpoint for `perfeval-fault` injection.
//!
//! ## Example
//!
//! ```
//! use perfeval_core::runner::{two_level_assignments, Assignment, Runner};
//! use perfeval_core::twolevel::TwoLevelDesign;
//! use perfeval_exec::{RunPlan, Scheduler};
//!
//! let design = TwoLevelDesign::full(&["memory", "cache"]);
//! let experiment = |a: &Assignment| {
//!     40.0 + 20.0 * a.num("memory").unwrap() + 10.0 * a.num("cache").unwrap()
//!         + 5.0 * a.num("memory").unwrap() * a.num("cache").unwrap()
//! };
//! let plan = RunPlan::expand(two_level_assignments(&design), 3, 0);
//! let (parallel, _report) = Scheduler::new(4)
//!     .execute(&plan, &experiment, None)
//!     .expect_complete();
//! let serial = Runner::new(3).run_two_level_sync(&design, &experiment);
//! assert_eq!(parallel, serial); // bit-identical, by construction
//! ```
#![warn(missing_docs)]

pub mod order;
pub mod outcome;
pub mod plan;
pub mod progress;
pub mod scheduler;

pub use order::OrderPolicy;
pub use outcome::{RetryPolicy, SweepResult, UnitOutcome, UnitReport};
pub use perfeval_pool::{parallel_map, parallel_map_traced, WorkerStats};
pub use plan::{RunPlan, RunUnit};
pub use progress::ExecReport;
pub use scheduler::{Scheduler, UnitExperiment};
