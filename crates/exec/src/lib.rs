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
//! * [`plan`] — [`plan::RunPlan`] expands a design × protocol into
//!   independent [`plan::RunUnit`]s (one measured replicate each), with
//!   per-unit seeds derived as a pure function of a root seed.
//! * [`order`] — [`order::OrderPolicy`]: as-designed, shuffled (the
//!   Jain ch. 16 recommendation), or replicate-major blocks. Order affects
//!   which environment drift lands on which unit — never which response
//!   lands in which design row.
//! * [`pool`] — a dependency-free worker pool (`std::thread::scope` + an
//!   atomic work cursor); results land in slots addressed by unit index.
//! * [`progress`] — per-unit progress snapshots (completed/total,
//!   throughput, ETA) and an end-of-sweep [`progress::ExecReport`] with
//!   per-worker counters, straggler flags, and the per-unit failure
//!   taxonomy.
//! * [`outcome`] — failure containment: [`outcome::UnitOutcome`] (a unit
//!   panicking or hanging becomes a *value*, not a dead sweep),
//!   [`outcome::RetryPolicy`] (bounded seeded-backoff retries, per-unit
//!   wall-clock deadlines), and [`outcome::SweepResult`] (a partial sweep
//!   reports its missing cells instead of silently assembling).
//! * [`scheduler`] — [`scheduler::Scheduler`] ties the above together,
//!   with an `exec.unit.run` failpoint for `perfeval-fault` injection.
//! * [`runner_ext`] — [`runner_ext::ParallelRunner`] grafts
//!   `run_*_parallel` methods onto `perfeval_core::Runner`.
//!
//! ## Example
//!
//! ```
//! use perfeval_core::runner::{Assignment, Runner};
//! use perfeval_core::twolevel::TwoLevelDesign;
//! use perfeval_exec::ParallelRunner;
//!
//! let design = TwoLevelDesign::full(&["memory", "cache"]);
//! let experiment = |a: &Assignment| {
//!     40.0 + 20.0 * a.num("memory").unwrap() + 10.0 * a.num("cache").unwrap()
//!         + 5.0 * a.num("memory").unwrap() * a.num("cache").unwrap()
//! };
//! let runner = Runner::new(3);
//! let parallel = runner.run_two_level_parallel(&design, &experiment, 4);
//! let serial = runner.run_two_level_sync(&design, &experiment);
//! assert_eq!(parallel, serial); // bit-identical, by construction
//! ```
#![warn(missing_docs)]

pub mod order;
pub mod outcome;
pub mod plan;
pub mod pool;
pub mod progress;
pub mod runner_ext;
pub mod scheduler;

pub use order::OrderPolicy;
pub use outcome::{RetryPolicy, SweepResult, UnitOutcome, UnitReport};
pub use plan::{RunPlan, RunUnit};
pub use pool::{parallel_map, parallel_map_caught, parallel_map_traced, CaughtPanic, WorkerStats};
pub use progress::{ExecReport, ProgressSnapshot};
pub use runner_ext::ParallelRunner;
pub use scheduler::{Scheduler, UnitExperiment};
