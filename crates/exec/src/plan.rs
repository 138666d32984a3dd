//! Run plans: a design × replication count expanded into independent units.
//!
//! The unit of scheduling is **one measured replicate of one design run**.
//! That granularity is what makes run-order policies meaningful (Jain's
//! ch. 16 replication blocks need to interleave *replicates*, not whole
//! runs) and what lets a worker pool balance load at the finest level.
//! It is also why a plan carries a replication count and not a
//! `RunProtocol`: a unit may run shuffled or on another thread, so neither
//! a warm-up nor "the last of three consecutive runs" would mean what the
//! protocol says. Protocols run serially through `RunProtocol::execute`.
//!
//! Determinism contract: every [`RunUnit`] carries a seed derived as a
//! *pure function* of the plan's root seed and the unit's `(run, replicate)`
//! coordinates ([`SplitMix64::split`]), and results are assembled into
//! slots addressed by those same coordinates. Execution order, thread
//! count, and scheduling jitter therefore cannot change the assembled
//! [`ResponseTable`] — the bit-identity the proptests assert.

use perfeval_core::runner::{Assignment, ResponseTable};
use perfeval_stats::rng::SplitMix64;

/// One independently schedulable measurement: a single replicate of a
/// single design run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunUnit {
    /// Position in the plan's canonical (as-designed) enumeration.
    pub index: usize,
    /// Design run (row) this unit belongs to.
    pub run: usize,
    /// Replicate number within the run, `0..replications`.
    pub replicate: usize,
    /// Per-unit seed: `split(root_seed, index)`. Identical whether the
    /// unit executes first, last, serially, or on any thread.
    pub seed: u64,
}

/// A design expanded into schedulable units.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// One assignment per design run, in design order.
    pub assignments: Vec<Assignment>,
    /// Measured replications per run (>= 1).
    replications: usize,
    /// Root seed all unit seeds derive from.
    pub root_seed: u64,
    /// Every unit, in canonical run-major order
    /// (`run 0 rep 0, run 0 rep 1, …, run 1 rep 0, …`).
    pub units: Vec<RunUnit>,
}

impl RunPlan {
    /// Expands `assignments × replications` into units with per-unit seeds
    /// derived from `root_seed`.
    ///
    /// # Panics
    /// Panics if `replications` is zero.
    pub fn expand(assignments: Vec<Assignment>, replications: usize, root_seed: u64) -> Self {
        assert!(replications > 0, "a plan needs >= 1 replication");
        let mut units = Vec::with_capacity(assignments.len() * replications);
        for run in 0..assignments.len() {
            for replicate in 0..replications {
                let index = run * replications + replicate;
                units.push(RunUnit {
                    index,
                    run,
                    replicate,
                    seed: SplitMix64::split(root_seed, index as u64).state(),
                });
            }
        }
        RunPlan {
            assignments,
            replications,
            root_seed,
            units,
        }
    }

    /// Number of units (runs × replications).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Number of design runs.
    pub fn run_count(&self) -> usize {
        self.assignments.len()
    }

    /// Measured replications per run.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// Assembles per-unit responses (indexed by canonical unit index) into
    /// a [`ResponseTable`], every replicate of every run kept.
    ///
    /// # Panics
    /// Panics if `responses.len() != self.unit_count()`.
    pub fn assemble(&self, responses: &[f64]) -> ResponseTable {
        assert_eq!(
            responses.len(),
            self.unit_count(),
            "one response per unit required"
        );
        ResponseTable {
            assignments: self.assignments.clone(),
            replicates: responses
                .chunks(self.replications)
                .map(<[f64]>::to_vec)
                .collect(),
        }
    }

    /// One-line plan description for reports: size and root seed.
    pub fn describe(&self) -> String {
        format!(
            "{} runs x {} replications = {} units, root seed {}",
            self.run_count(),
            self.replications,
            self.unit_count(),
            self.root_seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfeval_core::factor::Level;

    fn assignments(n: usize) -> Vec<Assignment> {
        (0..n)
            .map(|i| Assignment::new(vec![("x".into(), Level::Num(i as f64))]))
            .collect()
    }

    #[test]
    fn expand_enumerates_run_major() {
        let plan = RunPlan::expand(assignments(3), 2, 42);
        assert_eq!(plan.unit_count(), 6);
        let coords: Vec<(usize, usize)> = plan.units.iter().map(|u| (u.run, u.replicate)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        assert!(plan.units.iter().enumerate().all(|(i, u)| u.index == i));
    }

    #[test]
    fn unit_seeds_are_distinct_and_stable() {
        let plan_a = RunPlan::expand(assignments(4), 3, 7);
        let plan_b = RunPlan::expand(assignments(4), 3, 7);
        assert_eq!(plan_a.units, plan_b.units);
        let mut seeds: Vec<u64> = plan_a.units.iter().map(|u| u.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), plan_a.unit_count(), "seeds must be distinct");
    }

    #[test]
    fn different_roots_give_different_seeds() {
        let a = RunPlan::expand(assignments(2), 2, 1);
        let b = RunPlan::expand(assignments(2), 2, 2);
        assert_ne!(a.units[0].seed, b.units[0].seed);
    }

    #[test]
    fn assemble_keeps_all() {
        let plan = RunPlan::expand(assignments(2), 3, 0);
        let table = plan.assemble(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(
            table.replicates,
            vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]
        );
    }

    #[test]
    #[should_panic(expected = "one response per unit")]
    fn assemble_rejects_wrong_length() {
        let plan = RunPlan::expand(assignments(2), 2, 0);
        let _ = plan.assemble(&[1.0]);
    }

    #[test]
    fn describe_mentions_size_and_seed() {
        let plan = RunPlan::expand(assignments(3), 2, 99);
        let d = plan.describe();
        assert!(d.contains("3 runs x 2 replications"));
        assert!(d.contains("6 units"));
        assert!(d.contains("99"));
    }
}
