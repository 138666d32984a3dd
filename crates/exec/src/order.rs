//! Run-order policies.
//!
//! *When* a measurement executes matters: drifting environments (thermal
//! throttling, background daemons, file-system aging) correlate with wall
//! time, and an as-designed order confounds that drift with the factors.
//! Jain (ch. 16) and the tutorial's repeatability chapter recommend
//! randomizing or blocking run order. Because results are assembled by
//! canonical unit index (see [`crate::plan::RunPlan::assemble`]), the
//! policy affects only *which drift lands on which unit* — never the
//! mapping of responses to design rows.

use crate::plan::RunPlan;
use perfeval_stats::rng::SplitMix64;

/// Stream id reserving the shuffle's randomness; unit seeds use the plain
/// unit index, far below this.
const SHUFFLE_STREAM: u64 = 0x5348_5546_464C_4531; // "SHUFFLE1"

/// How the units of a [`RunPlan`] are ordered for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Canonical run-major order: run 0's replicates, then run 1's, …
    /// Simple, but confounds environment drift with the design.
    AsDesigned,
    /// Uniform random permutation (Fisher–Yates) from the given seed.
    /// The recommended default for published experiments.
    Shuffled(u64),
    /// Replicate-major blocks: every run's replicate 0, then every run's
    /// replicate 1, … Each block covers the whole design once, so drift
    /// between blocks becomes a between-replication effect the allocation
    /// of variation can see, instead of a hidden factor bias.
    Blocked,
}

impl OrderPolicy {
    /// Produces the execution order: a permutation of `0..plan.unit_count()`
    /// (canonical unit indices).
    pub fn order(&self, plan: &RunPlan) -> Vec<usize> {
        let n = plan.unit_count();
        match *self {
            OrderPolicy::AsDesigned => (0..n).collect(),
            OrderPolicy::Shuffled(seed) => {
                let mut order: Vec<usize> = (0..n).collect();
                // A dedicated stream so the shuffle can never collide with
                // per-unit measurement seeds derived from the same value.
                SplitMix64::split(seed, SHUFFLE_STREAM).shuffle(&mut order);
                order
            }
            OrderPolicy::Blocked => {
                let reps = plan.replications();
                let runs = plan.run_count();
                let mut order = Vec::with_capacity(n);
                for replicate in 0..reps {
                    for run in 0..runs {
                        order.push(run * reps + replicate);
                    }
                }
                order
            }
        }
    }

    /// One-line description for documentation/output headers.
    pub fn describe(&self) -> String {
        match self {
            OrderPolicy::AsDesigned => "as-designed order".to_owned(),
            OrderPolicy::Shuffled(seed) => format!("shuffled order (seed {seed})"),
            OrderPolicy::Blocked => "blocked order (replicate-major)".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfeval_core::factor::Level;
    use perfeval_core::runner::Assignment;

    fn plan(runs: usize, reps: usize) -> RunPlan {
        let assignments = (0..runs)
            .map(|i| Assignment::new(vec![("x".into(), Level::Num(i as f64))]))
            .collect();
        RunPlan::expand(assignments, reps, 11)
    }

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&i| {
                if i < n && !seen[i] {
                    seen[i] = true;
                    true
                } else {
                    false
                }
            })
    }

    #[test]
    fn as_designed_is_identity() {
        let p = plan(3, 2);
        assert_eq!(OrderPolicy::AsDesigned.order(&p), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn shuffled_is_a_permutation_covering_every_unit_once() {
        let p = plan(8, 3);
        let order = OrderPolicy::Shuffled(123).order(&p);
        assert!(is_permutation(&order, p.unit_count()));
        assert_ne!(
            order,
            (0..p.unit_count()).collect::<Vec<_>>(),
            "24 units staying sorted is astronomically unlikely"
        );
    }

    #[test]
    fn shuffled_is_seed_deterministic() {
        let p = plan(5, 4);
        assert_eq!(
            OrderPolicy::Shuffled(7).order(&p),
            OrderPolicy::Shuffled(7).order(&p)
        );
        assert_ne!(
            OrderPolicy::Shuffled(7).order(&p),
            OrderPolicy::Shuffled(8).order(&p)
        );
    }

    #[test]
    fn blocked_covers_whole_design_per_block() {
        let p = plan(3, 2);
        let order = OrderPolicy::Blocked.order(&p);
        assert!(is_permutation(&order, 6));
        // Block 0 = replicate 0 of runs 0,1,2; block 1 = replicate 1.
        let runs_in_block0: Vec<usize> = order[..3].iter().map(|&i| p.units[i].run).collect();
        assert_eq!(runs_in_block0, vec![0, 1, 2]);
        assert!(order[..3].iter().all(|&i| p.units[i].replicate == 0));
        assert!(order[3..].iter().all(|&i| p.units[i].replicate == 1));
    }

    #[test]
    fn describe_names_the_policy() {
        assert!(OrderPolicy::AsDesigned.describe().contains("as-designed"));
        assert!(OrderPolicy::Shuffled(5).describe().contains("seed 5"));
        assert!(OrderPolicy::Blocked.describe().contains("blocked"));
    }
}
