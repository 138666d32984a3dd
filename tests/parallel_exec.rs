//! Integration tests for the `perfeval-exec` scheduler: the determinism
//! contract (parallel ≡ serial, bit for bit, whatever the thread count or
//! run-order policy).

use perfeval::core::runner::ResponseTable;
use perfeval::core::two_level_assignments;
use perfeval::exec::RunPlan;
use perfeval::prelude::*;
use proptest::prelude::*;

const FACTOR_NAMES: [&str; 4] = ["A", "B", "C", "D"];

/// A deterministic response surface over a 2^k design: a linear model in
/// the factor signs plus a replicate-dependent term, so any scheduling bug
/// that swaps replicates (not just runs) also shows up.
struct PolyExperiment {
    coeffs: Vec<f64>,
    names: Vec<String>,
}

impl SyncExperiment for PolyExperiment {
    fn respond(&self, a: &Assignment, replicate: usize) -> f64 {
        let mut y = 10.0;
        for (c, n) in self.coeffs.iter().zip(&self.names) {
            y += c * a.num(n).unwrap();
        }
        y + replicate as f64 * 0.015625
    }
}

proptest! {
    /// The tentpole acceptance property: `run_parallel(n)` produces a
    /// [`ResponseTable`] bit-identical to the serial run for random 2^k
    /// designs, coefficient surfaces, replication counts, and thread
    /// counts.
    #[test]
    fn run_parallel_is_bit_identical_to_serial_on_random_two_level_designs(
        k in 2usize..5,
        threads in 2usize..9,
        reps in 1usize..5,
        coeffs in prop::collection::vec(-100.0..100.0f64, 4),
    ) {
        let names = &FACTOR_NAMES[..k];
        let design = TwoLevelDesign::full(names);
        let experiment = PolyExperiment {
            coeffs: coeffs[..k].to_vec(),
            names: names.iter().map(|n| (*n).to_string()).collect(),
        };
        let runner = Runner::new(reps);
        let serial = runner.run_two_level_sync(&design, &experiment);
        let parallel = runner.run_two_level_parallel(&design, &experiment, threads);
        prop_assert_eq!(parallel, serial);
    }

    /// Run order is a *policy*, never a factor: executing the same plan
    /// under AsDesigned, Shuffled(seed), and Blocked ordering yields the
    /// same table on any thread count.
    #[test]
    fn order_policy_never_changes_results(
        seed in any::<u64>(),
        threads in 1usize..6,
        reps in 1usize..4,
    ) {
        let design = TwoLevelDesign::full(&["A", "B", "C"]);
        let experiment = PolyExperiment {
            coeffs: vec![3.0, -2.0, 0.5],
            names: vec!["A".into(), "B".into(), "C".into()],
        };
        let plan = RunPlan::expand(
            two_level_assignments(&design),
            RunProtocol::hot(0, reps),
            seed,
        );
        let run = |order: OrderPolicy| -> ResponseTable {
            Scheduler::new(threads)
                .with_order(order)
                .execute(&plan, &experiment, None)
                .0
        };
        let as_designed = run(OrderPolicy::AsDesigned);
        prop_assert_eq!(run(OrderPolicy::Shuffled(seed)), as_designed.clone());
        prop_assert_eq!(run(OrderPolicy::Blocked), as_designed);
    }
}
