//! Integration tests for the `perfeval-exec` scheduler: the determinism
//! contract (parallel ≡ serial, bit for bit, whatever the thread count or
//! run-order policy). `Runner`'s `run_*_sync` loops are the serial
//! reference; `Scheduler::execute` is the one parallel path.

use perfeval::core::runner::ResponseTable;
use perfeval::core::{design_assignments, two_level_assignments};
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

/// Runs `assignments × reps` on `threads` workers in design order and
/// returns the assembled table.
fn run_parallel(
    assignments: Vec<Assignment>,
    reps: usize,
    experiment: &impl SyncExperiment,
    threads: usize,
) -> ResponseTable {
    Scheduler::new(threads)
        .execute(&RunPlan::expand(assignments, reps, 0), experiment, None)
        .expect_complete()
        .0
}

/// A multi-level design (three levels by two) matches `run_design_sync`
/// at one, two and eight threads.
#[test]
fn a_multi_level_design_runs_bit_identically_to_serial() {
    let design = Design::full_factorial(vec![
        Factor::numeric("a", &[1.0, 2.0, 3.0]),
        Factor::numeric("b", &[10.0, 20.0]),
    ]);
    let exp = |a: &Assignment| a.num("a").unwrap() * a.num("b").unwrap();
    let serial = Runner::new(4).run_design_sync(&design, &exp);
    for threads in [1, 2, 8] {
        assert_eq!(
            run_parallel(design_assignments(&design), 4, &exp, threads),
            serial,
            "threads={threads}"
        );
    }
}

proptest! {
    /// `Scheduler::execute` on `n` threads produces a [`ResponseTable`]
    /// bit-identical to the serial run for random 2^k designs, coefficient
    /// surfaces, replication counts (the replicate-dependent term included),
    /// and thread counts.
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
        let serial = Runner::new(reps).run_two_level_sync(&design, &experiment);
        let parallel = run_parallel(two_level_assignments(&design), reps, &experiment, threads);
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
        let plan = RunPlan::expand(two_level_assignments(&design), reps, seed);
        let run = |order: OrderPolicy| -> ResponseTable {
            Scheduler::new(threads)
                .with_order(order)
                .execute(&plan, &experiment, None)
                .expect_complete()
                .0
        };
        let as_designed = run(OrderPolicy::AsDesigned);
        prop_assert_eq!(run(OrderPolicy::Shuffled(seed)), as_designed.clone());
        prop_assert_eq!(run(OrderPolicy::Blocked), as_designed);
    }
}
