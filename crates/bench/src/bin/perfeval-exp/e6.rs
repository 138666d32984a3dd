//! E6/E7 — the 2² worked example and the sign-table method (slides 70–85).
//!
//! Paper's numbers: memory size (A) × cache size (B) on a workstation, MIPS
//! responses 15/45/25/75, solved to `y = 40 + 20·xA + 10·xB + 5·xA·xB`,
//! then the allocation-of-variation formulas `SST = 2² Σ q²`.

use crate::Ctx;
use perfeval_core::effects::estimate_effects;
use perfeval_core::runner::{Assignment, Runner};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation;
use perfeval_exec::ParallelRunner;
use perfeval_trace::Tracer;

pub fn run(ctx: &Ctx) {
    println!("Performance in MIPS:");
    println!("  cache \\ memory   4MB   16MB");
    println!("  1KB               15     45");
    println!("  2KB               25     75\n");

    let design = TwoLevelDesign::full(&["A", "B"]);
    println!("sign table (standard order):");
    print!("{}", design.render());

    let y = [15.0, 45.0, 25.0, 75.0];
    let model = estimate_effects(&design, &y).expect("responses match design");
    println!("\nfitted model: {}", model.render());
    println!("paper:        y = 40 + 20·xA + 10·xB + 5·xA·xB");

    assert_eq!(model.coefficient(&[]).expect("q0"), 40.0);
    assert_eq!(model.coefficient(&["A"]).expect("qA"), 20.0);
    assert_eq!(model.coefficient(&["B"]).expect("qB"), 10.0);
    assert_eq!(model.coefficient(&["A", "B"]).expect("qAB"), 5.0);

    // Interpretation line from slide 72.
    println!(
        "\ninterpretation: the mean is {}; the effect of memory is {} MIPS; \
         the effect of cache is {} MIPS;\nthe interaction between memory and \
         cache accounts for {} MIPS.",
        model.mean(),
        model.coefficient(&["A"]).expect("qA"),
        model.coefficient(&["B"]).expect("qB"),
        model.coefficient(&["A", "B"]).expect("qAB"),
    );

    // Allocation of variation (slides 81-85).
    let table = allocate_variation(&design, &y).expect("responses match design");
    println!("\nallocation of variation (SST = 2^2·(qA² + qB² + qAB²)):");
    print!("{}", table.render());
    let expected_sst = 4.0 * (400.0 + 100.0 + 25.0);
    assert!((table.sst - expected_sst).abs() < 1e-9);
    println!("SST = {}", table.sst);

    // The model reproduces every observation (2^k coefficients, 2^k
    // observations).
    for (r, &want) in y.iter().enumerate() {
        let got = model.predict(&design.run_signs(r));
        assert!((got - want).abs() < 1e-12);
    }
    println!("\nmodel reproduces all four observations exactly.");

    // Re-derive the table by *running* the fitted workstation model through
    // the scheduler (-Dthreads=N): parallel execution must reproduce the
    // paper's numbers bit-identically, or parallelism has become a factor.
    let threads = ctx.threads();
    let workstation = |a: &Assignment| {
        40.0 + 20.0 * a.num("A").unwrap()
            + 10.0 * a.num("B").unwrap()
            + 5.0 * a.num("A").unwrap() * a.num("B").unwrap()
    };
    let runner = Runner::new(1);
    let parallel = runner.run_two_level_parallel(&design, &workstation, threads);
    assert_eq!(parallel, runner.run_two_level_sync(&design, &workstation));
    assert_eq!(parallel.means(), y.to_vec());
    println!("parallel re-run on {threads} thread(s) is bit-identical to serial.");

    // Traced re-run: record the sweep's span timeline and export it as
    // Chrome trace-event JSON (load the file in Perfetto / chrome://tracing
    // to see queue-wait vs run time per unit, per worker lane).
    let spinning = |a: &Assignment| {
        // ~1 ms of spin per unit so every worker demonstrably picks up
        // work. Seeded from the assignment so the loop cannot be
        // constant-folded into a compile-time result.
        let mut acc = a.num("A").unwrap().to_bits() | 1;
        for i in 0..1_500_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        workstation(a)
    };
    let tracer = Tracer::new();
    let traced = Runner::new(8).run_two_level_parallel_traced(&design, &spinning, threads, &tracer);
    assert_eq!(
        traced.means(),
        y.to_vec(),
        "tracing must not perturb results"
    );

    let summary = ctx.export_trace("\ntraced re-run", &tracer.snapshot());
    let unit_lanes = summary
        .names_by_tid
        .values()
        .filter(|names| names.iter().any(|n| n.starts_with("unit ")))
        .count();
    if threads >= 2 {
        assert!(
            unit_lanes >= 2,
            "expected unit spans on >=2 worker lanes, got {unit_lanes}"
        );
        println!("unit spans recorded on {unit_lanes} worker lanes (queue-wait + run children).");
    }
}
