//! E19 — parallel speed-up as a *designed* experiment.
//!
//! The tutorial's discipline applied to our own new feature: instead of
//! quoting one "4× faster!" number, morsel parallelism is swept as a 2³
//! full-factorial design — worker threads (T) × morsel size (M) × query
//! shape (Q) — with replication, confidence intervals on the speed-ups,
//! and an allocation-of-variation table saying how much of the observed
//! variance each factor (and interaction) explains. Because the parallel
//! engine is bit-identical to the serial one, "query shape" is a clean
//! factor: the answers never change, only the wall clock does.
//!
//! Responses are execute-phase **wall** milliseconds (thread CPU time
//! would hide parallelism: workers burn the same CPU, the wall clock is
//! what shrinks — be aware what you measure).
//!
//! `--smoke` runs a reduced sweep for CI: it still exercises every arm,
//! exports and validates the trace, and asserts bit-identity, but skips
//! the speed-up assertion (shared CI runners make wall-clock promises a
//! lottery).

use crate::Ctx;
use minidb::{Session, Value};
use perfeval_bench::knobs::Knob;
use perfeval_bench::{catalog_at, median};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation_replicated;
use perfeval_measure::Phase;
use perfeval_stats::ci::mean_confidence_interval;
use perfeval_trace::Tracer;

/// Scan-heavy arm: selective filter feeding a single-row aggregate, so the
/// response is dominated by the morselized scan+filter work, not by
/// materializing a large result.
const SCAN_HEAVY: &str = "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM lineitem WHERE l_shipdate >= 365 AND l_shipdate < 1460 AND l_quantity < 30";

/// Aggregate-heavy arm: Q1's wide grouped aggregation (eight accumulators
/// per group), where per-row aggregate update work dominates.
const AGG_HEAVY: &str = "SELECT l_returnflag, l_linestatus, \
            SUM(l_quantity) AS sum_qty, \
            SUM(l_extendedprice) AS sum_base_price, \
            SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
            AVG(l_quantity) AS avg_qty, \
            AVG(l_extendedprice) AS avg_price, \
            AVG(l_discount) AS avg_disc, \
            COUNT(*) AS count_order \
     FROM lineitem WHERE l_shipdate <= 2450 \
     GROUP BY l_returnflag, l_linestatus \
     ORDER BY l_returnflag, l_linestatus";

fn bit_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (x, y) => x == y,
            }) && ra.len() == rb.len()
        })
}

/// Execute-phase wall milliseconds of one run.
fn execute_wall_ms(session: &mut Session, sql: &str) -> f64 {
    session
        .query(sql)
        .run()
        .expect("query runs")
        .phases
        .phase(Phase::Execute)
        .expect("execute phase recorded")
}

/// Warm up, then collect `reps` execute-phase wall times.
fn measure(session: &mut Session, sql: &str, reps: usize) -> Vec<f64> {
    session.query(sql).run().expect("warmup");
    (0..reps).map(|_| execute_wall_ms(session, sql)).collect()
}

#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob::new("threads", "4", "the high level of the threads factor (the low level is 1)"),
];

pub fn run(ctx: &Ctx) {
    let smoke = ctx.smoke();
    let hi_threads = ctx.threads();

    let (sf, reps) = if smoke { (0.002, 3) } else { (0.02, 7) };
    let catalog = catalog_at(sf);
    let lineitem_rows = catalog.table("lineitem").expect("lineitem").row_count();
    println!(
        "scale factor {sf} ({lineitem_rows} lineitem rows), {reps} replicates/run, \
         threads high level = {hi_threads}{}",
        if smoke { ", --smoke" } else { "" }
    );

    // Bit-identity gate first: the speed-up numbers below are only worth
    // reporting because every arm returns the same answer.
    for (name, sql) in [("scan-heavy", SCAN_HEAVY), ("agg-heavy", AGG_HEAVY)] {
        let serial = Session::new(catalog.clone())
            .query(sql)
            .run()
            .expect("serial");
        for morsel in [2048usize, 16 * 1024] {
            let par = Session::new(catalog.clone())
                .with_parallelism(hi_threads)
                .with_morsel_rows(morsel)
                .query(sql)
                .run()
                .expect("parallel");
            assert!(
                bit_equal(&serial.rows, &par.rows),
                "{name} answers diverged at morsel={morsel}"
            );
        }
    }
    println!("bit-identity: every parallel arm returns the serial answer exactly.\n");

    // 2^3 full factorial: T = threads (1 vs hi), M = morsel rows
    // (2 Ki vs 16 Ki), Q = query shape (scan- vs aggregate-heavy).
    let design = TwoLevelDesign::full(&["T", "M", "Q"]);
    println!("sign table (T=threads, M=morsel rows, Q=query shape):");
    print!("{}", design.render());

    let level = |sign: f64, lo: usize, hi: usize| if sign < 0.0 { lo } else { hi };
    let mut replicates: Vec<Vec<f64>> = Vec::with_capacity(design.run_count());
    println!("\nrun table (execute wall ms):");
    println!("  run  threads  morsel  query        median    reps");
    for r in 0..design.run_count() {
        let threads = level(design.factor_sign(r, 0), 1, hi_threads);
        let morsel = level(design.factor_sign(r, 1), 2048, 16 * 1024);
        let scan_q = design.factor_sign(r, 2) < 0.0;
        let sql = if scan_q { SCAN_HEAVY } else { AGG_HEAVY };
        let mut session = Session::new(catalog.clone())
            .with_parallelism(threads)
            .with_morsel_rows(morsel);
        let sample = measure(&mut session, sql, reps);
        println!(
            "  {r:>3}  {threads:>7}  {morsel:>6}  {:<11}  {:>7.3}  {:?}",
            if scan_q { "scan-heavy" } else { "agg-heavy" },
            median(sample.clone()),
            sample
                .iter()
                .map(|v| (v * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
        );
        replicates.push(sample);
    }

    // Allocation of variation: which factor actually matters?
    let table =
        allocate_variation_replicated(&design, &replicates).expect("responses match design");
    println!("\nallocation of variation:");
    print!("{}", table.render());

    // Speed-up CIs per query shape at the better morsel level: each
    // parallel replicate against the serial median of the same (M, Q) run.
    println!("\nspeed-up at {hi_threads} threads (per query shape, both morsel levels):");
    let run_index = |t_hi: bool, m_hi: bool, q_hi: bool| -> usize {
        // Standard-order full factorial: T toggles fastest, then M, then Q.
        (t_hi as usize) + 2 * (m_hi as usize) + 4 * (q_hi as usize)
    };
    let mut scan_best = 0.0f64;
    for q_hi in [false, true] {
        for m_hi in [false, true] {
            let serial_ms = median(replicates[run_index(false, m_hi, q_hi)].clone());
            let ratios: Vec<f64> = replicates[run_index(true, m_hi, q_hi)]
                .iter()
                .map(|&p| serial_ms / p)
                .collect();
            let ci = mean_confidence_interval(&ratios, 0.95).expect("enough replicates");
            println!(
                "  {:<11} morsel {:>6}: speed-up {ci}",
                if q_hi { "agg-heavy" } else { "scan-heavy" },
                if m_hi { 16 * 1024 } else { 2048 },
            );
            if !q_hi {
                scan_best = scan_best.max(ci.estimate);
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if smoke {
        println!("\n--smoke: skipping the speed-up assertion (CI wall clocks are a lottery).");
    } else if cfg!(debug_assertions) {
        println!("\ndebug build: speed-up assertion skipped (measure in release).");
    } else if cores < hi_threads {
        println!("\nonly {cores} core(s) for {hi_threads} workers: speed-up assertion skipped.");
    } else {
        assert!(
            scan_best >= 2.0,
            "scan-heavy speed-up at {hi_threads} threads was {scan_best:.2}x, expected >= 2x"
        );
        println!("\nscan-heavy speed-up at {hi_threads} threads: {scan_best:.2}x (>= 2x).");
    }

    // Traced parallel run: morsel spans on worker lanes, queue-wait split
    // out, exported as Chrome trace-event JSON.
    let tracer = Tracer::new();
    let mut session = Session::new(catalog.clone())
        .with_parallelism(hi_threads)
        .with_morsel_rows(2048);
    session
        .query(SCAN_HEAVY)
        .traced(&tracer)
        .run()
        .expect("traced run");
    let trace = tracer.snapshot();
    let morsel_spans = trace
        .lanes
        .iter()
        .flat_map(|l| l.records.iter())
        .filter(|r| r.name.starts_with("morsel "))
        .count();
    ctx.export_trace("\ntraced run", &trace);
    println!("{morsel_spans} of the spans are morsels, on worker lanes.");
    assert!(
        morsel_spans > 0,
        "parallel run must record morsel spans on worker lanes"
    );
}
