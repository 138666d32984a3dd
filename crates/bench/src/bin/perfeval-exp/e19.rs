//! E19 — parallel speed-up as a *designed* experiment.
//!
//! The tutorial's discipline applied to our own new feature: instead of
//! quoting one "4× faster!" number, morsel parallelism is swept as a 2⁴
//! full-factorial design — worker threads (T) × morsel size (M) × query
//! shape (Q) × where the calling thread sits (P: free, or pinned to one
//! CPU the way a shard of the server is) — with replication, confidence
//! intervals on the speed-ups, and an allocation-of-variation table saying
//! how much of the observed variance each factor (and interaction)
//! explains. Because the parallel engine is bit-identical to the serial
//! one, "query shape" is a clean factor: the answers never change, only
//! the wall clock does.
//!
//! Responses are execute-phase **wall** milliseconds (thread CPU time
//! would hide parallelism: workers burn the same CPU, the wall clock is
//! what shrinks — be aware what you measure). Placement is a factor for
//! the same reason: a speed-up staged from a free thread says what the
//! engine can do, not what a pinned caller gets — every cell also reports
//! the share of its sweeps' units the helpers ran (`units_by_worker`).
//!
//! `--smoke` runs a reduced sweep for CI: it still exercises every arm,
//! exports and validates the trace, and asserts bit-identity and that both
//! placements ran, but never a time (shared CI runners make wall-clock
//! promises a lottery).

use crate::Ctx;
use minidb::{Session, Value};
use perfeval_bench::knobs::Knob;
use perfeval_bench::{catalog_at, median};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation_replicated;
use perfeval_measure::Phase;
use perfeval_pool::affinity::CpuSet;
use perfeval_stats::ci::mean_confidence_interval;
use perfeval_trace::{AttrValue, Tracer};

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

/// One cell of the design, on a thread of its own so a pin never leaks:
/// warm up (the answer must be `serial`'s by bits), collect `reps`
/// execute-phase wall times, then one traced statement for the share of
/// the sweeps' units that helpers ran (`None`: nothing was swept by more
/// than one worker). `pin` confines the thread first and says whether the
/// pin took.
fn measure(
    mut session: Session,
    sql: &str,
    reps: usize,
    pin: Option<CpuSet>,
    serial: &[Vec<Value>],
) -> (Vec<f64>, Option<f64>, bool) {
    std::thread::scope(|scope| {
        let cell = scope.spawn(|| {
            let pinned = pin.is_some_and(|cpu| cpu.pin_current_thread())
                && CpuSet::of_current_thread() == pin;
            let warm = session.query(sql).run().expect("warmup");
            assert!(bit_equal(serial, &warm.rows), "answers diverged: {sql}");
            let sample = (0..reps)
                .map(|_| execute_wall_ms(&mut session, sql))
                .collect();
            let tracer = Tracer::new();
            session.query(sql).traced(&tracer).run().expect("traced");
            (sample, helper_share(&tracer), pinned)
        });
        cell.join().expect("design cell")
    })
}

/// The helpers' share of all units in the `units_by_worker` attributes of
/// a trace (`"3,2"`: worker 0 ran three units, the helper two).
fn helper_share(tracer: &Tracer) -> Option<f64> {
    let trace = tracer.snapshot();
    let (mut own, mut all) = (0usize, 0usize);
    for record in trace.lanes.iter().flat_map(|l| &l.records) {
        if let Some(AttrValue::Str(units)) = record.attr("units_by_worker") {
            let units = units.split(',').map(|u| u.parse::<usize>().unwrap_or(0));
            for (worker, n) in units.enumerate() {
                own += if worker == 0 { n } else { 0 };
                all += n;
            }
        }
    }
    (all > 0).then(|| 1.0 - own as f64 / all as f64)
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
         threads high level = {hi_threads}, engine {}{}",
        Session::new(catalog.clone()).mode(),
        if smoke { ", --smoke" } else { "" }
    );

    // Bit-identity gate first: the speed-up numbers below are only worth
    // reporting because every arm returns the same answer.
    let serial_rows = |sql: &str| {
        let serial = Session::new(catalog.clone()).query(sql).run();
        serial.expect("serial").rows
    };
    let serial = [serial_rows(SCAN_HEAVY), serial_rows(AGG_HEAVY)];
    for ((name, sql), serial) in [("scan-heavy", SCAN_HEAVY), ("agg-heavy", AGG_HEAVY)]
        .into_iter()
        .zip(&serial)
    {
        for morsel in [2048usize, 16 * 1024] {
            let par = Session::new(catalog.clone())
                .with_parallelism(hi_threads)
                .with_morsel_rows(morsel)
                .query(sql)
                .run()
                .expect("parallel");
            assert!(
                bit_equal(serial, &par.rows),
                "{name} answers diverged at morsel={morsel}"
            );
        }
    }
    println!("bit-identity: every parallel arm returns the serial answer exactly.\n");

    // 2^4 full factorial: T = threads (1 vs hi), M = morsel rows
    // (2 Ki vs 16 Ki), Q = query shape (scan- vs aggregate-heavy),
    // P = the caller's placement (free vs pinned to one CPU, as a shard is).
    let design = TwoLevelDesign::full(&["T", "M", "Q", "P"]);
    println!("sign table (T=threads, M=morsel rows, Q=query shape, P=caller placement):");
    print!("{}", design.render());

    let process = CpuSet::of_process();
    let one_cpu = process.and_then(|p| (0..1024).find(|&c| p.contains(c)).map(CpuSet::single));
    let level = |sign: f64, lo: usize, hi: usize| if sign < 0.0 { lo } else { hi };
    let mut replicates: Vec<Vec<f64>> = Vec::with_capacity(design.run_count());
    let mut pins_taken = 0;
    println!("\nrun table (execute wall ms; helpers = their share of the sweeps' units):");
    println!("  run  threads  morsel  query       caller  helpers   median    reps");
    for r in 0..design.run_count() {
        let threads = level(design.factor_sign(r, 0), 1, hi_threads);
        let morsel = level(design.factor_sign(r, 1), 2048, 16 * 1024);
        let scan_q = design.factor_sign(r, 2) < 0.0;
        let pin = one_cpu.filter(|_| design.factor_sign(r, 3) > 0.0);
        let sql = if scan_q { SCAN_HEAVY } else { AGG_HEAVY };
        let session = Session::new(catalog.clone())
            .with_parallelism(threads)
            .with_morsel_rows(morsel);
        let serial = &serial[!scan_q as usize];
        let (sample, helpers, pinned) = measure(session, sql, reps, pin, serial);
        pins_taken += pinned as usize;
        println!(
            "  {r:>3}  {threads:>7}  {morsel:>6}  {:<10}  {:<6}  {:>7}  {:>7.3}  {:?}",
            if scan_q { "scan-heavy" } else { "agg-heavy" },
            if pinned { "pinned" } else { "free" },
            helpers.map_or("-".to_owned(), |h| format!("{:.0} %", h * 100.0)),
            median(sample.clone()),
            sample
                .iter()
                .map(|v| (v * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
        );
        replicates.push(sample);
    }
    // Both placements ran: the pinned half of the design really was
    // confined to one CPU, wherever the platform lets a thread be.
    match process {
        Some(p) if p.count() >= 2 => assert_eq!(pins_taken, design.run_count() / 2),
        _ => println!("fewer than two usable CPUs: the pinned level is the free level here."),
    }

    // Allocation of variation: which factor actually matters?
    let table =
        allocate_variation_replicated(&design, &replicates).expect("responses match design");
    println!("\nallocation of variation:");
    print!("{}", table.render());

    // Speed-up CIs per query shape, morsel level and placement: each
    // parallel replicate against the serial median of the same (M, Q, P).
    println!("\nspeed-up at {hi_threads} threads (per query shape, morsel level, caller placement):");
    let run_index = |t_hi: bool, m_hi: bool, q_hi: bool, p_hi: bool| -> usize {
        // Standard-order full factorial: T toggles fastest, then M, Q, P.
        (t_hi as usize) + 2 * (m_hi as usize) + 4 * (q_hi as usize) + 8 * (p_hi as usize)
    };
    let mut scan_best = 0.0f64;
    for q_hi in [false, true] {
        for m_hi in [false, true] {
            for p_hi in [false, true] {
                let serial_ms = median(replicates[run_index(false, m_hi, q_hi, p_hi)].clone());
                let ratios: Vec<f64> = replicates[run_index(true, m_hi, q_hi, p_hi)]
                    .iter()
                    .map(|&p| serial_ms / p)
                    .collect();
                let ci = mean_confidence_interval(&ratios, 0.95).expect("enough replicates");
                println!(
                    "  {:<11} morsel {:>6}, caller {:<6}: speed-up {ci}",
                    if q_hi { "agg-heavy" } else { "scan-heavy" },
                    if m_hi { 16 * 1024 } else { 2048 },
                    if p_hi { "pinned" } else { "free" },
                );
                if !q_hi && !p_hi {
                    scan_best = scan_best.max(ci.estimate);
                }
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
