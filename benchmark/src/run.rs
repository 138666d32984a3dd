//! The two kinds of run: end to end with tracing off, and traced.

use crate::layers;
use crate::report::{RunReport, Values, END_TO_END, PER_LAYER};
use crate::serve::{self, Config, Instance, LoadResult, Tally, SETUP_REPS, WARMUP_S};
use crate::spans::chrome_trace;
use crate::stats::{blocked_percentile, mean, median, percentile};
use crate::workloads;

/// Oracle, statements and a tally: what both kinds of run start from.
struct Prepared {
    statements: Vec<String>,
    expected: Vec<crate::checksum::Answer>,
    oracle_s: f64,
    tally: Tally,
}

fn prepare(cfg: &Config) -> Result<Prepared, String> {
    std::fs::create_dir_all(serve::out_dir()).map_err(|e| format!("out dir: {e}"))?;
    let (expected, oracle_s) = serve::oracle(cfg)?;
    Ok(Prepared {
        statements: workloads::statements(cfg.spec.name, cfg.seed),
        expected,
        oracle_s,
        tally: Tally::default(),
    })
}

/// Warm-up, then the measured window.
fn window(cfg: &Config, inst: &mut Instance, p: &mut Prepared) -> LoadResult {
    let warm = serve::run_load(inst, cfg, &p.statements, &p.expected, WARMUP_S);
    p.tally.merge(warm.tally());
    let load = serve::run_load(inst, cfg, &p.statements, &p.expected, cfg.seconds);
    p.tally.merge(load.tally());
    load
}

/// Tracing off: the seven end-to-end metrics.
pub fn end_to_end(cfg: &Config) -> Result<RunReport, String> {
    let mut p = prepare(cfg)?;
    // The first set-up is the one that gets loaded. Peak RSS is read
    // right after its window, before the remaining set-ups run: each of
    // them starts a fresh server whose threads leave allocator arenas
    // behind, and what they would add to the high-water mark varied from
    // run to run by tens of MiB.
    let (mut inst, first) = serve::setup(cfg, 0, &p.statements, &p.expected, &mut p.tally)?;
    let load = window(cfg, &mut inst, &mut p);
    let peak_rss_mib = crate::env::peak_rss_mib();
    let record = serve::record(cfg, false, &inst, load.samples.len());
    inst.teardown();
    let mut setup_all = vec![first.total_s];
    for rep in 1..SETUP_REPS {
        let (inst, times) = serve::setup(cfg, rep, &p.statements, &p.expected, &mut p.tally)?;
        inst.teardown();
        setup_all.push(times.total_s);
    }

    let ok = load.ok_count();
    let latency = load.sorted(|s| s.latency_ms);
    let in_order = load.latencies();
    let p95 = blocked_percentile(&in_order, 0.95).ok_or(format!(
        "{} correct samples leave fewer than 10 beyond p95: lengthen --seconds",
        latency.len()
    ))?;
    let mut values = Values::new();
    let mut put = |name: &str, value: f64| values.insert(name.to_owned(), value);
    put("setup_s", median(&setup_all));
    put("qps", ok as f64 / load.elapsed_s);
    put("p50_ms", blocked_percentile(&in_order, 0.50).unwrap_or(0.0));
    put("p95_ms", p95);
    put(
        "cpu_ms_per_query",
        (load.proc.user_s + load.proc.sys_s) * 1e3 / ok.max(1) as f64,
    );
    put("peak_rss_mb", peak_rss_mib);
    put(
        "disk_bytes_per_user_byte",
        first.disk_bytes as f64 / first.user_bytes as f64,
    );
    let lo = setup_all.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = setup_all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Ok(RunReport {
        record,
        defs: &END_TO_END,
        values,
        extras: vec![
            ("fail_ratio", p.tally.fail_ratio(), "ratio"),
            ("samples", latency.len() as f64, "count"),
            (
                "whole_window_p95_ms",
                percentile(&latency, 0.95).unwrap_or(0.0),
                "ms",
            ),
            ("window_elapsed_s", load.elapsed_s, "s"),
            (
                "window_physical_reads",
                load.pool.physical_reads as f64,
                "count",
            ),
            ("setup_min_s", lo, "s"),
            ("setup_max_s", hi, "s"),
            ("oracle_s", p.oracle_s, "s"),
        ],
        attempted: p.tally.attempted,
        failed: p.tally.failed,
        // Deciles, then the tail in steps of two: where the 95th percentile
        // sits inside its mode of the distribution is what decides how far
        // a disturbed run moves it.
        notes: format!(
            "latency_ms percentiles {}\n\
             cpu_ms_per_query and peak_rss_mb cover server and clients: they share the process\n",
            [10, 20, 30, 40, 50, 60, 70, 80, 90, 92, 94, 96, 98]
                .iter()
                .map(|p| format!("p{p}={:.3}", latency[latency.len() * p / 100]))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    })
}

/// Highest percentile, up to the 99th, with ten samples beyond it:
/// `(value, percentile)`.
fn tail(sorted: &[f64]) -> (f64, f64) {
    if let Some(v) = percentile(sorted, 0.99) {
        return (v, 99.0);
    }
    let n = sorted.len();
    if n <= 10 {
        return (sorted.last().copied().unwrap_or(0.0), 0.0);
    }
    (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Traced: the per-layer metrics, the reconciliation, the trace file.
pub fn traced(cfg: &Config) -> Result<RunReport, String> {
    let mut p = prepare(cfg)?;
    let (mut inst, setup) = serve::setup(cfg, 0, &p.statements, &p.expected, &mut p.tally)?;

    // A restart's first statement: pool emptied, page cache advised away.
    let storage = inst.catalog.storage().expect("opened from disk").clone();
    storage.drop_caches();
    let t = std::time::Instant::now();
    let first = inst.clients[0].query(&p.statements[0]);
    let cold_first_ms = t.elapsed().as_secs_f64() * 1e3;
    p.tally.add(serve::answer_ok(&first, &p.expected[0]));

    let load = window(cfg, &mut inst, &mut p);
    let (mut values, notes, rec) =
        layers::measure(&mut inst, &p.statements, &p.expected, &mut p.tally)?;

    let ok = load.ok_count().max(1) as f64;
    let latency = load.sorted(|s| s.latency_ms);
    let (tail_ms, tail_pct) = tail(&latency);
    let mut put = |name: &str, value: f64| values.insert(name.to_owned(), value);
    put(
        "store.window_physical_reads",
        load.pool.physical_reads as f64,
    );
    put("store.cold_first_ms", cold_first_ms);
    put("store.open_ms", setup.open_ms);
    put("store.persist_ms", setup.persist_ms);
    put("store.disk_bytes", setup.disk_bytes as f64);
    put("store.user_bytes", setup.user_bytes as f64);
    put("workload.generate_ms", setup.generate_ms);
    put(
        "server.write_queue_peak",
        inst.server.write_queue_peak() as f64,
    );
    put("server.steal_borrows", load.steal_borrows as f64);
    put("client.tail_ms", tail_ms);
    put("client.tail_pct", tail_pct);
    put("client.max_ms", latency.last().copied().unwrap_or(0.0));
    put("client.samples", latency.len() as f64);
    put("client.rows_per_op", mean(&load.sorted(|s| s.rows as f64)));
    put(
        "client.service_p50_ms",
        percentile(&load.sorted(|s| s.service_ms), 0.50).unwrap_or(0.0),
    );
    put("client.gen_lag_tail_ms", tail(&load.sorted(|s| s.lag_ms)).0);
    put("proc.cpu_user_s", load.proc.user_s);
    put("proc.cpu_sys_s", load.proc.sys_s);
    put(
        "proc.minor_faults_per_op",
        load.proc.minor_faults as f64 / ok,
    );
    put(
        "proc.ctx_switches_per_op",
        load.proc.ctx_switches as f64 / ok,
    );

    let record = serve::record(cfg, true, &inst, latency.len());
    inst.teardown();
    let trace_path = serve::out_dir().join(format!("{}.trace.json", cfg.spec.name));
    std::fs::write(&trace_path, chrome_trace(rec.spans(), &record))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let p50 = blocked_percentile(&load.latencies(), 0.50).unwrap_or(0.0);
    Ok(RunReport {
        record,
        defs: &PER_LAYER,
        values,
        extras: vec![
            ("fail_ratio", p.tally.fail_ratio(), "ratio"),
            ("oracle_s", p.oracle_s, "s"),
        ],
        attempted: p.tally.attempted,
        failed: p.tally.failed,
        notes: format!(
            "{notes}    {:<30} {p50:>12.4}  (median of the load window, {})\ntrace: {}\n",
            "end-to-end p50_ms",
            cfg.spec.load.describe(),
            trace_path.display()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::tail;

    #[test]
    fn tail_is_p99_when_supported_else_the_eleventh_largest() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (1980.0, 99.0));
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v), (390.0, 97.5));
        assert_eq!(tail(&[1.0, 2.0]), (2.0, 0.0));
    }
}
