//! The metric catalogue (names, units, directions, bounds: the same table
//! `BENCHMARK.json` carries) and the three ways a run reports: the text a
//! person reads, the JSON line the driver reads, the file `all`, `check`
//! and `repeat` read back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Name; per-layer names start with the layer's module name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change is a regression. Calibrated from
    /// same-code repeats, see `AA_RESULTS.md`.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    e2e(name, unit, better, 0.0)
}

/// What a user of the served system sees. `fail_ratio` is reported next to
/// these but is not one of them: it is 0 on every healthy run, and the
/// driver's result line carries it as `failed`/`attempted`.
pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("qps", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("p95_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_query", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
    e2e("disk_bytes_per_user_byte", "ratio", "lower", 0.02),
];

/// One line per layer boundary the traced run measures.
pub const PER_LAYER: [Def; 48] = [
    layer("parser.parse_ms", "ms", "lower"),
    layer("optimizer.optimize_ms", "ms", "lower"),
    layer("exec.run_ms", "ms", "lower"),
    layer("exec.rows_out_per_op", "count", "lower"),
    layer("parallel.run_ms", "ms", "lower"),
    layer("parallel.speedup", "ratio", "higher"),
    layer("kernels.simd_run_ms", "ms", "lower"),
    layer("kernels.simd_over_opt", "ratio", "lower"),
    layer("store.logical_reads_per_op", "count", "lower"),
    layer("store.physical_reads_per_op", "count", "lower"),
    layer("store.evictions_per_op", "count", "lower"),
    layer("store.hit_rate", "ratio", "higher"),
    layer("store.window_physical_reads", "count", "lower"),
    layer("store.read_segment_ms", "ms", "lower"),
    layer("store.decode_mb_s", "MB/s", "higher"),
    layer("store.cold_first_ms", "ms", "lower"),
    layer("store.open_ms", "ms", "lower"),
    layer("store.persist_ms", "ms", "lower"),
    layer("store.disk_bytes", "B", "lower"),
    layer("store.user_bytes", "B", "lower"),
    layer("workload.generate_ms", "ms", "lower"),
    layer("frame.encode_ms", "ms", "lower"),
    layer("frame.decode_ms", "ms", "lower"),
    layer("frame.bytes_per_op", "B", "lower"),
    layer("frame.bytes_per_row", "B", "lower"),
    layer("transport.tcp_query_ms", "ms", "lower"),
    layer("transport.loopback_query_ms", "ms", "lower"),
    layer("transport.tcp_minus_loopback_ms", "ms", "lower"),
    layer("server.residual_ms", "ms", "lower"),
    layer("server.outside_exec_share", "ratio", "lower"),
    layer("server.reported_execute_ms", "ms", "lower"),
    layer("server.reported_serialize_ms", "ms", "lower"),
    layer("server.reported_busy_ms", "ms", "lower"),
    layer("server.write_queue_peak", "count", "lower"),
    layer("server.steal_borrows", "count", "higher"),
    layer("client.tail_ms", "ms", "lower"),
    layer("client.tail_pct", "%", "higher"),
    layer("client.max_ms", "ms", "lower"),
    layer("client.samples", "count", "higher"),
    layer("client.rows_per_op", "count", "lower"),
    layer("client.service_p50_ms", "ms", "lower"),
    layer("client.gen_lag_tail_ms", "ms", "lower"),
    layer("proc.cpu_user_s", "s", "lower"),
    layer("proc.cpu_sys_s", "s", "lower"),
    layer("proc.minor_faults_per_op", "count", "lower"),
    layer("proc.ctx_switches_per_op", "count", "lower"),
    layer("trace.overhead_ms", "ms", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// The result of one run, ready to be reported.
pub struct RunReport {
    /// Run record: what the numbers were measured on.
    pub record: Vec<(String, String)>,
    /// The catalogue the values belong to ([`END_TO_END`] or [`PER_LAYER`]).
    pub defs: &'static [Def],
    /// One value per catalogue entry.
    pub values: Values,
    /// Reported next to the catalogue, never part of the result line.
    pub extras: Vec<(&'static str, f64, &'static str)>,
    /// Statements sent over the whole run, every one of them checked.
    pub attempted: u64,
    /// Statements that failed or answered wrong.
    pub failed: u64,
    /// Free text after the metrics (the reconciliation).
    pub notes: String,
}

impl RunReport {
    fn value(&self, name: &str) -> Result<f64, String> {
        match self.values.get(name) {
            Some(v) if v.is_finite() => Ok(*v),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not measured")),
        }
    }

    /// The run record as `# key: value` lines.
    fn record_lines(&self) -> String {
        self.record
            .iter()
            .map(|(k, v)| format!("# {k}: {v}\n"))
            .collect()
    }

    /// The report a person reads.
    pub fn text(&self) -> Result<String, String> {
        let mut out = self.record_lines();
        for d in self.defs {
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {}",
                d.name,
                self.value(d.name)?,
                d.unit
            );
        }
        for (name, value, unit) in &self.extras {
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit}");
        }
        out.push_str(&self.notes);
        Ok(out)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every catalogue entry with all its digits.
    pub fn json_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, d) in self.defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                self.value(d.name)?,
                d.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Writes the metric file other subcommands read back: the record as
    /// `# key: value`, then `name<TAB>value<TAB>unit`.
    pub fn write_file(&self, path: &Path) -> Result<(), String> {
        let mut out = self.record_lines();
        for d in self.defs {
            let _ = writeln!(out, "{}\t{}\t{}", d.name, self.value(d.name)?, d.unit);
        }
        for (name, value, unit) in &self.extras {
            let _ = writeln!(out, "{name}\t{value}\t{unit}");
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Path of a run's metric file.
pub fn metrics_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    let kind = if trace { "layers" } else { "e2e" };
    out_dir.join(format!("{workload}.{kind}.tsv"))
}

/// Reads a metric file back.
pub fn read_file(path: &Path) -> Result<Values, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut values = Values::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut cols = line.split('\t');
        if let (Some(name), Some(Ok(v))) = (cols.next(), cols.next().map(str::parse::<f64>)) {
            values.insert(name.to_owned(), v);
        }
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            record: vec![("seed".into(), "7".into())],
            defs: &END_TO_END,
            values: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name.to_owned(), 1.5 + i as f64))
                .collect(),
            extras: vec![("fail_ratio", 0.0, "ratio")],
            attempted: 10,
            failed: 0,
            notes: String::new(),
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = report().json_line().unwrap();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"
        ));
        assert!(line.ends_with("\"unit\": \"ratio\"}}}"));
        assert!(!line.contains("fail_ratio"));
        assert!(!line.contains('\n'));
        let mut r = report();
        r.failed = 1;
        assert!(r.json_line().unwrap().contains("\"correct\": false"));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error_not_a_number() {
        let mut r = report();
        r.values.remove("qps");
        assert!(r.json_line().is_err());
        r.values.insert("qps".into(), f64::NAN);
        assert!(r.json_line().is_err());
        assert!(r.text().is_err());
    }

    #[test]
    fn metric_file_round_trips() {
        let dir = crate::serve::out_dir().join(format!("test-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = metrics_path(&dir, "scan-agg", false);
        report().write_file(&path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back["setup_s"], 1.5);
        assert_eq!(back["fail_ratio"], 0.0);
        assert_eq!(back.len(), END_TO_END.len() + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pulls `"key": "text"` or `"key": number` out of one JSON object of
    /// the flat shape `BENCHMARK.json` uses.
    fn json_field(object: &str, key: &str) -> Option<String> {
        let rest = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = rest.trim_start().strip_prefix(':')?.trim_start();
        Some(match rest.strip_prefix('"') {
            Some(s) => s[..s.find('"')?].to_owned(),
            None => rest[..rest.find([',', '}', '\n'])?].trim().to_owned(),
        })
    }

    fn json_objects(text: &str, section: &str) -> Vec<String> {
        let start = text.find(&format!("\"{section}\"")).expect(section);
        let body = &text[start..];
        let body = &body[body.find('[').unwrap() + 1..];
        let body = &body[..body.find(']').unwrap()];
        body.split('}')
            .filter(|o| o.contains('{'))
            .map(|o| format!("{o}}}"))
            .collect()
    }

    #[test]
    fn benchmark_json_carries_this_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e = json_objects(&text, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (o, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(json_field(o, "name").as_deref(), Some(d.name));
            assert_eq!(json_field(o, "unit").as_deref(), Some(d.unit));
            assert_eq!(json_field(o, "better").as_deref(), Some(d.better));
            let bound: f64 = json_field(o, "bound").unwrap().parse().unwrap();
            assert_eq!(bound, d.bound, "{}", d.name);
            assert!(bound <= 0.25);
        }
        let layers = json_objects(&text, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (o, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(json_field(o, "name").as_deref(), Some(d.name));
            assert_eq!(json_field(o, "unit").as_deref(), Some(d.unit));
            assert_eq!(json_field(o, "better").as_deref(), Some(d.better));
        }
        let workloads = json_objects(&text, "workloads");
        assert_eq!(workloads.len(), crate::workloads::SPECS.len());
        for (o, s) in workloads.iter().zip(crate::workloads::SPECS) {
            assert_eq!(json_field(o, "name").as_deref(), Some(s.name));
            assert_eq!(json_field(o, "why").as_deref(), Some(s.why));
        }
    }
}
