//! Result sinks: *where the output goes is part of what you measure*.
//!
//! The tutorial's first table (slides 23–26) times TPC-H Q1 and Q16 with the
//! result sent to a file vs. a terminal, server-side vs. client-side: Q16's
//! 1.2 MB result turns a 618 ms query into a 1468 ms one just by printing it
//! to a terminal. The sinks here reproduce that axis:
//!
//! * [`NullSink`] — discard (pure server-side timing);
//! * [`FileSink`] — buffered tab-separated write to a file (cheap);
//! * [`TerminalSink`] — aligned-table rendering (two passes over the data)
//!   plus a simulated terminal latency per line and per byte, calibrated to
//!   the pre-2008 xterm the tutorial measured.

use crate::error::DbError;
use crate::exec::ResultSet;
use std::io::Write;

/// What a sink did with the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkReport {
    /// Bytes rendered/written.
    pub bytes: usize,
    /// Rows written.
    pub rows: usize,
    /// Simulated device overhead in milliseconds (0 for real devices).
    pub sim_overhead_ms: f64,
}

/// Consumes query results.
pub trait ResultSink {
    /// Writes the whole result, returning a report.
    fn consume(&mut self, result: &ResultSet) -> Result<SinkReport, DbError>;

    /// One-line description for measurement documentation.
    fn describe(&self) -> String;
}

/// Discards the result — the "server-side, no output" timing.
#[derive(Debug, Default)]
pub struct NullSink;

impl ResultSink for NullSink {
    fn consume(&mut self, result: &ResultSet) -> Result<SinkReport, DbError> {
        Ok(SinkReport {
            bytes: 0,
            rows: result.row_count(),
            sim_overhead_ms: 0.0,
        })
    }

    fn describe(&self) -> String {
        "null sink (result discarded)".to_owned()
    }
}

/// Writes tab-separated rows to a file through a buffered writer.
#[derive(Debug)]
pub struct FileSink {
    path: std::path::PathBuf,
}

impl FileSink {
    /// Creates a file sink writing to `path` (truncated per query).
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        FileSink { path: path.into() }
    }
}

impl ResultSink for FileSink {
    fn consume(&mut self, result: &ResultSet) -> Result<SinkReport, DbError> {
        let file = std::fs::File::create(&self.path)?;
        let mut w = std::io::BufWriter::new(file);
        let mut bytes = 0usize;
        let header = result.column_names.join("\t");
        bytes += header.len() + 1;
        writeln!(w, "{header}")?;
        let mut line = String::new();
        for row in &result.rows {
            line.clear();
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    line.push('\t');
                }
                line.push_str(&v.render());
            }
            bytes += line.len() + 1;
            writeln!(w, "{line}")?;
        }
        w.flush()?;
        Ok(SinkReport {
            bytes,
            rows: result.row_count(),
            sim_overhead_ms: 0.0,
        })
    }

    fn describe(&self) -> String {
        format!("file sink ({})", self.path.display())
    }
}

/// Renders an aligned ASCII table (the expensive part: a width-computation
/// pass plus a formatting pass) and charges a simulated terminal latency.
///
/// The default latency constants (60 µs/line + 20 ns/byte) are calibrated so
/// that a ~1 MB / ~20 k-row result adds roughly a second — the order of
/// magnitude of the tutorial's Q16 terminal column.
#[derive(Debug)]
pub struct TerminalSink {
    /// Rendered output accumulates here (a real terminal would display it).
    pub rendered: String,
    line_latency_us: f64,
    byte_latency_ns: f64,
}

impl Default for TerminalSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TerminalSink {
    /// Creates a terminal sink with default latency calibration.
    pub fn new() -> Self {
        TerminalSink {
            rendered: String::new(),
            line_latency_us: 60.0,
            byte_latency_ns: 20.0,
        }
    }
}

impl ResultSink for TerminalSink {
    fn consume(&mut self, result: &ResultSet) -> Result<SinkReport, DbError> {
        self.rendered.clear();
        // Pass 1: column widths.
        let mut widths: Vec<usize> = result.column_names.iter().map(|n| n.len()).collect();
        let rendered_rows: Vec<Vec<String>> = result
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.render()).collect())
            .collect();
        for row in &rendered_rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        // Pass 2: aligned formatting.
        let push_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (cell, w) in cells.iter().zip(widths) {
                out.push(' ');
                out.push_str(cell);
                for _ in cell.len()..*w {
                    out.push(' ');
                }
                out.push_str(" |");
            }
            out.push('\n');
        };
        push_row(&result.column_names, &widths, &mut self.rendered);
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+\n";
        self.rendered.push_str(&sep);
        for row in &rendered_rows {
            push_row(row, &widths, &mut self.rendered);
        }
        let bytes = self.rendered.len();
        let lines = result.row_count() + 2;
        let sim_overhead_ms =
            lines as f64 * self.line_latency_us / 1e3 + bytes as f64 * self.byte_latency_ns / 1e6;
        Ok(SinkReport {
            bytes,
            rows: result.row_count(),
            sim_overhead_ms,
        })
    }

    fn describe(&self) -> String {
        format!(
            "terminal sink ({} us/line + {} ns/byte simulated)",
            self.line_latency_us, self.byte_latency_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn result(rows: usize) -> ResultSet {
        ResultSet {
            column_names: vec!["id".into(), "name".into()],
            rows: (0..rows)
                .map(|i| vec![Value::Int(i as i64), Value::Str(format!("name-{i}"))])
                .collect(),
        }
    }

    #[test]
    fn null_sink_is_free() {
        let mut s = NullSink;
        let r = s.consume(&result(100)).unwrap();
        assert_eq!(r.bytes, 0);
        assert_eq!(r.rows, 100);
        assert_eq!(r.sim_overhead_ms, 0.0);
        assert!(s.describe().contains("null"));
    }

    #[test]
    fn file_sink_writes_tsv() {
        let dir = std::env::temp_dir().join("minidb_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.tsv");
        let mut s = FileSink::new(&path);
        let rep = s.consume(&result(3)).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 4); // header + 3 rows
        assert!(content.starts_with("id\tname\n"));
        assert!(content.contains("2\tname-2"));
        assert_eq!(rep.bytes, content.len());
        assert_eq!(rep.sim_overhead_ms, 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn terminal_sink_aligns_columns() {
        let mut s = TerminalSink::new();
        let rep = s.consume(&result(2)).unwrap();
        assert!(rep.bytes > 0);
        let lines: Vec<&str> = s.rendered.lines().collect();
        assert_eq!(lines.len(), 4); // header + separator + 2 rows
                                    // All lines equal width (aligned).
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{:?}", lines);
        assert!(lines[1].starts_with("+-"));
    }

    #[test]
    fn terminal_cost_grows_with_result_size() {
        let mut s = TerminalSink::new();
        let small = s.consume(&result(10)).unwrap();
        let large = s.consume(&result(10_000)).unwrap();
        assert!(large.sim_overhead_ms > 50.0 * small.sim_overhead_ms);
    }

    #[test]
    fn terminal_much_slower_than_file_for_big_results() {
        // The slide-23 phenomenon in one assert.
        let dir = std::env::temp_dir().join("minidb_sink_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let r = result(20_000);
        let mut term = TerminalSink::new();
        let t = term.consume(&r).unwrap();
        let mut file = FileSink::new(dir.join("big.tsv"));
        let f = file.consume(&r).unwrap();
        assert_eq!(f.sim_overhead_ms, 0.0);
        assert!(
            t.sim_overhead_ms > 1000.0,
            "20k-row terminal print should cost > 1 s, got {} ms",
            t.sim_overhead_ms
        );
        std::fs::remove_file(dir.join("big.tsv")).ok();
    }

    #[test]
    fn empty_result_renders_header_only() {
        let mut s = TerminalSink::new();
        let rep = s
            .consume(&ResultSet {
                column_names: vec!["a".into()],
                rows: vec![],
            })
            .unwrap();
        assert_eq!(rep.rows, 0);
        assert_eq!(s.rendered.lines().count(), 2);
    }
}
