//! The benchmark's own spans: one per call into a layer's public entry
//! point, kept in memory and written as Chrome-trace JSON at exit. Nothing
//! here switches on tracing inside the program under test.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: which layer, when, under which span, for which op.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `exec.run`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// Index of the span this one ran under.
    pub parent: Option<usize>,
    /// Spans of one op (one statement execution) share this id.
    pub op: u32,
}

/// Collects spans. A disabled recorder makes every call a no-op, so the
/// untraced pass runs the same code as the traced one.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or drops them.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, ns: its duration minus the part of that
/// interval its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders spans as Chrome-trace JSON (complete `X` events, µs), which
/// Perfetto and `chrome://tracing` load. `record` lands in `otherData`.
/// Each layer prefix gets its own track so the layers stack visibly.
pub fn chrome_trace(spans: &[Span], record: &[(String, String)]) -> String {
    let mut tracks: Vec<&str> = Vec::new();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in record.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("},\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let tid = match tracks.iter().position(|t| *t == layer) {
            Some(t) => t,
            None => {
                tracks.push(layer);
                tracks.len() - 1
            }
        };
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
            json_escape(s.name),
            json_escape(layer),
            tid + 1,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
            i,
            s.parent.map_or(-1, |p| p as i64),
        );
    }
    for (t, layer) in tracks.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            t + 1,
            json_escape(layer)
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a.x", 10, 30, Some(0)),
            // Overlaps a.x by 5 and nests a grandchild.
            span("b.y", 25, 60, Some(0)),
            span("b.z", 30, 40, Some(2)),
            // Runs past its parent's end: only the inside part is covered.
            span("c.w", 90, 120, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // Children cover [10,60) and [90,100) of the root: 60 of 100.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 25, "35 long, grandchild covers 10");
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 30);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let id = r.enter("op", None, 1);
        r.exit(id);
        assert!(r.spans().is_empty());
        let mut r = Recorder::new(true);
        let root = r.enter("op", None, 7);
        let kid = r.enter("exec.run", Some(root), 7);
        r.exit(kid);
        r.exit(root);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_one_event_per_span() {
        let spans = vec![
            span("op", 0, 2_000, None),
            span("exec.run", 500, 1_500, Some(0)),
        ];
        let text = chrome_trace(&spans, &[("seed".into(), "1 \"quoted\"".into())]);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(
            text.matches("\"ph\":\"M\"").count(),
            2,
            "one track per layer"
        );
        assert!(text.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(text.contains("1 \\\"quoted\\\""));
        let depth = text.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
