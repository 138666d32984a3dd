//! Span records and trace snapshots — the data model every exporter reads.
//!
//! A *span* is a named, timed region of one thread's execution: it has a
//! typed [`SpanId`], an optional parent (forming a per-thread tree), a start
//! and end reading from the tracer's [`perfeval_measure::Clock`], and a list
//! of key/value [`AttrValue`] attributes (cache hits, row counts, hardware
//! counter deltas, …). Completed spans live in per-thread lanes; a
//! [`Trace`] is an immutable snapshot of every lane, stitched into one
//! timeline because all lanes share the tracer's clock origin.

/// Identifier of a span, unique within one [`crate::Tracer`].
///
/// Ids are allocated from a single atomic counter so they are unique across
/// threads — a child recorded on a worker lane can reference a parent id
/// allocated on the coordinator lane without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A typed attribute value attached to a span.
///
/// Keeping the value typed (rather than stringifying at record time) lets
/// exporters choose the right JSON representation and lets analyses read
/// counters back numerically.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer — counter deltas, row counts.
    Int(i64),
    /// Floating point — milliseconds, ratios.
    Float(f64),
    /// Free-form text — SQL snippets, operator names.
    Str(String),
    /// Flags — cache hit/miss, smoke mode.
    Bool(bool),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v:.3}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One completed span, as stored in a lane's ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the owning tracer.
    pub id: SpanId,
    /// Parent span id, if this span was opened while another was active on
    /// the same thread. `None` marks a top-level (root) span.
    pub parent: Option<SpanId>,
    /// Region name, e.g. `"execute"` or `"scan lineitem"`.
    pub name: String,
    /// Start reading of the tracer clock, in nanoseconds.
    pub start_ns: u64,
    /// End reading of the tracer clock, in nanoseconds.
    pub end_ns: u64,
    /// Attributes attached while the span was open, in attach order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Inclusive duration (children included) in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Looks up an attribute by key (first match wins).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Snapshot of one thread's lane: its completed spans plus the overflow
/// accounting the ring buffer kept.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Thread label (worker name or `thread-<n>`).
    pub label: String,
    /// Registration order of the lane — stable across snapshots, used as
    /// the `tid` in Chrome exports.
    pub lane_index: usize,
    /// Completed spans in completion order (children complete before
    /// parents, so a parent always appears after its children here).
    pub records: Vec<SpanRecord>,
    /// Spans evicted from the ring buffer because it was full. Exporters
    /// must surface this — a truncated trace that looks complete is a lie.
    pub dropped: u64,
}

/// An immutable snapshot of every lane a tracer has registered.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Lanes in registration order.
    pub lanes: Vec<LaneSnapshot>,
}

impl Trace {
    /// Total completed spans across all lanes.
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|l| l.records.len()).sum()
    }

    /// Total spans lost to ring-buffer overflow across all lanes.
    pub fn total_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// All records with the given name, across lanes.
    pub fn find<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.lanes
            .iter()
            .flat_map(|l| l.records.iter())
            .filter(move |r| r.name == name)
    }

    /// Counts spans carrying attribute `key` equal to `value`, across all
    /// lanes — the one-liner failure-observability queries are built from
    /// (`trace.count_attr("outcome", "panicked")`).
    pub fn count_attr(&self, key: &str, value: impl Into<AttrValue>) -> usize {
        let value = value.into();
        self.lanes
            .iter()
            .flat_map(|l| l.records.iter())
            .filter(|r| r.attr(key) == Some(&value))
            .count()
    }
}

/// Rebuilds the per-lane span forest from flat records.
///
/// Returns `(roots, children)` where both hold indices into `records`;
/// roots and every child list are sorted by `(start_ns, id)` so traversal
/// order is the timeline order. A span whose parent id is not present in
/// this lane (evicted, or started on another thread) is treated as a root —
/// the forest is always total, never panics on dangling parents.
pub(crate) fn lane_tree(records: &[SpanRecord]) -> (Vec<usize>, Vec<Vec<usize>>) {
    use std::collections::HashMap;
    let by_id: HashMap<u64, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.0, i))
        .collect();
    let mut roots = Vec::new();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    for (i, r) in records.iter().enumerate() {
        match r.parent.and_then(|p| by_id.get(&p.0)) {
            Some(&p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let key = |&i: &usize| (records[i].start_ns, records[i].id.0);
    roots.sort_by_key(key);
    for list in &mut children {
        list.sort_by_key(key);
    }
    (roots, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.into(),
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn attr_value_conversions_and_display() {
        assert_eq!(AttrValue::from(3u64), AttrValue::Int(3));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
        assert_eq!(AttrValue::from(true).to_string(), "true");
        assert_eq!(AttrValue::from(1.5f64).to_string(), "1.500");
    }

    #[test]
    fn lane_tree_orphans_become_roots() {
        // Child records complete before parents; parent id 99 was evicted.
        let records = vec![
            rec(2, Some(1), "child", 10, 20),
            rec(1, None, "root", 0, 30),
            rec(3, Some(99), "orphan", 5, 6),
        ];
        let (roots, children) = lane_tree(&records);
        // Roots sorted by start: root(0) then orphan(5).
        assert_eq!(roots, vec![1, 2]);
        assert_eq!(children[1], vec![0]);
        assert!(children[0].is_empty());
    }

    #[test]
    fn span_record_duration_and_attr_lookup() {
        let mut r = rec(1, None, "x", 100, 350);
        r.attrs.push(("rows".into(), AttrValue::Int(7)));
        assert_eq!(r.duration_ns(), 250);
        assert_eq!(r.attr("rows"), Some(&AttrValue::Int(7)));
        assert_eq!(r.attr("missing"), None);
    }

    #[test]
    fn count_attr_matches_key_and_value_across_lanes() {
        let mut a = rec(1, None, "unit 0", 0, 10);
        a.attrs
            .push(("outcome".into(), AttrValue::Str("panicked".into())));
        let mut b = rec(2, None, "unit 1", 0, 10);
        b.attrs
            .push(("outcome".into(), AttrValue::Str("measured".into())));
        let mut c = rec(3, None, "unit 2", 0, 10);
        c.attrs
            .push(("outcome".into(), AttrValue::Str("panicked".into())));
        let trace = Trace {
            lanes: vec![
                LaneSnapshot {
                    label: "w0".into(),
                    lane_index: 0,
                    records: vec![a, b],
                    dropped: 0,
                },
                LaneSnapshot {
                    label: "w1".into(),
                    lane_index: 1,
                    records: vec![c],
                    dropped: 0,
                },
            ],
        };
        assert_eq!(trace.count_attr("outcome", "panicked"), 2);
        assert_eq!(trace.count_attr("outcome", "measured"), 1);
        assert_eq!(trace.count_attr("outcome", "timed_out"), 0);
        assert_eq!(trace.count_attr("nope", "panicked"), 0);
    }
}
