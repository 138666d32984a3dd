//! The tracer: per-thread ring-buffer lanes behind one shared registry.
//!
//! Design constraints, in the order the paper imposes them:
//!
//! * **Low observer effect.** Recording must not serialize worker threads.
//!   Each thread writes to its own lane (an `Arc<Mutex<LaneInner>>` that is
//!   uncontended in steady state — only `snapshot`/`clear` ever lock a lane
//!   from another thread), found through a thread-local cache so the common
//!   path is one TLS lookup plus one uncontended lock. A disabled tracer
//!   costs a single relaxed atomic load per span.
//! * **Bounded memory.** Lanes are ring buffers: when full, the oldest
//!   completed span is evicted and the lane's `dropped` counter increments.
//!   The count travels with every snapshot — truncation is never silent.
//! * **One timeline.** All lanes read the same clock (same origin), so a
//!   snapshot stitches worker threads from `exec::pool` into a single
//!   coherent trace without cross-thread clock translation.
//!
//! Sampling records every Nth *top-level* span per lane (children follow
//! their root's fate), which keeps sampled traces structurally complete —
//! a root without its operators would be useless for diagnosis.

use crate::span::{AttrValue, LaneSnapshot, SpanId, SpanRecord, Trace};
use perfeval_measure::counters::CounterSet;
use perfeval_measure::{Clock, WallClock};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default per-lane capacity in completed spans (~64 Ki spans ≈ a few MiB).
pub const DEFAULT_LANE_CAPACITY: usize = 65_536;

/// Allocates tracer identities so thread-local lane caches can tell two
/// tracers apart.
static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of `(tracer id, lane)` pairs. Weak so a dropped
    /// tracer does not leak lanes through TLS.
    static LANE_CACHE: RefCell<Vec<(u64, Weak<Mutex<LaneInner>>)>> =
        const { RefCell::new(Vec::new()) };
}

/// A span that has started but not yet ended.
struct Pending {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    attrs: Vec<(String, AttrValue)>,
}

/// One thread's recording state. Locked only by its own thread during
/// recording; other threads touch it only via `snapshot`/`clear`.
struct LaneInner {
    label: String,
    capacity: usize,
    ring: VecDeque<SpanRecord>,
    dropped: u64,
    stack: Vec<Pending>,
    /// Depth of open spans being skipped by the sampler. While positive,
    /// every new span just increments this and every guard drop decrements
    /// it — the whole subtree vanishes at the cost of two counter bumps.
    suppressed: u32,
    /// Top-level spans seen (sampled in or out) — the sampling phase base.
    roots_seen: u64,
    /// End reading of the most recently completed span (lane creation time
    /// if none yet). Used by schedulers to anchor back-to-back unit spans
    /// without overlap — also correct when units nest under an open sweep
    /// span, where waiting for a *root* to complete would never advance.
    last_end_ns: u64,
}

impl LaneInner {
    fn push_completed(&mut self, record: SpanRecord) {
        self.last_end_ns = self.last_end_ns.max(record.end_ns);
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }
}

struct Shared {
    tracer_id: u64,
    enabled: AtomicBool,
    /// Record every Nth top-level span per lane; 1 = record everything.
    sample_every: AtomicU64,
    capacity: usize,
    next_span_id: AtomicU64,
    lanes: Mutex<Vec<Arc<Mutex<LaneInner>>>>,
    /// The clock, erased to a closure because [`Clock`] is not object-safe
    /// (its generic `time` method). All lanes share this origin.
    now: Box<dyn Fn() -> u64 + Send + Sync>,
}

/// Aggregate recording statistics, cheap to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Registered lanes (threads that recorded at least one span).
    pub lanes: usize,
    /// Completed spans currently retained across all rings.
    pub recorded: usize,
    /// Spans evicted by ring overflow across all lanes.
    pub dropped: u64,
    /// Spans currently open (started, not yet ended).
    pub open: usize,
}

/// The tracing subsystem's entry point. Cloning is cheap and shares state;
/// a `&Tracer` can be handed to scoped worker threads.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("sample_every", &self.sampling())
            .field("stats", &stats)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An enabled tracer on the wall clock with the default lane capacity.
    pub fn new() -> Self {
        Self::custom(DEFAULT_LANE_CAPACITY, WallClock::new())
    }

    /// An enabled tracer with a custom per-lane ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::custom(capacity, WallClock::new())
    }

    /// An enabled tracer reading the given clock. Use a shared
    /// [`perfeval_measure::AtomicClock`] for deterministic tests.
    pub fn with_clock(clock: impl Clock + Send + Sync + 'static) -> Self {
        Self::custom(DEFAULT_LANE_CAPACITY, clock)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — a ring that can hold nothing would drop
    /// every span silently, the exact failure mode this crate exists to
    /// prevent.
    pub fn custom(capacity: usize, clock: impl Clock + Send + Sync + 'static) -> Self {
        assert!(capacity > 0, "lane capacity must be positive");
        Tracer {
            shared: Arc::new(Shared {
                tracer_id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(true),
                sample_every: AtomicU64::new(1),
                capacity,
                next_span_id: AtomicU64::new(0),
                lanes: Mutex::new(Vec::new()),
                now: Box::new(move || clock.now_ns()),
            }),
        }
    }

    /// A tracer that starts disabled — spans cost one atomic load until
    /// [`Tracer::set_enabled`] flips it on.
    pub fn disabled() -> Self {
        let t = Self::new();
        t.set_enabled(false);
        t
    }

    /// Turns recording on or off. Spans opened while disabled are inert
    /// guards; flipping mid-span affects only subsequently opened spans.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Records every `every`-th top-level span per lane (children included,
    /// the rest skipped wholesale). `0` and `1` both mean "record all".
    pub fn set_sampling(&self, every: u64) {
        self.shared
            .sample_every
            .store(every.max(1), Ordering::Relaxed);
    }

    /// Current sampling period (1 = everything).
    pub fn sampling(&self) -> u64 {
        self.shared.sample_every.load(Ordering::Relaxed)
    }

    /// Current reading of the tracer clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        (self.shared.now)()
    }

    /// Opens a span starting now. Ends when the returned guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let start = self.now_ns();
        self.span_at(name, start)
    }

    /// Opens a span with an explicit start reading (from this tracer's
    /// clock). Lets schedulers account queue-wait time that elapsed before
    /// the recording thread picked the work up.
    pub fn span_at(&self, name: &str, start_ns: u64) -> SpanGuard<'_> {
        self.span_full(name, start_ns, None)
    }

    /// Opens a span starting now with an explicit parent id, which may live
    /// on another lane — or have crossed a process/wire boundary, like the
    /// client span id `minidb-net` carries in its `Query` frame header.
    /// `lane_tree` treats a parent outside the lane as a lane root, so the
    /// stitched tree renders the server's work under the client's span.
    pub fn span_with_parent(&self, name: &str, parent: SpanId) -> SpanGuard<'_> {
        let start = self.now_ns();
        self.span_full(name, start, Some(parent))
    }

    fn span_full(&self, name: &str, start_ns: u64, parent: Option<SpanId>) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: None,
                state: GuardState::Inert,
            };
        }
        let lane = self.lane();
        let mut l = lane.lock().unwrap();
        if l.suppressed > 0 {
            l.suppressed += 1;
            drop(l);
            return SpanGuard {
                tracer: Some(self),
                state: GuardState::Suppressed(lane),
            };
        }
        if l.stack.is_empty() {
            l.roots_seen += 1;
            let every = self.sampling();
            if !(l.roots_seen - 1).is_multiple_of(every) {
                l.suppressed = 1;
                drop(l);
                return SpanGuard {
                    tracer: Some(self),
                    state: GuardState::Suppressed(lane),
                };
            }
        }
        let id = self.shared.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = parent.map(|p| p.0).or_else(|| l.stack.last().map(|p| p.id));
        let depth = l.stack.len();
        l.stack.push(Pending {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            attrs: Vec::new(),
        });
        drop(l);
        SpanGuard {
            tracer: Some(self),
            state: GuardState::Active { lane, depth, id },
        }
    }

    /// Names the calling thread's lane (defaults to the thread name, or
    /// `thread-<index>`). Registers the lane if needed, so a worker can
    /// label itself before its first span.
    pub fn label_thread(&self, label: &str) {
        let lane = self.lane();
        lane.lock().unwrap().label = label.to_owned();
    }

    /// End reading of the last completed span on the calling thread's lane
    /// (lane creation time if none yet). The anchor a scheduler uses to
    /// start back-to-back unit spans without overlap.
    pub fn lane_resume_ns(&self) -> u64 {
        let lane = self.lane();
        let l = lane.lock().unwrap();
        l.last_end_ns
    }

    /// Snapshots every lane into an immutable [`Trace`]. Open spans are not
    /// included (they have no end yet); overflow counts come along.
    pub fn snapshot(&self) -> Trace {
        let lanes: Vec<_> = self.shared.lanes.lock().unwrap().clone();
        let mut out = Vec::with_capacity(lanes.len());
        for (index, lane) in lanes.iter().enumerate() {
            let l = lane.lock().unwrap();
            out.push(LaneSnapshot {
                label: l.label.clone(),
                lane_index: index,
                records: l.ring.iter().cloned().collect(),
                dropped: l.dropped,
            });
        }
        Trace { lanes: out }
    }

    /// Aggregate counts without cloning records.
    pub fn stats(&self) -> TraceStats {
        let lanes: Vec<_> = self.shared.lanes.lock().unwrap().clone();
        let mut stats = TraceStats {
            lanes: lanes.len(),
            recorded: 0,
            dropped: 0,
            open: 0,
        };
        for lane in &lanes {
            let l = lane.lock().unwrap();
            stats.recorded += l.ring.len();
            stats.dropped += l.dropped;
            stats.open += l.stack.len();
        }
        stats
    }

    /// Discards completed spans and overflow counts on every lane (lanes
    /// and labels survive). Call between experiment arms — with no spans
    /// open — so each arm exports a clean timeline.
    pub fn clear(&self) {
        let lanes: Vec<_> = self.shared.lanes.lock().unwrap().clone();
        for lane in &lanes {
            let mut l = lane.lock().unwrap();
            l.ring.clear();
            l.dropped = 0;
            l.roots_seen = 0;
        }
    }

    /// The calling thread's lane, creating + registering it on first use.
    fn lane(&self) -> Arc<Mutex<LaneInner>> {
        let id = self.shared.tracer_id;
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(tid, _)| *tid == id) {
                if let Some(strong) = weak.upgrade() {
                    return strong;
                }
            }
            let strong = self.register_lane();
            // A pool helper outlives the tracers it has recorded for: drop
            // the entries of tracers that are gone along with a stale own.
            cache.retain(|(tid, lane)| *tid != id && lane.strong_count() > 0);
            cache.push((id, Arc::downgrade(&strong)));
            strong
        })
    }

    fn register_lane(&self) -> Arc<Mutex<LaneInner>> {
        let mut lanes = self.shared.lanes.lock().unwrap();
        let index = lanes.len();
        let label = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{index}"));
        let created_ns = self.now_ns();
        let lane = Arc::new(Mutex::new(LaneInner {
            label,
            capacity: self.shared.capacity,
            ring: VecDeque::new(),
            dropped: 0,
            stack: Vec::new(),
            suppressed: 0,
            roots_seen: 0,
            last_end_ns: created_ns,
        }));
        lanes.push(Arc::clone(&lane));
        lane
    }
}

enum GuardState {
    /// Tracer disabled at open time: free to drop.
    Inert,
    /// Sampled out (or child of a sampled-out root): only balances the
    /// lane's suppression depth on drop.
    Suppressed(Arc<Mutex<LaneInner>>),
    /// Recording: completes the pending span at `depth` on drop.
    Active {
        lane: Arc<Mutex<LaneInner>>,
        depth: usize,
        id: u64,
    },
}

/// RAII handle for an open span; dropping it ends the span.
///
/// If an outer guard drops while inner spans are still open (early return,
/// panic unwinding, guards dropped out of order), the outer drop completes
/// every span at or above its depth with the same end reading — the stack
/// discipline is restored and later drops of the inner guards are no-ops.
pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
    state: GuardState,
}

impl SpanGuard<'_> {
    /// True if this guard is actually recording (enabled and sampled in).
    pub fn is_recording(&self) -> bool {
        matches!(self.state, GuardState::Active { .. })
    }

    /// The open span's id, or `None` on inert/sampled-out guards. This is
    /// what a client sends over the wire so a remote tracer can parent its
    /// spans here via [`Tracer::span_with_parent`].
    pub fn id(&self) -> Option<SpanId> {
        match &self.state {
            GuardState::Active { id, .. } => Some(SpanId(*id)),
            _ => None,
        }
    }

    /// Attaches a key/value attribute to the open span. Chainable; a no-op
    /// on inert or sampled-out guards, or after the span was force-closed
    /// by an outer guard.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) -> &mut Self {
        if let GuardState::Active { lane, depth, id } = &self.state {
            let mut l = lane.lock().unwrap();
            if let Some(p) = l.stack.get_mut(*depth) {
                if p.id == *id {
                    p.attrs.push((key.to_owned(), value.into()));
                }
            }
        }
        self
    }

    /// Attaches the per-counter deltas `after − before` as integer
    /// attributes (zero deltas skipped). The bridge from
    /// [`perfeval_measure::counters`] hardware-style counters to spans.
    pub fn counter_deltas(&mut self, before: &CounterSet, after: &CounterSet) -> &mut Self {
        for (name, after_v) in after.iter() {
            let delta = after_v as i64 - before.get(name) as i64;
            if delta != 0 {
                self.attr(name, delta);
            }
        }
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.state, GuardState::Inert) {
            GuardState::Inert => {}
            GuardState::Suppressed(lane) => {
                let mut l = lane.lock().unwrap();
                l.suppressed = l.suppressed.saturating_sub(1);
            }
            GuardState::Active { lane, depth, id: _ } => {
                let end_ns = self.tracer.map(|t| t.now_ns()).unwrap_or(0);
                let mut l = lane.lock().unwrap();
                while l.stack.len() > depth {
                    let p = l.stack.pop().unwrap();
                    l.push_completed(SpanRecord {
                        id: SpanId(p.id),
                        parent: p.parent.map(SpanId),
                        name: p.name,
                        start_ns: p.start_ns,
                        end_ns,
                        attrs: p.attrs,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Deterministic shared time source for tests.
    fn manual() -> (Arc<AtomicU64>, Tracer) {
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        let tracer = Tracer {
            shared: Arc::new(Shared {
                tracer_id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(true),
                sample_every: AtomicU64::new(1),
                capacity: DEFAULT_LANE_CAPACITY,
                next_span_id: AtomicU64::new(0),
                lanes: Mutex::new(Vec::new()),
                now: Box::new(move || t2.load(Ordering::Relaxed)),
            }),
        };
        (t, tracer)
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let (clock, tracer) = manual();
        {
            let mut a = tracer.span("query");
            a.attr("sql", "select 1");
            clock.store(10, Ordering::Relaxed);
            {
                let _b = tracer.span("execute");
                clock.store(25, Ordering::Relaxed);
            }
            clock.store(30, Ordering::Relaxed);
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.span_count(), 2);
        let lane = &trace.lanes[0];
        // Children complete first.
        assert_eq!(lane.records[0].name, "execute");
        assert_eq!(lane.records[1].name, "query");
        assert_eq!(lane.records[0].parent, Some(lane.records[1].id));
        assert_eq!(lane.records[0].start_ns, 10);
        assert_eq!(lane.records[0].end_ns, 25);
        assert_eq!(lane.records[1].start_ns, 0);
        assert_eq!(lane.records[1].end_ns, 30);
        assert_eq!(
            lane.records[1].attr("sql"),
            Some(&AttrValue::Str("select 1".into()))
        );
    }

    #[test]
    fn worker_threads_get_their_own_lanes_with_shared_ids() {
        let tracer = Tracer::new();
        {
            let _root = tracer.span("coordinator");
            std::thread::scope(|scope| {
                for w in 0..2 {
                    let tracer = &tracer;
                    scope.spawn(move || {
                        tracer.label_thread(&format!("worker-{w}"));
                        let mut s = tracer.span("unit");
                        s.attr("worker", w as i64);
                    });
                }
            });
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.lanes.len(), 3);
        let labels: Vec<&str> = trace.lanes.iter().map(|l| l.label.as_str()).collect();
        assert!(labels.contains(&"worker-0") && labels.contains(&"worker-1"));
        // Span ids are globally unique across lanes.
        let mut ids: Vec<u64> = trace
            .lanes
            .iter()
            .flat_map(|l| l.records.iter().map(|r| r.id.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        // Worker spans are lane roots, not children of the coordinator span.
        for lane in &trace.lanes {
            if lane.label.starts_with("worker-") {
                assert_eq!(lane.records.len(), 1);
                assert_eq!(lane.records[0].parent, None);
            }
        }
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts_drops() {
        let tracer = Tracer::with_capacity(4);
        for i in 0..10 {
            let mut s = tracer.span(&format!("span-{i}"));
            s.attr("i", i as i64);
        }
        let trace = tracer.snapshot();
        let lane = &trace.lanes[0];
        assert_eq!(lane.records.len(), 4);
        assert_eq!(lane.dropped, 6);
        assert_eq!(trace.total_dropped(), 6);
        // Oldest evicted: the survivors are the last four.
        let names: Vec<&str> = lane.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["span-6", "span-7", "span-8", "span-9"]);
        let stats = tracer.stats();
        assert_eq!(stats.recorded, 4);
        assert_eq!(stats.dropped, 6);
        assert_eq!(stats.open, 0);
    }

    #[test]
    fn sampling_keeps_every_nth_root_with_its_children() {
        let tracer = Tracer::new();
        tracer.set_sampling(3);
        for _ in 0..9 {
            let _root = tracer.span("root");
            let _child = tracer.span("child");
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.find("root").count(), 3);
        assert_eq!(trace.find("child").count(), 3);
        // Every recorded child hangs off a recorded root.
        for child in trace.find("child") {
            assert!(child.parent.is_some());
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let mut s = tracer.span("invisible");
            assert!(!s.is_recording());
            s.attr("x", 1i64);
        }
        assert_eq!(tracer.snapshot().span_count(), 0);
        assert_eq!(tracer.stats().lanes, 0);
        tracer.set_enabled(true);
        drop(tracer.span("visible"));
        assert_eq!(tracer.snapshot().span_count(), 1);
    }

    #[test]
    fn out_of_order_guard_drop_force_closes_children() {
        let (clock, tracer) = manual();
        let outer = tracer.span("outer");
        clock.store(5, Ordering::Relaxed);
        let inner = tracer.span("inner");
        clock.store(9, Ordering::Relaxed);
        drop(outer); // closes inner too, same end reading
        drop(inner); // no-op
        let trace = tracer.snapshot();
        assert_eq!(trace.span_count(), 2);
        for r in &trace.lanes[0].records {
            assert_eq!(r.end_ns, 9);
        }
        assert_eq!(tracer.stats().open, 0);
    }

    #[test]
    fn counter_deltas_become_attrs() {
        let tracer = Tracer::new();
        let mut before = CounterSet::new();
        before.add("pool_hits", 10);
        before.add("pool_misses", 4);
        let mut after = before.clone();
        after.add("pool_hits", 7);
        {
            let mut s = tracer.span("scan");
            s.counter_deltas(&before, &after);
        }
        let trace = tracer.snapshot();
        let scan = trace.find("scan").next().unwrap();
        assert_eq!(scan.attr("pool_hits"), Some(&AttrValue::Int(7)));
        assert_eq!(scan.attr("pool_misses"), None); // zero delta skipped
    }

    #[test]
    fn lane_resume_tracks_last_root_end() {
        let (clock, tracer) = manual();
        clock.store(100, Ordering::Relaxed);
        drop(tracer.span("first")); // lane created at 100, root ends at 100
        assert_eq!(tracer.lane_resume_ns(), 100);
        clock.store(250, Ordering::Relaxed);
        drop(tracer.span("second"));
        assert_eq!(tracer.lane_resume_ns(), 250);
    }

    #[test]
    fn clear_resets_rings_but_keeps_lanes() {
        let tracer = Tracer::with_capacity(2);
        for _ in 0..5 {
            drop(tracer.span("s"));
        }
        assert_eq!(tracer.stats().dropped, 3);
        tracer.clear();
        let stats = tracer.stats();
        assert_eq!(stats.recorded, 0);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.lanes, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tracer::with_capacity(0);
    }

    #[test]
    fn explicit_parent_stitches_across_lanes() {
        let tracer = Tracer::new();
        let client_id = {
            let client = tracer.span("net.query");
            let client_id = client.id().expect("recording guard has an id");
            // A "server" thread parents its lane root under the client span,
            // exactly as minidb-net does with the id from the frame header.
            std::thread::scope(|scope| {
                let tracer = &tracer;
                scope.spawn(move || {
                    let serve = tracer.span_with_parent("net.serve", client_id);
                    assert_eq!(serve.id().map(|i| i.0 > 0), Some(true));
                    drop(tracer.span("execute")); // nests under net.serve
                });
            });
            client_id
        };
        let trace = tracer.snapshot();
        let serve = trace.find("net.serve").next().expect("server span");
        assert_eq!(serve.parent, Some(client_id), "cross-lane parent kept");
        let exec = trace.find("execute").next().expect("child span");
        assert_eq!(exec.parent, Some(serve.id), "children nest normally");
    }

    #[test]
    fn inert_guards_have_no_id() {
        let tracer = Tracer::disabled();
        assert_eq!(tracer.span("x").id(), None);
    }

    #[test]
    fn explicit_start_anchors_span_before_pickup() {
        let (clock, tracer) = manual();
        clock.store(500, Ordering::Relaxed);
        {
            let _s = tracer.span_at("unit", 120);
            clock.store(700, Ordering::Relaxed);
        }
        let trace = tracer.snapshot();
        let unit = trace.find("unit").next().unwrap();
        assert_eq!(unit.start_ns, 120);
        assert_eq!(unit.end_ns, 700);
    }
}
