//! # perfeval-trace
//!
//! Span-based, thread-aware tracing: the "be aware of what you measure"
//! principle turned into an observability subsystem.
//!
//! The tutorial's per-phase breakdowns (`mclient -t`'s
//! `Trans/Shred/Query/Print`) answer *where did the time go* for one
//! phase granularity on one thread. This crate generalizes that:
//!
//! * [`Tracer`] records hierarchical [`SpanRecord`]s — named, clocked via
//!   [`perfeval_measure::Clock`], carrying typed attributes and optional
//!   counter deltas from [`perfeval_measure::counters`].
//! * Each thread writes into its own bounded ring-buffer lane; overflow is
//!   counted, never silent. A global registry stitches `exec::pool` worker
//!   lanes into one timeline (all lanes share the tracer's clock origin).
//! * Exporters: [`chrome_trace_json`] (load in <https://ui.perfetto.dev> or
//!   `chrome://tracing`), [`folded_stacks`] (flamegraph.pl input), and
//!   [`render_tree`] (plain text for harness reports). [`validate_chrome`]
//!   re-parses an export and checks the B/E discipline — the exporter's
//!   regression gate.
//!
//! The observer effect of the tracer itself is quantified by the
//! `perfeval-exp e18` experiment in `crates/bench`; sampling
//! ([`Tracer::set_sampling`]) is the knob that trades detail for overhead.
//!
//! ```
//! use perfeval_trace::{chrome_trace_json, validate_chrome, Tracer};
//! let tracer = Tracer::new();
//! {
//!     let mut q = tracer.span("query");
//!     q.attr("sql", "select 1");
//!     let _e = tracer.span("execute");
//! }
//! let trace = tracer.snapshot();
//! assert_eq!(trace.span_count(), 2);
//! let json = chrome_trace_json(&trace);
//! assert!(validate_chrome(&json).unwrap().spans == 2);
//! ```
#![warn(missing_docs)]

pub mod chrome;
pub mod folded;
pub mod json;
pub mod recorder;
pub mod span;
pub mod tree;

pub use chrome::{chrome_trace_json, validate_chrome, ChromeSummary};
pub use folded::folded_stacks;
pub use recorder::{SpanGuard, TraceStats, Tracer, DEFAULT_LANE_CAPACITY};
pub use span::{AttrValue, LaneSnapshot, SpanId, SpanRecord, Trace};
pub use tree::render_tree;
