//! The batch engine's sweeping operators: pipelines, aggregation, joins.
//!
//! These are the only implementations of `Filter`/`Project`, `Aggregate`
//! and `Join` the batch engine has — [`Executor::run_batch`] dispatches
//! straight here. Each one runs its work through [`sweep`], which cuts its
//! [`Input`] into *units* from what it observes — how the input is stored,
//! the executor's thread count, the input's row count:
//!
//! * a **multi-chunk disk-backed table** directly under the operator's
//!   `Filter`/`Project` chain: one unit per chunk, at any thread count.
//!   The thread that runs a unit fetches that chunk's projected columns
//!   through the buffer pool (`Arc` clones when resident — no copy), works
//!   through the chunk's own batch a morsel at a time and lets it go, so no
//!   whole column is ever assembled and what a unit holds besides its chunk
//!   is morsel-sized. A unit reads the segments the pool does not hold
//!   *ahead of its turn* and with no lock held, so the reads of different
//!   chunks overlap across workers; it then takes its [`Turn`] at the pool
//!   in chunk order for the bookkeeping alone, which makes a statement's
//!   pool counters those of a one-thread scan whatever the schedule;
//! * any other input — an operator's output, an in-memory table, a
//!   single-chunk table — is one **shared batch**: with `threads > 1` and
//!   at least two morsels of rows, fixed-size row-range *morsels* of it;
//!   otherwise the single range `0..rows` on the calling thread — no
//!   spawn, no unit spans, no stitching.
//!
//! Units are pulled from a shared atomic cursor by the calling thread —
//! worker 0 — and `threads - 1` helpers
//! ([`perfeval_pool::parallel_map_traced`]; one thread runs them in order
//! on the calling thread) and poll for cancellation one by one. What a
//! sweep yields is *parts* in row order: a morsel of a shared batch, or a
//! morsel of a chunk.
//!
//! The operators:
//!
//! * **pipelines** — a `Filter`/`Project` chain over its source runs whole
//!   per part, with the selection vector kept part-local and lazy; the
//!   parts' outputs are stitched back together in part order;
//! * **hash aggregation** — the chain beneath the aggregate is fused into
//!   the same sweep. One part folds single-pass ([`vectorized_aggregate`]);
//!   several each bucket their rows by group locally, and an
//!   [`OrderedFold`] takes the parts in part order as they come in
//!   (preserving first-seen group order), replaying each local group's
//!   rows into its global accumulators in ascending original order — so
//!   float accumulators see exactly the single-pass addition sequence —
//!   and drops a part's columns once folded;
//! * **hash joins** — build on the smaller input on the calling thread,
//!   probe the other in a sweep, concatenate matched pairs in part order
//!   and canonicalize so the output is independent of the build side.
//!
//! Every merge point is ordered by part index, never by completion order,
//! which makes the result **bit-identical** for any thread count, morsel
//! size and chunk size — the property the correctness suite asserts and
//! exhibit E19 leans on ("same question, same answer, different
//! wall-clock"). `Sort`, `TopN`, `Limit` and `Distinct` do not sweep;
//! their inputs still do, except a bare scan, which they (like a join
//! side) take whole from [`Executor::run_batch`]'s `Scan` arm.

use crate::cancel::CancelToken;
use crate::column::Column;
use crate::error::DbError;
use crate::exec::{
    bind_join_keys, canonicalize_join_pairs, choose_build_side, finish_aggregate_batch, plan_label,
    projected_columns, scan_span_attrs, value_key, vectorized_aggregate, vectorized_eval,
    vectorized_filter, vectorized_filter_range, AggState, Batch, BuildSide, Executor, JoinBuild,
    Key, ProfileEntry,
};
use crate::expr::{AggFunc, Expr};
use crate::kernels::{Engine, Sel};
use crate::plan::Plan;
use crate::storage::{DiskBacking, ScanIo};
use crate::types::{DataType, Value};
use perfeval_pool::parallel_map_traced;
use perfeval_trace::{SpanGuard, Tracer};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// --------------------------------------------------------------------
// The sweep: chunks of a backed table, or morsels of a shared batch.
// --------------------------------------------------------------------

/// What an operator sweeps.
enum Input<'a> {
    /// One batch all units share by reference: an operator's output, an
    /// in-memory table, a single-chunk table.
    Shared(Batch),
    /// A multi-chunk disk-backed table: each unit reads its own chunk.
    Chunked(ChunkedScan<'a>),
}

impl Input<'_> {
    /// What one unit of this input is called in spans and profile notes.
    fn unit_name(&self) -> &'static str {
        match self {
            Input::Shared(_) => "morsel",
            Input::Chunked(_) => "chunk",
        }
    }

    fn schema(&self) -> Vec<(String, DataType)> {
        match self {
            Input::Shared(base) => base.schema(),
            Input::Chunked(scan) => scan.schema.clone(),
        }
    }
}

/// The `Scan` of a multi-chunk disk-backed table, read by the sweep's units
/// one chunk each instead of being materialized whole.
struct ChunkedScan<'a> {
    backing: &'a DiskBacking,
    /// Table column indices of the projection, in output order.
    cols: Vec<usize>,
    schema: Vec<(String, DataType)>,
    turn: Turn,
    /// The units' own pool accesses and fetch time, summed.
    io: Mutex<ScanIo>,
}

impl ChunkedScan<'_> {
    /// Chunk `k`'s projected columns as a batch. The segments the pool does
    /// not hold are read before the unit's turn, under the `read` span;
    /// the `turn` span is the wait for it plus one pool lookup per column,
    /// in column order. A unit that fails, is cancelled or panics on the
    /// way has still taken its turn and passed it on.
    fn fetch(
        &self,
        k: usize,
        cancel: Option<&CancelToken>,
        tracer: Option<&Tracer>,
    ) -> Result<Batch, DbError> {
        let check = || cancel.map_or(Ok(()), CancelToken::check);
        let t0 = Instant::now();
        let place = self.turn.place(k);
        check()?;
        let mut span = tracer.map(|t| t.span("read"));
        let ahead = self.backing.read_ahead(&self.cols, k);
        if let Some(g) = span.as_mut() {
            g.attr("columns", self.cols.len())
                .attr("ahead", ahead.iter().flatten().count());
        }
        drop(span);

        let span = tracer.map(|t| t.span("turn"));
        drop(place.wait());
        check()?;
        let mut io = ScanIo::default();
        let cols = (self.cols.iter().zip(ahead))
            .map(|(&ci, ahead)| self.backing.admit(ci, k, ahead, &mut io))
            .collect::<Result<_, DbError>>()?;
        drop(place);
        drop(span);
        io.secs = t0.elapsed().as_secs_f64();
        self.io
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add(io);
        Ok(Batch {
            names: self.schema.iter().map(|(n, _)| n.clone()).collect(),
            cols,
        })
    }
}

/// Orders the units' *bookkeeping* at the buffer pool, not their I/O: unit
/// `k` looks its columns up after unit `k - 1` has, whichever threads run
/// them and whoever read its segments first, so the pool sees the lookup
/// sequence of a one-thread scan — counters, stamps, admissions and
/// evictions do not depend on the schedule. Units start in index order (the
/// pool's cursor), so the unit whose turn it is has always been started.
/// The counter is valid after every step, so a poisoned lock is simply
/// taken over.
#[derive(Default)]
struct Turn {
    next: Mutex<usize>,
    passed: Condvar,
}

impl Turn {
    /// `unit`'s place in line, held from before its first fallible step:
    /// dropping it — normally or while unwinding — waits for the turn if it
    /// has not come yet and passes it on, so no later unit is left waiting.
    fn place(&self, unit: usize) -> Place<'_> {
        Place { turn: self, unit }
    }
}

struct Place<'a> {
    turn: &'a Turn,
    unit: usize,
}

impl Place<'_> {
    /// Blocks until it is this unit's turn.
    fn wait(&self) -> MutexGuard<'_, usize> {
        let next = (self.turn.next.lock()).unwrap_or_else(PoisonError::into_inner);
        (self.turn.passed)
            .wait_while(next, |next| *next != self.unit)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Place<'_> {
    fn drop(&mut self) {
        *self.wait() += 1;
        self.turn.passed.notify_all();
    }
}

/// How many units `input` is scheduled in: a chunked scan's chunks; a
/// shared batch's morsels when workers are configured, else 1.
fn unit_count(ex: &Executor<'_>, input: &Input<'_>) -> usize {
    match input {
        Input::Chunked(scan) => scan.backing.chunk_count(),
        Input::Shared(base) if ex.parallel.threads > 1 => {
            base.row_count().div_ceil(ex.parallel.morsel_rows).max(1)
        }
        Input::Shared(_) => 1,
    }
}

/// Runs `work` over every *part* of `input` — its index, its batch and the
/// rows of it to cover — and returns the outputs in part order. A unit of a
/// shared batch is one part; a chunk is worked through a morsel at a time,
/// each a part, so what a unit holds besides its chunk is morsel-sized
/// whatever the chunk size. Part indices ascend with the rows, without
/// gaps. `work` yields its output plus the rows it produced (recorded on
/// the unit span). One output means a shared batch ran as one range on the
/// calling thread; more means chunks or morsels, polled for cancellation
/// unit by unit.
fn sweep<T: Send>(
    ex: &Executor<'_>,
    input: &Input<'_>,
    work: impl Fn(usize, &Batch, Range<usize>) -> Result<(T, usize), DbError> + Sync,
) -> Result<Vec<T>, DbError> {
    let units = unit_count(ex, input);
    if let (Input::Shared(base), true) = (input, units < 2) {
        return Ok(vec![work(0, base, 0..base.row_count())?.0]);
    }
    let threads = ex.parallel.threads;
    // One thread runs the units in place, on the caller's lane: no spans.
    let tracer = ex.tracer.filter(|_| threads > 1);
    let cancel = ex.cancel.as_ref();
    let morsel_rows = ex.parallel.morsel_rows;
    let sweep_start_ns = tracer.map(|t| t.now_ns()).unwrap_or(0);
    let (results, _workers) = parallel_map_traced(units, threads, tracer, |u| {
        let mut span = unit_span(tracer, input.unit_name(), u, sweep_start_ns);
        let chunk;
        let (batch, range, first_part) = match input {
            Input::Shared(base) => {
                if let Some(c) = cancel {
                    c.check()?;
                }
                let range = u * morsel_rows..((u + 1) * morsel_rows).min(base.row_count());
                (base, range, u)
            }
            Input::Chunked(scan) => {
                // Reading and waiting for the turn are not the operator's
                // time either: `fetch` records them as their own spans.
                chunk = scan.fetch(u, cancel, tracer)?;
                // Every chunk before the last holds `chunk_rows` rows.
                let first_part = u * scan.backing.chunk_rows().div_ceil(morsel_rows);
                (&chunk, 0..chunk.row_count(), first_part)
            }
        };
        if let Some(g) = span.as_mut() {
            g.attr("rows_in", range.len());
        }
        let mut outs = Vec::new();
        let mut rows_out = 0;
        let mut lo = range.start;
        loop {
            let hi = lo.saturating_add(morsel_rows).min(range.end);
            let (out, rows) = work(first_part + outs.len(), batch, lo..hi)?;
            outs.push(out);
            rows_out += rows;
            lo = hi;
            if lo >= range.end {
                break;
            }
        }
        if let Some(g) = span.as_mut() {
            g.attr("rows_out", rows_out);
        }
        Ok(outs)
    });
    let parts: Vec<Vec<T>> = results.into_iter().collect::<Result<_, DbError>>()?;
    Ok(parts.into_iter().flatten().collect())
}

/// The unit span (`morsel 3`, `chunk 0`): anchored where the worker's lane
/// became free — for the calling thread, worker 0, whose lane holds the
/// operator's open span, no earlier than the sweep's start, so its units
/// nest under that span — with the dispatch gap recorded as a `queue-wait`
/// child and `queued_ms` attribute (be aware what you measure: queueing is
/// not operator time).
fn unit_span<'t>(
    tracer: Option<&'t Tracer>,
    name: &str,
    u: usize,
    sweep_start_ns: u64,
) -> Option<SpanGuard<'t>> {
    let t = tracer?;
    let anchor_ns = t.lane_resume_ns().max(sweep_start_ns);
    let pickup_ns = t.now_ns();
    let mut g = t.span_at(&format!("{name} {u}"), anchor_ns);
    g.attr(
        "queued_ms",
        pickup_ns.saturating_sub(anchor_ns) as f64 / 1e6,
    );
    drop(t.span_at("queue-wait", anchor_ns));
    Some(g)
}

/// Records how an operator's input was swept — span attributes plus the
/// profile note — when it was cut into units; one range leaves no mark.
fn record_sweep(
    ex: &mut Executor<'_>,
    span: &mut Option<SpanGuard<'_>>,
    what: &str,
    input: &Input<'_>,
) {
    let n = unit_count(ex, input);
    if n < 2 {
        return;
    }
    let threads = ex.parallel.threads;
    let units = format!("{}s", input.unit_name());
    if let Some(g) = span.as_mut() {
        g.attr(&units, n).attr("threads", threads);
    }
    let sweep = format!("{what}: {n} {units} x {threads} threads");
    ex.pending_note = Some(match ex.pending_note.take() {
        Some(note) => format!("{note}; {sweep}"),
        None => sweep,
    });
}

/// Starts the sweep of `source`, the plan node beneath an operator's chain
/// at `depth`. A `Scan` of a multi-chunk disk-backed table is left for the
/// units to read chunk by chunk, its span open on the calling thread's lane
/// until [`close_source`]; anything else is executed to its batch.
fn open_source<'a>(
    ex: &mut Executor<'a>,
    source: &Plan,
    depth: usize,
) -> Result<(Input<'a>, Option<SpanGuard<'a>>), DbError> {
    if let Plan::Scan { table, projection } = source {
        let t = ex.catalog.table(table)?;
        if let Some(backing) = t.backing().filter(|b| b.chunk_count() >= 2) {
            let scan = ChunkedScan {
                backing,
                cols: projected_columns(t, projection),
                schema: source.schema(ex.catalog)?,
                turn: Turn::default(),
                io: Mutex::default(),
            };
            let span = ex.tracer.map(|t| t.span(&plan_label(source)));
            return Ok((Input::Chunked(scan), span));
        }
    }
    Ok((Input::Shared(ex.run_batch(source, depth)?), None))
}

/// Ends a sweep's source: a chunked scan closes its span with the units'
/// own pool accounting and takes its profile entry where
/// [`Executor::run_batch`] would have pushed it. Its milliseconds are the
/// units' fetch time — reading, waiting for the turn, admitting — summed
/// over the workers, so with reads overlapping they can exceed the scan's
/// wall-clock share; the entry says so.
fn close_source(
    ex: &mut Executor<'_>,
    source: &Plan,
    depth: usize,
    input: &Input<'_>,
    mut span: Option<SpanGuard<'_>>,
) {
    let Input::Chunked(scan) = input else {
        return;
    };
    let io = *scan.io.lock().unwrap_or_else(PoisonError::into_inner);
    let rows_out = scan.backing.rows();
    scan_span_attrs(&mut span, &io, scan.backing.chunk_count());
    if let Some(g) = span.as_mut() {
        g.attr("rows_out", rows_out);
    }
    drop(span);
    ex.profile.push(ProfileEntry {
        op: plan_label(source),
        depth,
        exclusive_ms: io.secs * 1e3,
        rows_out,
        note: Some("worker seconds: read + turn + admit".to_owned()),
    });
}

// --------------------------------------------------------------------
// Pipeline chains: filter* / project* over a source batch, whole per range.
// --------------------------------------------------------------------

/// Splits `plan` into its leading `Filter`/`Project` nodes (root first) and
/// the source node beneath them.
fn peel(plan: &Plan) -> (Vec<&Plan>, &Plan) {
    let mut nodes = Vec::new();
    let mut cur = plan;
    while let Plan::Filter { input, .. } | Plan::Project { input, .. } = cur {
        nodes.push(cur);
        cur = input;
    }
    (nodes, cur)
}

/// One chain stage with its expressions bound to column indices.
enum BoundStage {
    Filter {
        pred: Expr,
    },
    Project {
        exprs: Vec<Expr>,
        names: Vec<String>,
        in_schema: Vec<(String, DataType)>,
    },
}

/// Binds chain `nodes` (root first) against the source's `schema`,
/// returning the stages in execution (leaf→root) order and the chain's
/// output schema.
#[allow(clippy::type_complexity)]
fn bind_chain(
    nodes: &[&Plan],
    mut schema: Vec<(String, DataType)>,
) -> Result<(Vec<BoundStage>, Vec<(String, DataType)>), DbError> {
    let mut stages = Vec::with_capacity(nodes.len());
    for node in nodes.iter().rev() {
        match node {
            Plan::Filter { predicate, .. } => stages.push(BoundStage::Filter {
                pred: predicate.bind(&schema)?,
            }),
            Plan::Project { exprs, .. } => {
                let mut bound = Vec::with_capacity(exprs.len());
                let mut out = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    bound.push(e.bind(&schema)?);
                    out.push((name.clone(), e.data_type(&schema)?));
                }
                stages.push(BoundStage::Project {
                    exprs: bound,
                    names: out.iter().map(|(n, _)| n.clone()).collect(),
                    in_schema: std::mem::replace(&mut schema, out),
                });
            }
            _ => unreachable!("peel only collects Filter/Project"),
        }
    }
    Ok((stages, schema))
}

/// What a chain's stages did, per stage in execution (leaf→root) order.
#[derive(Default)]
struct StageStats {
    /// Rows leaving each stage.
    rows: Vec<usize>,
    /// Seconds spent in each stage on the thread that ran it.
    secs: Vec<f64>,
}

impl StageStats {
    /// Per-stage totals over a sweep's ranges; times are summed worker
    /// seconds — CPU cost, not wall clock.
    fn total<'s>(stages: usize, parts: impl Iterator<Item = &'s StageStats>) -> StageStats {
        let mut total = StageStats {
            rows: vec![0; stages],
            secs: vec![0.0; stages],
        };
        for part in parts {
            for i in 0..stages {
                total.rows[i] += part.rows[i];
                total.secs[i] += part.secs[i];
            }
        }
        total
    }
}

/// Output of one range run through a chain.
struct ChainOut {
    batch: Batch,
    stats: StageStats,
}

/// The rows of `base` a selection keeps — `base` itself, shared without a
/// copy, when that is every row.
fn select(base: &Batch, sel: Sel) -> Batch {
    match sel {
        Sel::Dense(r) if r == (0..base.row_count()) => Batch {
            names: base.names.clone(),
            cols: base.cols.clone(),
        },
        sel => base.take(&sel.into_vec()),
    }
}

/// Runs rows `range` of `base` through the bound stages. The selection
/// vector stays local (and lazy) until the first `Project` materializes.
fn run_chain(
    base: &Batch,
    stages: &[BoundStage],
    range: Range<usize>,
    engine: Engine,
) -> Result<ChainOut, DbError> {
    let mut stats = StageStats::default();
    let mut lazy_sel: Option<Sel> = Some(Sel::Dense(range));
    let mut owned: Option<Batch> = None;
    for stage in stages {
        let t0 = Instant::now();
        match stage {
            BoundStage::Filter { pred } => {
                if let Some(b) = owned.take() {
                    let sel = vectorized_filter(&b, pred, engine)?;
                    stats.rows.push(sel.len());
                    owned = Some(b.take(&sel));
                } else {
                    let sel = vectorized_filter_range(
                        base,
                        pred,
                        lazy_sel.take().expect("lazy"),
                        engine,
                    )?;
                    stats.rows.push(sel.len());
                    lazy_sel = Some(Sel::Sparse(sel));
                }
            }
            BoundStage::Project {
                exprs,
                names,
                in_schema,
            } => {
                let input = match owned.take() {
                    Some(b) => b,
                    None => select(base, lazy_sel.take().expect("lazy")),
                };
                let mut cols = Vec::with_capacity(exprs.len());
                for e in exprs {
                    cols.push(vectorized_eval(&input, e, in_schema)?);
                }
                let b = Batch {
                    names: names.clone(),
                    cols,
                };
                stats.rows.push(b.row_count());
                owned = Some(b);
            }
        }
        stats.secs.push(t0.elapsed().as_secs_f64());
    }
    // Materializing a trailing filter's survivors is that filter's work.
    let t0 = Instant::now();
    let batch = match owned {
        Some(b) => b,
        None => select(base, lazy_sel.expect("lazy")),
    };
    if let Some(last) = stats.secs.last_mut() {
        *last += t0.elapsed().as_secs_f64();
    }
    Ok(ChainOut { batch, stats })
}

/// Concatenates per-morsel output batches in morsel-index order.
fn concat_batches(schema: &[(String, DataType)], parts: &[Batch]) -> Batch {
    let cols = schema
        .iter()
        .enumerate()
        .map(|(ci, (_, dt))| {
            let refs: Vec<&Column> = parts.iter().map(|b| &*b.cols[ci]).collect();
            Arc::new(Column::concat(*dt, &refs))
        })
        .collect();
    Batch {
        names: schema.iter().map(|(n, _)| n.clone()).collect(),
        cols,
    }
}

/// Opens operator spans for `nodes` on the calling thread's lane, root
/// first, so the source's span nests beneath the leaf stage.
fn open_spans<'t>(tracer: Option<&'t Tracer>, nodes: &[&Plan]) -> Vec<SpanGuard<'t>> {
    tracer.map_or_else(Vec::new, |t| {
        nodes.iter().map(|p| t.span(&plan_label(p))).collect()
    })
}

/// Closes the spans of chain `nodes` (root first, `nodes[0]` at `depth`)
/// leaf-first with their row counts, and pushes their profile entries in
/// post-order; `total` holds the chain's first `nodes.len()` stages.
fn close_chain(
    ex: &mut Executor<'_>,
    nodes: &[&Plan],
    mut guards: Vec<SpanGuard<'_>>,
    total: &StageStats,
    depth: usize,
) {
    for (i, node) in nodes.iter().enumerate().rev() {
        let si = nodes.len() - 1 - i;
        if let Some(mut g) = guards.pop() {
            g.attr("rows_out", total.rows[si]);
        }
        ex.profile.push(ProfileEntry {
            op: plan_label(node),
            depth: depth + i,
            exclusive_ms: total.secs[si] * 1e3,
            rows_out: total.rows[si],
            note: None,
        });
    }
}

/// The `Filter`/`Project` operator: runs the whole chain rooted at `plan`
/// over its source batch in one sweep. The root stage's span and profile
/// entry belong to the caller ([`Executor::run_batch`]), which gets the
/// batch and the root stage's own milliseconds; inner stages are recorded
/// here.
pub(crate) fn pipeline(
    ex: &mut Executor<'_>,
    plan: &Plan,
    depth: usize,
    span: &mut Option<SpanGuard<'_>>,
) -> Result<(Batch, f64), DbError> {
    let (nodes, source) = peel(plan);
    let n = nodes.len();
    let guards = open_spans(ex.tracer, &nodes[1..]);
    let (input, source_span) = open_source(ex, source, depth + n)?;
    let (stages, out_schema) = bind_chain(&nodes, input.schema())?;
    let engine = ex.engine;
    let mut outs = sweep(ex, &input, |_, base, range| {
        let out = run_chain(base, &stages, range, engine)?;
        let rows_out = out.batch.row_count();
        Ok((out, rows_out))
    })?;
    close_source(ex, source, depth + n, &input, source_span);
    let total = StageStats::total(n, outs.iter().map(|o| &o.stats));
    record_sweep(ex, span, "parallel", &input);
    let batch = if outs.len() == 1 {
        outs.pop().expect("one range").batch
    } else {
        let parts: Vec<Batch> = outs.into_iter().map(|o| o.batch).collect();
        concat_batches(&out_schema, &parts)
    };
    // The inner nodes are the chain's first n-1 stages in leaf→root order,
    // so `total` indexes them unchanged.
    close_chain(ex, &nodes[1..], guards, &total, depth + 1);
    Ok((batch, total.secs[n - 1] * 1e3))
}

// --------------------------------------------------------------------
// Hash aggregation: single pass over one unit, or local grouping per
// unit folded into the global groups in unit order.
// --------------------------------------------------------------------

/// One unit's evaluated grouping/argument columns, the rows of them it
/// covers, and what computing them cost. With several units the columns
/// move on into the [`OrderedFold`] and only the accounting comes back.
#[derive(Default)]
struct AggPart {
    group_cols: Vec<Arc<Column>>,
    agg_cols: Vec<Arc<Column>>,
    range: Range<usize>,
    /// What the fused chain did on the way here.
    chain: StageStats,
    agg_secs: f64,
}

/// One unit's rows bucketed by group.
struct LocalGroups {
    group_cols: Vec<Arc<Column>>,
    agg_cols: Vec<Arc<Column>>,
    /// Local group keys in first-seen order.
    keys: Vec<Vec<Key>>,
    /// Rows of each group, ascending; the first one yields the group's
    /// values.
    rows: Vec<Vec<u32>>,
}

/// Row `i` of `col` as one word, equal for two rows of the same column
/// exactly when their values are (strings by dictionary code, floats by
/// bits): a group key that costs no allocation per row.
fn key_word(col: &Column, i: usize) -> u64 {
    match col {
        Column::Int(v) => v[i] as u64,
        Column::Float(v) => v[i].to_bits(),
        Column::Str { codes, .. } => u64::from(codes[i]),
        Column::Bool(v) => u64::from(v[i]),
    }
}

impl LocalGroups {
    /// Buckets rows `range` of the evaluated columns. Columns are
    /// NULL-free, so every row lands in a group, exactly as in the
    /// single-pass aggregate. Rows are matched on their key words; a real
    /// [`Key`] is built once per local group, for the fold across units.
    fn of(part: &mut AggPart) -> LocalGroups {
        let mut local = LocalGroups {
            group_cols: std::mem::take(&mut part.group_cols),
            agg_cols: std::mem::take(&mut part.agg_cols),
            keys: Vec::new(),
            rows: Vec::new(),
        };
        if local.group_cols.is_empty() {
            // Global aggregate: one group holding every row.
            if !part.range.is_empty() {
                local.keys.push(Vec::new());
                local
                    .rows
                    .push(part.range.clone().map(|i| i as u32).collect());
            }
            return local;
        }
        let mut map: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut words = Vec::with_capacity(local.group_cols.len());
        for i in part.range.clone() {
            words.clear();
            words.extend(local.group_cols.iter().map(|c| key_word(c, i)));
            let id = match map.get(words.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = local.keys.len();
                    map.insert(words.clone(), id);
                    let key = local.group_cols.iter().map(|c| value_key(&c.get(i)));
                    local
                        .keys
                        .push(key.map(|k| k.expect("NULL-free column")).collect());
                    local.rows.push(Vec::new());
                    id
                }
            };
            local.rows[id].push(i as u32);
        }
        local
    }
}

/// The aggregate across parts. Parts finish in any order; their local
/// groups are folded into the global ones in *part* order — by whichever
/// thread closes the gap, nobody waits — and a part's columns are dropped
/// as soon as they are folded. Global groups therefore appear in
/// single-pass first-seen order, and each accumulator replays its group's
/// rows in ascending original order: float sums see exactly the
/// single-pass addition sequence, and are never merged as partial sums.
struct OrderedFold<'m> {
    agg_meta: &'m [(AggFunc, DataType)],
    /// Parts `0..next` are folded.
    next: usize,
    /// Finished parts still waiting for an earlier one.
    parked: HashMap<usize, LocalGroups>,
    ids: HashMap<Vec<Key>, usize>,
    /// Per global group: its values and its accumulators.
    groups: Vec<(Vec<Value>, Vec<AggState>)>,
}

impl OrderedFold<'_> {
    fn new_states(&self) -> Vec<AggState> {
        self.agg_meta
            .iter()
            .map(|(f, dt)| AggState::new(*f, *dt))
            .collect()
    }

    /// Hands in part `part`'s local groups and folds every part that is
    /// now next in line.
    fn push(&mut self, part: usize, local: LocalGroups) {
        self.parked.insert(part, local);
        while let Some(local) = self.parked.remove(&self.next) {
            for (key, rows) in local.keys.iter().zip(&local.rows) {
                let id = match self.ids.get(key) {
                    Some(&id) => id,
                    None => {
                        let id = self.groups.len();
                        let first = rows[0] as usize;
                        let values = local.group_cols.iter().map(|c| c.get(first)).collect();
                        self.groups.push((values, self.new_states()));
                        self.ids.insert(key.clone(), id);
                        id
                    }
                };
                for (state, col) in self.groups[id].1.iter_mut().zip(&local.agg_cols) {
                    state.update_rows(col, rows);
                }
            }
            self.next += 1;
        }
    }

    /// The aggregate's output rows, unsorted.
    fn finish(mut self, grouped: bool) -> Vec<Vec<Value>> {
        if self.groups.is_empty() && !grouped {
            // Global aggregate over an empty input still yields one row.
            self.groups.push((Vec::new(), self.new_states()));
        }
        self.groups
            .into_iter()
            .map(|(mut row, states)| {
                row.extend(states.into_iter().map(AggState::finish));
                row
            })
            .collect()
    }
}

/// The `Aggregate` operator. The `Filter`/`Project` chain beneath it is
/// fused into the aggregate's own sweep, so a unit runs the chain *and*
/// its grouping in one pass without materializing the full intermediate
/// batch; with no chain over a shared batch (the input is, say, a join)
/// the argument columns are evaluated once and its morsels share them.
/// Returns the batch and the aggregate's own milliseconds.
pub(crate) fn aggregate(
    ex: &mut Executor<'_>,
    plan: &Plan,
    input: &Plan,
    group_by: &[(Expr, String)],
    aggregates: &[(AggFunc, Expr, String)],
    depth: usize,
    span: &mut Option<SpanGuard<'_>>,
) -> Result<(Batch, f64), DbError> {
    let (nodes, source) = peel(input);
    let n = nodes.len();
    let guards = open_spans(ex.tracer, &nodes);
    let (input, source_span) = open_source(ex, source, depth + 1 + n)?;
    let (stages, schema) = bind_chain(&nodes, input.schema())?;
    let schema = &schema;
    let g_bound: Vec<Expr> = group_by
        .iter()
        .map(|(e, _)| e.bind(schema))
        .collect::<Result<_, _>>()?;
    let a_bound: Vec<Expr> = aggregates
        .iter()
        .map(|(_, e, _)| e.bind(schema))
        .collect::<Result<_, _>>()?;
    let agg_meta: Vec<(AggFunc, DataType)> = aggregates
        .iter()
        .map(|(f, e, _)| Ok((*f, e.data_type(schema)?)))
        .collect::<Result<_, DbError>>()?;
    #[allow(clippy::type_complexity)]
    let eval_cols = |b: &Batch| -> Result<(Vec<Arc<Column>>, Vec<Arc<Column>>), DbError> {
        let eval = |exprs: &[Expr]| {
            exprs
                .iter()
                .map(|e| vectorized_eval(b, e, schema))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok((eval(&g_bound)?, eval(&a_bound)?))
    };

    let t_shared = Instant::now();
    let shared = match &input {
        Input::Shared(base) if n == 0 => Some(eval_cols(base)?),
        _ => None,
    };
    let shared_secs = t_shared.elapsed().as_secs_f64();
    let engine = ex.engine;
    let split = unit_count(ex, &input) >= 2;
    let fold = Mutex::new(OrderedFold {
        agg_meta: &agg_meta,
        next: 0,
        parked: HashMap::new(),
        ids: HashMap::new(),
        groups: Vec::new(),
    });
    let mut parts = sweep(ex, &input, |p, base, range| {
        let mut part = AggPart::default();
        let t_agg;
        match &shared {
            Some((group_cols, agg_cols)) => {
                t_agg = Instant::now();
                (part.group_cols, part.agg_cols) = (group_cols.clone(), agg_cols.clone());
                part.range = range;
            }
            None => {
                let out = run_chain(base, &stages, range, engine)?;
                t_agg = Instant::now();
                (part.group_cols, part.agg_cols) = eval_cols(&out.batch)?;
                part.range = 0..out.batch.row_count();
                part.chain = out.stats;
            }
        }
        if split {
            let local = LocalGroups::of(&mut part);
            fold.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(p, local);
        }
        part.agg_secs = t_agg.elapsed().as_secs_f64();
        let rows_out = part.range.len();
        Ok((part, rows_out))
    })?;
    close_source(ex, source, depth + 1 + n, &input, source_span);
    let total = StageStats::total(n, parts.iter().map(|p| &p.chain));
    close_chain(ex, &nodes, guards, &total, depth + 1);
    let agg_secs: f64 = parts.iter().map(|p| p.agg_secs).sum();

    let t_finish = Instant::now();
    record_sweep(ex, span, "parallel", &input);
    let batch = if split {
        let fold = fold.into_inner().unwrap_or_else(PoisonError::into_inner);
        finish_aggregate_batch(ex.catalog, plan, fold.finish(!group_by.is_empty()))?
    } else {
        let p = parts.pop().expect("one range");
        vectorized_aggregate(
            ex.catalog,
            plan,
            &p.group_cols,
            &p.agg_cols,
            &agg_meta,
            p.range.len(),
            engine,
        )?
    };
    let own_secs = shared_secs + agg_secs + t_finish.elapsed().as_secs_f64();
    Ok((batch, own_secs * 1e3))
}

// --------------------------------------------------------------------
// Hash join: build on the smaller side, probe the other in a sweep.
// --------------------------------------------------------------------

/// The `Join` operator. Returns the batch and the join's own milliseconds.
pub(crate) fn join(
    ex: &mut Executor<'_>,
    left: &Plan,
    right: &Plan,
    left_key: &Expr,
    right_key: &Expr,
    depth: usize,
    span: &mut Option<SpanGuard<'_>>,
) -> Result<(Batch, f64), DbError> {
    let lb = ex.run_batch(left, depth + 1)?;
    let rb = ex.run_batch(right, depth + 1)?;
    let t0 = Instant::now();

    let ls = lb.schema();
    let rs = rb.schema();
    let (lk, rk) = bind_join_keys(left_key, right_key, &ls, &rs)?;
    let lkey_col = vectorized_eval(&lb, &lk, &ls)?;
    let rkey_col = vectorized_eval(&rb, &rk, &rs)?;
    let side = choose_build_side(&lkey_col, &rkey_col);
    let (build_col, probe_col) = match side {
        BuildSide::Left => (&lkey_col, &rkey_col),
        BuildSide::Right => (&rkey_col, &lkey_col),
    };
    let build = JoinBuild::new(build_col, probe_col, ex.engine);

    // The probe sweeps a one-column batch: the probe side's evaluated keys.
    let probe_keys = Input::Shared(Batch {
        names: vec!["key".to_owned()],
        cols: vec![Arc::clone(probe_col)],
    });
    let mut pairs = sweep(ex, &probe_keys, |_, keys, range| {
        let pairs = build.probe_range(&keys.cols[0], range);
        let rows_out = pairs.0.len();
        Ok((pairs, rows_out))
    })?;
    if let Some(g) = span.as_mut() {
        g.attr("build_side", side.label());
    }
    ex.pending_note = Some(format!("build={}", side.label()));
    record_sweep(ex, span, "parallel probe", &probe_keys);
    let (bsel, psel) = if pairs.len() == 1 {
        pairs.pop().expect("one range")
    } else {
        // Morsel-order concatenation of probe-major ranges is exactly what
        // one full-range probe produces.
        let total: usize = pairs.iter().map(|(b, _)| b.len()).sum();
        let mut bsel = Vec::with_capacity(total);
        let mut psel = Vec::with_capacity(total);
        for (b, p) in pairs {
            bsel.extend(b);
            psel.extend(p);
        }
        (bsel, psel)
    };
    let (lsel, rsel) = match side {
        BuildSide::Left => (bsel, psel),
        BuildSide::Right => (psel, bsel),
    };
    let (lsel, rsel) = canonicalize_join_pairs(side, lsel, rsel);

    let lout = lb.take(&lsel);
    let rout = rb.take(&rsel);
    let mut names = lout.names;
    names.extend(rout.names);
    let mut cols = lout.cols;
    cols.extend(rout.cols);
    Ok((Batch { names, cols }, t0.elapsed().as_secs_f64() * 1e3))
}
