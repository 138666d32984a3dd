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
//!   the same sweep. Each part gives its rows dense group ids
//!   ([`group_ids`]), and an [`OrderedFold`] takes the parts in part order
//!   as they come in (preserving first-seen group order), makes the ids
//!   global, and sweeps each aggregate's argument column once into one
//!   accumulator slot per group — so a float accumulator sees exactly the
//!   single-pass addition sequence — then drops the part's columns. One
//!   part or many, it is the same fold;
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
    bind_join_keys, canonicalize_join_pairs, choose_build_side, eval_with_nulls,
    finish_aggregate_batch, plan_label, projected_columns, scan_span_attrs, value_key,
    vectorized_eval, vectorized_filter, vectorized_filter_range, AggState, Batch, BuildSide,
    Executor, JoinBuild, Key, ProfileEntry,
};
use crate::expr::{AggFunc, Expr};
use crate::kernels::{self, group_ids, Engine, Sel};
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
/// unit by unit. A traced sweep over several workers says on the operator's
/// `span` how many units each ran (`units_by_worker`, worker 0 first): a
/// helper that did nothing reads `0`.
fn sweep<T: Send>(
    ex: &Executor<'_>,
    input: &Input<'_>,
    span: &mut Option<SpanGuard<'_>>,
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
    let (results, workers) = parallel_map_traced(units, threads, tracer, |u| {
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
    if let (Some(g), Some(_)) = (span.as_mut(), tracer) {
        let units: Vec<_> = workers.iter().map(|w| w.units.to_string()).collect();
        g.attr("units_by_worker", units.join(","));
    }
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
    let mut outs = sweep(ex, &input, span, |_, base, range| {
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
// Hash aggregation: dense group ids per part, folded into the global
// groups in part order, one column sweep per aggregate.
// --------------------------------------------------------------------

/// What one part of the aggregate's sweep cost.
#[derive(Default)]
struct AggPart {
    /// What the fused chain did on the way here.
    chain: StageStats,
    agg_secs: f64,
}

/// One part's rows grouped: the evaluated columns, the rows of them the
/// part covers, and [`group_ids`]' dense local ids for those rows.
struct LocalGroups {
    group_cols: Vec<Arc<Column>>,
    args: Vec<AggArg>,
    range: Range<usize>,
    /// Empty when nothing is grouped by: every row is in the one group.
    gids: Vec<u32>,
    first_rows: Vec<u32>,
}

/// One aggregate's argument, evaluated for a part.
#[derive(Clone)]
enum AggArg {
    /// A literal — `COUNT(*)` arrives as `COUNT(1)` — which touches no
    /// batch: every row contributes this value (typed, so never NULL).
    Const(Value),
    /// The evaluated column and the ascending rows of it at which the
    /// expression was NULL ([`eval_with_nulls`]), which accumulators skip
    /// exactly as [`AggState::update`] skips a NULL.
    Col(Arc<Column>, Arc<[u32]>),
}

impl AggArg {
    /// The rows of `range` at which the argument is NULL.
    fn nulls_in(&self, range: &Range<usize>) -> &[u32] {
        match self {
            AggArg::Const(_) => &[],
            AggArg::Col(_, nulls) => {
                let at = |row: usize| nulls.partition_point(|&r| (r as usize) < row);
                &nulls[at(range.start)..at(range.end)]
            }
        }
    }
}

/// The rows of `range` that are not in `nulls` (ascending row positions).
fn live_rows(range: Range<usize>, nulls: &[u32]) -> impl Iterator<Item = usize> + '_ {
    let mut nulls = nulls.iter().map(|&r| r as usize).peekable();
    range.filter(move |&i| {
        while nulls.next_if(|&r| r < i).is_some() {}
        nulls.peek() != Some(&i)
    })
}

/// One aggregate's accumulators, a slot per global group.
enum Accs {
    /// `COUNT`: the group's row count less its NULL arguments — no state.
    Count,
    /// `SUM` of a numeric argument: the running sums.
    Sum(Vec<f64>),
    /// `AVG` of a numeric argument: the running sums; the divisor is what
    /// `COUNT` reads.
    Avg(Vec<f64>),
    /// Everything else (`MIN`, `MAX`, `COUNT(DISTINCT)`, a non-numeric
    /// argument): a boxed accumulator per group.
    Boxed(Vec<AggState>),
}

impl Accs {
    fn new(func: AggFunc, arg_type: DataType) -> Accs {
        let numeric = matches!(arg_type, DataType::Int | DataType::Float);
        match func {
            AggFunc::Count => Accs::Count,
            AggFunc::Sum if numeric => Accs::Sum(Vec::new()),
            AggFunc::Avg if numeric => Accs::Avg(Vec::new()),
            _ => Accs::Boxed(Vec::new()),
        }
    }

    /// Makes room for `groups` groups.
    fn grow(&mut self, groups: usize, (func, arg_type): (AggFunc, DataType)) {
        match self {
            Accs::Count => {}
            Accs::Sum(acc) | Accs::Avg(acc) => acc.resize(groups, 0.0),
            Accs::Boxed(states) => states.resize_with(groups, || AggState::new(func, arg_type)),
        }
    }

    /// The SIMD tier's fold of a whole NULL-free Int column into the one
    /// group's slot, where a lane kernel is bit-identical to the serial
    /// fold: `sum_i64_exact` proves every serial f64 prefix sum exact
    /// before answering, COUNT reads no column, integer MIN/MAX are
    /// order-free. Float folds never qualify — f64 addition does not
    /// associate. `false`: sweep the rows.
    fn bulk(&mut self, col: &Column) -> bool {
        match (self, col) {
            (Accs::Count, _) => true,
            (Accs::Sum(acc) | Accs::Avg(acc), Column::Int(v)) => kernels::sum_i64_exact(v)
                .map(|total| acc[0] += total as f64)
                .is_some(),
            (Accs::Boxed(states), Column::Int(v)) => {
                let folded = match states[0] {
                    AggState::Min { .. } => kernels::min_i64(v),
                    AggState::Max { .. } => kernels::max_i64(v),
                    _ => return false,
                };
                folded
                    .into_iter()
                    .for_each(|m| states[0].update(&Value::Int(m)));
                true
            }
            _ => false,
        }
    }

    /// One pass over `rows` (ascending) of the argument, each into the slot
    /// of its group, `gids[row - start]` (no ids: slot 0), with the type
    /// dispatch outside the loop: every accumulator sees its group's rows
    /// in ascending original position.
    fn sweep(
        &mut self,
        gids: &[u32],
        start: usize,
        arg: &AggArg,
        rows: impl Iterator<Item = usize>,
    ) {
        let at = |i: usize| slot(gids, i - start);
        match (self, arg) {
            (Accs::Count, _) => {}
            (Accs::Sum(acc) | Accs::Avg(acc), AggArg::Col(col, _)) => match &**col {
                Column::Float(v) => add(acc, gids, start, rows, |i| v[i]),
                Column::Int(v) => add(acc, gids, start, rows, |i| v[i] as f64),
                _ => unreachable!("numeric by construction"),
            },
            (Accs::Sum(acc) | Accs::Avg(acc), AggArg::Const(v)) => {
                let v = v.as_f64().expect("numeric by construction");
                add(acc, gids, start, rows, |_| v)
            }
            (Accs::Boxed(states), AggArg::Col(col, _)) => {
                rows.for_each(|i| states[at(i)].update(&col.get(i)))
            }
            (Accs::Boxed(states), AggArg::Const(v)) => rows.for_each(|i| states[at(i)].update(v)),
        }
    }
}

/// The group of a part's `j`th row; with no ids, the one group.
fn slot(gids: &[u32], j: usize) -> usize {
    gids.get(j).map_or(0, |&g| g as usize)
}

/// `acc[gids[i - start]] += v(i)` for `i` in `rows`, in order.
fn add(
    acc: &mut [f64],
    gids: &[u32],
    start: usize,
    rows: impl Iterator<Item = usize>,
    v: impl Fn(usize) -> f64,
) {
    match gids {
        // One group: its sum stays in a register.
        [] => acc[0] = rows.fold(acc[0], |sum, i| sum + v(i)),
        _ => rows.for_each(|i| acc[gids[i - start] as usize] += v(i)),
    }
}

/// The aggregate across parts. Parts finish in any order; their local
/// groups are folded into the global ones in *part* order — by whichever
/// thread closes the gap, nobody waits — and a part's columns are dropped
/// as soon as they are folded. Global groups therefore appear in
/// single-pass first-seen order, and each aggregate sweeps a part's
/// argument column once, adding row `j` into the slot of `j`'s group: an
/// accumulator sees its group's rows in ascending original order, so float
/// sums are exactly the single-pass addition sequence, and are never
/// merged as partial sums. One part is a fold that ends after it.
struct OrderedFold<'m> {
    agg_meta: &'m [(AggFunc, DataType)],
    /// The SIMD tier's ungrouped aggregate of one part: [`Accs::bulk`]
    /// may take an argument column whole.
    bulk: bool,
    /// Parts `0..next` are folded.
    next: usize,
    /// Finished parts still waiting for an earlier one.
    parked: HashMap<usize, LocalGroups>,
    ids: HashMap<Vec<Key>, u32>,
    /// Per global group: its key values and its row count.
    groups: Vec<(Vec<Value>, i64)>,
    /// Per aggregate: its accumulators and, per group, how many of the
    /// group's rows had a NULL argument (left empty until one does).
    accs: Vec<(Accs, Vec<i64>)>,
}

impl OrderedFold<'_> {
    /// Hands in part `part`'s local groups and folds every part that is
    /// now next in line.
    fn push(&mut self, part: usize, local: LocalGroups) {
        self.parked.insert(part, local);
        while let Some(local) = self.parked.remove(&self.next) {
            self.fold(local);
            self.next += 1;
        }
    }

    fn fold(&mut self, mut local: LocalGroups) {
        if local.range.is_empty() {
            return;
        }
        // Local ids become global ones, once per part; a group nobody has
        // seen takes the next id and its values from its first row.
        let global: Vec<u32> = (local.first_rows.iter())
            .map(|&first| {
                let value = |c: &Arc<Column>| c.get(first as usize);
                let key = local.group_cols.iter().map(|c| value_key(&value(c)));
                let next = self.groups.len() as u32;
                *(self.ids)
                    .entry(key.map(|k| k.expect("NULL-free column")).collect())
                    .or_insert_with(|| {
                        let values = local.group_cols.iter().map(value).collect();
                        self.groups.push((values, 0));
                        next
                    })
            })
            .collect();
        for g in &mut local.gids {
            *g = global[*g as usize];
            self.groups[*g as usize].1 += 1;
        }
        if local.gids.is_empty() {
            self.groups[global[0] as usize].1 += local.range.len() as i64;
        }
        let (gids, range, groups) = (&local.gids, local.range, self.groups.len());
        for (((accs, null_counts), arg), meta) in
            (self.accs.iter_mut().zip(&local.args)).zip(self.agg_meta)
        {
            accs.grow(groups, *meta);
            let nulls = arg.nulls_in(&range);
            if nulls.is_empty() {
                match arg {
                    AggArg::Col(col, _) if self.bulk && accs.bulk(col) => {}
                    _ => accs.sweep(gids, range.start, arg, range.clone()),
                }
                continue;
            }
            null_counts.resize(groups, 0);
            for &r in nulls {
                null_counts[slot(gids, r as usize - range.start)] += 1;
            }
            accs.sweep(gids, range.start, arg, live_rows(range.clone(), nulls));
        }
    }

    /// The aggregate's output rows, unsorted.
    fn finish(mut self, grouped: bool) -> Vec<Vec<Value>> {
        if self.groups.is_empty() && !grouped {
            // Global aggregate over an empty input still yields one row.
            self.groups.push((Vec::new(), 0));
        }
        let (mut rows, counts): (Vec<Vec<Value>>, Vec<i64>) = self.groups.into_iter().unzip();
        for ((mut accs, null_counts), meta) in self.accs.into_iter().zip(self.agg_meta) {
            accs.grow(rows.len(), *meta);
            let n = |g: usize| counts[g] - null_counts.get(g).copied().unwrap_or(0);
            let is_int = meta.1 == DataType::Int;
            // One definition of what an accumulator yields: `AggState`'s.
            let states: Vec<AggState> = match accs {
                Accs::Count => (0..rows.len()).map(|g| AggState::Count(n(g))).collect(),
                Accs::Sum(acc) => (acc.into_iter())
                    .map(|acc| AggState::Sum { acc, is_int })
                    .collect(),
                Accs::Avg(acc) => (acc.into_iter().enumerate())
                    .map(|(g, sum)| AggState::Avg { sum, n: n(g) })
                    .collect(),
                Accs::Boxed(states) => states,
            };
            for (row, state) in rows.iter_mut().zip(states) {
                row.push(state.finish());
            }
        }
        rows
    }
}

/// The `Aggregate` operator. The `Filter`/`Project` chain beneath it is
/// fused into the aggregate's own sweep, so a unit runs the chain *and*
/// its grouping in one pass without materializing the full intermediate
/// batch; with no chain over a shared batch (the input is, say, a join)
/// the argument columns are evaluated once and its morsels share them.
/// Every part goes through the [`OrderedFold`]. Returns the batch and the
/// aggregate's own milliseconds.
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
    let eval_cols = |b: &Batch| -> Result<(Vec<Arc<Column>>, Vec<AggArg>), DbError> {
        let group_cols = g_bound.iter().map(|e| vectorized_eval(b, e, schema));
        let args = a_bound.iter().map(|e| match e {
            Expr::Literal(v) => Ok(AggArg::Const(v.clone())),
            e => eval_with_nulls(b, e, schema).map(|(col, nulls)| AggArg::Col(col, nulls.into())),
        });
        Ok((
            group_cols.collect::<Result<_, _>>()?,
            args.collect::<Result<_, _>>()?,
        ))
    };

    let t_shared = Instant::now();
    let shared = match &input {
        Input::Shared(base) if n == 0 => Some(eval_cols(base)?),
        _ => None,
    };
    let shared_secs = t_shared.elapsed().as_secs_f64();
    let engine = ex.engine;
    let grouped = !group_by.is_empty();
    let fold = Mutex::new(OrderedFold {
        agg_meta: &agg_meta,
        bulk: engine == Engine::Simd && !grouped && unit_count(ex, &input) < 2,
        next: 0,
        parked: HashMap::new(),
        ids: HashMap::new(),
        groups: Vec::new(),
        accs: (agg_meta
            .iter()
            .map(|(f, dt)| (Accs::new(*f, *dt), Vec::new())))
        .collect(),
    });
    let parts = sweep(ex, &input, span, |p, base, range| {
        let mut part = AggPart::default();
        let (t_agg, (group_cols, args), range) = match &shared {
            Some(cols) => (Instant::now(), cols.clone(), range),
            None => {
                let out = run_chain(base, &stages, range, engine)?;
                part.chain = out.stats;
                let rows = out.batch.row_count();
                (Instant::now(), eval_cols(&out.batch)?, 0..rows)
            }
        };
        let rows = range.len();
        let (gids, first_rows) = match grouped {
            true => group_ids(&group_cols, range.clone()),
            false => (Vec::new(), vec![range.start as u32]),
        };
        let local = LocalGroups {
            group_cols,
            args,
            range,
            gids,
            first_rows,
        };
        fold.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(p, local);
        part.agg_secs = t_agg.elapsed().as_secs_f64();
        Ok((part, rows))
    })?;
    close_source(ex, source, depth + 1 + n, &input, source_span);
    let total = StageStats::total(n, parts.iter().map(|p| &p.chain));
    close_chain(ex, &nodes, guards, &total, depth + 1);
    let agg_secs: f64 = parts.iter().map(|p| p.agg_secs).sum();

    let t_finish = Instant::now();
    record_sweep(ex, span, "parallel", &input);
    let fold = fold.into_inner().unwrap_or_else(PoisonError::into_inner);
    let rows = fold.finish(grouped);
    let batch = finish_aggregate_batch(ex.catalog, plan, rows)?;
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
    let mut pairs = sweep(ex, &probe_keys, span, |_, keys, range| {
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
