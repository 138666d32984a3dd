//! The batch engine's sweeping operators: pipelines, aggregation, joins.
//!
//! These are the only implementations of `Filter`/`Project`, `Aggregate`
//! and `Join` the batch engine has — [`Executor::run_batch`] dispatches
//! straight here. Each one runs its work through [`sweep`], which makes a
//! single decision from two things it observes, the executor's thread
//! count and the input's row count:
//!
//! * `threads > 1` and the input spans at least two morsels: fixed-size
//!   row-range *morsels* are pulled by worker threads from a shared atomic
//!   cursor ([`perfeval_pool::parallel_map_traced`]);
//! * otherwise: the whole input is one range `0..rows`, run on the calling
//!   thread — no spawn, no morsel spans, no stitching.
//!
//! The operators:
//!
//! * **pipelines** — a `Filter`/`Project` chain over any source batch (a
//!   scan, a join, an aggregate) runs whole per range, with the selection
//!   vector kept range-local and lazy; per-morsel outputs are stitched
//!   back together in morsel-index order;
//! * **hash aggregation** — the chain beneath the aggregate is fused into
//!   the same sweep. One range folds single-pass
//!   ([`vectorized_aggregate`]); a morsel sweep groups each morsel
//!   locally, merges the group directories in morsel order (preserving
//!   first-seen group order), then finishes each group by replaying its
//!   rows in ascending original order — so float accumulators see exactly
//!   the single-pass addition sequence;
//! * **hash joins** — build on the smaller input on the calling thread,
//!   probe the other in a sweep, concatenate matched pairs in morsel order
//!   and canonicalize so the output is independent of the build side.
//!
//! Every merge point is ordered by morsel index, never by completion
//! order, which makes the result **bit-identical** for any thread count
//! and morsel size — the property the correctness suite asserts and
//! exhibit E19 leans on ("same question, same answer, different
//! wall-clock"). `Sort`, `TopN`, `Limit` and `Distinct` do not sweep;
//! their inputs still do.

use crate::column::Column;
use crate::error::DbError;
use crate::exec::{
    bind_join_keys, canonicalize_join_pairs, choose_build_side, finish_aggregate_batch, plan_label,
    value_key, vectorized_aggregate, vectorized_eval, vectorized_filter, vectorized_filter_range,
    AggState, Batch, BuildSide, Executor, JoinBuild, Key, ProfileEntry,
};
use crate::expr::{AggFunc, Expr};
use crate::kernels::{Engine, Sel};
use crate::plan::Plan;
use crate::types::{DataType, Value};
use perfeval_pool::parallel_map_traced;
use perfeval_trace::{SpanGuard, Tracer};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

// --------------------------------------------------------------------
// The sweep: one range on the calling thread, or morsels on workers.
// --------------------------------------------------------------------

/// How many ranges a `rows`-row input is swept in: its morsel count when
/// workers are configured, else 1.
fn morsel_count(ex: &Executor<'_>, rows: usize) -> usize {
    if ex.parallel.threads > 1 {
        rows.div_ceil(ex.parallel.morsel_rows).max(1)
    } else {
        1
    }
}

/// Runs `work` over `0..rows` and returns its outputs in range order.
/// `work` yields its output plus the rows it produced (recorded on the
/// morsel span). One output means the input ran as one range on the
/// calling thread; more means a morsel sweep across workers, which polls
/// for cancellation at every morsel boundary.
fn sweep<T: Send>(
    ex: &Executor<'_>,
    rows: usize,
    work: impl Fn(Range<usize>) -> Result<(T, usize), DbError> + Sync,
) -> Result<Vec<T>, DbError> {
    let morsels = morsel_count(ex, rows);
    if morsels < 2 {
        return Ok(vec![work(0..rows)?.0]);
    }
    let tracer = ex.tracer;
    let cancel = ex.cancel.clone();
    let morsel_rows = ex.parallel.morsel_rows;
    let sweep_start_ns = tracer.map(|t| t.now_ns()).unwrap_or(0);
    let (results, _workers) = parallel_map_traced(morsels, ex.parallel.threads, tracer, |m| {
        if let Some(c) = &cancel {
            c.check()?;
        }
        let range = m * morsel_rows..((m + 1) * morsel_rows).min(rows);
        let mut span = morsel_span(tracer, m, sweep_start_ns, range.len());
        let (out, rows_out) = work(range)?;
        if let Some(g) = span.as_mut() {
            g.attr("rows_out", rows_out);
        }
        Ok(out)
    });
    results.into_iter().collect()
}

/// The morsel span: anchored where the worker's lane became free, with the
/// dispatch gap recorded as a `queue-wait` child and `queued_ms` attribute
/// (be aware what you measure: queueing is not operator time).
fn morsel_span(
    tracer: Option<&Tracer>,
    m: usize,
    sweep_start_ns: u64,
    rows_in: usize,
) -> Option<SpanGuard<'_>> {
    let t = tracer?;
    let anchor_ns = t.lane_resume_ns().max(sweep_start_ns);
    let pickup_ns = t.now_ns();
    let mut g = t.span_at(&format!("morsel {m}"), anchor_ns);
    g.attr("rows_in", rows_in).attr(
        "queued_ms",
        pickup_ns.saturating_sub(anchor_ns) as f64 / 1e6,
    );
    drop(t.span_at("queue-wait", anchor_ns));
    Some(g)
}

/// Records how an operator's input was swept — span attributes plus the
/// profile note — when it was split into morsels; one range leaves no mark.
fn record_sweep(ex: &mut Executor<'_>, span: &mut Option<SpanGuard<'_>>, what: &str, n: usize) {
    if n < 2 {
        return;
    }
    let threads = ex.parallel.threads;
    if let Some(g) = span.as_mut() {
        g.attr("morsels", n).attr("threads", threads);
    }
    let sweep = format!("{what}: {n} morsels x {threads} threads");
    ex.pending_note = Some(match ex.pending_note.take() {
        Some(note) => format!("{note}; {sweep}"),
        None => sweep,
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
    let base = ex.run_batch(source, depth + n)?;
    let (stages, out_schema) = bind_chain(&nodes, base.schema())?;
    let engine = ex.engine;
    let mut outs = sweep(ex, base.row_count(), |range| {
        let out = run_chain(&base, &stages, range, engine)?;
        let rows_out = out.batch.row_count();
        Ok((out, rows_out))
    })?;
    let total = StageStats::total(n, outs.iter().map(|o| &o.stats));
    record_sweep(ex, span, "parallel", outs.len());
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
// Hash aggregation: single pass over one range, or local grouping per
// morsel, ordered merge, per-group finish in ascending row order.
// --------------------------------------------------------------------

/// One range's evaluated grouping/argument columns, the rows of them it
/// covers, and (in a morsel sweep) its local group directory.
#[derive(Default)]
struct AggPart {
    group_cols: Vec<Arc<Column>>,
    agg_cols: Vec<Arc<Column>>,
    range: Range<usize>,
    /// Local group keys in first-seen order.
    keys: Vec<Vec<Key>>,
    /// First row of each group (for extracting group values).
    first_rows: Vec<u32>,
    /// Rows of each group, ascending.
    rows: Vec<Vec<u32>>,
    /// What the fused chain did on the way here.
    chain: StageStats,
    agg_secs: f64,
}

impl AggPart {
    /// Fills the group directory over `self.range`. NULL group keys drop
    /// the row, exactly as the single-pass aggregate does.
    fn group(&mut self) {
        if self.group_cols.is_empty() {
            // Global aggregate: one group holding every row.
            if !self.range.is_empty() {
                self.keys.push(Vec::new());
                self.first_rows.push(self.range.start as u32);
                self.rows
                    .push(self.range.clone().map(|i| i as u32).collect());
            }
            return;
        }
        let mut map: HashMap<Vec<Key>, usize> = HashMap::new();
        'rows: for i in self.range.clone() {
            let mut key = Vec::with_capacity(self.group_cols.len());
            for c in &self.group_cols {
                match value_key(&c.get(i)) {
                    Some(k) => key.push(k),
                    None => continue 'rows,
                }
            }
            let next = self.keys.len();
            let id = *map.entry(key.clone()).or_insert_with(|| {
                self.keys.push(key);
                self.first_rows.push(i as u32);
                self.rows.push(Vec::new());
                next
            });
            self.rows[id].push(i as u32);
        }
    }
}

/// Merges the per-morsel group directories (in morsel order, so the global
/// first-seen order matches single-pass), then finishes groups in parallel
/// — each group replays its rows in ascending original order, giving float
/// accumulators the single-pass addition sequence — and materializes the
/// result through the same final step as the single-pass aggregate.
fn merge_and_finish(
    ex: &Executor<'_>,
    plan: &Plan,
    parts: &[AggPart],
    agg_meta: &[(AggFunc, DataType)],
) -> Result<Batch, DbError> {
    let mut gmap: HashMap<Vec<Key>, usize> = HashMap::new();
    let mut gvals: Vec<Vec<Value>> = Vec::new();
    let mut grows: Vec<Vec<(u32, u32)>> = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        for (li, key) in part.keys.iter().enumerate() {
            let next = gvals.len();
            let id = *gmap.entry(key.clone()).or_insert_with(|| {
                let first = part.first_rows[li] as usize;
                gvals.push(part.group_cols.iter().map(|c| c.get(first)).collect());
                grows.push(Vec::new());
                next
            });
            grows[id].extend(part.rows[li].iter().map(|&r| (pi as u32, r)));
        }
    }

    let new_states = || -> Vec<AggState> {
        agg_meta
            .iter()
            .map(|(f, dt)| AggState::new(*f, *dt))
            .collect()
    };
    let finish_group = |gid: usize| -> Vec<Value> {
        let mut states = new_states();
        for &(pi, r) in &grows[gid] {
            let part = &parts[pi as usize];
            for (state, col) in states.iter_mut().zip(&part.agg_cols) {
                state.update_from_col(col, r as usize);
            }
        }
        let mut row = gvals[gid].clone();
        row.extend(states.into_iter().map(AggState::finish));
        row
    };

    let grouped = !parts[0].group_cols.is_empty();
    let rows: Vec<Vec<Value>> = if gvals.is_empty() && !grouped {
        // Global aggregate over an empty input still yields one row.
        vec![new_states().into_iter().map(AggState::finish).collect()]
    } else if gvals.len() >= 2 {
        perfeval_pool::parallel_map(gvals.len(), ex.parallel.threads, finish_group).0
    } else {
        (0..gvals.len()).map(finish_group).collect()
    };
    finish_aggregate_batch(ex.catalog, plan, rows)
}

/// The `Aggregate` operator. The `Filter`/`Project` chain beneath it is
/// fused into the aggregate's own sweep, so a range runs the chain *and*
/// its grouping in one pass without materializing the full intermediate
/// batch; with no chain (the input is, say, a join) the argument columns
/// are evaluated once over the source batch and ranges share them.
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
    let base = ex.run_batch(source, depth + 1 + n)?;
    let (stages, schema) = bind_chain(&nodes, base.schema())?;
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
    let shared = if n == 0 {
        Some(eval_cols(&base)?)
    } else {
        None
    };
    let shared_secs = t_shared.elapsed().as_secs_f64();
    let engine = ex.engine;
    let rows = base.row_count();
    let split = morsel_count(ex, rows) >= 2;
    let mut parts = sweep(ex, rows, |range| {
        let mut part = AggPart::default();
        let t_agg;
        match &shared {
            Some((group_cols, agg_cols)) => {
                t_agg = Instant::now();
                (part.group_cols, part.agg_cols) = (group_cols.clone(), agg_cols.clone());
                part.range = range;
            }
            None => {
                let out = run_chain(&base, &stages, range, engine)?;
                t_agg = Instant::now();
                (part.group_cols, part.agg_cols) = eval_cols(&out.batch)?;
                part.range = 0..out.batch.row_count();
                part.chain = out.stats;
            }
        }
        if split {
            part.group();
        }
        part.agg_secs = t_agg.elapsed().as_secs_f64();
        let rows_out = part.range.len();
        Ok((part, rows_out))
    })?;
    let total = StageStats::total(n, parts.iter().map(|p| &p.chain));
    close_chain(ex, &nodes, guards, &total, depth + 1);
    let agg_secs: f64 = parts.iter().map(|p| p.agg_secs).sum();

    let t_finish = Instant::now();
    record_sweep(ex, span, "parallel", parts.len());
    let batch = if split {
        let mut merge_span = ex.tracer.map(|t| t.span("merge"));
        let batch = merge_and_finish(ex, plan, &parts, &agg_meta)?;
        if let Some(g) = merge_span.as_mut() {
            g.attr("groups", batch.row_count());
        }
        batch
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
    let (build_col, probe_col): (&Column, &Column) = match side {
        BuildSide::Left => (&lkey_col, &rkey_col),
        BuildSide::Right => (&rkey_col, &lkey_col),
    };
    let build = JoinBuild::new(build_col, probe_col, ex.engine);

    let mut pairs = sweep(ex, probe_col.len(), |range| {
        let pairs = build.probe_range(probe_col, range);
        let rows_out = pairs.0.len();
        Ok((pairs, rows_out))
    })?;
    if let Some(g) = span.as_mut() {
        g.attr("build_side", side.label());
    }
    ex.pending_note = Some(format!("build={}", side.label()));
    record_sweep(ex, span, "parallel probe", pairs.len());
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
