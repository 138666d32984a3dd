//! Plan execution: two engines, one plan language.
//!
//! The "Of apples and oranges" war story (slides 37–45) is about comparing a
//! debug build against an optimized build without knowing it. `minidb` makes
//! that axis explicit:
//!
//! * [`ExecMode::Debug`] — a row-at-a-time interpreter: every value is boxed
//!   into a [`Value`], every row materialized, invariants re-checked per row
//!   (the `--enable-debug --enable-assert` build).
//! * the batch engine — a column-at-a-time engine with type-specialized
//!   kernels, selection vectors, and dictionary-code comparisons (the `-O6`
//!   build), at two kernel tiers: [`ExecMode::Optimized`] runs scalar inner
//!   loops, [`ExecMode::Simd`] the chunked branchless ones of
//!   [`crate::kernels`]. SIMD is the default and the served tier; OPT is the
//!   reference level of the DBG/OPT and OPT/SIMD exhibits. What no kernel
//!   covers either tier evaluates one boxed row at a time, and counts:
//!   [`rows_boxed`].
//!
//! All three produce identical results (tested, floats by bits); they
//! differ only in speed — DBG against the batch engine by roughly the
//! factor the tutorial's DBG/OPT figure shows, growing with how much
//! tight-loop work the query does.
//!
//! The executor also produces the per-operator **profile trace** of
//! experiment E12 (slide 54): exclusive time and output cardinality per
//! plan node.

use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::DbError;
use crate::expr::{AggFunc, BinOp, Expr};
use crate::kernels::{self, Cmp, Engine, Sel};
use crate::plan::Plan;
use crate::storage::ScanIo;
use crate::table::Table;
use crate::types::{DataType, Value};
use perfeval_trace::{SpanGuard, Tracer};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which engine executes the plan. The default — what [`Session::new`]
/// gives and therefore what `minidb-serve` serves — is [`ExecMode::Simd`],
/// the fastest of the three tiers that answer bit-identically.
///
/// [`Session::new`]: crate::Session::new
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Row-at-a-time interpreter with per-row checks (a "debug build"): the
    /// oracle the batteries compare the other two against.
    Debug,
    /// Vectorized column-at-a-time engine with scalar inner loops (an
    /// optimized build, the `-O6` level of the DBG/OPT exhibit): the
    /// reference level E3 and E24 measure SIMD against. Served by nothing
    /// unless a caller asks for it.
    Optimized,
    /// The optimized engine with the explicit chunked SIMD kernels from
    /// [`crate::kernels`]: same operators, same selection vectors, same
    /// results bit-for-bit — only the inner loops differ. The served tier.
    #[default]
    Simd,
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecMode::Debug => "DBG",
            ExecMode::Optimized => "OPT",
            ExecMode::Simd => "SIMD",
        })
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    /// Parses the display names (`DBG`/`OPT`/`SIMD`, case-insensitive) —
    /// the engine level as experiment configs and CLIs spell it.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "DBG" | "DEBUG" => Ok(ExecMode::Debug),
            "OPT" | "OPTIMIZED" => Ok(ExecMode::Optimized),
            "SIMD" => Ok(ExecMode::Simd),
            other => Err(format!("unknown engine '{other}' (DBG|OPT|SIMD)")),
        }
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub column_names: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Approximate rendered size in bytes (drives the sink-cost experiment).
    pub fn rendered_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(|v| v.render().len() + 1).sum::<usize>())
            .sum()
    }
}

/// Rows built out of columns by [`ResultData::into_rows`] since process
/// start.
static ROWS_TRANSPOSED: AtomicU64 = AtomicU64::new(0);

/// Total rows the crate's one column→row transposition has built so far.
///
/// Process-global and monotone, like
/// [`scan_concat_bytes`](crate::column::scan_concat_bytes). An in-process
/// [`Executor::run`] of the batch engine moves it by the result's row
/// count; a statement served over `minidb-net` must not move it — its
/// columns go to the socket as they are.
pub fn rows_transposed() -> u64 {
    ROWS_TRANSPOSED.load(Ordering::Relaxed)
}

/// Rows the batch engine's row-at-a-time fallback has boxed since process
/// start.
static ROWS_BOXED: AtomicU64 = AtomicU64::new(0);

/// Total rows the batch engine has evaluated one boxed [`Value`] row at a
/// time: the fallback of expression evaluation and of the filter for what no
/// typed kernel covers (Int arithmetic, string expressions, disjunctions).
/// Process-global and monotone, like [`rows_transposed`]; a statement whose
/// expressions all have a kernel — every shape of the served benchmark —
/// leaves it alone.
pub fn rows_boxed() -> u64 {
    ROWS_BOXED.load(Ordering::Relaxed)
}

/// A result as the engine left it, before anyone asked for rows.
#[derive(Debug, Clone)]
pub struct ColumnarResult {
    /// Output column names.
    pub column_names: Vec<String>,
    /// The values.
    pub data: ResultData,
}

/// The values of a result in the shape the engine tier produced them.
#[derive(Debug, Clone)]
pub enum ResultData {
    /// The batch engine's typed columns, one per output column, all of one
    /// length and none holding NULL.
    Columns(Vec<Arc<Column>>),
    /// The debug interpreter's rows (and the one cell of a DDL/DML
    /// answer): they may hold NULL and mix types within a column, so they
    /// have no typed-column form.
    Rows(Vec<Vec<Value>>),
}

impl ResultData {
    /// Number of rows.
    pub fn row_count(&self) -> usize {
        match self {
            ResultData::Columns(cols) => cols.first().map_or(0, |c| c.len()),
            ResultData::Rows(rows) => rows.len(),
        }
    }

    /// The rows: the crate's one transposition, counted by
    /// [`rows_transposed`]. Rows that already exist are handed over as
    /// they are and count nothing.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        match self {
            ResultData::Rows(rows) => rows,
            ResultData::Columns(cols) => {
                let n = cols.first().map_or(0, |c| c.len());
                ROWS_TRANSPOSED.fetch_add(n as u64, Ordering::Relaxed);
                (0..n)
                    .map(|i| cols.iter().map(|c| c.get(i)).collect())
                    .collect()
            }
        }
    }
}

/// One line of the PROFILE trace.
#[derive(Debug, Clone)]
pub struct ProfileEntry {
    /// Operator label, e.g. "Scan lineitem".
    pub op: String,
    /// Depth in the plan tree (0 = root).
    pub depth: usize,
    /// Time spent in this operator excluding its children, ms. For
    /// morsel-parallel operators this is CPU time summed across workers,
    /// so it can exceed the node's wall-clock share.
    pub exclusive_ms: f64,
    /// Rows this operator produced.
    pub rows_out: usize,
    /// Free-form annotation, e.g. the hash join's build-side choice.
    pub note: Option<String>,
}

/// Renders a profile trace the way `TRACE` output looks.
pub fn render_profile(entries: &[ProfileEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!(
            "{:>10.3} ms {:>10} rows  {}{}{}\n",
            e.exclusive_ms,
            e.rows_out,
            "  ".repeat(e.depth),
            e.op,
            e.note
                .as_deref()
                .map(|n| format!("  [{n}]"))
                .unwrap_or_default(),
        ));
    }
    out
}

/// Rewrites a post-order operator trace (children before parents, as
/// execution completes them) into the root-first pre-order the `TRACE`
/// output uses. One O(n) pass replaces the old per-node
/// `Vec::insert`-with-linear-scan, which was O(n²) in plan size.
fn profile_post_to_pre(post: &mut Vec<ProfileEntry>) -> Vec<ProfileEntry> {
    fn take_subtree(post: &mut Vec<ProfileEntry>) -> Vec<ProfileEntry> {
        let node = post.pop().expect("non-empty subtree");
        let depth = node.depth;
        // Child subtrees sit on top of the stack in reverse completion
        // order; peel them off, then emit left-to-right.
        let mut kids = Vec::new();
        while post.last().is_some_and(|e| e.depth > depth) {
            kids.push(take_subtree(post));
        }
        let mut out = vec![node];
        for k in kids.into_iter().rev() {
            out.extend(k);
        }
        out
    }
    let mut roots = Vec::new();
    while !post.is_empty() {
        roots.push(take_subtree(post));
    }
    let mut pre = Vec::new();
    for r in roots.into_iter().rev() {
        pre.extend(r);
    }
    pre
}

/// Executes plans against a catalog.
pub struct Executor<'a> {
    pub(crate) catalog: &'a Catalog,
    mode: ExecMode,
    /// The kernel tier the batch operators dispatch, fixed by `mode` at
    /// construction (`Scalar` for OPT, `Simd` for SIMD). The debug engine
    /// never reaches kernels.
    pub(crate) engine: Engine,
    pub(crate) tracer: Option<&'a Tracer>,
    pub(crate) profile: Vec<ProfileEntry>,
    /// Morsel parallelism for the batch engine: worker threads and
    /// morsel granularity. `threads <= 1` runs every operator as one range
    /// on the calling thread.
    pub(crate) parallel: ParallelConfig,
    /// Note attached to the next profile entry the executor emits (set by
    /// operators that make a recorded choice, e.g. join build side).
    pub(crate) pending_note: Option<String>,
    /// Cooperative cancellation, polled at operator and morsel
    /// boundaries. `None` (the default) costs nothing on the hot path.
    pub(crate) cancel: Option<crate::cancel::CancelToken>,
}

/// Morsel-parallelism knobs for the optimized engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads; `<= 1` runs every operator on the calling thread.
    pub threads: usize,
    /// Rows per morsel (fixed-size row ranges over the input).
    pub morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

/// Default rows per morsel: large enough that per-morsel dispatch cost
/// vanishes, small enough that a few hundred thousand rows split across
/// every worker.
pub const DEFAULT_MORSEL_ROWS: usize = 16_384;

/// The operator label a plan node gets in both the profile trace and the
/// per-operator spans — one naming scheme for every observability surface.
pub fn plan_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, .. } => format!("Scan {table}"),
        Plan::Filter { .. } => "Filter".to_owned(),
        Plan::Project { .. } => "Project".to_owned(),
        Plan::Join { .. } => "HashJoin".to_owned(),
        Plan::Aggregate { .. } => "HashAggregate".to_owned(),
        Plan::Sort { .. } => "Sort".to_owned(),
        Plan::Limit { n, .. } => format!("Limit {n}"),
        Plan::Distinct { .. } => "Distinct".to_owned(),
        Plan::TopN { n, .. } => format!("TopN {n}"),
    }
}

/// The table column indices a scan reads, in output order.
pub(crate) fn projected_columns(t: &Table, projection: &Option<Vec<usize>>) -> Vec<usize> {
    match projection {
        Some(idxs) => idxs.clone(),
        None => (0..t.column_count()).collect(),
    }
}

/// Puts a disk-backed scan's own pool accounting on its span: how many
/// chunks the table is cut into and how the scan's reads of them went
/// (`discarded`: misses whose value was dropped, another session having
/// admitted the chunk first).
pub(crate) fn scan_span_attrs(span: &mut Option<SpanGuard<'_>>, io: &ScanIo, chunks: usize) {
    if let Some(g) = span.as_mut() {
        g.attr("chunks", chunks)
            .attr("pool_hits", io.hits)
            .attr("pool_misses", io.misses)
            .attr("discarded", io.discarded);
    }
}

/// A columnar batch flowing between optimized operators.
///
/// Columns are shared by `Arc`: a scan batch holds the base table's own
/// columns (zero-copy), and operators that merely reorder references
/// (identity projections) clone handles, not data.
pub(crate) struct Batch {
    pub(crate) names: Vec<String>,
    pub(crate) cols: Vec<Arc<Column>>,
}

impl Batch {
    pub(crate) fn row_count(&self) -> usize {
        self.cols.first().map_or(0, |c| c.len())
    }

    pub(crate) fn schema(&self) -> Vec<(String, DataType)> {
        self.names
            .iter()
            .cloned()
            .zip(self.cols.iter().map(|c| c.data_type()))
            .collect()
    }

    pub(crate) fn take(&self, selection: &[usize]) -> Batch {
        Batch {
            names: self.names.clone(),
            cols: self
                .cols
                .iter()
                .map(|c| Arc::new(c.take(selection)))
                .collect(),
        }
    }
}

/// Hashable key for joins and group-by (SQL NULL never matches, so keys are
/// only built from non-null values).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    I(i64),
    F(u64),
    S(String),
    B(bool),
}

pub(crate) fn value_key(v: &Value) -> Option<Key> {
    match v {
        Value::Int(i) => Some(Key::I(*i)),
        Value::Float(f) => Some(Key::F(f.to_bits())),
        Value::Str(s) => Some(Key::S(s.clone())),
        Value::Bool(b) => Some(Key::B(*b)),
        Value::Null => None,
    }
}

/// Typed aggregate accumulator.
///
/// Engine semantics for aggregates over an *empty* input differ from
/// strict SQL on purpose: the engine's columns are NULL-free by design, so
/// empty SUM/AVG/MIN/MAX return the zero of their type instead of NULL
/// (COUNT returns 0 either way). Both engines implement the same rule,
/// which keeps their outputs bit-identical — a property the test suite
/// checks exhaustively.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Sum {
        acc: f64,
        is_int: bool,
    },
    Count(i64),
    CountDistinct(std::collections::HashSet<Key>),
    Avg {
        sum: f64,
        n: i64,
    },
    Min {
        slot: Option<Value>,
        arg_type: DataType,
    },
    Max {
        slot: Option<Value>,
        arg_type: DataType,
    },
}

/// The typed zero an empty aggregate yields.
fn type_zero(dt: DataType) -> Value {
    match dt {
        DataType::Int => Value::Int(0),
        DataType::Float => Value::Float(0.0),
        DataType::Str => Value::Str(String::new()),
        DataType::Bool => Value::Bool(false),
    }
}

/// What a NULL becomes where a typed column has to hold it.
fn null_sentinel(dt: DataType) -> Value {
    match dt {
        DataType::Float => Value::Float(f64::NAN),
        other => type_zero(other),
    }
}

impl AggState {
    pub(crate) fn new(func: AggFunc, arg_type: DataType) -> AggState {
        match func {
            AggFunc::Sum => AggState::Sum {
                acc: 0.0,
                is_int: arg_type == DataType::Int,
            },
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(std::collections::HashSet::new()),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min {
                slot: None,
                arg_type,
            },
            AggFunc::Max => AggState::Max {
                slot: None,
                arg_type,
            },
        }
    }

    pub(crate) fn update(&mut self, v: &Value) {
        if matches!(v, Value::Null) {
            return; // SQL aggregates skip NULLs
        }
        match self {
            AggState::Sum { acc, .. } => {
                if let Some(f) = v.as_f64() {
                    *acc += f;
                }
            }
            AggState::Count(n) => *n += 1,
            AggState::CountDistinct(set) => {
                if let Some(k) = value_key(v) {
                    set.insert(k);
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(f) = v.as_f64() {
                    *sum += f;
                    *n += 1;
                }
            }
            AggState::Min { slot, .. } => {
                let replace = match slot {
                    None => true,
                    Some(cur) => matches!(v.sql_cmp(cur), Some(std::cmp::Ordering::Less)),
                };
                if replace {
                    *slot = Some(v.clone());
                }
            }
            AggState::Max { slot, .. } => {
                let replace = match slot {
                    None => true,
                    Some(cur) => matches!(v.sql_cmp(cur), Some(std::cmp::Ordering::Greater)),
                };
                if replace {
                    *slot = Some(v.clone());
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Sum { acc, is_int } => {
                if is_int {
                    Value::Int(acc as i64)
                } else {
                    Value::Float(acc)
                }
            }
            AggState::Count(n) => Value::Int(n),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Float(0.0)
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min { slot, arg_type } | AggState::Max { slot, arg_type } => {
                slot.unwrap_or_else(|| type_zero(arg_type))
            }
        }
    }
}

impl<'a> Executor<'a> {
    /// Creates an executor.
    pub fn new(catalog: &'a Catalog, mode: ExecMode) -> Self {
        Executor {
            catalog,
            mode,
            engine: match mode {
                ExecMode::Simd => Engine::Simd,
                _ => Engine::Scalar,
            },
            tracer: None,
            profile: Vec::new(),
            parallel: ParallelConfig::default(),
            pending_note: None,
            cancel: None,
        }
    }

    /// Attaches a cancellation token: the executor polls it at every
    /// operator boundary (both engines) and at every morsel boundary
    /// (the parallel paths), unwinding with [`DbError::Cancelled`] so a
    /// cancelled query frees its threads within one morsel of work.
    pub fn with_cancel(mut self, token: crate::cancel::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The cancellation poll; a no-op unless a token is attached.
    #[inline]
    pub(crate) fn check_cancel(&self) -> Result<(), DbError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Sets the worker-thread count for the optimized engine's
    /// morsel-driven operators. `n <= 1` (the default) runs serially;
    /// results are bit-identical either way. The debug engine ignores the
    /// knob — a "debug build" stays single-threaded by design.
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallel.threads = n.max(1);
        self
    }

    /// Sets the morsel granularity (rows per morsel) used when
    /// parallelism is enabled.
    ///
    /// # Panics
    /// Panics if `rows` is zero.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "morsel size must be positive");
        self.parallel.morsel_rows = rows;
        self
    }

    /// Attaches a tracer: every operator records a span (nested like the
    /// plan tree), with row counts and buffer-pool hit/miss deltas as
    /// attributes.
    pub fn with_tracer(mut self, tracer: &'a Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs the plan to a materialized result: [`Executor::run_columns`],
    /// then the transposition.
    pub fn run(&mut self, plan: &Plan) -> Result<ResultSet, DbError> {
        let ColumnarResult { column_names, data } = self.run_columns(plan)?;
        Ok(ResultSet {
            column_names,
            rows: data.into_rows(),
        })
    }

    /// Runs the plan and stops where the engine stops: the batch engine's
    /// columns are returned as they are, no row is built.
    pub fn run_columns(&mut self, plan: &Plan) -> Result<ColumnarResult, DbError> {
        self.profile.clear();
        let result = match self.mode {
            ExecMode::Debug => {
                let (schema, rows) = self.run_rows(plan, 0)?;
                ColumnarResult {
                    column_names: schema.into_iter().map(|(n, _)| n).collect(),
                    data: ResultData::Rows(rows),
                }
            }
            ExecMode::Optimized | ExecMode::Simd => {
                let batch = self.run_batch(plan, 0)?;
                ColumnarResult {
                    column_names: batch.names,
                    data: ResultData::Columns(batch.cols),
                }
            }
        };
        // Entries were appended post-order (O(1) per node); flip to the
        // root-first order the profile API exposes.
        self.profile = profile_post_to_pre(&mut self.profile);
        Ok(result)
    }

    /// The profile trace of the last `run` (root first).
    pub fn profile(&self) -> &[ProfileEntry] {
        &self.profile
    }

    /// Materializes a scan's projected columns whole — the `Scan` operator
    /// of both engines. Disk-backed tables read through the buffer pool
    /// (and copy multi-chunk columns together, see
    /// [`Table::column_arc_io`](crate::Table::column_arc_io)); the scan's
    /// own pool accesses land on `span`.
    fn scan_whole(
        &self,
        table: &str,
        projection: &Option<Vec<usize>>,
        span: &mut Option<SpanGuard<'_>>,
    ) -> Result<Batch, DbError> {
        let t = self.catalog.table(table)?;
        let idxs = projected_columns(t, projection);
        let mut io = ScanIo::default();
        let cols = idxs
            .iter()
            .map(|&i| t.scan_column(i, &mut io))
            .collect::<Result<_, DbError>>()?;
        if let Some(b) = t.backing() {
            scan_span_attrs(span, &io, b.chunk_count());
        }
        Ok(Batch {
            names: idxs.iter().map(|&i| t.column_names()[i].clone()).collect(),
            cols,
        })
    }

    // ----------------------------------------------------------------
    // Debug engine: row-at-a-time with per-row checks.
    // ----------------------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn run_rows(
        &mut self,
        plan: &Plan,
        depth: usize,
    ) -> Result<(Vec<(String, DataType)>, Vec<Vec<Value>>), DbError> {
        self.check_cancel()?;
        let start = Instant::now();
        let label = plan_label(plan);
        let mut span = self.tracer.map(|t| t.span(&label));
        let result: (Vec<(String, DataType)>, Vec<Vec<Value>>);
        let mut child_ms = 0.0;
        match plan {
            Plan::Scan { table, projection } => {
                let schema = plan.schema(self.catalog)?;
                // Fetch columns once (disk-backed tables do real I/O
                // here), then materialize row-at-a-time as before.
                let cols = self.scan_whole(table, projection, &mut span)?.cols;
                let n = self.catalog.table(table)?.row_count();
                let mut rows = Vec::with_capacity(n);
                for i in 0..n {
                    // Debug build: materialize and re-verify every row.
                    let row: Vec<Value> = cols.iter().map(|c| c.get(i)).collect();
                    assert_eq!(row.len(), schema.len(), "row arity invariant");
                    for (v, (_, dt)) in row.iter().zip(&schema) {
                        if let Some(vt) = v.data_type() {
                            assert_eq!(vt, *dt, "column type invariant");
                        }
                    }
                    rows.push(row);
                }
                result = (schema, rows);
            }
            Plan::Filter { input, predicate } => {
                let c0 = Instant::now();
                let (schema, rows) = self.run_rows(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let bound = predicate.bind(&schema)?;
                let mut kept = Vec::new();
                for row in rows {
                    if bound.eval(&row)? == Value::Bool(true) {
                        kept.push(row);
                    }
                }
                result = (schema, kept);
            }
            Plan::Project { input, exprs } => {
                let c0 = Instant::now();
                let (schema, rows) = self.run_rows(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let bound: Vec<(Expr, String)> = exprs
                    .iter()
                    .map(|(e, n)| Ok((e.bind(&schema)?, n.clone())))
                    .collect::<Result<_, DbError>>()?;
                let out_schema: Vec<(String, DataType)> = exprs
                    .iter()
                    .map(|(e, n)| Ok((n.clone(), e.data_type(&schema)?)))
                    .collect::<Result<_, DbError>>()?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut new_row = Vec::with_capacity(bound.len());
                    for (e, _) in &bound {
                        new_row.push(e.eval(&row)?);
                    }
                    out.push(new_row);
                }
                result = (out_schema, out);
            }
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let c0 = Instant::now();
                let (ls, lrows) = self.run_rows(left, depth + 1)?;
                let (rs, rrows) = self.run_rows(right, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let (lk, rk) = bind_join_keys(left_key, right_key, &ls, &rs)?;
                // Build on the left.
                let mut build: HashMap<Key, Vec<usize>> = HashMap::new();
                for (i, row) in lrows.iter().enumerate() {
                    if let Some(k) = value_key(&lk.eval(row)?) {
                        build.entry(k).or_default().push(i);
                    }
                }
                let mut out = Vec::new();
                for rrow in &rrows {
                    if let Some(k) = value_key(&rk.eval(rrow)?) {
                        if let Some(matches) = build.get(&k) {
                            for &li in matches {
                                let mut joined = lrows[li].clone();
                                joined.extend(rrow.iter().cloned());
                                out.push(joined);
                            }
                        }
                    }
                }
                let mut schema = ls;
                schema.extend(rs);
                result = (schema, out);
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let c0 = Instant::now();
                let (schema, rows) = self.run_rows(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let bound_groups: Vec<Expr> = group_by
                    .iter()
                    .map(|(e, _)| e.bind(&schema))
                    .collect::<Result<_, _>>()?;
                let bound_aggs: Vec<(AggFunc, Expr, DataType)> = aggregates
                    .iter()
                    .map(|(f, e, _)| {
                        let b = e.bind(&schema)?;
                        let dt = e.data_type(&schema)?;
                        Ok((*f, b, dt))
                    })
                    .collect::<Result<_, DbError>>()?;
                let mut groups: HashMap<Vec<Key>, (Vec<Value>, Vec<AggState>)> = HashMap::new();
                for row in &rows {
                    let mut key = Vec::with_capacity(bound_groups.len());
                    let mut key_vals = Vec::with_capacity(bound_groups.len());
                    let mut has_null = false;
                    for g in &bound_groups {
                        let v = g.eval(row)?;
                        match value_key(&v) {
                            Some(k) => key.push(k),
                            None => has_null = true,
                        }
                        key_vals.push(v);
                    }
                    if has_null {
                        continue; // groups with NULL keys are dropped (no NULLs in base data)
                    }
                    let entry = groups.entry(key).or_insert_with(|| {
                        (
                            key_vals.clone(),
                            bound_aggs
                                .iter()
                                .map(|(f, _, dt)| AggState::new(*f, *dt))
                                .collect(),
                        )
                    });
                    for ((_, e, _), state) in bound_aggs.iter().zip(&mut entry.1) {
                        state.update(&e.eval(row)?);
                    }
                }
                // Global aggregate over empty input still yields one row.
                if groups.is_empty() && bound_groups.is_empty() {
                    groups.insert(
                        Vec::new(),
                        (
                            Vec::new(),
                            bound_aggs
                                .iter()
                                .map(|(f, _, dt)| AggState::new(*f, *dt))
                                .collect(),
                        ),
                    );
                }
                let out_schema = plan.schema(self.catalog)?;
                let mut out: Vec<Vec<Value>> = groups
                    .into_values()
                    .map(|(mut key_vals, states)| {
                        key_vals.extend(states.into_iter().map(AggState::finish));
                        key_vals
                    })
                    .collect();
                // Deterministic output order (hash maps are not).
                out.sort_by(|a, b| compare_rows(a, b));
                result = (out_schema, out);
            }
            Plan::Sort { input, keys } => {
                let c0 = Instant::now();
                let (schema, mut rows) = self.run_rows(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let bound: Vec<(Expr, bool)> = keys
                    .iter()
                    .map(|(e, d)| Ok((e.bind(&schema)?, *d)))
                    .collect::<Result<_, DbError>>()?;
                let mut err = None;
                rows.sort_by(|a, b| {
                    for (e, desc) in &bound {
                        let va = match e.eval(a) {
                            Ok(v) => v,
                            Err(x) => {
                                err.get_or_insert(x);
                                return std::cmp::Ordering::Equal;
                            }
                        };
                        let vb = match e.eval(b) {
                            Ok(v) => v,
                            Err(x) => {
                                err.get_or_insert(x);
                                return std::cmp::Ordering::Equal;
                            }
                        };
                        let ord = va.sql_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                if let Some(e) = err {
                    return Err(e);
                }
                result = (schema, rows);
            }
            Plan::Limit { input, n } => {
                let c0 = Instant::now();
                let (schema, mut rows) = self.run_rows(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                rows.truncate(*n);
                result = (schema, rows);
            }
            Plan::Distinct { input } => {
                let c0 = Instant::now();
                let (schema, rows) = self.run_rows(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let mut seen = std::collections::HashSet::new();
                let mut kept = Vec::new();
                for row in rows {
                    let key: Vec<Option<Key>> = row.iter().map(value_key).collect();
                    if seen.insert(key) {
                        kept.push(row);
                    }
                }
                result = (schema, kept);
            }
            Plan::TopN { input, keys, n } => {
                let c0 = Instant::now();
                let (schema, rows) = self.run_rows(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let bound: Vec<(Expr, bool)> = keys
                    .iter()
                    .map(|(e, d)| Ok((e.bind(&schema)?, *d)))
                    .collect::<Result<_, DbError>>()?;
                // Precompute key values per row so comparisons are cheap.
                let mut best: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(n + 1);
                for row in rows {
                    let mut key_vals = Vec::with_capacity(bound.len());
                    for (e, _) in &bound {
                        key_vals.push(e.eval(&row)?);
                    }
                    bounded_insert(&mut best, (key_vals, row), *n, |a, b| {
                        compare_keyed(&a.0, &b.0, &bound)
                    });
                }
                result = (schema, best.into_iter().map(|(_, row)| row).collect());
            }
        }
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let entry_rows = result.1.len();
        if let Some(g) = span.as_mut() {
            g.attr("rows_out", entry_rows);
        }
        drop(span);
        // Post-order append: children recorded themselves first; `run`
        // flips the whole trace to root-first in one pass at the end.
        self.profile.push(ProfileEntry {
            op: label,
            depth,
            exclusive_ms: (total_ms - child_ms).max(0.0),
            rows_out: entry_rows,
            note: self.pending_note.take(),
        });
        Ok(result)
    }

    // ----------------------------------------------------------------
    // Optimized engine: column-at-a-time with selection vectors.
    // ----------------------------------------------------------------

    pub(crate) fn run_batch(&mut self, plan: &Plan, depth: usize) -> Result<Batch, DbError> {
        self.check_cancel()?;
        let start = Instant::now();
        let label = plan_label(plan);
        let mut span = self.tracer.map(|t| t.span(&label));
        let mut child_ms = 0.0;
        // Operators that sweep morsels (`crate::parallel`) report their own
        // time, summed over workers; the rest get wall time minus children.
        let mut own_ms = None;
        let batch = match plan {
            // Zero-copy for an in-memory or single-chunk table: the batch
            // shares the table's columns (or the pooled chunk) by Arc.
            Plan::Scan { table, projection } => self.scan_whole(table, projection, &mut span)?,
            Plan::Filter { .. } | Plan::Project { .. } => {
                let (batch, ms) = crate::parallel::pipeline(self, plan, depth, &mut span)?;
                own_ms = Some(ms);
                batch
            }
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let (batch, ms) = crate::parallel::join(
                    self, left, right, left_key, right_key, depth, &mut span,
                )?;
                own_ms = Some(ms);
                batch
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let (batch, ms) = crate::parallel::aggregate(
                    self, plan, input, group_by, aggregates, depth, &mut span,
                )?;
                own_ms = Some(ms);
                batch
            }
            Plan::Sort { input, keys } => {
                let c0 = Instant::now();
                let input_batch = self.run_batch(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let cmp_rows = key_comparator(&input_batch, keys)?;
                let mut perm: Vec<usize> = (0..input_batch.row_count()).collect();
                perm.sort_by(|&a, &b| cmp_rows(a, b));
                input_batch.take(&perm)
            }
            Plan::Limit { input, n } => {
                let c0 = Instant::now();
                let input_batch = self.run_batch(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let keep: Vec<usize> = (0..input_batch.row_count().min(*n)).collect();
                input_batch.take(&keep)
            }
            Plan::Distinct { input } => {
                let c0 = Instant::now();
                let input_batch = self.run_batch(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                // A row is kept when it is the first of its group.
                let (_, firsts) = kernels::group_ids(&input_batch.cols, 0..input_batch.row_count());
                let firsts: Vec<usize> = firsts.into_iter().map(|r| r as usize).collect();
                input_batch.take(&firsts)
            }
            Plan::TopN { input, keys, n } => {
                let c0 = Instant::now();
                let input_batch = self.run_batch(input, depth + 1)?;
                child_ms = c0.elapsed().as_secs_f64() * 1e3;
                let cmp_rows = key_comparator(&input_batch, keys)?;
                let mut best: Vec<usize> = Vec::with_capacity(n + 1);
                for i in 0..input_batch.row_count() {
                    bounded_insert(&mut best, i, *n, |&a, &b| cmp_rows(a, b));
                }
                input_batch.take(&best)
            }
        };
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let rows_out = batch.row_count();
        if let Some(g) = span.as_mut() {
            g.attr("rows_out", rows_out);
        }
        drop(span);
        self.profile.push(ProfileEntry {
            op: label,
            depth,
            exclusive_ms: own_ms.unwrap_or((total_ms - child_ms).max(0.0)),
            rows_out,
            note: self.pending_note.take(),
        });
        Ok(batch)
    }
}

/// Evaluates ORDER BY `keys` over `batch` and returns the row-index
/// comparator the `Sort` and `TopN` operators share.
fn key_comparator(
    batch: &Batch,
    keys: &[(Expr, bool)],
) -> Result<impl Fn(usize, usize) -> std::cmp::Ordering, DbError> {
    let schema = batch.schema();
    let key_cols: Vec<(Arc<Column>, bool)> = keys
        .iter()
        .map(|(e, d)| Ok((vectorized_eval(batch, &e.bind(&schema)?, &schema)?, *d)))
        .collect::<Result<_, DbError>>()?;
    Ok(move |a: usize, b: usize| {
        for (col, desc) in &key_cols {
            let ord = col
                .get(a)
                .sql_cmp(&col.get(b))
                .unwrap_or(std::cmp::Ordering::Equal);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    })
}

/// Binds join keys: each name must resolve in exactly one input; the pair is
/// returned as (left-bound, right-bound).
pub(crate) fn bind_join_keys(
    a: &Expr,
    b: &Expr,
    left: &[(String, DataType)],
    right: &[(String, DataType)],
) -> Result<(Expr, Expr), DbError> {
    let try_bind = |e: &Expr, s: &[(String, DataType)]| e.bind(s).ok();
    match (try_bind(a, left), try_bind(b, right)) {
        (Some(l), Some(r)) => Ok((l, r)),
        _ => match (try_bind(b, left), try_bind(a, right)) {
            (Some(l), Some(r)) => Ok((l, r)),
            _ => Err(DbError::Semantic(
                "join keys do not resolve one per side".into(),
            )),
        },
    }
}

/// Inserts `candidate` into `best` (kept sorted by `cmp`, at most `n`
/// entries) if it beats the current worst — the bounded-selection kernel
/// behind the TopN operator.
fn bounded_insert<T>(
    best: &mut Vec<T>,
    candidate: T,
    n: usize,
    mut cmp: impl FnMut(&T, &T) -> std::cmp::Ordering,
) {
    if n == 0 {
        return;
    }
    // Ties resolve to "existing entry first" (map Equal to Less), which
    // reproduces exactly what a stable sort followed by truncate keeps —
    // so TopN-on and TopN-off plans return identical rows even on ties.
    let pos = best
        .binary_search_by(|probe| match cmp(probe, &candidate) {
            std::cmp::Ordering::Equal => std::cmp::Ordering::Less,
            other => other,
        })
        .unwrap_or_else(|p| p);
    if pos >= n {
        return; // worse than everything we keep
    }
    best.insert(pos, candidate);
    best.truncate(n);
}

/// Compares two precomputed key-value vectors under the given
/// (expression, descending) directions.
fn compare_keyed(a: &[Value], b: &[Value], keys: &[(Expr, bool)]) -> std::cmp::Ordering {
    for ((x, y), (_, desc)) in a.iter().zip(b).zip(keys) {
        let ord = x.sql_cmp(y).unwrap_or(std::cmp::Ordering::Equal);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// SQL-ordering comparison of two rows (used for deterministic aggregate
/// output).
pub(crate) fn compare_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.sql_cmp(y).unwrap_or(std::cmp::Ordering::Equal);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Vectorized predicate evaluation producing a selection vector.
///
/// Fast paths: conjunctions of `column <op> literal` on Int/Float columns
/// run as tight typed loops over the shrinking selection; anything else
/// falls back to row-expression evaluation (still selection-driven).
pub(crate) fn vectorized_filter(
    batch: &Batch,
    predicate: &Expr,
    engine: Engine,
) -> Result<Vec<usize>, DbError> {
    vectorized_filter_range(batch, predicate, Sel::Dense(0..batch.row_count()), engine)
}

/// [`vectorized_filter`] over an initial selection (a whole batch or one
/// morsel's row range): conjuncts shrink the selection, so workers keep
/// their selection vectors local. The initial selection stays symbolic
/// ([`Sel::Dense`]) until the first conjunct produces survivors, letting
/// the first compare stream the column instead of gathering through an
/// index vector that is just `start..end`.
pub(crate) fn vectorized_filter_range(
    batch: &Batch,
    predicate: &Expr,
    init: Sel,
    engine: Engine,
) -> Result<Vec<usize>, DbError> {
    // Flatten AND-chains.
    let mut conjuncts = Vec::new();
    flatten_and(predicate, &mut conjuncts);
    let mut selection = init;
    for c in conjuncts {
        selection = Sel::Sparse(apply_conjunct(batch, c, &selection, engine)?);
        if selection.is_empty() {
            break;
        }
    }
    Ok(selection.into_vec())
}

fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

fn apply_conjunct(
    batch: &Batch,
    pred: &Expr,
    selection: &Sel,
    engine: Engine,
) -> Result<Vec<usize>, DbError> {
    // Fast path: ColumnIdx <op> Literal.
    if let Expr::Binary { op, left, right } = pred {
        if op.is_comparison() {
            if let (Expr::ColumnIdx(ci), Expr::Literal(lit)) = (&**left, &**right) {
                if let Some(sel) = typed_compare(&batch.cols[*ci], *op, lit, selection, engine) {
                    return Ok(sel);
                }
            }
            // Literal <op> Column: flip.
            if let (Expr::Literal(lit), Expr::ColumnIdx(ci)) = (&**left, &**right) {
                let flipped = flip_cmp(*op);
                if let Some(sel) = typed_compare(&batch.cols[*ci], flipped, lit, selection, engine)
                {
                    return Ok(sel);
                }
            }
        }
    }
    // Generic fallback (disjunctions, expressions over several columns):
    // evaluate per selected row into a pre-sized output, emitted with the
    // same reserve-then-truncate compaction the kernels use — OPT and SIMD
    // differ only in the kernel, never in allocator behavior.
    let mut out = vec![0usize; selection.len()];
    let mut k = 0usize;
    let mut eval = boxed_eval(batch, pred, selection.len());
    let mut keep = |i: usize| -> Result<(), DbError> {
        out[k] = i;
        k += (eval(i)? == Value::Bool(true)) as usize;
        Ok(())
    };
    match selection {
        Sel::Dense(r) => r.clone().try_for_each(&mut keep)?,
        Sel::Sparse(sel) => sel.iter().copied().try_for_each(&mut keep)?,
    }
    out.truncate(k);
    Ok(out)
}

/// The row-at-a-time fallback both [`vectorized_eval`] and the filter end
/// in: evaluates bound `expr` at one row of `batch` per call, boxing only
/// the columns the expression names, and charges the `rows` the caller is
/// about to ask for to [`rows_boxed`].
fn boxed_eval<'b>(
    batch: &'b Batch,
    expr: &'b Expr,
    rows: usize,
) -> impl FnMut(usize) -> Result<Value, DbError> + 'b {
    ROWS_BOXED.fetch_add(rows as u64, Ordering::Relaxed);
    let mut named = Vec::new();
    expr.referenced_columns(&mut named);
    let mut row = vec![Value::Null; batch.cols.len()];
    move |i| {
        for &c in &named {
            row[c] = batch.cols[c].get(i);
        }
        expr.eval(&row)
    }
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Tight typed comparison, dispatched to the compare-select kernels;
/// returns `None` if no fast path applies. Both engines run the same
/// kernel entry points — `engine` picks the scalar or the chunked SIMD
/// implementation, never a different comparison.
fn typed_compare(
    col: &Column,
    op: BinOp,
    lit: &Value,
    selection: &Sel,
    engine: Engine,
) -> Option<Vec<usize>> {
    let cmp = Cmp::from_binop(op)?;
    match (col, lit) {
        (Column::Int(data), Value::Int(k)) => {
            Some(kernels::compare_select(data, cmp, *k, selection, engine))
        }
        (Column::Float(data), lit) => {
            let k = lit.as_f64()?;
            Some(kernels::compare_select(data, cmp, k, selection, engine))
        }
        (Column::Int(data), Value::Float(k)) => Some(kernels::compare_select_map(
            data,
            |v| v as f64,
            cmp,
            *k,
            selection,
            engine,
        )),
        (Column::Str { dict, codes }, Value::Str(s)) if matches!(cmp, Cmp::Eq | Cmp::Ne) => {
            // Dictionary short-cut: compare codes, not strings.
            Some(match (cmp, dict.code_of(s)) {
                (Cmp::Eq, None) => Vec::new(),
                (Cmp::Ne, None) => selection.clone().into_vec(),
                (_, Some(c)) => kernels::compare_select(codes, cmp, c, selection, engine),
                _ => unreachable!(),
            })
        }
        _ => None,
    }
}

/// Vectorized expression evaluation producing a column.
pub(crate) fn vectorized_eval(
    batch: &Batch,
    expr: &Expr,
    schema: &[(String, DataType)],
) -> Result<Arc<Column>, DbError> {
    Ok(eval_with_nulls(batch, expr, schema)?.0)
}

/// [`vectorized_eval`] plus the ascending rows at which the expression was
/// NULL. Columns cannot hold NULL, so those rows carry a type-appropriate
/// sentinel; an aggregate skips them by position. Only the row-at-a-time
/// fallback can see a NULL (Int division by zero): base tables and the
/// typed kernels' f64 arithmetic produce none.
pub(crate) fn eval_with_nulls(
    batch: &Batch,
    expr: &Expr,
    schema: &[(String, DataType)],
) -> Result<(Arc<Column>, Vec<u32>), DbError> {
    // Identity fast path: share the input column, zero-copy.
    if let Expr::ColumnIdx(i) = expr {
        return Ok((Arc::clone(&batch.cols[*i]), Vec::new()));
    }
    let dt = expr.data_type(schema)?;
    // Arithmetic fast path on numeric columns. Only valid when the static
    // result type is Float: the kernel computes in f64, so Int-typed
    // expressions (e.g. `qty + 1`) must take the exact integer path below.
    if dt == DataType::Float {
        if let Expr::Binary { op, left, right } = expr {
            if let Some(data) = typed_arith(batch, schema, *op, left, right) {
                return Ok((Arc::new(Column::Float(data)), Vec::new()));
            }
        }
    }
    // Generic fallback.
    let n = batch.row_count();
    let mut out = Column::new(dt);
    let mut nulls = Vec::new();
    let mut eval = boxed_eval(batch, expr, n);
    for i in 0..n {
        let v = match eval(i)? {
            Value::Null => {
                nulls.push(i as u32);
                null_sentinel(dt)
            }
            v => v,
        };
        out.push(v)?;
    }
    Ok((Arc::new(out), nulls))
}

/// Fast arithmetic kernels for `col op col` and `col op lit` on f64 data,
/// chained arithmetic like `l_extendedprice * (1 - l_discount)` included.
/// A Float column operand is borrowed, never copied; `None` when an
/// operand is neither numeric column, numeric literal nor Float-typed
/// arithmetic — `(v / 2) * 1.5` with `v` Int is left to the fallback, which
/// divides integers as the interpreter does.
fn typed_arith<'b>(
    batch: &'b Batch,
    schema: &[(String, DataType)],
    op: BinOp,
    left: &Expr,
    right: &Expr,
) -> Option<Vec<f64>> {
    /// One side of the operation.
    enum Operand<'b> {
        Col(Cow<'b, [f64]>),
        Scalar(f64),
    }
    let fetch = |e: &Expr| -> Option<Operand<'b>> {
        match e {
            Expr::ColumnIdx(i) => match &*batch.cols[*i] {
                Column::Float(v) => Some(Operand::Col(Cow::Borrowed(v))),
                Column::Int(v) => Some(Operand::Col(v.iter().map(|&x| x as f64).collect())),
                _ => None,
            },
            Expr::Literal(v) => v.as_f64().map(Operand::Scalar),
            Expr::Binary { op, left, right } if e.data_type(schema) == Ok(DataType::Float) => {
                typed_arith(batch, schema, *op, left, right).map(|v| Operand::Col(v.into()))
            }
            _ => None,
        }
    };
    // One monomorphic loop per operator, so each one vectorizes.
    fn combine(l: Operand, r: Operand, n: usize, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        match (l, r) {
            (Operand::Col(a), Operand::Col(b)) => {
                a.iter().zip(&*b).map(|(&x, &y)| f(x, y)).collect()
            }
            (Operand::Col(a), Operand::Scalar(s)) => a.iter().map(|&x| f(x, s)).collect(),
            (Operand::Scalar(s), Operand::Col(b)) => b.iter().map(|&y| f(s, y)).collect(),
            (Operand::Scalar(a), Operand::Scalar(b)) => vec![f(a, b); n],
        }
    }
    if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) {
        return None;
    }
    let (l, r, n) = (fetch(left)?, fetch(right)?, batch.row_count());
    Some(match op {
        BinOp::Add => combine(l, r, n, |a, b| a + b),
        BinOp::Sub => combine(l, r, n, |a, b| a - b),
        BinOp::Mul => combine(l, r, n, |a, b| a * b),
        _ => combine(l, r, n, |a, b| a / b),
    })
}

/// Which join input the hash table was built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildSide {
    /// Hash table over the left input, probe with the right.
    Left,
    /// Hash table over the right input, probe with the left.
    Right,
}

impl BuildSide {
    pub(crate) fn label(self) -> &'static str {
        match self {
            BuildSide::Left => "left",
            BuildSide::Right => "right",
        }
    }
}

/// Builds on the smaller input (ties go left, the historical choice).
pub(crate) fn choose_build_side(lkey: &Column, rkey: &Column) -> BuildSide {
    if rkey.len() < lkey.len() {
        BuildSide::Right
    } else {
        BuildSide::Left
    }
}

/// A materialized hash-join build table, probe-shareable across worker
/// threads (read-only during the probe phase).
pub(crate) enum JoinBuild {
    /// Both key columns are Int: hash raw i64s through std's `HashMap`.
    Int(HashMap<i64, Vec<usize>>),
    /// Both key columns are Int, SIMD tier: the open-addressed,
    /// insertion-ordered index with lane-parallel key mixing. Emits the
    /// exact pairs [`JoinBuild::Int`] emits, in the same order.
    IntSimd(kernels::IntIndex),
    /// Generic typed keys (NULL never matches, so NULL keys are skipped).
    Generic(HashMap<Key, Vec<usize>>),
}

impl JoinBuild {
    /// Builds the hash table over `build`; `probe` only decides whether
    /// the Int fast path applies (both sides must be Int columns), and
    /// `engine` which Int index implementation backs it.
    pub(crate) fn new(build: &Column, probe: &Column, engine: Engine) -> JoinBuild {
        match (build.as_int(), probe.as_int()) {
            (Some(data), Some(_)) if engine == Engine::Simd => {
                JoinBuild::IntSimd(kernels::IntIndex::build(data))
            }
            (Some(data), Some(_)) => {
                let mut m: HashMap<i64, Vec<usize>> = HashMap::with_capacity(data.len());
                for (i, &k) in data.iter().enumerate() {
                    m.entry(k).or_default().push(i);
                }
                JoinBuild::Int(m)
            }
            _ => {
                let mut m: HashMap<Key, Vec<usize>> = HashMap::new();
                for i in 0..build.len() {
                    if let Some(k) = value_key(&build.get(i)) {
                        m.entry(k).or_default().push(i);
                    }
                }
                JoinBuild::Generic(m)
            }
        }
    }

    /// Probes rows `range` of `probe`, returning matching
    /// (build-row, probe-row) pairs probe-major: ascending probe row, and
    /// build rows in insertion (ascending) order within each.
    pub(crate) fn probe_range(
        &self,
        probe: &Column,
        range: std::ops::Range<usize>,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut bsel = Vec::new();
        let mut psel = Vec::new();
        match self {
            JoinBuild::Int(m) => {
                let data = probe.as_int().expect("int probe column");
                for j in range {
                    if let Some(matches) = m.get(&data[j]) {
                        for &i in matches {
                            bsel.push(i);
                            psel.push(j);
                        }
                    }
                }
            }
            JoinBuild::IntSimd(idx) => {
                let data = probe.as_int().expect("int probe column");
                idx.probe_range(data, range, &mut bsel, &mut psel);
            }
            JoinBuild::Generic(m) => {
                for j in range {
                    if let Some(k) = value_key(&probe.get(j)) {
                        if let Some(matches) = m.get(&k) {
                            for &i in matches {
                                bsel.push(i);
                                psel.push(j);
                            }
                        }
                    }
                }
            }
        }
        (bsel, psel)
    }
}

/// Restores the canonical pair order — ascending right row, then ascending
/// left row — that a build-on-left probe produces directly. After a
/// build-on-right probe the pairs arrive left-major with ascending right
/// rows inside each left row, so one stable sort by right row restores the
/// canonical order exactly. This keeps the output bit-identical no matter
/// which side the hash table was built on.
pub(crate) fn canonicalize_join_pairs(
    side: BuildSide,
    lsel: Vec<usize>,
    rsel: Vec<usize>,
) -> (Vec<usize>, Vec<usize>) {
    match side {
        BuildSide::Left => (lsel, rsel),
        BuildSide::Right => {
            let mut perm: Vec<usize> = (0..rsel.len()).collect();
            perm.sort_by_key(|&p| rsel[p]); // stable: ties keep left-asc order
            (
                perm.iter().map(|&p| lsel[p]).collect(),
                perm.iter().map(|&p| rsel[p]).collect(),
            )
        }
    }
}

/// Sorts assembled aggregate rows deterministically and materializes the
/// output batch.
pub(crate) fn finish_aggregate_batch(
    catalog: &Catalog,
    plan: &Plan,
    mut rows: Vec<Vec<Value>>,
) -> Result<Batch, DbError> {
    rows.sort_by(|a, b| compare_rows(a, b));
    let out_schema = plan.schema(catalog)?;
    let mut cols: Vec<Column> = out_schema.iter().map(|(_, dt)| Column::new(*dt)).collect();
    for row in &rows {
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(match v {
                Value::Null => null_sentinel(col.data_type()),
                other => other.clone(),
            })?;
        }
    }
    Ok(Batch {
        names: out_schema.into_iter().map(|(n, _)| n).collect(),
        cols: cols.into_iter().map(Arc::new).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, to_plan};
    use crate::table::TableBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = TableBuilder::new("sales")
            .column("region", DataType::Str)
            .column("qty", DataType::Int)
            .column("price", DataType::Float)
            .build();
        let data = [
            ("east", 10, 1.0),
            ("west", 20, 2.0),
            ("east", 30, 3.0),
            ("west", 5, 4.0),
            ("north", 1, 5.0),
        ];
        for (r, q, p) in data {
            t.push_row(vec![Value::Str(r.into()), Value::Int(q), Value::Float(p)])
                .unwrap();
        }
        c.register(t).unwrap();

        let mut regions = TableBuilder::new("regions")
            .column("rname", DataType::Str)
            .column("continent", DataType::Str)
            .build();
        for (r, cont) in [("east", "A"), ("west", "A"), ("north", "B")] {
            regions
                .push_row(vec![Value::Str(r.into()), Value::Str(cont.into())])
                .unwrap();
        }
        c.register(regions).unwrap();
        c
    }

    fn run_sql(catalog: &Catalog, mode: ExecMode, sql: &str) -> ResultSet {
        let stmt = parse(sql).unwrap();
        let plan = to_plan(&stmt, |t| Ok(catalog.table(t)?.column_names().to_vec())).unwrap();
        Executor::new(catalog, mode).run(&plan).unwrap()
    }

    /// Runs `sql` under all three engines and asserts SIMD matches OPT
    /// bit-for-bit before handing (Debug, Optimized) back — every test
    /// that goes through here exercises the full engine factor.
    fn both_modes(sql: &str) -> (ResultSet, ResultSet) {
        let c = catalog();
        let d = run_sql(&c, ExecMode::Debug, sql);
        let o = run_sql(&c, ExecMode::Optimized, sql);
        let s = run_sql(&c, ExecMode::Simd, sql);
        assert_eq!(o.rows, s.rows, "SIMD diverged from OPT on: {sql}");
        assert_eq!(o.column_names, s.column_names, "SIMD schema on: {sql}");
        (d, o)
    }

    #[test]
    fn select_star() {
        let (d, o) = both_modes("SELECT * FROM sales");
        assert_eq!(d.row_count(), 5);
        assert_eq!(o.row_count(), 5);
        assert_eq!(d.column_names, vec!["region", "qty", "price"]);
        assert_eq!(d.rows, o.rows);
    }

    #[test]
    fn filter_comparison() {
        let (d, o) = both_modes("SELECT qty FROM sales WHERE qty >= 10");
        assert_eq!(d.row_count(), 3);
        assert_eq!(d.rows, o.rows);
    }

    #[test]
    fn filter_string_equality() {
        let (d, o) = both_modes("SELECT qty FROM sales WHERE region = 'east'");
        assert_eq!(d.row_count(), 2);
        assert_eq!(d.rows, o.rows);
    }

    #[test]
    fn filter_string_not_found_in_dictionary() {
        let (d, o) = both_modes("SELECT qty FROM sales WHERE region = 'mars'");
        assert_eq!(d.row_count(), 0);
        assert_eq!(o.row_count(), 0);
        let (d2, o2) = both_modes("SELECT qty FROM sales WHERE region <> 'mars'");
        assert_eq!(d2.row_count(), 5);
        assert_eq!(o2.row_count(), 5);
    }

    #[test]
    fn filter_conjunction() {
        let (d, o) =
            both_modes("SELECT qty FROM sales WHERE qty > 1 AND qty < 30 AND price >= 2.0");
        assert_eq!(d.rows, o.rows);
        assert_eq!(d.row_count(), 2); // west/20/2.0 and west/5/4.0
    }

    #[test]
    fn filter_disjunction_fallback() {
        let (d, o) = both_modes("SELECT qty FROM sales WHERE qty = 1 OR qty = 30");
        assert_eq!(d.row_count(), 2);
        assert_eq!(d.rows, o.rows);
    }

    #[test]
    fn projection_arithmetic() {
        let (d, o) = both_modes("SELECT qty * price AS revenue FROM sales WHERE qty = 10");
        assert_eq!(d.rows[0][0], Value::Float(10.0));
        assert_eq!(d.rows, o.rows);
        assert_eq!(d.column_names, vec!["revenue"]);
    }

    #[test]
    fn global_aggregates() {
        let (d, o) =
            both_modes("SELECT SUM(qty), COUNT(*), AVG(price), MIN(qty), MAX(qty) FROM sales");
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0][0], Value::Int(66));
        assert_eq!(d.rows[0][1], Value::Int(5));
        assert_eq!(d.rows[0][2], Value::Float(3.0));
        assert_eq!(d.rows[0][3], Value::Int(1));
        assert_eq!(d.rows[0][4], Value::Int(30));
        assert_eq!(d.rows, o.rows);
    }

    #[test]
    fn group_by_aggregation() {
        let (d, o) = both_modes(
            "SELECT region, SUM(qty) AS total FROM sales GROUP BY region ORDER BY region",
        );
        assert_eq!(d.rows, o.rows);
        assert_eq!(d.rows.len(), 3);
        assert_eq!(d.rows[0], vec![Value::Str("east".into()), Value::Int(40)]);
        assert_eq!(d.rows[2], vec![Value::Str("west".into()), Value::Int(25)]);
    }

    #[test]
    fn join_two_tables() {
        let (d, o) = both_modes(
            "SELECT region, continent FROM sales JOIN regions ON region = rname \
             WHERE qty > 5 ORDER BY region",
        );
        assert_eq!(d.rows, o.rows);
        assert_eq!(d.row_count(), 3); // east/10, east/30, west/20
        assert_eq!(d.rows[0][1], Value::Str("A".into()));
    }

    #[test]
    fn join_then_aggregate() {
        let (d, o) = both_modes(
            "SELECT continent, SUM(qty * price) AS rev FROM sales \
             JOIN regions ON region = rname GROUP BY continent ORDER BY continent",
        );
        assert_eq!(d.rows, o.rows);
        // A: east(10*1+30*3)=100 + west(20*2+5*4)=60 -> 160; B: 1*5=5.
        assert_eq!(d.rows[0], vec![Value::Str("A".into()), Value::Float(160.0)]);
        assert_eq!(d.rows[1], vec![Value::Str("B".into()), Value::Float(5.0)]);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let (d, o) = both_modes("SELECT qty FROM sales ORDER BY qty DESC LIMIT 2");
        assert_eq!(d.rows, o.rows);
        assert_eq!(d.rows[0][0], Value::Int(30));
        assert_eq!(d.rows[1][0], Value::Int(20));
    }

    #[test]
    fn empty_result_global_aggregate() {
        let (d, o) = both_modes("SELECT SUM(qty), COUNT(*) FROM sales WHERE qty > 1000");
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0][1], Value::Int(0));
        assert_eq!(o.rows[0][1], Value::Int(0));
    }

    #[test]
    fn empty_group_by_result() {
        let (d, o) =
            both_modes("SELECT region, SUM(qty) FROM sales WHERE qty > 1000 GROUP BY region");
        assert_eq!(d.row_count(), 0);
        assert_eq!(o.row_count(), 0);
    }

    #[test]
    fn profile_trace_is_root_first() {
        let c = catalog();
        let stmt = parse("SELECT SUM(qty) FROM sales WHERE qty > 1").unwrap();
        let plan = to_plan(&stmt, |t| Ok(c.table(t)?.column_names().to_vec())).unwrap();
        let mut ex = Executor::new(&c, ExecMode::Optimized);
        ex.run(&plan).unwrap();
        let trace = ex.profile();
        assert!(trace.len() >= 4, "project, aggregate, filter, scan");
        assert_eq!(trace[0].depth, 0);
        assert!(trace.last().unwrap().op.starts_with("Scan"));
        let text = render_profile(trace);
        assert!(text.contains("HashAggregate"));
        assert!(text.contains("rows"));
    }

    #[test]
    fn modes_agree_on_a_battery_of_queries() {
        let queries = [
            "SELECT * FROM sales ORDER BY qty",
            "SELECT region FROM sales WHERE price BETWEEN 2.0 AND 4.0 ORDER BY region",
            "SELECT qty + 1 AS q1, price * 2.0 AS p2 FROM sales ORDER BY q1",
            "SELECT region, COUNT(*) AS n, MAX(price) FROM sales GROUP BY region ORDER BY n DESC, region",
            "SELECT MIN(price), MAX(price) FROM sales WHERE region <> 'north'",
            "SELECT qty FROM sales WHERE NOT qty > 10 ORDER BY qty",
        ];
        let c = catalog();
        for q in queries {
            let d = run_sql(&c, ExecMode::Debug, q);
            let o = run_sql(&c, ExecMode::Optimized, q);
            let s = run_sql(&c, ExecMode::Simd, q);
            assert_eq!(d.rows, o.rows, "query: {q}");
            assert_eq!(d.column_names, o.column_names, "query: {q}");
            assert_eq!(o.rows, s.rows, "SIMD query: {q}");
        }
    }

    #[test]
    fn exec_mode_parses_from_str() {
        for (s, m) in [
            ("dbg", ExecMode::Debug),
            ("DEBUG", ExecMode::Debug),
            ("opt", ExecMode::Optimized),
            ("Optimized", ExecMode::Optimized),
            ("simd", ExecMode::Simd),
            ("SIMD", ExecMode::Simd),
        ] {
            assert_eq!(s.parse::<ExecMode>().unwrap(), m);
        }
        assert!("jit".parse::<ExecMode>().is_err());
    }

    #[test]
    fn rendered_bytes_reflects_result_size() {
        let (d, _) = both_modes("SELECT * FROM sales");
        let (small, _) = both_modes("SELECT COUNT(*) FROM sales");
        assert!(d.rendered_bytes() > small.rendered_bytes());
    }
}
