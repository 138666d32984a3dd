//! Sessions: parse → optimize → execute → print, with per-phase timing.
//!
//! This is the engine's `mclient -t`: every query reports how long each
//! phase took, so experiments can answer *"be aware what you measure"*
//! questions — is the 1468 ms the query, or the printing? Is the gap the
//! engine, or a cold buffer pool?
//!
//! Queries are issued through the [`Query`] builder:
//!
//! ```text
//! session.query("SELECT ...").sink(&mut terminal).traced(&tracer).run()
//! ```
//!
//! `sink` and `traced` are optional; `run()` executes. The builder replaced
//! the old `execute` / `execute_to` / `profile` trio, which have been
//! removed.

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::exec::{ColumnarResult, ExecMode, Executor, ProfileEntry, ResultData, ResultSet};
use crate::optimizer::{optimize, OptimizerConfig};
use crate::parser::{parse_statement, to_plan, Statement};
use crate::plan::Plan;
use crate::sink::{NullSink, ResultSink};
use crate::types::Value;
use perfeval_fault::FaultRegistry;
use perfeval_measure::{Clock, CpuClock, Measurement, Phase, PhaseTimer};
use perfeval_trace::{SpanGuard, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Result of executing one query in a [`Session`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub column_names: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Real (wall-clock) per-phase breakdown: parse / optimize / execute /
    /// print, in ms.
    pub phases: Measurement,
    /// CPU ("user") time of the execute phase, measured with a thread CPU
    /// clock alongside the wall clock, in ms.
    pub execute_cpu_ms: f64,
    /// Simulated output-device overhead from the sink, ms. Private: this
    /// constant-per-byte simulation predates the wire layer and feeds only
    /// the era-hardware what-if figure [`QueryResult::sim_client_real_ms`].
    /// For *measured* client-side cost — real serialization, transfer, and
    /// printing on the client's own clock — run the query over `minidb-net`
    /// instead; the E21 experiment (`perfeval-exp e21`) shows the
    /// difference.
    sim_print_ms: f64,
    /// Bytes the sink rendered.
    pub result_bytes: usize,
    /// Per-operator profile trace.
    pub profile: Vec<ProfileEntry>,
    /// Chunk requests this statement made to the *real* storage buffer
    /// pool (0 unless the catalog is disk-backed): a measurement, not a
    /// model.
    pub store_logical_reads: u64,
    /// Chunk requests that missed the pool and hit disk with a real
    /// file read (0 unless the catalog is disk-backed).
    pub store_physical_reads: u64,
}

impl QueryResult {
    /// Server-side "user" (CPU) time of the execute phase.
    ///
    /// Measured with [`CpuClock`] (thread CPU time), not inferred from the
    /// wall clock: under scheduler pressure or I/O waits the two genuinely
    /// differ, which is the entire point of the user-vs-real exhibit.
    pub fn server_user_ms(&self) -> f64 {
        self.execute_cpu_ms
    }

    /// Server-side "real" time: execute-phase wall time, as the wall clock
    /// actually measured it — nothing modeled is ever added to it.
    pub fn server_real_ms(&self) -> f64 {
        self.phases.phase(Phase::Execute).unwrap_or(0.0)
    }

    /// Client-side "real" time: server real plus result printing, both
    /// wall-clock measured.
    ///
    /// For an in-process session, client and server share one process, so
    /// "client real" is just the same clock carried through the print
    /// phase. The honest two-clock decomposition — server CPU / server
    /// real / wire / client print, each measured where it runs — comes from
    /// running the query over `minidb-net` (see experiment E21).
    pub fn client_real_ms(&self) -> f64 {
        self.server_real_ms() + self.phases.phase(Phase::Print).unwrap_or(0.0)
    }

    /// *Simulated* client real time: [`QueryResult::client_real_ms`] plus
    /// the sink's simulated device overhead (E1's era what-if; use
    /// [`QueryResult::client_real_ms`] when reporting what was measured).
    pub fn sim_client_real_ms(&self) -> f64 {
        self.client_real_ms() + self.sim_print_ms
    }

    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// What [`Query::run_columns`] returns: a statement parsed, optimized and
/// executed, its result still in the shape the engine produced — no row
/// built, nothing printed. [`Query::run`] is this plus the transposition
/// and the sink; `minidb-net`'s server sends the columns as they are.
pub struct QueryColumns<'q> {
    /// Output column names.
    pub column_names: Vec<String>,
    /// The values, as columns (batch engine) or rows (debug interpreter,
    /// DDL/DML).
    pub data: ResultData,
    /// Real (wall-clock) parse / optimize / execute breakdown, ms; execute
    /// ends where the engine returned its columns.
    pub phases: Measurement,
    /// CPU ("user") time of the execute phase, ms.
    pub execute_cpu_ms: f64,
    /// Per-operator profile trace.
    pub profile: Vec<ProfileEntry>,
    /// See [`QueryResult::store_logical_reads`].
    pub store_logical_reads: u64,
    /// See [`QueryResult::store_physical_reads`].
    pub store_physical_reads: u64,
    /// The statement's `query` span, open until this is dropped so that
    /// `run`'s print phase still nests under it.
    root: Option<SpanGuard<'q>>,
}

/// A database session.
pub struct Session {
    catalog: Catalog,
    mode: ExecMode,
    optimizer: OptimizerConfig,
    parallelism: usize,
    morsel_rows: usize,
    faults: Option<Arc<FaultRegistry>>,
    /// Statements issued so far — the fault key for the `minidb.*`
    /// failpoints, so a schedule targets "the 3rd statement"
    /// deterministically regardless of timing.
    statements: u64,
    /// Real storage-pool counter deltas of the last statement, when the
    /// catalog is disk-backed. Feeds [`Session::pool_hit_rate`].
    last_store_io: Option<perfeval_store::PoolCounters>,
}

// Parallel experiment workers (`perfeval-exec`) each own sessions on their
// own threads; keep that possible by construction.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<QueryResult>();
};

impl Session {
    /// Creates a session over a catalog with the default engine tier
    /// ([`ExecMode::default`], the served SIMD tier), all optimizer rules on.
    /// A caller that means another tier says so with [`Session::with_mode`].
    pub fn new(catalog: Catalog) -> Self {
        Session {
            catalog,
            mode: ExecMode::default(),
            optimizer: OptimizerConfig::all(),
            parallelism: 1,
            morsel_rows: crate::exec::DEFAULT_MORSEL_ROWS,
            faults: None,
            statements: 0,
            last_store_io: None,
        }
    }

    /// Arms a fault registry: the session evaluates the `minidb.parse` and
    /// `minidb.execute` failpoints (keyed by 0-based statement ordinal)
    /// around each statement, so robustness experiments can crash, delay,
    /// or hang the engine at a chosen statement deterministically. The
    /// `minidb.cancel` site (same key, `FailIo` arms) force-cancels the
    /// statement's [`CancelToken`](crate::CancelToken) before parse — a
    /// scheduled cancellation rather than a raced one.
    pub fn with_faults(mut self, faults: Arc<FaultRegistry>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Selects the execution engine (the DBG/OPT axis).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the default worker-thread count for queries on this session
    /// (`<= 1` is the serial engine; the debug engine ignores the knob).
    /// Individual queries can override it with [`Query::parallelism`].
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Sets the default rows-per-morsel granularity for parallel queries.
    ///
    /// # Panics
    /// Panics if `rows == 0`.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "morsel size must be at least one row");
        self.morsel_rows = rows;
        self
    }

    /// Reconfigures the optimizer (for ablations).
    pub fn set_optimizer(&mut self, config: OptimizerConfig) {
        self.optimizer = config;
    }

    /// Current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The catalog (immutable).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Flushes the buffer pool — the cold-run "reboot" of slide 32. No-op
    /// unless the catalog is disk-backed.
    ///
    /// This is a *real* cold switch: it empties the storage buffer pool and
    /// drops the segment files' OS page-cache pages
    /// ([`Storage::drop_caches`](crate::Storage::drop_caches)).
    pub fn flush_caches(&mut self) {
        if let Some(store) = self.catalog.storage() {
            store.drop_caches();
        }
    }

    /// Measured buffer-pool hit rate of the last statement (`None` unless
    /// the catalog is disk-backed).
    pub fn pool_hit_rate(&self) -> Option<f64> {
        self.last_store_io.as_ref().map(|c| c.hit_rate())
    }

    /// Plans a statement (parse + optimize), without executing. Only
    /// SELECT statements have plans.
    pub fn plan(&self, sql: &str) -> Result<Plan, DbError> {
        match parse_statement(sql)? {
            Statement::Select(stmt) => {
                let plan = to_plan(&stmt, |t| {
                    Ok(self.catalog.table(t)?.column_names().to_vec())
                })?;
                optimize(plan, &self.catalog, self.optimizer)
            }
            _ => Err(DbError::Semantic(
                "only SELECT statements have query plans".into(),
            )),
        }
    }

    /// EXPLAIN: the optimized plan as an operator tree.
    pub fn explain(&self, sql: &str) -> Result<String, DbError> {
        Ok(self.plan(sql)?.explain(&self.catalog))
    }

    /// Starts building a query. Configure with [`Query::sink`] /
    /// [`Query::traced`], then call [`Query::run`].
    pub fn query<'s, 'q>(&'s mut self, sql: &'q str) -> Query<'s, 'q> {
        let parallelism = self.parallelism;
        Query {
            session: self,
            sql,
            sink: None,
            tracer: None,
            parallelism,
            cancel: None,
        }
    }
}

/// A configured-but-not-yet-run query: the builder returned by
/// [`Session::query`].
///
/// Defaults: results go to a [`NullSink`] (pure server-side measurement)
/// and no trace is recorded.
#[must_use = "a Query does nothing until .run() is called"]
pub struct Query<'s, 'q> {
    session: &'s mut Session,
    sql: &'q str,
    sink: Option<&'q mut dyn ResultSink>,
    tracer: Option<&'q Tracer>,
    parallelism: usize,
    cancel: Option<crate::cancel::CancelToken>,
}

impl<'s, 'q> Query<'s, 'q> {
    /// Delivers the result to `sink` instead of discarding it.
    pub fn sink(mut self, sink: &'q mut dyn ResultSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Records phase and per-operator spans into `tracer` while the query
    /// runs.
    pub fn traced(mut self, tracer: &'q Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs this query with `threads` morsel workers (`<= 1` is serial).
    /// The result is bit-identical to a serial run regardless of thread
    /// count or morsel size; only the wall clock changes.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Attaches a cancellation handle: the executor polls it at operator
    /// and morsel boundaries and unwinds with [`DbError::Cancelled`],
    /// discarding partial work. The session itself is untouched — the
    /// next query on it runs normally.
    pub fn cancel(mut self, token: crate::cancel::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Parses, optimizes, executes, and prints the statement, returning the
    /// timed result: [`Query::run_columns`], then the rows, then the sink.
    pub fn run(mut self) -> Result<QueryResult, DbError> {
        let mut null = NullSink;
        let sink: &mut dyn ResultSink = match self.sink.take() {
            Some(s) => s,
            None => &mut null,
        };
        let tracer = self.tracer;
        let QueryColumns {
            column_names,
            data,
            phases,
            mut execute_cpu_ms,
            profile,
            store_logical_reads,
            store_physical_reads,
            root,
        } = self.run_columns()?;
        let mut timer = PhaseTimer::new();
        for (name, ms) in phases.phases() {
            timer.record(name, *ms);
        }

        // Rows. For an in-process caller the transposition is part of
        // producing the answer, so it stays on the execute account, wall
        // and CPU. Rows that already exist cost and charge nothing.
        let transposes = matches!(data, ResultData::Columns(_));
        let cpu = CpuClock::new();
        let (cpu0, t0) = (cpu.now_ns(), Instant::now());
        let result = ResultSet {
            column_names,
            rows: data.into_rows(),
        };
        if transposes {
            timer.record_phase(Phase::Execute, t0.elapsed().as_secs_f64() * 1e3);
            execute_cpu_ms += cpu.now_ns().saturating_sub(cpu0) as f64 / 1e6;
        }

        // Print — unless parse was the whole statement: a DDL/DML answer
        // reports its one cell and never reaches the sink.
        let mut printed = None;
        if phases.phase(Phase::Execute).is_some() {
            let t3 = Instant::now();
            let mut print_span = tracer.map(|t| t.span("print"));
            let report = sink.consume(&result)?;
            if let Some(g) = print_span.as_mut() {
                g.attr("bytes", report.bytes)
                    .attr("sim_print_ms", report.sim_overhead_ms);
            }
            drop(print_span);
            timer.record_phase(Phase::Print, t3.elapsed().as_secs_f64() * 1e3);
            printed = Some(report);
        }
        drop(root);

        let ResultSet { column_names, rows } = result;
        Ok(QueryResult {
            column_names,
            rows,
            phases: timer.finish(),
            execute_cpu_ms,
            sim_print_ms: printed.map_or(0.0, |r| r.sim_overhead_ms),
            result_bytes: printed.map_or(0, |r| r.bytes),
            profile,
            store_logical_reads,
            store_physical_reads,
        })
    }

    /// Parses, optimizes and executes the statement and stops there: the
    /// result keeps the shape the engine produced, and the batch engine
    /// builds no row. A [`sink`](Self::sink) is not fed — sinks consume
    /// rows.
    pub fn run_columns(self) -> Result<QueryColumns<'q>, DbError> {
        let Query {
            session,
            sql,
            sink: _,
            tracer,
            parallelism,
            cancel,
        } = self;
        // The `minidb.cancel` failpoint (keyed by statement ordinal, FailIo
        // arms) force-cancels the caller's token (or a fresh one) up front —
        // the deterministic way chaos tests and E25 inject cancellations.
        let statement = session.statements;
        session.statements += 1;
        let cancel = match &session.faults {
            Some(faults) if faults.io_fails("minidb.cancel", statement) => {
                let token = cancel.unwrap_or_default();
                token.cancel();
                Some(token)
            }
            _ => cancel,
        };

        let mut timer = PhaseTimer::new();
        let mut root = tracer.map(|t| t.span("query"));
        if let Some(g) = root.as_mut() {
            g.attr("sql", sql_preview(sql))
                .attr("mode", session.mode.to_string());
        }

        // Deadlines cover the whole statement, so the token is polled
        // before parse as well as inside the executor.
        if let Some(token) = &cancel {
            token.check()?;
        }

        // Parse.
        let t0 = Instant::now();
        let parse_span = tracer.map(|t| t.span("parse"));
        if let Some(faults) = &session.faults {
            faults.fire("minidb.parse", statement, 1);
        }
        let stmt = parse_statement(sql)?;
        let stmt = match stmt {
            Statement::Select(s) => s,
            Statement::CreateTable { name, columns } => {
                let mut builder = crate::table::TableBuilder::new(&name);
                for (col, dt) in &columns {
                    builder = builder.column(col, *dt);
                }
                session.catalog.register(builder.build())?;
                drop(parse_span);
                timer.record_phase(Phase::Parse, t0.elapsed().as_secs_f64() * 1e3);
                return Ok(ddl_result(timer, 0));
            }
            Statement::Insert { table, rows } => {
                let t = session.catalog.table_mut(&table)?;
                let n = rows.len();
                for row in rows {
                    t.push_row(row)?;
                }
                drop(parse_span);
                timer.record_phase(Phase::Parse, t0.elapsed().as_secs_f64() * 1e3);
                return Ok(ddl_result(timer, n));
            }
        };
        let plan = to_plan(&stmt, |t| {
            Ok(session.catalog.table(t)?.column_names().to_vec())
        })?;
        drop(parse_span);
        timer.record_phase(Phase::Parse, t0.elapsed().as_secs_f64() * 1e3);

        // Optimize.
        let t1 = Instant::now();
        let opt_span = tracer.map(|t| t.span("optimize"));
        let plan = optimize(plan, &session.catalog, session.optimizer)?;
        drop(opt_span);
        timer.record_phase(Phase::Optimize, t1.elapsed().as_secs_f64() * 1e3);

        // Execute. Wall time and thread CPU time are measured side by side:
        // their gap is the user-vs-real exhibit.
        let store_before = session.catalog.storage().map(|s| s.counters());
        let cpu = CpuClock::new();
        let cpu0 = cpu.now_ns();
        let t2 = Instant::now();
        let mut exec_span = tracer.map(|t| t.span("execute"));
        if let Some(faults) = &session.faults {
            faults.fire("minidb.execute", statement, 1);
        }
        let (result, profile) = {
            let mut executor = Executor::new(&session.catalog, session.mode)
                .with_parallelism(parallelism)
                .with_morsel_rows(session.morsel_rows);
            if let Some(token) = cancel.clone() {
                executor = executor.with_cancel(token);
            }
            if let Some(t) = tracer {
                executor = executor.with_tracer(t);
            }
            let result = executor.run_columns(&plan)?;
            (result, executor.profile().to_vec())
        };
        let execute_cpu_ms = cpu.now_ns().saturating_sub(cpu0) as f64 / 1e6;
        let execute_wall_ms = t2.elapsed().as_secs_f64() * 1e3;
        // Real storage-pool deltas, when the catalog is disk-backed.
        let store_io = match (&store_before, session.catalog.storage()) {
            (Some(before), Some(store)) => Some(store.counters().since(before)),
            _ => None,
        };
        session.last_store_io = store_io;
        let ColumnarResult { column_names, data } = result;
        if let Some(g) = exec_span.as_mut() {
            g.attr("rows_out", data.row_count())
                .attr("cpu_ms", execute_cpu_ms);
            if let Some(c) = &store_io {
                g.attr("pool_hits", c.hits())
                    .attr("pool_misses", c.physical_reads);
            }
        }
        drop(exec_span);
        timer.record_phase(Phase::Execute, execute_wall_ms);

        if let Some(g) = root.as_mut() {
            g.attr("rows", data.row_count());
        }
        Ok(QueryColumns {
            column_names,
            data,
            phases: timer.finish(),
            execute_cpu_ms,
            profile,
            store_logical_reads: store_io.as_ref().map_or(0, |c| c.logical_reads),
            store_physical_reads: store_io.as_ref().map_or(0, |c| c.physical_reads),
            root,
        })
    }
}

/// Truncates long SQL for span attributes (traces should stay small).
fn sql_preview(sql: &str) -> String {
    const MAX: usize = 120;
    if sql.len() <= MAX {
        return sql.to_owned();
    }
    let mut end = MAX;
    while !sql.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &sql[..end])
}

/// Result shape for DDL/DML statements: no columns, `affected` rows
/// reported via [`QueryResult::row_count`]-independent metadata (we encode
/// it as a single-cell result so scripts can read it).
fn ddl_result<'q>(timer: PhaseTimer, affected: usize) -> QueryColumns<'q> {
    QueryColumns {
        column_names: vec!["rows_affected".to_owned()],
        data: ResultData::Rows(vec![vec![Value::Int(affected as i64)]]),
        phases: timer.finish(),
        execute_cpu_ms: 0.0,
        profile: Vec::new(),
        store_logical_reads: 0,
        store_physical_reads: 0,
        root: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TerminalSink;
    use crate::table::TableBuilder;
    use crate::types::DataType;

    fn session() -> Session {
        let mut catalog = Catalog::new();
        let mut t = TableBuilder::new("nums")
            .column("x", DataType::Int)
            .column("y", DataType::Float)
            .build();
        for i in 0..10_000 {
            t.push_row(vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
                .unwrap();
        }
        catalog.register(t).unwrap();
        Session::new(catalog)
    }

    #[test]
    fn query_returns_rows_and_phases() {
        let mut s = session();
        let r = s
            .query("SELECT COUNT(*) FROM nums WHERE x < 100")
            .run()
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(100)]]);
        for phase in Phase::ALL {
            assert!(r.phases.phase(phase).is_some(), "missing {phase}");
        }
        assert!(r.server_user_ms() >= 0.0);
        assert_eq!(r.store_physical_reads, 0, "in-memory catalog");
    }

    /// The served tier has one source of truth: `Session::new` takes the
    /// enum's default, and the default is the fastest bit-identical tier.
    #[test]
    fn a_new_session_runs_the_default_tier_which_is_simd() {
        assert_eq!(ExecMode::default(), ExecMode::Simd);
        assert_eq!(session().mode(), ExecMode::default());
    }

    #[test]
    fn explain_shows_pruned_plan() {
        let s = session();
        let text = s.explain("SELECT SUM(y) FROM nums").unwrap();
        assert!(text.contains("Scan nums [y]"), "{text}");
        assert!(text.contains("HashAggregate"));
    }

    #[test]
    fn profile_entries_render_as_trace() {
        let mut s = session();
        let r = s.query("SELECT MAX(x) FROM nums").run().unwrap();
        let trace = crate::exec::render_profile(&r.profile);
        assert!(trace.contains("Scan nums"));
        assert!(trace.contains("ms"));
    }

    #[test]
    fn debug_mode_is_slower_than_optimized() {
        let mut catalog = Catalog::new();
        let mut t = TableBuilder::new("big")
            .column("v", DataType::Float)
            .build();
        for i in 0..200_000 {
            t.push_row(vec![Value::Float(i as f64)]).unwrap();
        }
        catalog.register(t).unwrap();
        let sql = "SELECT SUM(v) FROM big WHERE v > 1000.0";

        let mut opt = Session::new(catalog.clone()).with_mode(ExecMode::Optimized);
        let mut dbg = Session::new(catalog).with_mode(ExecMode::Debug);
        // Warm once, take the best of three (robust to scheduler noise in
        // dev-profile CI runs).
        let best = |s: &mut Session| {
            s.query(sql).run().unwrap();
            (0..3)
                .map(|_| s.query(sql).run().unwrap().server_user_ms())
                .fold(f64::INFINITY, f64::min)
        };
        let to = best(&mut opt);
        let td = best(&mut dbg);
        assert!(
            td > 1.2 * to,
            "debug ({td:.2} ms) should be clearly slower than optimized ({to:.2} ms)"
        );
    }

    #[test]
    fn server_real_is_wall_time_not_simulation() {
        // The bugfix this pins: server_real_ms() once added simulated disk
        // waits (pure accounting, no clock ever advanced) to measured wall
        // time, so an in-process run reported a "real" time no stopwatch
        // could reproduce.
        let mut s = session();
        let r = s.query("SELECT SUM(y) FROM nums").run().unwrap();
        assert_eq!(
            r.server_real_ms(),
            r.phases.phase(Phase::Execute).unwrap(),
            "measured real time is execute wall time, nothing else"
        );
    }

    #[test]
    fn terminal_print_dominates_for_large_results() {
        let mut s = session();
        let mut terminal = TerminalSink::new();
        let r = s
            .query("SELECT x, y FROM nums")
            .sink(&mut terminal)
            .run()
            .unwrap();
        assert_eq!(r.row_count(), 10_000);
        assert!(r.sim_print_ms > 0.0);
        assert!(r.sim_client_real_ms() > r.client_real_ms());
        // The measured (non-simulated) figures order the same way: printing
        // 10k rows costs real wall time too.
        assert!(r.client_real_ms() > r.server_real_ms());
        assert!(r.result_bytes > 100_000);
    }

    #[test]
    fn optimizer_toggle_changes_plan() {
        let mut s = session();
        s.set_optimizer(OptimizerConfig::none());
        let unopt = s.explain("SELECT SUM(y) FROM nums").unwrap();
        assert!(unopt.contains("Scan nums [*]"), "{unopt}");
    }

    #[test]
    fn errors_propagate() {
        let mut s = session();
        assert!(matches!(
            s.query("SELECT nope FROM nums").run(),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.query("SELECT x FROM missing").run(),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(s.query("garbage").run(), Err(DbError::Parse(_))));
    }

    #[test]
    fn traced_query_records_phase_and_operator_spans() {
        let tracer = Tracer::new();
        let mut s = session();
        let r = s
            .query("SELECT SUM(y) FROM nums WHERE x < 5000")
            .traced(&tracer)
            .run()
            .unwrap();
        assert_eq!(r.row_count(), 1);

        let trace = tracer.snapshot();
        assert_eq!(trace.lanes.len(), 1, "single-threaded query, one lane");
        let root = trace.find("query").next().expect("root span");
        assert!(root.parent.is_none());
        assert!(root.attr("sql").is_some());
        assert!(root.attr("rows").is_some());
        for phase in ["parse", "optimize", "execute", "print"] {
            let span = trace
                .find(phase)
                .next()
                .unwrap_or_else(|| panic!("no {phase}"));
            assert_eq!(span.parent, Some(root.id), "{phase} nests under query");
        }
        let exec = trace.find("execute").next().unwrap();
        assert!(exec.attr("cpu_ms").is_some());
        // Operator spans nest under the execute phase.
        let scan = trace.find("Scan nums").next().expect("scan operator span");
        assert!(scan.attr("rows_out").is_some());
        let agg = trace.find("HashAggregate").next().expect("aggregate span");
        let mut parent = agg.parent;
        let lane = &trace.lanes[0];
        let mut reached_execute = false;
        while let Some(pid) = parent {
            let p = lane.records.iter().find(|r| r.id == pid).unwrap();
            if p.name == "execute" {
                reached_execute = true;
                break;
            }
            parent = p.parent;
        }
        assert!(reached_execute, "operators are descendants of execute");
    }

    #[test]
    fn ddl_through_builder_reports_rows_affected() {
        let mut s = Session::new(Catalog::new());
        let r = s.query("CREATE TABLE t (a INT, b FLOAT)").run().unwrap();
        assert_eq!(r.column_names, vec!["rows_affected"]);
        let r = s
            .query("INSERT INTO t VALUES (1, 2.0), (3, 4.0)")
            .run()
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
        assert_eq!(r.execute_cpu_ms, 0.0);
        assert!(r.phases.phase(Phase::Parse).is_some());
    }

    #[test]
    fn failpoints_target_statements_deterministically() {
        use perfeval_fault::{panic_message, FaultAction, Trigger};
        let faults = Arc::new(FaultRegistry::new(11).armed_always(
            "minidb.execute",
            Trigger::Key(1),
            FaultAction::Panic,
        ));
        let mut catalog = Catalog::new();
        let mut t = TableBuilder::new("nums").column("x", DataType::Int).build();
        for i in 0..100 {
            t.push_row(vec![Value::Int(i)]).unwrap();
        }
        catalog.register(t).unwrap();
        let mut s = Session::new(catalog).with_faults(Arc::clone(&faults));

        // Statement 0 is untouched.
        let r = s.query("SELECT COUNT(*) FROM nums").run().unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(100)]]);

        // Statement 1 dies at the execute failpoint.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.query("SELECT COUNT(*) FROM nums").run()
        }))
        .expect_err("statement 1 panics");
        assert!(panic_message(err.as_ref()).contains("minidb.execute"));

        // Statement 2 recovers — the session survives a contained panic.
        let r = s.query("SELECT MAX(x) FROM nums").run().unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(99)]]);
        assert_eq!(faults.fired("minidb.execute"), 1);
        assert_eq!(
            faults.hits("minidb.parse"),
            3,
            "parse site saw every statement"
        );
    }

    #[test]
    fn injected_latency_preserves_results() {
        use perfeval_fault::{FaultAction, Trigger};
        let faults = Arc::new(FaultRegistry::new(0).armed_always(
            "minidb.execute",
            Trigger::Always,
            FaultAction::DelayMs(2.0),
        ));
        let mut clean = session();
        let baseline = clean.query("SELECT SUM(y) FROM nums").run().unwrap();

        let mut catalog = Catalog::new();
        let mut t = TableBuilder::new("nums")
            .column("x", DataType::Int)
            .column("y", DataType::Float)
            .build();
        for i in 0..10_000 {
            t.push_row(vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
                .unwrap();
        }
        catalog.register(t).unwrap();
        let mut slow = Session::new(catalog).with_faults(faults);
        let delayed = slow.query("SELECT SUM(y) FROM nums").run().unwrap();
        assert_eq!(
            delayed.rows, baseline.rows,
            "latency injection changes timing, never answers"
        );
        assert!(
            delayed.phases.phase(Phase::Execute).unwrap() >= 2.0,
            "injected delay shows up in the execute phase"
        );
    }

    #[test]
    fn builder_covers_the_removed_entry_points() {
        // `execute` / `execute_to` / `profile` are gone; the builder serves
        // all three shapes.
        let mut s = session();
        let r = s.query("SELECT COUNT(*) FROM nums").run().unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(10_000)]]);
        let mut sink = NullSink;
        let r2 = s
            .query("SELECT COUNT(*) FROM nums")
            .sink(&mut sink)
            .run()
            .unwrap();
        assert_eq!(r2.rows, r.rows);
        let r3 = s.query("SELECT MAX(x) FROM nums").run().unwrap();
        let trace = crate::exec::render_profile(&r3.profile);
        assert!(trace.contains("Scan nums"));
    }
}
