//! One conversation, two schedulers: everything a connection says that is
//! neither I/O nor scheduling, written once and transport-free.
//!
//! A [`Conversation`] is fed decoded frames and answers with a [`Step`] —
//! the handshake (version check, `max_conns`), protocol violations and the
//! admission decision — and runs an admitted [`Statement`] into a
//! [`Response`]: span parenting, the one `catch_unwind` around the engine,
//! the one outcome classification with its counters, the one `Footer`, and
//! the one place a result becomes frames — as the columns the engine left,
//! no row built. The two server cores drive it and differ only in
//! the four things a scheduler supplies (see [`crate::server`]): the
//! `admitted_now` load, the `parallelism`, the deadline left, and the pace
//! at which the response's frames are asked for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use minidb::exec::ResultData;
use minidb::{CancelToken, DbError, Session};
use perfeval_measure::Phase;
use perfeval_trace::{SpanGuard, SpanId};

use crate::frame::{Batches, ColumnBatch, Footer, Frame, RejectCode, PROTOCOL_VERSION};
use crate::server::Shared;

/// The protocol state of one connection: its ordinal (the fault key), its
/// session once the handshake is through, and how many queries it has sent.
pub(crate) struct Conversation {
    conn_id: u64,
    /// `None` until a `Hello` has been accepted.
    session: Option<Session>,
    queries_seen: u32,
}

/// What the scheduler does after handing the conversation one frame.
pub(crate) enum Step {
    /// Send the frame; the conversation goes on.
    Send(Frame),
    /// Send the frame, then close; the connection counts as a disconnect.
    SendThenClose(Frame),
    /// Close now: cleanly after `Bye`, as a disconnect otherwise.
    Close { clean: bool },
    /// An admitted statement, for [`Conversation::run`] when its turn comes.
    Run(Statement),
}

/// A query past the admission gate, not yet at the engine.
pub(crate) struct Statement {
    trace_parent: u64,
    /// Client header value, else the server's default; 0 = none.
    deadline_ms: u32,
    sql: String,
}

impl Statement {
    /// The deadline left after `waited` between admission and the engine;
    /// `None` without a deadline.
    pub(crate) fn deadline_left_ms(&self, waited: Duration) -> Option<f64> {
        (self.deadline_ms > 0).then(|| f64::from(self.deadline_ms) - waited.as_secs_f64() * 1e3)
    }
}

/// Whether a [`Statement::deadline_left_ms`] has run out: such a statement
/// is shed by [`Conversation::run`] without touching the engine.
pub(crate) fn spent(deadline_left_ms: Option<f64>) -> bool {
    deadline_left_ms.is_some_and(|ms| ms <= 0.0)
}

/// Counts the rejection and builds its frame with the configured hint.
fn rejected(shared: &Shared, code: RejectCode) -> Frame {
    shared.counters.count_reject(code);
    Frame::Rejected {
        code,
        retry_after_ms: shared.admission.retry_after_ms,
    }
}

impl Conversation {
    pub(crate) fn new(conn_id: u64) -> Self {
        Conversation {
            conn_id,
            session: None,
            queries_seen: 0,
        }
    }

    /// Advances the protocol by one received frame. `admitted_now` is the
    /// scheduler's measure of admitted-but-unfinished work, read only for a
    /// `Query`.
    pub(crate) fn on_frame(&mut self, shared: &Shared, frame: Frame, admitted_now: u64) -> Step {
        match frame {
            Frame::Hello { version } if self.session.is_none() => {
                if version != PROTOCOL_VERSION {
                    return Step::SendThenClose(Frame::Error(DbError::Io(format!(
                        "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                    ))));
                }
                // Connection-bound admission: a `Hello` past the bound gets
                // a typed rejection instead of a place in line.
                let max_conns = shared.admission.max_conns as u64;
                if max_conns > 0 && shared.live_conns.load(Ordering::Acquire) > max_conns {
                    return Step::SendThenClose(rejected(shared, RejectCode::Overloaded));
                }
                self.session = Some((shared.factory)());
                Step::Send(Frame::HelloOk {
                    version: PROTOCOL_VERSION,
                })
            }
            // A missing handshake is a dead connection — no courtesy frame.
            _ if self.session.is_none() => Step::Close { clean: false },
            Frame::Query {
                trace_parent,
                deadline_ms,
                sql,
            } => {
                shared.counters.queries.fetch_add(1, Ordering::Relaxed);
                self.queries_seen += 1;
                // Admission first: shed fast, before any engine work. The
                // connection stays up — shedding refuses work, not clients.
                match shared.admit_query(self.conn_id, self.queries_seen, admitted_now) {
                    Some(code) => Step::Send(rejected(shared, code)),
                    None => Step::Run(Statement {
                        trace_parent,
                        deadline_ms: match deadline_ms {
                            0 => shared.admission.default_deadline_ms,
                            own => own,
                        },
                        sql,
                    }),
                }
            }
            Frame::Bye => Step::Close { clean: true },
            _ => Step::SendThenClose(Frame::Error(DbError::Io(
                "protocol violation: expected Query or Bye".to_owned(),
            ))),
        }
    }

    /// Runs an admitted statement on this connection's session, on the
    /// calling thread. `parallelism` of `None` (or 1) keeps the session's
    /// default; `deadline_left_ms` is [`Statement::deadline_left_ms`] as of
    /// now. Whatever happens the conversation lives on: a spent deadline, a
    /// cancellation, an engine error and a contained engine panic each
    /// answer with one typed frame.
    pub(crate) fn run<'t>(
        &mut self,
        shared: &'t Shared,
        stmt: Statement,
        parallelism: Option<usize>,
        deadline_left_ms: Option<f64>,
    ) -> Response<'t> {
        if spent(deadline_left_ms) {
            // Expired while it waited its turn.
            let shed = rejected(shared, RejectCode::DeadlineExceeded);
            return Response::new(shed, None, None);
        }
        // Parent the server's span under the client's span id from the
        // frame header; 0 means the client wasn't tracing.
        let mut span = shared.tracer.as_ref().map(|t| {
            if stmt.trace_parent != 0 {
                t.span_with_parent("net.serve", SpanId(stmt.trace_parent))
            } else {
                t.span("net.serve")
            }
        });
        if let Some(g) = span.as_mut() {
            g.attr("conn", self.conn_id as i64);
            if let Some(p) = parallelism {
                g.attr("shard_parallelism", p as i64);
            }
        }

        let session = self
            .session
            .as_mut()
            .expect("a Statement comes from a conversation past its Hello");
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut query = session.query(&stmt.sql);
            if let Some(t) = shared.tracer.as_ref() {
                query = query.traced(t);
            }
            if let Some(p) = parallelism.filter(|&p| p > 1) {
                query = query.parallelism(p);
            }
            if let Some(ms) = deadline_left_ms {
                query = query.cancel(CancelToken::with_deadline_ms(ms));
            }
            query.run_columns()
        }));

        let counters = &shared.counters;
        let only = |frame| (frame, None);
        let (head, result) = match ran {
            Err(payload) => {
                // Contained engine panic: the client gets an error frame,
                // the connection and the serving thread live on.
                counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                let msg = perfeval_fault::panic_message(payload.as_ref());
                only(Frame::Error(DbError::Io(format!(
                    "server panic while executing: {msg}"
                ))))
            }
            Ok(Err(e)) => {
                let cancelled = matches!(e, DbError::Cancelled(_));
                if cancelled {
                    counters.cancelled_queries.fetch_add(1, Ordering::Relaxed);
                }
                if cancelled && deadline_left_ms.is_some() {
                    // The deadline cut the query short: partial work is
                    // discarded (no partial result escapes) and the client
                    // gets the typed rejection, not a DbError.
                    only(rejected(shared, RejectCode::DeadlineExceeded))
                } else {
                    only(Frame::Error(e))
                }
            }
            Ok(Ok(r)) => {
                let footer = Footer {
                    parse_ms: r.phases.phase(Phase::Parse).unwrap_or(0.0),
                    optimize_ms: r.phases.phase(Phase::Optimize).unwrap_or(0.0),
                    execute_ms: r.phases.phase(Phase::Execute).unwrap_or(0.0),
                    execute_cpu_ms: r.execute_cpu_ms,
                    serialize_ms: 0.0,
                    rows: r.data.row_count() as u64,
                };
                let columns = r.column_names;
                (Frame::ResultHeader { columns }, Some((r.data, footer)))
            }
        };
        Response::new(head, result, span)
    }
}

/// The frames that answer one statement, handed out one at a time so the
/// scheduler decides the pace: a head (`ResultHeader`, or the single
/// `Error`/`Rejected` frame of a statement with no result), `ColumnBatch`es
/// cut off the front of the result, then `Done`. Nothing is copied until a
/// handed-out batch is encoded; the rest waits here as the engine left it.
pub(crate) struct Response<'t> {
    head: Option<Frame>,
    batches: Batches,
    /// `None` for a one-frame answer, and once `Done` has been handed out.
    footer: Option<Footer>,
    t0: Instant,
    /// The statement's `net.serve` span, open until the response is dropped.
    span: Option<SpanGuard<'t>>,
}

impl<'t> Response<'t> {
    /// The serialize window opens here.
    fn new(head: Frame, result: Option<(ResultData, Footer)>, span: Option<SpanGuard<'t>>) -> Self {
        let (data, footer) = result.unzip();
        Response {
            head: Some(head),
            // A one-frame answer streams nothing.
            batches: ColumnBatch::batches(data.unwrap_or(ResultData::Rows(Vec::new()))),
            footer,
            t0: Instant::now(),
            span,
        }
    }

    /// The next frame ahead of `Done`; `None` when no such frame is left.
    pub(crate) fn next_frame(&mut self) -> Option<Frame> {
        let head = self.head.take();
        head.or_else(|| self.batches.next().map(Frame::ColumnBatch))
    }

    /// `Done`, once, with `serialize_ms` stamped now — so ask when the last
    /// row byte is with the transport: the window covers encode *and*
    /// write, and a write that waits on a slow reader is genuine
    /// serialize/transfer time, not server compute.
    pub(crate) fn done(&mut self) -> Option<Frame> {
        let mut footer = self.footer.take()?;
        footer.serialize_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        if let Some(g) = self.span.as_mut() {
            g.attr("rows", footer.rows as i64)
                .attr("serialize_ms", footer.serialize_ms);
        }
        Some(Frame::Done(footer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    use minidb::{Catalog, Column, DataType, ExecMode, TableBuilder, Value};
    use perfeval_fault::{FaultAction, FaultRegistry, Trigger};

    use crate::server::Admission;
    use crate::tests::{bits_eq, catalog};
    use crate::transport::LoopbackEndpoint;

    /// A `Shared` with no server around it: nothing listens, nothing runs.
    fn bare(factory: impl Fn() -> Session + Send + Sync + 'static) -> Shared {
        Shared {
            listener: LoopbackEndpoint::new(),
            factory: Box::new(factory),
            tracer: None,
            faults: Arc::new(FaultRegistry::disabled()),
            counters: Arc::default(),
            next_conn: AtomicU64::new(0),
            admission: Admission::default(),
            draining: Arc::default(),
            inflight: AtomicU64::new(0),
            live_conns: AtomicU64::new(1),
        }
    }

    /// `setup` names the one thing a script case arms (see `SCRIPT`).
    fn shared(setup: &str) -> Shared {
        let session_fault = match setup {
            "panic" => Some(("minidb.execute", FaultAction::Panic)),
            "slow" => Some(("minidb.execute", FaultAction::DelayMs(40.0))),
            "cancel" => Some(("minidb.cancel", FaultAction::FailIo)),
            _ => None,
        };
        let mut shared = bare(move || match session_fault.clone() {
            // Keyed to the session's first statement.
            Some((site, action)) => Session::new(catalog()).with_faults(Arc::new(
                FaultRegistry::new(1).armed_always(site, Trigger::Key(0), action),
            )),
            None => Session::new(catalog()),
        });
        let first_query = Trigger::KeyAttempt { key: 0, attempt: 1 };
        let admit =
            FaultRegistry::new(1).armed_always("net.admit", first_query, FaultAction::FailIo);
        match setup {
            "full" => (shared.admission.max_conns, shared.live_conns) = (1, AtomicU64::new(2)),
            "budget" => shared.admission.max_inflight = 2,
            "admit" => shared.faults = Arc::new(admit),
            _ => {}
        }
        shared
    }

    fn heard(frame: &Frame) -> String {
        match frame {
            Frame::Error(e) => format!("Error {e}"),
            Frame::Rejected { code, .. } => format!("Rejected {code:?}"),
            Frame::ColumnBatch(batch) => format!("Batch {}", batch.rows()),
            Frame::Done(footer) => format!("Done {}", footer.rows),
            other => format!("{other:?}"),
        }
    }

    /// `name | setup | frames in | frames out, by prefix | counters moved`.
    /// Setups: `full` = `max_conns(1)` with two connections live, `budget` =
    /// `max_inflight(2)`, `admit` = `net.admit` `FailIo` on the first query,
    /// `panic` / `slow` / `cancel` = an engine fault on the session's first
    /// statement. In: `count@n` arrives with `admitted_now` n, `count/5` with
    /// a 5 ms deadline, `~5` after 5 ms in a run queue; `drain` flips drain
    /// mode.
    const SCRIPT: &str = "
wrong Hello version   | -      | hello99                 | Error i/o error: unsupported protocol version 99; close dirty |
no Hello first        | -      | count                   | close dirty |
Hello past max_conns  | full   | hello                   | Rejected Overloaded; close dirty | rejected_overload: 1
Query while draining  | -      | hello count drain count | HelloOk; ResultHeader; Batch 1; Done 1; Rejected ShuttingDown | queries: 2, rejected_shutdown: 1
the scheduler's load  | budget | hello count@2 count@1   | HelloOk; Rejected Overloaded; ResultHeader; Batch 1; Done 1 | queries: 2, rejected_overload: 1
net.admit FailIo      | admit  | hello count some        | HelloOk; Rejected Overloaded; ResultHeader; Batch 300; Done 300 | queries: 2, rejected_overload: 1
deadline already spent| panic  | hello count/5~5         | HelloOk; Rejected DeadlineExceeded | queries: 1, rejected_deadline: 1
deadline mid-flight   | slow   | hello count/5 count     | HelloOk; Rejected DeadlineExceeded; ResultHeader; Batch 1; Done 1 | queries: 2, rejected_deadline: 1, cancelled_queries: 1
cancelled, no deadline| cancel | hello count count       | HelloOk; Error cancelled:; ResultHeader; Batch 1; Done 1 | queries: 2, cancelled_queries: 1
engine panic          | panic  | hello count count       | HelloOk; Error i/o error: server panic while executing: injected fault: minidb.execute; ResultHeader; Batch 1; Done 1 | queries: 2, worker_panics: 1
engine error          | -      | hello nope count        | HelloOk; Error unknown column: nope; ResultHeader; Batch 1; Done 1 | queries: 2
not a Query when ready| -      | hello hello             | HelloOk; Error i/o error: protocol violation; close dirty |
Bye                   | -      | hello bye               | HelloOk; close clean |";

    #[test]
    fn conversation_script() {
        const COUNT: &str = "SELECT COUNT(*) FROM nums";
        let hello = |version| Frame::Hello { version };
        let query = |sql: &str, deadline_ms| Frame::Query {
            trace_parent: 0,
            deadline_ms,
            sql: sql.to_owned(),
        };
        for case in SCRIPT.trim().lines() {
            let col: Vec<&str> = case.split('|').map(str::trim).collect();
            let (name, shared) = (col[0], shared(col[1]));
            let mut conv = Conversation::new(0);
            let mut got = Vec::new();
            for word in col[2].split_whitespace() {
                let (frame, admitted_now, waited_ms) = match word {
                    "hello" => (hello(PROTOCOL_VERSION), 0, 0),
                    "hello99" => (hello(99), 0, 0),
                    "bye" => (Frame::Bye, 0, 0),
                    "count" => (query(COUNT, 0), 0, 0),
                    "count@1" => (query(COUNT, 0), 1, 0),
                    "count@2" => (query(COUNT, 0), 2, 0),
                    "count/5" => (query(COUNT, 5), 0, 0),
                    "count/5~5" => (query(COUNT, 5), 0, 5),
                    "some" => (query("SELECT x FROM nums WHERE x < 300", 0), 0, 0),
                    "nope" => (query("SELECT nope FROM nums", 0), 0, 0),
                    "drain" => {
                        shared.draining.store(true, Ordering::Release);
                        continue;
                    }
                    other => panic!("{name}: unknown script word {other}"),
                };
                match conv.on_frame(&shared, frame, admitted_now) {
                    Step::Send(f) => got.push(heard(&f)),
                    Step::SendThenClose(f) => got.extend([heard(&f), "close dirty".to_owned()]),
                    Step::Close { clean: true } => got.push("close clean".to_owned()),
                    Step::Close { clean: false } => got.push("close dirty".to_owned()),
                    Step::Run(stmt) => {
                        let left = stmt.deadline_left_ms(Duration::from_millis(waited_ms));
                        let mut r = conv.run(&shared, stmt, None, left);
                        while let Some(f) = r.next_frame().or_else(|| r.done()) {
                            got.push(heard(&f));
                        }
                    }
                }
            }
            let want: Vec<&str> = col[3].split("; ").collect();
            assert_eq!(got.len(), want.len(), "{name}: {got:?}");
            for (g, w) in got.iter().zip(&want) {
                assert!(g.starts_with(w), "{name}: heard {g:?}, want {w:?}");
            }
            let stats = format!("{:?}", shared.counters.snapshot());
            let moved: Vec<&str> = stats
                .trim_end_matches(" }")
                .split(", ")
                .filter(|field| !field.ends_with(": 0"))
                .collect();
            assert_eq!(moved.join(", "), col[4], "{name}: counters");
        }
    }

    /// Batches come off the front of the result, a byte budget's worth of
    /// rows at a time, and encode to exactly what the result chunked by
    /// hand at that many rows encodes to — for the batch engine's columns
    /// and for the debug interpreter's rows.
    #[test]
    fn response_batches_are_the_rows_chunked_from_the_front() {
        // Int + Float: 16 bytes a row, 4 096 rows a batch; the same cells
        // as tagged values: 18 bytes a row, 3 640. 40 000 rows span 10 and 11.
        for n in [0usize, 1, 4_095, 4_096, 4_097, 40_000] {
            let ints: Vec<i64> = (0..n as i64).collect();
            let floats: Vec<f64> = (0..n).map(|i| i as f64 / 8.0).collect();
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|i| vec![Value::Int(ints[i]), Value::Float(floats[i])])
                .collect();
            let columns = |r: std::ops::Range<usize>| {
                ResultData::Columns(vec![
                    Arc::new(Column::Int(ints[r.clone()].to_vec())),
                    Arc::new(Column::Float(floats[r].to_vec())),
                ])
            };
            let as_rows = |r: std::ops::Range<usize>| ResultData::Rows(rows[r].to_vec());
            type Slice<'a> = &'a dyn Fn(std::ops::Range<usize>) -> ResultData;
            let shapes: [(Slice, usize); 2] = [(&columns, 4_096), (&as_rows, 3_640)];
            for (slice, per_batch) in shapes {
                let want: Vec<Vec<u8>> = (0..n)
                    .step_by(per_batch)
                    .map(|at| {
                        let mut alone = ColumnBatch::batches(slice(at..n.min(at + per_batch)));
                        let frame = Frame::ColumnBatch(alone.next().expect("a chunk has rows"));
                        assert!(alone.next().is_none(), "a chunk is one batch");
                        frame.encode()
                    })
                    .collect();
                let result = Some((slice(0..n), Footer::default()));
                let mut response = Response::new(Frame::Bye, result, None);
                assert_eq!(
                    response.next_frame(),
                    Some(Frame::Bye),
                    "the head, whatever it is"
                );
                let mut back = Vec::new();
                let got: Vec<Vec<u8>> = std::iter::from_fn(|| response.next_frame())
                    .map(|frame| {
                        let bytes = frame.encode();
                        match Frame::decode(&bytes[4..]).unwrap() {
                            Frame::ColumnBatch(batch) => batch.append_rows_to(&mut back),
                            f => panic!("wrong frame {f:?}"),
                        }
                        bytes
                    })
                    .collect();
                assert_eq!(got.len(), n.div_ceil(per_batch), "{n} rows");
                assert!(got == want, "{n} rows: same bytes on the wire");
                assert!(back == rows, "{n} rows: the far side builds the same rows");
                assert!(matches!(response.done(), Some(Frame::Done(_))));
                assert!(response.next_frame().is_none() && response.done().is_none());
            }
        }
    }

    /// The proof that the server builds no rows: a served statement leaves
    /// `minidb::exec::rows_transposed()` where it was, on both batch tiers,
    /// and what its frames carry is bit for bit what the in-process run —
    /// which moves the counter by exactly the row count — returns as rows.
    /// The counter is process-global: no other test of this binary runs a
    /// query in process.
    #[test]
    fn a_served_statement_builds_no_rows() {
        const ROWS: usize = 25_000;
        const SQL: &str = "SELECT x, y, s, b FROM wide";
        let mut t = TableBuilder::new("wide")
            .column("x", DataType::Int)
            .column("y", DataType::Float)
            .column("s", DataType::Str)
            .column("b", DataType::Bool)
            .build();
        for i in 0..ROWS as i64 {
            t.push_row(vec![
                Value::Int(i),
                Value::Float(-(i as f64) / 7.0),
                Value::Str(format!("s{}", i % 11)),
                Value::Bool(i % 3 == 0),
            ])
            .unwrap();
        }
        let mut wide = Catalog::new();
        wide.register(t).unwrap();

        for mode in [ExecMode::Optimized, ExecMode::Simd] {
            let served = wide.clone();
            let shared = bare(move || Session::new(served.clone()).with_mode(mode));
            let mut conv = Conversation::new(0);
            let hello = Frame::Hello {
                version: PROTOCOL_VERSION,
            };
            assert!(matches!(conv.on_frame(&shared, hello, 0), Step::Send(_)));
            let query = Frame::Query {
                trace_parent: 0,
                deadline_ms: 0,
                sql: SQL.to_owned(),
            };
            let Step::Run(stmt) = conv.on_frame(&shared, query, 0) else {
                panic!("{mode}: the statement is admitted");
            };

            let before = minidb::exec::rows_transposed();
            let mut response = conv.run(&shared, stmt, None, None);
            let (mut frames, mut got) = (0, Vec::new());
            while let Some(frame) = response.next_frame().or_else(|| response.done()) {
                frames += 1;
                // Through the bytes, as a scheduler would send it.
                match Frame::decode(&frame.encode()[4..]).unwrap() {
                    Frame::ColumnBatch(batch) => batch.append_rows_to(&mut got),
                    Frame::ResultHeader { columns } => assert_eq!(columns.len(), 4),
                    Frame::Done(footer) => assert_eq!(footer.rows, ROWS as u64),
                    f => panic!("{mode}: unexpected frame {f:?}"),
                }
            }
            assert!(
                frames >= 2 + 8,
                "{mode}: a multi-batch answer, {frames} frames"
            );
            assert_eq!(
                minidb::exec::rows_transposed() - before,
                0,
                "{mode}: the served path transposed rows"
            );

            let want = Session::new(wide.clone())
                .with_mode(mode)
                .query(SQL)
                .run()
                .unwrap()
                .rows;
            assert_eq!(
                minidb::exec::rows_transposed() - before,
                ROWS as u64,
                "{mode}: the in-process run is the one that transposes"
            );
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                assert!(bits_eq(g, w), "{mode}: wire {g:?} != in-process {w:?}");
            }
        }
    }
}
