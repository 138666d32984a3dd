//! One conversation, two schedulers: everything a connection says that is
//! neither I/O nor scheduling, written once and transport-free.
//!
//! A [`Conversation`] is fed decoded frames and answers with a [`Step`] —
//! the handshake (version check, `max_conns`), protocol violations and the
//! admission decision — and runs an admitted [`Statement`] into a
//! [`Response`]: span parenting, the one `catch_unwind` around the engine,
//! the one outcome classification with its counters, the one `Footer`, and
//! the one batch splitter. The two server cores drive it and differ only in
//! the four things a scheduler supplies (see [`crate::server`]): the
//! `admitted_now` load, the `parallelism`, the deadline left, and the pace
//! at which the response's frames are asked for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use minidb::{CancelToken, DbError, Session, Value};
use perfeval_measure::Phase;
use perfeval_trace::{SpanGuard, SpanId};

use crate::frame::{Footer, Frame, RejectCode, PROTOCOL_VERSION, ROWS_PER_BATCH};
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
            return Response::new(shed, Vec::new(), None, None);
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
            query.run()
        }));

        let counters = &shared.counters;
        let only = |frame| (frame, Vec::new(), None);
        let (head, rows, footer) = match ran {
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
                    rows: r.rows.len() as u64,
                };
                let columns = r.column_names;
                (Frame::ResultHeader { columns }, r.rows, Some(footer))
            }
        };
        Response::new(head, rows, footer, span)
    }
}

/// The frames that answer one statement, handed out one at a time so the
/// scheduler decides the pace: a head (`ResultHeader`, or the single
/// `Error`/`Rejected` frame of a statement with no result), `RowBatch`es
/// taken from the front of the rows, then `Done`. Only what has been
/// handed out is encoded; the rest waits here as rows.
pub(crate) struct Response<'t> {
    head: Option<Frame>,
    rows: std::vec::IntoIter<Vec<Value>>,
    /// `None` for a one-frame answer, and once `Done` has been handed out.
    footer: Option<Footer>,
    t0: Instant,
    /// The statement's `net.serve` span, open until the response is dropped.
    span: Option<SpanGuard<'t>>,
}

impl<'t> Response<'t> {
    /// The serialize window opens here.
    fn new(
        head: Frame,
        rows: Vec<Vec<Value>>,
        footer: Option<Footer>,
        span: Option<SpanGuard<'t>>,
    ) -> Self {
        Response {
            head: Some(head),
            rows: rows.into_iter(),
            footer,
            t0: Instant::now(),
            span,
        }
    }

    /// The next frame ahead of `Done`; `None` when no such frame is left.
    pub(crate) fn next_frame(&mut self) -> Option<Frame> {
        if let Some(head) = self.head.take() {
            return Some(head);
        }
        let rows: Vec<_> = self.rows.by_ref().take(ROWS_PER_BATCH).collect();
        (!rows.is_empty()).then_some(Frame::RowBatch { rows })
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

    use perfeval_fault::{FaultAction, FaultRegistry, Trigger};

    use crate::server::Admission;
    use crate::tests::catalog;
    use crate::transport::LoopbackEndpoint;

    /// A `Shared` with no server around it: nothing listens, nothing runs.
    /// `setup` names the one thing a script case arms (see `SCRIPT`).
    fn shared(setup: &str) -> Shared {
        let session_fault = match setup {
            "panic" => Some(("minidb.execute", FaultAction::Panic)),
            "slow" => Some(("minidb.execute", FaultAction::DelayMs(40.0))),
            "cancel" => Some(("minidb.cancel", FaultAction::FailIo)),
            _ => None,
        };
        let mut shared = Shared {
            listener: LoopbackEndpoint::new(),
            factory: Box::new(move || match session_fault.clone() {
                // Keyed to the session's first statement.
                Some((site, action)) => Session::new(catalog()).with_faults(Arc::new(
                    FaultRegistry::new(1).armed_always(site, Trigger::Key(0), action),
                )),
                None => Session::new(catalog()),
            }),
            tracer: None,
            faults: Arc::new(FaultRegistry::disabled()),
            counters: Arc::default(),
            next_conn: AtomicU64::new(0),
            admission: Admission::default(),
            draining: Arc::default(),
            inflight: AtomicU64::new(0),
            live_conns: AtomicU64::new(1),
        };
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
            Frame::RowBatch { rows } => format!("Batch {}", rows.len()),
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
net.admit FailIo      | admit  | hello count some        | HelloOk; Rejected Overloaded; ResultHeader; Batch 256; Batch 44; Done 300 | queries: 2, rejected_overload: 1
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

    /// Batches come off the front of the rows, `ROWS_PER_BATCH` at a time,
    /// and encode to exactly what `rows.chunks(ROWS_PER_BATCH)` encodes to.
    #[test]
    fn response_batches_are_the_rows_chunked_from_the_front() {
        for n in [0usize, 1, 255, 256, 257, 25_000] {
            let rows: Vec<Vec<Value>> = (0..n as i64)
                .map(|i| vec![Value::Int(i), Value::Float(i as f64 / 8.0)])
                .collect();
            let footer = Some(Footer::default());
            let mut response = Response::new(Frame::Bye, rows.clone(), footer, None);
            assert_eq!(
                response.next_frame(),
                Some(Frame::Bye),
                "the head, whatever it is"
            );
            let got: Vec<Vec<u8>> = std::iter::from_fn(|| response.next_frame())
                .map(|frame| frame.encode())
                .collect();
            let want: Vec<Vec<u8>> = rows
                .chunks(ROWS_PER_BATCH)
                .map(|chunk| {
                    Frame::RowBatch {
                        rows: chunk.to_vec(),
                    }
                    .encode()
                })
                .collect();
            assert_eq!(got.len(), n.div_ceil(ROWS_PER_BATCH), "{n} rows");
            assert!(got == want, "{n} rows: same bytes on the wire");
            assert!(matches!(response.done(), Some(Frame::Done(_))));
            assert!(response.next_frame().is_none() && response.done().is_none());
        }
    }
}
