//! The client: issues queries over a transport and decomposes its own wall
//! clock with the server's footer.
//!
//! The client owns its *own* [`Clock`] — the whole point of the subsystem
//! is that client time and server time are measured by different
//! stopwatches on (conceptually) different machines, exactly like
//! `mclient -t` vs. the server's trace. One query yields:
//!
//! | component | measured by | how |
//! |---|---|---|
//! | server user | server | per-thread CPU clock around execute |
//! | server real | server | wall clock around parse/optimize/execute |
//! | serialize | server | wall clock around encode+write of result frames |
//! | wire | client | receive wall time minus the server's busy time |
//! | client print | client | wall clock around the sink |
//!
//! "Wire" is a *residual*: the client cannot see inside the server, so
//! everything between "request sent" and "footer received" that the server
//! does not claim as busy time is transfer + queueing. That is how a real
//! two-box measurement works, and why the residual is clamped at zero
//! (clock skew between two stopwatches can make it slightly negative).

use std::io;
use std::sync::Arc;

use minidb::exec::ResultSet;
use minidb::sink::{NullSink, ResultSink};
use minidb::{DbError, Value};
use perfeval_fault::FaultRegistry;
use perfeval_measure::{Clock, WallClock};
use perfeval_trace::Tracer;

use crate::frame::{Footer, Frame, FramedIo, RejectCode, PROTOCOL_VERSION};
use crate::transport::Transport;

/// A client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connection reset, injected wire fault, EOF).
    Io(io::Error),
    /// The server answered with a database error.
    Db(DbError),
    /// The server shed the query (admission control, deadline, shutdown).
    /// The connection stays usable; honor `retry_after_ms` before trying
    /// again.
    Rejected {
        /// Why the server shed the query.
        code: RejectCode,
        /// Server's hint: wait at least this long before retrying, ms.
        retry_after_ms: u32,
    },
    /// The peer violated the protocol (unexpected frame, row-count
    /// mismatch, version refusal).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Db(e) => write!(f, "server error: {e}"),
            NetError::Rejected {
                code,
                retry_after_ms,
            } => write!(f, "rejected: {code} (retry after {retry_after_ms} ms)"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Result of one query over the wire, with the full time decomposition.
#[derive(Debug, Clone)]
pub struct NetQueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows (bit-identical to an in-process run; see
    /// `tests/roundtrip.rs`).
    pub rows: Vec<Vec<Value>>,
    /// The server's timing footer, verbatim.
    pub footer: Footer,
    /// Transfer + queueing residual: receive wall time minus the server's
    /// claimed busy time, clamped at zero. Client-measured, ms.
    pub wire_ms: f64,
    /// Wall time the sink took to consume the result. Client-measured, ms.
    pub print_ms: f64,
    /// Total wall time from sending the query to the sink finishing.
    /// Client-measured, ms.
    pub client_real_ms: f64,
    /// Payload bytes received for this query (frames, not kernel bytes).
    pub bytes_received: u64,
    /// Bytes the sink rendered.
    pub result_bytes: usize,
}

impl NetQueryResult {
    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Server "user" time: per-thread CPU of the execute phase, ms.
    pub fn server_user_ms(&self) -> f64 {
        self.footer.execute_cpu_ms
    }

    /// Server "real" time: parse + optimize + execute wall, ms.
    pub fn server_real_ms(&self) -> f64 {
        self.footer.parse_ms + self.footer.optimize_ms + self.footer.execute_ms
    }

    /// Server-side result encoding + write time, ms.
    pub fn serialize_ms(&self) -> f64 {
        self.footer.serialize_ms
    }

    /// Result-delivery time: serialize + wire + client print, ms. The
    /// component the paper warns can dominate "query time" when you
    /// measure at the client.
    pub fn delivery_ms(&self) -> f64 {
        self.serialize_ms() + self.wire_ms + self.print_ms
    }

    /// Fraction of total client real time spent on delivery (0..=1).
    pub fn delivery_share(&self) -> f64 {
        if self.client_real_ms <= 0.0 {
            0.0
        } else {
            (self.delivery_ms() / self.client_real_ms).clamp(0.0, 1.0)
        }
    }

    /// Renders the decomposition as an aligned table — the honest version
    /// of `mclient -t` output.
    pub fn decomposition(&self) -> String {
        let total = self.client_real_ms.max(1e-9);
        let pct = |ms: f64| 100.0 * ms / total;
        let other = (self.client_real_ms
            - self.server_real_ms()
            - self.serialize_ms()
            - self.wire_ms
            - self.print_ms)
            .max(0.0);
        let mut out = String::new();
        out.push_str(&format!(
            "client real    {:>10.3} ms  100.0%\n",
            self.client_real_ms
        ));
        out.push_str(&format!(
            "  server user  {:>10.3} ms  (cpu, inside server real)\n",
            self.server_user_ms()
        ));
        for (label, ms) in [
            ("server real ", self.server_real_ms()),
            ("serialize   ", self.serialize_ms()),
            ("wire        ", self.wire_ms),
            ("client print", self.print_ms),
            ("other       ", other),
        ] {
            out.push_str(&format!("  {label} {:>10.3} ms  {:>5.1}%\n", ms, pct(ms)));
        }
        out
    }
}

/// Something that can dial (and re-dial) a server — the named trait behind
/// [`Connector`], so downstream code can store a dialer in a struct field
/// or trait object without spelling out a closure type.
///
/// Every `Fn() -> io::Result<Box<dyn Transport>> + Send` closure is a
/// `Connect` via the blanket impl, so existing `Box::new(move || ...)`
/// call sites keep working unchanged, and custom dialer types (connection
/// pools, fault-wrapped endpoints) can implement it by name.
pub trait Connect: Send {
    /// Opens a fresh transport to the server.
    ///
    /// # Errors
    /// Propagates endpoint dial failures.
    fn dial(&self) -> io::Result<Box<dyn Transport>>;
}

impl<F> Connect for F
where
    F: Fn() -> io::Result<Box<dyn Transport>> + Send,
{
    fn dial(&self) -> io::Result<Box<dyn Transport>> {
        self()
    }
}

/// A boxed dialer the client can call again to re-establish a dropped
/// connection (see [`Client::connect_via`] / [`Client::reconnect`]).
pub type Connector = Box<dyn Connect>;

/// A connected client. One connection, one server-side session; the
/// connection is persistent — [`Client::query`] can be called any number
/// of times without re-handshaking (the `Hello` exchange happens exactly
/// once per connection).
pub struct Client {
    io: FramedIo,
    tracer: Option<Tracer>,
    clock: WallClock,
    said_bye: bool,
    alive: bool,
    connector: Option<Connector>,
    faults: Arc<FaultRegistry>,
    conn_key: u64,
    deadline_ms: u32,
}

impl Client {
    /// Connects over `transport` (handshake included) with a wall clock and
    /// no fault injection.
    ///
    /// # Errors
    /// Transport errors, or a server version refusal.
    pub fn connect(transport: Box<dyn Transport>) -> Result<Client, NetError> {
        Client::connect_with(transport, Arc::new(FaultRegistry::disabled()), 0)
    }

    /// Connects with a fault registry evaluating the client side's
    /// `net.read`/`net.write` sites, keyed by `conn_key`. This is how an
    /// experiment injects a *deterministic* dropped connection or slow link
    /// on the client's end of the wire.
    pub fn connect_with(
        transport: Box<dyn Transport>,
        faults: Arc<FaultRegistry>,
        conn_key: u64,
    ) -> Result<Client, NetError> {
        let io = Client::handshake(transport, &faults, conn_key)?;
        Ok(Client {
            io,
            tracer: None,
            clock: WallClock::new(),
            said_bye: false,
            alive: true,
            connector: None,
            faults,
            conn_key,
            deadline_ms: 0,
        })
    }

    /// Connects through a re-dialable `connector` and remembers it, so a
    /// dead connection can be revived in place with [`Client::reconnect`].
    /// This is what a load generator uses: thousands of sequential queries
    /// on one persistent connection, and a cheap recovery path when a
    /// flapping link kills it.
    ///
    /// # Errors
    /// Dial or handshake failure.
    pub fn connect_via(
        connector: Connector,
        faults: Arc<FaultRegistry>,
        conn_key: u64,
    ) -> Result<Client, NetError> {
        let transport = connector.dial()?;
        let mut client = Client::connect_with(transport, faults, conn_key)?;
        client.connector = Some(connector);
        Ok(client)
    }

    /// Performs the one-per-connection `Hello` exchange.
    fn handshake(
        transport: Box<dyn Transport>,
        faults: &Arc<FaultRegistry>,
        conn_key: u64,
    ) -> Result<FramedIo, NetError> {
        let mut io = FramedIo::new(transport, Arc::clone(faults), conn_key);
        io.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match io.recv()? {
            Frame::HelloOk { .. } => {}
            Frame::Error(e) => return Err(NetError::Db(e)),
            // Accept-backlog admission control answers Hello with a
            // Rejected frame and closes; surface it as the typed error so
            // the dialer can back off and re-dial.
            Frame::Rejected {
                code,
                retry_after_ms,
            } => {
                return Err(NetError::Rejected {
                    code,
                    retry_after_ms,
                })
            }
            f => return Err(NetError::Protocol(format!("expected HelloOk, got {f:?}"))),
        }
        Ok(io)
    }

    /// Whether the connection is believed usable: no transport or protocol
    /// error has been observed and `close` has not been called. Cheap (a
    /// flag read — no probe traffic), so a load harness can gate every
    /// request on it.
    pub fn is_alive(&self) -> bool {
        self.alive && !self.said_bye
    }

    /// Re-dials and re-handshakes in place after the connection died,
    /// using the connector stored by [`Client::connect_via`]. The server
    /// sees a brand-new connection (and session); the client keeps its
    /// tracer, clock, and fault key.
    ///
    /// # Errors
    /// `Protocol` if the client was not built with `connect_via`;
    /// otherwise dial/handshake errors (the client stays dead).
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        let connector = self.connector.as_ref().ok_or_else(|| {
            NetError::Protocol("no connector: client was not built with connect_via".into())
        })?;
        let transport = connector.dial()?;
        self.io = Client::handshake(transport, &self.faults, self.conn_key)?;
        self.alive = true;
        self.said_bye = false;
        Ok(())
    }

    /// Records a `net.query` span per query into `tracer`, and sends its
    /// span id in the frame header so the server parents its spans under
    /// it.
    pub fn traced(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Sets the per-query deadline carried in every subsequent `Query`
    /// frame header, milliseconds (`0` clears it). The server enforces it
    /// by cooperative cancellation and answers an expired query with
    /// [`NetError::Rejected`]`{ code: DeadlineExceeded }` — the connection
    /// and its session stay usable.
    pub fn set_deadline_ms(&mut self, ms: u32) {
        self.deadline_ms = ms;
    }

    /// Builder form of [`Client::set_deadline_ms`].
    pub fn with_deadline_ms(mut self, ms: u32) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Transport description ("tcp 127.0.0.1:...", "loopback-client").
    pub fn describe(&self) -> String {
        self.io.describe()
    }

    /// Runs a query, discarding the rendering (null sink) — the pure
    /// receive-side measurement.
    ///
    /// # Errors
    /// [`NetError::Db`] for server-reported query errors, [`NetError::Io`] /
    /// [`NetError::Protocol`] if the connection died. After an `Io` or
    /// `Protocol` error the connection is unusable.
    pub fn query(&mut self, sql: &str) -> Result<NetQueryResult, NetError> {
        let mut null = NullSink;
        self.query_to(sql, &mut null)
    }

    /// Runs a query and delivers the result to `sink`, timing it as the
    /// "client print" component.
    ///
    /// # Errors
    /// See [`Client::query`]. An `Io` or `Protocol` error marks the
    /// connection dead ([`Client::is_alive`] returns false); a `Db` error
    /// leaves it usable — the server session survives a failed query.
    pub fn query_to(
        &mut self,
        sql: &str,
        sink: &mut dyn ResultSink,
    ) -> Result<NetQueryResult, NetError> {
        let result = self.query_to_inner(sql, sink);
        if matches!(result, Err(NetError::Io(_)) | Err(NetError::Protocol(_))) {
            self.alive = false;
        }
        result
    }

    fn query_to_inner(
        &mut self,
        sql: &str,
        sink: &mut dyn ResultSink,
    ) -> Result<NetQueryResult, NetError> {
        let t0 = self.clock.now_ns();
        let mut span = self.tracer.as_ref().map(|t| t.span("net.query"));
        if let Some(g) = span.as_mut() {
            g.attr("sql", sql_preview(sql));
        }
        let trace_parent = span
            .as_ref()
            .and_then(|g| g.id())
            .map(|id| id.0)
            .unwrap_or(0);

        let bytes_before = self.io.bytes_read();
        self.io.send(&Frame::Query {
            trace_parent,
            deadline_ms: self.deadline_ms,
            sql: sql.to_owned(),
        })?;

        let columns = match self.io.recv()? {
            Frame::ResultHeader { columns } => columns,
            Frame::Error(e) => return Err(NetError::Db(e)),
            Frame::Rejected {
                code,
                retry_after_ms,
            } => {
                return Err(NetError::Rejected {
                    code,
                    retry_after_ms,
                })
            }
            f => {
                return Err(NetError::Protocol(format!(
                    "expected ResultHeader, got {f:?}"
                )))
            }
        };
        // Rows are built here, once, a batch at a time as it arrives.
        // `Frame::decode` has checked each batch against itself (columns
        // of one length, codes inside their dictionary); its width against
        // the header is checked before a row is built from it.
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let footer = loop {
            match self.io.recv()? {
                Frame::ColumnBatch(batch) => {
                    if batch.width() != columns.len() {
                        return Err(NetError::Protocol(format!(
                            "column count mismatch: header names {}, batch carries {}",
                            columns.len(),
                            batch.width()
                        )));
                    }
                    batch.append_rows_to(&mut rows);
                }
                Frame::Done(footer) => break footer,
                Frame::Error(e) => return Err(NetError::Db(e)),
                f => {
                    return Err(NetError::Protocol(format!(
                        "expected ColumnBatch or Done, got {f:?}"
                    )))
                }
            }
        };
        let received_ns = self.clock.now_ns().saturating_sub(t0);
        if footer.rows != rows.len() as u64 {
            return Err(NetError::Protocol(format!(
                "row count mismatch: footer says {}, received {}",
                footer.rows,
                rows.len()
            )));
        }

        // Print through the sink, on the client's clock.
        let tp = self.clock.now_ns();
        let result = ResultSet {
            column_names: columns,
            rows,
        };
        let report = sink.consume(&result).map_err(NetError::Db)?;
        let done_ns = self.clock.now_ns();

        let recv_ms = received_ns as f64 / 1e6;
        let print_ms = done_ns.saturating_sub(tp) as f64 / 1e6;
        let client_real_ms = done_ns.saturating_sub(t0) as f64 / 1e6;
        let wire_ms = (recv_ms - footer.busy_ms()).max(0.0);
        if let Some(g) = span.as_mut() {
            g.attr("rows", result.rows.len())
                .attr("wire_ms", wire_ms)
                .attr("print_ms", print_ms)
                .attr("server_busy_ms", footer.busy_ms());
        }

        let ResultSet { column_names, rows } = result;
        Ok(NetQueryResult {
            columns: column_names,
            rows,
            footer,
            wire_ms,
            print_ms,
            client_real_ms,
            bytes_received: self.io.bytes_read().saturating_sub(bytes_before),
            result_bytes: report.bytes,
        })
    }

    /// Closes the connection politely (`Bye`).
    ///
    /// # Errors
    /// Transport errors while sending the farewell.
    pub fn close(mut self) -> Result<(), NetError> {
        self.said_bye = true;
        self.io.send(&Frame::Bye)?;
        Ok(())
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if !self.said_bye {
            let _ = self.io.send(&Frame::Bye);
        }
    }
}

/// Truncates long SQL for span attributes.
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
