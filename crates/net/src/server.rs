//! The server: one conversation, two schedulers, behind one builder API.
//!
//! [`ServerMode`] is a **declared design factor** — the scheduler is chosen
//! explicitly at construction, in the spirit of making every
//! performance-relevant knob an explicit factor of the experiment design:
//!
//! * [`ServerMode::ThreadPerConn`] — the classic engine: a pool of accept
//!   workers, each serving one connection at a time with blocking I/O (the
//!   driver at the bottom of this file). Its scheduling behavior under high
//!   connection counts is itself an object of study (experiment E23).
//! * [`ServerMode::Sharded`] — the event-driven shared-nothing core in
//!   [`crate::shard`]: deterministic conn→shard placement, per-shard
//!   readiness loops, bounded per-connection write queues, and cross-shard
//!   work stealing through the engine's morsel parallelism.
//!
//! Handshake, admission, statement execution, outcome classification, the
//! timing footer and response framing are written once, in
//! `conversation.rs`; the fault sites fire at the same ordinals in both. A
//! scheduler supplies four things only: the load admission is judged
//! against, the parallelism a statement runs with, the deadline left when
//! it reaches the engine, and how frames get to the transport. Results and
//! measured decompositions are therefore mode-independent; throughput and
//! tails are not, which is the point.
//!
//! ```no_run
//! # use minidb_net::{Server, ServerMode, LoopbackEndpoint};
//! # use minidb::{Catalog, Session};
//! let ep = LoopbackEndpoint::new();
//! let server = Server::builder()
//!     .transport(ep)
//!     .mode(ServerMode::Sharded { shards: 4, queue_depth: 64 })
//!     .serve(|| Session::new(Catalog::new()));
//! // ... connect clients ...
//! server.shutdown();
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use minidb::Session;
use perfeval_fault::FaultRegistry;
use perfeval_pool::parallel_map_traced;
use perfeval_trace::Tracer;

use crate::conversation::{Conversation, Step};
use crate::frame::{Frame, FramedIo, RejectCode};
use crate::shard::{run_sharded, ShardConfig, ShardTelemetry};
use crate::transport::{Listener, Transport};

/// Builds sessions for new connections. Runs on server-owned threads.
pub type SessionFactory = dyn Fn() -> Session + Send + Sync;

/// Default bound on a sharded connection's write queue, in encoded frames.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Which execution engine serves connections — an explicit experiment arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// One blocking worker per in-flight connection, from a fixed pool of
    /// `workers` accept threads. A connection beyond `workers` waits in the
    /// listener backlog.
    ThreadPerConn {
        /// Pool size = maximum concurrently served connections.
        workers: usize,
    },
    /// The event-driven shared-nothing core: `shards` pinned workers
    /// multiplexing all connections, each connection's outbound frames
    /// bounded by `queue_depth`. It serves what it can poll (TCP, loopback);
    /// a connection whose transport has no readiness source is refused
    /// before its `Hello` and counted as a disconnect.
    Sharded {
        /// Number of shard workers (core-pinned when permitted).
        shards: usize,
        /// Per-connection write-queue bound, in encoded frames.
        queue_depth: usize,
    },
}

impl Default for ServerMode {
    /// Sharded, with one shard per core (capped at 8) and the default
    /// queue depth.
    fn default() -> Self {
        ServerMode::Sharded {
            shards: default_shards(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }
}

impl ServerMode {
    /// Short label for reports ("threaded:4", "sharded:8x64").
    pub fn describe(&self) -> String {
        match self {
            ServerMode::ThreadPerConn { workers } => format!("threaded:{workers}"),
            ServerMode::Sharded {
                shards,
                queue_depth,
            } => format!("sharded:{shards}x{queue_depth}"),
        }
    }
}

fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().clamp(1, 8))
}

/// Overload-protection knobs — the server's admission-control policy, a
/// declared design factor like [`ServerMode`]. The default admits
/// everything (no shedding), so admission is strictly opt-in.
///
/// When a bound trips, the server answers the offending frame with a typed
/// [`Frame::Rejected`](crate::Frame) *instead of queuing the work* — the
/// client learns in bounded time that it should back off, which is the
/// whole point of load shedding: reject fast rather than queue forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Bound on admitted-but-unfinished queries: per shard in
    /// [`ServerMode::Sharded`] (the shard's run-queue budget), global in
    /// [`ServerMode::ThreadPerConn`]. Queries beyond the budget get
    /// `Rejected { code: Overloaded }`. `0` = unbounded (no shedding).
    pub max_inflight: usize,
    /// Bound on concurrently live connections. A `Hello` arriving past the
    /// bound is answered `Rejected { code: Overloaded }` and the connection
    /// closed — a typed, fast refusal instead of silent backlog growth.
    /// `0` = unbounded.
    pub max_conns: usize,
    /// Server-imposed deadline for queries that carry none in their
    /// `Query` header, milliseconds. Enforced by cooperative cancellation;
    /// an expired query is answered `Rejected { code: DeadlineExceeded }`
    /// and its partial work discarded. `0` = none.
    pub default_deadline_ms: u32,
    /// The `retry_after_ms` hint stamped into every `Rejected` frame.
    pub retry_after_ms: u32,
}

impl Default for Admission {
    /// Admit everything: no in-flight bound, no connection bound, no
    /// server-imposed deadline, 10 ms retry hint.
    fn default() -> Self {
        Admission {
            max_inflight: 0,
            max_conns: 0,
            default_deadline_ms: 0,
            retry_after_ms: 10,
        }
    }
}

impl Admission {
    /// Sets the in-flight query budget (`0` = unbounded).
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n;
        self
    }

    /// Sets the live-connection bound (`0` = unbounded).
    pub fn max_conns(mut self, n: usize) -> Self {
        self.max_conns = n;
        self
    }

    /// Sets the server-imposed default deadline (`0` = none).
    pub fn default_deadline_ms(mut self, ms: u32) -> Self {
        self.default_deadline_ms = ms;
        self
    }

    /// Sets the `retry_after_ms` hint in `Rejected` frames.
    pub fn retry_after_ms(mut self, ms: u32) -> Self {
        self.retry_after_ms = ms;
        self
    }

    /// Whether any shedding bound is armed.
    pub fn is_shedding(&self) -> bool {
        self.max_inflight > 0 || self.max_conns > 0 || self.default_deadline_ms > 0
    }

    /// Short label for reports ("admit-all", "inflight:4 deadline:50ms").
    pub fn describe(&self) -> String {
        if !self.is_shedding() {
            return "admit-all".to_owned();
        }
        let mut parts = Vec::new();
        if self.max_inflight > 0 {
            parts.push(format!("inflight:{}", self.max_inflight));
        }
        if self.max_conns > 0 {
            parts.push(format!("conns:{}", self.max_conns));
        }
        if self.default_deadline_ms > 0 {
            parts.push(format!("deadline:{}ms", self.default_deadline_ms));
        }
        parts.join(" ")
    }
}

/// Counters a running server exposes; all monotonic.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) disconnects: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) rejected_overload: AtomicU64,
    pub(crate) rejected_deadline: AtomicU64,
    pub(crate) rejected_shutdown: AtomicU64,
    pub(crate) cancelled_queries: AtomicU64,
}

impl Counters {
    /// Bumps the reject counter for `code` (unknown codes count as
    /// overload — they only arise from newer peers).
    pub(crate) fn count_reject(&self, code: RejectCode) {
        let c = match code {
            RejectCode::Overloaded | RejectCode::Unknown(_) => &self.rejected_overload,
            RejectCode::DeadlineExceeded => &self.rejected_deadline,
            RejectCode::ShuttingDown => &self.rejected_shutdown,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            cancelled_queries: self.cancelled_queries.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Queries answered (including ones that returned a `DbError`).
    pub queries: u64,
    /// Connections that ended on a transport error instead of `Bye`
    /// (client vanished, injected wire fault, protocol violation).
    pub disconnects: u64,
    /// Panics caught while serving (injected engine faults); the
    /// connection survives, the panic is reported to the client as an
    /// error frame.
    pub worker_panics: u64,
    /// Queries (or `Hello`s) shed with `Rejected { code: Overloaded }` —
    /// the in-flight budget or the connection bound tripped.
    pub rejected_overload: u64,
    /// Queries shed with `Rejected { code: DeadlineExceeded }` — expired
    /// before or during execution.
    pub rejected_deadline: u64,
    /// Queries shed with `Rejected { code: ShuttingDown }` while draining.
    pub rejected_shutdown: u64,
    /// Queries whose execution was cut short by cooperative cancellation
    /// (deadline enforcement or the `minidb.cancel` fault site).
    pub cancelled_queries: u64,
}

impl ServerStats {
    /// Total shed requests across all reject codes.
    pub fn rejected(&self) -> u64 {
        self.rejected_overload + self.rejected_deadline + self.rejected_shutdown
    }
}

/// Configures and launches a [`ServerHandle`]. Obtained from
/// [`Server::builder`]; `transport` is the one required field.
pub struct ServerBuilder {
    transport: Option<Arc<dyn Listener>>,
    mode: ServerMode,
    tracer: Option<Tracer>,
    faults: Arc<FaultRegistry>,
    pin_cores: bool,
    admission: Admission,
}

impl ServerBuilder {
    fn new() -> Self {
        ServerBuilder {
            transport: None,
            mode: ServerMode::default(),
            tracer: None,
            faults: Arc::new(FaultRegistry::disabled()),
            pin_cores: true,
            admission: Admission::default(),
        }
    }

    /// The listening endpoint to serve (required).
    pub fn transport(mut self, listener: Arc<dyn Listener>) -> Self {
        self.transport = Some(listener);
        self
    }

    /// The execution engine (default: [`ServerMode::Sharded`] sized to the
    /// machine).
    pub fn mode(mut self, mode: ServerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Records server-side spans into `tracer`. Query frames that carry a
    /// client span id get their `net.serve` span parented under it, so one
    /// snapshot stitches both sides of the wire.
    pub fn traced(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Arms fault sites: `net.accept` (key = connection ordinal) around
    /// each accept, `net.read`/`net.write` (key = connection ordinal,
    /// attempt = frame ordinal) on every server-side frame, and
    /// `net.admit` (key = connection ordinal, attempt = query ordinal) at
    /// every admission decision (an I/O-failure verdict forces a
    /// `Rejected { code: Overloaded }`) — identically in both modes.
    pub fn with_faults(mut self, faults: Arc<FaultRegistry>) -> Self {
        self.faults = faults;
        self
    }

    /// The overload-protection policy (default: [`Admission::default`],
    /// which admits everything).
    pub fn admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
    }

    /// Pin shard workers to cores (sharded mode; best effort — refused
    /// affinity calls leave workers floating). Default on.
    pub fn pin_cores(mut self, pin: bool) -> Self {
        self.pin_cores = pin;
        self
    }

    /// Starts serving, building one session per connection with `factory`.
    /// Returns immediately; the engine runs until [`ServerHandle::shutdown`].
    ///
    /// # Panics
    /// Panics if no transport was set, or on a zero `workers`/`shards`/
    /// `queue_depth`.
    pub fn serve(self, factory: impl Fn() -> Session + Send + Sync + 'static) -> ServerHandle {
        let listener = self
            .transport
            .expect("ServerBuilder::transport(..) is required before serve()");
        let counters = Arc::new(Counters::default());
        let draining = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            listener: Arc::clone(&listener),
            factory: Box::new(factory),
            tracer: self.tracer,
            faults: self.faults,
            counters: Arc::clone(&counters),
            next_conn: AtomicU64::new(0),
            admission: self.admission,
            draining: Arc::clone(&draining),
            inflight: AtomicU64::new(0),
            live_conns: AtomicU64::new(0),
        });
        let mode = self.mode;
        let (join, telemetry) = match mode {
            ServerMode::ThreadPerConn { workers } => {
                assert!(workers > 0, "a server needs at least one worker");
                let join = std::thread::Builder::new()
                    .name("minidb-serve".to_owned())
                    .spawn(move || {
                        // The map blocks until every worker exits, so it
                        // lives on this supervisor thread — worker 0 — and
                        // holds its helpers until the listener shuts down,
                        // when they go back to the pool's parked list.
                        let tracer = shared.tracer.clone();
                        parallel_map_traced(workers, workers, tracer.as_ref(), |_w| {
                            while let Some((conn_id, transport)) = shared.accept_conn() {
                                shared.serve_blocking(transport, conn_id);
                            }
                        });
                    })
                    .expect("spawn server supervisor thread");
                (join, None)
            }
            ServerMode::Sharded {
                shards,
                queue_depth,
            } => {
                assert!(shards > 0, "a sharded server needs at least one shard");
                assert!(queue_depth > 0, "queue_depth must be positive");
                let cfg = ShardConfig {
                    shards,
                    queue_depth,
                    pin_cores: self.pin_cores,
                };
                let tel = Arc::new(ShardTelemetry::new(shards));
                let tel2 = Arc::clone(&tel);
                let join = std::thread::Builder::new()
                    .name("minidb-serve".to_owned())
                    .spawn(move || run_sharded(shared, cfg, tel2))
                    .expect("spawn server supervisor thread");
                (join, Some(tel))
            }
        };
        ServerHandle {
            listener,
            join: Some(join),
            counters,
            mode,
            telemetry,
            draining,
        }
    }
}

/// The server's entry point: [`Server::builder`] is the one way to
/// configure and start one.
pub struct Server;

impl Server {
    /// Configures a server. See [`ServerBuilder`].
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// its workers.
pub struct ServerHandle {
    listener: Arc<dyn Listener>,
    join: Option<std::thread::JoinHandle<()>>,
    counters: Arc<Counters>,
    mode: ServerMode,
    telemetry: Option<Arc<ShardTelemetry>>,
    draining: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Stops accepting new connections; in-flight connections finish their
    /// current request loop. Idempotent.
    pub fn shutdown(&self) {
        self.listener.shutdown();
    }

    /// Enters drain mode: existing connections stay up, but every new
    /// query is answered `Rejected { code: ShuttingDown }` — clients get a
    /// typed signal to fail over instead of hanging on a dying server.
    /// Call [`ServerHandle::shutdown`] afterwards to stop accepting.
    /// Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Shuts down and waits for every worker to exit, returning final
    /// counters.
    pub fn wait(mut self) -> ServerStats {
        self.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        self.stats()
    }

    /// Current counters (live; monotonic).
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }

    /// The engine this server runs.
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// Connections placed on each shard so far (sharded mode only) — the
    /// observable witness that placement is deterministic.
    pub fn shard_conns(&self) -> Option<Vec<u64>> {
        self.telemetry.as_ref().map(|t| {
            t.per_shard_conns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect()
        })
    }

    /// Queries that ran with parallelism borrowed from idle shards
    /// (sharded mode; 0 otherwise). It counts *intent*: the statement was
    /// given `parallelism > 1`, whether or not a sweep of it had units for
    /// a second worker or the helper got to run one. The witness that a
    /// borrow paid is the `units_by_worker` attribute on the sweeping
    /// operator's span (`"3,2"`: the shard ran three units, the helper two).
    pub fn steal_borrows(&self) -> u64 {
        self.telemetry
            .as_ref()
            .map_or(0, |t| t.steal_borrows.load(Ordering::Relaxed))
    }

    /// High-water mark of any connection's write queue, in frames (sharded
    /// mode; 0 otherwise). Bounded by the configured `queue_depth` plus the
    /// header/footer frames — the backpressure invariant tests assert.
    pub fn write_queue_peak(&self) -> u64 {
        self.telemetry
            .as_ref()
            .map_or(0, |t| t.write_queue_peak.load(Ordering::Relaxed))
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

pub(crate) struct Shared {
    pub(crate) listener: Arc<dyn Listener>,
    pub(crate) factory: Box<SessionFactory>,
    pub(crate) tracer: Option<Tracer>,
    pub(crate) faults: Arc<FaultRegistry>,
    pub(crate) counters: Arc<Counters>,
    pub(crate) next_conn: AtomicU64,
    pub(crate) admission: Admission,
    pub(crate) draining: Arc<AtomicBool>,
    /// Queries executing right now (thread-per-conn's admission gauge;
    /// the sharded engine bounds its per-shard run queues instead).
    pub(crate) inflight: AtomicU64,
    /// Connections currently alive, for the `max_conns` bound.
    pub(crate) live_conns: AtomicU64,
}

impl Shared {
    /// The admission verdict for one query, shared by both engines:
    /// the `net.admit` fault site first (an I/O-failure verdict forces a
    /// rejection), then drain mode, then the caller-measured load against
    /// the in-flight budget. `None` admits.
    pub(crate) fn admit_query(
        &self,
        conn_id: u64,
        query_ordinal: u32,
        admitted_now: u64,
    ) -> Option<RejectCode> {
        self.faults.fire("net.admit", conn_id, query_ordinal);
        if self.faults.io_fails_at("net.admit", conn_id, query_ordinal) {
            return Some(RejectCode::Overloaded);
        }
        if self.draining.load(Ordering::Acquire) {
            return Some(RejectCode::ShuttingDown);
        }
        let budget = self.admission.max_inflight as u64;
        if budget > 0 && admitted_now >= budget {
            return Some(RejectCode::Overloaded);
        }
        None
    }

    /// The accept gate, shared by both engines: blocks for the next
    /// connection, gives it its ordinal, passes it through the `net.accept`
    /// fault site (an injected failure drops it on the floor, exactly like
    /// a listener backlog overflow would) and counts it live. `None` once
    /// the listener has shut down (or failed).
    pub(crate) fn accept_conn(&self) -> Option<(u64, Box<dyn Transport>)> {
        loop {
            let transport = self.listener.accept().ok()?;
            let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed);
            self.faults.fire("net.accept", conn_id, 1);
            if self.faults.io_fails("net.accept", conn_id) {
                self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.counters.connections.fetch_add(1, Ordering::Relaxed);
            self.live_conns.fetch_add(1, Ordering::AcqRel);
            return Some((conn_id, transport));
        }
    }

    /// Serves one accepted connection to its end on the calling thread with
    /// blocking I/O and full containment — the thread-per-conn data path.
    fn serve_blocking(&self, transport: Box<dyn Transport>, conn_id: u64) {
        let mut io = FramedIo::new(transport, Arc::clone(&self.faults), conn_id);
        // A panic while serving (injected wire or admission fault, server
        // bug outside the conversation's own guard) must not take the
        // serving thread down with it.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.serve_connection(&mut io)));
        if outcome.is_err() {
            self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        if !matches!(outcome, Ok(true)) {
            self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.live_conns.fetch_sub(1, Ordering::AcqRel);
    }

    /// The blocking scheduler: `recv → on_frame → send`, and on a statement
    /// `run → send every frame`. Returns `true` on a clean `Bye`, `false`
    /// on transport error / protocol violation.
    fn serve_connection(&self, io: &mut FramedIo) -> bool {
        let mut conv = Conversation::new(io.conn_id());
        loop {
            let Ok(frame) = io.recv() else {
                return false;
            };
            // The gauge is incremented optimistically so concurrent workers
            // race for the budget rather than past it.
            let slot =
                matches!(frame, Frame::Query { .. }).then(|| InflightSlot::take(&self.inflight));
            let admitted_now = slot.as_ref().map_or(0, |s| s.ahead);
            match conv.on_frame(self, frame, admitted_now) {
                Step::Send(reply) => {
                    drop(slot); // a shed query holds no slot while its frame is written
                    if io.send(&reply).is_err() {
                        return false;
                    }
                }
                Step::SendThenClose(reply) => {
                    let _ = io.send(&reply);
                    return false;
                }
                Step::Close { clean } => return clean,
                Step::Run(stmt) => {
                    // No queue here: the statement has its whole deadline
                    // and the session's own parallelism.
                    let deadline_left_ms = stmt.deadline_left_ms(Duration::ZERO);
                    let mut response = conv.run(self, stmt, None, deadline_left_ms);
                    drop(slot);
                    // Blocking writes: by the time `Done` is asked for, the
                    // last row byte is with the transport.
                    while let Some(frame) = response.next_frame().or_else(|| response.done()) {
                        if io.send(&frame).is_err() {
                            return false;
                        }
                    }
                }
            }
        }
    }
}

/// Thread-per-conn's hold on the global in-flight gauge, from just before
/// the admission decision until the statement leaves the engine. Released
/// on drop, so a panic on the way (a `Panic` armed at `net.admit`) cannot
/// leak the slot and leave the server answering `Overloaded` forever.
struct InflightSlot<'a> {
    gauge: &'a AtomicU64,
    /// Statements that held a slot when this one was taken.
    ahead: u64,
}

impl<'a> InflightSlot<'a> {
    fn take(gauge: &'a AtomicU64) -> Self {
        InflightSlot {
            gauge,
            ahead: gauge.fetch_add(1, Ordering::AcqRel),
        }
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::AcqRel);
    }
}
