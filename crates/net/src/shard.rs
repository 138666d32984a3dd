//! The sharded server core: an event-driven, shared-nothing engine.
//!
//! One acceptor (the supervisor thread) places each connection on a shard
//! by a **pure function** of `(placement_seed, conn_id)` — see
//! [`crate::poll::shard_for`] — so the conn→shard map is a declared design
//! factor, reproducible across runs regardless of arrival timing. Each
//! shard worker owns its connections outright: sessions, read buffers, and
//! write queues are single-threaded state touched only by that shard, so
//! there is no lock on the query path (shared-nothing by construction, the
//! property the thread-per-connection mode only approximates statistically).
//!
//! A shard multiplexes its connections with a [`Poll`] readiness loop:
//! kernel sockets via epoll, loopback pipes via the zero-syscall shim.
//! Responses stream through a **bounded per-connection write queue** (at
//! most `queue_depth` encoded frames); when a slow reader fills it, the
//! remaining batches wait *unencoded* in the pending response and the shard
//! moves on to other connections — backpressure stalls one connection,
//! never the shard. The stall is charged to the response's `serialize_ms`
//! (stamped when the last batch drains, exactly the window the blocking
//! server charges), so the timing decomposition is mode-independent.
//!
//! Cross-shard work stealing reuses the `crates/pool` morsel machinery
//! instead of migrating connections: when a shard starts a query while
//! other shards sit idle in their readiness waits, it runs the query with
//! `parallelism = 1 + idle_shards`, borrowing the idle cores through the
//! engine's morsel-parallel operators. PR 3 guarantees parallel OPT is
//! bit-identical to serial for any thread count, so stealing changes tail
//! latency, never answers. The shard thread itself is worker 0 of such a
//! sweep and stays on its pinned core; a helper spawned from it would
//! inherit that one-CPU mask and queue up behind it, so the pool moves
//! each helper to the process's CPUs minus the shard's before it takes
//! work ([`perfeval_pool::affinity`]) — the borrowed core is another core.
//!
//! Transports that cannot signal readiness ([`EventSource::Blocking`])
//! fall back to a dedicated thread running the same blocking
//! `serve_connection` loop as thread-per-conn mode — containment and
//! counters included — so exotic test transports keep working.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use minidb::{DbError, Value};
use perfeval_trace::{SpanGuard, SpanId};

use minidb::CancelToken;

use crate::frame::{Footer, Frame, RejectCode, MAX_FRAME_LEN, PROTOCOL_VERSION, ROWS_PER_BATCH};
use crate::poll::{pin_current_thread, shard_for, Interest, Poll, RawFd};
use crate::server::Shared;
use crate::transport::{EventSource, Transport};

/// Sharded-mode knobs, all declared design factors (set on the builder).
#[derive(Clone, Debug)]
pub(crate) struct ShardConfig {
    pub shards: usize,
    pub queue_depth: usize,
    pub placement_seed: u64,
    pub pin_cores: bool,
    pub work_stealing: bool,
}

/// Live sharded-core telemetry, surfaced through `ServerHandle`.
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    /// Connections placed on each shard (the determinism test's witness).
    pub per_shard_conns: Vec<AtomicU64>,
    /// Queries that ran with parallelism borrowed from idle shards.
    pub steal_borrows: AtomicU64,
    /// Connections served on the blocking fallback path.
    pub compat_conns: AtomicU64,
    /// High-water mark of any connection's write queue, in frames.
    pub write_queue_peak: AtomicU64,
    /// Shards currently parked in their readiness wait.
    pub idle_shards: AtomicUsize,
    /// Set once the acceptor exits; shards drain and stop.
    pub shutdown: AtomicBool,
}

impl ShardTelemetry {
    pub(crate) fn new(shards: usize) -> Self {
        ShardTelemetry {
            per_shard_conns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            steal_borrows: AtomicU64::new(0),
            compat_conns: AtomicU64::new(0),
            write_queue_peak: AtomicU64::new(0),
            idle_shards: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// The acceptor→shard handoff: injected connections plus the wake channel.
struct ShardQueue {
    poll: Poll,
    inject: Mutex<Vec<(u64, Box<dyn Transport>)>>,
}

/// Runs the sharded engine to completion on the calling (supervisor)
/// thread: spawns the shard workers, runs the acceptor inline, and joins
/// everything — including blocking-fallback connection threads — before
/// returning.
pub(crate) fn run_sharded(
    shared: std::sync::Arc<Shared>,
    cfg: ShardConfig,
    tel: std::sync::Arc<ShardTelemetry>,
) {
    let queues: Vec<ShardQueue> = (0..cfg.shards)
        .map(|_| ShardQueue {
            poll: Poll::new(),
            inject: Mutex::new(Vec::new()),
        })
        .collect();
    // Plain references with the scope's data lifetime, so shard workers and
    // compat threads can borrow them.
    let shared: &Shared = &shared;
    let cfg: &ShardConfig = &cfg;
    let tel: &ShardTelemetry = &tel;
    let queues: &[ShardQueue] = &queues;
    std::thread::scope(|scope| {
        for (index, queue) in queues.iter().enumerate() {
            std::thread::Builder::new()
                .name(format!("shard-{index}"))
                .spawn_scoped(scope, move || {
                    shard_main(index, shared, cfg, tel, queue, scope)
                })
                .expect("spawn shard worker");
        }
        // The supervisor thread doubles as the acceptor.
        accept_into_shards(shared, cfg, tel, queues);
        tel.shutdown.store(true, Ordering::Release);
        for q in queues {
            q.poll.wake();
        }
        // `scope` joins the shard workers and any compat threads here.
    });
}

fn accept_into_shards(
    shared: &Shared,
    cfg: &ShardConfig,
    tel: &ShardTelemetry,
    queues: &[ShardQueue],
) {
    loop {
        let transport = match shared.listener.accept() {
            Ok(t) => t,
            Err(_) => return, // shutdown (or listener failure)
        };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        // Same fault discipline as thread-per-conn: fire (delay/panic
        // actions), then the I/O verdict.
        shared.faults.fire("net.accept", conn_id, 1);
        if shared.faults.io_fails("net.accept", conn_id) {
            shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        shared.live_conns.fetch_add(1, Ordering::AcqRel);
        let shard = shard_for(cfg.placement_seed, conn_id, cfg.shards);
        tel.per_shard_conns[shard].fetch_add(1, Ordering::Relaxed);
        queues[shard]
            .inject
            .lock()
            .unwrap()
            .push((conn_id, transport));
        queues[shard].poll.wake();
    }
}

fn shard_main<'scope, 'env>(
    index: usize,
    shared: &'env Shared,
    cfg: &'env ShardConfig,
    tel: &'env ShardTelemetry,
    queue: &'env ShardQueue,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) {
    if cfg.pin_cores {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        pin_current_thread(index % cores);
    }
    if let Some(t) = shared.tracer.as_ref() {
        t.label_thread(&format!("shard-{index}"));
    }
    let mut core = ShardCore {
        shared,
        cfg,
        tel,
        queue,
        conns: HashMap::new(),
        next_token: 0,
        pokes: Vec::new(),
        run_q: VecDeque::new(),
    };
    loop {
        // The idle gauge brackets only the wait: a shard counted here is
        // parked and its core is available for stealing.
        tel.idle_shards.fetch_add(1, Ordering::AcqRel);
        let (events, _woken) = queue.poll.wait(Some(Duration::from_millis(100)));
        tel.idle_shards.fetch_sub(1, Ordering::AcqRel);

        // Adopt connections the acceptor handed over.
        let injected: Vec<_> = std::mem::take(&mut *queue.inject.lock().unwrap());
        for (conn_id, transport) in injected {
            core.adopt(conn_id, transport, scope);
        }

        for (token, ready) in events {
            if ready.readable {
                core.guarded(token, |c, t| c.on_readable(t));
            }
            if ready.writable {
                core.guarded(token, |c, t| c.on_writable(t));
            }
        }
        // Self-pokes: connections whose response just drained re-examine
        // bytes that arrived while their reads were paused.
        while let Some(token) = core.pokes.pop() {
            core.guarded(token, |c, t| c.on_readable(t));
        }
        // Execute the admitted queries. Everything in the run queue got
        // there through the admission gate; a deadline that expired while
        // waiting is shed here without touching the engine.
        core.drain_run_queue();

        if tel.shutdown.load(Ordering::Acquire)
            && core.conns.is_empty()
            && queue.inject.lock().unwrap().is_empty()
        {
            return;
        }
    }
}

/// A response not yet fully handed to the transport: the already-executed
/// query's remaining row batches (unencoded — the *encoded* queue is what
/// is bounded), its footer, and the running serialize timer.
struct PendingResponse<'t> {
    batches: VecDeque<Vec<Vec<Value>>>,
    footer: Footer,
    t0: Instant,
    rows_total: u64,
    done_enqueued: bool,
    span: Option<SpanGuard<'t>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    AwaitHello,
    Ready,
}

/// A query admitted past the shard's budget, waiting its turn in the run
/// queue. Its deadline keeps ticking while it waits — expiry in the queue
/// is shed *without* touching the engine.
struct QueuedQuery {
    token: usize,
    trace_parent: u64,
    /// Effective deadline (client header or server default); 0 = none.
    deadline_ms: u32,
    enqueued: Instant,
    sql: String,
}

struct ShardConn<'t> {
    conn_id: u64,
    transport: Box<dyn Transport>,
    fd: Option<RawFd>,
    state: ConnState,
    session: Option<minidb::Session>,
    inbuf: VecDeque<u8>,
    frames_read: u32,
    frames_written: u32,
    queries_seen: u32,
    write_q: VecDeque<Vec<u8>>,
    front_pos: usize,
    pending: Option<PendingResponse<'t>>,
    /// A query from this connection sits in the shard's run queue.
    queued: bool,
    close_after_flush: bool,
    interest: Interest,
}

impl ShardConn<'_> {
    /// Reads are paused while a query is queued or a response is in flight
    /// (or the connection is draining toward close) — the protocol is
    /// request-response, so new frames can wait in the transport until the
    /// response is out.
    fn reads_paused(&self) -> bool {
        self.pending.is_some() || self.queued || self.close_after_flush
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            read: !self.reads_paused(),
            write: !self.write_q.is_empty(),
        }
    }
}

struct ShardCore<'env> {
    shared: &'env Shared,
    cfg: &'env ShardConfig,
    tel: &'env ShardTelemetry,
    queue: &'env ShardQueue,
    conns: HashMap<usize, ShardConn<'env>>,
    next_token: usize,
    pokes: Vec<usize>,
    /// Admitted-but-unstarted queries; its length is what the admission
    /// budget (`Admission::max_inflight`, per shard) bounds.
    run_q: VecDeque<QueuedQuery>,
}

impl<'env> ShardCore<'env> {
    /// Runs one event handler with thread-per-conn-equivalent containment:
    /// a panic (injected wire fault, server bug outside the inner query
    /// guard) costs the connection, never the shard.
    fn guarded(&mut self, token: usize, f: impl FnOnce(&mut Self, usize)) {
        if catch_unwind(AssertUnwindSafe(|| f(&mut *self, token))).is_err() {
            self.shared
                .counters
                .worker_panics
                .fetch_add(1, Ordering::Relaxed);
            self.drop_conn(token, false);
        }
    }

    fn adopt<'scope>(
        &mut self,
        conn_id: u64,
        mut transport: Box<dyn Transport>,
        scope: &'scope std::thread::Scope<'scope, 'env>,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        let shim = self.queue.poll.shim(token);
        let fd = match transport.event_setup(&shim) {
            Ok(EventSource::Shim) => None,
            Ok(EventSource::Fd(fd)) => {
                match self.queue.poll.register_fd(fd, token, Interest::READ) {
                    Ok(()) => Some(fd),
                    Err(_) => {
                        // No epoll on this platform: blocking fallback.
                        transport.event_teardown();
                        self.serve_compat(conn_id, transport, scope);
                        return;
                    }
                }
            }
            Ok(EventSource::Blocking) | Err(_) => {
                self.serve_compat(conn_id, transport, scope);
                return;
            }
        };
        self.conns.insert(
            token,
            ShardConn {
                conn_id,
                transport,
                fd,
                state: ConnState::AwaitHello,
                session: None,
                inbuf: VecDeque::new(),
                frames_read: 0,
                frames_written: 0,
                queries_seen: 0,
                write_q: VecDeque::new(),
                front_pos: 0,
                pending: None,
                queued: false,
                close_after_flush: false,
                interest: Interest::READ,
            },
        );
    }

    /// Serves a readiness-incapable transport on a dedicated scoped thread
    /// — the thread-per-conn loop, with its containment and counters.
    fn serve_compat<'scope>(
        &self,
        conn_id: u64,
        transport: Box<dyn Transport>,
        scope: &'scope std::thread::Scope<'scope, 'env>,
    ) {
        self.tel.compat_conns.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared;
        std::thread::Builder::new()
            .name(format!("shard-compat-{conn_id}"))
            .spawn_scoped(scope, move || {
                shared.serve_blocking(transport, conn_id);
                shared.live_conns.fetch_sub(1, Ordering::AcqRel);
            })
            .expect("spawn compat connection thread");
    }

    fn drop_conn(&mut self, token: usize, clean: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            if let Some(fd) = conn.fd {
                self.queue.poll.deregister_fd(fd);
            }
            self.shared.live_conns.fetch_sub(1, Ordering::AcqRel);
            if !clean {
                self.shared
                    .counters
                    .disconnects
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Syncs a fd connection's epoll interest with what its state wants.
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.desired_interest();
        if let Some(fd) = conn.fd {
            if want != conn.interest {
                conn.interest = want;
                let _ = self.queue.poll.modify_fd(fd, token, want);
            }
        }
    }

    fn on_readable(&mut self, token: usize) {
        let mut saw_eof = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.reads_paused() {
                return; // stale event; reads resume when the response drains
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.transport.try_read(&mut chunk) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => conn.inbuf.extend(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.drop_conn(token, false);
                        return;
                    }
                }
            }
        }
        self.process_frames(token);
        // EOF with no response in flight: the peer is gone. (EOF is sticky;
        // with a response pending it resurfaces on the post-drain poke.)
        if saw_eof {
            if let Some(conn) = self.conns.get(&token) {
                if conn.pending.is_none() && !conn.close_after_flush {
                    self.drop_conn(token, false);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    fn on_writable(&mut self, token: usize) {
        if !self.flush_writes(token) {
            return;
        }
        self.pump_response(token);
        // A draining close completes once the queue is empty.
        if let Some(conn) = self.conns.get(&token) {
            if conn.close_after_flush && conn.write_q.is_empty() {
                self.drop_conn(token, false);
                return;
            }
        }
        self.update_interest(token);
    }

    /// Parses and dispatches complete frames from the input buffer,
    /// stopping while a response is in flight.
    fn process_frames(&mut self, token: usize) {
        loop {
            let (conn_id, ordinal, body) = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.reads_paused() || conn.inbuf.len() < 4 {
                    break;
                }
                let mut len_buf = [0u8; 4];
                for (slot, b) in len_buf.iter_mut().zip(conn.inbuf.iter()) {
                    *slot = *b;
                }
                let len = u32::from_le_bytes(len_buf);
                if len == 0 || len > MAX_FRAME_LEN {
                    self.drop_conn(token, false);
                    return;
                }
                let total = 4 + len as usize;
                if conn.inbuf.len() < total {
                    break;
                }
                let body: Vec<u8> = conn.inbuf.drain(..total).skip(4).collect();
                conn.frames_read += 1;
                (conn.conn_id, conn.frames_read, body)
            };
            // Fault parity with `FramedIo::recv`: 1-based frame ordinal,
            // fired before the frame is acted on.
            self.shared.faults.fire("net.read", conn_id, ordinal);
            if self.shared.faults.io_fails("net.read", conn_id) {
                self.drop_conn(token, false);
                return;
            }
            let frame = match Frame::decode(&body) {
                Ok(f) => f,
                Err(_) => {
                    self.drop_conn(token, false);
                    return;
                }
            };
            self.dispatch(token, frame);
        }
        self.update_interest(token);
    }

    fn dispatch(&mut self, token: usize, frame: Frame) {
        let state = match self.conns.get(&token) {
            Some(c) => c.state,
            None => return,
        };
        match (state, frame) {
            (ConnState::AwaitHello, Frame::Hello { version }) => {
                if version != PROTOCOL_VERSION {
                    let msg = format!(
                        "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                    );
                    self.refuse(token, DbError::Io(msg));
                    return;
                }
                // Connection-bound admission: a `Hello` past the bound gets
                // a typed rejection instead of a place in line.
                let max_conns = self.shared.admission.max_conns as u64;
                if max_conns > 0 && self.shared.live_conns.load(Ordering::Acquire) > max_conns {
                    self.shared.counters.count_reject(RejectCode::Overloaded);
                    self.send_then_close(
                        token,
                        &Frame::Rejected {
                            code: RejectCode::Overloaded,
                            retry_after_ms: self.shared.admission.retry_after_ms,
                        },
                    );
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Ready;
                    conn.session = Some((self.shared.factory)());
                }
                self.send_now(
                    token,
                    &Frame::HelloOk {
                        version: PROTOCOL_VERSION,
                    },
                );
            }
            (ConnState::AwaitHello, _) => {
                // Thread-per-conn treats a missing handshake as a dead
                // connection — no courtesy error frame.
                self.drop_conn(token, false);
            }
            (
                ConnState::Ready,
                Frame::Query {
                    trace_parent,
                    deadline_ms,
                    sql,
                },
            ) => {
                self.shared.counters.queries.fetch_add(1, Ordering::Relaxed);
                let (conn_id, ordinal) = match self.conns.get_mut(&token) {
                    Some(conn) => {
                        conn.queries_seen += 1;
                        (conn.conn_id, conn.queries_seen)
                    }
                    None => return,
                };
                // Admission at frame-receipt time: the budget is the run
                // queue the shard has already committed to. Rejecting here
                // costs one frame encode — bounded, fast, engine untouched.
                if let Some(code) =
                    self.shared
                        .admit_query(conn_id, ordinal, self.run_q.len() as u64)
                {
                    self.shared.counters.count_reject(code);
                    self.send_reject(token, code);
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.queued = true;
                }
                self.run_q.push_back(QueuedQuery {
                    token,
                    trace_parent,
                    deadline_ms: self.shared.effective_deadline_ms(deadline_ms),
                    enqueued: Instant::now(),
                    sql,
                });
            }
            (ConnState::Ready, Frame::Bye) => {
                self.drop_conn(token, true);
            }
            (ConnState::Ready, _) => {
                self.refuse(
                    token,
                    DbError::Io("protocol violation: expected Query or Bye".to_owned()),
                );
            }
        }
    }

    /// Enqueues one frame and flushes eagerly. Returns false if the
    /// connection died.
    fn send_now(&mut self, token: usize, frame: &Frame) -> bool {
        self.enqueue_frame(token, frame) && self.flush_writes(token)
    }

    /// Sends an error frame and closes once it has flushed — a refused
    /// connection still counts as a disconnect, like thread-per-conn.
    fn refuse(&mut self, token: usize, err: DbError) {
        self.send_then_close(token, &Frame::Error(err));
    }

    /// Sends one frame and closes the connection once it has flushed.
    fn send_then_close(&mut self, token: usize, frame: &Frame) {
        if !self.send_now(token, frame) {
            return;
        }
        let drained = match self.conns.get_mut(&token) {
            Some(conn) => {
                conn.close_after_flush = true;
                conn.write_q.is_empty()
            }
            None => return,
        };
        if drained {
            self.drop_conn(token, false);
        } else {
            self.update_interest(token);
        }
    }

    /// Answers one query with a typed rejection; the connection stays up —
    /// shedding refuses work, not clients.
    fn send_reject(&mut self, token: usize, code: RejectCode) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.queued = false;
        }
        self.send_now(
            token,
            &Frame::Rejected {
                code,
                retry_after_ms: self.shared.admission.retry_after_ms,
            },
        );
        self.update_interest(token);
    }

    /// Executes everything admitted to the run queue this iteration, in
    /// arrival order. Deadlines that expired while queued are shed here —
    /// a typed rejection, zero engine work, the queue slot freed in
    /// bounded time.
    fn drain_run_queue(&mut self) {
        while let Some(q) = self.run_q.pop_front() {
            let token = q.token;
            match self.conns.get_mut(&token) {
                Some(conn) => conn.queued = false,
                None => continue, // connection died while the query waited
            }
            self.guarded(token, move |c, t| c.execute_queued(t, q));
        }
    }

    /// Runs one dequeued query: sheds it if its deadline already passed,
    /// otherwise executes under a cancel token covering the time left.
    fn execute_queued(&mut self, token: usize, q: QueuedQuery) {
        let deadline_remaining_ms = if q.deadline_ms > 0 {
            let waited_ms = q.enqueued.elapsed().as_secs_f64() * 1e3;
            let remaining = f64::from(q.deadline_ms) - waited_ms;
            if remaining <= 0.0 {
                self.shared
                    .counters
                    .count_reject(RejectCode::DeadlineExceeded);
                self.send_reject(token, RejectCode::DeadlineExceeded);
                return;
            }
            Some(remaining)
        } else {
            None
        };
        self.answer_query(token, q.trace_parent, deadline_remaining_ms, &q.sql);
    }

    /// Runs one query on the connection's session and starts streaming the
    /// response. The engine runs *on the shard thread* — shared-nothing —
    /// but with parallelism borrowed from idle shards when stealing is on.
    fn answer_query(
        &mut self,
        token: usize,
        trace_parent: u64,
        deadline_remaining_ms: Option<f64>,
        sql: &str,
    ) {
        let conn_id = match self.conns.get(&token) {
            Some(c) => c.conn_id,
            None => return,
        };
        let mut span = self.shared.tracer.as_ref().map(|t| {
            if trace_parent != 0 {
                t.span_with_parent("net.serve", SpanId(trace_parent))
            } else {
                t.span("net.serve")
            }
        });
        if let Some(g) = span.as_mut() {
            g.attr("conn", conn_id as i64);
        }

        // Work stealing: idle shards are parked in their readiness waits;
        // borrow their cores through the engine's morsel parallelism. The
        // answer is bit-identical at any parallelism (the PR 3 invariant),
        // so stealing is purely a latency lever.
        let borrowed = if self.cfg.work_stealing {
            1 + self
                .tel
                .idle_shards
                .load(Ordering::Acquire)
                .min(self.cfg.shards.saturating_sub(1))
        } else {
            1
        };
        if borrowed > 1 {
            self.tel.steal_borrows.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(g) = span.as_mut() {
            g.attr("shard_parallelism", borrowed as i64);
        }

        let tracer = self.shared.tracer.as_ref();
        let ran = {
            let session = self
                .conns
                .get_mut(&token)
                .and_then(|c| c.session.as_mut())
                .expect("Ready connections have a session");
            catch_unwind(AssertUnwindSafe(|| {
                let mut query = session.query(sql);
                if let Some(t) = tracer {
                    query = query.traced(t);
                }
                if borrowed > 1 {
                    query = query.parallelism(borrowed);
                }
                if let Some(ms) = deadline_remaining_ms {
                    query = query.cancel(CancelToken::with_deadline_ms(ms));
                }
                query.run()
            }))
        };
        let result = match ran {
            Ok(r) => r,
            Err(payload) => {
                // Contained engine panic: error frame to the client, the
                // connection and the shard live on.
                self.shared
                    .counters
                    .worker_panics
                    .fetch_add(1, Ordering::Relaxed);
                let msg = perfeval_fault::panic_message(payload.as_ref());
                self.send_now(
                    token,
                    &Frame::Error(DbError::Io(format!("server panic while executing: {msg}"))),
                );
                self.update_interest(token);
                return;
            }
        };

        match result {
            Err(DbError::Cancelled(_)) if deadline_remaining_ms.is_some() => {
                // The deadline cut the query short mid-flight: partial
                // work is discarded (bit-safely) and the client gets the
                // typed rejection; the session and connection live on.
                self.shared
                    .counters
                    .cancelled_queries
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .counters
                    .count_reject(RejectCode::DeadlineExceeded);
                self.send_reject(token, RejectCode::DeadlineExceeded);
            }
            Err(e) => {
                if matches!(e, DbError::Cancelled(_)) {
                    self.shared
                        .counters
                        .cancelled_queries
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.send_now(token, &Frame::Error(e));
                self.update_interest(token);
            }
            Ok(r) => {
                use perfeval_measure::Phase;
                let rows_total = r.rows.len() as u64;
                let footer = Footer {
                    parse_ms: r.phases.phase(Phase::Parse).unwrap_or(0.0),
                    optimize_ms: r.phases.phase(Phase::Optimize).unwrap_or(0.0),
                    execute_ms: r.phases.phase(Phase::Execute).unwrap_or(0.0),
                    execute_cpu_ms: r.execute_cpu_ms,
                    serialize_ms: 0.0,
                    rows: rows_total,
                };
                // The serialize timer starts here and stops when the last
                // batch drains — encode, queueing, and any slow-reader
                // stall all land in `serialize_ms`, matching the blocking
                // server's charge.
                let t0 = Instant::now();
                let mut batches = VecDeque::new();
                let mut rows = r.rows;
                while !rows.is_empty() {
                    let rest = rows.split_off(rows.len().min(ROWS_PER_BATCH));
                    batches.push_back(std::mem::replace(&mut rows, rest));
                }
                if !self.enqueue_frame(
                    token,
                    &Frame::ResultHeader {
                        columns: r.column_names,
                    },
                ) {
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.pending = Some(PendingResponse {
                        batches,
                        footer,
                        t0,
                        rows_total,
                        done_enqueued: false,
                        span,
                    });
                }
                self.pump_response(token);
                self.update_interest(token);
            }
        }
    }

    /// Moves pending batches into the bounded write queue and flushes; when
    /// everything drains, stamps `serialize_ms`, sends `Done`, and resumes
    /// reads.
    fn pump_response(&mut self, token: usize) {
        loop {
            // Stage at most one batch per iteration, respecting the depth
            // bound; the borrow of the pending response ends before the
            // enqueue call needs `self`.
            let staged = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                let Some(p) = conn.pending.as_mut() else {
                    return;
                };
                if conn.write_q.len() < self.cfg.queue_depth {
                    p.batches.pop_front()
                } else {
                    None
                }
            };
            if let Some(batch) = staged {
                if !self.enqueue_frame(token, &Frame::RowBatch { rows: batch }) {
                    return; // connection died mid-response
                }
                continue;
            }
            if !self.flush_writes(token) {
                return;
            }
            // Re-examine: queue full means wait for writable; batches left
            // means loop; all drained means finish with Done.
            enum Next {
                Wait,
                Refill,
                SendDone(Frame),
                Complete,
            }
            let next = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                let Some(p) = conn.pending.as_mut() else {
                    return;
                };
                if !conn.write_q.is_empty() {
                    Next::Wait
                } else if !p.batches.is_empty() {
                    Next::Refill
                } else if !p.done_enqueued {
                    // The last row byte is with the transport: the
                    // serialize window closes, exactly like the blocking
                    // server stamping before its `Done`.
                    p.footer.serialize_ms = p.t0.elapsed().as_secs_f64() * 1e3;
                    p.done_enqueued = true;
                    let rows_total = p.rows_total as i64;
                    let serialize_ms = p.footer.serialize_ms;
                    if let Some(g) = p.span.as_mut() {
                        g.attr("rows", rows_total)
                            .attr("serialize_ms", serialize_ms);
                    }
                    Next::SendDone(Frame::Done(p.footer))
                } else {
                    Next::Complete
                }
            };
            match next {
                Next::Wait => return, // resume on the next writable event
                Next::Refill => continue,
                Next::SendDone(done) => {
                    if !self.send_now(token, &done) {
                        return;
                    }
                    continue; // loop once more to reach Complete (or Wait)
                }
                Next::Complete => {
                    // Fully delivered: close the serve span, resume reads,
                    // and poke ourselves to parse anything that queued up
                    // while paused.
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.pending = None;
                    }
                    self.pokes.push(token);
                    self.update_interest(token);
                    return;
                }
            }
        }
    }

    /// Appends one encoded frame to the bounded write queue, with
    /// `FramedIo::send` fault parity. Returns false if the connection died.
    fn enqueue_frame(&mut self, token: usize, frame: &Frame) -> bool {
        let (conn_id, ordinal) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            conn.frames_written += 1;
            (conn.conn_id, conn.frames_written)
        };
        self.shared.faults.fire("net.write", conn_id, ordinal);
        if self.shared.faults.io_fails("net.write", conn_id) {
            self.drop_conn(token, false);
            return false;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        conn.write_q.push_back(frame.encode());
        self.tel
            .write_queue_peak
            .fetch_max(conn.write_q.len() as u64, Ordering::Relaxed);
        true
    }

    /// Writes queued bytes until the transport would block or the queue is
    /// empty. Returns false if the connection died.
    fn flush_writes(&mut self, token: usize) -> bool {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            'queue: while let Some(front) = conn.write_q.pop_front() {
                loop {
                    match conn.transport.try_write(&front[conn.front_pos..]) {
                        Ok(0) => {
                            dead = true;
                            break 'queue;
                        }
                        Ok(n) => {
                            conn.front_pos += n;
                            if conn.front_pos >= front.len() {
                                conn.front_pos = 0;
                                break; // next frame
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            conn.write_q.push_front(front);
                            break 'queue;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break 'queue;
                        }
                    }
                }
            }
        }
        if dead {
            self.drop_conn(token, false);
            return false;
        }
        true
    }
}
