//! The sharded server core: an event-driven, shared-nothing scheduler.
//!
//! One conversation, two schedulers: what a connection *says* — handshake,
//! admission, statement execution, response framing — is
//! [`crate::conversation`], shared line for line with the thread-per-conn
//! core; framing and the `net.*` fault gates are [`FramedIo`]'s. This file
//! is the scheduling: placement, readiness I/O and the run queue. Of the
//! four things a scheduler supplies it gives `admitted_now` = the shard's
//! run-queue length, `parallelism` = `1 + idle shards`, the deadline left
//! after the wait in the run queue, and frames to the transport through a
//! bounded queue.
//!
//! One acceptor (the supervisor thread) places each connection on a shard
//! by a **pure function** of its ordinal — [`crate::poll::shard_for`] at
//! seed 0 — so the conn→shard map is reproducible across runs regardless
//! of arrival timing. Each shard worker owns its connections outright:
//! conversations (and their sessions), wires, and write queues are
//! single-threaded state touched only by that shard, so there is no lock
//! on the query path (shared-nothing by construction, the property the
//! thread-per-connection mode only approximates statistically).
//!
//! A shard multiplexes its connections with a [`Poll`] readiness loop:
//! kernel sockets via epoll, loopback pipes via the zero-syscall shim.
//! Responses stream through a **bounded per-connection write queue** (at
//! most `queue_depth` encoded frames); when a slow reader fills it, the
//! remaining rows wait *unencoded* in the pending response and the shard
//! moves on to other connections — backpressure stalls one connection,
//! never the shard. The stall is charged to the response's `serialize_ms`
//! (`Done` is asked for when the last batch has drained, exactly the window
//! the blocking server charges), so the timing decomposition is
//! mode-independent.
//!
//! Cross-shard work stealing reuses the `crates/pool` morsel machinery
//! instead of migrating connections: when a shard starts a query while
//! other shards sit idle in their readiness waits, it runs the query with
//! `parallelism = 1 + idle_shards`, borrowing the idle cores through the
//! engine's morsel-parallel operators. PR 3 guarantees parallel OPT is
//! bit-identical to serial for any thread count, so stealing changes tail
//! latency, never answers. The shard thread itself is worker 0 of such a
//! sweep and stays on its pinned core; its helper is a thread the pool
//! keeps parked on the process's CPUs minus the shard's
//! ([`perfeval_pool::affinity`]), pinned there once, when the shard's
//! first borrow spawned it, and woken per sweep — so the borrowed core is
//! another core from a sweep's first unit on. (A helper forked per sweep
//! inherited the shard's one-CPU mask and had to wait out the shard, 1–2 ms,
//! before it could move itself: for any statement shorter than that the
//! borrow was counted and did nothing.) `steal_borrows` counts the intent;
//! the sweeping operator's `units_by_worker` span attribute says what the
//! helper ran.
//!
//! The core serves what it can poll: a connection whose transport offers
//! no readiness source (its [`Transport::event_setup`] fails, or epoll
//! refuses its fd — always so off Linux) is refused before its `Hello`,
//! counted as a disconnect. Thread-per-conn serves any `Read + Write`.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conversation::{spent, Conversation, Response, Statement, Step};
use crate::frame::{Frame, FramedIo};
use crate::poll::{pin_current_thread, shard_for, Interest, Poll, RawFd};
use crate::server::Shared;
use crate::transport::{EventSource, Transport};

/// Sharded-mode knobs, all declared design factors (set on the builder).
#[derive(Clone, Debug)]
pub(crate) struct ShardConfig {
    pub shards: usize,
    pub queue_depth: usize,
    pub pin_cores: bool,
}

/// Live sharded-core telemetry, surfaced through `ServerHandle`.
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    /// Connections placed on each shard (the determinism test's witness).
    pub per_shard_conns: Vec<AtomicU64>,
    /// Queries that ran with parallelism borrowed from idle shards.
    pub steal_borrows: AtomicU64,
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
/// them before returning.
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
    // Plain references with the scope's data lifetime, so shard workers can
    // borrow them.
    let shared: &Shared = &shared;
    let cfg: &ShardConfig = &cfg;
    let tel: &ShardTelemetry = &tel;
    let queues: &[ShardQueue] = &queues;
    std::thread::scope(|scope| {
        for (index, queue) in queues.iter().enumerate() {
            std::thread::Builder::new()
                .name(format!("shard-{index}"))
                .spawn_scoped(scope, move || shard_main(index, shared, cfg, tel, queue))
                .expect("spawn shard worker");
        }
        // The supervisor thread doubles as the acceptor.
        accept_into_shards(shared, cfg, tel, queues);
        tel.shutdown.store(true, Ordering::Release);
        for q in queues {
            q.poll.wake();
        }
        // `scope` joins the shard workers here.
    });
}

fn accept_into_shards(
    shared: &Shared,
    cfg: &ShardConfig,
    tel: &ShardTelemetry,
    queues: &[ShardQueue],
) {
    while let Some((conn_id, transport)) = shared.accept_conn() {
        let shard = shard_for(0, conn_id, cfg.shards);
        tel.per_shard_conns[shard].fetch_add(1, Ordering::Relaxed);
        queues[shard]
            .inject
            .lock()
            .unwrap()
            .push((conn_id, transport));
        queues[shard].poll.wake();
    }
}

fn shard_main(
    index: usize,
    shared: &Shared,
    cfg: &ShardConfig,
    tel: &ShardTelemetry,
    queue: &ShardQueue,
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
            core.adopt(conn_id, transport);
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

/// A statement admitted past the shard's budget, waiting its turn in the
/// run queue. Its deadline keeps ticking while it waits.
struct Queued {
    token: usize,
    stmt: Statement,
    enqueued: Instant,
}

struct ShardConn<'t> {
    io: FramedIo,
    fd: Option<RawFd>,
    conv: Conversation,
    write_q: VecDeque<Vec<u8>>,
    front_pos: usize,
    /// A response not yet fully handed to the transport. What it still
    /// holds is unencoded — the *encoded* queue is what is bounded.
    pending: Option<Response<'t>>,
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
    run_q: VecDeque<Queued>,
}

impl<'env> ShardCore<'env> {
    /// Runs one event handler with thread-per-conn-equivalent containment:
    /// a panic (injected wire or admission fault, server bug outside the
    /// conversation's own guard) costs the connection, never the shard.
    fn guarded(&mut self, token: usize, f: impl FnOnce(&mut Self, usize)) {
        if catch_unwind(AssertUnwindSafe(|| f(&mut *self, token))).is_err() {
            self.shared
                .counters
                .worker_panics
                .fetch_add(1, Ordering::Relaxed);
            self.drop_conn(token, false);
        }
    }

    /// Registers the connection's readiness source with the shard's poll,
    /// or refuses the connection: one the poll cannot watch is dropped
    /// before its `Hello` and counted as a disconnect.
    fn adopt(&mut self, conn_id: u64, mut transport: Box<dyn Transport>) {
        let token = self.next_token;
        self.next_token += 1;
        let poll = &self.queue.poll;
        let fd = match transport.event_setup(&poll.shim(token)) {
            Ok(EventSource::Shim) => None,
            Ok(EventSource::Fd(fd)) if poll.register_fd(fd, token, Interest::READ).is_ok() => {
                Some(fd)
            }
            _ => return self.conn_ended(false),
        };
        self.conns.insert(
            token,
            ShardConn {
                io: FramedIo::new(transport, Arc::clone(&self.shared.faults), conn_id),
                fd,
                conv: Conversation::new(conn_id),
                write_q: VecDeque::new(),
                front_pos: 0,
                pending: None,
                queued: false,
                close_after_flush: false,
                interest: Interest::READ,
            },
        );
    }

    fn drop_conn(&mut self, token: usize, clean: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            if let Some(fd) = conn.fd {
                self.queue.poll.deregister_fd(fd);
            }
            self.conn_ended(clean);
        }
    }

    /// Gives back the live slot the accept took; a dirty end is a
    /// disconnect.
    fn conn_ended(&self, clean: bool) {
        self.shared.live_conns.fetch_sub(1, Ordering::AcqRel);
        if !clean {
            self.shared
                .counters
                .disconnects
                .fetch_add(1, Ordering::Relaxed);
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

    /// Buffers what arrived and dispatches the complete frames, stopping
    /// while a response is in flight. A frame the wire refuses costs the
    /// connection.
    fn on_readable(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.reads_paused() {
            return; // stale event; reads resume when the response drains
        }
        let Ok(saw_eof) = conn.io.fill() else {
            self.drop_conn(token, false);
            return;
        };
        while let Some(conn) = self.conns.get_mut(&token).filter(|c| !c.reads_paused()) {
            match conn.io.next_buffered() {
                Ok(Some(frame)) => self.dispatch(token, frame),
                Ok(None) => break,
                Err(_) => {
                    self.drop_conn(token, false);
                    return;
                }
            }
        }
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
        if self.conns.get(&token).is_some_and(|c| c.close_after_flush) {
            // A draining close completes once the queue is empty.
            self.close_after_flush(token);
        } else if self.flush_writes(token) {
            self.pump_response(token);
            self.update_interest(token);
        }
    }

    /// Hands one frame to the connection's conversation. Admission happens
    /// here, at frame-receipt time, against the run queue the shard has
    /// already committed to: rejecting costs one frame encode — bounded,
    /// fast, engine untouched.
    fn dispatch(&mut self, token: usize, frame: Frame) {
        let shared = self.shared;
        let admitted_now = self.run_q.len() as u64;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.conv.on_frame(shared, frame, admitted_now) {
            Step::Send(reply) => {
                self.send_now(token, &reply);
            }
            Step::SendThenClose(reply) => {
                if self.send_now(token, &reply) {
                    self.close_after_flush(token);
                }
            }
            Step::Close { clean } => self.drop_conn(token, clean),
            Step::Run(stmt) => {
                conn.queued = true;
                self.run_q.push_back(Queued {
                    token,
                    stmt,
                    enqueued: Instant::now(),
                });
            }
        }
    }

    /// Enqueues one frame and flushes eagerly. Returns false if the
    /// connection died.
    fn send_now(&mut self, token: usize, frame: &Frame) -> bool {
        self.enqueue_frame(token, frame) && self.flush_writes(token)
    }

    /// Closes the connection once everything already queued has flushed —
    /// at once if nothing is. It counts as a disconnect, like a refused
    /// connection under thread-per-conn.
    fn close_after_flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.close_after_flush = true;
        conn.pending = None;
        if !self.flush_writes(token) {
            return;
        }
        if self.conns.get(&token).is_some_and(|c| c.write_q.is_empty()) {
            self.drop_conn(token, false);
        } else {
            self.update_interest(token);
        }
    }

    /// Executes everything admitted to the run queue this iteration, in
    /// arrival order.
    fn drain_run_queue(&mut self) {
        while let Some(q) = self.run_q.pop_front() {
            self.guarded(q.token, move |c, t| c.execute_queued(t, q));
        }
    }

    /// Runs one dequeued statement on the shard thread — shared-nothing —
    /// under the deadline queueing left it, and starts streaming the
    /// response.
    fn execute_queued(&mut self, token: usize, q: Queued) {
        let (shared, tel) = (self.shared, self.tel);
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died while the query waited
        };
        conn.queued = false;
        let deadline_left_ms = q.stmt.deadline_left_ms(q.enqueued.elapsed());
        // Work stealing: idle shards are parked in their readiness waits;
        // borrow their cores through the engine's morsel parallelism. The
        // answer is bit-identical at any parallelism (the PR 3 invariant),
        // so stealing is purely a latency lever. A statement whose deadline
        // ran out in the queue is shed before the engine and borrows nobody.
        let idle = if spent(deadline_left_ms) {
            0
        } else {
            tel.idle_shards.load(Ordering::Acquire)
        };
        let parallelism = 1 + idle.min(self.cfg.shards.saturating_sub(1));
        if parallelism > 1 {
            tel.steal_borrows.fetch_add(1, Ordering::Relaxed);
        }
        let response = conn
            .conv
            .run(shared, q.stmt, Some(parallelism), deadline_left_ms);
        conn.pending = Some(response);
        self.pump_response(token);
        self.update_interest(token);
    }

    /// Moves the pending response into the bounded write queue and flushes:
    /// the next frame is asked for only while the queue has room, `Done` —
    /// and with it the end of the serialize window — only once the queue is
    /// empty, so a slow reader's stall lands in `serialize_ms` exactly as a
    /// blocking write's would. When `Done` has drained too, reads resume.
    fn pump_response(&mut self, token: usize) {
        let depth = self.cfg.queue_depth;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(p) = conn.pending.as_mut() else {
                return;
            };
            let queued = conn.write_q.len();
            let staged = match queued {
                0 => p.next_frame().or_else(|| p.done()),
                n if n < depth => p.next_frame(),
                _ => None,
            };
            if let Some(frame) = staged {
                if !self.enqueue_frame(token, &frame) {
                    return; // connection died mid-response
                }
            } else if queued == 0 {
                // Fully delivered: close the serve span, resume reads, and
                // poke ourselves to parse anything that queued up while
                // paused.
                conn.pending = None;
                self.pokes.push(token);
                self.update_interest(token);
                return;
            } else if !self.flush_writes(token)
                || self
                    .conns
                    .get(&token)
                    .is_some_and(|c| !c.write_q.is_empty())
            {
                return; // dead, or resume on the next writable event
            }
        }
    }

    /// Stages one frame on the wire and appends it to the bounded write
    /// queue. Returns false if the connection died.
    fn enqueue_frame(&mut self, token: usize, frame: &Frame) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let Ok(bytes) = conn.io.stage(frame) else {
            // The failure is this frame's alone: what is queued ahead of it
            // counts as written, as it would be under blocking writes.
            self.close_after_flush(token);
            return false;
        };
        conn.write_q.push_back(bytes);
        let queued = conn.write_q.len() as u64;
        self.tel
            .write_queue_peak
            .fetch_max(queued, Ordering::Relaxed);
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
                    match conn.io.try_write(&front[conn.front_pos..]) {
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
