//! Transports: the byte pipes frames travel over.
//!
//! Two implementations sit behind the same pair of traits:
//!
//! * **TCP** ([`TcpEndpoint`] / `std::net::TcpStream`) — a real socket,
//!   with real syscalls, kernel buffers, and Nagle disabled. This is the
//!   transport `perfeval-exp e21` measures.
//! * **Loopback** ([`LoopbackEndpoint`]) — a zero-syscall in-process duplex
//!   pipe: two bounded byte rings guarded by mutex + condvar. Deterministic
//!   (no kernel scheduling in the data path), and its bounded capacity is
//!   *honest backpressure*: a writer outrunning its reader blocks, exactly
//!   like a full socket send buffer.
//!
//! The server accepts connections through [`Listener`] and never learns
//! which transport it is on; the protocol and timing decomposition are
//! transport-agnostic by construction.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::poll::{RawFd, ShimHandle};

/// How a transport participates in the sharded server's readiness loop.
pub enum EventSource {
    /// A kernel file descriptor: register with epoll. The transport has
    /// already been switched to nonblocking mode.
    Fd(RawFd),
    /// A user-space source: the transport's peer will poke the
    /// [`ShimHandle`] it was given in [`Transport::event_setup`].
    Shim,
}

fn nonblocking_unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "transport has no readiness support: thread-per-conn serves it, the sharded server refuses it",
    )
}

/// A bidirectional byte stream a connection runs over.
///
/// Thread-per-conn mode needs nothing beyond `Read + Write` — framing,
/// faults, and accounting live in [`crate::frame::FramedIo`]. The sharded
/// server serves only what it can poll: a transport that can signal
/// readiness implements [`Transport::event_setup`] and the
/// `try_read`/`try_write` nonblocking pair, and one that keeps the
/// defaults is refused there before its `Hello`.
pub trait Transport: Read + Write + Send {
    /// One-line description ("tcp 127.0.0.1:5432", "loopback") for
    /// measurement documentation.
    fn describe(&self) -> String;

    /// Switches the transport into event-driven mode, wiring its readiness
    /// notifications into `shim` (user-space sources) or returning the fd
    /// to register with epoll.
    ///
    /// # Errors
    /// `Unsupported` from the default impl (no readiness source); failures
    /// flipping the underlying handle to nonblocking.
    fn event_setup(&mut self, _shim: &ShimHandle) -> io::Result<EventSource> {
        Err(nonblocking_unsupported())
    }

    /// Nonblocking read: `Ok(0)` is EOF, `WouldBlock` means no bytes now.
    /// Only supported after a successful `event_setup`.
    ///
    /// # Errors
    /// `WouldBlock` when idle; `Unsupported` from the default impl.
    fn try_read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(nonblocking_unsupported())
    }

    /// Nonblocking write; `WouldBlock` means the peer's buffer is full.
    /// Only supported after a successful `event_setup`.
    ///
    /// # Errors
    /// `WouldBlock` when full; `Unsupported` from the default impl.
    fn try_write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(nonblocking_unsupported())
    }
}

/// The server side of a transport: blocks in `accept` until a client
/// connects (or the endpoint is shut down).
pub trait Listener: Send + Sync {
    /// Waits for the next inbound connection.
    ///
    /// # Errors
    /// Returns an error after [`Listener::shutdown`], or when the
    /// underlying endpoint fails.
    fn accept(&self) -> io::Result<Box<dyn Transport>>;

    /// Unblocks pending and future `accept` calls; they return errors from
    /// now on. Idempotent.
    fn shutdown(&self);

    /// One-line description for logs and reports.
    fn describe(&self) -> String;
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// A TCP stream transport (Nagle disabled — small result frames must not
/// wait 40 ms for an ACK; latency is part of what E21 measures).
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
}

impl TcpTransport {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_owned());
        Ok(TcpTransport { stream, peer })
    }

    /// Connects to a server at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }
}

impl Read for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for TcpTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Transport for TcpTransport {
    fn describe(&self) -> String {
        format!("tcp {}", self.peer)
    }

    #[cfg(unix)]
    fn event_setup(&mut self, _shim: &ShimHandle) -> io::Result<EventSource> {
        use std::os::fd::AsRawFd;
        self.stream.set_nonblocking(true)?;
        Ok(EventSource::Fd(self.stream.as_raw_fd()))
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }
}

/// A TCP listening endpoint. Bind to port 0 to get an ephemeral port;
/// [`TcpEndpoint::local_addr`] reports what the OS assigned.
pub struct TcpEndpoint {
    listener: TcpListener,
    closed: AtomicBool,
}

impl TcpEndpoint {
    /// Binds a listening socket.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Arc<Self>> {
        Ok(Arc::new(TcpEndpoint {
            listener: TcpListener::bind(addr)?,
            closed: AtomicBool::new(false),
        }))
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }
}

impl Listener for TcpEndpoint {
    fn accept(&self) -> io::Result<Box<dyn Transport>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "endpoint shut down",
            ));
        }
        let (stream, _) = self.listener.accept()?;
        // A shutdown wake-up connection is not a client; re-check the
        // flag after every accept. `shutdown` sends only ONE wake-up, so
        // cascade it: each woken acceptor wakes the next parked one
        // before exiting, and any number of workers drains.
        if self.closed.load(Ordering::Acquire) {
            if let Ok(addr) = self.listener.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "endpoint shut down",
            ));
        }
        Ok(Box::new(TcpTransport::new(stream)?))
    }

    fn shutdown(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // `TcpListener::accept` has no cancellation; wake any blocked
        // acceptor with a throwaway connection to ourselves.
        if let Ok(addr) = self.listener.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn describe(&self) -> String {
        match self.listener.local_addr() {
            Ok(a) => format!("tcp listener {a}"),
            Err(_) => "tcp listener".to_owned(),
        }
    }
}

// ---------------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------------

/// One direction of the in-process duplex pipe: a bounded byte ring.
///
/// Writers block while the ring is full (backpressure), readers block while
/// it is empty. Closing either end wakes both sides: a closed write end
/// gives readers clean EOF (`Ok(0)`), a closed read end gives writers
/// `BrokenPipe` — the same contract a socket has.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
}

struct PipeState {
    buf: VecDeque<u8>,
    write_closed: bool,
    read_closed: bool,
    /// Poked whenever data arrives (or the write end closes): the sharded
    /// server's readiness shim for this pipe's *reader*.
    on_readable: Option<ShimHandle>,
    /// Poked whenever space frees (or the read end closes): the shim for
    /// this pipe's *writer*.
    on_writable: Option<ShimHandle>,
}

impl Pipe {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                write_closed: false,
                read_closed: false,
                on_readable: None,
                on_writable: None,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        })
    }

    /// Moves bytes off the front of a non-empty ring into `out` — two
    /// slice copies, the ring being at most two runs — and wakes the
    /// writer. Returns how many.
    fn take(&self, mut s: MutexGuard<'_, PipeState>, out: &mut [u8]) -> usize {
        let n = out.len().min(s.buf.len());
        let (front, back) = s.buf.as_slices();
        let from_front = n.min(front.len());
        out[..from_front].copy_from_slice(&front[..from_front]);
        out[from_front..n].copy_from_slice(&back[..n - from_front]);
        s.buf.drain(..n);
        self.writable.notify_all();
        let watcher = s.on_writable.clone();
        drop(s);
        if let Some(w) = watcher {
            w.writable();
        }
        n
    }

    /// Appends as much of `data` as the `space` left in the ring takes and
    /// wakes the reader. Returns how many bytes.
    fn put(&self, mut s: MutexGuard<'_, PipeState>, data: &[u8], space: usize) -> usize {
        let n = data.len().min(space);
        s.buf.extend(&data[..n]);
        self.readable.notify_all();
        let watcher = s.on_readable.clone();
        drop(s);
        if let Some(w) = watcher {
            w.readable();
        }
        n
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut s = self.state.lock().unwrap();
        loop {
            if !s.buf.is_empty() {
                return Ok(self.take(s, out));
            }
            if s.write_closed {
                return Ok(0); // clean EOF
            }
            s = self.readable.wait(s).unwrap();
        }
    }

    fn write(&self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut s = self.state.lock().unwrap();
        loop {
            if s.read_closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "loopback peer closed",
                ));
            }
            let space = self.capacity.saturating_sub(s.buf.len());
            if space > 0 {
                return Ok(self.put(s, data, space));
            }
            // Full: this wait IS the backpressure — the writer cannot
            // outrun the reader by more than `capacity` bytes.
            s = self.writable.wait(s).unwrap();
        }
    }

    /// Nonblocking read for the sharded server: `WouldBlock` while empty,
    /// clean EOF once the write end closes.
    fn read_nonblocking(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let s = self.state.lock().unwrap();
        if s.buf.is_empty() {
            return if s.write_closed {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "pipe empty"))
            };
        }
        Ok(self.take(s, out))
    }

    /// Nonblocking write: `WouldBlock` while the ring is full — the
    /// sharded server parks the frame in its bounded write queue instead
    /// of blocking a whole shard on one slow reader.
    fn write_nonblocking(&self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let s = self.state.lock().unwrap();
        if s.read_closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "loopback peer closed",
            ));
        }
        let space = self.capacity.saturating_sub(s.buf.len());
        if space == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "pipe full"));
        }
        Ok(self.put(s, data, space))
    }

    fn close_write(&self) {
        let mut s = self.state.lock().unwrap();
        s.write_closed = true;
        self.readable.notify_all();
        let watcher = s.on_readable.clone();
        drop(s);
        // EOF is a readable event (read returns Ok(0)).
        if let Some(w) = watcher {
            w.readable();
        }
    }

    fn close_read(&self) {
        let mut s = self.state.lock().unwrap();
        s.read_closed = true;
        self.writable.notify_all();
        let watcher = s.on_writable.clone();
        drop(s);
        // BrokenPipe surfaces on the next write attempt.
        if let Some(w) = watcher {
            w.writable();
        }
    }

    /// Installs the reader-side readiness watcher; returns whether the pipe
    /// is *currently* readable so the caller can prime its event state.
    fn watch_readable(&self, shim: ShimHandle) -> bool {
        let mut s = self.state.lock().unwrap();
        let ready = !s.buf.is_empty() || s.write_closed;
        s.on_readable = Some(shim);
        ready
    }

    /// Installs the writer-side readiness watcher; returns whether the pipe
    /// currently has space (or would fail fast).
    fn watch_writable(&self, shim: ShimHandle) -> bool {
        let mut s = self.state.lock().unwrap();
        let ready = s.buf.len() < self.capacity || s.read_closed;
        s.on_writable = Some(shim);
        ready
    }

    /// Bytes currently buffered (for tests asserting boundedness).
    fn buffered(&self) -> usize {
        self.state.lock().unwrap().buf.len()
    }
}

/// One end of a loopback connection: reads from one pipe, writes to the
/// other. Dropping it closes both directions it owns, so the peer observes
/// EOF / broken pipe like a closed socket.
pub struct LoopbackConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    label: &'static str,
}

impl LoopbackConn {
    /// Creates a connected pair `(client, server)` with `capacity` bytes of
    /// buffer per direction.
    pub fn pair(capacity: usize) -> (LoopbackConn, LoopbackConn) {
        assert!(capacity > 0, "pipe capacity must be positive");
        let c2s = Pipe::new(capacity);
        let s2c = Pipe::new(capacity);
        (
            LoopbackConn {
                rx: Arc::clone(&s2c),
                tx: Arc::clone(&c2s),
                label: "loopback-client",
            },
            LoopbackConn {
                rx: c2s,
                tx: s2c,
                label: "loopback-server",
            },
        )
    }

    /// Bytes currently buffered in this end's *outgoing* direction — never
    /// exceeds the pair's capacity, which is the backpressure invariant
    /// tests assert.
    pub fn outgoing_buffered(&self) -> usize {
        self.tx.buffered()
    }
}

impl Read for LoopbackConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }
}

impl Write for LoopbackConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for LoopbackConn {
    fn describe(&self) -> String {
        self.label.to_owned()
    }

    fn event_setup(&mut self, shim: &ShimHandle) -> io::Result<EventSource> {
        // Data arriving on rx (peer writes) makes us readable; space
        // freeing in tx (peer reads) makes us writable. Prime whatever is
        // already true — the watchers only fire on *transitions* after
        // this point.
        if self.rx.watch_readable(shim.clone()) {
            shim.readable();
        }
        if self.tx.watch_writable(shim.clone()) {
            shim.writable();
        }
        Ok(EventSource::Shim)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read_nonblocking(buf)
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write_nonblocking(buf)
    }
}

impl Drop for LoopbackConn {
    fn drop(&mut self) {
        self.tx.close_write();
        self.rx.close_read();
    }
}

/// Default per-direction loopback buffer: small enough that a large result
/// set genuinely exercises backpressure, large enough not to syscall…
/// well, there are no syscalls — large enough not to context-switch per
/// frame.
pub const DEFAULT_LOOPBACK_CAPACITY: usize = 64 * 1024;

struct LoopbackShared {
    queue: Mutex<VecDeque<LoopbackConn>>,
    pending: Condvar,
    closed: AtomicBool,
    capacity: usize,
}

/// The in-process listening endpoint. [`LoopbackEndpoint::connector`]
/// hands out cloneable client-side dialers.
pub struct LoopbackEndpoint {
    shared: Arc<LoopbackShared>,
}

/// The client side of a [`LoopbackEndpoint`]: `connect()` yields a new
/// connection whose server half is queued for `accept`.
#[derive(Clone)]
pub struct LoopbackConnector {
    shared: Arc<LoopbackShared>,
}

impl LoopbackEndpoint {
    /// A loopback endpoint with the default per-direction buffer capacity.
    pub fn new() -> Arc<Self> {
        Self::with_capacity(DEFAULT_LOOPBACK_CAPACITY)
    }

    /// A loopback endpoint with an explicit per-direction buffer capacity
    /// (small capacities make backpressure observable in tests).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(LoopbackEndpoint {
            shared: Arc::new(LoopbackShared {
                queue: Mutex::new(VecDeque::new()),
                pending: Condvar::new(),
                closed: AtomicBool::new(false),
                capacity,
            }),
        })
    }

    /// A dialer for this endpoint (cloneable, usable from any thread).
    pub fn connector(&self) -> LoopbackConnector {
        LoopbackConnector {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl LoopbackConnector {
    /// Opens a new connection to the endpoint.
    ///
    /// # Errors
    /// Fails with `NotConnected` if the endpoint has shut down.
    pub fn connect(&self) -> io::Result<LoopbackConn> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "endpoint shut down",
            ));
        }
        let (client, server) = LoopbackConn::pair(self.shared.capacity);
        self.shared.queue.lock().unwrap().push_back(server);
        self.shared.pending.notify_one();
        Ok(client)
    }
}

impl Listener for LoopbackEndpoint {
    fn accept(&self) -> io::Result<Box<dyn Transport>> {
        let mut q = self.shared.queue.lock().unwrap();
        loop {
            if let Some(conn) = q.pop_front() {
                return Ok(Box::new(conn));
            }
            if self.shared.closed.load(Ordering::Acquire) {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "endpoint shut down",
                ));
            }
            q = self.shared.pending.wait(q).unwrap();
        }
    }

    fn shutdown(&self) {
        // Under the queue lock, or an `accept` between its `closed` check and
        // its wait misses the wake-up. Poison-tolerant: `Drop` calls this.
        let _queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.shared.closed.store(true, Ordering::Release);
        self.shared.pending.notify_all();
    }

    fn describe(&self) -> String {
        format!("loopback listener ({} B/direction)", self.shared.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrips_bytes() {
        let (mut a, mut b) = LoopbackConn::pair(16);
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        b.write_all(b"ok").unwrap();
        let mut buf2 = [0u8; 2];
        a.read_exact(&mut buf2).unwrap();
        assert_eq!(&buf2, b"ok");
    }

    #[test]
    fn loopback_bounded_write_blocks_until_reader_drains() {
        let (mut a, mut b) = LoopbackConn::pair(8);
        let writer = std::thread::spawn(move || {
            // 32 bytes through an 8-byte pipe: must block and resume.
            a.write_all(&[7u8; 32]).unwrap();
            a.outgoing_buffered() // <= 8 by construction
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut out = vec![0u8; 32];
        b.read_exact(&mut out).unwrap();
        assert_eq!(out, vec![7u8; 32]);
        let buffered = writer.join().unwrap();
        assert!(buffered <= 8, "outgoing buffer stayed bounded: {buffered}");
    }

    #[test]
    fn loopback_peer_drop_is_eof_for_reader_and_broken_pipe_for_writer() {
        let (a, mut b) = LoopbackConn::pair(16);
        drop(a);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 0, "clean EOF");
        let err = b.write_all(b"late").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn loopback_endpoint_accepts_queued_connections() {
        let ep = LoopbackEndpoint::with_capacity(64);
        let dial = ep.connector();
        let mut client = dial.connect().unwrap();
        let mut server = ep.accept().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn loopback_shutdown_unblocks_accept_and_refuses_dials() {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let ep2 = Arc::clone(&ep);
        let acceptor = std::thread::spawn(move || ep2.accept().map(|_| ()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        ep.shutdown();
        assert!(
            acceptor.join().unwrap().is_err(),
            "accept unblocked with error"
        );
        assert!(dial.connect().is_err(), "dialing a closed endpoint fails");
    }

    #[test]
    fn tcp_shutdown_unblocks_every_parked_acceptor() {
        // Regression: shutdown's single self-connect wake must cascade so
        // N parked accept workers all exit, not just one.
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let acceptors: Vec<_> = (0..4)
            .map(|_| {
                let ep = Arc::clone(&ep);
                std::thread::spawn(move || ep.accept().map(|_| ()))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        ep.shutdown();
        for a in acceptors {
            assert!(a.join().unwrap().is_err(), "every acceptor unblocked");
        }
    }

    #[test]
    fn tcp_endpoint_accepts_and_shuts_down() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr().unwrap();
        let ep2 = Arc::clone(&ep);
        let acceptor = std::thread::spawn(move || {
            let mut conn = ep2.accept().unwrap();
            let mut buf = [0u8; 3];
            conn.read_exact(&mut buf).unwrap();
            buf
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client.write_all(b"abc").unwrap();
        assert_eq!(&acceptor.join().unwrap(), b"abc");
        assert!(client.describe().starts_with("tcp "));

        // Shutdown unblocks a parked acceptor.
        let ep3 = Arc::clone(&ep);
        let parked = std::thread::spawn(move || ep3.accept().map(|_| ()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        ep.shutdown();
        assert!(parked.join().unwrap().is_err());
    }
}
