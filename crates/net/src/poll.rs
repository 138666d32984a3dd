//! A small readiness abstraction: epoll for kernel sockets, a user-space
//! shim for in-process transports — behind one `wait()`.
//!
//! The sharded server multiplexes many connections onto one thread per
//! shard, so it needs to know *which* connection is readable or writable
//! without blocking on any single one. Two readiness sources feed the same
//! [`Poll`]:
//!
//! * **File descriptors** (TCP): a level-triggered `epoll` instance,
//!   created lazily on the first fd registration. Registration, interest
//!   changes, and the wait all go through raw `epoll_*` syscalls declared
//!   here — the workspace's no-external-crates policy means no `libc`/`mio`,
//!   and the C symbols resolve from the libc `std` already links.
//! * **Shims** (loopback): a [`ShimHandle`] the transport's peer pokes when
//!   bytes arrive or buffer space frees. Posts land in a user-space ready
//!   map guarded by the poll mutex. While no fd source is registered,
//!   `wait()` blocks on a condvar — a pure-loopback shard does **zero
//!   syscalls** in its readiness path, preserving the loopback transport's
//!   design contract.
//!
//! When both kinds are live (never the case for a single server today, but
//! allowed), shim posts write an `eventfd` to kick `epoll_wait`, so no wake
//! is ever lost across the mode boundary.
//!
//! `wait()` may return spuriously empty; callers are level-structured (they
//! re-examine their own state every iteration), so a spurious wake costs a
//! loop, never correctness.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Raw file descriptor alias (kept local so non-Linux builds compile
/// without `std::os::unix`).
pub type RawFd = i32;

/// What a caller wants to hear about an fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the source has bytes to read (or EOF/error).
    pub read: bool,
    /// Report when the source can accept bytes.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// Readiness reported for one token. `readable` also covers EOF, hangup,
/// and error conditions — the read path discovers which by reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ready {
    /// Source has data, EOF, or an error to report.
    pub readable: bool,
    /// Source can accept more bytes.
    pub writable: bool,
}

impl Ready {
    fn merge(&mut self, other: Ready) {
        self.readable |= other.readable;
        self.writable |= other.writable;
    }
    fn any(&self) -> bool {
        self.readable || self.writable
    }
}

struct UserState {
    ready: BTreeMap<usize, Ready>,
    woken: bool,
}

struct PollShared {
    state: Mutex<UserState>,
    cv: Condvar,
    epoll: OnceLock<Epoll>,
    epoll_active: AtomicBool,
}

impl PollShared {
    /// Posts user-space readiness for `token` and wakes the waiter.
    fn post(&self, token: usize, ready: Ready) {
        {
            let mut st = self.state.lock().unwrap();
            st.ready.entry(token).or_default().merge(ready);
        }
        self.kick();
    }

    fn kick(&self) {
        if self.epoll_active.load(Ordering::Acquire) {
            if let Some(ep) = self.epoll.get() {
                ep.wake();
            }
        }
        self.cv.notify_all();
    }
}

/// A readiness poster for one user-space source. The transport's peer side
/// calls [`ShimHandle::readable`] when it produced bytes (or closed its
/// write end) and [`ShimHandle::writable`] when it freed buffer space (or
/// closed its read end). Posts are cheap (one mutex, one notify) and
/// syscall-free while the owning [`Poll`] has no fd sources.
#[derive(Clone)]
pub struct ShimHandle {
    shared: Arc<PollShared>,
    token: usize,
}

impl ShimHandle {
    /// Marks the source readable.
    pub fn readable(&self) {
        self.shared.post(
            self.token,
            Ready {
                readable: true,
                writable: false,
            },
        );
    }

    /// Marks the source writable.
    pub fn writable(&self) {
        self.shared.post(
            self.token,
            Ready {
                readable: false,
                writable: true,
            },
        );
    }
}

/// One shard's readiness multiplexer. See the module docs for the two
/// source kinds.
pub struct Poll {
    shared: Arc<PollShared>,
}

impl Default for Poll {
    fn default() -> Self {
        Self::new()
    }
}

impl Poll {
    /// An empty poll with no sources.
    pub fn new() -> Poll {
        Poll {
            shared: Arc::new(PollShared {
                state: Mutex::new(UserState {
                    ready: BTreeMap::new(),
                    woken: false,
                }),
                cv: Condvar::new(),
                epoll: OnceLock::new(),
                epoll_active: AtomicBool::new(false),
            }),
        }
    }

    /// A poster for the user-space source identified by `token`.
    pub fn shim(&self, token: usize) -> ShimHandle {
        ShimHandle {
            shared: Arc::clone(&self.shared),
            token,
        }
    }

    /// Wakes a blocked [`Poll::wait`] without posting any readiness (used
    /// for connection injection and shutdown).
    pub fn wake(&self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.woken = true;
        }
        self.shared.kick();
    }

    fn epoll(&self) -> io::Result<&Epoll> {
        if let Some(ep) = self.shared.epoll.get() {
            return Ok(ep);
        }
        let created = Epoll::new()?;
        // Two racing creators: the loser's instance is dropped (fds
        // closed); only the stored one is ever used.
        let _ = self.shared.epoll.set(created);
        self.shared.epoll_active.store(true, Ordering::Release);
        Ok(self.shared.epoll.get().expect("just set"))
    }

    /// Registers an fd source. The fd must already be in nonblocking mode.
    ///
    /// # Errors
    /// `Unsupported` on non-Linux targets; otherwise `epoll_ctl` failures.
    pub fn register_fd(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.epoll()?.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of a registered fd.
    ///
    /// # Errors
    /// `epoll_ctl` failures (e.g. the fd was never registered).
    pub fn modify_fd(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.epoll()?.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes an fd source. Harmless if the fd was closed already.
    pub fn deregister_fd(&self, fd: RawFd) {
        if let Some(ep) = self.shared.epoll.get() {
            let _ = ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::READ);
        }
    }

    /// Blocks until at least one source is ready, [`Poll::wake`] is called,
    /// or `timeout` elapses. Returns the ready tokens (may be empty — a
    /// spurious or timed-out wake) and whether a wake was consumed.
    pub fn wait(&self, timeout: Option<Duration>) -> (Vec<(usize, Ready)>, bool) {
        let mut events: Vec<(usize, Ready)> = Vec::new();
        // Drain user-space readiness first.
        let mut woken = {
            let mut st = self.shared.state.lock().unwrap();
            if !self.shared.epoll_active.load(Ordering::Acquire) {
                // Pure user-space mode: condvar wait, zero syscalls.
                if st.ready.is_empty() && !st.woken {
                    st = match timeout {
                        Some(t) => self.shared.cv.wait_timeout(st, t).unwrap().0,
                        None => self.shared.cv.wait(st).unwrap(),
                    };
                }
                let woken = std::mem::take(&mut st.woken);
                events.extend(std::mem::take(&mut st.ready));
                return (events, woken);
            }
            let woken = std::mem::take(&mut st.woken);
            events.extend(std::mem::take(&mut st.ready));
            woken
        };
        let ep = self.shared.epoll.get().expect("epoll_active implies epoll");
        // With pending user events the fd poll is a non-blocking sweep;
        // otherwise it blocks for the caller's timeout.
        let block = if events.is_empty() && !woken {
            timeout
        } else {
            Some(Duration::ZERO)
        };
        ep.wait(block, &mut events);
        // A wakefd kick may have been posted for user-space state that
        // arrived after the first drain.
        {
            let mut st = self.shared.state.lock().unwrap();
            woken |= std::mem::take(&mut st.woken);
            let late: Vec<(usize, Ready)> = std::mem::take(&mut st.ready).into_iter().collect();
            for (token, ready) in late {
                match events.iter_mut().find(|(t, _)| *t == token) {
                    Some((_, r)) => r.merge(ready),
                    None => events.push((token, ready)),
                }
            }
        }
        (events, woken)
    }
}

// ---------------------------------------------------------------------------
// Linux epoll backend (raw syscalls; std links libc, so the C symbols are
// always available — no external crate needed).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    // Constants referenced by shared code paths; the Epoll type below never
    // constructs on non-Linux targets.
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
}

#[cfg(target_os = "linux")]
struct Epoll {
    epfd: RawFd,
    wakefd: RawFd,
}

#[cfg(target_os = "linux")]
impl Epoll {
    /// The wake eventfd's token. Never collides with connection tokens,
    /// which are small sequential integers.
    const WAKE_TOKEN: u64 = u64::MAX;

    fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscalls creating new fds; no memory is shared.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let wakefd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if wakefd < 0 {
            let err = io::Error::last_os_error();
            unsafe { sys::close(epfd) };
            return Err(err);
        }
        let ep = Epoll { epfd, wakefd };
        ep.ctl(
            sys::EPOLL_CTL_ADD,
            wakefd,
            Self::WAKE_TOKEN as usize,
            Interest::READ,
        )?;
        Ok(ep)
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interest.read {
            events |= sys::EPOLLIN;
        }
        if interest.write {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token as u64,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a live stack value to an eventfd.
        unsafe { sys::write(self.wakefd, &one as *const u64 as *const u8, 8) };
    }

    fn wait(&self, timeout: Option<Duration>, out: &mut Vec<(usize, Ready)>) {
        const MAX_EVENTS: usize = 64;
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        // SAFETY: `buf` is a valid writable array of MAX_EVENTS entries.
        let n =
            unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
        if n <= 0 {
            return; // timeout, EINTR, or error: callers re-loop
        }
        for ev in buf.iter().take(n as usize) {
            let (bits, data) = (ev.events, ev.data);
            if data == Self::WAKE_TOKEN {
                let mut drain = [0u8; 8];
                // SAFETY: reading the nonblocking eventfd counter.
                unsafe { sys::read(self.wakefd, drain.as_mut_ptr(), 8) };
                continue;
            }
            let ready = Ready {
                readable: bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                    != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
            };
            if ready.any() {
                out.push((data as usize, ready));
            }
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing fds this struct owns exclusively.
        unsafe {
            sys::close(self.wakefd);
            sys::close(self.epfd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
struct Epoll;

#[cfg(not(target_os = "linux"))]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "fd readiness requires epoll (Linux); the sharded server refuses \
             fd connections on this platform",
        ))
    }
    fn ctl(&self, _op: i32, _fd: RawFd, _token: usize, _interest: Interest) -> io::Result<()> {
        unreachable!("Epoll never constructs off Linux")
    }
    fn wake(&self) {}
    fn wait(&self, _timeout: Option<Duration>, _out: &mut Vec<(usize, Ready)>) {}
}

/// Pins the calling thread to `core` (best effort — containers and
/// cpuset-restricted runners may refuse; the server runs unpinned then).
/// Returns whether the pin took.
pub fn pin_current_thread(core: usize) -> bool {
    perfeval_pool::affinity::CpuSet::single(core).pin_current_thread()
}

/// The shard a connection ordinal maps to: a pure function of
/// `(seed, conn, shards)`, so the placement is a declared design factor —
/// the same seed always yields the same conn→shard map, independent of
/// timing, thread scheduling, or arrival interleaving.
pub fn shard_for(seed: u64, conn: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // The workspace's shared SplitMix64 finalizer over seed ⊕ conn:
    // avalanches low-entropy ordinals so shard load stays balanced for any
    // seed. Same mixer as minidb's join/group hashing (stats::mix64).
    let z = perfeval_stats::mix64(seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (z % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_posts_wake_a_condvar_waiter() {
        let poll = Arc::new(Poll::new());
        let shim = poll.shim(7);
        let p2 = Arc::clone(&poll);
        let waiter = std::thread::spawn(move || p2.wait(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(20));
        shim.readable();
        let (events, _) = waiter.join().unwrap();
        assert_eq!(
            events,
            vec![(
                7,
                Ready {
                    readable: true,
                    writable: false
                }
            )]
        );
    }

    #[test]
    fn posts_coalesce_per_token() {
        let poll = Poll::new();
        let shim = poll.shim(3);
        shim.readable();
        shim.writable();
        shim.readable();
        let (events, woken) = poll.wait(Some(Duration::ZERO));
        assert_eq!(
            events,
            vec![(
                3,
                Ready {
                    readable: true,
                    writable: true
                }
            )]
        );
        assert!(!woken);
    }

    #[test]
    fn wake_returns_without_events() {
        let poll = Poll::new();
        poll.wake();
        let (events, woken) = poll.wait(Some(Duration::from_secs(5)));
        assert!(events.is_empty());
        assert!(woken, "wake() is observable");
    }

    #[test]
    fn timeout_returns_empty() {
        let poll = Poll::new();
        let (events, woken) = poll.wait(Some(Duration::from_millis(10)));
        assert!(events.is_empty());
        assert!(!woken);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_tcp_readability() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poll = Poll::new();
        poll.register_fd(server.as_raw_fd(), 42, Interest::READ)
            .unwrap();
        // Nothing yet readable.
        let (events, _) = poll.wait(Some(Duration::from_millis(10)));
        assert!(events.is_empty(), "no data, no event: {events:?}");

        client.write_all(b"x").unwrap();
        let (events, _) = poll.wait(Some(Duration::from_secs(5)));
        assert!(
            events.iter().any(|(t, r)| *t == 42 && r.readable),
            "data arrival reported: {events:?}"
        );
        poll.deregister_fd(server.as_raw_fd());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn shim_posts_still_arrive_in_epoll_mode() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poll = Arc::new(Poll::new());
        poll.register_fd(server.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        let shim = poll.shim(9);
        let p2 = Arc::clone(&poll);
        let waiter = std::thread::spawn(move || p2.wait(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(20));
        shim.writable(); // must kick epoll_wait via the eventfd
        let (events, _) = waiter.join().unwrap();
        assert!(
            events.iter().any(|(t, r)| *t == 9 && r.writable),
            "user-space post crossed the epoll boundary: {events:?}"
        );
    }

    #[test]
    fn shard_placement_is_a_pure_function() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            for shards in [1usize, 2, 8] {
                for conn in 0..64u64 {
                    assert_eq!(
                        shard_for(seed, conn, shards),
                        shard_for(seed, conn, shards),
                        "identical inputs, identical shard"
                    );
                    assert!(shard_for(seed, conn, shards) < shards);
                }
            }
        }
        // Different seeds genuinely reshuffle (not a constant function).
        let a: Vec<_> = (0..32).map(|c| shard_for(1, c, 8)).collect();
        let b: Vec<_> = (0..32).map(|c| shard_for(2, c, 8)).collect();
        assert_ne!(a, b, "placement seed is a real factor");
        // Placement spreads connections (no empty shard over 64 conns / 4 shards).
        let mut counts = [0usize; 4];
        for c in 0..64u64 {
            counts[shard_for(0, c, 4)] += 1;
        }
        assert!(counts.iter().all(|&n| n > 0), "balanced-ish: {counts:?}");
    }
}
