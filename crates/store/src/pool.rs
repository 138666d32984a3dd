//! A real buffer pool: a frame table and an eviction policy that is a
//! **design factor**, not an implementation accident.
//!
//! The pool caches *decoded* chunks (`Arc<T>`), charged at their
//! in-memory size against a byte budget. Because frames hand out
//! `Arc`s, eviction never invalidates a reader — it only drops the
//! pool's reference, so the next access is a miss that performs real
//! I/O. That is exactly the semantics a cold-run experiment needs:
//! [`BufferPool::drop_all`] models a restart, and the logical/physical
//! read counters are measurements, not simulation.
//!
//! ## Invariants
//!
//! - **Nothing is pinned**, and nothing is written back: backed tables are
//!   read-only, and a reader holds the chunks it is working on by `Arc`, so
//!   a scan larger than the budget evicts its own head instead of
//!   over-committing, and what is alive outside the budget is what readers
//!   hold at that moment — for a chunk-at-a-time sweep at most
//!   `threads × projected columns` chunks, counting a chunk from when its
//!   unit has read it to when the unit lets it go.
//! - The pool does **no I/O of its own and holds no lock**: the owner's
//!   mutex is meant to cover hash-map work only. minidb peeks
//!   ([`BufferPool::contains`], uncounted), reads a missing segment with no
//!   lock held, and hands the value to [`BufferPool::get_or_load`]'s loader
//!   — so every counter, stamp, admission and eviction still happens in
//!   the order of the `get_or_load` calls, whoever read what first.
//! - **Every real read is counted.** A value read ahead whose chunk turns
//!   out resident at `get_or_load` (another session admitted it meanwhile)
//!   is dropped, and the caller reports it with
//!   [`BufferPool::count_discarded_read`]: `physical_reads` is segment
//!   reads made, admitted or not.
//! - An admission never evicts its own chunk, so a chunk larger than the
//!   whole budget **over-commits** the pool rather than failing the query,
//!   and is counted ([`PoolCounters::overcommits`]) — a budget smaller than
//!   one chunk completes, honestly accounted.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Address of one cached chunk: `(table id, column index, chunk index)`.
pub type SegKey = (u32, u32, u32);

/// Eviction policy — a design factor (E26 measures it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Evict {
    /// Least-recently-used: victim is the frame with the oldest access
    /// stamp.
    #[default]
    Lru,
    /// Clock (second chance): a hand sweeps a ring of frames, clearing
    /// reference bits until it finds an unreferenced frame.
    Clock,
    /// 2Q: first-time pages sit in a probationary FIFO (`A1`); a second
    /// access promotes to the protected LRU (`Am`). Scans that touch
    /// data once cannot flush the hot set.
    TwoQ,
}

impl Evict {
    /// Knob spelling, e.g. for `-Devict=`.
    pub fn as_str(self) -> &'static str {
        match self {
            Evict::Lru => "lru",
            Evict::Clock => "clock",
            Evict::TwoQ => "2q",
        }
    }

    /// All policies, for factorial designs.
    pub fn all() -> [Evict; 3] {
        [Evict::Lru, Evict::Clock, Evict::TwoQ]
    }
}

impl std::str::FromStr for Evict {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(Evict::Lru),
            "clock" => Ok(Evict::Clock),
            "2q" | "twoq" => Ok(Evict::TwoQ),
            other => Err(format!("unknown eviction policy {other:?} (lru|clock|2q)")),
        }
    }
}

impl std::fmt::Display for Evict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Monotonic counters; deltas around a query give per-statement truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Chunk accesses through the pool (hits + misses).
    pub logical_reads: u64,
    /// Segment reads made for those accesses (real I/O): misses, plus
    /// reads made ahead and dropped because the chunk had become resident
    /// — at most one per logical read.
    pub physical_reads: u64,
    /// Frames evicted to stay within budget.
    pub evictions: u64,
    /// Loads admitted *over* budget because the chunk alone is larger than
    /// it (an admission never evicts its own chunk). Nonzero means the
    /// budget was too small for one chunk — reported, never hidden.
    pub overcommits: u64,
}

impl PoolCounters {
    /// Hits (logical minus physical).
    pub fn hits(&self) -> u64 {
        self.logical_reads - self.physical_reads
    }

    /// Hit rate in `[0, 1]`; `1.0` for an untouched pool.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            self.hits() as f64 / self.logical_reads as f64
        }
    }

    /// Counter-wise difference (`self` after, `earlier` before).
    pub fn since(&self, earlier: &PoolCounters) -> PoolCounters {
        PoolCounters {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            evictions: self.evictions - earlier.evictions,
            overcommits: self.overcommits - earlier.overcommits,
        }
    }
}

#[derive(Debug)]
struct Frame<T> {
    value: Arc<T>,
    bytes: u64,
    /// LRU access stamp.
    stamp: u64,
    /// Clock reference bit.
    referenced: bool,
    /// 2Q: promoted to the protected queue.
    hot: bool,
}

/// The buffer pool. Single-owner; wrap in a `Mutex` to share (minidb
/// hangs one off the catalog).
#[derive(Debug)]
pub struct BufferPool<T> {
    capacity_bytes: u64,
    evict: Evict,
    frames: HashMap<SegKey, Frame<T>>,
    resident_bytes: u64,
    tick: u64,
    counters: PoolCounters,
    /// Clock: insertion ring + hand position.
    ring: VecDeque<SegKey>,
    /// 2Q: probationary FIFO (cold) and protected LRU order (hot).
    a1: VecDeque<SegKey>,
    am: VecDeque<SegKey>,
}

impl<T> BufferPool<T> {
    /// An empty pool with a byte budget and an eviction policy.
    pub fn new(capacity_bytes: u64, evict: Evict) -> Self {
        BufferPool {
            capacity_bytes,
            evict,
            frames: HashMap::new(),
            resident_bytes: 0,
            tick: 0,
            counters: PoolCounters::default(),
            ring: VecDeque::new(),
            a1: VecDeque::new(),
            am: VecDeque::new(),
        }
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The eviction policy.
    pub fn evict_policy(&self) -> Evict {
        self.evict
    }

    /// Bytes currently cached.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Whether a chunk is resident.
    pub fn contains(&self, key: SegKey) -> bool {
        self.frames.contains_key(&key)
    }

    /// Cumulative counters.
    pub fn counters(&self) -> PoolCounters {
        self.counters
    }

    /// Returns the cached chunk, or loads it with `load` on a miss.
    ///
    /// `load` returns the value plus its byte charge. On a miss the new
    /// frame is admitted and victims are evicted until the pool is back
    /// within budget (or nothing but the new frame is left).
    pub fn get_or_load<E>(
        &mut self,
        key: SegKey,
        load: impl FnOnce() -> Result<(T, u64), E>,
    ) -> Result<Arc<T>, E> {
        self.counters.logical_reads += 1;
        self.tick += 1;
        if let Some(frame) = self.frames.get_mut(&key) {
            frame.stamp = self.tick;
            frame.referenced = true;
            if self.evict == Evict::TwoQ {
                if frame.hot {
                    // Refresh LRU position in Am.
                    if let Some(i) = self.am.iter().position(|k| *k == key) {
                        self.am.remove(i);
                    }
                } else {
                    // Second access: promote A1 -> Am.
                    frame.hot = true;
                    if let Some(i) = self.a1.iter().position(|k| *k == key) {
                        self.a1.remove(i);
                    }
                }
                self.am.push_back(key);
            }
            return Ok(Arc::clone(&frame.value));
        }
        self.counters.physical_reads += 1;
        let (value, bytes) = load()?;
        let value = Arc::new(value);
        self.frames.insert(
            key,
            Frame {
                value: Arc::clone(&value),
                bytes,
                stamp: self.tick,
                referenced: false,
                hot: false,
            },
        );
        self.resident_bytes += bytes;
        match self.evict {
            Evict::Clock => self.ring.push_back(key),
            Evict::TwoQ => self.a1.push_back(key),
            Evict::Lru => {}
        }
        // The chunk being handed out is in use by definition; it must
        // not be the victim of its own admission.
        if self.resident_bytes > self.capacity_bytes && !self.shrink_to_budget(Some(key)) {
            self.counters.overcommits += 1;
        }
        Ok(value)
    }

    /// Counts a segment read made ahead of a [`get_or_load`](Self::get_or_load)
    /// that then hit: the value was dropped, the I/O was real. Call it at
    /// most once per such hit, so hits never underflow.
    pub fn count_discarded_read(&mut self) {
        self.counters.physical_reads += 1;
    }

    /// Drops **everything** — frames and policy state — modelling a
    /// process restart for honest cold runs. Counters survive (they are
    /// the experiment's record). Returns the number of frames dropped.
    pub fn drop_all(&mut self) -> usize {
        let n = self.frames.len();
        self.frames.clear();
        self.ring.clear();
        self.a1.clear();
        self.am.clear();
        self.resident_bytes = 0;
        n
    }

    /// Evicts until within budget; true if the budget was reached.
    /// `exclude` protects the chunk whose admission caused the pressure.
    fn shrink_to_budget(&mut self, exclude: Option<SegKey>) -> bool {
        while self.resident_bytes > self.capacity_bytes {
            match self.pick_victim(exclude) {
                Some(victim) => self.evict_frame(victim),
                None => return false,
            }
        }
        true
    }

    fn pick_victim(&mut self, exclude: Option<SegKey>) -> Option<SegKey> {
        match self.evict {
            Evict::Lru => self
                .frames
                .iter()
                .filter(|(k, _)| exclude != Some(**k))
                .min_by_key(|(k, f)| (f.stamp, **k))
                .map(|(k, _)| *k),
            Evict::Clock => {
                // Two full sweeps: the first may only clear reference
                // bits; a frame seen twice unreferenced is the victim.
                for _ in 0..self.ring.len() * 2 {
                    let key = *self.ring.front()?;
                    if exclude == Some(key) {
                        self.ring.rotate_left(1);
                        continue;
                    }
                    let frame = self.frames.get_mut(&key).expect("ring tracks frames");
                    if frame.referenced {
                        frame.referenced = false;
                        self.ring.rotate_left(1);
                    } else {
                        return Some(key);
                    }
                }
                None
            }
            Evict::TwoQ => {
                // Probationary pages first, then the protected LRU.
                (self.a1.iter().chain(&self.am).copied()).find(|&k| exclude != Some(k))
            }
        }
    }

    fn evict_frame(&mut self, key: SegKey) {
        if let Some(f) = self.frames.remove(&key) {
            self.resident_bytes -= f.bytes;
            self.counters.evictions += 1;
        }
        self.ring.retain(|k| *k != key);
        self.a1.retain(|k| *k != key);
        self.am.retain(|k| *k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(v: i64, bytes: u64) -> impl FnOnce() -> Result<(i64, u64), ()> {
        move || Ok((v, bytes))
    }

    fn key(i: u32) -> SegKey {
        (0, 0, i)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut p: BufferPool<i64> = BufferPool::new(1000, Evict::Lru);
        assert_eq!(*p.get_or_load(key(1), load(10, 100)).unwrap(), 10);
        assert_eq!(*p.get_or_load(key(1), load(99, 100)).unwrap(), 10, "hit");
        let c = p.counters();
        assert_eq!(c.logical_reads, 2);
        assert_eq!(c.physical_reads, 1);
        assert_eq!(c.hits(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_oldest() {
        let mut p: BufferPool<i64> = BufferPool::new(250, Evict::Lru);
        for i in 0..3 {
            p.get_or_load(key(i), load(i64::from(i), 100)).unwrap();
        }
        // Budget 250, resident 300: key(0) is oldest -> out.
        assert!(!p.contains(key(0)));
        assert!(p.contains(key(1)) && p.contains(key(2)));
        assert_eq!(p.counters().evictions, 1);
        // Touch key(1), insert key(3): key(2) is now oldest.
        p.get_or_load(key(1), load(-1, 100)).unwrap();
        p.get_or_load(key(3), load(3, 100)).unwrap();
        assert!(p.contains(key(1)) && !p.contains(key(2)));
    }

    #[test]
    fn an_oversized_chunk_overcommits_and_is_counted() {
        for evict in Evict::all() {
            let mut p: BufferPool<i64> = BufferPool::new(250, evict);
            p.get_or_load(key(0), load(0, 100)).unwrap();
            // Larger than the whole budget: everything else goes, the new
            // chunk stays (it is in use), and the load neither fails nor
            // passes uncounted.
            assert_eq!(*p.get_or_load(key(1), load(1, 300)).unwrap(), 1);
            assert!(!p.contains(key(0)) && p.contains(key(1)), "{evict}");
            assert_eq!(p.counters().overcommits, 1, "{evict}");
            assert!(p.resident_bytes() > p.capacity_bytes());
            // The next pressure evicts normally again.
            p.get_or_load(key(2), load(2, 100)).unwrap();
            assert!(!p.contains(key(1)), "{evict}");
            assert!(p.resident_bytes() <= p.capacity_bytes());
            assert_eq!(p.counters().overcommits, 1, "{evict}");
        }
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut p: BufferPool<i64> = BufferPool::new(300, Evict::Clock);
        for i in 0..3 {
            p.get_or_load(key(i), load(i64::from(i), 100)).unwrap();
        }
        // Reference key(0); pressure should pick key(1) (first
        // unreferenced in ring order after 0's second chance).
        p.get_or_load(key(0), load(-1, 100)).unwrap();
        p.get_or_load(key(3), load(3, 100)).unwrap();
        assert!(p.contains(key(0)), "referenced frame got its second chance");
        assert!(!p.contains(key(1)));
    }

    #[test]
    fn twoq_protects_reused_pages_from_scans() {
        let mut p: BufferPool<i64> = BufferPool::new(300, Evict::TwoQ);
        // key(0) is accessed twice -> promoted to Am.
        p.get_or_load(key(0), load(0, 100)).unwrap();
        p.get_or_load(key(0), load(0, 100)).unwrap();
        // A long one-touch scan pushes through A1.
        for i in 1..10 {
            p.get_or_load(key(i), load(i64::from(i), 100)).unwrap();
        }
        assert!(
            p.contains(key(0)),
            "a hot page must survive a one-touch scan under 2Q"
        );
        // Under LRU the same access pattern flushes the hot page.
        let mut lru: BufferPool<i64> = BufferPool::new(300, Evict::Lru);
        lru.get_or_load(key(0), load(0, 100)).unwrap();
        lru.get_or_load(key(0), load(0, 100)).unwrap();
        for i in 1..10 {
            lru.get_or_load(key(i), load(i64::from(i), 100)).unwrap();
        }
        assert!(!lru.contains(key(0)));
    }

    #[test]
    fn drop_all_models_a_restart() {
        let mut p: BufferPool<i64> = BufferPool::new(1000, Evict::TwoQ);
        for i in 0..4 {
            p.get_or_load(key(i), load(i64::from(i), 100)).unwrap();
        }
        let before = p.counters();
        assert_eq!(p.drop_all(), 4);
        assert_eq!(p.resident_bytes(), 0);
        assert!(!p.contains(key(0)));
        assert_eq!(p.counters(), before, "counters survive the restart");
        // Everything is a miss again.
        p.get_or_load(key(0), load(0, 100)).unwrap();
        assert_eq!(p.counters().physical_reads, before.physical_reads + 1);
    }

    #[test]
    fn a_discarded_read_is_still_a_physical_read() {
        let mut p: BufferPool<i64> = BufferPool::new(1000, Evict::Lru);
        p.get_or_load(key(0), load(1, 10)).unwrap();
        // Read ahead by someone who peeked before the admission above.
        assert_eq!(*p.get_or_load(key(0), load(2, 10)).unwrap(), 1, "hit");
        p.count_discarded_read();
        let c = p.counters();
        assert_eq!((c.logical_reads, c.physical_reads, c.hits()), (2, 2, 0));
    }

    #[test]
    fn load_errors_do_not_poison_the_pool() {
        let mut p: BufferPool<i64> = BufferPool::new(1000, Evict::Lru);
        let r = p.get_or_load(key(0), || Err::<(i64, u64), &str>("io"));
        assert_eq!(r.unwrap_err(), "io");
        assert!(!p.contains(key(0)));
        // A later successful load works.
        assert_eq!(*p.get_or_load(key(0), load(5, 10)).unwrap(), 5);
        assert_eq!(p.counters().physical_reads, 2);
    }
}
