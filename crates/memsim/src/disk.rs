//! Disk and buffer-pool models.
//!
//! These provide the *cold-run* half of slide 33's table: a cold TPC-H Q1
//! spends ~2.9 s of CPU but ~13.2 s of wall clock, the difference being disk
//! waits. The [`Disk`] charges seek + rotational + transfer time per page
//! read; the [`BufferPool`] caches pages LRU-style and accumulates the
//! simulated wait, so a second ("hot") run costs nothing.
//!
//! **Deprecated for measurement.** These models answer era what-ifs
//! ("this scan on a 1996 disk") — that is all. For measured hot-vs-cold
//! claims on the machine actually running, use `perfeval-store`'s real
//! buffer pool, whose hits, misses, and evictions are counters over real
//! file reads (experiment `perfeval-exp e26`). E2 keeps using this
//! model deliberately: its exhibit is the *shape* of the era table, not a
//! measurement of the host.

use std::collections::HashMap;

/// Identifier of a fixed-size page: (table/file id, page number).
pub type PageId = (u32, u64);

/// A simple disk model: every random read pays seek + half-rotation, then
/// pages transfer at the sequential rate. Sequential reads (next page of the
/// same file) skip the positioning cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Disk {
    /// Average seek time in ms.
    pub seek_ms: f64,
    /// Rotational speed in RPM (half a rotation is charged per random read).
    pub rpm: f64,
    /// Sequential transfer rate in MiB/s.
    pub transfer_mib_s: f64,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl Disk {
    /// A 1992-era SCSI disk.
    pub fn era_1992() -> Self {
        Disk {
            seek_ms: 12.0,
            rpm: 5400.0,
            transfer_mib_s: 3.0,
            page_bytes: 8192,
        }
    }

    /// A 1996-era disk.
    pub fn era_1996() -> Self {
        Disk {
            seek_ms: 9.0,
            rpm: 7200.0,
            transfer_mib_s: 10.0,
            page_bytes: 8192,
        }
    }

    /// A 1998-era disk.
    pub fn era_1998() -> Self {
        Disk {
            seek_ms: 8.0,
            rpm: 7200.0,
            transfer_mib_s: 20.0,
            page_bytes: 8192,
        }
    }

    /// The tutorial laptop's 5400 RPM ATA disk.
    pub fn laptop_5400rpm() -> Self {
        Disk {
            seek_ms: 12.0,
            rpm: 5400.0,
            transfer_mib_s: 30.0,
            page_bytes: 8192,
        }
    }

    /// The 2008 evaluation machine's 4-disk RAID-0.
    pub fn raid_2008() -> Self {
        Disk {
            seek_ms: 8.0,
            rpm: 7200.0,
            transfer_mib_s: 240.0,
            page_bytes: 8192,
        }
    }

    /// Positioning cost (seek + half rotation) in ns.
    pub fn position_ns(&self) -> f64 {
        let half_rotation_ms = 0.5 * 60_000.0 / self.rpm;
        (self.seek_ms + half_rotation_ms) * 1.0e6
    }

    /// Transfer cost for one page in ns.
    pub fn transfer_ns(&self) -> f64 {
        self.page_bytes as f64 / (self.transfer_mib_s * 1024.0 * 1024.0) * 1.0e9
    }

    /// Cost of reading a page: positioning is charged unless the read is
    /// sequential after the previous one.
    pub fn read_ns(&self, sequential: bool) -> f64 {
        if sequential {
            self.transfer_ns()
        } else {
            self.position_ns() + self.transfer_ns()
        }
    }
}

/// An LRU buffer pool over [`Disk`] pages, accounting simulated wait time.
///
/// `flush()` is the simulator's "reboot or run a cache-flusher application"
/// from the cold-run definition.
#[derive(Debug, Clone)]
pub struct BufferPool {
    disk: Disk,
    capacity_pages: usize,
    /// page -> LRU stamp
    resident: HashMap<PageId, u64>,
    stamp: u64,
    last_read: Option<PageId>,
    sim_wait_ns: f64,
    physical_reads: u64,
    logical_reads: u64,
}

impl BufferPool {
    /// Creates an empty pool of `capacity_pages` pages over `disk`.
    ///
    /// # Panics
    /// Panics if `capacity_pages == 0`.
    pub fn new(disk: Disk, capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "buffer pool needs capacity >= 1");
        BufferPool {
            disk,
            capacity_pages,
            resident: HashMap::new(),
            stamp: 0,
            last_read: None,
            sim_wait_ns: 0.0,
            physical_reads: 0,
            logical_reads: 0,
        }
    }

    /// Reads a page through the pool. Returns `true` if it was a buffer hit.
    /// On a miss the page is fetched from disk (simulated wait accumulates)
    /// and installed, evicting the LRU page if the pool is full.
    pub fn read(&mut self, page: PageId) -> bool {
        self.logical_reads += 1;
        self.stamp += 1;
        if self.resident.contains_key(&page) {
            self.resident.insert(page, self.stamp);
            self.last_read = Some(page);
            return true;
        }
        // Miss: charge the disk.
        let sequential = matches!(
            self.last_read,
            Some((file, num)) if file == page.0 && num + 1 == page.1
        );
        self.sim_wait_ns += self.disk.read_ns(sequential);
        self.physical_reads += 1;
        if self.resident.len() == self.capacity_pages {
            // Evict LRU.
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &s)| s) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(page, self.stamp);
        self.last_read = Some(page);
        false
    }

    /// Simulated I/O wait accumulated so far, in ns.
    pub fn sim_wait_ns(&self) -> f64 {
        self.sim_wait_ns
    }

    /// Number of reads served from disk.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads
    }

    /// Number of page read requests.
    pub fn logical_reads(&self) -> u64 {
        self.logical_reads
    }

    /// Buffer hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            1.0 - self.physical_reads as f64 / self.logical_reads as f64
        }
    }

    /// Evicts everything and zeroes counters — cold state.
    pub fn flush(&mut self) {
        self.resident.clear();
        self.last_read = None;
        self.sim_wait_ns = 0.0;
        self.physical_reads = 0;
        self.logical_reads = 0;
    }

    /// Zeroes the wait/read counters but keeps pages resident — begin
    /// measuring a hot pool.
    pub fn reset_counters(&mut self) {
        self.sim_wait_ns = 0.0;
        self.physical_reads = 0;
        self.logical_reads = 0;
        self.last_read = None;
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Pool capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_costs_are_positive_and_ordered() {
        let d = Disk::laptop_5400rpm();
        assert!(d.position_ns() > 0.0);
        assert!(d.transfer_ns() > 0.0);
        assert!(d.read_ns(false) > d.read_ns(true));
        // 5400 RPM: half rotation is 5.56ms; seek 12ms -> ~17.6ms position.
        assert!((d.position_ns() / 1e6 - 17.56).abs() < 0.1);
    }

    #[test]
    fn newer_disks_are_faster() {
        assert!(Disk::era_1992().read_ns(true) > Disk::raid_2008().read_ns(true));
    }

    #[test]
    fn cold_read_charges_hot_read_free() {
        let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 100);
        assert!(!pool.read((0, 0)));
        let cold_wait = pool.sim_wait_ns();
        assert!(cold_wait > 0.0);
        assert!(pool.read((0, 0)));
        assert_eq!(pool.sim_wait_ns(), cold_wait, "hit adds no wait");
        assert_eq!(pool.physical_reads(), 1);
        assert_eq!(pool.logical_reads(), 2);
        assert_eq!(pool.hit_rate(), 0.5);
    }

    #[test]
    fn sequential_reads_skip_positioning() {
        let disk = Disk::laptop_5400rpm();
        let mut pool = BufferPool::new(disk.clone(), 100);
        pool.read((0, 0)); // random
        let after_first = pool.sim_wait_ns();
        pool.read((0, 1)); // sequential
        let delta = pool.sim_wait_ns() - after_first;
        assert!((delta - disk.transfer_ns()).abs() < 1e-6);
        pool.read((0, 5)); // skip -> random again
        let delta2 = pool.sim_wait_ns() - after_first - delta;
        assert!((delta2 - disk.read_ns(false)).abs() < 1e-6);
    }

    #[test]
    fn lru_eviction() {
        let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 2);
        pool.read((0, 0));
        pool.read((0, 1));
        pool.read((0, 0)); // refresh page 0
        pool.read((0, 2)); // evicts page 1 (LRU)
        assert!(pool.read((0, 0)), "page 0 refreshed, must survive");
        assert!(!pool.read((0, 1)), "page 1 was evicted");
        assert_eq!(pool.resident_pages(), 2);
    }

    #[test]
    fn flush_makes_pool_cold() {
        let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 10);
        pool.read((0, 0));
        pool.flush();
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.sim_wait_ns(), 0.0);
        assert!(!pool.read((0, 0)));
    }

    #[test]
    fn reset_counters_keeps_pages_hot() {
        let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 10);
        pool.read((0, 0));
        pool.reset_counters();
        assert!(pool.read((0, 0)), "page still resident");
        assert_eq!(pool.sim_wait_ns(), 0.0, "hot read costs nothing");
        assert_eq!(pool.hit_rate(), 1.0);
    }

    #[test]
    fn hot_cold_gap_is_large_like_the_tutorial() {
        // Scan 1000 pages cold vs hot: the wall-clock gap should be orders
        // of magnitude, echoing 13243 ms vs 3534 ms.
        let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 2000);
        for p in 0..1000 {
            pool.read((0, p));
        }
        let cold_ns = pool.sim_wait_ns();
        pool.reset_counters();
        for p in 0..1000 {
            pool.read((0, p));
        }
        let hot_ns = pool.sim_wait_ns();
        assert_eq!(hot_ns, 0.0);
        assert!(cold_ns > 1e6, "cold scan must cost milliseconds");
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_panics() {
        let _ = BufferPool::new(Disk::laptop_5400rpm(), 0);
    }
}
