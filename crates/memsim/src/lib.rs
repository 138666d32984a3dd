//! # memsim
//!
//! A parameterized memory-hierarchy and I/O simulator — the hardware
//! substrate for reproducing the tutorial's hardware-bound experiments.
//!
//! The paper's most striking figure (slides 46/51) runs `SELECT MAX(column)`
//! over an in-memory table on five machines spanning 1992–2000 and shows
//! that a 10× CPU clock improvement yields *almost no* speedup: the scan is
//! memory-bound, and only hardware performance counters reveal it. We cannot
//! ship a 1992 Sun LX, so this crate simulates one — and the other four —
//! with enough fidelity to reproduce the figure's shape:
//!
//! * [`cache::CacheSim`] — a set-associative LRU cache simulator with
//!   hit/miss counters (the "hardware performance counters").
//! * [`hierarchy::MemoryHierarchy`] — multi-level hierarchy + DRAM, with
//!   per-access latency accounting in nanoseconds.
//! * [`machine`] — calibrated presets: Sun LX (1992) … Origin2000 (2000),
//!   the tutorial's 2005 Pentium M laptop, and a modern reference box.
//! * [`scan`] — the `SELECT MAX` micro-benchmark: per-iteration cost split
//!   into CPU and memory components, exactly what the figure plots.
//! * [`disk`] — a seek+transfer disk model and an LRU buffer pool whose
//!   simulated wait time gives cold runs their characteristic
//!   real ≫ user gap (slide 33).
//!
//! Simulated time is kept separate from wall-clock time on purpose: a
//! workload runs for real (CPU/user time is genuinely consumed) while its
//! *I/O waits* and *historical-machine costs* are accounted in simulated
//! nanoseconds. Experiments then report both, reproducing the tutorial's
//! user-vs-real lesson deterministically.
//!
//! ## Scope: era what-ifs only — measurement lives in `perfeval-store`
//!
//! Since the repository gained real persistent storage (`perfeval-store`:
//! on-disk segment files behind a buffer pool with genuine hit/miss/
//! eviction counters), this crate's modeled disk and [`disk::BufferPool`]
//! are **deprecated for measurement**. They remain the right tool for
//! counterfactuals no amount of measuring can answer — "what would this
//! scan cost on a 1992 Sun LX?", the era sweeps of E2/E4 — but any claim
//! about *this* machine's hot-vs-cold behavior must come from the real
//! pool's counters (see `perfeval-exp e26`, and `Session::flush_caches`,
//! which empties the real pool and the OS page cache rather than
//! resetting a model). When a catalog is disk-backed, minidb's hit/miss
//! span attributes and `QueryResult::store_physical_reads` already come
//! from the real store; the simulated numbers keep their `sim_` prefix.
#![warn(missing_docs)]

pub mod cache;
pub mod disk;
pub mod hierarchy;
pub mod machine;
pub mod scan;

pub use cache::CacheSim;
pub use disk::{BufferPool, Disk, PageId};
pub use hierarchy::{AccessOutcome, MemoryHierarchy};
pub use machine::MachineSpec;
pub use scan::{scan_cost, ScanCost};

// The parallel scheduler (`perfeval-exec`) moves simulator state across
// worker threads; these assertions turn any future non-Send field (Rc,
// raw pointer) into a compile error instead of a distant build break.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CacheSim>();
    assert_send::<BufferPool>();
    assert_send::<Disk>();
    assert_send::<MemoryHierarchy>();
    assert_send::<MachineSpec>();
};
