//! # perfeval
//!
//! A performance-evaluation toolkit for database research, reproducing
//! **"Performance Evaluation in Database Research: Principles and
//! Experiences"** (Manolescu & Manegold, ICDE 2008 / EDBT 2009) as a
//! working system.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`core`] (`perfeval-core`) | experiment design: factors, 2^k / 2^(k−p) designs, sign tables, confounding algebra, allocation of variation |
//! | [`stats`] (`perfeval-stats`) | confidence intervals, comparisons, histograms, regression, deterministic distributions |
//! | [`measure`] (`perfeval-measure`) | clocks (wall / CPU / quantized), hot–cold run protocols, phase timing, environment capture |
//! | [`harness`] (`perfeval-harness`) | Properties configs, CSV with locale validation, gnuplot generation, experiment suites, repeatability |
//! | [`minidb`] | the substrate DBMS: column store, SQL subset, DBG/OPT engines, EXPLAIN/PROFILE, result sinks |
//! | [`net`] (`minidb-net`) | wire-protocol client/server layer: TCP + in-process loopback transports, streamed result batches with backpressure, the measured client/server time decomposition, and two server cores (event-driven sharded / thread-per-connection) behind one builder |
//! | [`workload`] | TPC-H-like data generator, Q1/Q6/Q16-like queries, the 22-query DBG/OPT family, micro-benchmarks |
//! | [`memsim`] | cache-hierarchy / disk / buffer-pool simulator with 1992–2008 machine presets (era what-ifs; measured I/O lives in `store`) |
//! | [`store`] (`perfeval-store`) | persistent columnar storage: checksummed segment files (RLE/dictionary encoded), a real buffer pool with LRU/Clock/2Q eviction and counted hits/misses, crash-safe temp-then-rename manifests, OS page-cache dropping for honest cold runs |
//! | [`exec`] (`perfeval-exec`) | deterministic parallel experiment scheduler: run plans, order policies, worker pool, failure-contained execution |
//! | [`trace`] (`perfeval-trace`) | span-based observability: per-thread ring-buffer recorder, Chrome/Perfetto + flamegraph + tree exporters |
//! | [`fault`] (`perfeval-fault`) | seeded deterministic fault injection: failpoints that panic, delay, hang, skew clocks, and fail I/O |
//! | [`load`] (`perfeval-load`) | multi-client load harness over `minidb-net`: open/closed-loop arrival, coordinated-omission-safe tail latencies, offered-vs-achieved throughput, checksummed results |
//!
//! ## Quickstart: design, run, analyze
//!
//! ```
//! use perfeval::core::twolevel::TwoLevelDesign;
//! use perfeval::core::runner::{run_and_analyze, Assignment};
//!
//! // Which matters more for this (toy) system: buffer size or vector size?
//! let design = TwoLevelDesign::full(&["buffer", "vector"]);
//! let mut system = |a: &Assignment| {
//!     100.0 - 30.0 * a.num("buffer").unwrap() - 5.0 * a.num("vector").unwrap()
//! };
//! let (_runs, variation) = run_and_analyze(&design, 1, &mut system).unwrap();
//! assert_eq!(variation.ranked_effects()[0].0, "buffer");
//! ```
#![warn(missing_docs)]

pub use memsim;
pub use minidb;
pub use minidb_net as net;
pub use perfeval_core as core;
pub use perfeval_exec as exec;
pub use perfeval_fault as fault;
pub use perfeval_harness as harness;
pub use perfeval_load as load;
pub use perfeval_measure as measure;
pub use perfeval_stats as stats;
pub use perfeval_store as store;
pub use perfeval_trace as trace;
pub use workload;

/// Commonly used items in one import.
pub mod prelude {
    pub use memsim::{BufferPool, Disk, MachineSpec};
    pub use minidb::{
        Catalog, DataType, ExecMode, Session, StoreConfig, Table, TableBuilder, Value,
    };
    pub use minidb_net::{
        Client, LoopbackEndpoint, NetQueryResult, Server, ServerMode, TcpEndpoint, TcpTransport,
    };
    pub use perfeval_core::alias::{AliasStructure, Generator};
    pub use perfeval_core::design::Design;
    pub use perfeval_core::effects::estimate_effects;
    pub use perfeval_core::factor::{Factor, Level};
    pub use perfeval_core::runner::{run_and_analyze, Assignment, Runner, SyncExperiment};
    pub use perfeval_core::twolevel::TwoLevelDesign;
    pub use perfeval_core::variation::allocate_variation;
    pub use perfeval_exec::{OrderPolicy, RetryPolicy, Scheduler, SweepResult, UnitOutcome};
    pub use perfeval_fault::{Failpoint, FaultAction, FaultRegistry, Trigger};
    pub use perfeval_harness::{ExperimentSuite, GnuplotScript, Properties};
    pub use perfeval_load::{Arrival, Dialer, LoadReport, LoadRunner, LoadSpec};
    pub use perfeval_measure::{CacheState, Clock, Measurement, RunProtocol, WallClock};
    pub use perfeval_stats::{compare_means, mean_confidence_interval, LogHistogram, Summary};
    pub use perfeval_store::{Evict, PoolCounters};
    pub use perfeval_trace::{chrome_trace_json, render_tree, Tracer};
    pub use workload::dbgen::{generate, GenConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let d = TwoLevelDesign::full(&["A"]);
        assert_eq!(d.run_count(), 2);
        let s = Summary::from_slice(&[1.0, 2.0]);
        assert_eq!(s.count(), 2);
        let _ = MachineSpec::laptop_2005();
    }
}
