//! The pinned in-process suite: four statements × three engine tiers.
//!
//! E24 (`perfeval-exp e24`) is the designed experiment over these twelve
//! cells — bit-identity gate first, interleaved replicates, Kalibera–Jones
//! intervals, shape assertions. Each statement leans on one part of the
//! batch engine, so a kernel-tier change has a cell where it should show
//! and three where it should not.

use minidb::ExecMode;

/// The three engine levels, in presentation order.
pub const ENGINES: [ExecMode; 3] = [ExecMode::Debug, ExecMode::Optimized, ExecMode::Simd];

/// One pinned workload of the suite.
pub struct Workload {
    /// Stable name the exhibits print.
    pub name: &'static str,
    /// The SQL it measures.
    pub sql: fn() -> String,
}

fn filter_heavy() -> String {
    // Conjunctive integer filters + COUNT: exercises compare-select and
    // the branchless compaction kernels, nothing else.
    "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24 AND l_orderkey > 100".to_owned()
}

fn agg_heavy() -> String {
    // Global integer folds: every aggregate qualifies for the lane
    // kernels (sum with the 2^53 exactness guard, order-free min/max).
    "SELECT SUM(l_quantity), MIN(l_orderkey), MAX(l_quantity), COUNT(*) FROM lineitem".to_owned()
}

fn join_heavy() -> String {
    // Integer-keyed join: exercises the open-addressed SIMD build/probe
    // index against the scalar directory.
    workload::queries::family(12)
}

fn end_to_end() -> String {
    // TPC-H Q1-like: parse → filter → wide group-by → sort, the whole
    // engine in one query.
    workload::queries::q1()
}

/// The pinned suite. Order is fixed; the exhibits print it as is.
pub fn suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "filter-heavy",
            sql: filter_heavy,
        },
        Workload {
            name: "agg-heavy",
            sql: agg_heavy,
        },
        Workload {
            name: "join-heavy",
            sql: join_heavy,
        },
        Workload {
            name: "end-to-end",
            sql: end_to_end,
        },
    ]
}
