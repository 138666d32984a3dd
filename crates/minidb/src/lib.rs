//! # minidb
//!
//! An in-memory column-store execution engine — the DBMS substrate for the
//! `perfeval` reproduction of "Performance Evaluation in Database Research"
//! (Manolescu & Manegold, ICDE 2008 / EDBT 2009).
//!
//! The tutorial's measurement anecdotes all run against real systems
//! (MonetDB, MySQL, commercial engines) that we cannot ship. `minidb`
//! replaces them with a small but real engine whose *measurement-relevant
//! axes* are first-class, controllable parameters:
//!
//! * **Execution mode** ([`exec::ExecMode`]): `Debug` is a row-at-a-time
//!   interpreter with assertions (the `--enable-debug --disable-optimize`
//!   build of the "Of apples and oranges" war story); `Optimized` is a
//!   vectorized column-at-a-time engine (the `-O6` build); `Simd` runs the
//!   same operators through the explicit chunked kernels in the `kernels`
//!   module. Comparing them makes the tutorial's build factor a genuine
//!   three-level design factor, and all three are bit-identical on every
//!   query (tested).
//! * **Phase timing** ([`session::Session`]): every query reports
//!   parse / optimize / execute / print times, like MonetDB's
//!   `mclient -t` (`Trans/Shred/Query/Print`).
//! * **Result sinks** ([`sink`]): query output can go to a file, a
//!   terminal (with realistic rendering cost), or nowhere — the
//!   server-side vs. client-side, file vs. terminal distinction of the
//!   "Be aware what you measure!" table.
//! * **Persistence and the buffer pool** ([`storage`], via
//!   `perfeval-store`): tables persist to checksummed, compressed column
//!   segments and reopen disk-backed behind the engine's one buffer pool —
//!   a real one, so hot vs. cold is measured with real hit/miss counters
//!   and `posix_fadvise` page-cache drops. Nothing inside the engine is
//!   modeled; era-hardware what-ifs (E2) charge a simulated disk from the
//!   plan's scanned tables outside it.
//! * **One execution pipeline**: every batch operator has exactly one
//!   implementation, which runs as one range on the calling thread or as
//!   a morsel sweep across workers depending only on the thread count and
//!   the input's row count — bit-identical either way.
//! * **EXPLAIN / PROFILE / TRACE**: plan printing and per-operator time
//!   accounting, the "CSI: find out what happens" tools.
//!
//! ## Quickstart
//!
//! ```
//! use minidb::{Catalog, Session, TableBuilder, Value};
//!
//! let mut catalog = Catalog::new();
//! let mut t = TableBuilder::new("part")
//!     .column("id", minidb::DataType::Int)
//!     .column("price", minidb::DataType::Float)
//!     .build();
//! t.push_row(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
//! t.push_row(vec![Value::Int(2), Value::Float(20.0)]).unwrap();
//! catalog.register(t).unwrap();
//!
//! let mut session = Session::new(catalog);
//! let result = session.query("SELECT SUM(price) FROM part").run().unwrap();
//! assert_eq!(result.rows[0][0], Value::Float(30.0));
//! ```
#![warn(missing_docs)]

pub mod cancel;
pub mod catalog;
pub mod column;
pub mod error;
pub mod exec;
pub mod expr;
pub(crate) mod kernels;
pub mod optimizer;
pub(crate) mod parallel;
pub mod parser;
pub mod plan;
pub mod session;
pub mod sink;
pub mod storage;
pub mod table;
pub mod types;

pub use cancel::CancelToken;
pub use catalog::Catalog;
pub use column::Column;
pub use error::DbError;
pub use exec::ExecMode;
pub use plan::Plan;
pub use session::{Query, QueryColumns, QueryResult, Session};
pub use sink::{FileSink, NullSink, ResultSink, TerminalSink};
pub use storage::{Storage, StoreConfig};
pub use table::{Table, TableBuilder};
pub use types::{DataType, Value};
