//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 LE payload length][u8 frame type][payload]`. The
//! length covers the type byte plus payload, so a reader can skip unknown
//! frames. Integers are little-endian; floats travel as `f64::to_bits()`
//! so a value survives the wire **bit-identical** — the acceptance bar for
//! the whole subsystem (see `tests/roundtrip.rs`).
//!
//! Conversation shape (protocol version 3):
//!
//! ```text
//! client                      server
//!   Hello{version}      ──▶
//!                       ◀──  HelloOk{version}
//!   Query{span, deadline, sql} ──▶
//!                       ◀──  ResultHeader{columns}
//!                       ◀──  ColumnBatch{rows, columns}  (0..n, streamed)
//!                       ◀──  Done{footer}             (server-side timings)
//!        — or —
//!                       ◀──  Error{code, message}
//!        — or —
//!                       ◀──  Rejected{code, retry_after_ms}
//!   Bye                 ──▶
//! ```
//!
//! A result crosses as the columns the engine produced, a window of rows
//! per frame — the server builds no row (see [`ColumnBatch`]):
//!
//! ```text
//! ColumnBatch payload:  u32 rows | u32 columns | columns x column
//! column:               u8 kind, then `rows` values
//!   0 Int     rows x i64 LE
//!   1 Float   rows x u64 LE            (f64::to_bits)
//!   2 Str     u32 n | n x (u32 len, UTF-8) | rows x u32 LE codes < n
//!   3 Bool    rows x u8                (0 or 1)
//!   4 Values  rows x tagged value      (the per-cell encoding; NULL allowed)
//! ```
//!
//! Kinds 0 to 3 and their payloads are `perfeval-store`'s type tags and
//! Plain segment layout (the string dictionary is local to the frame:
//! first-occurrence order of the window's own rows). `Values` carries the
//! debug interpreter's cells.
//! [`Frame::RowBatch`], what versions 1 and 2 streamed, is still encoded
//! and decoded but no server in this tree sends it.
//!
//! `Query` carries the client's trace span id so the server can parent its
//! spans under the client's — perfeval-trace then stitches both sides into
//! one tree (`DESIGN.md` § net) — plus an optional deadline the server
//! enforces by cooperative cancellation. [`Frame::Rejected`] is the
//! overload-protection answer: the server *refused or abandoned* the
//! query (admission control, deadline, shutdown) without damaging the
//! connection, and the client should back off and may retry. Its code
//! byte decodes unknown values to [`RejectCode::Unknown`] instead of
//! erroring, so an old client survives a newer server's reject reasons.
//!
//! Framing is this file's alone: every connection, client or server, runs
//! one [`FramedIo`], blocking (`recv` / `send`) or readiness-driven (`fill`,
//! `next_buffered`, `stage`: the sharded core, which keeps the scheduling).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;

use minidb::exec::ResultData;
use minidb::{Column, DbError, Value};
use perfeval_fault::FaultRegistry;

use crate::transport::Transport;

/// Protocol version spoken by this crate. Version 2 added the `Query`
/// deadline field and the `Rejected` frame; version 3 streams a result as
/// [`Frame::ColumnBatch`]es where 1 and 2 streamed [`Frame::RowBatch`]es.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a single frame's byte length (type byte + payload).
/// Guards the reader against a corrupt length prefix allocating gigabytes.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Rows per [`Frame::RowBatch`] as protocol versions 1 and 2 streamed them.
pub const ROWS_PER_BATCH: usize = 256;

/// Encoded size at which a streamed [`Frame::ColumnBatch`] is cut: a batch
/// takes as many rows as fit (and at least one). Large enough to amortize
/// framing and the per-frame write, small enough that a bounded write
/// queue and the transport's buffer still apply backpressure within a
/// result set.
pub const BATCH_BYTES: usize = 64 * 1024;

/// Server-side timing footer carried by [`Frame::Done`]: the paper's
/// decomposition, measured where each phase actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Footer {
    /// Parse wall time, ms.
    pub parse_ms: f64,
    /// Optimize wall time, ms.
    pub optimize_ms: f64,
    /// Execute wall time, ms.
    pub execute_ms: f64,
    /// Execute per-thread CPU ("user") time, ms.
    pub execute_cpu_ms: f64,
    /// Time the server spent encoding + writing result frames, ms.
    pub serialize_ms: f64,
    /// Total rows sent (cross-check against received batches).
    pub rows: u64,
}

impl Footer {
    /// Server busy wall time: parse + optimize + execute + serialize.
    /// The client subtracts this from its own receive wall time to get the
    /// wire residual.
    pub fn busy_ms(&self) -> f64 {
        self.parse_ms + self.optimize_ms + self.execute_ms + self.serialize_ms
    }
}

/// A protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client greeting.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
    },
    /// Server accepts the greeting.
    HelloOk {
        /// Protocol version the server speaks.
        version: u32,
    },
    /// A query request.
    Query {
        /// The client-side trace span id (0 = untraced); the server parents
        /// its `net.serve` span under it.
        trace_parent: u64,
        /// Per-query deadline in milliseconds, measured by the server from
        /// the moment it dequeues the frame; `0` = no deadline. Enforced by
        /// cooperative cancellation — an expired query is abandoned at the
        /// next morsel boundary and answered with
        /// [`Frame::Rejected`]`{ code: DeadlineExceeded }`.
        deadline_ms: u32,
        /// SQL text.
        sql: String,
    },
    /// First response frame of a successful query: the result schema.
    ResultHeader {
        /// Output column names.
        columns: Vec<String>,
    },
    /// A streamed batch of result rows, column by column: what a version-3
    /// server answers with.
    ColumnBatch(ColumnBatch),
    /// A streamed batch of result rows, row by row: what versions 1 and 2
    /// answered with. No server in this tree sends it.
    RowBatch {
        /// The rows.
        rows: Vec<Vec<Value>>,
    },
    /// Successful end of a result stream, with server-side timings.
    Done(Footer),
    /// The query failed.
    Error(DbError),
    /// The server refused or abandoned the query without executing it to
    /// completion — overload protection, not failure. The connection (and
    /// its session) remain healthy; the client should wait at least
    /// `retry_after_ms` before retrying.
    Rejected {
        /// Why the query was shed.
        code: RejectCode,
        /// Server's hint: wait at least this long before retrying, ms.
        retry_after_ms: u32,
    },
    /// Client is closing the connection.
    Bye,
}

/// Why a [`Frame::Rejected`] was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Admission control: the in-flight budget or accept backlog is full.
    Overloaded,
    /// The query's deadline passed — in queue, or mid-execution (the
    /// cooperative cancellation discarded partial work).
    DeadlineExceeded,
    /// The server is draining and takes no new work.
    ShuttingDown,
    /// A code byte this build does not know — forward compatibility with
    /// newer servers; treat as retryable.
    Unknown(u8),
}

impl RejectCode {
    /// The wire byte.
    fn to_byte(self) -> u8 {
        match self {
            RejectCode::Overloaded => RC_OVERLOADED,
            RejectCode::DeadlineExceeded => RC_DEADLINE_EXCEEDED,
            RejectCode::ShuttingDown => RC_SHUTTING_DOWN,
            RejectCode::Unknown(b) => b,
        }
    }

    /// Decodes a wire byte; never fails — unknown bytes become
    /// [`RejectCode::Unknown`] so old clients survive new reject reasons.
    fn from_byte(b: u8) -> Self {
        match b {
            RC_OVERLOADED => RejectCode::Overloaded,
            RC_DEADLINE_EXCEEDED => RejectCode::DeadlineExceeded,
            RC_SHUTTING_DOWN => RejectCode::ShuttingDown,
            other => RejectCode::Unknown(other),
        }
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectCode::Overloaded => f.write_str("overloaded"),
            RejectCode::DeadlineExceeded => f.write_str("deadline exceeded"),
            RejectCode::ShuttingDown => f.write_str("shutting down"),
            RejectCode::Unknown(b) => write!(f, "unknown reject code {b}"),
        }
    }
}

const FT_HELLO: u8 = 1;
const FT_HELLO_OK: u8 = 2;
const FT_QUERY: u8 = 3;
const FT_RESULT_HEADER: u8 = 4;
const FT_ROW_BATCH: u8 = 5;
const FT_DONE: u8 = 6;
const FT_ERROR: u8 = 7;
const FT_BYE: u8 = 8;
const FT_REJECTED: u8 = 9;
const FT_COLUMN_BATCH: u8 = 10;

// Column kinds of a `ColumnBatch`; 0..=3 are `perfeval-store`'s type tags.
const CK_INT: u8 = 0;
const CK_FLOAT: u8 = 1;
const CK_STR: u8 = 2;
const CK_BOOL: u8 = 3;
const CK_VALUES: u8 = 4;

const RC_OVERLOADED: u8 = 1;
const RC_DEADLINE_EXCEEDED: u8 = 2;
const RC_SHUTTING_DOWN: u8 = 3;

const VT_INT: u8 = 1;
const VT_FLOAT: u8 = 2;
const VT_STR: u8 = 3;
const VT_BOOL_FALSE: u8 = 4;
const VT_BOOL_TRUE: u8 = 5;
const VT_NULL: u8 = 6;

const ET_PARSE: u8 = 1;
const ET_UNKNOWN_TABLE: u8 = 2;
const ET_UNKNOWN_COLUMN: u8 = 3;
const ET_DUPLICATE_TABLE: u8 = 4;
const ET_TYPE_MISMATCH: u8 = 5;
const ET_SEMANTIC: u8 = 6;
const ET_ARITY: u8 = 7;
const ET_IO: u8 = 8;
const ET_CANCELLED: u8 = 9;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    // Bit pattern, not a decimal rendering: NaN payloads, -0.0, and the
    // last ulp all survive the wire.
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends fixed-width words back to back — a column slice as one plain
/// little-endian run.
fn put_words<const N: usize>(buf: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; N]>) {
    let at = buf.len();
    buf.resize(at + words.len() * N, 0);
    for (slot, word) in buf[at..].chunks_exact_mut(N).zip(words) {
        slot.copy_from_slice(&word);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(corrupt("frame truncated")),
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `n` fixed-width words. The product is checked against the bytes
    /// left before the caller can reserve anything for it.
    fn words<const N: usize>(
        &mut self,
        n: usize,
    ) -> io::Result<impl Iterator<Item = [u8; N]> + 'a> {
        let len = n.checked_mul(N).ok_or_else(|| corrupt("frame truncated"))?;
        let bytes = self.take(len)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|w| w.try_into().expect("chunks_exact yields N bytes")))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf-8 in frame"))
    }

    fn finish(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes in frame"))
        }
    }
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wire protocol: {msg}"))
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(VT_INT);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            buf.push(VT_FLOAT);
            put_f64(buf, *f);
        }
        Value::Str(s) => {
            buf.push(VT_STR);
            put_str(buf, s);
        }
        Value::Bool(false) => buf.push(VT_BOOL_FALSE),
        Value::Bool(true) => buf.push(VT_BOOL_TRUE),
        Value::Null => buf.push(VT_NULL),
    }
}

fn decode_value(c: &mut Cursor<'_>) -> io::Result<Value> {
    Ok(match c.u8()? {
        VT_INT => Value::Int(c.u64()? as i64),
        VT_FLOAT => Value::Float(c.f64()?),
        VT_STR => Value::Str(c.str()?),
        VT_BOOL_FALSE => Value::Bool(false),
        VT_BOOL_TRUE => Value::Bool(true),
        VT_NULL => Value::Null,
        t => return Err(corrupt(&format!("unknown value tag {t}"))),
    })
}

fn encode_error(buf: &mut Vec<u8>, e: &DbError) {
    match e {
        DbError::Parse(m) => {
            buf.push(ET_PARSE);
            put_str(buf, m);
        }
        DbError::UnknownTable(m) => {
            buf.push(ET_UNKNOWN_TABLE);
            put_str(buf, m);
        }
        DbError::UnknownColumn(m) => {
            buf.push(ET_UNKNOWN_COLUMN);
            put_str(buf, m);
        }
        DbError::DuplicateTable(m) => {
            buf.push(ET_DUPLICATE_TABLE);
            put_str(buf, m);
        }
        DbError::TypeMismatch(m) => {
            buf.push(ET_TYPE_MISMATCH);
            put_str(buf, m);
        }
        DbError::Semantic(m) => {
            buf.push(ET_SEMANTIC);
            put_str(buf, m);
        }
        DbError::Arity { expected, got } => {
            buf.push(ET_ARITY);
            put_u64(buf, *expected as u64);
            put_u64(buf, *got as u64);
        }
        DbError::Io(m) => {
            buf.push(ET_IO);
            put_str(buf, m);
        }
        DbError::Cancelled(m) => {
            buf.push(ET_CANCELLED);
            put_str(buf, m);
        }
    }
}

fn decode_error(c: &mut Cursor<'_>) -> io::Result<DbError> {
    Ok(match c.u8()? {
        ET_PARSE => DbError::Parse(c.str()?),
        ET_UNKNOWN_TABLE => DbError::UnknownTable(c.str()?),
        ET_UNKNOWN_COLUMN => DbError::UnknownColumn(c.str()?),
        ET_DUPLICATE_TABLE => DbError::DuplicateTable(c.str()?),
        ET_TYPE_MISMATCH => DbError::TypeMismatch(c.str()?),
        ET_SEMANTIC => DbError::Semantic(c.str()?),
        ET_ARITY => DbError::Arity {
            expected: c.u64()? as usize,
            got: c.u64()? as usize,
        },
        ET_IO => DbError::Io(c.str()?),
        ET_CANCELLED => DbError::Cancelled(c.str()?),
        t => return Err(corrupt(&format!("unknown error tag {t}"))),
    })
}

/// Encoded size of one tagged value.
fn value_len(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Bool(_) | Value::Null => 1,
    }
}

/// A window of result rows as columns — the payload of
/// [`Frame::ColumnBatch`].
///
/// A server cuts batches off the engine's result ([`ColumnBatch::batches`])
/// without touching a value: a batch over typed columns holds the columns
/// by `Arc` plus the window, and [`Frame::encode`] copies each value once,
/// from the engine's vector into the frame's bytes. A decoded batch owns
/// its columns (a string column as the frame's dictionary, not as an
/// engine column). Rows exist only after [`ColumnBatch::append_rows_to`],
/// which is the client's job.
///
/// Two batches are equal when they encode to the same bytes: values by
/// bits, and a window equal to its decoded copy.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    /// Every column carries this many values.
    rows: usize,
    /// Where the window starts in each `Typed` column; 0 once decoded.
    start: usize,
    columns: Vec<BatchColumn>,
}

#[derive(Debug, Clone)]
enum BatchColumn {
    /// `rows` values of a batch-engine column, from `start`.
    Typed(Arc<Column>),
    /// What a string column's bytes decode to: the frame's dictionary as
    /// one text plus where each entry ends, and `rows` codes into it. Not
    /// an engine column — that would want an allocation per entry and a
    /// reverse index, and a client reads each cell once.
    Strs {
        text: String,
        ends: Vec<u32>,
        codes: Vec<u32>,
    },
    /// Exactly `rows` tagged values, NULL allowed: the debug interpreter's
    /// cells.
    Values(Vec<Value>),
}

/// The batches of one result, cut off its front one at a time: what
/// [`ColumnBatch::batches`] returns. Nothing of the result is copied or
/// encoded until a batch handed out is.
#[derive(Debug)]
pub struct Batches(Uncut);

/// What of a result has not been handed out yet.
#[derive(Debug)]
enum Uncut {
    /// The batch engine's columns and how many rows of them are out.
    Columns {
        columns: Vec<Arc<Column>>,
        sent: usize,
    },
    /// The debug interpreter's rows still to go.
    Rows(std::vec::IntoIter<Vec<Value>>),
}

/// Entry `code` of a decoded dictionary.
fn entry<'a>(text: &'a str, ends: &[u32], code: u32) -> &'a str {
    let from = match code {
        0 => 0,
        _ => ends[code as usize - 1],
    };
    &text[from as usize..ends[code as usize] as usize]
}

impl Iterator for Batches {
    type Item = ColumnBatch;

    fn next(&mut self) -> Option<ColumnBatch> {
        match &mut self.0 {
            Uncut::Columns { columns, sent } => {
                let batch = ColumnBatch::cut(columns, *sent)?;
                *sent += batch.rows;
                Some(batch)
            }
            Uncut::Rows(rows) => ColumnBatch::cut_rows(rows),
        }
    }
}

impl ColumnBatch {
    /// Cuts a result into the batches a server streams: each takes as many
    /// rows as keep its frame within [`BATCH_BYTES`], and at least one. An
    /// empty result has no batch.
    ///
    /// # Panics
    /// Panics if the result's columns differ in length, or its rows in
    /// width.
    pub fn batches(data: ResultData) -> Batches {
        Batches(match data {
            ResultData::Columns(columns) => Uncut::Columns { columns, sent: 0 },
            ResultData::Rows(rows) => Uncut::Rows(rows.into_iter()),
        })
    }

    /// The next batch of a columnar result whose first `start` rows are
    /// out; `None` when no row is left. Costs nothing per row unless a
    /// column holds strings, whose lengths are then summed — each counted
    /// as if the frame had not seen it yet, so a frame of repeated strings
    /// comes out under the cut, never over.
    fn cut(columns: &[Arc<Column>], start: usize) -> Option<ColumnBatch> {
        let total = columns.first().map_or(0, |c| c.len());
        assert!(
            columns.iter().all(|c| c.len() == total),
            "result columns of one length"
        );
        if start >= total {
            return None;
        }
        let fixed: usize = columns.iter().map(|c| c.value_bytes() as usize).sum();
        let strs: Vec<_> = columns.iter().filter_map(|c| c.as_str_codes()).collect();
        let rows = if strs.is_empty() {
            (BATCH_BYTES / fixed).clamp(1, total - start)
        } else {
            let mut bytes = 0;
            (start..total)
                .take_while(|&r| {
                    bytes += fixed;
                    for (dict, codes) in &strs {
                        bytes += 4 + dict[codes[r] as usize].len();
                    }
                    r == start || bytes <= BATCH_BYTES
                })
                .count()
        };
        Some(ColumnBatch {
            rows,
            start,
            columns: columns
                .iter()
                .map(|c| BatchColumn::Typed(Arc::clone(c)))
                .collect(),
        })
    }

    /// The next batch of a result that exists as rows: takes rows off the
    /// front of `rows`, as many as encode to the budget, and turns them
    /// into columns of tagged values (moved, not cloned). `None` when no
    /// row is left.
    fn cut_rows(rows: &mut std::vec::IntoIter<Vec<Value>>) -> Option<ColumnBatch> {
        let width = rows.as_slice().first()?.len();
        let mut bytes = 0;
        let n = rows
            .as_slice()
            .iter()
            .enumerate()
            .take_while(|(i, row)| {
                bytes += row.iter().map(value_len).sum::<usize>();
                *i == 0 || bytes <= BATCH_BYTES
            })
            .count();
        let mut columns: Vec<_> = (0..width).map(|_| Vec::with_capacity(n)).collect();
        for row in rows.by_ref().take(n) {
            assert_eq!(row.len(), width, "result rows of one width");
            for (column, v) in columns.iter_mut().zip(row) {
                column.push(v);
            }
        }
        Some(ColumnBatch {
            rows: n,
            start: 0,
            columns: columns.into_iter().map(BatchColumn::Values).collect(),
        })
    }

    /// Rows in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the batch.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Builds the batch's rows onto the end of `out`.
    pub fn append_rows_to(self, out: &mut Vec<Vec<Value>>) {
        let ColumnBatch {
            rows,
            start,
            mut columns,
        } = self;
        out.reserve(rows);
        for i in 0..rows {
            out.push(
                columns
                    .iter_mut()
                    .map(|column| match column {
                        BatchColumn::Typed(c) => c.get(start + i),
                        BatchColumn::Strs { text, ends, codes } => {
                            Value::Str(entry(text, ends, codes[i]).to_owned())
                        }
                        BatchColumn::Values(v) => std::mem::replace(&mut v[i], Value::Null),
                    })
                    .collect(),
            );
        }
    }

    /// Encoded size, string dictionaries and string values aside.
    fn fixed_len(&self) -> usize {
        let widths = self.columns.iter().map(|column| match column {
            BatchColumn::Typed(c) => c.value_bytes() as usize,
            BatchColumn::Strs { .. } => 4,
            BatchColumn::Values(_) => 9,
        });
        8 + widths.map(|w| 1 + self.rows * w).sum::<usize>()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let (rows, window) = (self.rows, self.start..self.start + self.rows);
        put_u32(buf, rows as u32);
        put_u32(buf, self.columns.len() as u32);
        for column in &self.columns {
            match column {
                BatchColumn::Typed(c) => match &**c {
                    Column::Int(v) => {
                        buf.push(CK_INT);
                        put_words(buf, v[window.clone()].iter().map(|x| x.to_le_bytes()));
                    }
                    Column::Float(v) => {
                        buf.push(CK_FLOAT);
                        let bits = v[window.clone()].iter().map(|x| x.to_bits());
                        put_words(buf, bits.map(u64::to_le_bytes));
                    }
                    Column::Bool(v) => {
                        buf.push(CK_BOOL);
                        buf.extend(v[window.clone()].iter().map(|&b| u8::from(b)));
                    }
                    Column::Str { dict, codes } => {
                        buf.push(CK_STR);
                        encode_strings(buf, dict.values(), &codes[window.clone()]);
                    }
                },
                BatchColumn::Strs { text, ends, codes } => {
                    buf.push(CK_STR);
                    put_u32(buf, ends.len() as u32);
                    for code in 0..ends.len() as u32 {
                        put_str(buf, entry(text, ends, code));
                    }
                    put_words(buf, codes.iter().map(|code| code.to_le_bytes()));
                }
                BatchColumn::Values(v) => {
                    buf.push(CK_VALUES);
                    for value in v {
                        encode_value(buf, value);
                    }
                }
            }
        }
    }

    fn decode(c: &mut Cursor<'_>) -> io::Result<ColumnBatch> {
        let rows = c.u32()? as usize;
        let width = c.u32()? as usize;
        if width == 0 && rows > 0 {
            return Err(corrupt("rows without columns"));
        }
        // Nothing is reserved on the word of `width`: columns are few, and
        // each is pushed once its own bytes have been found.
        let mut columns = Vec::new();
        for _ in 0..width {
            columns.push(match c.u8()? {
                CK_INT => {
                    let v = c.words(rows)?.map(i64::from_le_bytes).collect();
                    BatchColumn::Typed(Arc::new(Column::Int(v)))
                }
                CK_FLOAT => {
                    let bits = c.words(rows)?.map(u64::from_le_bytes);
                    BatchColumn::Typed(Arc::new(Column::Float(bits.map(f64::from_bits).collect())))
                }
                CK_BOOL => {
                    let v = c.take(rows)?.iter().map(|&b| match b {
                        0 => Ok(false),
                        1 => Ok(true),
                        _ => Err(corrupt("bool byte out of range")),
                    });
                    BatchColumn::Typed(Arc::new(Column::Bool(v.collect::<io::Result<_>>()?)))
                }
                CK_STR => {
                    let n = c.u32()? as usize;
                    // Four length bytes per entry at the least.
                    let mut ends = Vec::with_capacity(n.min(c.remaining() / 4));
                    let mut text = String::new();
                    for _ in 0..n {
                        let len = c.u32()? as usize;
                        let entry = std::str::from_utf8(c.take(len)?)
                            .map_err(|_| corrupt("invalid utf-8 in frame"))?;
                        text.push_str(entry);
                        ends.push(text.len() as u32);
                    }
                    let codes: Vec<u32> = c.words(rows)?.map(u32::from_le_bytes).collect();
                    if codes.iter().any(|&code| code as usize >= n) {
                        return Err(corrupt("dictionary code out of range"));
                    }
                    BatchColumn::Strs { text, ends, codes }
                }
                CK_VALUES => {
                    // One tag byte per value at the least.
                    let mut v = Vec::with_capacity(rows.min(c.remaining()));
                    for _ in 0..rows {
                        v.push(decode_value(c)?);
                    }
                    BatchColumn::Values(v)
                }
                k => return Err(corrupt(&format!("unknown column kind {k}"))),
            });
        }
        Ok(ColumnBatch {
            rows,
            start: 0,
            columns,
        })
    }
}

impl PartialEq for ColumnBatch {
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.encode(&mut a);
        other.encode(&mut b);
        a == b
    }
}

/// A string column's window as a dictionary local to the frame — the
/// window's distinct strings in the order its rows first show them — then
/// the rows as codes into it. The cost follows the rows of the window,
/// never the size of `values`: a one-row answer out of a table-wide
/// dictionary writes one entry and looks at no other.
fn encode_strings(buf: &mut Vec<u8>, values: &[String], codes: &[u32]) {
    let dict_len_at = buf.len();
    put_u32(buf, 0);
    let mut local = HashMap::with_capacity(codes.len().min(values.len()));
    let mut local_codes = Vec::with_capacity(codes.len());
    for &code in codes {
        let next = local.len() as u32;
        local_codes.push(*local.entry(code).or_insert_with(|| {
            put_str(buf, &values[code as usize]);
            next
        }));
    }
    buf[dict_len_at..dict_len_at + 4].copy_from_slice(&(local.len() as u32).to_le_bytes());
    put_words(buf, local_codes.into_iter().map(u32::to_le_bytes));
}

impl Frame {
    /// Encodes the frame, including its length prefix.
    pub fn encode(&self) -> Vec<u8> {
        // The prefix goes first and is patched last: the body is written
        // once, where it stays — for a batch, into a buffer sized for its
        // numbers up front (strings grow it).
        let mut out = Vec::with_capacity(match self {
            Frame::ColumnBatch(batch) => 5 + batch.fixed_len(),
            Frame::RowBatch { rows } => 9 + rows.iter().map(|r| 4 + 9 * r.len()).sum::<usize>(),
            _ => 0,
        });
        put_u32(&mut out, 0);
        match self {
            Frame::Hello { version } => {
                out.push(FT_HELLO);
                put_u32(&mut out, *version);
            }
            Frame::HelloOk { version } => {
                out.push(FT_HELLO_OK);
                put_u32(&mut out, *version);
            }
            Frame::Query {
                trace_parent,
                deadline_ms,
                sql,
            } => {
                out.push(FT_QUERY);
                put_u64(&mut out, *trace_parent);
                put_u32(&mut out, *deadline_ms);
                put_str(&mut out, sql);
            }
            Frame::ResultHeader { columns } => {
                out.push(FT_RESULT_HEADER);
                put_u32(&mut out, columns.len() as u32);
                for c in columns {
                    put_str(&mut out, c);
                }
            }
            Frame::ColumnBatch(batch) => {
                out.push(FT_COLUMN_BATCH);
                batch.encode(&mut out);
            }
            Frame::RowBatch { rows } => {
                out.push(FT_ROW_BATCH);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_u32(&mut out, row.len() as u32);
                    for v in row {
                        encode_value(&mut out, v);
                    }
                }
            }
            Frame::Done(f) => {
                out.push(FT_DONE);
                put_f64(&mut out, f.parse_ms);
                put_f64(&mut out, f.optimize_ms);
                put_f64(&mut out, f.execute_ms);
                put_f64(&mut out, f.execute_cpu_ms);
                put_f64(&mut out, f.serialize_ms);
                put_u64(&mut out, f.rows);
            }
            Frame::Error(e) => {
                out.push(FT_ERROR);
                encode_error(&mut out, e);
            }
            Frame::Rejected {
                code,
                retry_after_ms,
            } => {
                out.push(FT_REJECTED);
                out.push(code.to_byte());
                put_u32(&mut out, *retry_after_ms);
            }
            Frame::Bye => out.push(FT_BYE),
        }
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Decodes one frame body (type byte + payload, length prefix already
    /// stripped).
    ///
    /// # Errors
    /// `InvalidData` on unknown tags, truncation, trailing bytes, or bad
    /// UTF-8.
    pub fn decode(body: &[u8]) -> io::Result<Frame> {
        let mut c = Cursor::new(body);
        let frame = match c.u8()? {
            FT_HELLO => Frame::Hello { version: c.u32()? },
            FT_HELLO_OK => Frame::HelloOk { version: c.u32()? },
            FT_QUERY => Frame::Query {
                trace_parent: c.u64()?,
                deadline_ms: c.u32()?,
                sql: c.str()?,
            },
            FT_RESULT_HEADER => {
                let n = c.u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    columns.push(c.str()?);
                }
                Frame::ResultHeader { columns }
            }
            FT_COLUMN_BATCH => Frame::ColumnBatch(ColumnBatch::decode(&mut c)?),
            FT_ROW_BATCH => {
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let w = c.u32()? as usize;
                    let mut row = Vec::with_capacity(w.min(1 << 16));
                    for _ in 0..w {
                        row.push(decode_value(&mut c)?);
                    }
                    rows.push(row);
                }
                Frame::RowBatch { rows }
            }
            FT_DONE => Frame::Done(Footer {
                parse_ms: c.f64()?,
                optimize_ms: c.f64()?,
                execute_ms: c.f64()?,
                execute_cpu_ms: c.f64()?,
                serialize_ms: c.f64()?,
                rows: c.u64()?,
            }),
            FT_ERROR => Frame::Error(decode_error(&mut c)?),
            FT_REJECTED => Frame::Rejected {
                code: RejectCode::from_byte(c.u8()?),
                retry_after_ms: c.u32()?,
            },
            FT_BYE => Frame::Bye,
            t => return Err(corrupt(&format!("unknown frame type {t}"))),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// A transport wrapped with framing, fault sites, and byte accounting: the
/// one wire of every connection. Every read passes the `net.read` failpoint
/// and every write the `net.write` failpoint (key = connection id, attempt =
/// frame ordinal), so perfeval-fault can drop, delay, or hang a connection
/// deterministically, whichever half — blocking or readiness — drives it.
pub struct FramedIo {
    io: Box<dyn Transport>,
    faults: Arc<FaultRegistry>,
    conn_id: u64,
    frames_read: u32,
    frames_written: u32,
    bytes_read: u64,
    bytes_written: u64,
    /// Bytes read off the transport and not yet decoded:
    /// `inbuf[in_start..in_end]`. One `read` takes whatever has arrived —
    /// the rest of this frame, and the frames behind it — and the buffer
    /// is reused from frame to frame.
    inbuf: Vec<u8>,
    in_start: usize,
    in_end: usize,
}

/// Read buffer a [`FramedIo`] starts with. Frames that fill it double it
/// as they arrive, so a connection of small answers keeps this much and one
/// of streamed batches settles at room for a batch and the start of the
/// next.
const READ_BUF_BYTES: usize = 8 * 1024;

impl FramedIo {
    /// Wraps a transport. `conn_id` keys this connection's fault triggers.
    pub fn new(io: Box<dyn Transport>, faults: Arc<FaultRegistry>, conn_id: u64) -> Self {
        FramedIo {
            io,
            faults,
            conn_id,
            frames_read: 0,
            frames_written: 0,
            bytes_read: 0,
            bytes_written: 0,
            inbuf: Vec::new(),
            in_start: 0,
            in_end: 0,
        }
    }

    /// The connection id used as this end's fault-trigger key.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Total payload bytes received so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total payload bytes sent so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Transport description for reports.
    pub fn describe(&self) -> String {
        self.io.describe()
    }

    /// Sends one frame.
    ///
    /// # Errors
    /// Transport errors, or an injected `net.write` failure.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = self.stage(frame)?;
        self.io.write_all(&bytes)?;
        self.io.flush()
    }

    /// Receives one frame, blocking until it arrives. The `net.read` gate
    /// fires before the read blocks.
    ///
    /// # Errors
    /// `UnexpectedEof` if the peer closed, `InvalidData` on protocol
    /// corruption, or an injected `net.read` failure.
    pub fn recv(&mut self) -> io::Result<Frame> {
        self.read_gate()?;
        self.buffer(4)?;
        let total = self.frame_total()?;
        self.buffer(total)?;
        self.cut(total)
    }

    /// Buffers what the transport holds without blocking; `Ok(true)` if it
    /// reported end of stream (what came before stays buffered).
    pub(crate) fn fill(&mut self) -> io::Result<bool> {
        self.compact();
        loop {
            self.make_room();
            match self.io.try_read(&mut self.inbuf[self.in_end..]) {
                Ok(0) => return Ok(true),
                Ok(n) => self.in_end += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next buffered frame, `None` while bytes are missing. A bad length
    /// prefix fails once it is in; the `net.read` gate fires once the frame is.
    pub(crate) fn next_buffered(&mut self) -> io::Result<Option<Frame>> {
        if self.in_end - self.in_start < 4 {
            return Ok(None);
        }
        let total = self.frame_total()?;
        if self.in_end - self.in_start < total {
            return Ok(None);
        }
        self.read_gate()?;
        self.cut(total).map(Some)
    }

    /// Counts, gates (`net.write`) and encodes one outbound frame.
    pub(crate) fn stage(&mut self, frame: &Frame) -> io::Result<Vec<u8>> {
        self.frames_written += 1;
        self.gate("net.write", self.frames_written)?;
        let bytes = frame.encode();
        self.bytes_written += bytes.len() as u64;
        Ok(bytes)
    }

    /// Nonblocking write of staged bytes (see [`Transport::try_write`]).
    pub(crate) fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.io.try_write(bytes)
    }

    /// Counts the next inbound frame and passes it through `net.read`.
    fn read_gate(&mut self) -> io::Result<()> {
        self.frames_read += 1;
        self.gate("net.read", self.frames_read)
    }

    /// Fault site `site` at this frame: delay/jitter/hang/panic actions
    /// first, then the I/O verdict.
    fn gate(&self, site: &str, ordinal: u32) -> io::Result<()> {
        self.faults.fire(site, self.conn_id, ordinal);
        if self.faults.io_fails_at(site, self.conn_id, ordinal) {
            let injected = format!("injected {site} failure");
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, injected));
        }
        Ok(())
    }

    /// Checks the buffered length prefix: the frame's bytes, prefix included.
    fn frame_total(&self) -> io::Result<usize> {
        let prefix = &self.inbuf[self.in_start..self.in_start + 4];
        let len = u32::from_le_bytes(prefix.try_into().expect("four bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(corrupt(&format!("bad frame length {len}")));
        }
        Ok(4 + len as usize)
    }

    /// Decodes the buffered frame of `total` bytes and drops it.
    fn cut(&mut self, total: usize) -> io::Result<Frame> {
        let body = &self.inbuf[self.in_start + 4..self.in_start + total];
        self.in_start += total;
        self.bytes_read += total as u64;
        Frame::decode(body)
    }

    /// Blocks until at least `need` undecoded bytes are buffered. The
    /// buffer grows only when bytes that arrived have filled it, so a
    /// length prefix alone — honest or not — reserves nothing.
    fn buffer(&mut self, need: usize) -> io::Result<()> {
        if self.in_end - self.in_start >= need {
            return Ok(());
        }
        self.compact();
        while self.in_end < need {
            self.make_room();
            match self.io.read(&mut self.inbuf[self.in_end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.in_end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Moves what is left of the last read to the front, so the frame
    /// being assembled is never split by the end of the buffer.
    fn compact(&mut self) {
        self.inbuf.copy_within(self.in_start..self.in_end, 0);
        self.in_end -= self.in_start;
        self.in_start = 0;
    }

    /// Doubles the buffer if arrived bytes filled it.
    fn make_room(&mut self) {
        if self.in_end == self.inbuf.len() {
            let grown = (2 * self.inbuf.len()).max(READ_BUF_BYTES);
            self.inbuf.resize(grown, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::bits_eq;
    use crate::transport::LoopbackConn;
    use proptest::prelude::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix covers the body");
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), frame);
    }

    const STRINGS: [&str; 5] = ["", "a", "naïve", "日本語", "a longer string, with spaces"];

    /// One column of every typed kind, a row per word: the word as an
    /// integer, its bits as a float (so NaN payloads, infinities and
    /// subnormals all occur), one of `STRINGS`, its low bit.
    fn typed_columns(words: &[u64]) -> Vec<Arc<Column>> {
        let mut strs = Column::new(minidb::DataType::Str);
        for w in words {
            let s = STRINGS[(w >> 8) as usize % STRINGS.len()];
            strs.push(Value::Str(s.to_owned())).unwrap();
        }
        vec![
            Arc::new(Column::Int(words.iter().map(|&w| w as i64).collect())),
            Arc::new(Column::Float(
                words.iter().map(|&w| f64::from_bits(w)).collect(),
            )),
            Arc::new(strs),
            Arc::new(Column::Bool(words.iter().map(|&w| w & 1 == 1).collect())),
        ]
    }

    /// What the debug interpreter can answer and the batch engine cannot:
    /// NULLs, and a column whose type changes from row to row.
    fn debug_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(-5), Value::Null, Value::Str("x".into())],
            vec![Value::Null, Value::Float(-0.0), Value::Str(String::new())],
            vec![Value::Bool(true), Value::Float(f64::NAN), Value::Null],
            vec![Value::Str("日本".into()), Value::Int(7), Value::Bool(false)],
        ]
    }

    /// Cuts `columns` into batches, sends each through its bytes, and
    /// returns the rows the far side builds plus each batch's row count.
    fn through_the_wire(columns: &[Arc<Column>]) -> (Vec<Vec<Value>>, Vec<usize>) {
        let (mut rows, mut cuts) = (Vec::new(), Vec::new());
        while let Some(batch) = ColumnBatch::cut(columns, rows.len()) {
            cuts.push(batch.rows());
            let bytes = Frame::ColumnBatch(batch).encode();
            // Prefix, type, counts, and a kind byte and an entry count a
            // column: the rest is what the cut budgets.
            let framing = 13 + 5 * columns.len();
            assert!(bytes.len() <= BATCH_BYTES + framing || cuts.last() == Some(&1));
            match Frame::decode(&bytes[4..]).unwrap() {
                Frame::ColumnBatch(batch) => {
                    assert_eq!(batch.width(), columns.len());
                    batch.append_rows_to(&mut rows);
                }
                f => panic!("wrong frame {f:?}"),
            }
        }
        (rows, cuts)
    }

    fn assert_rows_are(columns: &[Arc<Column>], rows: &[Vec<Value>]) {
        assert_eq!(rows.len(), columns.first().map_or(0, |c| c.len()));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), columns.len());
            for (c, v) in columns.iter().zip(row) {
                assert!(bits_eq(&c.get(i), v), "row {i}: {:?} != {v:?}", c.get(i));
            }
        }
    }

    #[test]
    fn column_batches_cut_at_the_byte_budget_and_keep_every_bit() {
        // Int + Float: 16 bytes a row, so the cut falls at 4 096 rows.
        let cut = BATCH_BYTES / 16;
        let specials = [
            f64::NAN.to_bits(),
            f64::NAN.to_bits() | 0xdead, // a NaN payload
            (-f64::NAN).to_bits(),
            (-0.0f64).to_bits(),
            0,
            f64::INFINITY.to_bits(),
            f64::MIN_POSITIVE.to_bits() >> 3, // subnormal
        ];
        for n in [0, 1, cut - 1, cut, cut + 1, 3 * cut + 7] {
            let words: Vec<u64> = (0..n as u64)
                .map(|i| specials[i as usize % specials.len()] ^ (i / 7) << 13)
                .collect();
            let columns = &typed_columns(&words)[..2];
            let (rows, cuts) = through_the_wire(columns);
            assert_rows_are(columns, &rows);
            assert_eq!(cuts.len(), n.div_ceil(cut), "{n} rows");
            assert!(
                cuts.iter().rev().skip(1).all(|&c| c == cut),
                "{n}: {cuts:?}"
            );
        }
    }

    #[test]
    fn a_string_column_is_cut_by_its_strings_and_sent_as_a_frame_local_dictionary() {
        // One table-wide dictionary of 7 500 long entries; the answer uses
        // three of them, out of dictionary order, one twice.
        let mut col = Column::new(minidb::DataType::Str);
        for i in 0..7_500 {
            col.push(Value::Str(format!("{i:0>64}"))).unwrap();
        }
        let col = Arc::new(col.take(&[7_000, 12, 7_000, 3]));
        let batch = ColumnBatch::cut(std::slice::from_ref(&col), 0).unwrap();
        assert_eq!(batch.rows(), 4);
        let bytes = Frame::ColumnBatch(batch).encode();
        // rows, columns, kind, entry count, 3 x (len + 64 bytes), 4 codes.
        assert_eq!(bytes.len(), 4 + 1 + 8 + 1 + 4 + 3 * 68 + 4 * 4);
        let codes = &bytes[bytes.len() - 16..];
        assert_eq!(codes, [0u32, 1, 0, 2].map(u32::to_le_bytes).concat());

        // Long distinct strings fill a frame long before 64 Ki codes do.
        let mut wide = Column::new(minidb::DataType::Str);
        for i in 0..4_000 {
            wide.push(Value::Str(format!("{i:0>100}"))).unwrap();
        }
        let columns = [Arc::new(wide)];
        let (rows, cuts) = through_the_wire(&columns);
        assert_rows_are(&columns, &rows);
        assert_eq!(
            cuts[0],
            BATCH_BYTES / 108,
            "4 code + 4 len + 100 bytes a row"
        );
        assert!(cuts.len() >= 6);
    }

    #[test]
    fn debug_rows_cross_as_tagged_value_columns() {
        let want = debug_rows();
        let mut rows = want.clone().into_iter();
        let batch = ColumnBatch::cut_rows(&mut rows).unwrap();
        assert!(ColumnBatch::cut_rows(&mut rows).is_none());
        assert_eq!((batch.rows(), batch.width()), (4, 3));
        let bytes = Frame::ColumnBatch(batch).encode();
        let mut got = Vec::new();
        match Frame::decode(&bytes[4..]).unwrap() {
            Frame::ColumnBatch(batch) => batch.append_rows_to(&mut got),
            f => panic!("wrong frame {f:?}"),
        }
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
            assert!(bits_eq(g, w), "{g:?} != {w:?}");
        }

        // The 1x1 answer of a DDL/DML statement takes the same road.
        let mut one = vec![vec![Value::Int(2)]].into_iter();
        let bytes = Frame::ColumnBatch(ColumnBatch::cut_rows(&mut one).unwrap()).encode();
        assert_eq!(bytes.len(), 4 + 1 + 8 + 1 + 9);

        // Rows are cut by what they encode to: 9 bytes a cell here.
        let many: Vec<Vec<Value>> = (0..20_000).map(|i| vec![Value::Int(i)]).collect();
        let mut rows = many.into_iter();
        let first = ColumnBatch::cut_rows(&mut rows).unwrap();
        assert_eq!(first.rows(), BATCH_BYTES / 9);
        assert_eq!(rows.len(), 20_000 - BATCH_BYTES / 9);
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        roundtrip(Frame::Hello { version: 1 });
        roundtrip(Frame::HelloOk { version: 7 });
        roundtrip(Frame::Query {
            trace_parent: 0xdead_beef,
            deadline_ms: 0,
            sql: "SELECT 1".to_owned(),
        });
        roundtrip(Frame::Query {
            trace_parent: 7,
            deadline_ms: 250,
            sql: "SELECT COUNT(*) FROM t".to_owned(),
        });
        roundtrip(Frame::ResultHeader {
            columns: vec!["a".into(), "sum_b".into()],
        });
        roundtrip(Frame::RowBatch {
            rows: vec![
                vec![
                    Value::Int(-5),
                    Value::Float(1.5),
                    Value::Str("x".into()),
                    Value::Bool(true),
                    Value::Null,
                ],
                vec![Value::Bool(false)],
                vec![],
            ],
        });
        let typed = typed_columns(&[3, 1, 4, 1, 5]);
        roundtrip(Frame::ColumnBatch(ColumnBatch::cut(&typed, 2).unwrap()));
        let mut debug = debug_rows().into_iter();
        roundtrip(Frame::ColumnBatch(
            ColumnBatch::cut_rows(&mut debug).unwrap(),
        ));
        roundtrip(Frame::Done(Footer {
            parse_ms: 0.25,
            optimize_ms: 0.5,
            execute_ms: 12.0,
            execute_cpu_ms: 11.5,
            serialize_ms: 0.75,
            rows: 42,
        }));
        roundtrip(Frame::Error(DbError::Arity {
            expected: 3,
            got: 2,
        }));
        roundtrip(Frame::Error(DbError::Parse("near 'FROM'".into())));
        roundtrip(Frame::Error(DbError::Cancelled("deadline exceeded".into())));
        for code in [
            RejectCode::Overloaded,
            RejectCode::DeadlineExceeded,
            RejectCode::ShuttingDown,
        ] {
            roundtrip(Frame::Rejected {
                code,
                retry_after_ms: 12,
            });
        }
        roundtrip(Frame::Bye);
    }

    #[test]
    fn unknown_reject_code_decodes_forward_compatibly() {
        // A newer server may send reject reasons this build has no variant
        // for; the decoder must yield Unknown(b), not a protocol error.
        for b in [0u8, 4, 99, 255] {
            let body = vec![FT_REJECTED, b, 7, 0, 0, 0];
            match Frame::decode(&body).unwrap() {
                Frame::Rejected {
                    code: RejectCode::Unknown(got),
                    retry_after_ms: 7,
                } => assert_eq!(got, b),
                f => panic!("expected Unknown({b}), got {f:?}"),
            }
        }
        // And Unknown codes re-encode to the same byte (proxy-safe).
        roundtrip(Frame::Rejected {
            code: RejectCode::Unknown(200),
            retry_after_ms: 0,
        });
    }

    proptest! {
        #[test]
        fn query_header_roundtrips(
            trace_parent in any::<u64>(),
            deadline_ms in any::<u32>(),
            chars in prop::collection::vec(0u32..95, 0..120),
        ) {
            // Printable-ASCII SQL of arbitrary length; the header fields
            // around it must frame and unframe exactly.
            let sql: String = chars.iter().map(|&c| (b' ' + c as u8) as char).collect();
            let frame = Frame::Query { trace_parent, deadline_ms, sql };
            let bytes = frame.encode();
            prop_assert_eq!(Frame::decode(&bytes[4..]).unwrap(), frame);
        }

        #[test]
        fn column_batch_roundtrips_every_kind_by_bits(
            words in prop::collection::vec(any::<u64>(), 0..300),
            start in 0usize..300,
        ) {
            // Any window of any columns: what the far side builds is what
            // `Column::get` reads on this side, floats by bits.
            let columns = typed_columns(&words);
            let Some(batch) = ColumnBatch::cut(&columns, start) else {
                prop_assert!(start >= words.len());
                return Ok(());
            };
            prop_assert_eq!(batch.rows(), words.len() - start);
            let frame = Frame::ColumnBatch(batch);
            let bytes = frame.encode();
            let decoded = Frame::decode(&bytes[4..]).unwrap();
            prop_assert_eq!(&decoded, &frame);
            let mut rows = Vec::new();
            match decoded {
                Frame::ColumnBatch(batch) => batch.append_rows_to(&mut rows),
                f => panic!("wrong frame {f:?}"),
            }
            for (i, row) in rows.iter().enumerate() {
                for (c, v) in columns.iter().zip(row) {
                    prop_assert!(bits_eq(&c.get(start + i), v));
                }
            }
        }

        #[test]
        fn rejected_roundtrips_any_code_byte(
            byte in 0u32..256,
            retry_after_ms in any::<u32>(),
        ) {
            // Every byte value decodes (known codes to their variant,
            // the rest to Unknown) and re-encodes to the same byte.
            let byte = byte as u8;
            let frame = Frame::Rejected {
                code: RejectCode::from_byte(byte),
                retry_after_ms,
            };
            let bytes = frame.encode();
            let decoded = Frame::decode(&bytes[4..]).unwrap();
            prop_assert_eq!(&decoded, &frame);
            match decoded {
                Frame::Rejected { code, .. } => {
                    prop_assert_eq!(code.to_byte(), byte)
                }
                f => panic!("wrong frame {f:?}"),
            }
        }
    }

    #[test]
    fn floats_survive_bit_exact() {
        for f in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.0 + f64::EPSILON,
            core::f64::consts::PI,
        ] {
            let frame = Frame::RowBatch {
                rows: vec![vec![Value::Float(f)]],
            };
            let bytes = frame.encode();
            match Frame::decode(&bytes[4..]).unwrap() {
                Frame::RowBatch { rows } => match rows[0][0] {
                    Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                    ref v => panic!("wrong value {v:?}"),
                },
                f => panic!("wrong frame {f:?}"),
            }
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(Frame::decode(&[]).is_err(), "empty body");
        assert!(Frame::decode(&[99]).is_err(), "unknown frame type");
        assert!(Frame::decode(&[FT_HELLO, 1, 0]).is_err(), "truncated");
        let mut ok = Frame::Bye.encode();
        ok.push(0); // trailing byte after a valid frame
        assert!(Frame::decode(&ok[4..]).is_err(), "trailing bytes");
        // Invalid UTF-8 in a string payload.
        let mut body = vec![FT_QUERY];
        put_u64(&mut body, 0);
        put_u32(&mut body, 0); // deadline_ms
        put_u32(&mut body, 2);
        body.extend_from_slice(&[0xff, 0xfe]);
        assert!(Frame::decode(&body).is_err(), "invalid utf-8");
    }

    #[test]
    fn framed_io_sends_and_receives_over_loopback() {
        let (a, b) = LoopbackConn::pair(1024);
        let faults = Arc::new(FaultRegistry::disabled());
        let mut fa = FramedIo::new(Box::new(a), Arc::clone(&faults), 1);
        let mut fb = FramedIo::new(Box::new(b), faults, 2);
        let sent = Frame::Query {
            trace_parent: 9,
            deadline_ms: 0,
            sql: "SELECT * FROM t".to_owned(),
        };
        fa.send(&sent).unwrap();
        assert_eq!(fb.recv().unwrap(), sent);
        assert_eq!(fa.bytes_written(), fb.bytes_read());
        assert!(fa.bytes_written() > 0);
    }

    #[test]
    fn framed_io_peer_close_is_unexpected_eof() {
        let (a, b) = LoopbackConn::pair(64);
        let faults = Arc::new(FaultRegistry::disabled());
        drop(a);
        let mut fb = FramedIo::new(Box::new(b), faults, 1);
        let err = fb.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn framed_io_honours_injected_read_failure() {
        use perfeval_fault::{FaultAction, Trigger};
        let (a, b) = LoopbackConn::pair(64);
        let faults = Arc::new(FaultRegistry::new(0).armed_always(
            "net.read",
            Trigger::Key(7),
            FaultAction::FailIo,
        ));
        let mut fa = FramedIo::new(Box::new(a), Arc::clone(&faults), 1);
        let mut fb = FramedIo::new(Box::new(b), faults, 7);
        fa.send(&Frame::Bye).unwrap();
        let err = fb.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }
}
