//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 LE payload length][u8 frame type][payload]`. The
//! length covers the type byte plus payload, so a reader can skip unknown
//! frames. Integers are little-endian; floats travel as `f64::to_bits()`
//! so a value survives the wire **bit-identical** — the acceptance bar for
//! the whole subsystem (see `tests/roundtrip.rs`).
//!
//! Conversation shape:
//!
//! ```text
//! client                      server
//!   Hello{version}      ──▶
//!                       ◀──  HelloOk{version}
//!   Query{span, deadline, sql} ──▶
//!                       ◀──  ResultHeader{columns}
//!                       ◀──  RowBatch{rows}           (0..n, streamed)
//!                       ◀──  Done{footer}             (server-side timings)
//!        — or —
//!                       ◀──  Error{code, message}
//!        — or —
//!                       ◀──  Rejected{code, retry_after_ms}
//!   Bye                 ──▶
//! ```
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

use std::io::{self, Read, Write};
use std::sync::Arc;

use minidb::{DbError, Value};
use perfeval_fault::FaultRegistry;

use crate::transport::Transport;

/// Protocol version spoken by this crate. Version 2 added the `Query`
/// deadline field and the `Rejected` frame.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a single frame's byte length (type byte + payload).
/// Guards the reader against a corrupt length prefix allocating gigabytes.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Rows per streamed [`Frame::RowBatch`]. Small enough that the bounded
/// transport buffer applies backpressure within a result set, large enough
/// to amortize framing.
pub const ROWS_PER_BATCH: usize = 256;

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
    /// A streamed batch of result rows.
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

impl Frame {
    /// Encodes the frame, including its length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Frame::Hello { version } => {
                body.push(FT_HELLO);
                put_u32(&mut body, *version);
            }
            Frame::HelloOk { version } => {
                body.push(FT_HELLO_OK);
                put_u32(&mut body, *version);
            }
            Frame::Query {
                trace_parent,
                deadline_ms,
                sql,
            } => {
                body.push(FT_QUERY);
                put_u64(&mut body, *trace_parent);
                put_u32(&mut body, *deadline_ms);
                put_str(&mut body, sql);
            }
            Frame::ResultHeader { columns } => {
                body.push(FT_RESULT_HEADER);
                put_u32(&mut body, columns.len() as u32);
                for c in columns {
                    put_str(&mut body, c);
                }
            }
            Frame::RowBatch { rows } => {
                body.push(FT_ROW_BATCH);
                put_u32(&mut body, rows.len() as u32);
                for row in rows {
                    put_u32(&mut body, row.len() as u32);
                    for v in row {
                        encode_value(&mut body, v);
                    }
                }
            }
            Frame::Done(f) => {
                body.push(FT_DONE);
                put_f64(&mut body, f.parse_ms);
                put_f64(&mut body, f.optimize_ms);
                put_f64(&mut body, f.execute_ms);
                put_f64(&mut body, f.execute_cpu_ms);
                put_f64(&mut body, f.serialize_ms);
                put_u64(&mut body, f.rows);
            }
            Frame::Error(e) => {
                body.push(FT_ERROR);
                encode_error(&mut body, e);
            }
            Frame::Rejected {
                code,
                retry_after_ms,
            } => {
                body.push(FT_REJECTED);
                body.push(code.to_byte());
                put_u32(&mut body, *retry_after_ms);
            }
            Frame::Bye => body.push(FT_BYE),
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
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

/// A transport wrapped with framing, fault sites, and byte accounting.
///
/// Every read passes the `net.read` failpoint and every write the
/// `net.write` failpoint (key = connection id, attempt = frame ordinal), so
/// perfeval-fault can drop, delay, or hang a connection deterministically.
pub struct FramedIo {
    io: Box<dyn Transport>,
    faults: Arc<FaultRegistry>,
    conn_id: u64,
    frames_read: u32,
    frames_written: u32,
    bytes_read: u64,
    bytes_written: u64,
}

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
        self.frames_written += 1;
        let (conn, ordinal) = (self.conn_id, self.frames_written);
        // Delay/jitter/hang/panic actions first, then the I/O verdict.
        self.faults.fire("net.write", conn, ordinal);
        if self.faults.io_fails_at("net.write", conn, ordinal) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected net.write failure",
            ));
        }
        let bytes = frame.encode();
        self.io.write_all(&bytes)?;
        self.io.flush()?;
        self.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Receives one frame, blocking until it arrives.
    ///
    /// # Errors
    /// `UnexpectedEof` if the peer closed, `InvalidData` on protocol
    /// corruption, or an injected `net.read` failure.
    pub fn recv(&mut self) -> io::Result<Frame> {
        self.frames_read += 1;
        let (conn, ordinal) = (self.conn_id, self.frames_read);
        self.faults.fire("net.read", conn, ordinal);
        if self.faults.io_fails_at("net.read", conn, ordinal) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected net.read failure",
            ));
        }
        let mut len_buf = [0u8; 4];
        self.io.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(corrupt(&format!("bad frame length {len}")));
        }
        let mut body = vec![0u8; len as usize];
        self.io.read_exact(&mut body)?;
        self.bytes_read += 4 + len as u64;
        Frame::decode(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackConn;
    use proptest::prelude::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix covers the body");
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), frame);
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
