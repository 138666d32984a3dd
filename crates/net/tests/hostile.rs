//! Hostile bytes at the wire's result frame: whatever arrives where a
//! `ColumnBatch` should be, the decoder answers `InvalidData` and the client
//! a typed error — no panic, no hang, and no allocation sized by a count the
//! frame's own length cannot back. And hostile bytes at a live server, on
//! both cores: a connection the wire refuses is closed and counted, and
//! nobody else notices.
//!
//! The allocation bound is measured, not argued: this binary's allocator
//! records the largest request a thread makes while it is watched.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minidb::exec::ResultData;
use minidb::{Catalog, Column, DataType, Session, TableBuilder, Value};
use minidb_net::{
    Client, ColumnBatch, Footer, Frame, FramedIo, Listener, LoopbackConn, LoopbackEndpoint,
    NetError, Server, ServerMode, TcpEndpoint, TcpTransport, Transport, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use perfeval_fault::FaultRegistry;
use proptest::WatchingAlloc;

#[global_allocator]
static ALLOCATOR: WatchingAlloc = WatchingAlloc;

/// Decodes `body`, which must be refused as `InvalidData` without asking the
/// allocator for more than the frame can back: one in-memory `Value` per
/// byte at the outside (a NULL is one byte on the wire), plus an error
/// message.
fn assert_refused(body: &[u8], what: &str) {
    let (got, largest) = WatchingAlloc::largest(|| Frame::decode(body));
    match got {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        Ok(frame) => panic!("{what}: decoded to {frame:?}"),
    }
    let bound = std::mem::size_of::<Value>() * body.len() + 256;
    assert!(
        largest <= bound,
        "{what}: a {}-byte frame made the decoder allocate {largest} bytes at once",
        body.len()
    );
}

/// The one batch of a small result, as a frame.
fn one_batch(data: ResultData) -> Frame {
    let mut batches = ColumnBatch::batches(data);
    let frame = Frame::ColumnBatch(batches.next().expect("a result with rows"));
    assert!(batches.next().is_none());
    frame
}

fn columns<const N: usize>(columns: [Column; N]) -> ResultData {
    ResultData::Columns(columns.into_iter().map(Arc::new).collect())
}

fn body_of(data: ResultData) -> Vec<u8> {
    one_batch(data).encode().split_off(4)
}

fn patched(body: &[u8], at: usize, word: u32) -> Vec<u8> {
    let mut body = body.to_vec();
    body[at..at + 4].copy_from_slice(&word.to_le_bytes());
    body
}

/// Five rows of every typed kind.
fn typed_body() -> Vec<u8> {
    let mut strs = Column::new(DataType::Str);
    for s in ["b", "a", "b", "", "ccc"] {
        strs.push(Value::Str(s.to_owned())).unwrap();
    }
    body_of(columns([
        Column::Int(vec![3, -1, 4, 1, -5]),
        Column::Float(vec![0.5, -0.0, f64::NAN, 1e300, 2.0]),
        strs,
        Column::Bool(vec![true, false, true, true, false]),
    ]))
}

/// Three rows as the debug interpreter answers: NULLs, mixed types.
fn values_body() -> Vec<u8> {
    body_of(ResultData::Rows(vec![
        vec![Value::Int(1), Value::Null],
        vec![Value::Null, Value::Str("two".into())],
        vec![Value::Float(3.0), Value::Bool(true)],
    ]))
}

// Offsets into a `ColumnBatch` body: frame type, then the layout in
// `frame.rs`'s header.
const ROWS_AT: usize = 1;
const WIDTH_AT: usize = 5;
const FIRST_COLUMN_AT: usize = 9;

#[test]
fn a_column_batch_cut_short_anywhere_is_invalid_data() {
    for (name, body) in [("typed", typed_body()), ("values", values_body())] {
        assert!(Frame::decode(&body).is_ok(), "{name}: the frame is valid");
        for len in 0..body.len() {
            assert_refused(&body[..len], &format!("{name} cut to {len} bytes"));
        }
        let mut long = body.clone();
        long.push(0);
        assert_refused(&long, &format!("{name} with a trailing byte"));
    }
}

#[test]
fn a_lying_row_or_column_count_is_invalid_data() {
    for (name, body, rows, width) in [
        ("typed", typed_body(), 5u32, 4u32),
        ("values", values_body(), 3, 2),
    ] {
        for lie in [0, rows - 1, rows + 1, 1 << 20, u32::MAX] {
            assert_refused(
                &patched(&body, ROWS_AT, lie),
                &format!("{name}: {lie} rows"),
            );
        }
        for lie in [0, width - 1, width + 1, 1 << 20, u32::MAX] {
            assert_refused(
                &patched(&body, WIDTH_AT, lie),
                &format!("{name}: {lie} columns"),
            );
        }
    }
    // A count that would multiply past the address space.
    let mut huge = vec![10u8]; // frame type: ColumnBatch
    huge.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.push(0); // kind: Int
    assert_refused(&huge, "u32::MAX rows x u32::MAX columns");
}

#[test]
fn a_lying_dictionary_is_invalid_data() {
    // One string column: kind, entry count, entries, codes.
    let mut strs = Column::new(DataType::Str);
    for s in ["left", "right", "left"] {
        strs.push(Value::Str(s.to_owned())).unwrap();
    }
    let body = body_of(columns([strs]));
    assert!(Frame::decode(&body).is_ok());
    let entries_at = FIRST_COLUMN_AT + 1;
    let first_len_at = entries_at + 4;
    let codes_at = body.len() - 3 * 4;

    for lie in [0, 1, 3, 1 << 20, u32::MAX] {
        assert_refused(&patched(&body, entries_at, lie), &format!("{lie} entries"));
    }
    for lie in [0, 3, 5, 1 << 20, u32::MAX] {
        assert_refused(
            &patched(&body, first_len_at, lie),
            &format!("entry of {lie} bytes"),
        );
    }
    for row in 0..3 {
        for lie in [2, 3, u32::MAX] {
            assert_refused(
                &patched(&body, codes_at + 4 * row, lie),
                &format!("row {row} has code {lie} of 2"),
            );
        }
    }
    // And a bool that is neither.
    let mut body = body_of(columns([Column::Bool(vec![true, false])]));
    *body.last_mut().unwrap() = 2;
    assert_refused(&body, "bool byte 2");
}

/// The length prefix lies: `FramedIo::recv` ends in an error either way —
/// `InvalidData` when the body is shorter than its contents, end of stream
/// when the peer stops before the promised bytes.
#[test]
fn a_lying_length_prefix_is_an_error_not_a_hang() {
    let framed = one_batch(columns([Column::Int(vec![1, 2, 3])])).encode();
    let len = framed.len() as u32 - 4;
    for (lie, want) in [
        (len - 1, io::ErrorKind::InvalidData),
        (1, io::ErrorKind::InvalidData),
        (len + 1, io::ErrorKind::UnexpectedEof),
        (1 << 20, io::ErrorKind::UnexpectedEof),
        (0, io::ErrorKind::InvalidData),
        (u32::MAX, io::ErrorKind::InvalidData),
    ] {
        let (mut theirs, ours) = LoopbackConn::pair(1 << 16);
        theirs.write_all(&patched(&framed, 0, lie)).unwrap();
        drop(theirs);
        let mut io = FramedIo::new(Box::new(ours), Arc::new(FaultRegistry::disabled()), 0);
        let err = io.recv().expect_err("a lying prefix");
        assert_eq!(err.kind(), want, "prefix {lie} for {len} bytes: {err}");
    }
}

/// A server's side of one query, scripted: a client whose pipe already
/// holds everything the far end will ever say. The far end is returned to
/// be kept open — the client's own `Hello` and `Query` must find a buffer,
/// not a broken pipe.
fn client_hearing(frames: &[Frame]) -> (Client, LoopbackConn) {
    let (client_end, mut server_end) = LoopbackConn::pair(1 << 16);
    let hello_ok = Frame::HelloOk {
        version: PROTOCOL_VERSION,
    };
    for frame in std::iter::once(&hello_ok).chain(frames) {
        server_end.write_all(&frame.encode()).unwrap();
    }
    let client = Client::connect(Box::new(client_end)).expect("the scripted HelloOk");
    (client, server_end)
}

#[test]
fn the_client_checks_a_batch_against_header_and_footer_before_it_believes_it() {
    let two = |n: i64| {
        one_batch(columns([
            Column::Int((0..n).collect()),
            Column::Int((0..n).collect()),
        ]))
    };
    let header = |names: &[&str]| Frame::ResultHeader {
        columns: names.iter().map(|&n| n.to_owned()).collect(),
    };
    let done = |rows| {
        Frame::Done(Footer {
            rows,
            ..Footer::default()
        })
    };

    let (mut honest, _server) = client_hearing(&[header(&["a", "b"]), two(5), two(2), done(7)]);
    let r = honest.query("SELECT a, b FROM t").unwrap();
    assert_eq!(r.rows.len(), 7);
    assert_eq!(r.rows[6], vec![Value::Int(1), Value::Int(1)]);
    assert!(honest.is_alive());

    for (what, script) in [
        (
            "a batch wider than the header",
            vec![header(&["a"]), two(5), done(5)],
        ),
        (
            "a batch narrower than the header",
            vec![header(&["a", "b", "c"]), two(5), done(5)],
        ),
        (
            "a footer counting more rows than came",
            vec![header(&["a", "b"]), two(5), done(6)],
        ),
        (
            "a footer counting fewer rows than came",
            vec![header(&["a", "b"]), two(5), two(5), done(5)],
        ),
        (
            "a row batch, which version 3 does not send",
            vec![
                header(&["a"]),
                Frame::RowBatch {
                    rows: vec![vec![Value::Int(1)]],
                },
                done(1),
            ],
        ),
    ] {
        let (mut client, _server) = client_hearing(&script);
        match client.query("SELECT a, b FROM t") {
            Err(NetError::Protocol(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
        assert!(!client.is_alive(), "{what}: the connection is given up");
    }
}

fn nums() -> Catalog {
    let mut catalog = Catalog::new();
    let mut t = TableBuilder::new("nums")
        .column("x", DataType::Int)
        .column("y", DataType::Float)
        .build();
    for i in 0..1_000 {
        t.push_row(vec![Value::Int(i), Value::Float(i as f64 / 3.0)])
            .unwrap();
    }
    catalog.register(t).unwrap();
    catalog
}

/// Asks `client` what an in-process session answers and compares by bits.
fn assert_answers_as_in_process(client: &mut Client, what: &str) {
    let sql = "SELECT SUM(y), MAX(x), COUNT(*) FROM nums WHERE x >= 10";
    let want = Session::new(nums()).query(sql).run().unwrap().rows;
    let got = client.query(sql).unwrap_or_else(|e| panic!("{what}: {e}"));
    let bits = |rows: &[Vec<Value>]| -> Vec<Vec<String>> {
        let cell = |v: &Value| match v {
            Value::Float(f) => format!("{:#x}", f.to_bits()),
            v => format!("{v:?}"),
        };
        rows.iter().map(|r| r.iter().map(cell).collect()).collect()
    };
    assert_eq!(bits(&got.rows), bits(&want), "{what}");
}

/// Opens a raw connection to the server under test.
type Dial = Box<dyn Fn() -> Box<dyn Transport>>;

/// Hostile bytes at a live server, on both cores and over both transports:
/// a raw peer opens with a zero length prefix, a prefix past
/// `MAX_FRAME_LEN`, a frame of an unknown type, a `Hello` then a `Query`
/// with a trailing byte, or a prefix promising more than it sends before it
/// closes. Each costs the server that one connection — the server closes
/// it while the peer holds it open, counts one disconnect and no panic —
/// and a well-behaved client on the same server keeps its answers.
#[test]
fn hostile_bytes_cost_a_live_server_one_connection_in_both_cores() {
    let prefixed = |body: &[u8]| [&(body.len() as u32).to_le_bytes()[..], body].concat();
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
    }
    .encode();
    let query = Frame::Query {
        trace_parent: 0,
        deadline_ms: 0,
        sql: "SELECT COUNT(*) FROM nums".into(),
    }
    .encode();
    let openings: [(&str, Vec<u8>, bool); 5] = [
        ("a zero length prefix", 0u32.to_le_bytes().to_vec(), false),
        (
            "a prefix past MAX_FRAME_LEN",
            (MAX_FRAME_LEN + 1).to_le_bytes().to_vec(),
            false,
        ),
        ("an unknown frame type", prefixed(&[0xEE, 1, 2, 3]), false),
        (
            "a Query with a trailing byte",
            [hello, prefixed(&[&query[4..], &[0]].concat())].concat(),
            false,
        ),
        (
            "a prefix promising more than comes, then a close",
            [&100u32.to_le_bytes()[..], &[3; 10]].concat(),
            true,
        ),
    ];
    let modes = [
        ServerMode::Sharded {
            shards: 2,
            queue_depth: 16,
        },
        ServerMode::ThreadPerConn { workers: 2 },
    ];
    for mode in modes {
        for tcp in [false, true] {
            let (listener, dial): (Arc<dyn Listener>, Dial) = if tcp {
                let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
                let addr = ep.local_addr().unwrap();
                (
                    ep,
                    Box::new(move || Box::new(TcpTransport::connect(addr).unwrap())),
                )
            } else {
                let ep = LoopbackEndpoint::new();
                let connector = ep.connector();
                (ep, Box::new(move || Box::new(connector.connect().unwrap())))
            };
            let server = Server::builder()
                .transport(listener)
                .mode(mode)
                .serve(|| Session::new(nums()));
            let on = if tcp { "tcp" } else { "loopback" };
            let mut good = Client::connect(dial()).unwrap();
            assert_answers_as_in_process(&mut good, &format!("{mode:?} {on}: before"));
            for (n, (what, bytes, close)) in openings.iter().enumerate() {
                let what = format!("{mode:?} {on}: {what}");
                let mut raw = dial();
                raw.write_all(bytes).unwrap();
                let held = (!close).then_some(raw);
                let deadline = Instant::now() + Duration::from_secs(10);
                while server.stats().disconnects < n as u64 + 1 {
                    assert!(
                        Instant::now() < deadline,
                        "{what}: the server kept the connection"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop(held);
                let stats = server.stats();
                assert_eq!(stats.disconnects, n as u64 + 1, "{what}");
                assert_eq!(stats.worker_panics, 0, "{what}");
                assert_answers_as_in_process(&mut good, &what);
            }
            good.close().unwrap();
            let stats = server.wait();
            assert_eq!(
                stats.connections,
                1 + openings.len() as u64,
                "{mode:?} {on}"
            );
            assert_eq!(stats.disconnects, openings.len() as u64, "{mode:?} {on}");
            assert_eq!(stats.worker_panics, 0, "{mode:?} {on}");
        }
    }
}
