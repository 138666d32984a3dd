//! Overload-protection behavior: admission control, drain mode, query
//! deadlines, and — the invariant the whole design leans on — that a
//! cancelled query never poisons its session. The same connection must
//! immediately serve a follow-up query bit-identical to serial
//! execution, at shard counts {1, 8}, over both transports.

use minidb::{Catalog, DataType, Session, TableBuilder, Value};
use minidb_net::{
    Admission, Client, LoopbackEndpoint, NetError, RejectCode, Server, ServerMode, TcpEndpoint,
    TcpTransport,
};
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};
use std::sync::Arc;
use std::time::Duration;

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let mut t = TableBuilder::new("nums")
        .column("x", DataType::Int)
        .column("y", DataType::Float)
        .build();
    for i in 0..2_000 {
        t.push_row(vec![Value::Int(i), Value::Float(i as f64 / 7.0)])
            .unwrap();
    }
    catalog.register(t).unwrap();
    catalog
}

/// Floats compare by bit pattern: "close enough" is exactly the fudge
/// the bit-identity invariant exists to forbid.
fn assert_rows_bit_identical(got: &[Vec<Value>], want: &[Vec<Value>]) {
    assert_eq!(got.len(), want.len(), "row count");
    for (g_row, w_row) in got.iter().zip(want) {
        assert_eq!(g_row.len(), w_row.len(), "column count");
        for (g, w) in g_row.iter().zip(w_row) {
            match (g, w) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "float bits: {a} vs {b}")
                }
                _ => assert_eq!(g, w),
            }
        }
    }
}

const Q_BEFORE: &str = "SELECT COUNT(*) FROM nums WHERE x < 900";
const Q_CANCELLED: &str = "SELECT SUM(y) FROM nums";
const Q_AFTER: &str = "SELECT SUM(y) FROM nums WHERE x < 1500";

/// The core of satellite #3. The server's per-connection session arms the
/// `minidb.cancel` failpoint on statement ordinal 1, so the second query
/// on the connection is force-cancelled mid-protocol (a scheduled
/// cancellation, not a raced one). The follow-up on the *same* connection
/// must match a clean serial [`Session`] bit for bit.
fn check_cancelled_query_never_poisons_session(shards: usize, tcp: bool) {
    // Serial ground truth from an in-process session, no server involved.
    let mut serial = Session::new(catalog());
    let want_before = serial.query(Q_BEFORE).run().unwrap().rows;
    let want_after = serial.query(Q_AFTER).run().unwrap().rows;

    let session_factory = || {
        let faults = Arc::new(FaultRegistry::new(7).armed_always(
            "minidb.cancel",
            Trigger::Key(1),
            FaultAction::FailIo,
        ));
        Session::new(catalog()).with_faults(faults)
    };
    let mode = ServerMode::Sharded {
        shards,
        queue_depth: 64,
    };

    let (server, mut client) = if tcp {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr().unwrap();
        let server = Server::builder()
            .transport(ep)
            .mode(mode)
            .serve(session_factory);
        let client = Client::connect(Box::new(TcpTransport::connect(addr).unwrap())).unwrap();
        (server, client)
    } else {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(mode)
            .serve(session_factory);
        let client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        (server, client)
    };

    // Statement 0 runs clean.
    let r = client.query(Q_BEFORE).unwrap();
    assert_rows_bit_identical(&r.rows, &want_before);

    // Statement 1 is force-cancelled; the client sees a typed error, not
    // a dead socket.
    match client.query(Q_CANCELLED) {
        Err(NetError::Db(minidb::DbError::Cancelled(_))) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(client.is_alive(), "cancellation must not kill the client");

    // Statement 2, same connection: bit-identical to serial execution.
    let r = client.query(Q_AFTER).unwrap();
    assert_rows_bit_identical(&r.rows, &want_after);

    client.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.connections, 1, "one connection throughout");
    assert_eq!(stats.disconnects, 0, "session survived the cancellation");
    assert_eq!(stats.cancelled_queries, 1);
    assert_eq!(stats.queries, 3);
}

#[test]
fn cancelled_query_never_poisons_session_loopback_1_shard() {
    check_cancelled_query_never_poisons_session(1, false);
}

#[test]
fn cancelled_query_never_poisons_session_loopback_8_shards() {
    check_cancelled_query_never_poisons_session(8, false);
}

#[test]
fn cancelled_query_never_poisons_session_tcp_1_shard() {
    check_cancelled_query_never_poisons_session(1, true);
}

#[test]
fn cancelled_query_never_poisons_session_tcp_8_shards() {
    check_cancelled_query_never_poisons_session(8, true);
}

/// Deadlines travel in the `Query` frame header and come back as a typed
/// `Rejected { DeadlineExceeded }`; clearing the deadline restores normal
/// service on the same connection. An injected 50 ms engine delay makes a
/// 5 ms deadline expire without depending on machine speed.
fn check_deadline_rejects_then_recovers(mode: ServerMode) {
    let session_factory = || {
        let faults = Arc::new(FaultRegistry::new(3).armed_always(
            "minidb.execute",
            Trigger::Key(0),
            FaultAction::DelayMs(50.0),
        ));
        Session::new(catalog()).with_faults(faults)
    };
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(mode)
        .serve(session_factory);

    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    client.set_deadline_ms(5);
    match client.query(Q_CANCELLED) {
        Err(NetError::Rejected {
            code: RejectCode::DeadlineExceeded,
            ..
        }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(client.is_alive(), "a shed query is not a dead connection");

    // Statement 1 has no injected delay; with the deadline cleared the
    // same connection serves it normally.
    client.set_deadline_ms(0);
    let mut serial = Session::new(catalog());
    let want = serial.query(Q_AFTER).run().unwrap().rows;
    let r = client.query(Q_AFTER).unwrap();
    assert_rows_bit_identical(&r.rows, &want);

    client.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.cancelled_queries, 1);
    assert_eq!(stats.disconnects, 0);
}

#[test]
fn deadline_rejects_then_recovers_sharded() {
    check_deadline_rejects_then_recovers(ServerMode::Sharded {
        shards: 2,
        queue_depth: 64,
    });
}

#[test]
fn deadline_rejects_then_recovers_thread_per_conn() {
    check_deadline_rejects_then_recovers(ServerMode::ThreadPerConn { workers: 2 });
}

/// The `net.admit` failpoint forces the admission verdict itself — every
/// decision on the connection sheds with `Overloaded` — and the
/// configured `retry_after_ms` hint rides the frame back.
#[test]
fn net_admit_fault_forces_typed_rejection() {
    let faults = Arc::new(FaultRegistry::new(1).armed_always(
        "net.admit",
        Trigger::Always,
        FaultAction::FailIo,
    ));
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::Sharded {
            shards: 1,
            queue_depth: 16,
        })
        .admission(Admission::default().retry_after_ms(7))
        .with_faults(faults)
        .serve(|| Session::new(catalog()));

    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    for _ in 0..2 {
        match client.query(Q_BEFORE) {
            Err(NetError::Rejected {
                code: RejectCode::Overloaded,
                retry_after_ms,
            }) => assert_eq!(retry_after_ms, 7, "retry-after hint from Admission"),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(client.is_alive());
    }
    client.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.rejected_overload, 2);
    assert_eq!(stats.disconnects, 0);
}

/// Drain mode: existing connections stay up but new queries get the
/// typed `ShuttingDown` signal — in both engines.
fn check_drain_sheds_new_queries(mode: ServerMode) {
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(mode)
        .serve(|| Session::new(catalog()));

    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    client.query(Q_BEFORE).unwrap();

    server.drain();
    match client.query(Q_BEFORE) {
        Err(NetError::Rejected {
            code: RejectCode::ShuttingDown,
            ..
        }) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    assert!(client.is_alive(), "drain sheds queries, not connections");

    client.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.rejected_shutdown, 1);
    assert_eq!(stats.disconnects, 0);
}

#[test]
fn drain_sheds_new_queries_sharded() {
    check_drain_sheds_new_queries(ServerMode::Sharded {
        shards: 2,
        queue_depth: 64,
    });
}

#[test]
fn drain_sheds_new_queries_thread_per_conn() {
    check_drain_sheds_new_queries(ServerMode::ThreadPerConn { workers: 2 });
}

/// `max_conns` bounds concurrent sessions at the handshake: the excess
/// `Hello` is answered `Rejected { Overloaded }` and the socket closed,
/// while the admitted connection keeps working.
fn check_max_conns_rejects_excess_hello(mode: ServerMode) {
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(mode)
        .admission(Admission::default().max_conns(1))
        .serve(|| Session::new(catalog()));

    let mut first = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    first.query(Q_BEFORE).unwrap();

    match Client::connect(Box::new(dial.connect().unwrap())) {
        Err(NetError::Rejected {
            code: RejectCode::Overloaded,
            ..
        }) => {}
        Err(other) => panic!("expected Overloaded at Hello, got {other:?}"),
        Ok(_) => panic!("expected Overloaded at Hello, got a connection"),
    }

    // The admitted connection is unaffected by the shed handshake.
    first.query(Q_BEFORE).unwrap();
    first.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.rejected_overload, 1);
}

#[test]
fn max_conns_rejects_excess_hello_sharded() {
    check_max_conns_rejects_excess_hello(ServerMode::Sharded {
        shards: 1,
        queue_depth: 16,
    });
}

#[test]
fn max_conns_rejects_excess_hello_thread_per_conn() {
    check_max_conns_rejects_excess_hello(ServerMode::ThreadPerConn { workers: 4 });
}

/// A saturating burst against a 1-query budget: one long query holds the
/// only in-flight slot, a second connection's query during that window is
/// shed fast instead of queued behind it, and succeeds on retry once the
/// slot frees — the thread-per-conn admission gauge end to end.
#[test]
fn max_inflight_sheds_concurrent_query_thread_per_conn() {
    let session_factory = || {
        let faults = Arc::new(FaultRegistry::new(5).armed_always(
            "minidb.execute",
            Trigger::Key(0),
            FaultAction::DelayMs(200.0),
        ));
        Session::new(catalog()).with_faults(faults)
    };
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::ThreadPerConn { workers: 2 })
        .admission(Admission::default().max_inflight(1))
        .serve(session_factory);

    let mut slow = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    let mut fast = Client::connect(Box::new(dial.connect().unwrap())).unwrap();

    let slow_thread = std::thread::spawn(move || {
        // Statement 0: delayed 200 ms by the failpoint, holds the slot.
        slow.query(Q_BEFORE).unwrap();
        slow.close().unwrap();
    });
    // Well inside the 200 ms window: the budget is taken.
    std::thread::sleep(Duration::from_millis(50));
    match fast.query(Q_BEFORE) {
        Err(NetError::Rejected {
            code: RejectCode::Overloaded,
            ..
        }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    slow_thread.join().unwrap();

    // The slot is free again; the shed client retries and wins. (The
    // reject spent no engine work, so this is still the session's
    // statement 0 and eats the 200 ms delay — slow but correct.)
    let mut serial = Session::new(catalog());
    let want = serial.query(Q_AFTER).run().unwrap().rows;
    let r = fast.query(Q_AFTER).unwrap();
    assert_rows_bit_identical(&r.rows, &want);

    fast.close().unwrap();
    let stats = server.wait();
    assert!(stats.rejected_overload >= 1);
    assert_eq!(stats.disconnects, 0);
}

/// A `Panic` armed at `net.admit` unwinds out of the admission decision
/// with the connection's in-flight slot already taken. The slot must come
/// back: with a 1-query budget, a leaked slot would make the server answer
/// `Overloaded` forever.
#[test]
fn admit_panic_gives_its_inflight_slot_back_thread_per_conn() {
    let faults = Arc::new(FaultRegistry::new(1).armed_always(
        "net.admit",
        Trigger::Key(0),
        FaultAction::Panic,
    ));
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::ThreadPerConn { workers: 2 })
        .admission(Admission::default().max_inflight(1))
        .with_faults(faults)
        .serve(|| Session::new(catalog()));

    // Connection 0: its first admission decision panics; the worker
    // contains it and the connection is gone.
    let mut doomed = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    match doomed.query(Q_BEFORE) {
        Err(NetError::Io(_)) => {}
        other => panic!("expected a dead connection, got {other:?}"),
    }

    // Connection 1 finds the budget free and is answered bit-identically
    // to an in-process run.
    let mut serial = Session::new(catalog());
    let want = serial.query(Q_AFTER).run().unwrap().rows;
    let mut next = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    let r = next.query(Q_AFTER).unwrap();
    assert_rows_bit_identical(&r.rows, &want);
    next.close().unwrap();

    let stats = server.wait();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.disconnects, 1);
    assert_eq!(stats.rejected_overload, 0, "no slot leaked");
}
