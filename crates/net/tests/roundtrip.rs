//! The subsystem's acceptance bar: queries over the wire are **bit-identical**
//! to the same queries through an in-process [`Session`] — over loopback and
//! over real TCP, in both server cores (thread-per-connection and the sharded
//! readiness loop at shard counts 1, 2 and 8), for the whole 22-query family —
//! and concurrent clients are isolated per connection.
//!
//! Floats are compared by `to_bits()`: `PartialEq` would wave through
//! `-0.0 == 0.0` and reject `NaN == NaN`, and either slip would hide a codec
//! bug.

use std::sync::{Arc, OnceLock};

use minidb::{Catalog, Session, Value};
use minidb_net::{
    Client, LoopbackEndpoint, NetQueryResult, Server, ServerMode, TcpEndpoint, TcpTransport,
    Transport, BATCH_BYTES,
};
use proptest::prelude::*;
use workload::dbgen::{generate, GenConfig};
use workload::queries;

/// Scale 0.004 is ~24 000 `lineitem` rows: `large_result`'s 24-byte rows
/// go 2 730 to a batch, so that answer spans 9 batches.
fn catalog() -> Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG
        .get_or_init(|| {
            generate(&GenConfig {
                scale_factor: 0.004,
                ..GenConfig::default()
            })
        })
        .clone()
}

/// The ground truth: the same query through an in-process session.
fn expected(sql: &str) -> (Vec<String>, Vec<Vec<Value>>) {
    let mut session = Session::new(catalog());
    let r = session.query(sql).run().expect("in-process run");
    (r.column_names, r.rows)
}

/// Bit-level equality: floats by `to_bits()`, everything else by `==`.
fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_rows_bit_identical(sql: &str, got: &[Vec<Value>], want: &[Vec<Value>]) {
    assert_eq!(got.len(), want.len(), "row count for {sql}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "row {i} width for {sql}");
        for (j, (gv, wv)) in g.iter().zip(w).enumerate() {
            assert!(
                value_bits_eq(gv, wv),
                "{sql}: row {i} col {j}: wire {gv:?} != session {wv:?}"
            );
        }
    }
}

fn check_over(client: &mut Client, sql: &str) -> NetQueryResult {
    let (want_cols, want_rows) = expected(sql);
    let r = client.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert_eq!(r.columns, want_cols, "columns for {sql}");
    assert_rows_bit_identical(sql, &r.rows, &want_rows);
    assert_eq!(
        r.footer.rows,
        want_rows.len() as u64,
        "footer rows for {sql}"
    );
    r
}

/// The squeeze tests are about an answer of many batches: more bytes than
/// eight full ones hold.
fn assert_spans_eight_batches(r: &NetQueryResult) {
    assert!(
        r.bytes_received > 8 * BATCH_BYTES as u64,
        "{} bytes is not more than eight batches",
        r.bytes_received
    );
}

/// Runs the whole family (plus the wide result) through one connection
/// against a server in `mode`, over loopback or TCP.
fn check_family(mode: ServerMode, tcp: bool) {
    let (server, transport): (_, Box<dyn Transport>) = if tcp {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr().unwrap();
        let server = Server::builder()
            .transport(ep)
            .mode(mode)
            .serve(|| Session::new(catalog()));
        (server, Box::new(TcpTransport::connect(addr).unwrap()))
    } else {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(mode)
            .serve(|| Session::new(catalog()));
        (server, Box::new(dial.connect().unwrap()))
    };
    let mut client = Client::connect(transport).unwrap();
    for i in 1..=22 {
        check_over(&mut client, &queries::family(i));
    }
    check_over(&mut client, &queries::large_result());
    client.close().unwrap();
    server.wait();
}

#[test]
fn all_family_queries_bit_identical_over_loopback() {
    check_family(ServerMode::ThreadPerConn { workers: 1 }, false);
}

#[test]
fn all_family_queries_bit_identical_over_tcp() {
    check_family(ServerMode::ThreadPerConn { workers: 1 }, true);
}

#[test]
fn sharded_loopback_bit_identical_at_shard_counts_1_2_8() {
    for shards in [1, 2, 8] {
        check_family(
            ServerMode::Sharded {
                shards,
                queue_depth: 64,
            },
            false,
        );
    }
}

#[test]
fn sharded_tcp_bit_identical_at_shard_counts_1_2_8() {
    for shards in [1, 2, 8] {
        check_family(
            ServerMode::Sharded {
                shards,
                queue_depth: 64,
            },
            true,
        );
    }
}

#[test]
fn large_result_streams_through_a_tiny_pipe_bit_identically() {
    // A 512-byte loopback pipe forces the server to block on nearly every
    // batch: the result must arrive intact anyway — streaming + backpressure
    // change timing, never answers.
    let ep = LoopbackEndpoint::with_capacity(512);
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::ThreadPerConn { workers: 1 })
        .serve(|| Session::new(catalog()));
    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    assert_spans_eight_batches(&check_over(&mut client, &queries::large_result()));
    client.close().unwrap();
    server.wait();
}

#[test]
fn sharded_large_result_streams_through_a_tiny_pipe_bit_identically() {
    // Same squeeze against the event-driven core: the bounded write queue
    // plus a 512-byte pipe means almost every batch waits for the reader,
    // and the nonblocking writer must resume exactly where it left off.
    let ep = LoopbackEndpoint::with_capacity(512);
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::Sharded {
            shards: 2,
            queue_depth: 2,
        })
        .serve(|| Session::new(catalog()));
    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    assert_spans_eight_batches(&check_over(&mut client, &queries::large_result()));
    client.close().unwrap();
    server.wait();
}

proptest! {
    /// Any family query, either transport, either server core, fresh
    /// connection each time: wire results equal in-process results bit for
    /// bit.
    #[test]
    fn random_family_query_roundtrips_bit_identically(
        i in 1usize..23,
        tcp in any::<bool>(),
        sharded in any::<bool>(),
    ) {
        let sql = queries::family(i);
        let (want_cols, want_rows) = expected(&sql);
        let mode = if sharded {
            ServerMode::Sharded { shards: 2, queue_depth: 8 }
        } else {
            ServerMode::ThreadPerConn { workers: 1 }
        };
        let (server, transport): (_, Box<dyn Transport>) = if tcp {
            let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
            let addr = ep.local_addr().unwrap();
            let server = Server::builder().transport(ep).mode(mode)
                .serve(|| Session::new(catalog()));
            (server, Box::new(TcpTransport::connect(addr).unwrap()))
        } else {
            let ep = LoopbackEndpoint::new();
            let dial = ep.connector();
            let server = Server::builder().transport(ep).mode(mode)
                .serve(|| Session::new(catalog()));
            (server, Box::new(dial.connect().unwrap()))
        };
        let mut client = Client::connect(transport).unwrap();
        let r = client.query(&sql).unwrap();
        prop_assert_eq!(&r.columns, &want_cols);
        prop_assert_eq!(r.rows.len(), want_rows.len());
        for (g, w) in r.rows.iter().zip(&want_rows) {
            for (gv, wv) in g.iter().zip(w) {
                prop_assert!(value_bits_eq(gv, wv), "wire {:?} != session {:?}", gv, wv);
            }
        }
        client.close().unwrap();
        server.wait();
    }
}

#[test]
fn concurrent_clients_are_isolated_per_connection() {
    // N clients × M queries, all at once, against a sharded server whose
    // factory hands every connection a *private* empty catalog. Each client
    // creates the same table name and writes its own payload; isolation
    // means nobody ever reads another connection's rows — and the shared
    // read-only queries still come back bit-identical.
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 6;

    let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
    let addr = ep.local_addr().unwrap();
    let server = Arc::new(
        Server::builder()
            .transport(ep)
            .mode(ServerMode::Sharded {
                shards: 2,
                queue_depth: 64,
            })
            .serve(|| Session::new(Catalog::new())),
    );

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(Box::new(TcpTransport::connect(addr).unwrap())).unwrap();
                // Same table name on every connection — only isolation
                // keeps these from colliding.
                client.query("CREATE TABLE mine (who INT, v INT)").unwrap();
                for q in 0..QUERIES_PER_CLIENT {
                    client
                        .query(&format!(
                            "INSERT INTO mine VALUES ({c}, {v})",
                            v = c * 100 + q
                        ))
                        .unwrap();
                    let r = client.query("SELECT COUNT(*) FROM mine").unwrap();
                    assert_eq!(
                        r.rows,
                        vec![vec![Value::Int((q + 1) as i64)]],
                        "client {c} sees exactly its own {q}+1 inserts"
                    );
                }
                let r = client
                    .query("SELECT MAX(v) FROM mine WHERE who = 0 OR who > 0")
                    .unwrap();
                assert_eq!(
                    r.rows,
                    vec![vec![Value::Int((c * 100 + QUERIES_PER_CLIENT - 1) as i64)]],
                    "client {c}'s max is its own last value — no foreign rows"
                );
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let stats = Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("all clients joined"))
        .wait();
    assert_eq!(stats.connections, CLIENTS as u64);
    assert_eq!(
        stats.queries,
        (CLIENTS * (2 * QUERIES_PER_CLIENT + 2)) as u64,
        "create + (insert+count)*M + final select per client"
    );
    assert_eq!(stats.disconnects, 0);
    assert_eq!(stats.worker_panics, 0);
}
