//! # minidb-net
//!
//! A real wire-protocol client/server layer for minidb, so client-vs-server
//! time is **measured, not simulated**.
//!
//! The paper's pitfall catalogue hinges on *where* the stopwatch sits:
//! user vs. real time, client vs. server time (`mclient -t`). Before this
//! crate, the reproduction faked the client side with a `sim_print_ms`
//! constant. Now a query travels a length-prefixed binary protocol
//! ([`frame`]) over a transport ([`transport`]) — real TCP, or a
//! zero-syscall in-process loopback pipe behind the same trait — and one
//! run yields the full decomposition:
//!
//! * **server user** — per-thread CPU of the execute phase (server clock),
//! * **server real** — parse + optimize + execute wall (server clock),
//! * **serialize** — result encode + write, including backpressure stalls
//!   (server clock),
//! * **wire** — the residual the server does not claim (client clock),
//! * **client print** — the sink (client clock).
//!
//! ```no_run
//! use std::sync::Arc;
//! use minidb_net::{Client, Server, ServerMode, TcpEndpoint, TcpTransport};
//!
//! # fn catalog() -> minidb::Catalog { minidb::Catalog::new() }
//! let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
//! let addr = ep.local_addr().unwrap();
//! let server = Server::builder()
//!     .transport(ep)
//!     .mode(ServerMode::Sharded { shards: 2, queue_depth: 64 })
//!     .serve(|| minidb::Session::new(catalog()));
//!
//! let mut client = Client::connect(Box::new(TcpTransport::connect(addr).unwrap())).unwrap();
//! let r = client.query("SELECT 1").unwrap();
//! println!("{}", r.decomposition());
//! # drop(client);
//! # server.wait();
//! ```
//!
//! One conversation, one wire, two schedulers ([`ServerMode`]): handshake,
//! admission, statement execution and response framing are written once,
//! and every connection frames its bytes through one [`FramedIo`]; a
//! scheduler supplies only the load admission is judged against, a
//! statement's parallelism, the deadline left when it reaches the engine,
//! and the frames' way to the transport.
//!
//! * **Sharded** (default) — event-driven and shared-nothing: a readiness
//!   loop ([`poll`]) multiplexes connections onto N core-pinned shards with
//!   bounded per-connection write queues; idle shards lend their cores to a
//!   busy shard's query as extra morsel parallelism. It serves what it can
//!   poll and refuses any other connection.
//! * **ThreadPerConn** — the blocking thread-per-connection loop, kept as
//!   an explicit experiment arm (`perfeval-exp e23`); it serves any
//!   `Read + Write` transport.
//!
//! Guarantees the tests pin down:
//!
//! * **Bit identity.** Results over loopback and TCP equal an in-process
//!   [`minidb::Session`] run exactly — floats compared by `to_bits()`
//!   (`tests/roundtrip.rs`).
//! * **Columns to the socket.** A result crosses the wire as the columns
//!   the engine produced ([`ColumnBatch`] frames, protocol version 3): the
//!   server builds no row — `minidb::exec::rows_transposed()` stays put
//!   across a served statement — and the client builds each row once, as
//!   its batch arrives. What arrives where a batch should be is checked
//!   before it is believed, and a frame a live server's wire refuses costs
//!   that connection alone, on either core (`tests/hostile.rs`).
//! * **Backpressure.** Outgoing buffers are bounded; a slow reader blocks
//!   the writer instead of growing a queue ([`transport`] tests).
//! * **Span stitching.** The client's `net.query` span id rides the frame
//!   header; the server parents `net.serve` under it, so one
//!   `perfeval-trace` snapshot holds both sides of the wire.
//! * **Deterministic faults.** `net.accept` / `net.read` / `net.write`
//!   failpoints (delay, jitter, fail, hang) keyed by connection + frame
//!   ordinals — the same ordinals in both cores (`tests/sharded.rs`) — so
//!   a dropped connection is a *scheduled* event — and
//!   surfaces as a contained `UnitOutcome` under `perfeval-exec`
//!   (`tests/net_exec.rs` at the workspace root). The `net.admit` site
//!   sits at the admission decision; its `FailIo` arm forces a typed
//!   `Overloaded` rejection, the chaos lever for client-backoff tests.
//! * **Overload protection.** [`Admission`] bounds in-flight queries and
//!   live connections and defaults per-query deadlines; excess work is
//!   shed *fast and typed* (`Frame::Rejected` with [`RejectCode`] and
//!   retry-after advice) in both cores, deadlines are enforced by
//!   cooperative cancellation (a cancelled query answers typed and never
//!   poisons its session — `tests/overload.rs`), and
//!   [`ServerHandle::drain`] sheds new work while in-flight queries
//!   finish. The client-side etiquette lives here too: [`BackoffPolicy`]
//!   (seeded, jittered, bounded) and the per-connection
//!   [`CircuitBreaker`]. `perfeval-exp e25` is the designed saturation
//!   experiment.

#![warn(missing_docs)]

pub mod client;
mod conversation;
pub mod frame;
pub mod poll;
pub mod retry;
pub mod server;
mod shard;
pub mod transport;

pub use client::{Client, Connect, Connector, NetError, NetQueryResult};
pub use frame::{
    Batches, ColumnBatch, Footer, Frame, FramedIo, RejectCode, BATCH_BYTES, MAX_FRAME_LEN,
    PROTOCOL_VERSION, ROWS_PER_BATCH,
};
pub use poll::{shard_for, Interest, Poll, Ready, ShimHandle};
pub use retry::{BackoffPolicy, CircuitBreaker};
pub use server::{
    Admission, Server, ServerBuilder, ServerHandle, ServerMode, ServerStats, DEFAULT_QUEUE_DEPTH,
};
pub use transport::{
    EventSource, Listener, LoopbackConn, LoopbackConnector, LoopbackEndpoint, TcpEndpoint,
    TcpTransport, Transport, DEFAULT_LOOPBACK_CAPACITY,
};

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Catalog, DataType, Session, TableBuilder, Value};

    /// Bit-level equality: floats by `to_bits()`, everything else by `==`.
    pub(crate) fn bits_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    pub(crate) fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let mut t = TableBuilder::new("nums")
            .column("x", DataType::Int)
            .column("y", DataType::Float)
            .build();
        for i in 0..1_000 {
            t.push_row(vec![Value::Int(i), Value::Float(i as f64 / 4.0)])
                .unwrap();
        }
        catalog.register(t).unwrap();
        catalog
    }

    #[test]
    fn loopback_query_end_to_end() {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(ServerMode::Sharded {
                shards: 2,
                queue_depth: 64,
            })
            .serve(|| Session::new(catalog()));

        let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        let r = client
            .query("SELECT COUNT(*) FROM nums WHERE x < 100")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(100)]]);
        assert_eq!(r.footer.rows, 1);
        assert!(r.client_real_ms > 0.0);
        assert!(r.bytes_received > 0);
        // The decomposition renders and sums sensibly.
        let text = r.decomposition();
        assert!(text.contains("client real"), "{text}");
        assert!(text.contains("wire"), "{text}");

        client.close().unwrap();
        let stats = server.wait();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.disconnects, 0);
    }

    #[test]
    fn tcp_query_end_to_end() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr().unwrap();
        let server = Server::builder()
            .transport(ep)
            .serve(|| Session::new(catalog()));

        let mut client = Client::connect(Box::new(TcpTransport::connect(addr).unwrap())).unwrap();
        let r = client.query("SELECT SUM(y) FROM nums").unwrap();
        assert_eq!(r.row_count(), 1);
        client.close().unwrap();
        let stats = server.wait();
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn server_reports_db_errors_without_dying() {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(ServerMode::ThreadPerConn { workers: 1 })
            .serve(|| Session::new(catalog()));

        let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        match client.query("SELECT nope FROM nums") {
            Err(NetError::Db(minidb::DbError::UnknownColumn(_))) => {}
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
        // The connection survives the error.
        let r = client.query("SELECT COUNT(*) FROM nums").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1_000)]]);
        client.close().unwrap();
        server.wait();
    }

    #[test]
    fn multiple_queries_reuse_one_session() {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(ServerMode::Sharded {
                shards: 1,
                queue_depth: 64,
            })
            .serve(|| Session::new(Catalog::new()));

        let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        client.query("CREATE TABLE t (a INT)").unwrap();
        client.query("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let r = client.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(3)]],
            "DDL/DML state persists across queries on one connection"
        );
        client.close().unwrap();
        server.wait();
    }

    #[test]
    fn persistent_connection_handshakes_exactly_once() {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(ServerMode::Sharded {
                shards: 2,
                queue_depth: 4,
            })
            .serve(|| Session::new(catalog()));

        let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        assert!(client.is_alive());
        for i in 0..200 {
            let r = client
                .query(&format!("SELECT COUNT(*) FROM nums WHERE x < {i}"))
                .unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(i)]]);
            assert!(client.is_alive());
        }
        client.close().unwrap();
        let stats = server.wait();
        // One Hello for 200 queries: the load harness does not pay a
        // handshake (or a new server session) per request.
        assert_eq!(stats.connections, 1, "no re-handshake across queries");
        assert_eq!(stats.queries, 200);
        assert_eq!(stats.disconnects, 0);
    }

    #[test]
    fn is_alive_and_reconnect_recover_a_dead_connection() {
        use perfeval_fault::FaultRegistry;
        use std::io::{Read, Write};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // A transport whose link the test can cut mid-stream — the
        // "flapping client" scenario the load harness must contain.
        struct KillSwitch {
            inner: LoopbackConn,
            cut: Arc<AtomicBool>,
        }
        impl KillSwitch {
            fn check(&self) -> std::io::Result<()> {
                if self.cut.load(Ordering::SeqCst) {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "link cut",
                    ))
                } else {
                    Ok(())
                }
            }
        }
        impl Read for KillSwitch {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.check()?;
                self.inner.read(buf)
            }
        }
        impl Write for KillSwitch {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.check()?;
                self.inner.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.inner.flush()
            }
        }
        impl Transport for KillSwitch {
            fn describe(&self) -> String {
                "loopback+killswitch".to_owned()
            }
        }

        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        // KillSwitch wraps the client's end; the server's end is a plain
        // loopback pipe, served by the default sharded core.
        let server = Server::builder()
            .transport(ep)
            .serve(|| Session::new(catalog()));

        let cut = Arc::new(AtomicBool::new(false));
        let connector: Connector = {
            let cut = Arc::clone(&cut);
            Box::new(move || {
                Ok(Box::new(KillSwitch {
                    inner: dial.connect()?,
                    cut: Arc::clone(&cut),
                }) as Box<dyn Transport>)
            })
        };
        let mut client =
            Client::connect_via(connector, Arc::new(FaultRegistry::disabled()), 42).unwrap();

        let r = client.query("SELECT COUNT(*) FROM nums").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1_000)]]);
        assert!(client.is_alive());

        // Cut the link: the next query dies on the wire.
        cut.store(true, Ordering::SeqCst);
        let err = client.query("SELECT MAX(x) FROM nums").unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "got {err:?}");
        assert!(!client.is_alive(), "Io error marks the client dead");

        // Revive in place: new connection, new session, same client.
        cut.store(false, Ordering::SeqCst);
        client.reconnect().unwrap();
        assert!(client.is_alive());
        let r = client.query("SELECT MAX(x) FROM nums").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(999)]]);

        client.close().unwrap();
        let stats = server.wait();
        assert_eq!(stats.connections, 2, "reconnect dialed a fresh connection");
        assert_eq!(stats.disconnects, 1, "the cut connection ended dirty");
    }

    #[test]
    fn reconnect_without_connector_is_an_error() {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(ServerMode::ThreadPerConn { workers: 1 })
            .serve(|| Session::new(catalog()));
        let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        assert!(matches!(
            client.reconnect(),
            Err(NetError::Protocol(m)) if m.contains("connect_via")
        ));
        client.close().unwrap();
        server.wait();
    }

    fn assert_stitched(mode: ServerMode) {
        use perfeval_trace::Tracer;
        let tracer = Tracer::new();
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(mode)
            .traced(&tracer)
            .serve(|| Session::new(catalog()));

        let mut client = Client::connect(Box::new(dial.connect().unwrap()))
            .unwrap()
            .traced(&tracer);
        client.query("SELECT MAX(x) FROM nums").unwrap();
        client.close().unwrap();
        server.wait();

        let trace = tracer.snapshot();
        let net_query = trace.find("net.query").next().expect("client span");
        let net_serve = trace.find("net.serve").next().expect("server span");
        assert_eq!(
            net_serve.parent,
            Some(net_query.id),
            "server span parented under the client's via the frame header"
        );
        // The engine's own spans nest under net.serve on the server lane.
        let query_span = trace.find("query").next().expect("engine root span");
        assert_eq!(query_span.parent, Some(net_serve.id));
    }

    #[test]
    fn spans_stitch_across_the_wire() {
        assert_stitched(ServerMode::ThreadPerConn { workers: 1 });
    }

    #[test]
    fn spans_stitch_in_sharded_mode() {
        assert_stitched(ServerMode::Sharded {
            shards: 2,
            queue_depth: 64,
        });
    }
}
