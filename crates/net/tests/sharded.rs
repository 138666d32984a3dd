//! Behavioral contracts specific to the sharded server core: bounded write
//! queues under a slow reader (backpressure that is *charged to serialize*,
//! never unbounded memory), deterministic connection→shard placement, the
//! wire-fault parity with the thread-per-conn core the docs promise, and
//! the refusal of a connection the core cannot poll.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use minidb::{Catalog, DataType, Session, StoreConfig, TableBuilder, Value};
use minidb_net::{
    shard_for, Client, Frame, FramedIo, Listener, LoopbackEndpoint, NetError, Server, ServerMode,
    Transport, PROTOCOL_VERSION,
};
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};

fn catalog(rows: i64) -> Catalog {
    let mut catalog = Catalog::new();
    let mut t = TableBuilder::new("nums")
        .column("x", DataType::Int)
        .column("y", DataType::Float)
        .build();
    for i in 0..rows {
        t.push_row(vec![Value::Int(i), Value::Float(i as f64 / 4.0)])
            .unwrap();
    }
    catalog.register(t).unwrap();
    catalog
}

/// A slow reader must not make the server buffer its whole result: the
/// per-connection write queue stays bounded by `queue_depth` (plus the
/// header/footer bookends), the stall is charged to the footer's
/// `serialize_ms`, and — the shared-nothing payoff — another client on the
/// *same shard* keeps completing queries while the slow one dawdles.
#[test]
fn slow_reader_backpressure_is_bounded_and_charged_to_serialize() {
    const QUEUE_DEPTH: usize = 2;
    const ROWS: i64 = 40_000;
    // 16 bytes a row, 4 096 rows a batch: 40k rows are 10 batches — far more
    // frames than the queue may hold.
    let ep = LoopbackEndpoint::with_capacity(512);
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::Sharded {
            shards: 1,
            queue_depth: QUEUE_DEPTH,
        })
        .serve(|| Session::new(catalog(ROWS)));

    // The slow reader drives the protocol by hand so it can dawdle between
    // frames while the server's response sits in the bounded queue.
    let mut slow = FramedIo::new(
        Box::new(dial.connect().unwrap()),
        Arc::new(FaultRegistry::disabled()),
        1,
    );
    slow.send(&Frame::Hello {
        version: PROTOCOL_VERSION,
    })
    .unwrap();
    match slow.recv().unwrap() {
        Frame::HelloOk { .. } => {}
        other => panic!("expected HelloOk, got {other:?}"),
    }
    slow.send(&Frame::Query {
        trace_parent: 0,
        deadline_ms: 0,
        sql: "SELECT x, y FROM nums".into(),
    })
    .unwrap();

    // While the slow reader sleeps, a fast client on the SAME shard must
    // keep getting answers: the event loop parks the stalled response
    // instead of parking the shard.
    let mut fast = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    for i in 0..5 {
        let r = fast
            .query(&format!("SELECT COUNT(*) FROM nums WHERE x < {i}"))
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(i)]],
            "fast client progresses while the slow reader stalls its shardmate"
        );
    }
    fast.close().unwrap();

    // Now drain the stalled result — slowly at first, so real wall time
    // lands in the server's serialize account.
    let mut rows_seen = 0u64;
    let mut frames = 0u32;
    let footer = loop {
        match slow.recv().unwrap() {
            Frame::ResultHeader { .. } => {}
            Frame::ColumnBatch(batch) => {
                rows_seen += batch.rows() as u64;
                frames += 1;
                if frames <= 5 {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            Frame::Done(footer) => break footer,
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert_eq!(rows_seen, ROWS as u64);
    assert_eq!(footer.rows, ROWS as u64);
    assert!(frames >= 8, "a multi-batch answer: {frames} batches");
    assert!(
        footer.serialize_ms >= 50.0,
        "the reader's stall is the server's serialize time: {} ms",
        footer.serialize_ms
    );
    slow.send(&Frame::Bye).unwrap();

    let peak = server.write_queue_peak();
    let stats = server.wait();
    assert_eq!(stats.connections, 2);
    assert!(
        peak as usize <= QUEUE_DEPTH + 2,
        "write queue bounded by depth {QUEUE_DEPTH} (+header/footer), saw peak {peak}"
    );
    assert!(peak >= 1, "the squeezed response must have queued at all");
}

/// The same connection→shard map, run after run: placement is
/// `shard_for(0, connection ordinal, shard count)` — never a function of
/// timing — so a sweep's shard assignment is reproducible, and the
/// benchmark can compute it. (`shard_for`'s own tests cover its seed.)
#[test]
fn shard_placement_is_deterministic_under_a_seed() {
    const CONNS: usize = 32;
    let run = || -> Vec<u64> {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(ServerMode::Sharded {
                shards: 4,
                queue_depth: 16,
            })
            .serve(|| Session::new(catalog(100)));
        // Sequential dials: connection ordinals are assigned in accept
        // order, so the placement vector is comparable across runs.
        for _ in 0..CONNS {
            let mut c = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
            let r = c.query("SELECT COUNT(*) FROM nums").unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(100)]]);
            c.close().unwrap();
        }
        let placement = server.shard_conns().expect("sharded mode telemetry");
        let stats = server.wait();
        assert_eq!(stats.connections, CONNS as u64);
        placement
    };

    let a = run();
    let b = run();
    let mut want = vec![0u64; 4];
    for k in 0..CONNS as u64 {
        want[shard_for(0, k, 4)] += 1;
    }
    assert_eq!(a.iter().sum::<u64>(), CONNS as u64);
    assert_eq!(a, b, "same ordinals, same map");
    assert_eq!(a, want, "the map is shard_for at seed 0");
    assert!(
        a.iter().all(|&n| n > 0),
        "32 conns over 4 shards should touch every shard: {a:?}"
    );
}

/// Queries answered with and without borrowed cores are bit-identical — idle
/// shards lend parallelism, which may change the morsel schedule but never
/// the answer. One shard has no lender; a lone query on four borrows.
#[test]
fn work_stealing_changes_timing_never_answers() {
    let run = |shards: usize| -> Vec<Vec<Value>> {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(ServerMode::Sharded {
                shards,
                queue_depth: 16,
            })
            .serve(|| Session::new(catalog(10_000)));
        let mut c = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        let r = c.query("SELECT SUM(y), MAX(x) FROM nums").unwrap();
        let rows = r.rows;
        c.close().unwrap();
        if shards > 1 {
            assert!(
                server.steal_borrows() > 0,
                "a lone query on a 4-shard server should borrow idle cores"
            );
        } else {
            assert_eq!(server.steal_borrows(), 0);
        }
        server.wait();
        rows
    };
    assert_rows_bit_identical(&run(4), &run(1));
}

fn assert_rows_bit_identical(got: &[Vec<Value>], want: &[Vec<Value>]) {
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want) {
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (Value::Float(f), Value::Float(g)) => assert_eq!(f.to_bits(), g.to_bits()),
                _ => assert_eq!(x, y),
            }
        }
    }
}

/// The borrowed core works from a sweep's first units on: one connection on
/// two pinned shards, a multi-chunk disk-backed scan — some `chunk k` unit
/// runs on the `worker-1` lane, the operator's span counts it, and the
/// answer is the one-thread answer by bits.
#[test]
fn a_lone_connections_sweep_runs_units_on_the_borrowed_core() {
    use perfeval_pool::affinity::CpuSet;
    if CpuSet::of_process().map_or(0, |p| p.count()) < 2 {
        println!("borrowed core: skipped (the process has fewer than two CPUs)");
        return;
    }
    let dir = std::env::temp_dir().join(format!("minidb_net_borrowed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    catalog(64_000)
        .persist_with(&dir, &StoreConfig::default().chunk_rows(1000))
        .unwrap();
    let disk = Catalog::open(&dir).unwrap();
    let sql = "SELECT SUM(y), MAX(x), COUNT(*) FROM nums WHERE x >= 0";
    let want = Session::new(disk.clone()).query(sql).run().unwrap().rows;

    let tracer = perfeval_trace::Tracer::new();
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::Sharded {
            shards: 2,
            queue_depth: 16,
        })
        .traced(&tracer)
        .serve(move || Session::new(disk.clone()));
    let mut c = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    for _ in 0..5 {
        assert_rows_bit_identical(&c.query(sql).unwrap().rows, &want);
    }
    c.close().unwrap();
    // The first statement can arrive before the other shard has gone idle.
    let lent = server.steal_borrows();
    assert!(
        (4..=5).contains(&lent),
        "{lent} of 5 statements were lent a core"
    );
    server.wait();

    let trace = tracer.snapshot();
    let on_helper = (trace.lanes.iter().filter(|l| l.label == "worker-1"))
        .flat_map(|l| &l.records)
        .filter(|r| r.name.starts_with("chunk "))
        .count();
    let said: Vec<_> = (trace.lanes.iter().flat_map(|l| &l.records))
        .filter_map(|r| r.attr("units_by_worker"))
        .collect();
    println!("borrowed core: {on_helper} of 320 chunk units on worker-1; {said:?}");
    assert!(
        on_helper > 0,
        "the helper ran no unit of five 64-chunk sweeps"
    );
    assert_eq!(said.len() as u64, lent, "one sweep a statement lent a core");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault parity across the cores: `net.write` is keyed by connection and
/// frame ordinal on the server side of both, so a `FailIo` armed at frame
/// `k` of one connection — inside a multi-batch answer — cuts that stream
/// after the same `k - 1` delivered frames whichever core serves it, counts
/// one disconnect, and leaves the other connection alone.
#[test]
fn injected_write_failure_cuts_the_stream_at_the_same_frame_in_both_cores() {
    // 16 bytes a row, 4 096 rows a batch: 36 000 rows = 9 batches. HelloOk,
    // ResultHeader, 9 x ColumnBatch, Done are frames 1..=12 of the
    // connection. Frame 5 is the third ColumnBatch.
    const ROWS: i64 = 36_000;
    const CUT_AT: u32 = 5;
    let modes = [
        ServerMode::ThreadPerConn { workers: 2 },
        ServerMode::Sharded {
            shards: 1,
            queue_depth: 64,
        },
        ServerMode::Sharded {
            shards: 4,
            queue_depth: 64,
        },
    ];
    for mode in modes {
        let faults = Arc::new(FaultRegistry::new(1).armed_always(
            "net.write",
            Trigger::KeyAttempt {
                key: 1,
                attempt: CUT_AT,
            },
            FaultAction::FailIo,
        ));
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(mode)
            .with_faults(faults)
            .serve(|| Session::new(catalog(ROWS)));

        // Sequential dials: the bystander is connection 0, the victim 1.
        let mut bystander = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        let mut victim = FramedIo::new(
            Box::new(dial.connect().unwrap()),
            Arc::new(FaultRegistry::disabled()),
            1,
        );
        victim
            .send(&Frame::Hello {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
        victim
            .send(&Frame::Query {
                trace_parent: 0,
                deadline_ms: 0,
                sql: "SELECT x, y FROM nums".into(),
            })
            .unwrap();
        let mut got = Vec::new();
        while let Ok(frame) = victim.recv() {
            got.push(frame);
        }
        let shape: Vec<&str> = got
            .iter()
            .map(|f| match f {
                Frame::HelloOk { .. } => "HelloOk",
                Frame::ResultHeader { .. } => "ResultHeader",
                Frame::ColumnBatch(batch) if batch.rows() == 4_096 => "ColumnBatch",
                _ => "other",
            })
            .collect();
        assert_eq!(
            shape,
            ["HelloOk", "ResultHeader", "ColumnBatch", "ColumnBatch"],
            "{mode:?}: frames 1..{CUT_AT} arrive, frame {CUT_AT} and the rest never do"
        );

        let r = bystander.query("SELECT x, y FROM nums").unwrap();
        assert_eq!(
            r.rows.len(),
            ROWS as usize,
            "{mode:?}: the other connection"
        );
        bystander.close().unwrap();
        let stats = server.wait();
        assert_eq!(stats.connections, 2, "{mode:?}");
        assert_eq!(stats.disconnects, 1, "{mode:?}: only the cut connection");
        assert_eq!(stats.worker_panics, 0, "{mode:?}");
    }
}

/// The read-side twin: `net.read` is keyed the same way on both cores, so a
/// `FailIo` armed at one connection's second inbound frame — its first
/// `Query` — ends that connection right after the `HelloOk`, with no
/// statement run, one disconnect, and the other connection untouched.
#[test]
fn injected_read_failure_ends_the_connection_at_the_same_frame_in_both_cores() {
    const ROWS: i64 = 1_000;
    let modes = [
        ServerMode::ThreadPerConn { workers: 2 },
        ServerMode::Sharded {
            shards: 1,
            queue_depth: 64,
        },
        ServerMode::Sharded {
            shards: 4,
            queue_depth: 64,
        },
    ];
    for mode in modes {
        let faults = Arc::new(FaultRegistry::new(1).armed_always(
            "net.read",
            Trigger::KeyAttempt { key: 1, attempt: 2 },
            FaultAction::FailIo,
        ));
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let server = Server::builder()
            .transport(ep)
            .mode(mode)
            .with_faults(faults)
            .serve(|| Session::new(catalog(ROWS)));

        // Sequential dials: the bystander is connection 0, the victim 1.
        let mut bystander = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
        let mut victim = FramedIo::new(
            Box::new(dial.connect().unwrap()),
            Arc::new(FaultRegistry::disabled()),
            1,
        );
        victim
            .send(&Frame::Hello {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
        assert!(
            matches!(victim.recv(), Ok(Frame::HelloOk { .. })),
            "{mode:?}: frame 1, the Hello, is answered"
        );
        // The blocking core gates frame 2 before it reads, so it may have
        // hung up before this write lands: its outcome is not the point.
        let _ = victim.send(&Frame::Query {
            trace_parent: 0,
            deadline_ms: 0,
            sql: "SELECT COUNT(*) FROM nums".into(),
        });
        let after: Vec<Frame> = std::iter::from_fn(|| victim.recv().ok()).collect();
        assert!(
            after.is_empty(),
            "{mode:?}: frame 2, the Query, ends the stream: {after:?}"
        );

        let r = bystander.query("SELECT COUNT(*) FROM nums").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(ROWS)]], "{mode:?}");
        bystander.close().unwrap();
        let stats = server.wait();
        assert_eq!(stats.connections, 2, "{mode:?}");
        assert_eq!(stats.queries, 1, "{mode:?}: the cut Query never ran");
        assert_eq!(stats.disconnects, 1, "{mode:?}: only the cut connection");
        assert_eq!(stats.worker_panics, 0, "{mode:?}");
    }
}

/// Engine errors and panics stay contained per connection in sharded mode,
/// exactly as in thread-per-conn: the session survives a failed query.
#[test]
fn sharded_server_reports_db_errors_without_dying() {
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server = Server::builder()
        .transport(ep)
        .mode(ServerMode::Sharded {
            shards: 2,
            queue_depth: 8,
        })
        .serve(|| Session::new(catalog(1_000)));
    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    assert!(client.query("SELECT nope FROM nums").is_err());
    let r = client.query("SELECT COUNT(*) FROM nums").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1_000)]]);
    client.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.disconnects, 0);
}

/// A server end that offers `Read + Write + describe` and nothing else: no
/// readiness source, so the sharded core has nothing to poll.
struct ReadWriteOnly(Box<dyn Transport>);

impl Read for ReadWriteOnly {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for ReadWriteOnly {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Transport for ReadWriteOnly {
    fn describe(&self) -> String {
        "loopback, read + write only".to_owned()
    }
}

/// A loopback listener whose first accepted connection comes out as a
/// [`ReadWriteOnly`]; every later one is the plain loopback end.
struct FirstReadWriteOnly {
    inner: Arc<LoopbackEndpoint>,
    wrapped: AtomicBool,
}

impl Listener for FirstReadWriteOnly {
    fn accept(&self) -> io::Result<Box<dyn Transport>> {
        let conn = self.inner.accept()?;
        if self.wrapped.swap(true, Ordering::SeqCst) {
            Ok(conn)
        } else {
            Ok(Box::new(ReadWriteOnly(conn)))
        }
    }
    fn shutdown(&self) {
        self.inner.shutdown();
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// One connection rule per core: the sharded core serves what it can poll
/// and refuses the rest before the `Hello` — the dialer sees a transport
/// error, the server one disconnect, and the next pollable connection is
/// served as usual. Thread-per-conn serves any `Read + Write`, so the same
/// listener's unpollable connection answers there.
#[test]
fn a_connection_the_sharded_core_cannot_poll_is_refused_and_thread_per_conn_serves_it() {
    const ROWS: i64 = 1_000;
    let start = |mode: ServerMode| {
        let ep = LoopbackEndpoint::new();
        let dial = ep.connector();
        let listener = Arc::new(FirstReadWriteOnly {
            inner: ep,
            wrapped: AtomicBool::new(false),
        });
        let server = Server::builder()
            .transport(listener)
            .mode(mode)
            .serve(|| Session::new(catalog(ROWS)));
        (server, dial)
    };

    let (server, dial) = start(ServerMode::default());
    let before = server.stats().disconnects;
    let refused = Client::connect(Box::new(dial.connect().unwrap()));
    assert!(
        matches!(refused, Err(NetError::Io(_))),
        "the unpollable connection is refused: {:?}",
        refused.err()
    );
    assert_eq!(server.stats().disconnects, before + 1, "counted once");
    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    let r = client.query("SELECT COUNT(*) FROM nums").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(ROWS)]]);
    client.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.disconnects, before + 1, "only the refused connection");
    assert_eq!(stats.worker_panics, 0);

    let (server, dial) = start(ServerMode::ThreadPerConn { workers: 2 });
    let mut client = Client::connect(Box::new(dial.connect().unwrap())).unwrap();
    let r = client.query("SELECT COUNT(*) FROM nums").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(ROWS)]]);
    client.close().unwrap();
    let stats = server.wait();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.disconnects, 0);
}
