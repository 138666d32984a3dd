//! `minidb-serve` — a standalone minidb server over TCP.
//!
//! Serves the standard benchmark catalog (TPC-H-like, regenerated
//! deterministically from the recorded seed) to any `minidb-net` client:
//!
//! ```text
//! minidb-serve -Daddr=127.0.0.1:7878 -Dmode=sharded -Dshards=4 -Dsf=0.01
//! minidb-serve --shards 8            # shorthand for -Dmode=sharded -Dshards=8
//! minidb-serve -Dmode=threaded -Dworkers=4
//! minidb-serve --max-inflight 8 --deadline-ms 50   # overload protection
//! ```
//!
//! Two server cores are available (`-Dmode=`): `sharded` (default) runs the
//! event-driven shared-nothing core — `-Dshards=N` readiness-loop workers,
//! each owning its connections, with `-Dqueue=N` bounding every connection's
//! write queue — while `threaded` runs the classic thread-per-connection
//! loop (`-Dworkers=N` acceptors). Both serve bit-identical results; E23
//! (`exp_e23_sharded_server`) measures the difference under load.
//!
//! Overload protection (both cores): `--max-inflight N` (alias
//! `-Dmax_inflight=N`) bounds concurrently executing queries — excess is
//! shed fast with a typed `Rejected { Overloaded }`; `--deadline-ms N`
//! (alias `-Ddeadline_ms=N`) applies a default per-query deadline,
//! enforced by cooperative cancellation, to queries whose header carries
//! none; `-Dmax_conns=N` bounds concurrent sessions at the handshake.
//! `0` disables each knob. E25 (`exp_e25_overload`) measures the policy
//! under saturation.
//!
//! Persistent storage: `--data-dir PATH` (alias `-Ddata_dir=PATH`) serves
//! a **disk-backed** catalog from that directory — persisted there on
//! first use, reopened afterwards — with every connection sharing one
//! real buffer pool. `--pool-mb N` (alias `-Dpool_mb=N`) sets the pool
//! budget and `-Devict=lru|clock|2q` its eviction policy.
//!
//! Each connection gets a private session over the shared catalog. The
//! server runs until killed; `--smoke` instead connects its own client,
//! runs one query end to end in **both** modes, proves persist → reopen
//! serves bit-identical rows through the real buffer pool, then proves
//! the admission knobs: a held in-flight slot sheds a concurrent query
//! `Overloaded`, and an expired default deadline comes back
//! `DeadlineExceeded` without poisoning the connection. Exits 0 — the
//! self-test CI runs.

use std::path::PathBuf;
use std::sync::Arc;

use minidb::{Catalog, Session, StoreConfig};
use minidb_net::{
    Admission, Client, NetError, RejectCode, Server, ServerMode, TcpEndpoint, TcpTransport,
    DEFAULT_QUEUE_DEPTH,
};
use perfeval_bench::{
    banner, catalog_at, print_environment, print_wire_protocol, BENCH_SCALE_FACTOR,
};
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};
use perfeval_harness::Properties;
use workload::queries;

fn main() {
    banner(
        "minidb-serve: the wire-protocol server",
        "the E21/E23/E25 substrate",
    );
    print_environment();
    print_wire_protocol();
    println!();

    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Quickstart spellings of the -D knobs.
    for (flag, key) in [
        ("--shards", "shards"),
        ("--max-inflight", "max_inflight"),
        ("--deadline-ms", "deadline_ms"),
        ("--pool-mb", "pool_mb"),
    ] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            let n = args
                .get(i + 1)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{flag} needs a number"));
            let mut replacement = vec![format!("-D{key}={n}")];
            if flag == "--shards" {
                replacement.insert(0, "-Dmode=sharded".into());
            }
            args.splice(i..=i + 1, replacement);
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--data-dir") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--data-dir needs a path"))
            .clone();
        args.splice(i..=i + 1, [format!("-Ddata_dir={path}")]);
    }
    let mut props = Properties::with_defaults(&[
        ("addr", "127.0.0.1:7878"),
        ("mode", "sharded"),
        ("workers", "4"),
        ("shards", "0"),
        ("queue", &DEFAULT_QUEUE_DEPTH.to_string()),
        ("sf", &BENCH_SCALE_FACTOR.to_string()),
        ("max_inflight", "0"),
        ("max_conns", "0"),
        ("deadline_ms", "0"),
        ("data_dir", ""),
        ("pool_mb", "64"),
        ("evict", "lru"),
    ]);
    props
        .apply_args(args.iter().filter(|a| *a != "--smoke").map(String::as_str))
        .expect(
            "arguments must be --smoke, --shards N, --max-inflight N, --deadline-ms N, \
             --data-dir PATH, --pool-mb N, or -Dkey=value",
        );
    let addr = props.get("addr").expect("-Daddr").to_owned();
    let workers = props
        .get_u64("workers")
        .expect("-Dworkers must be a number")
        .unwrap_or(4)
        .max(1) as usize;
    let shards = props
        .get_u64("shards")
        .expect("-Dshards must be a number")
        .unwrap_or(0) as usize;
    let queue_depth = props
        .get_u64("queue")
        .expect("-Dqueue must be a number")
        .unwrap_or(DEFAULT_QUEUE_DEPTH as u64)
        .max(1) as usize;
    let sf = props
        .get_f64("sf")
        .expect("-Dsf must be a number")
        .unwrap_or(BENCH_SCALE_FACTOR);
    let max_inflight = props
        .get_u64("max_inflight")
        .expect("-Dmax_inflight must be a number")
        .unwrap_or(0) as usize;
    let max_conns = props
        .get_u64("max_conns")
        .expect("-Dmax_conns must be a number")
        .unwrap_or(0) as usize;
    let deadline_ms = props
        .get_u64("deadline_ms")
        .expect("-Ddeadline_ms must be a number")
        .unwrap_or(0) as u32;
    let admission = Admission::default()
        .max_inflight(max_inflight)
        .max_conns(max_conns)
        .default_deadline_ms(deadline_ms);
    let mode = match props.get("mode").expect("-Dmode") {
        "threaded" => ServerMode::ThreadPerConn { workers },
        "sharded" => match shards {
            // -Dshards=0: let the builder pick from available cores.
            0 => match ServerMode::default() {
                ServerMode::Sharded { shards, .. } => ServerMode::Sharded {
                    shards,
                    queue_depth,
                },
                other => other,
            },
            n => ServerMode::Sharded {
                shards: n,
                queue_depth,
            },
        },
        other => panic!("-Dmode must be 'sharded' or 'threaded', got '{other}'"),
    };

    let data_dir = props.get("data_dir").unwrap_or("").to_owned();
    let pool_mb = props
        .get_u64("pool_mb")
        .expect("-Dpool_mb must be a number")
        .unwrap_or(64)
        .max(1);
    let evict: perfeval_store::Evict = props
        .get("evict")
        .unwrap_or("lru")
        .parse()
        .expect("-Devict must be lru, clock, or 2q");
    let store_config = StoreConfig::default()
        .pool_bytes(pool_mb * 1024 * 1024)
        .evict(evict);

    // --data-dir: serve disk-backed, persisting on first use. Every
    // connection's session shares the one real buffer pool behind the
    // catalog's Arc<Storage>.
    let catalog = if data_dir.is_empty() {
        catalog_at(sf)
    } else {
        let root = PathBuf::from(&data_dir);
        if !root
            .join(perfeval_store::manifest::CATALOG_MANIFEST)
            .exists()
        {
            catalog_at(sf)
                .persist(&root)
                .expect("persist catalog into --data-dir");
            println!("persisted sf={sf} catalog into {}", root.display());
        }
        let c = Catalog::open_with(&root, store_config.clone()).expect("open --data-dir");
        println!(
            "serving disk-backed from {} (pool {pool_mb} MiB, evict {})",
            root.display(),
            evict.as_str()
        );
        c
    };
    let serve = |mode: ServerMode, bind: &str| {
        let endpoint = TcpEndpoint::bind(bind).expect("bind listener");
        let local = endpoint.local_addr().expect("local addr");
        let catalog = catalog.clone();
        let server = Server::builder()
            .transport(endpoint)
            .mode(mode)
            .admission(admission)
            .serve(move || Session::new(catalog.clone()));
        (server, local)
    };

    if smoke {
        // Exercise BOTH cores end to end on ephemeral ports (CI runs never
        // collide), proving either mode serves a real client.
        for mode in [mode, ServerMode::ThreadPerConn { workers }] {
            let (server, local) = serve(mode, "127.0.0.1:0");
            println!("\n[{}] listening on {local} (sf={sf})", mode.describe());
            let mut client = Client::connect(Box::new(
                TcpTransport::connect(local).expect("self-connect"),
            ))
            .expect("handshake");
            let r = client.query(&queries::q6()).expect("smoke query");
            println!("self-test: Q6 over tcp, {} row(s).", r.row_count());
            print!("{}", r.decomposition());
            client.close().expect("close");
            let stats = server.wait();
            assert_eq!(stats.queries, 1);
            assert_eq!(stats.disconnects, 0);
        }

        // Persist -> reopen proof: the same query served from a freshly
        // reopened disk-backed catalog must return the same rows, and
        // its cold scan must show real buffer-pool I/O.
        let proof_dir = if data_dir.is_empty() {
            std::env::temp_dir().join(format!("minidb_serve_smoke_{}", std::process::id()))
        } else {
            PathBuf::from(&data_dir)
        };
        let mem = catalog_at(sf);
        if !proof_dir
            .join(perfeval_store::manifest::CATALOG_MANIFEST)
            .exists()
        {
            mem.persist(&proof_dir).expect("smoke persist");
        }
        let disk = Catalog::open_with(&proof_dir, store_config.clone()).expect("smoke reopen");
        let want = Session::new(mem).query(&queries::q6()).run().expect("mem");
        let got = Session::new(disk)
            .query(&queries::q6())
            .run()
            .expect("disk");
        assert_eq!(
            want.rows, got.rows,
            "persist -> reopen must not change rows"
        );
        assert!(
            got.store_physical_reads > 0,
            "the reopened catalog's cold scan must do real I/O"
        );
        println!(
            "\nself-test: persist -> reopen bit-identical; cold scan did \
             {} real reads through the pool.",
            got.store_physical_reads
        );
        if data_dir.is_empty() {
            let _ = std::fs::remove_dir_all(&proof_dir);
        }

        // --max-inflight: a held slot sheds a concurrent query, typed.
        // The first statement of each session stalls 120 ms at the
        // `minidb.execute` failpoint, so the budget is provably occupied
        // when the second client asks.
        let stall = Arc::new(FaultRegistry::new(25).armed_always(
            "minidb.execute",
            Trigger::Key(0),
            FaultAction::DelayMs(120.0),
        ));
        let catalog2 = catalog.clone();
        let endpoint = TcpEndpoint::bind("127.0.0.1:0").expect("bind listener");
        let local = endpoint.local_addr().expect("local addr");
        let server = Server::builder()
            .transport(endpoint)
            .mode(ServerMode::ThreadPerConn { workers: 2 })
            .admission(Admission::default().max_inflight(1))
            .serve(move || Session::new(catalog2.clone()).with_faults(Arc::clone(&stall)));
        let mut slow =
            Client::connect(Box::new(TcpTransport::connect(local).expect("dial"))).expect("hello");
        let mut fast =
            Client::connect(Box::new(TcpTransport::connect(local).expect("dial"))).expect("hello");
        let q = queries::q6();
        let holder = std::thread::spawn(move || {
            slow.query(&q).expect("stalled query still completes");
            slow.close().expect("close");
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        match fast.query(&queries::q6()) {
            Err(NetError::Rejected {
                code: RejectCode::Overloaded,
                ..
            }) => println!("\nself-test: --max-inflight 1 shed a concurrent query (Overloaded)."),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        holder.join().expect("holder thread");
        fast.query(&queries::q6())
            .expect("shed client retries once the slot frees");
        fast.close().expect("close");
        let stats = server.wait();
        assert!(stats.rejected_overload >= 1);

        // --deadline-ms: the server-side default deadline cancels a
        // stalled statement cooperatively and answers typed; the same
        // connection then serves the follow-up normally.
        let stall = Arc::new(FaultRegistry::new(26).armed_always(
            "minidb.execute",
            Trigger::Key(0),
            FaultAction::DelayMs(60.0),
        ));
        let catalog3 = catalog.clone();
        let endpoint = TcpEndpoint::bind("127.0.0.1:0").expect("bind listener");
        let local = endpoint.local_addr().expect("local addr");
        let server = Server::builder()
            .transport(endpoint)
            .mode(mode)
            .admission(
                Admission::default().default_deadline_ms(if deadline_ms > 0 {
                    deadline_ms
                } else {
                    10
                }),
            )
            .serve(move || Session::new(catalog3.clone()).with_faults(Arc::clone(&stall)));
        let mut client =
            Client::connect(Box::new(TcpTransport::connect(local).expect("dial"))).expect("hello");
        match client.query(&queries::q6()) {
            Err(NetError::Rejected {
                code: RejectCode::DeadlineExceeded,
                ..
            }) => {
                println!("self-test: --deadline-ms cancelled a stalled query (DeadlineExceeded).")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        client
            .query(&queries::q6())
            .expect("the cancelled query did not poison the connection");
        client.close().expect("close");
        let stats = server.wait();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.cancelled_queries, 1);
        assert_eq!(stats.disconnects, 0);

        println!(
            "\n--smoke: served one client cleanly in each mode; admission and \
             deadline knobs enforced; exiting."
        );
        return;
    }

    let (_server, local) = serve(mode, addr.as_str());
    println!(
        "listening on {local} ({}, sf={sf}, {}); one session per connection.",
        mode.describe(),
        admission.describe()
    );
    // Foreground server: park this thread while the core runs.
    // (Kill the process to stop; connections in flight finish their loop.)
    loop {
        std::thread::park();
    }
}
