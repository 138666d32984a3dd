//! `minidb-serve` — a standalone minidb server over TCP.
//!
//! Serves the standard benchmark catalog (TPC-H-like, regenerated
//! deterministically from the recorded seed) to any `minidb-net` client:
//!
//! ```text
//! minidb-serve -Daddr=127.0.0.1:7878 -Dmode=sharded -Dshards=4 -Dsf=0.01
//! minidb-serve --shards 8            # shorthand for -Dshards=8 (sharded is the default mode)
//! minidb-serve -Dmode=threaded -Dworkers=4
//! minidb-serve --max-inflight 8 --deadline-ms 50   # overload protection
//! ```
//!
//! Two server cores are available (`-Dmode=`): `sharded` (default) runs the
//! event-driven shared-nothing core — `-Dshards=N` readiness-loop workers,
//! each owning its connections, with `-Dqueue=N` bounding every connection's
//! write queue — while `threaded` runs the classic thread-per-connection
//! loop (`-Dworkers=N` acceptors). Both serve bit-identical results; E23
//! (`perfeval-exp e23`) measures the difference under load.
//!
//! Overload protection (both cores): `--max-inflight N` (alias
//! `-Dmax_inflight=N`) bounds concurrently executing queries — excess is
//! shed fast with a typed `Rejected { Overloaded }`; `--deadline-ms N`
//! (alias `-Ddeadline_ms=N`) applies a default per-query deadline,
//! enforced by cooperative cancellation, to queries whose header carries
//! none; `-Dmax_conns=N` bounds concurrent sessions at the handshake.
//! `0` disables each knob. E25 (`perfeval-exp e25`) measures the policy
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

use std::path::{Path, PathBuf};
use std::sync::Arc;

use minidb::{Session, StoreConfig};
use minidb_net::{
    Admission, Client, NetError, RejectCode, Server, ServerMode, TcpEndpoint, TcpTransport,
};
use perfeval_bench::knobs::{Config, Flag, Knob};
use perfeval_bench::{
    catalog_at, cli_args, open_or_persist, print_header, print_wire_protocol, server_mode,
};
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};
use workload::queries;

#[rustfmt::skip]
const KNOBS: &[Knob] = &[
    Knob::new("addr", "127.0.0.1:7878", "where to listen"),
    Knob::new("mode", "sharded", "the server core: sharded | threaded"),
    Knob::new("workers", "4", "threaded: acceptor threads"),
    Knob::new("shards", "0", "sharded: readiness loops (0 = one per core)"),
    Knob::new("queue", "64", "sharded: write-queue bound per connection, frames"),
    Knob::new("sf", "0.01", "scale factor of the served catalog"),
    Knob::new("max_inflight", "0", "concurrently executing queries before shedding (0 = off)"),
    Knob::new("max_conns", "0", "concurrent sessions admitted at the handshake (0 = off)"),
    Knob::new("deadline_ms", "0", "default per-query deadline, ms (0 = none)"),
    Knob::new("data_dir", "", "serve disk-backed from here, persisting on first use"),
    Knob::new("pool_mb", "64", "buffer-pool budget of a disk-backed catalog, MiB"),
    Knob::new("evict", "lru", "its eviction policy: lru | clock | 2q"),
];

/// Quickstart spellings of the knobs above.
const FLAGS: &[Flag] = &[
    ("--shards", "shards"),
    ("--max-inflight", "max_inflight"),
    ("--deadline-ms", "deadline_ms"),
    ("--pool-mb", "pool_mb"),
    ("--data-dir", "data_dir"),
];

fn main() {
    let config = Config::parse_or_exit("minidb-serve", KNOBS, FLAGS, &cli_args());
    print_header(
        "minidb-serve: the wire-protocol server",
        "the E21/E23/E25 substrate",
        &config,
    );

    let smoke = config.smoke();
    let addr = config.str("addr");
    let workers = config.get::<usize>("workers").max(1);
    let sf = config.get::<f64>("sf");
    let deadline_ms = config.get::<u32>("deadline_ms");
    let admission = Admission::default()
        .max_inflight(config.get::<usize>("max_inflight"))
        .max_conns(config.get::<usize>("max_conns"))
        .default_deadline_ms(deadline_ms);
    let mode = server_mode(
        config.str("mode"),
        workers,
        config.get::<usize>("shards"),
        config.get::<usize>("queue").max(1),
    )
    .unwrap_or_else(|bad_mode| config.refuse(&bad_mode));

    let data_dir = config.str("data_dir");
    let pool_mb = config.get::<u64>("pool_mb").max(1);
    let evict: perfeval_store::Evict = config
        .str("evict")
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
        let c = open_or_persist(Path::new(data_dir), sf, store_config.clone());
        println!(
            "serving disk-backed from {data_dir} (pool {pool_mb} MiB, evict {})",
            evict.as_str()
        );
        c
    };
    // What every connection gets; the banner reads its tier off one.
    let new_session = {
        let catalog = catalog.clone();
        move || Session::new(catalog.clone())
    };
    print_wire_protocol(Some(new_session().mode()));
    println!();
    let serve = |mode: ServerMode, bind: &str| {
        let endpoint = TcpEndpoint::bind(bind).expect("bind listener");
        let local = endpoint.local_addr().expect("local addr");
        let server = Server::builder()
            .transport(endpoint)
            .mode(mode)
            .admission(admission)
            .serve(new_session.clone());
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
            PathBuf::from(data_dir)
        };
        let disk = open_or_persist(&proof_dir, sf, store_config.clone());
        let want = Session::new(catalog_at(sf))
            .query(&queries::q6())
            .run()
            .expect("mem");
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

    let (_server, local) = serve(mode, addr);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_defaults_are_the_library_constants() {
        let config = Config::parse(KNOBS, FLAGS, &[]).expect("the empty command line");
        assert_eq!(
            config.get::<usize>("queue"),
            minidb_net::DEFAULT_QUEUE_DEPTH
        );
        assert_eq!(config.get::<f64>("sf"), perfeval_bench::BENCH_SCALE_FACTOR);
    }
}
