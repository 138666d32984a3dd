//! E21 — client vs. server time, **measured over a real wire** (slides
//! 23–26, done honestly).
//!
//! E1 reproduces the paper's table with *simulated* device latencies. This
//! experiment retires the simulation: the same queries now travel through
//! `minidb-net` — a real length-prefixed protocol over an in-process
//! loopback or a kernel TCP socket — and every component of "query time"
//! is measured by the stopwatch that can actually see it:
//!
//! * server user / server real — the server's clocks, shipped in the
//!   result footer;
//! * serialize — server wall time encoding + writing result frames;
//! * wire — the client-side residual (receive wall − server busy);
//! * client print — client wall time rendering through the sink.
//!
//! The design is a replicated 2³ factorial: transport (loopback → TCP),
//! sink (null → terminal), result size (one aggregate row → every
//! lineitem). The allocation of variation then answers the paper's
//! question quantitatively: how much of "query time" has nothing to do
//! with the query? The acceptance bar is the delivery share (serialize +
//! wire + print) exceeding 10% of client real time on the terminal × large
//! arm — client-side printing and transfer can dominate what a naive
//! "measure at the client" benchmark would report as query time.

use crate::Ctx;
use minidb::sink::{NullSink, TerminalSink};
use minidb::Session;
use minidb_net::{
    Client, LoopbackEndpoint, Server, ServerHandle, ServerMode, TcpEndpoint, TcpTransport,
};
use perfeval_bench::knobs::Knob;
use perfeval_bench::{bench_catalog, median};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation_replicated;
use workload::queries;

/// Per-arm medians of every component the subsystem measures, in ms.
#[derive(Debug, Default, Clone, Copy)]
struct ArmMedians {
    server_user: f64,
    server_real: f64,
    serialize: f64,
    wire: f64,
    print: f64,
    client_real: f64,
    delivery_share: f64,
}

/// One arm: `reps` queries through `client`, replicate responses =
/// client real ms (the "what the user sees" response variable).
fn measure_arm(
    client: &mut Client,
    sql: &str,
    terminal: bool,
    reps: usize,
) -> (Vec<f64>, ArmMedians) {
    let query = |client: &mut Client| {
        if terminal {
            let mut sink = TerminalSink::new();
            client.query_to(sql, &mut sink)
        } else {
            let mut sink = NullSink;
            client.query_to(sql, &mut sink)
        }
        .expect("arm query")
    };
    query(client); // warmup: first run pays catalog/page faults
    let results: Vec<_> = (0..reps).map(|_| query(client)).collect();
    let med =
        |f: &dyn Fn(&minidb_net::NetQueryResult) -> f64| median(results.iter().map(f).collect());
    let medians = ArmMedians {
        server_user: med(&|r| r.server_user_ms()),
        server_real: med(&|r| r.server_real_ms()),
        serialize: med(&|r| r.serialize_ms()),
        wire: med(&|r| r.wire_ms),
        print: med(&|r| r.print_ms),
        client_real: med(&|r| r.client_real_ms),
        delivery_share: med(&|r| r.delivery_share()),
    };
    (results.iter().map(|r| r.client_real_ms).collect(), medians)
}

#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob::new("reps", "9", "replicates per arm; at least 3").smoke("3"),
];

pub fn run(ctx: &Ctx) {
    let reps = ctx.get::<usize>("reps").max(3);

    // Two live servers, one per transport level — both serve sessions over
    // the same catalog, so the only difference between transport arms is
    // the wire itself.
    let catalog = bench_catalog();
    let new_session = move || Session::new(catalog.clone());
    println!("engine: {} (every served session's tier)", new_session().mode());
    let loop_ep = LoopbackEndpoint::new();
    let loop_dial = loop_ep.connector();
    let loop_server: ServerHandle = Server::builder()
        .transport(loop_ep)
        .mode(ServerMode::ThreadPerConn { workers: 1 })
        .serve(new_session.clone());
    let tcp_ep = TcpEndpoint::bind("127.0.0.1:0").expect("bind");
    let tcp_addr = tcp_ep.local_addr().expect("local addr");
    let tcp_server: ServerHandle = Server::builder()
        .transport(tcp_ep)
        .mode(ServerMode::ThreadPerConn { workers: 1 })
        .serve(new_session);

    let mut loop_client =
        Client::connect(Box::new(loop_dial.connect().expect("loopback dial"))).expect("handshake");
    let mut tcp_client =
        Client::connect(Box::new(TcpTransport::connect(tcp_addr).expect("tcp dial")))
            .expect("handshake");

    let small_sql = queries::q6();
    let large_sql = queries::large_result();

    // 2^3 full factorial, replicated `reps` times per run.
    let design = TwoLevelDesign::full(&["transport", "sink", "result"]);
    let mut replicates: Vec<Vec<f64>> = Vec::with_capacity(design.run_count());
    let mut arm_medians: Vec<ArmMedians> = Vec::with_capacity(design.run_count());
    let mut arm_labels: Vec<String> = Vec::with_capacity(design.run_count());

    println!("arms: {} runs x {reps} replicates", design.run_count());
    println!(
        "\n  transport  sink      result   server-user  server-real  serialize \
         \u{2502}     wire      print  \u{2502} client-real  delivery"
    );
    for r in 0..design.run_count() {
        let tcp = design.factor_sign(r, 0) > 0.0;
        let terminal = design.factor_sign(r, 1) > 0.0;
        let large = design.factor_sign(r, 2) > 0.0;
        let client = if tcp {
            &mut tcp_client
        } else {
            &mut loop_client
        };
        let sql = if large { &large_sql } else { &small_sql };
        let (ys, m) = measure_arm(client, sql, terminal, reps);
        let label = format!(
            "{:<9}  {:<8}  {:<6}",
            if tcp { "tcp" } else { "loopback" },
            if terminal { "terminal" } else { "null" },
            if large { "large" } else { "small" },
        );
        println!(
            "  {label}  {:>10.3}  {:>10.3}  {:>9.3} \u{2502} {:>8.3}  {:>9.3} \u{2502} {:>11.3}  {:>7.1}%",
            m.server_user,
            m.server_real,
            m.serialize,
            m.wire,
            m.print,
            m.client_real,
            m.delivery_share * 100.0,
        );
        replicates.push(ys);
        arm_medians.push(m);
        arm_labels.push(label);
    }

    // Allocation of variation over client real time: which knob moves
    // "query time as the client sees it"?
    let table =
        allocate_variation_replicated(&design, &replicates).expect("responses match design");
    println!("\nallocation of variation (response = client real ms):");
    print!("{}", table.render());
    let ranked = table.ranked_effects();
    println!(
        "largest effect on client-perceived query time: {} ({:.1}% of variation)",
        ranked[0].0,
        ranked[0].1 * 100.0
    );

    // The acceptance bar: on the terminal x large arms, delivery
    // (serialize + wire + print) is a >10% share of client real time —
    // "query time" measured naively at the client is substantially not
    // query time. This is a *ratio*, so machine speed cancels out.
    for r in 0..design.run_count() {
        let terminal = design.factor_sign(r, 1) > 0.0;
        let large = design.factor_sign(r, 2) > 0.0;
        if terminal && large {
            let share = arm_medians[r].delivery_share;
            assert!(
                share > 0.10,
                "arm [{}]: delivery share {:.1}% should exceed 10%",
                arm_labels[r].trim(),
                share * 100.0
            );
            println!(
                "arm [{}]: {:.1}% of client real time is delivery, not query execution.",
                arm_labels[r].trim(),
                share * 100.0
            );
        }
    }

    // One decomposition in full, the honest `mclient -t`: TCP, terminal,
    // large result.
    let mut sink = TerminalSink::new();
    let shown = tcp_client
        .query_to(&large_sql, &mut sink)
        .expect("decomposition query");
    println!(
        "\nfull decomposition, tcp x terminal x large ({} rows, {} wire bytes):",
        shown.row_count(),
        shown.bytes_received
    );
    print!("{}", shown.decomposition());

    loop_client.close().expect("close loopback client");
    tcp_client.close().expect("close tcp client");
    let ls = loop_server.wait();
    let ts = tcp_server.wait();
    assert_eq!(ls.disconnects + ts.disconnects, 0, "clean shutdown");

    if ctx.smoke() {
        println!("\n--smoke: reduced replication; shares and allocation still computed.");
    }
    println!(
        "\nconclusion: the E1 table's lesson, now measured — where you attach \
         the stopwatch (and what the client does with the rows) changes what \
         \"query time\" means."
    );
}
