//! Quickstart for the wire-protocol layer: start a TCP server, connect a
//! client, and decompose one query's wall time into the components only a
//! real client/server split can measure.
//!
//! ```text
//! cargo run --release --example net_client
//! ```
//!
//! This is the README's "measure at the client, honestly" demo: the same
//! query that looks instant server-side can spend most of its client-side
//! wall time on serialize + wire + print — the paper's slides 23–26, with
//! real stopwatches instead of simulated devices.

use perfeval::minidb::sink::TerminalSink;
use perfeval::prelude::*;

fn main() {
    // A small deterministic TPC-H-like catalog; every connection gets its
    // own session over it.
    let catalog = generate(&GenConfig {
        scale_factor: 0.01,
        ..GenConfig::default()
    });

    // Server: real TCP on an ephemeral port, the sharded event-driven core
    // (two shards). `ServerMode::ThreadPerConn` would serve identically —
    // bit for bit — one thread per connection.
    let endpoint = TcpEndpoint::bind("127.0.0.1:0").expect("bind");
    let addr = endpoint.local_addr().expect("addr");
    let server = Server::builder()
        .transport(endpoint)
        .mode(ServerMode::Sharded {
            shards: 2,
            queue_depth: 64,
        })
        .serve(move || Session::new(catalog.clone()));
    println!(
        "server listening on {addr} (engine {})",
        ExecMode::default()
    );

    // Client: its own connection, its own stopwatch.
    let mut client =
        Client::connect(Box::new(TcpTransport::connect(addr).expect("dial"))).expect("handshake");

    // A tiny result: delivery is noise, the query is the time.
    let small = client
        .query("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24")
        .expect("small query");
    println!(
        "\nsmall result ({} row): delivery share {:.1}%",
        small.row_count(),
        small.delivery_share() * 100.0
    );
    print!("{}", small.decomposition());

    // A large result through a terminal sink: now watch delivery eat the
    // client's wall clock.
    let mut sink = TerminalSink::new();
    let large = client
        .query_to(
            "SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem ORDER BY l_orderkey",
            &mut sink,
        )
        .expect("large query");
    println!(
        "\nlarge result ({} rows, {} wire bytes): delivery share {:.1}%",
        large.row_count(),
        large.bytes_received,
        large.delivery_share() * 100.0
    );
    print!("{}", large.decomposition());

    client.close().expect("close");
    let stats = server.wait();
    println!(
        "\nserver served {} queries on {} connection(s), {} disconnects.",
        stats.queries, stats.connections, stats.disconnects
    );
}
