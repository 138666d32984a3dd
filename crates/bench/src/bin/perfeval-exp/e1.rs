//! E1 — "Metrics: What to measure?" (slides 23–26).
//!
//! Reproduces the tutorial's first table: TPC-H Q1 (small result) and Q16
//! (large result), timed server-side (user/real) and client-side (real)
//! with the result going to a file vs. a terminal. The paper's shape to
//! match: for the small-result query the four columns are close; for the
//! large-result query client-side terminal time far exceeds everything
//! else, because *printing* dominates.

use crate::Ctx;
use minidb::{FileSink, NullSink, Session, TerminalSink};
use perfeval_bench::bench_catalog;
use workload::queries;

struct Row {
    query: &'static str,
    server_user: f64,
    server_real: f64,
    client_file: f64,
    client_term: f64,
    result_kb: f64,
}

fn measure(session: &mut Session, name: &'static str, sql: &str) -> Row {
    // Warm up.
    session.query(sql).run().expect("warmup");
    // Server-side: null sink.
    let server = session
        .query(sql)
        .sink(&mut NullSink)
        .run()
        .expect("server run");
    // Client-side, file sink.
    let tmp = std::env::temp_dir().join(format!("perfeval_e1_{name}.tsv"));
    let mut file_sink = FileSink::new(&tmp);
    let to_file = session
        .query(sql)
        .sink(&mut file_sink)
        .run()
        .expect("file run");
    // Client-side, terminal sink.
    let mut term_sink = TerminalSink::new();
    let to_term = session
        .query(sql)
        .sink(&mut term_sink)
        .run()
        .expect("terminal run");
    std::fs::remove_file(&tmp).ok();
    Row {
        query: name,
        server_user: server.server_user_ms(),
        server_real: server.server_real_ms(),
        client_file: to_file.sim_client_real_ms(),
        client_term: to_term.sim_client_real_ms(),
        result_kb: to_term.result_bytes as f64 / 1024.0,
    }
}

pub fn run(_: &Ctx) {
    let catalog = bench_catalog();
    let mut session = Session::new(catalog);
    println!("engine: {} (Session::new's tier)\n", session.mode());

    let rows = vec![
        measure(&mut session, "Q1", &queries::q1()),
        measure(&mut session, "Q16", &queries::q16()),
    ];

    println!("            server              client              result");
    println!("      user      real      real(file) real(term)    size");
    println!("Q     file      file      file       terminal      ... output went to");
    for r in &rows {
        println!(
            "{:<4} {:>8.1} {:>9.1} {:>10.1} {:>10.1}   {:>8.1} KB",
            r.query, r.server_user, r.server_real, r.client_file, r.client_term, r.result_kb
        );
    }
    println!("\n(times in milliseconds; 'term' includes simulated terminal rendering)");
    println!("(for the *measured* client-side decomposition over a real wire, see E21)");

    // The paper's qualitative claims, asserted.
    let q1 = &rows[0];
    let q16 = &rows[1];
    assert!(
        q16.result_kb > 20.0 * q1.result_kb,
        "Q16's result must dwarf Q1's"
    );
    assert!(
        q16.client_term > 1.5 * q16.server_user,
        "terminal printing must dominate Q16's client time \
         (term {:.1} vs user {:.1})",
        q16.client_term,
        q16.server_user
    );
    let q1_spread = q1.client_term / q1.server_user;
    let q16_spread = q16.client_term / q16.server_user;
    assert!(
        q16_spread > q1_spread,
        "output destination matters more for the big result"
    );
    println!("\nBe aware what you measure!  (Q16 terminal/user spread: {q16_spread:.1}x, Q1: {q1_spread:.1}x)");
}
