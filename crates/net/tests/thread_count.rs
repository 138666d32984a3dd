//! The thread-per-connection core holds its pool helpers for the server's
//! life and gives them back at shutdown, so starting and stopping servers
//! does not grow the process. The one test of this binary: nothing else
//! starts a thread while it counts.

use minidb::{Catalog, Session};
use minidb_net::{LoopbackEndpoint, Server, ServerMode};

/// `Threads:` of `/proc/self/status`; `None` where there is no such file.
fn threads_of_process() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn starting_and_stopping_servers_leaves_the_thread_count_flat() {
    let cycle = || {
        let server = Server::builder()
            .transport(LoopbackEndpoint::new())
            .mode(ServerMode::ThreadPerConn { workers: 4 })
            .serve(|| Session::new(Catalog::new()));
        server.shutdown();
        server.wait();
    };
    // The first server spawns the three helpers every later one takes.
    cycle();
    let Some(before) = threads_of_process() else {
        println!("thread count: skipped (no /proc/self/status)");
        return;
    };
    for _ in 0..50 {
        cycle();
    }
    let after = threads_of_process().expect("read a moment ago");
    println!("thread count: {before} after one server, {after} after fifty more");
    assert_eq!(
        after, before,
        "helpers are returned at shutdown, not re-spawned"
    );
}
