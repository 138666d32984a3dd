//! One benchmark run: build the served system the way `minidb-serve
//! --data-dir` does, load it over real TCP, check every answer.
//!
//! ```text
//! workload::generate -> Catalog::persist      (the `prepare` child)
//!   -> Catalog::open_with -> Server::builder().transport(TcpEndpoint)
//!        .serve(|| Session::new(catalog.clone()))   (default mode, OPT)
//!   -> minidb_net::Client over 127.0.0.1
//! ```

use crate::checksum::Answer;
use crate::env::ProcSample;
use crate::workloads::{self, Load, Spec};
use minidb::{Catalog, Column, ExecMode, Session, StoreConfig};
use minidb_net::{Client, NetError, Server, ServerHandle, ServerMode, TcpEndpoint, TcpTransport};
use perfeval_store::PoolCounters;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub spec: Spec,
    /// `--seed`: statement constants, pool order, arrival schedule, data.
    pub seed: u64,
    /// `--seconds`: length of the measured window.
    pub seconds: f64,
    /// Flip one expected checksum: the run must then report failures.
    pub corrupt_oracle: bool,
}

/// Untimed load before the window, seconds: lets caches fill and lazy
/// set-up (shard sessions, allocator arenas) finish.
pub const WARMUP_S: f64 = 2.0;

/// Set-ups timed per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Where runs put data directories, metric files and traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The catalog every process of a run generates for `seed`.
fn generate_catalog(seed: u64) -> Catalog {
    workload::generate(&workload::GenConfig {
        scale_factor: workloads::SCALE_FACTOR,
        seed: workload::GenConfig::default().seed.wrapping_add(seed),
        part_skew: None,
    })
}

/// Raw bytes of the values a user loaded: 8 per integer and float, 1 per
/// boolean, the UTF-8 length of every string.
fn user_bytes(catalog: &Catalog) -> u64 {
    let mut total = 0;
    for name in catalog.table_names() {
        let table = catalog.table(name).expect("listed table");
        for ci in 0..table.column_count() {
            total += match table.column(ci) {
                Column::Str { dict, codes } => {
                    let lens: Vec<u64> = dict.values().iter().map(|s| s.len() as u64).collect();
                    codes.iter().map(|&c| lens[c as usize]).sum()
                }
                col => col.len() as u64 * col.value_bytes(),
            };
        }
    }
    total
}

/// The `prepare` child: generate and persist, in a process of its own so
/// the generator's memory never counts against the server's peak RSS.
pub fn prepare_child(dir: &Path, seed: u64) -> Result<(), String> {
    let t = Instant::now();
    let catalog = generate_catalog(seed);
    println!("generate_ms {}", t.elapsed().as_secs_f64() * 1e3);
    println!("user_bytes {}", user_bytes(&catalog));
    let t = Instant::now();
    catalog.persist(dir).map_err(|e| format!("persist: {e}"))?;
    println!("persist_ms {}", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// The `oracle` child: the expected answers, from a path that shares
/// nothing with the one measured: the row-at-a-time `ExecMode::Debug`
/// interpreter over the in-memory catalog, no disk, no wire.
pub fn oracle_child(workload: &str, seed: u64) -> Result<(), String> {
    let mut session = Session::new(generate_catalog(seed)).with_mode(ExecMode::Debug);
    for sql in workloads::statements(workload, seed) {
        let result = session
            .query(&sql)
            .run()
            .map_err(|e| format!("oracle: {e}: {sql}"))?;
        let a = Answer::of(&result.rows);
        println!("answer {} {}", a.rows, a.checksum);
    }
    Ok(())
}

/// Runs this binary again as `args`, returns its stdout.
fn child_output(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("child `{}` failed: {}", args[0], out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

fn field<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("child output lacks `{key}`"))
}

/// Expected answers for the pool, and how long the oracle took.
pub fn oracle(cfg: &Config) -> Result<(Vec<Answer>, f64), String> {
    let t = Instant::now();
    let text = child_output(&[
        "oracle",
        "--workload",
        cfg.spec.name,
        "--seed",
        &cfg.seed.to_string(),
    ])?;
    let mut answers = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("answer ") {
            let mut it = rest.split_whitespace().map(str::parse::<u64>);
            match (it.next(), it.next()) {
                (Some(Ok(rows)), Some(Ok(checksum))) => answers.push(Answer { rows, checksum }),
                _ => return Err(format!("bad oracle line `{line}`")),
            }
        }
    }
    if answers.len() != workloads::POOL {
        return Err(format!("oracle gave {} answers", answers.len()));
    }
    if cfg.corrupt_oracle {
        answers[0].checksum ^= 1;
    }
    Ok((answers, t.elapsed().as_secs_f64()))
}

/// Checked operations so far, and how many were wrong or refused.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Statements sent.
    pub attempted: u64,
    /// Transport or database errors, rejections, and row-count or
    /// checksum mismatches.
    pub failed: u64,
}

impl Tally {
    /// Counts one statement.
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 when nothing was sent.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A served catalog with its clients connected.
pub struct Instance {
    /// Segment directory.
    pub dir: PathBuf,
    /// The disk-backed catalog the server's sessions clone.
    pub catalog: Catalog,
    /// The running server.
    pub server: ServerHandle,
    /// One client per connection, in connect order.
    pub clients: Vec<Client>,
}

impl Instance {
    /// Says goodbye on every connection, then drops the instance.
    pub fn teardown(mut self) {
        for c in self.clients.drain(..) {
            let _ = c.close();
        }
    }
}

impl Drop for Instance {
    /// Removes the data directory, on the error paths too. The server
    /// handle, dropped after this, shuts down and joins its threads.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Everything, seconds: `prepare` child, open, server start, connects,
    /// one checked pass over the pool.
    pub total_s: f64,
    /// `workload::generate`, ms (child-reported).
    pub generate_ms: f64,
    /// `Catalog::persist`, ms (child-reported).
    pub persist_ms: f64,
    /// `Catalog::open_with`, ms.
    pub open_ms: f64,
    /// Raw value bytes generated.
    pub user_bytes: u64,
    /// Segment and manifest bytes on disk.
    pub disk_bytes: u64,
}

/// The answer arrived and matches the oracle's.
pub fn answer_ok(result: &Result<minidb_net::NetQueryResult, NetError>, want: &Answer) -> bool {
    matches!(result, Ok(r) if Answer::of(&r.rows) == *want)
}

/// Opens the persisted catalog behind a `pool_bytes` pool, serves it on
/// a fresh TCP port the way `minidb-serve --data-dir` does (default
/// `ServerMode`, default OPT session), and connects `conns` clients.
fn open_and_serve(dir: PathBuf, pool_bytes: u64, conns: usize) -> Result<(Instance, f64), String> {
    let t = Instant::now();
    let config = StoreConfig::default().pool_bytes(pool_bytes);
    let catalog = Catalog::open_with(&dir, config).map_err(|e| format!("open: {e}"))?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;

    let endpoint = TcpEndpoint::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = endpoint.local_addr().map_err(|e| e.to_string())?;
    let served = catalog.clone();
    let server = Server::builder()
        .transport(endpoint)
        .serve(move || Session::new(served.clone()));
    // One after the other, so connection ordinals, and with them the
    // seeded shard placement, are the same in every run.
    let mut clients = Vec::new();
    for _ in 0..conns {
        let transport = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
        clients.push(Client::connect(Box::new(transport)).map_err(|e| format!("hello: {e}"))?);
    }
    let instance = Instance {
        dir,
        catalog,
        server,
        clients,
    };
    Ok((instance, open_ms))
}

/// Builds the served system from nothing and runs the pool once.
pub fn setup(
    cfg: &Config,
    rep: usize,
    statements: &[String],
    expected: &[Answer],
    tally: &mut Tally,
) -> Result<(Instance, SetupTimes), String> {
    let t0 = Instant::now();
    let dir = out_dir().join(format!("data-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();
    let text = child_output(&[
        "prepare",
        "--dir",
        &dir_arg,
        "--seed",
        &cfg.seed.to_string(),
    ])?;
    let (mut instance, open_ms) = open_and_serve(dir, cfg.spec.pool_bytes, cfg.spec.load.conns())?;
    for (sql, want) in statements.iter().zip(expected) {
        tally.add(answer_ok(&instance.clients[0].query(sql), want));
    }
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        generate_ms: field(&text, "generate_ms")?,
        persist_ms: field(&text, "persist_ms")?,
        open_ms,
        user_bytes: field(&text, "user_bytes")?,
        disk_bytes: crate::env::dir_bytes(&instance.dir),
    };
    Ok((instance, times))
}

/// One statement as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Send (open loop: intended send) until the last row was decoded and
    /// checksummed, ms.
    pub latency_ms: f64,
    /// The same from the actual send, ms.
    pub service_ms: f64,
    /// Actual minus intended send, ms (0 in a closed loop).
    pub lag_ms: f64,
    /// When the answer was checked, seconds into the window.
    pub done_s: f64,
    /// Result rows.
    pub rows: u64,
    /// Answer arrived and matched the oracle.
    pub ok: bool,
}

/// What a load window produced and what it cost.
pub struct LoadResult {
    /// Every statement sent, in completion order.
    pub samples: Vec<OpSample>,
    /// Release of the first statement until the last answer, seconds.
    pub elapsed_s: f64,
    /// Process cost over the window (server and clients share the
    /// process).
    pub proc: ProcSample,
    /// Buffer-pool counters over the window.
    pub pool: PoolCounters,
    /// Queries that borrowed an idle shard's core during the window.
    pub steal_borrows: u64,
}

impl LoadResult {
    /// Statements answered correctly.
    pub fn ok_count(&self) -> u64 {
        self.samples.iter().filter(|s| s.ok).count() as u64
    }

    /// Sent and failed counts.
    pub fn tally(&self) -> Tally {
        Tally {
            attempted: self.samples.len() as u64,
            failed: self.samples.len() as u64 - self.ok_count(),
        }
    }

    /// Latencies of the correct samples, in completion order.
    pub fn latencies(&self) -> Vec<f64> {
        let ok = self.samples.iter().filter(|s| s.ok);
        ok.map(|s| s.latency_ms).collect()
    }

    /// One field of the correct samples, ascending.
    pub fn sorted(&self, f: impl Fn(&OpSample) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().filter(|s| s.ok).map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

fn timed_query(
    client: &mut Client,
    sql: &str,
    want: &Answer,
    due: Instant,
    t0: Instant,
) -> (OpSample, bool) {
    let sent = Instant::now();
    let result = client.query(sql);
    let ok = answer_ok(&result, want);
    let done = Instant::now();
    let alive = !matches!(result, Err(NetError::Io(_) | NetError::Protocol(_)));
    let rows = result.map_or(0, |r| r.rows.len() as u64);
    let sample = OpSample {
        latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
        service_ms: done.duration_since(sent).as_secs_f64() * 1e3,
        lag_ms: sent.duration_since(due).as_secs_f64() * 1e3,
        done_s: done.duration_since(t0).as_secs_f64(),
        rows,
        ok,
    };
    (sample, alive)
}

/// Shard workers of a running server (1 for the thread-per-connection
/// core, which has none).
pub fn shards(server: &ServerHandle) -> usize {
    match server.mode() {
        ServerMode::Sharded { shards, .. } => shards,
        ServerMode::ThreadPerConn { .. } => 1,
    }
}

/// Pins the calling client thread off the core of the shard that serves
/// connection `conn`. The server pins shard `i` to core `i % cores`; left
/// to the scheduler, a client lands on its shard's core in some runs and
/// on another in others, and a round trip is a local context switch in the
/// first case and a cross-core wake-up in the second: on `point-open` that
/// alone moved p50 between 0.27 and 0.41 ms from run to run. Pinned apart,
/// as a client on another machine would be, it repeated within 5 %.
fn pin_client_apart(conn: usize, shards: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        // Placement seed 0 is the builder's default, which `setup` keeps.
        let shard_core = minidb_net::shard_for(0, conn as u64, shards) % cores;
        minidb_net::poll::pin_current_thread((shard_core + 1) % cores);
    }
}

/// One connection's share of the load. A dead connection ends its share:
/// what it did not send is not counted as attempted, what it sent and
/// lost is counted as failed.
fn drive(
    client: &mut Client,
    conn: usize,
    load: Load,
    schedule: &[u64],
    statements: &[String],
    expected: &[Answer],
    seconds: f64,
) -> Vec<OpSample> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    match load {
        Load::Closed { conns } => {
            let window = Duration::from_secs_f64(seconds);
            let mut i = conn * statements.len() / conns;
            while t0.elapsed() < window {
                let k = i % statements.len();
                let (s, alive) =
                    timed_query(client, &statements[k], &expected[k], Instant::now(), t0);
                samples.push(s);
                if !alive {
                    break;
                }
                i += 1;
            }
        }
        Load::Open { conns, .. } => {
            for (k, offset) in schedule.iter().enumerate().skip(conn).step_by(conns) {
                let due = t0 + Duration::from_nanos(*offset);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let k = k % statements.len();
                let (s, alive) = timed_query(client, &statements[k], &expected[k], due, t0);
                samples.push(s);
                if !alive {
                    break;
                }
            }
        }
    }
    samples
}

/// Loads the instance for `seconds` with the workload's own loop.
pub fn run_load(
    inst: &mut Instance,
    cfg: &Config,
    statements: &[String],
    expected: &[Answer],
    seconds: f64,
) -> LoadResult {
    let load = cfg.spec.load;
    let schedule = match load {
        Load::Open { rate, .. } => workloads::poisson_schedule(cfg.seed, rate, seconds),
        Load::Closed { .. } => Vec::new(),
    };
    let storage = inst.catalog.storage().expect("opened from disk").clone();
    let server = &inst.server;
    let shards = shards(server);
    // The gate opens three times: go, all done, sampled. Client threads
    // stay alive until the closing sample is taken, because context
    // switches are summed over live threads.
    let gate = Barrier::new(inst.clients.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = inst
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (gate, schedule) = (&gate, &schedule);
                scope.spawn(move || {
                    pin_client_apart(conn, shards);
                    gate.wait();
                    let samples =
                        drive(client, conn, load, schedule, statements, expected, seconds);
                    gate.wait();
                    gate.wait();
                    samples
                })
            })
            .collect();
        let proc0 = ProcSample::now();
        let pool0 = storage.counters();
        let steals0 = server.steal_borrows();
        gate.wait();
        let t0 = Instant::now();
        gate.wait();
        let elapsed_s = t0.elapsed().as_secs_f64();
        let proc = ProcSample::now().since(&proc0);
        let pool = storage.counters().since(&pool0);
        let steal_borrows = server.steal_borrows() - steals0;
        gate.wait();
        let mut samples: Vec<OpSample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        LoadResult {
            samples,
            elapsed_s,
            proc,
            pool,
            steal_borrows,
        }
    })
}

/// The run record: everything needed to say what a number was measured
/// on. Goes to the top of the report and into every output file.
pub fn record(cfg: &Config, trace: bool, inst: &Instance, samples: usize) -> Vec<(String, String)> {
    let mut r = crate::env::host_record();
    let pool = inst.catalog.storage().map_or(0, |s| s.capacity_bytes());
    let placement = inst.server.shard_conns().unwrap_or_default();
    r.extend([
        ("workload".to_owned(), cfg.spec.name.to_owned()),
        ("why".to_owned(), cfg.spec.why.to_owned()),
        ("load".to_owned(), cfg.spec.load.describe()),
        ("seed".to_owned(), cfg.seed.to_string()),
        ("scale_factor".to_owned(), workloads::SCALE_FACTOR.to_string()),
        ("pool_budget_bytes".to_owned(), pool.to_string()),
        (
            "server".to_owned(),
            format!(
                "{} (ServerMode::default()), engine OPT, connections per shard {placement:?}, load threads pinned off their shard's core, tracing inside the program off",
                ServerMode::default().describe()
            ),
        ),
        ("transport".to_owned(), "TCP over 127.0.0.1 (host loopback interface, no real link)".to_owned()),
        ("cache_state".to_owned(), "hot: pool warmed by one pass over the statement pool, then an untimed warm-up; files in the OS page cache".to_owned()),
        ("window_s".to_owned(), cfg.seconds.to_string()),
        ("warmup_s".to_owned(), WARMUP_S.to_string()),
        ("traced".to_owned(), trace.to_string()),
        ("samples".to_owned(), samples.to_string()),
    ]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small catalog on small chunks behind a pool of four of them.
    fn small_over_budget_run(tag: &str) -> (PoolCounters, Vec<Answer>) {
        let dir = out_dir().join(format!("test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = workload::generate(&workload::GenConfig {
            scale_factor: 0.005,
            ..workload::GenConfig::default()
        });
        let chunks = StoreConfig::default().chunk_rows(4096);
        catalog.persist_with(&dir, &chunks).expect("persist");
        let (mut inst, _) = open_and_serve(dir, 4 * 4096 * 8, 1).expect("serve");
        let storage = inst.catalog.storage().expect("disk-backed").clone();
        let mut answers = Vec::new();
        for sql in workloads::statements("over-budget", 5) {
            let result = inst.clients[0].query(&sql).expect("query");
            answers.push(Answer::of(&result.rows));
        }
        let counters = storage.counters();
        inst.teardown();
        (counters, answers)
    }

    #[test]
    fn one_connection_repeats_its_pool_counters_exactly() {
        let (a, answers_a) = small_over_budget_run("a");
        let (b, answers_b) = small_over_budget_run("b");
        assert_eq!(a, b, "same statements, one connection: same pool traffic");
        assert_eq!(answers_a, answers_b);
        assert!(a.evictions > 0 && a.physical_reads * 10 >= a.logical_reads * 8);
    }

    #[test]
    fn user_bytes_counts_string_lengths_not_dictionary_codes() {
        use minidb::{DataType, TableBuilder, Value};
        let mut t = TableBuilder::new("t")
            .column("i", DataType::Int)
            .column("s", DataType::Str)
            .build();
        for s in ["ab", "ab", "wxyz"] {
            t.push_row(vec![Value::Int(1), Value::Str(s.into())])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register(t).unwrap();
        assert_eq!(user_bytes(&c), 3 * 8 + 2 + 2 + 4);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.add(true);
        t.add(false);
        t.merge(Tally {
            attempted: 3,
            failed: 1,
        });
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.fail_ratio(), 0.4);
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }
}
