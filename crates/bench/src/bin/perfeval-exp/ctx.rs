//! What an experiment body is handed: its effective knobs, the output
//! directory, and the plumbing several bodies share — one load arm against
//! a fresh loopback server, the tail line, the Chrome-trace export, the
//! report's documentation skeleton. Each is written here once.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use minidb::{Catalog, Session};
use minidb_net::{Admission, LoopbackEndpoint, Server, ServerHandle, ServerMode, Transport};
use perfeval_bench::knobs::{Config, Knob};
use perfeval_fault::FaultRegistry;
use perfeval_harness::{LoadSection, Report};
use perfeval_load::{expected_checksums, Dialer, LoadReport, LoadRunner, LoadSpec};
use perfeval_measure::{EnvSpec, SoftwareSpec};
use perfeval_trace::{chrome_trace_json, validate_chrome, ChromeSummary, Trace};

/// The knob table of E3, E6 and the scale-up sweep: serial unless asked,
/// the right choice for publishable timings.
#[rustfmt::skip]
pub const THREADS: &[Knob] = &[
    Knob::new("threads", "1", "workers for untimed or per-worker work (1 = serial)"),
];

/// One run of one experiment. Knob reads (`ctx.get::<usize>("reps")`, `ctx.smoke()`)
/// go through to the [`Config`].
pub struct Ctx {
    /// The manifest id; names the files this run writes.
    pub id: &'static str,
    /// The manifest title; heads the report.
    pub title: &'static str,
    pub config: Config,
    /// `PERFEVAL_OUT`, created; `None` when the variable is unset.
    pub out: Option<PathBuf>,
}

impl std::ops::Deref for Ctx {
    type Target = Config;
    fn deref(&self) -> &Config {
        &self.config
    }
}

impl Ctx {
    /// The `threads` knob, clamped to at least 1 (serial).
    pub fn threads(&self) -> usize {
        self.get::<usize>("threads").max(1)
    }

    /// Writes `<dir>/<id><suffix>`, or reports the path and the OS error
    /// and exits 1: an artifact that cannot be written is a failed run.
    fn write(&self, dir: &Path, suffix: &str, contents: &str) -> PathBuf {
        let path = dir.join(format!("{}{suffix}", self.id));
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("perfeval-exp: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        path
    }

    /// Exports `trace` as Chrome trace-event JSON (load it in Perfetto or
    /// chrome://tracing), validates the B/E discipline of what was written,
    /// and prints one summary line headed `what`. The file is
    /// `<id>.trace.json` under `PERFEVAL_OUT`, or the temp directory.
    pub fn export_trace(&self, what: &str, trace: &Trace) -> ChromeSummary {
        let json = chrome_trace_json(trace);
        let summary = validate_chrome(&json).expect("exported trace is well-formed");
        let dir = self.out.clone().unwrap_or_else(std::env::temp_dir);
        let path = self.write(&dir, ".trace.json", &json);
        println!(
            "{what}: {} events, {} spans on {} lane(s), {} dropped -> {}",
            summary.events,
            summary.spans,
            summary.thread_names.len(),
            summary.dropped,
            path.display()
        );
        summary
    }

    /// The sections of a load experiment's report that are the same
    /// everywhere: this machine, this repository's served stack as built
    /// (the engine tier a served `Session::new` runs, then `build`:
    /// transport and server core), and the effective configuration, the
    /// tier included. The body adds protocol, table, conclusions.
    pub fn report(&self, goal: &str, build: &str) -> Report {
        // A smoke run is sized by more than its knobs (catalog scale,
        // connection ladder): the configuration section has to say so.
        let mut config = self.props().clone();
        if self.smoke() {
            config.set("--smoke", "given");
        }
        let engine = Session::new(Catalog::new()).mode();
        config.set("engine", &engine.to_string());
        let build = format!("release, {engine} engine, {build}");
        let stack = "minidb + minidb-net + perfeval-load";
        Report::new(self.title, goal)
            .environment(EnvSpec::capture())
            .software(SoftwareSpec::new(stack, "0.1.0", "this repository", &build))
            .config(config)
    }

    /// Attaches the load arms, holds the report to the documentation
    /// contract every experiment is under, and writes it as `<id>.md` when
    /// `PERFEVAL_OUT` is set.
    pub fn finish_report(&self, report: Report, arms: Vec<LoadSection>) {
        let report = arms.into_iter().fold(report, Report::load);
        let missing = report.missing_sections();
        assert!(
            missing.is_empty(),
            "{}'s own report fails the documentation contract: {missing:?}",
            self.id
        );
        let written = self.out.as_ref().map_or(".".to_owned(), |dir| {
            format!(" -> {}", self.write(dir, ".md", &report.render()).display())
        });
        println!(
            "report: {} load arm(s), documentation contract satisfied{written}",
            report.loads.len()
        );
    }
}

/// What one load arm varies besides its `LoadSpec`: the server core, its
/// admission policy, and the three places a fault registry can be armed.
/// The default is the sharded core, admit-all, fault-free.
#[derive(Default)]
pub struct Arm {
    pub mode: ServerMode,
    pub admission: Admission,
    /// On every server session: the `minidb.execute` failpoint.
    pub session_faults: Option<Arc<FaultRegistry>>,
    /// On the server: `net.accept` / `net.read` / `net.write` / `net.admit`.
    pub server_faults: Option<Arc<FaultRegistry>>,
    /// On the load runner's clients: `load.send` / `load.recv`.
    pub client_faults: Option<Arc<FaultRegistry>>,
}

impl Arm {
    /// Thread-per-connection: workers must cover every concurrent session,
    /// plus slack for reconnect churn.
    pub fn threaded(clients: usize) -> Arm {
        Arm {
            mode: ServerMode::ThreadPerConn {
                workers: clients + 2,
            },
            ..Arm::default()
        }
    }
}

/// Runs one load arm, `reps` replicated runs, against a fresh loopback
/// server over `catalog`; every answer is checked against the checksum of
/// serial in-process execution. The server has stopped accepting when this
/// returns; its handle still answers for its counters.
pub fn run_arm(
    catalog: &Catalog,
    spec: LoadSpec,
    arm: Arm,
    reps: usize,
) -> (LoadReport, ServerHandle) {
    let ep = LoopbackEndpoint::new();
    let dial = ep.connector();
    let server_catalog = catalog.clone();
    let mut builder = Server::builder()
        .transport(ep)
        .mode(arm.mode)
        .admission(arm.admission);
    if let Some(f) = arm.server_faults {
        builder = builder.with_faults(f);
    }
    let server = builder.serve(move || {
        let s = Session::new(server_catalog.clone());
        match &arm.session_faults {
            Some(f) => s.with_faults(Arc::clone(f)),
            None => s,
        }
    });
    let dialer: Dialer = Arc::new(move || Ok(Box::new(dial.connect()?) as Box<dyn Transport>));
    let mut runner = LoadRunner::new(spec.clone(), dialer)
        .expecting(expected_checksums(catalog.clone(), &spec.mix));
    if let Some(f) = arm.client_faults {
        runner = runner.with_faults(f);
    }
    let report = runner.run_replicated(reps);
    server.shutdown();
    (report, server)
}

/// p50 / p99 / p99.9 of the coordinated-omission-safe latency, each a
/// Kalibera–Jones interval over the replicated runs.
pub fn tail_line(r: &LoadReport) -> String {
    let ci = |i: usize| match r.tail_ci(i, 0.95) {
        Ok(ci) => format!("{:.2} [{:.2},{:.2}]", ci.estimate, ci.lower, ci.upper),
        Err(_) => "n/a".to_owned(),
    };
    format!("p50 {}  p99 {}  p99.9 {}", ci(0), ci(2), ci(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_knob_defaults_and_clamps() {
        let threads = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
            let config = Config::parse(THREADS, &[], &args).expect("declared knob");
            let (id, title, out) = ("test", "test", None);
            Ctx {
                id,
                title,
                config,
                out,
            }
            .threads()
        };
        assert_eq!(threads(&[]), 1, "default is serial");
        assert_eq!(threads(&["-Dthreads=4"]), 4);
        assert_eq!(threads(&["-Dthreads=0"]), 1, "0 threads clamps to serial");
    }
}
