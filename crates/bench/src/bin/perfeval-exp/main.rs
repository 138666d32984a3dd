//! `perfeval-exp` — the one experiment driver (slides 183–198, 216:
//! parameterizable experiments, one command for every exhibit, instructions
//! that cannot drift from the code).
//!
//! ```text
//! perfeval-exp list                              # the manifest: ids, exhibits, knobs
//! perfeval-exp <id> [--smoke] [-Dkey=value ...]  # regenerate one exhibit
//! perfeval-exp all [--smoke]                     # every exhibit, each in its own process
//! ```
//!
//! Each experiment is a private module of this binary behind one manifest
//! entry. The driver does once what every exhibit needs before its first
//! measurement: parse the arguments against the experiment's own knob table
//! (default < the knob's smoke value under `--smoke` < `-Dname=value`; an
//! argument the table does not declare is refused with the table and exit
//! status 2), resolve the output directory (`PERFEVAL_OUT`; a path that
//! cannot be created is reported with the OS error, exit status 1), and
//! print banner, environment and the *effective* configuration. A wrong
//! shape panics inside the body, so exit status 0 means every assertion of
//! the exhibit held.
//!
//! `all` runs every experiment as a child of this executable: E20 installs
//! a panic hook and E18 measures observer overhead, so no experiment may
//! inherit another's process state.

mod ctx;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ctx::Ctx;
use perfeval_bench::knobs::{knob_table, Config, Knob, KNOB_COLUMNS};

/// One exhibit: what it is called, what it reproduces, what can be set,
/// and the body that prints it and asserts its shape.
struct Experiment {
    id: &'static str,
    title: &'static str,
    reproduces: &'static str,
    knobs: &'static [Knob],
    run: fn(&Ctx),
}

/// Declares each row's module and its manifest entry together, so an
/// experiment cannot exist outside the manifest.
macro_rules! manifest {
    ($(($module:ident, $id:literal, $title:literal, $reproduces:literal, $knobs:expr)),* $(,)?) => {
        $(mod $module;)*
        const MANIFEST: &[Experiment] = &[$(Experiment {
            id: $id,
            title: $title,
            reproduces: $reproduces,
            knobs: $knobs,
            run: $module::run,
        }),*];
    };
}

// Every exhibit — module, id, title, what it reproduces, knobs — in the
// order `list` prints and `all` runs them.
#[rustfmt::skip]
manifest![
    (e1, "e1", "E1: what do you measure?", "slides 23-26", &[]),
    (e2, "e2", "E2: hot vs cold runs", "slides 33-36", &[]),
    (e3, "e3", "E3: DBG vs OPT across the query family", "slides 40-41", ctx::THREADS),
    (e4, "e4", "E4: the memory wall", "slides 46 and 51", &[]),
    (e5, "e5", "E5: factor interaction", "slide 58", &[]),
    (e6, "e6", "E6: 2^2 factorial design, sign-table method", "slides 70-85", ctx::THREADS),
    (e8, "e8", "E8: allocation of variation, interconnection networks", "slides 86-93", &[]),
    (e9, "e9", "E9: fractional factorial via Latin squares", "slide 67", &[]),
    (e10, "e10", "E10: the 2^(7-4) fractional design", "slides 100-103", &[]),
    (e11, "e11", "E11: D=ABC vs D=AB confounding", "slides 104-109", &[]),
    (e12, "e12", "E12: per-operator profile of Q1, two engines", "slide 54", &[]),
    (e13, "e13", "E13: presentation pitfalls", "slides 138-145", &[]),
    (e14, "e14", "E14: SIGMOD 2008 repeatability outcomes", "slides 218-220", &[]),
    (e15, "e15", "E15: automatic graph generation", "slides 202-205", &[]),
    (e16, "e16", "E16: the locale copy-paste corruption", "slides 212-215", &[]),
    (e17, "e17", "E17: know your timer", "slides 27-29", &[]),
    (e18, "e18", "E18: observer effect of span tracing",
        "the 'what you measure' principle", e18::KNOBS),
    (e19, "e19", "E19: morsel-parallel speed-up as a designed experiment",
        "the paper's own method, applied to our new subsystem", e19::KNOBS),
    (e20, "e20", "E20: fault injection and failure-contained execution",
        "the repeatability discipline, extended to sweeps that fail", e20::KNOBS),
    (e21, "e21", "E21: client vs server time over a real wire",
        "slides 23-26, measured not simulated", e21::KNOBS),
    (e22, "e22", "E22: the load knee — arrival x concurrency x mix",
        "ROADMAP item 1: production-like concurrency, honest tails", e22::KNOBS),
    (e23, "e23", "E23: sharded server core vs thread-per-connection",
        "ROADMAP: the server core as an experiment factor", e23::KNOBS),
    (e24, "e24", "E24: engine as a three-level factor (DBG/OPT/SIMD)",
        "extends slide 41's build factor", e24::KNOBS),
    (e25, "e25", "E25: overload protection — shedding x deadlines x backoff",
        "robustness past the knee: shed fast, cancel cooperatively, back off", e25::KNOBS),
    (e26, "e26", "E26: hot vs cold on real storage (measured, not simulated)",
        "slides 33-36, with real counters", e26::KNOBS),
    (ablations, "ablations", "ablations: each optimizer rule as a two-level factor",
        "slide 42: DBMS configuration and tuning => factor x", &[]),
    (design_tradeoff, "design-tradeoff", "design trade-offs: simple vs full vs fractional",
        "slides 56-66", &[]),
    (scaleup, "scaleup", "scale-up sweep: execution time vs scale factor",
        "slides 200-205", ctx::THREADS),
];

const USAGE: &str = "usage:\n  \
    perfeval-exp list\n  \
    perfeval-exp <id> [--smoke] [-Dkey=value ...]\n  \
    perfeval-exp all [--smoke]\n";

fn main() -> ExitCode {
    let args = perfeval_bench::cli_args();
    let (first, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(f, r)| (f.as_str(), r));
    if let Some(experiment) = MANIFEST.iter().find(|e| e.id == first) {
        run(experiment, rest);
        ExitCode::SUCCESS
    } else if first == "list" && rest.is_empty() {
        print!("{}", list());
        ExitCode::SUCCESS
    } else if first == "all" && rest.iter().all(|a| a == "--smoke") {
        all(!rest.is_empty())
    } else {
        eprintln!(
            "perfeval-exp: unknown arguments '{}'\n\n{USAGE}\n{}",
            args.join(" "),
            list()
        );
        ExitCode::from(2)
    }
}

/// The manifest as text: one unindented line per experiment, its knobs
/// indented beneath.
fn list() -> String {
    let mut out = format!("# id, exhibit; beneath each, what can be set:\n#{KNOB_COLUMNS}");
    for e in MANIFEST {
        out.push_str(&format!(
            "{:<16} {}  (reproduces {})\n",
            e.id, e.title, e.reproduces
        ));
        if !e.knobs.is_empty() {
            out.push_str(&knob_table(e.knobs));
        }
    }
    out
}

fn run(experiment: &Experiment, args: &[String]) {
    let program = format!("perfeval-exp {}", experiment.id);
    let config = Config::parse_or_exit(&program, experiment.knobs, &[], args);
    // The one place `PERFEVAL_OUT` is read.
    let out = std::env::var_os("PERFEVAL_OUT").map(PathBuf::from);
    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            let dir = dir.display();
            eprintln!("perfeval-exp: cannot create PERFEVAL_OUT directory {dir}: {e}");
            std::process::exit(1);
        }
    }
    perfeval_bench::print_header(experiment.title, experiment.reproduces, &config);
    (experiment.run)(&Ctx {
        id: experiment.id,
        title: experiment.title,
        config,
        out,
    });
}

/// Runs every experiment as a child process, then reports each one's exit
/// status and wall time; fails if any of them did.
fn all(smoke: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut summary = String::new();
    let mut failed = 0;
    for e in MANIFEST {
        let started = Instant::now();
        let status = Command::new(&exe)
            .arg(e.id)
            .args(smoke.then_some("--smoke"))
            .status()
            .unwrap_or_else(|err| panic!("spawn {} {}: {err}", exe.display(), e.id));
        println!();
        failed += usize::from(!status.success());
        summary.push_str(&format!(
            "  {:<16} {:<8} {:>8.2} s\n",
            e.id,
            if status.success() { "ok" } else { "FAILED" },
            started.elapsed().as_secs_f64()
        ));
    }
    println!("{}", "=".repeat(72));
    print!("perfeval-exp all: exit status and wall time of each\n{summary}");
    println!("{failed} of {} failed.", MANIFEST.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
