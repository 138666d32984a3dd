//! `perfeval-exp` from the outside: the manifest, what it refuses, how a
//! knob's value is layered, where artifacts go, and that the instructions
//! in EXPERIMENTS.md name every experiment the binary holds. Each test
//! fails on the behaviour of the per-experiment binaries this driver
//! replaced (a typo accepted in silence, `--smoke` overriding `-Dreps`,
//! `expect("output dir")`, a run-everything loop that stopped at E17).

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const EXP: &str = env!("CARGO_BIN_EXE_perfeval-exp");

fn exp(args: &[&str]) -> Output {
    Command::new(EXP)
        .args(args)
        .env_remove("PERFEVAL_OUT")
        .output()
        .expect("spawn perfeval-exp")
}

/// The ids `list` prints: one unindented line per experiment.
fn ids() -> Vec<String> {
    let out = exp(&["list"]);
    assert!(out.status.success(), "list exits 0");
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .filter(|l| !l.starts_with([' ', '#']))
        .map(|l| l.split_whitespace().next().expect("an id").to_owned())
        .collect()
}

/// Exit status 2 and the offender named on stderr; hands back stdout.
fn refused(program: &str, args: &[&str], offender: &str) -> Vec<u8> {
    let out = Command::new(program).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(offender), "{args:?} names it: {stderr}");
    out.stdout
}

/// The `config:` line of the header, without waiting for the body.
fn config_line(args: &[&str]) -> String {
    let mut child = Command::new(EXP)
        .args(args)
        .env_remove("PERFEVAL_OUT")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn perfeval-exp");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let line = stdout
        .lines()
        .map(|l| l.expect("utf-8"))
        .find(|l| l.starts_with("config:"));
    let _ = child.kill();
    child.wait().expect("reap");
    line.unwrap_or_else(|| panic!("{args:?} printed no config line"))
}

#[test]
fn list_names_every_experiment_once() {
    let ids = ids();
    assert_eq!(ids.len(), 28, "{ids:?}");
    let unique: std::collections::BTreeSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), 28, "{ids:?}");
    for id in ["e1", "e26", "ablations", "design-tradeoff", "scaleup"] {
        assert!(ids.iter().any(|i| i == id), "{id} is listed");
    }
}

#[test]
fn what_is_not_understood_is_refused_by_name() {
    for (args, offender) in [
        (&["e99"][..], "e99"),
        (&["e24", "-Dreps_typo=99"], "reps_typo"),
        (&["e24", "-Dsmoke=on"], "smoke"),
        (&["e19", "-Dsmoke=on"], "smoke"),
        (&["e18", "--smoke", "quickly"], "quickly"),
        (&["e18", "-Dreps"], "-Dreps"),
        (&["ablations", "-Dreps=3"], "reps"),
        (&["all", "-Dreps=3"], "all -Dreps=3"),
        (&[], "usage"),
    ] {
        let stdout = refused(EXP, args, offender);
        assert!(stdout.is_empty(), "{args:?}: refused before any output");
    }
    // A value of the wrong type is refused where the body reads it.
    refused(EXP, &["e18", "-Dreps=many"], "reps='many'");
    // The refusal carries the experiment's knob table.
    let out = exp(&["e22", "-Dreqests=10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for knob in ["-Dreps", "-Drequests", "-Dthink_ms", "-Drate_per_client"] {
        assert!(stderr.contains(knob), "{knob} in: {stderr}");
    }
}

#[test]
fn the_two_clis_parse_through_the_same_table() {
    let serve = env!("CARGO_BIN_EXE_minidb-serve");
    let load = env!("CARGO_BIN_EXE_minidb-load");
    refused(serve, &["-Dshard=4"], "shard");
    refused(serve, &["--shards"], "--shards needs a value");
    refused(serve, &["--smoke", "-Dmode=evented"], "evented");
    refused(load, &["-Dserver_mode=threaded"], "server_mode");
    refused(load, &["--smok"], "--smok");
}

#[test]
fn smoke_sizes_the_configuration_and_the_command_line_wins() {
    assert!(config_line(&["e24"]).contains("reps=11"));
    let smoke = config_line(&["e24", "--smoke"]);
    assert!(
        smoke.contains("--smoke") && smoke.contains("reps=5"),
        "{smoke}"
    );
    for args in [
        ["e22", "--smoke", "-Dreps=3"],
        ["e22", "-Dreps=3", "--smoke"],
    ] {
        let line = config_line(&args);
        assert!(
            line.contains("reps=3") && line.contains("requests=120"),
            "{line}"
        );
    }
}

#[test]
fn an_uncreatable_output_directory_is_reported_not_panicked_on() {
    let out = Command::new(EXP)
        .args(["e18", "--smoke"])
        .env("PERFEVAL_OUT", "/proc/none")
        .output()
        .expect("spawn perfeval-exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("/proc/none"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn deterministic_exhibits_repeat_byte_for_byte() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("driver-deterministic");
    for id in [
        "design-tradeoff",
        "e4",
        "e5",
        "e6",
        "e8",
        "e9",
        "e10",
        "e11",
        "e13",
        "e14",
        "e15",
        "e16",
    ] {
        let run = || {
            let out = Command::new(EXP)
                .arg(id)
                .env("PERFEVAL_OUT", &out_dir)
                .output()
                .expect("spawn perfeval-exp");
            assert!(
                out.status.success(),
                "{id}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let (first, second) = (run(), run());
        assert!(!first.is_empty(), "{id} prints its exhibit");
        assert!(first == second, "{id} differs between two runs");
    }
}

#[test]
fn experiments_md_names_every_experiment() {
    // `cargo run … --bin perfeval-exp -- e1` and `perfeval-exp e1` both count.
    let text = include_str!("../../../EXPERIMENTS.md").replace("perfeval-exp -- ", "perfeval-exp ");
    for id in ids().iter().map(String::as_str).chain(["all", "list"]) {
        let command = format!("perfeval-exp {id}");
        let named = text.match_indices(&command).any(|(at, _)| {
            // `perfeval-exp e1` must not be satisfied by `perfeval-exp e10`.
            !text[at + command.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        });
        assert!(named, "EXPERIMENTS.md never says `{command}`");
    }
}
