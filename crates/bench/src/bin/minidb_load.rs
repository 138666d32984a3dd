//! `minidb-load` — drive a minidb server with a measured load.
//!
//! The CLI face of `perfeval-load`: point it at a running `minidb-serve`
//! (or let it host its own loopback server) and it sustains concurrent
//! client sessions under an explicit arrival discipline, reporting
//! offered vs achieved throughput and coordinated-omission-safe tail
//! latencies with confidence intervals over replicated runs.
//!
//! ```text
//! minidb-load -Daddr=127.0.0.1:7878 -Dclients=32 -Darrival=poisson -Drate=2000
//! minidb-load -Dclients=64 -Darrival=closed -Dthink_ms=1 -Dreps=3   # self-hosted
//! minidb-load --smoke                                               # CI self-test
//! ```
//!
//! Knobs (`-Dkey=value`): the `KNOBS` table below, which any argument it
//! does not declare prints. `sf` must match the server's when targeting a
//! remote, since result checksums are computed locally; `mode` and
//! `data_dir` shape the self-hosted server and are ignored with a remote.
//!
//! Overload etiquette knobs: `-Dretry=N` allows N seeded-backoff retries
//! per request after a server rejection or a dead connection (default 1:
//! the classic reconnect-and-retry-once containment); `-Ddeadline_ms=N`
//! stamps every `Query` header with a deadline the server enforces by
//! cooperative cancellation — and in an open loop the runner also sheds
//! requests whose deadline expired before they could be sent (`0` =
//! none). Retries, typed rejections, and give-ups are first-class report
//! lines, never silently folded into latency.
//!
//! `--smoke` self-hosts and runs three arms: one closed-loop and one
//! open-loop arm with verified answers (the open arm under `-Dretry` /
//! `-Ddeadline_ms` etiquette), then drains the server and proves a
//! rejected-everywhere arm retries, trips the breaker, and gives up
//! cleanly — no hangs, no errors, no dropped sessions. The smoke server
//! always serves a **persisted-and-reopened** catalog, so the checksum
//! verification doubles as a persist → reopen bit-identity proof: the
//! expected checksums come from in-memory execution, the answers from
//! disk-backed segments. Exits 0.

use std::path::PathBuf;
use std::sync::Arc;

use minidb::{ExecMode, Session, StoreConfig};
use minidb_net::{
    BackoffPolicy, Server, TcpEndpoint, TcpTransport, Transport, DEFAULT_QUEUE_DEPTH,
};
use perfeval_bench::knobs::{Config, Knob};
use perfeval_bench::{
    catalog_at, cli_args, open_or_persist, print_header, print_wire_protocol, server_mode,
};
use perfeval_load::{expected_checksums, Arrival, Dialer, LoadRunner, LoadSpec};
use workload::queries;

fn mix_named(name: &str) -> Vec<String> {
    match name {
        "light" => vec![queries::q6(), queries::family(4)],
        "heavy" => vec![queries::q1()],
        "full" => vec![queries::q1(), queries::q6(), queries::q16()],
        other => panic!("-Dmix must be light|heavy|full, got {other:?}"),
    }
}

fn dial(addr: &str) -> Dialer {
    let target = addr.to_owned();
    Arc::new(move || Ok(Box::new(TcpTransport::connect(target.as_str())?) as Box<dyn Transport>))
}

fn run(spec: LoadSpec, addr: &str, engine: Option<ExecMode>, sf: f64, verify: bool, reps: usize) {
    let mut runner = LoadRunner::new(spec.clone(), dial(addr));
    if verify {
        runner = runner.expecting(expected_checksums(catalog_at(sf), &spec.mix));
    }
    let report = runner.run_replicated(reps);
    println!();
    print_wire_protocol(engine);
    for line in report.render_lines() {
        println!("{line}");
    }
    let phases = &report.phases;
    println!(
        "phase totals: server {:.1} ms wall ({:.1} ms cpu), serialize {:.1} ms, \
         wire {:.1} ms, sink {:.1} ms — delivery share {:.1}%",
        phases.server_real_ms,
        phases.server_user_ms,
        phases.serialize_ms,
        phases.wire_ms,
        phases.print_ms,
        phases.delivery_share() * 100.0
    );
    assert!(
        report.is_complete(),
        "load arm {} left {} error(s), {} dropped session(s), {} checksum mismatch(es)",
        spec.name,
        report.errors,
        report.dropped_sessions,
        report.checksum_mismatches
    );
}

#[rustfmt::skip]
const KNOBS: &[Knob] = &[
    Knob::new("addr", "", "TCP server to target (empty: self-host a loopback TCP server)"),
    Knob::new("clients", "16", "concurrent client sessions"),
    Knob::new("requests", "800", "total requests per run; at least one per client"),
    Knob::new("arrival", "closed", "arrival discipline: closed | poisson | paced"),
    Knob::new("rate", "1000", "total offered q/s of an open loop"),
    Knob::new("think_ms", "1.0", "mean think time of a closed loop, ms"),
    Knob::new("reps", "2", "replicated runs (CIs need at least 2)"),
    Knob::new("mix", "light", "query mix: light | heavy | full"),
    Knob::new("sf", "0.01", "catalog scale factor; must match a remote server's"),
    Knob::new("verify", "true", "true | false: check result checksums against serial execution"),
    Knob::new("mode", "sharded", "the self-hosted server's core: sharded | threaded"),
    Knob::new("retry", "1", "seeded-backoff retries per request after a rejection"),
    Knob::new("deadline_ms", "0", "deadline stamped on every Query header, ms (0 = none)"),
    Knob::new("data_dir", "", "self-host disk-backed from here, persisting on first use"),
];

fn main() {
    let config = Config::parse_or_exit("minidb-load", KNOBS, &[], &cli_args());
    print_header(
        "minidb-load: the load generator",
        "arrival discipline is a knob, not an accident",
        &config,
    );

    let smoke = config.smoke();
    let addr = config.str("addr");
    let clients = config.get::<usize>("clients").max(1);
    let requests = config.get::<usize>("requests").max(clients);
    let rate = config.get::<f64>("rate");
    let think_ms = config.get::<f64>("think_ms");
    let reps = config.get::<usize>("reps").max(1);
    let sf = config.get::<f64>("sf");
    let verify = config.get::<bool>("verify");
    let retries = config.get::<u32>("retry");
    let deadline_ms = config.get::<u32>("deadline_ms");
    // Backoff only matters once retries can collide with a struggling
    // server; keep the default retry immediate (reconnect-and-retry-once)
    // and give multi-retry policies a short seeded jittered ramp.
    let retry_policy = if retries > 1 {
        BackoffPolicy::retries(retries)
            .with_base_ms(0.5)
            .with_cap_ms(8.0)
    } else {
        BackoffPolicy::retries(retries).with_base_ms(0.0)
    };
    let mix = mix_named(config.str("mix"));
    let arrival = match config.str("arrival") {
        "closed" => Arrival::Closed { think_ms },
        "poisson" => Arrival::OpenPoisson { rate_qps: rate },
        "paced" => Arrival::OpenPaced { rate_qps: rate },
        other => panic!("-Darrival must be closed|poisson|paced, got {other:?}"),
    };

    // Self-host a loopback TCP server unless the user points us at one.
    // `-Dmode=threaded` pits the load against the old thread-per-connection
    // core (workers must cover every client session); the default is the
    // sharded event-driven core, one shard per core.
    let hosted_mode = server_mode(
        config.str("mode"),
        clients.max(8) + 2,
        0,
        DEFAULT_QUEUE_DEPTH,
    )
    .unwrap_or_else(|bad_mode| config.refuse(&bad_mode));
    let data_dir = config.str("data_dir");
    // `--smoke` always serves from persisted-and-reopened segments so the
    // checksum verification (expected answers computed in memory) doubles
    // as a persist -> reopen bit-identity proof over the wire.
    let mut smoke_tmp: Option<PathBuf> = None;
    let hosted = if addr.is_empty() || smoke {
        let endpoint = TcpEndpoint::bind("127.0.0.1:0").expect("bind loopback listener");
        let local = endpoint.local_addr().expect("local addr");
        let catalog = if data_dir.is_empty() && !smoke {
            catalog_at(sf)
        } else {
            let root = if data_dir.is_empty() {
                let tmp =
                    std::env::temp_dir().join(format!("minidb_load_smoke_{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&tmp);
                smoke_tmp = Some(tmp.clone());
                tmp
            } else {
                PathBuf::from(data_dir)
            };
            let disk = open_or_persist(&root, sf, StoreConfig::default());
            println!("serving disk-backed segments from {}", root.display());
            disk
        };
        let new_session = move || Session::new(catalog.clone());
        let engine = new_session().mode();
        let server = Server::builder()
            .transport(endpoint)
            .mode(hosted_mode)
            .serve(new_session);
        println!(
            "self-hosted server on {local} ({}, sf={sf}).",
            hosted_mode.describe()
        );
        Some((server, local.to_string(), engine))
    } else {
        None
    };
    let target = hosted
        .as_ref()
        .map_or(addr.to_owned(), |(_, a, _)| a.clone());
    let engine = hosted.as_ref().map(|&(_, _, engine)| engine);

    if smoke {
        // Two tiny arms — one per arrival family — with full verification.
        // The open arm runs under the etiquette knobs: a generous deadline
        // in every Query header plus the retry policy, proving the happy
        // path is untouched by either.
        let closed = LoadSpec::new("smoke/closed/8", 8, 120, Arrival::Closed { think_ms: 0.5 })
            .mix(mix_named("light"));
        run(closed, &target, engine, sf, true, 2);
        let open = LoadSpec::new(
            "smoke/open/4",
            4,
            120,
            Arrival::OpenPoisson { rate_qps: 800.0 },
        )
        .mix(mix_named("light"))
        .retry(retry_policy)
        .deadline_ms(deadline_ms.max(250));
        run(open, &target, engine, sf, true, 2);

        // Overload etiquette end to end: drain the hosted server so every
        // query is shed `ShuttingDown`, and prove the client side retries,
        // trips its breaker, and gives up — no hangs, no protocol errors,
        // no dropped sessions, nothing folded into latency.
        let (server, _, _) = hosted.expect("--smoke always self-hosts");
        server.drain();
        let drained = LoadSpec::new("smoke/drain/4", 4, 40, Arrival::Closed { think_ms: 0.2 })
            .mix(mix_named("light"))
            .retry(BackoffPolicy::retries(1).with_base_ms(0.5).with_cap_ms(2.0))
            .breaker(2, 5.0);
        let report = LoadRunner::new(drained, dial(&target)).run_replicated(1);
        assert_eq!(report.requests, 0, "a draining server completes nothing");
        assert_eq!(report.errors, 0, "typed rejection is not an error");
        assert_eq!(report.dropped_sessions, 0, "rejection keeps sessions alive");
        assert_eq!(report.give_ups, 40, "every request ends in a give-up");
        assert!(report.rejects > 0 && report.retries > 0);
        println!(
            "\ndrain etiquette: {} reject(s), {} retry(ies), {} give-up(s), \
             breaker opened {} time(s).",
            report.rejects, report.retries, report.give_ups, report.breaker_opens
        );
        let stats = server.wait();
        println!(
            "server saw {} connection(s), {} query(ies), {} rejection(s).",
            stats.connections,
            stats.queries,
            stats.rejected()
        );
        println!(
            "--smoke: both arrival disciplines verified; drain shed cleanly with \
             retries, breaker, and give-ups accounted."
        );
        println!(
            "persist -> reopen proof: every verified answer above was served from \
             disk-backed segments against checksums computed in memory."
        );
        if let Some(tmp) = smoke_tmp {
            let _ = std::fs::remove_dir_all(&tmp);
        }
        return;
    }

    let name = format!("{}/{clients}", config.str("arrival"));
    let spec = LoadSpec::new(&name, clients, requests, arrival)
        .mix(mix)
        .retry(retry_policy)
        .deadline_ms(deadline_ms);
    run(spec, &target, engine, sf, verify, reps);
    if let Some((server, _, _)) = hosted {
        let stats = server.wait();
        println!(
            "\nserver saw {} connection(s), {} query(ies).",
            stats.connections, stats.queries
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_factor_default_is_the_library_constant() {
        let config = Config::parse(KNOBS, &[], &[]).expect("the empty command line");
        assert_eq!(config.get::<f64>("sf"), perfeval_bench::BENCH_SCALE_FACTOR);
    }
}
