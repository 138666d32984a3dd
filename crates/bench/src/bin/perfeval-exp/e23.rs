//! E23 — sharded event loop vs thread-per-connection, swept by connection
//! scale.
//!
//! The server core is an *experiment factor*, not an implementation detail:
//! both cores live behind `Server::builder().mode(..)` and serve
//! bit-identical results, so the only thing this experiment varies is how
//! connections are multiplexed onto cores. Thread-per-connection pays one
//! OS thread (stack, scheduler slot, context switches) per client; the
//! sharded core runs N pinned readiness loops with per-shard session
//! ownership, bounded write queues, and idle-shard work sharing.
//!
//! The sweep crosses mode × connection scale (1×, 10×, 100× a base client
//! count) under a closed-loop light mix — small queries, so per-connection
//! overhead is the signal rather than engine time. Every result is
//! checksummed against serial in-process execution; tails are
//! coordinated-omission-safe with Kalibera–Jones CIs (one estimate per
//! replicated run, CI over runs); the 2² factorial (mode, conns at
//! 1× vs 100×) gets an allocation of variation on the p99.
//!
//! `--smoke` shrinks scale and requests for CI; the full run additionally
//! asserts the tentpole claim — at 100× connections the sharded core
//! achieves at least thread-per-connection throughput.

use crate::ctx::{run_arm, tail_line, Arm};
use crate::Ctx;
use minidb::Session;
use minidb_net::{ServerMode, DEFAULT_QUEUE_DEPTH};
use perfeval_bench::knobs::Knob;
use perfeval_bench::{catalog_at, BENCH_SCALE_FACTOR};
use perfeval_core::twolevel::TwoLevelDesign;
use perfeval_core::variation::allocate_variation_replicated;
use perfeval_harness::ResultTable;
use perfeval_load::{Arrival, LoadSpec};
use workload::queries;

#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob::new("reps", "3", "replicated runs per arm (CIs are over runs); at least 2").smoke("2"),
    Knob::new("requests", "1200", "requests per run; at least 200 and 2 per client").smoke("240"),
    Knob::new("base_clients", "4", "the 1x connection count"),
    Knob::new("shards", "4", "readiness loops of the sharded core"),
    Knob::new("think_ms", "0.5", "mean think time of a closed-loop client, ms"),
];

pub fn run(ctx: &Ctx) {
    let smoke = ctx.smoke();
    let reps = ctx.get::<usize>("reps").max(2);
    let requests = ctx.get::<usize>("requests").max(200);
    let base = ctx.get::<usize>("base_clients").max(1);
    let shards = ctx.get::<usize>("shards").max(1);
    let think_ms = ctx.get::<f64>("think_ms");

    // Light mix + small catalog: service time stays tiny, so the cost of
    // *holding and scheduling connections* is what the sweep measures.
    let catalog = catalog_at(if smoke {
        BENCH_SCALE_FACTOR / 4.0
    } else {
        BENCH_SCALE_FACTOR
    });
    println!(
        "engine: {} (every served session's tier)",
        Session::new(catalog.clone()).mode()
    );
    let mix = vec![queries::q6(), queries::family(4)];
    // 100× thread-per-conn means `base * 100` OS threads; --smoke halves
    // the top scale to stay friendly to small CI runners.
    let scales: [usize; 3] = if smoke { [1, 10, 50] } else { [1, 10, 100] };
    let modes = [
        ServerMode::ThreadPerConn { workers: 1 }, // workers patched per arm
        ServerMode::Sharded {
            shards,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        },
    ];

    println!(
        "\nsweep: 2 modes x {:?} connection scale (base {base}), {reps} reps x {requests} requests\n",
        scales
    );
    println!("  arm                    conns  achieved q/s  tails (ms, 95% CI over runs)");
    let mut table = ResultTable::new("achieved throughput by mode and connection count", "q/s");
    let mut sections = Vec::new();
    // (mode index, scale) → per-run p99 replicates, for the factorial.
    let mut p99_reps: Vec<Vec<f64>> = Vec::new();
    // achieved qps at the top scale, per mode, for the tentpole claim.
    let mut top_scale_qps = [0.0f64; 2];
    for (m, proto) in modes.iter().enumerate() {
        for &scale in &scales {
            let clients = base * scale;
            let mode = match proto {
                ServerMode::ThreadPerConn { .. } => ServerMode::ThreadPerConn {
                    workers: clients + 2,
                },
                other => *other,
            };
            let name = format!("{}/{clients}", mode.describe());
            let spec = LoadSpec::new(
                &name,
                clients,
                requests.max(clients * 2),
                Arrival::Closed { think_ms },
            )
            .mix(mix.clone());
            let (report, server) = run_arm(
                &catalog,
                spec,
                Arm {
                    mode,
                    ..Arm::default()
                },
                reps,
            );
            assert!(
                report.is_complete(),
                "arm {name}: {} error(s), {} dropped, {} checksum mismatch(es)",
                report.errors,
                report.dropped_sessions,
                report.checksum_mismatches
            );
            println!(
                "  {name:<22} {clients:>5}  {:>12.1}  {}",
                report.achieved_qps(),
                tail_line(&report)
            );
            // Telemetry the sharded core exposes that thread-per-conn cannot.
            if matches!(mode, ServerMode::Sharded { .. }) {
                println!(
                    "  {:<22}        steal borrows {}, write-queue peak {}",
                    "",
                    server.steal_borrows(),
                    server.write_queue_peak()
                );
                assert!(
                    server.write_queue_peak() <= (DEFAULT_QUEUE_DEPTH + 2) as u64,
                    "write queues stay bounded under load"
                );
            }
            if scale == scales[scales.len() - 1] {
                top_scale_qps[m] = report.achieved_qps();
            }
            if scale == scales[0] || scale == scales[scales.len() - 1] {
                p99_reps.push(report.runs.iter().map(|run| run.tail_ms[2]).collect());
            }
            table.row(&name, report.achieved_qps_runs());
            sections.push(report.to_section());
        }
    }

    // ---- 2^2 factorial: mode x conns (1x vs 100x), response = p99 ----
    // Arm order above is (threaded,1x),(threaded,100x),(sharded,1x),
    // (sharded,100x); the design's standard order is (-,-),(+,-),(-,+),(+,+)
    // with factor 0 = mode and factor 1 = conns.
    let design = TwoLevelDesign::full(&["mode", "conns"]);
    let ordered = vec![
        p99_reps[0].clone(), // threaded, 1x
        p99_reps[2].clone(), // sharded, 1x
        p99_reps[1].clone(), // threaded, 100x
        p99_reps[3].clone(), // sharded, 100x
    ];
    let aov = allocate_variation_replicated(&design, &ordered).expect("responses match design");
    println!("\nallocation of variation (response = p99 intended-time latency, ms):");
    print!("{}", aov.render());
    let ranked = aov.ranked_effects();
    println!(
        "largest effect on tail latency: {} ({:.1}% of variation)\n",
        ranked[0].0,
        ranked[0].1 * 100.0
    );

    // ---- the tentpole claim, asserted on full runs ----
    let [threaded_top, sharded_top] = top_scale_qps;
    println!(
        "at {}x connections: threaded {threaded_top:.1} q/s vs sharded {sharded_top:.1} q/s \
         ({:+.1}%)",
        scales[scales.len() - 1],
        (sharded_top / threaded_top - 1.0) * 100.0
    );
    if !smoke {
        assert!(
            sharded_top >= threaded_top,
            "sharded must at least match thread-per-conn at the top connection scale \
             (threaded {threaded_top:.1} q/s, sharded {sharded_top:.1} q/s)"
        );
    }

    // ---- the report: same documentation contract as every experiment ----
    let report = ctx
        .report(
            "measure what the connection-multiplexing strategy itself costs, \
             with the server core as a controlled factor",
            "loopback transport, both server cores",
        )
        .protocol(
            "replicated closed-loop runs per arm (fresh connections each), \
             coordinated-omission-safe recording, results checksummed against \
             serial execution; identical client harness against both cores",
        )
        .table(table)
        .conclusions(
            "connection scale, not query weight, separates the cores: at 1x they \
             tie, at 100x the thread-per-connection scheduler tax shows up in \
             throughput and the p99 tail.",
        );
    ctx.finish_report(report, sections);

    if smoke {
        println!("\n--smoke: reduced scale/requests; same arms, same invariants.");
    }
    println!(
        "\nconclusion: the server core is a measurable factor. Bit-identical \
         answers from both cores make the comparison honest; bounded write \
         queues and deterministic shard placement make it repeatable."
    );
}
