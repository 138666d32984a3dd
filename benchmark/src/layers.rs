//! The traced run: where one statement's time goes, layer by layer.
//!
//! Every statement of the pool is sent over TCP, then over the in-process
//! loopback transport, then walked through the same public entry points
//! the server calls, one at a time, on the same disk-backed catalog:
//! `parser::parse` + `to_plan`, `optimizer::optimize`, `Executor::run`
//! (serial OPT, morsel-parallel, SIMD), `Frame::encode`, `Frame::decode`.
//! The benchmark times each call and, in the traced pass, keeps a span
//! for it. The parts are then set against the whole, and what they do not
//! explain is reported as `server.residual_ms`.

use crate::checksum::Answer;
use crate::report::Values;
use crate::serve::{Instance, Tally};
use crate::spans::{self_times_ns, Recorder};
use crate::stats::{mean, median};
use minidb::exec::Executor;
use minidb::optimizer::{optimize, OptimizerConfig};
use minidb::parser::{parse, to_plan};
use minidb::{Catalog, ExecMode, Session};
use minidb_net::{Client, Footer, Frame, LoopbackEndpoint, Server, ROWS_PER_BATCH};
use perfeval_store::{decode_segment, read_segment, PoolCounters, TableManifest};
use std::fmt::Write as _;
use std::time::Instant;

/// Rounds over the pool, and which of them keep spans. The untraced
/// round sits between two traced ones, so drift over the passes (caches,
/// the neighbours on the host) falls on both sides of `trace.overhead_ms`.
const ROUNDS_TRACED: [bool; 3] = [true, false, true];

/// Times `f`; in a keeping recorder, leaves a span around it.
fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    parent: usize,
    op: u32,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = rec.enter(name, Some(parent), op);
    let t = Instant::now();
    let value = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    rec.exit(id);
    (value, ms)
}

/// One statement, every layer timed once, ms.
#[derive(Debug, Clone, Copy, Default)]
struct OpTimes {
    total: f64,
    tcp: f64,
    loopback: f64,
    parse: f64,
    optimize: f64,
    exec: f64,
    parallel: f64,
    simd: f64,
    encode: f64,
    decode: f64,
    /// The TCP query ran with a core borrowed from the idle shard.
    borrowed: bool,
    rows: f64,
    frame_bytes: f64,
    /// Buffer-pool traffic of the TCP query.
    pool: PoolCounters,
    footer: Footer,
}

impl OpTimes {
    /// The executor call the server made for this statement.
    fn exec_as_served(&self) -> f64 {
        if self.borrowed {
            self.parallel
        } else {
            self.exec
        }
    }

    fn layer_sum(&self) -> f64 {
        self.parse + self.optimize + self.exec_as_served() + self.encode + self.decode
    }
}

struct Stage<'a> {
    catalog: &'a Catalog,
    shards: usize,
    tcp: &'a mut Client,
    loopback: &'a mut Client,
    server: &'a minidb_net::ServerHandle,
}

impl Stage<'_> {
    fn op(
        &mut self,
        rec: &mut Recorder,
        op: u32,
        sql: &str,
        want: &Answer,
        tally: &mut Tally,
    ) -> Result<OpTimes, String> {
        let mut t = OpTimes::default();
        let began = Instant::now();
        let root = rec.enter("op", None, op);

        // This connection is the only one, so the pool and steal counters
        // around the round trip belong to this statement alone.
        let catalog = self.catalog;
        let storage = catalog.storage().expect("opened from disk");
        let (steals, pool0) = (self.server.steal_borrows(), storage.counters());
        let (r, ms) = timed(rec, "transport.tcp_query", root, op, || self.tcp.query(sql));
        let r = r.map_err(|e| format!("tcp: {e}"))?;
        t.tcp = ms;
        t.borrowed = self.server.steal_borrows() > steals;
        t.pool = storage.counters().since(&pool0);
        t.footer = r.footer;
        tally.add(Answer::of(&r.rows) == *want);

        let (r, ms) = timed(rec, "transport.loopback_query", root, op, || {
            self.loopback.query(sql)
        });
        t.loopback = ms;
        tally.add(Answer::of(&r.map_err(|e| format!("loopback: {e}"))?.rows) == *want);

        let staged = rec.enter("staged", Some(root), op);
        let (plan, ms) = timed(rec, "parser.parse", staged, op, || {
            to_plan(&parse(sql)?, |table| {
                Ok(catalog.table(table)?.column_names().to_vec())
            })
        });
        t.parse = ms;
        let plan = plan.map_err(|e| format!("parse: {e}"))?;
        let (plan, ms) = timed(rec, "optimizer.optimize", staged, op, || {
            optimize(plan, catalog, OptimizerConfig::all())
        });
        t.optimize = ms;
        let plan = plan.map_err(|e| format!("optimize: {e}"))?;

        let (rs, ms) = timed(rec, "exec.run", staged, op, || {
            Executor::new(catalog, ExecMode::Optimized).run(&plan)
        });
        t.exec = ms;
        let rs = rs.map_err(|e| format!("exec: {e}"))?;
        tally.add(Answer::of(&rs.rows) == *want);

        let shards = self.shards;
        let (par, ms) = timed(rec, "parallel.run", staged, op, || {
            Executor::new(catalog, ExecMode::Optimized)
                .with_parallelism(shards)
                .run(&plan)
        });
        t.parallel = ms;
        tally.add(Answer::of(&par.map_err(|e| format!("parallel: {e}"))?.rows) == *want);
        let (simd, ms) = timed(rec, "kernels.simd_run", staged, op, || {
            Executor::new(catalog, ExecMode::Simd).run(&plan)
        });
        t.simd = ms;
        tally.add(Answer::of(&simd.map_err(|e| format!("simd: {e}"))?.rows) == *want);

        // The frames the server would send for this result, built as it
        // builds them: rows move into batches, nothing is cloned.
        t.rows = rs.rows.len() as f64;
        let mut frames = vec![Frame::ResultHeader {
            columns: rs.column_names,
        }];
        let mut rows = rs.rows.into_iter();
        loop {
            let batch: Vec<_> = rows.by_ref().take(ROWS_PER_BATCH).collect();
            if batch.is_empty() {
                break;
            }
            frames.push(Frame::RowBatch { rows: batch });
        }
        frames.push(Frame::Done(t.footer));
        let (wire, ms) = timed(rec, "frame.encode", staged, op, || {
            frames.iter().map(Frame::encode).collect::<Vec<_>>()
        });
        t.encode = ms;
        t.frame_bytes = wire.iter().map(Vec::len).sum::<usize>() as f64;
        let (decoded, ms) = timed(rec, "frame.decode", staged, op, || {
            wire.iter()
                .map(|bytes| Frame::decode(&bytes[4..]))
                .collect::<Result<Vec<_>, _>>()
        });
        t.decode = ms;
        let received: Vec<_> = decoded
            .map_err(|e| format!("decode: {e}"))?
            .into_iter()
            .filter_map(|f| match f {
                Frame::RowBatch { rows } => Some(rows),
                _ => None,
            })
            .flatten()
            .collect();
        tally.add(Answer::of(&received) == *want);

        rec.exit(staged);
        rec.exit(root);
        t.total = began.elapsed().as_secs_f64() * 1e3;
        Ok(t)
    }
}

/// `read_segment` per chunk and `decode_segment` throughput over the
/// segments of `lineitem`, the table every scan workload reads.
fn segment_layer(inst: &Instance, rec: &mut Recorder, values: &mut Values) -> Result<(), String> {
    let dir = inst.dir.join("lineitem");
    let manifest = TableManifest::load(&dir)
        .map_err(|e| e.to_string())?
        .ok_or("lineitem has no manifest")?;
    let root = rec.enter("store.segments", None, 0);
    let (mut read_ms, mut decode_s, mut decoded_bytes) = (Vec::new(), 0.0, 0u64);
    let mut ordinal = 0;
    for column in &manifest.columns {
        for chunk in &column.chunks {
            let path = dir.join(&chunk.file);
            let (data, ms) = timed(rec, "store.read_segment", root, ordinal, || {
                read_segment(&path, None, 0)
            });
            data.map_err(|e| e.to_string())?;
            read_ms.push(ms);
            let raw = std::fs::read(&path).map_err(|e| e.to_string())?;
            let (data, ms) = timed(rec, "store.decode_segment", root, ordinal, || {
                decode_segment(&raw)
            });
            decoded_bytes += data.map_err(|e| e.to_string())?.heap_bytes();
            decode_s += ms / 1e3;
            ordinal += 1;
        }
    }
    rec.exit(root);
    values.insert("store.read_segment_ms".into(), median(&read_ms));
    values.insert(
        "store.decode_mb_s".into(),
        decoded_bytes as f64 / 1e6 / decode_s,
    );
    Ok(())
}

/// Runs both passes and the segment timings on a warmed instance. Returns
/// the layer metrics, the reconciliation text, and the spans.
pub fn measure(
    inst: &mut Instance,
    statements: &[String],
    expected: &[Answer],
    tally: &mut Tally,
) -> Result<(Values, String, Recorder), String> {
    let endpoint = LoopbackEndpoint::new();
    let dial = endpoint.connector();
    let served = inst.catalog.clone();
    let loopback_server = Server::builder()
        .transport(endpoint)
        .serve(move || Session::new(served.clone()));
    let conn = dial.connect().map_err(|e| format!("loopback: {e}"))?;
    let mut loopback = Client::connect(Box::new(conn)).map_err(|e| format!("loopback: {e}"))?;
    let shards = crate::serve::shards(&inst.server);
    let mut stage = Stage {
        catalog: &inst.catalog,
        shards,
        tcp: &mut inst.clients[0],
        loopback: &mut loopback,
        server: &inst.server,
    };

    let mut untraced = Recorder::new(false);
    let mut plain = Vec::new();
    let mut rec = Recorder::new(true);
    let mut ops = Vec::new();
    for keep in ROUNDS_TRACED {
        for (sql, want) in statements.iter().zip(expected) {
            if keep {
                ops.push(stage.op(&mut rec, ops.len() as u32, sql, want, tally)?);
            } else {
                plain.push(stage.op(&mut untraced, 0, sql, want, tally)?.total);
            }
        }
    }
    let _ = loopback.close();
    loopback_server.wait();

    let col = |f: fn(&OpTimes) -> f64| -> Vec<f64> { ops.iter().map(f).collect() };
    let med = |f: fn(&OpTimes) -> f64| median(&col(f));
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| v.insert(name.to_owned(), value);
    put("parser.parse_ms", med(|t| t.parse));
    put("optimizer.optimize_ms", med(|t| t.optimize));
    put("exec.run_ms", med(|t| t.exec));
    put("exec.rows_out_per_op", mean(&col(|t| t.rows)));
    put("parallel.run_ms", med(|t| t.parallel));
    put("parallel.speedup", med(|t| t.exec) / med(|t| t.parallel));
    put("kernels.simd_run_ms", med(|t| t.simd));
    put("kernels.simd_over_opt", med(|t| t.simd) / med(|t| t.exec));
    let logical = mean(&col(|t| t.pool.logical_reads as f64));
    let physical = mean(&col(|t| t.pool.physical_reads as f64));
    put("store.logical_reads_per_op", logical);
    put("store.physical_reads_per_op", physical);
    put(
        "store.evictions_per_op",
        mean(&col(|t| t.pool.evictions as f64)),
    );
    put("store.hit_rate", 1.0 - physical / logical.max(1.0));
    put("frame.encode_ms", med(|t| t.encode));
    put("frame.decode_ms", med(|t| t.decode));
    let bytes = mean(&col(|t| t.frame_bytes));
    put("frame.bytes_per_op", bytes);
    put(
        "frame.bytes_per_row",
        bytes / mean(&col(|t| t.rows)).max(1.0),
    );
    put("transport.tcp_query_ms", med(|t| t.tcp));
    put("transport.loopback_query_ms", med(|t| t.loopback));
    put(
        "transport.tcp_minus_loopback_ms",
        med(|t| t.tcp) - med(|t| t.loopback),
    );
    put("server.residual_ms", med(|t| t.tcp - t.layer_sum()));
    put(
        "server.outside_exec_share",
        med(|t| (t.tcp - t.footer.execute_ms) / t.tcp),
    );
    put("server.reported_execute_ms", med(|t| t.footer.execute_ms));
    put(
        "server.reported_serialize_ms",
        med(|t| t.footer.serialize_ms),
    );
    put("server.reported_busy_ms", med(|t| t.footer.busy_ms()));
    // Paired by statement: the two traced executions of a statement
    // against its untraced one, so the pool's mix of shapes cancels.
    let n = statements.len();
    let paired: Vec<f64> = (0..n)
        .map(|k| (ops[k].total + ops[n + k].total) / 2.0 - plain[k])
        .collect();
    put("trace.overhead_ms", median(&paired));
    segment_layer(inst, &mut rec, &mut v)?;
    v.insert("trace.spans".into(), rec.spans().len() as f64);

    // Self time of the op roots is the benchmark's own share: checking
    // answers and building frames between the layer calls.
    let own = self_times_ns(rec.spans());
    let glue: Vec<f64> = rec
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "op" || s.name == "staged")
        .map(|(_, ns)| *ns as f64 / 1e6)
        .collect();
    let borrowed = ops.iter().filter(|t| t.borrowed).count();
    let mut notes = String::new();
    let _ = writeln!(
        notes,
        "reconciliation, medians over {} traced ops ({} of them served with a borrowed core), ms:",
        ops.len(),
        borrowed
    );
    let parts = [
        ("parser.parse_ms", med(|t| t.parse)),
        ("optimizer.optimize_ms", med(|t| t.optimize)),
        ("exec as served", med(OpTimes::exec_as_served)),
        ("frame.encode_ms", med(|t| t.encode)),
        ("frame.decode_ms", med(|t| t.decode)),
    ];
    for (name, ms) in parts {
        let _ = writeln!(notes, "  + {name:<30} {ms:>12.4}");
    }
    let _ = writeln!(
        notes,
        "  = {:<30} {:>12.4}",
        "layer sum",
        med(OpTimes::layer_sum)
    );
    let _ = writeln!(
        notes,
        "    {:<30} {:>12.4}",
        "transport.tcp_query_ms",
        med(|t| t.tcp)
    );
    let _ = writeln!(
        notes,
        "    {:<30} {:>12.4}  (per-op tcp minus layer sum: dispatch, wake-ups, syscalls, write queue, TCP)",
        "server.residual_ms",
        med(|t| t.tcp - t.layer_sum())
    );
    let _ = writeln!(
        notes,
        "    {:<30} {:>12.4}  (program-reported: the executor call as the server made it)",
        "server.reported_execute_ms",
        med(|t| t.footer.execute_ms)
    );
    let _ = writeln!(
        notes,
        "    {:<30} {:>12.4}  (self time of the benchmark's own op and staged spans: answer checks, frame building)",
        "harness per span",
        median(&glue)
    );
    Ok((v, notes, rec))
}
