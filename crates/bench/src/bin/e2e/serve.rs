//! `serve_block5_durable`: the durable daemon's request path. One
//! closed-loop writer sends `update` requests (one seeded `estimate_eco`
//! delta batch each, fsync on, a checkpoint every 64 commits) while one
//! closed-loop reader alternates `report_slack` and `report_at` — the
//! daemon's users are design tools that wait for each reply.
//!
//! The traced repetition then replays the same request stream in-process
//! through the layers' public functions (no socket), so the commit round
//! trip can be split by layer; what the replay cannot reach (socket hop,
//! thread wake, the private `parse_deltas`, journal, publish) is reported
//! as `server.unattributed_ms`.

use crate::eco::changelist;
use crate::probe::ScratchDir;
use crate::rep::{self, RepArgs, RepOut, Timed};
use crate::stats::median;
use crate::trace::Tracer;
use insta_engine::{EngineDurableState, WriterOp};
use insta_refsta::eco::ArcDelta;
use insta_refsta::estimate_eco;
use insta_serve::protocol::{ok_response, read_frame, write_frame};
use insta_serve::{
    recover, Admission, Client, Durability, DurabilityConfig, Op, OpKind, Request, ServeConfig,
    Server, PROTOCOL_VERSION,
};
use insta_support::json::{obj, Json, ToJson};
use insta_support::Rng;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

type Conn = Client<UnixStream, UnixStream>;

/// Commits between checkpoints: the production default, or every second
/// commit on the smoke test's tiny design so that its few ops reach the
/// checkpoint path too.
fn checkpoint_every(args: &RepArgs) -> u64 {
    if args.tiny {
        2
    } else {
        64
    }
}

fn durability_config(args: &RepArgs, dir: std::path::PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: checkpoint_every(args),
        ..DurabilityConfig::new(dir)
    }
}

fn connect(server: &Server) -> std::io::Result<(Conn, std::thread::JoinHandle<()>)> {
    let (ours, theirs) = UnixStream::pair()?;
    let their_reader = theirs.try_clone()?;
    let our_reader = ours.try_clone()?;
    let srv = server.clone();
    let handle = std::thread::spawn(move || srv.handle_connection(their_reader, theirs));
    Ok((Client::new(our_reader, ours), handle))
}

fn deltas_json(deltas: &[ArcDelta]) -> Json {
    let rows = deltas
        .iter()
        .map(|d| {
            obj([
                ("arc", u64::from(d.arc).to_json()),
                ("mean", d.mean.to_json()),
                ("sigma", d.sigma.to_json()),
            ])
        })
        .collect();
    obj([("deltas", Json::Arr(rows))])
}

/// What the reader thread saw.
#[derive(Default)]
struct ReaderLog {
    slack_us: Vec<f64>,
    at_us: Vec<f64>,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

/// The closed-loop reader: alternates a full endpoint dump and a point
/// read until told to stop, checking every reply and that the epochs it
/// observes never regress.
fn reader_loop(mut cl: Conn, nodes: Vec<u64>, trace: bool, stop: &AtomicBool) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut tr = Tracer::new(trace, 1);
    let mut last_epoch = 0;
    let mut i = 0;
    while !stop.load(Ordering::Acquire) {
        let point = i % 2 == 1;
        let (op, params, span) = if point {
            let node = nodes[(i / 2) % nodes.len()];
            (
                Op::ReportAt,
                obj([("node", node.to_json())]),
                "client.report_at",
            )
        } else {
            (Op::ReportSlack, Json::Null, "client.report_slack")
        };
        let t = Instant::now();
        tr.begin_op(i);
        let reply = tr.span(span, || cl.call(op, None, params));
        tr.end_op();
        let us = t.elapsed().as_secs_f64() * 1e6;
        if point {
            log.at_us.push(us);
        } else {
            log.slack_us.push(us);
        }
        match reply {
            Ok(r) if r.ok && r.epoch >= last_epoch => last_epoch = r.epoch,
            Ok(r) if r.ok => log.failures.push(format!(
                "read {i}: epoch went back {last_epoch} -> {}",
                r.epoch
            )),
            Ok(r) => log.failures.push(format!("read {i}: {:?}", r.error)),
            Err(e) => {
                log.failures.push(format!("read {i}: {e}"));
                break;
            }
        }
        i += 1;
    }
    log.tracer = Some(tr);
    log
}

fn stat_u64(stats: &Json, section: &str, key: &str) -> f64 {
    stats
        .field(section)
        .and_then(|s| s.get::<u64>(key))
        .map_or(0.0, |v| v as f64)
}

pub fn run(args: &RepArgs, tr: &mut Tracer, out: &mut RepOut) {
    let b = rep::build(args, tr, out);
    let label = format!("{}-r{}", args.workload.name(), args.rep);
    let dir = match ScratchDir::create(&args.scratch, &label) {
        Ok(d) => d,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("scratch directory: {e}"));
            return;
        }
    };
    let dcfg = durability_config(args, dir.path().join("wal"));
    let (opened, t_open) = tr.timed("server.open", || {
        Server::with_durability(b.engine, ServeConfig::default(), dcfg.clone())
    });
    out.set("server.open_ms", t_open);
    out.setup_s = b.setup_s + t_open / 1e3;
    let server = match opened {
        Ok((server, _)) => server,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("Server::with_durability: {e}"));
            return;
        }
    };

    // Inputs: one delta batch per commit, estimated against the unchanged
    // design, and the node ids the reader's point reads cycle through.
    let batches: Vec<Vec<ArcDelta>> = changelist(&b.design, args.warmup + args.ops, args.seed)
        .iter()
        .map(|op| estimate_eco(&b.design, &b.sta, op.cell, op.to).arc_deltas)
        .collect();
    let mut pick = Rng::seed_from_u64(0x5E7 ^ args.seed);
    let n_nodes = b.sta.graph().num_nodes() as u64;
    let nodes: Vec<u64> = (0..256).map(|_| pick.bounded_u64(n_nodes)).collect();

    let (writer, reader) = match (connect(&server), connect(&server)) {
        (Ok(w), Ok(r)) => (w, r),
        (Err(e), _) | (_, Err(e)) => {
            out.attempted += 1;
            out.fail(format!("socket pair: {e}"));
            return;
        }
    };
    let (mut wcl, w_handle) = writer;
    let (rcl, r_handle) = reader;

    let commit = |cl: &mut Conn, tr: &mut Tracer, index: usize, deltas: &[ArcDelta]| {
        let params = deltas_json(deltas);
        let t = Instant::now();
        tr.begin_op(index);
        let reply = tr.span("client.update", || cl.call(Op::Update, None, params));
        rep::busy_wait_us(args.slow_us);
        tr.end_op();
        (t.elapsed().as_secs_f64() * 1e3, reply)
    };

    let mut stream = batches.iter();
    for (i, deltas) in stream.by_ref().take(args.warmup).enumerate() {
        let _ = commit(&mut wcl, tr, i, deltas);
    }
    tr.clear();

    let stop = AtomicBool::new(false);
    let mut last_epoch = server.snapshot().epoch();
    let mut checkpoint_commit_ms = Vec::new();
    let mut deltas_per_op = Vec::new();
    let stats_before = wcl.call(Op::Stats, None, Json::Null).ok().map(|r| r.result);
    let log = std::thread::scope(|scope| {
        let (stop, trace) = (&stop, args.trace);
        let reader = scope.spawn(move || reader_loop(rcl, nodes, trace, stop));
        let timed = Timed::start();
        for (index, deltas) in stream.enumerate() {
            let (ms, reply) = commit(&mut wcl, tr, index, deltas);
            out.op_ms.push(ms);
            deltas_per_op.push(deltas.len() as f64);
            out.attempted += 1;
            // Output checks: every reply ok, epochs step by exactly one.
            match reply {
                Ok(r) if r.ok && r.epoch == last_epoch + 1 => {
                    last_epoch = r.epoch;
                    if r.epoch % checkpoint_every(args) == 0 {
                        checkpoint_commit_ms.push(ms);
                    }
                }
                Ok(r) if r.ok => {
                    out.fail(format!("commit {index}: epoch {last_epoch} -> {}", r.epoch));
                    last_epoch = r.epoch;
                }
                Ok(r) => out.fail(format!("commit {index}: {:?}", r.error)),
                Err(e) => {
                    out.fail(format!("commit {index}: {e}"));
                    break;
                }
            }
        }
        timed.finish(out);
        stop.store(true, Ordering::Release);
        reader.join().expect("the reader thread does not panic")
    });
    out.read_us = log.slack_us;
    out.read_at_us = log.at_us;
    out.attempted += (out.read_us.len() + out.read_at_us.len()) as u64;
    for why in log.failures {
        out.fail(why);
    }

    // Counts from the `stats` op: exact, because there is one writer.
    let stats_after = wcl.call(Op::Stats, None, Json::Null).ok().map(|r| r.result);
    if let (Some(s0), Some(s1)) = (&stats_before, &stats_after) {
        let ops = out.op_ms.len().max(1) as f64;
        let delta =
            |section: &str, key: &str| stat_u64(s1, section, key) - stat_u64(s0, section, key);
        out.set("wal.records", delta("durability", "wal_records"));
        out.set(
            "wal.bytes_per_commit",
            delta("durability", "wal_bytes") / ops,
        );
        out.set("wal.fsyncs_per_commit", delta("durability", "fsyncs") / ops);
        out.set(
            "wal.checkpoints_written",
            delta("durability", "checkpoints_written"),
        );
        out.set("server.snapshot_swaps", delta("service", "snapshot_swaps"));
        out.set(
            "admission.rejected",
            delta("service", "rejected_overload") + delta("service", "shed"),
        );
    } else {
        out.attempted += 1;
        out.fail("the stats op failed");
    }
    out.set("incremental.deltas_per_op", median(&deltas_per_op));
    out.set("server.checkpoint_commit_ms", median(&checkpoint_commit_ms));
    out.set("server.report_at_p50_us", median(&out.read_at_us));

    let live = server.snapshot();
    let live_epoch = live.epoch();
    if let Some(r) = live.report() {
        out.result_hash = rep::crc_bits(&r.slacks);
    }
    if tr.is_on() {
        // An `Arc` load is shorter than a clock read: time them a
        // thousand at a time.
        let loads: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..1000 {
                    std::hint::black_box(server.snapshot());
                }
                t.elapsed().as_secs_f64() * 1e6 / 1e3
            })
            .collect();
        out.set("snapshot.load_us", median(&loads));
    }

    // Close both connections, then the daemon, so the WAL is at rest.
    drop(wcl);
    let _ = w_handle.join();
    let _ = r_handle.join();
    drop(server);

    // Output check: acknowledged ⇒ durable. Recovery replays the run's
    // directory into a fresh twin whose slack bits equal the live ones.
    let mut twin = rep::twin_engine(&b.sta, rep::engine_config(args.workload));
    let t = Instant::now();
    let recovered = recover(&mut twin, &dcfg);
    out.set("recovery.replay_ms", t.elapsed().as_secs_f64() * 1e3);
    match recovered {
        Ok(report) => {
            out.set("recovery.records_replayed", report.replayed as f64);
            let same = live
                .report()
                .is_some_and(|r| rep::same_bits(&r.slacks, &twin.report().slacks));
            out.check(report.recovered_epoch == live_epoch && same, || {
                format!(
                    "recovery reached epoch {} (live {live_epoch}) and {} slack bits",
                    report.recovered_epoch,
                    if same { "equal" } else { "different" }
                )
            });
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("recover: {e}"));
        }
    }

    if let Some(reader_tr) = &log.tracer {
        if tr.is_on() {
            replay(args, tr, out, &b.sta, &batches, &dir);
        }
        rep::export_trace(args, &[tr, reader_tr], out);
    }
}

/// The layer replay: the same request stream, driven in-process through
/// each layer's public function with a span around every call.
fn replay(
    args: &RepArgs,
    tr: &mut Tracer,
    out: &mut RepOut,
    sta: &insta_refsta::RefSta,
    batches: &[Vec<ArcDelta>],
    dir: &ScratchDir,
) {
    let cfg = ServeConfig::default();
    let mut engine = rep::twin_engine(sta, rep::engine_config(args.workload));
    let dur = match Durability::open(durability_config(args, dir.path().join("replay-wal"))) {
        Ok(d) => d,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("replay Durability::open: {e}"));
            return;
        }
    };
    let admission = Admission::new(&cfg);
    let socket_ops = tr.durations_ms("client.update").len();
    let mut id = 0;
    // Replay spans carry op indices after the socket run's.
    let mut one = |tr: &mut Tracer, index: usize, deltas: &[ArcDelta]| -> Result<(), String> {
        id += 1;
        tr.begin_op(index);
        let frame = tr.span("client.encode", || {
            let req = Request {
                id,
                op: Op::Update,
                deadline_ms: None,
                version: Some(PROTOCOL_VERSION),
                params: deltas_json(deltas),
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, &req.encode()).map(|()| wire)
        });
        let frame = frame.map_err(|e| format!("write_frame: {e}"))?;
        let req = tr.span("protocol.decode", || {
            let body = read_frame(&mut frame.as_slice(), cfg.max_frame_bytes)
                .map_err(|e| format!("read_frame: {e}"))?;
            Request::decode(&body).map_err(|e| format!("decode: {}", e.message))
        })?;
        let ticket = tr.span("admission.try_admit", || {
            admission.try_admit(OpKind::Writer)
        });
        let _ticket = ticket.map_err(|r| format!("admission: {r:?}"))?;
        let mut session = tr.span("session.begin", || engine.begin_session());
        let report = tr
            .span("session.update_timing", || session.update_timing(deltas))
            .map_err(|e| format!("update_timing: {e}"))?;
        let next_epoch = session.engine().epoch() + 1;
        let logged = WriterOp::Update(deltas.to_vec());
        tr.span("wal.log_commit", || dur.log_commit(next_epoch, &logged))
            .map_err(|e| format!("log_commit: {e}"))?;
        let epoch = tr
            .span("session.commit", || session.commit())
            .map_err(|e| format!("commit: {e}"))?;
        let snap = tr.span("snapshot.capture", || engine.snapshot());
        let reply = tr.span("protocol.encode_reply", || {
            ok_response(
                req.id,
                epoch,
                obj([
                    ("epoch", epoch.to_json()),
                    ("wns_ps", report.wns_ps.to_json()),
                    ("tns_ps", report.tns_ps.to_json()),
                    ("n_violations", (report.n_violations as u64).to_json()),
                ]),
            )
        });
        std::hint::black_box(reply);
        if dur.checkpoint_due() {
            let state = tr.span("persist.capture_encode", || {
                let state = EngineDurableState::capture(&engine);
                std::hint::black_box(state.encode());
                state
            });
            tr.span("wal.write_checkpoint", || {
                dur.write_checkpoint(&state, &snap)
            })
            .map_err(|e| format!("write_checkpoint: {e}"))?;
        }
        tr.end_op();
        Ok(())
    };

    let mut stream = batches.iter();
    let warm_tracer = &mut Tracer::new(false, 0);
    for (i, deltas) in stream.by_ref().take(args.warmup).enumerate() {
        let _ = one(warm_tracer, i, deltas);
    }
    for (done, deltas) in stream.enumerate() {
        out.attempted += 1;
        if let Err(why) = one(tr, socket_ops + done, deltas) {
            tr.end_op();
            out.fail(format!("replay op {done}: {why}"));
        }
    }

    rep::span_medians(
        tr,
        out,
        &[
            ("client.encode", "client.encode_us", 1e3),
            ("protocol.decode", "protocol.decode_us", 1e3),
            ("admission.try_admit", "admission.try_admit_us", 1e3),
            ("session.begin", "session.begin_ms", 1.0),
            ("session.update_timing", "session.update_timing_ms", 1.0),
            ("wal.log_commit", "wal.log_commit_us", 1e3),
            ("session.commit", "session.commit_ms", 1.0),
            ("snapshot.capture", "snapshot.capture_us", 1e3),
            ("protocol.encode_reply", "protocol.encode_reply_us", 1e3),
            ("persist.capture_encode", "persist.capture_encode_ms", 1.0),
            ("wal.write_checkpoint", "wal.write_checkpoint_ms", 1.0),
        ],
    );
    // What the socket round trip costs beyond the replayed layers, and
    // what a read costs beyond loading the published snapshot.
    let replayed_ms: f64 = [
        ("client.encode_us", 1e-3),
        ("protocol.decode_us", 1e-3),
        ("admission.try_admit_us", 1e-3),
        ("session.begin_ms", 1.0),
        ("session.update_timing_ms", 1.0),
        ("wal.log_commit_us", 1e-3),
        ("session.commit_ms", 1.0),
        ("snapshot.capture_us", 1e-3),
        ("protocol.encode_reply_us", 1e-3),
    ]
    .iter()
    .map(|(name, to_ms)| out.layer(name).unwrap_or(0.0) * to_ms)
    .sum();
    out.set("server.unattributed_ms", median(&out.op_ms) - replayed_ms);
    let load = out.layer("snapshot.load_us").unwrap_or(0.0);
    out.set("server.read_unattributed_us", median(&out.read_us) - load);
}
