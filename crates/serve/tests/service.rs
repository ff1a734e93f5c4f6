//! End-to-end service behavior over the real protocol: reads, writes,
//! admission control, degradation tiers, deadlines (including the
//! wall-clock overshoot backstop), incidents, stats, and shutdown.

mod common;

use common::{build_engine, connect, deltas_params, slack_bits, Conn};
use insta_refsta::eco::ArcDelta;
use insta_serve::admission::{REJECTION_PRESSURE, SHED_PRESSURE, SNAPSHOT_ONLY_PRESSURE};
use insta_serve::protocol::{read_frame, write_frame, FrameError};
use insta_serve::{Client, DurabilityConfig, Op, ServeConfig, Server};
use insta_support::json::{obj, parse, Json, ToJson};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn delta_params(arc: u32, mean: f64, sigma: f64) -> Json {
    deltas_params(&[ArcDelta {
        arc,
        mean: [mean; 2],
        sigma: [sigma; 2],
    }])
}

/// A pin no endpoint sees is not timed. Two such pins are spliced into a
/// generated snapshot as the engine's dead-logic tests splice them — a
/// startpoint nothing reads, and a gate that reads an endpoint and feeds
/// nothing. The engine and its snapshot answer `None` for both, and a
/// `report_at` answers `reached:false` on either transition, while the
/// endpoint the gate reads stays reached.
#[test]
fn a_pin_no_endpoint_sees_is_not_timed() {
    use insta_engine::{InstaConfig, InstaEngine};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::export::{ExportedArc, SourceInit, NO_LEAF};
    use insta_refsta::{RefSta, StaConfig};
    let design = generate_design(&GeneratorConfig::small("serve-test", 21));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference STA");
    sta.full_update(&design);
    let mut init = sta.export_insta_init();
    let endpoint = init.endpoints[0].node;
    let (start, gate) = (init.n_nodes as u32, init.n_nodes as u32 + 1);
    let source_arc = init
        .fanin
        .iter()
        .map(|a| a.source_arc + 1)
        .max()
        .unwrap_or(0);
    init.n_nodes += 2;
    // The startpoint on level 0, without fanin.
    init.fanin_start.push(init.fanin.len() as u32);
    init.order.insert(init.level_start[1] as usize, start);
    init.level_start[1..].iter_mut().for_each(|s| *s += 1);
    init.sources.push(SourceInit {
        node: start,
        sp: init.sources.len() as u32,
        mean: [10.0; 2],
        sigma: [1.0; 2],
    });
    init.sp_leaf.push(NO_LEAF);
    // The gate on a level of its own, past the last.
    init.fanin.push(ExportedArc {
        parent: endpoint,
        mean: [5.0; 2],
        sigma: [1.0; 2],
        negative_unate: false,
        source_arc,
    });
    init.fanin_start.push(init.fanin.len() as u32);
    init.order.push(gate);
    init.level_start.push(init.order.len() as u32);
    let cfg = InstaConfig {
        top_k: 8,
        ..InstaConfig::default()
    };
    let mut engine = InstaEngine::new(init, cfg).expect("a valid snapshot");
    engine.propagate();
    let snap = engine.snapshot();
    for (pin, rf) in [start, gate]
        .into_iter()
        .flat_map(|pin| [(pin, 0), (pin, 1)])
    {
        assert_eq!(engine.arrival_at(pin, rf), None, "arrival_at({pin}, {rf})");
        assert_eq!(
            engine.distribution_at(pin, rf),
            None,
            "distribution_at({pin}, {rf})"
        );
        assert_eq!(
            snap.arrival_at(pin, rf),
            None,
            "snapshot arrival_at({pin}, {rf})"
        );
    }

    let server = Server::new(engine, ServeConfig::default());
    let (mut cl, h) = connect(&server);
    let mut reached = |node: u32, rf: u64| {
        let params = obj([("node", u64::from(node).to_json()), ("rf", rf.to_json())]);
        let rep = cl.call(Op::ReportAt, None, params).unwrap();
        assert!(rep.ok, "report_at({node}, {rf}): {:?}", rep.error);
        let arrival = rep
            .result
            .field("arrival")
            .expect("an arrival field")
            .clone();
        let reached = rep.result.get::<bool>("reached").expect("a reached field");
        assert_eq!(reached, arrival != Json::Null, "report_at({node}, {rf})");
        reached
    };
    for rf in 0..2 {
        assert!(!reached(start, rf), "the startpoint nothing reads, rf {rf}");
        assert!(!reached(gate, rf), "the gate that feeds nothing, rf {rf}");
        assert!(reached(endpoint, rf), "the endpoint, rf {rf}");
    }
    drop(cl);
    h.join().expect("connection thread");
}

#[test]
fn reads_and_writes_round_trip_bit_exactly() {
    let server = Server::new(build_engine(21, 8), ServeConfig::default());
    let (mut cl, h) = connect(&server);

    let pong = cl.call(Op::Ping, None, Json::Null).unwrap();
    assert!(pong.ok);
    assert_eq!(pong.result.get::<bool>("pong").unwrap(), true);

    // The served slacks are bit-identical to a twin engine's: f64s
    // survive the JSON wire via shortest round-trip formatting.
    let twin = build_engine(21, 8);
    let golden: Vec<u64> = twin.report().slacks.iter().map(|s| s.to_bits()).collect();
    let rep = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert!(rep.ok);
    assert_eq!(rep.epoch, 0);
    assert_eq!(slack_bits(&rep.result), golden);
    assert_eq!(rep.result.get::<bool>("degraded").unwrap(), false);

    // A committed write bumps the epoch and swaps the snapshot.
    let up = cl
        .call(Op::Update, None, delta_params(0, 40.0, 4.0))
        .unwrap();
    assert!(up.ok, "update failed: {:?}", up.error);
    assert_eq!(up.result.get::<u64>("epoch").unwrap(), 1);
    let mut twin2 = build_engine(21, 8);
    let golden2: Vec<u64> = twin2
        .update_timing(&[insta_refsta::eco::ArcDelta {
            arc: 0,
            mean: [40.0; 2],
            sigma: [4.0; 2],
        }])
        .unwrap()
        .slacks
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let rep2 = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert_eq!(rep2.epoch, 1);
    assert_eq!(slack_bits(&rep2.result), golden2);
    assert_ne!(golden, golden2, "the delta must have moved some slack");
    assert_eq!(server.counters().snapshot_swaps.load(Ordering::Relaxed), 1);

    // Endpoint selection and range checking.
    let sel = cl
        .call(
            Op::ReportSlack,
            None,
            obj([("endpoints", Json::Arr(vec![0_u64.to_json()]))]),
        )
        .unwrap();
    assert_eq!(slack_bits(&sel.result), vec![golden2[0]]);
    let oob = cl
        .call(
            Op::ReportSlack,
            None,
            obj([("endpoints", Json::Arr(vec![999_999_u64.to_json()]))]),
        )
        .unwrap();
    assert_eq!(oob.code(), Some("bad_request"));

    drop(cl);
    h.join().unwrap();
}

/// Regression: wire integers were narrowed with `as`, so an arc or node id
/// of `2^32 + a valid id` wrapped onto the valid id — the update was
/// applied to the wrong arc, logged and committed — and any `rf` was
/// clamped onto a transition. All three are typed refusals that write
/// nothing.
#[test]
fn wire_integers_wider_than_their_field_are_refused_not_wrapped() {
    let server = Server::new(build_engine(23, 8), ServeConfig::default());
    let (mut cl, h) = connect(&server);
    let before = cl.call(Op::ReportSlack, None, Json::Null).unwrap();

    // No `ArcDelta` holds `2^32 + 1`: this one object is spelled by hand.
    let wide = obj([
        ("arc", ((1u64 << 32) + 1).to_json()),
        ("mean", [40.0; 2].to_json()),
        ("sigma", [4.0; 2].to_json()),
    ]);
    let wrapped = cl
        .call(Op::Update, None, obj([("deltas", Json::Arr(vec![wide]))]))
        .unwrap();
    assert_eq!(wrapped.code(), Some("bad_request"), "{:?}", wrapped.error);
    let message = &wrapped.error.as_ref().expect("refused").1;
    assert!(
        message.contains("arc"),
        "the refusal names the field: {message}"
    );
    let after = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert_eq!(after.epoch, before.epoch, "the epoch must not move");
    assert_eq!(slack_bits(&after.result), slack_bits(&before.result));
    assert_eq!(server.counters().snapshot_swaps.load(Ordering::Relaxed), 0);

    let at = |cl: &mut common::Conn, node: u64, rf: Option<u64>| {
        let mut params = vec![("node", node.to_json())];
        params.extend(rf.map(|rf| ("rf", rf.to_json())));
        cl.call(Op::ReportAt, None, obj(params)).unwrap()
    };
    for rf in [None, Some(0), Some(1)] {
        assert!(at(&mut cl, 0, rf).ok, "rf {rf:?} is a transition");
    }
    for (node, rf, field) in [(1 << 32, None, "node"), (0, Some(2), "rf")] {
        let refused = at(&mut cl, node, rf);
        assert_eq!(refused.code(), Some("bad_request"), "{node} {rf:?}");
        let message = &refused.error.as_ref().expect("refused").1;
        assert!(
            message.contains(field),
            "the refusal names {field}: {message}"
        );
    }

    drop(cl);
    h.join().unwrap();
}

#[test]
fn admission_cap_rejects_with_retry_hint_and_records_incidents() {
    let cfg = ServeConfig {
        max_inflight: 1,
        enable_debug_ops: true,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(22, 4), cfg);

    // Occupy the single slot with a stalled read on its own connection.
    let (mut staller, sh) = connect(&server);
    let srv = server.clone();
    let stall = std::thread::spawn(move || {
        let r = staller
            .call(Op::DebugStall, None, obj([("ms", 300_u64.to_json())]))
            .unwrap();
        assert!(r.ok);
        staller
    });
    // Wait until the slot is actually held.
    while srv.counters().accepted.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(20));

    let (mut cl, h) = connect(&server);
    let rej = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert_eq!(rej.code(), Some("overloaded"), "{:?}", rej.error);
    let (_, _, retry) = rej.error.clone().unwrap();
    assert!(retry.unwrap() > 0, "overload must carry retry_after_ms");

    // Control ops still work at full house, and the rejection landed in
    // the incident ring with the request id.
    let inc = cl.call(Op::Incidents, None, Json::Null).unwrap();
    assert!(inc.ok);
    let rows = inc.result.field("incidents").unwrap().as_arr().unwrap();
    assert!(
        rows.iter().any(|r| {
            r.get::<String>("category").unwrap() == "overloaded"
                && r.get::<u64>("request_id").unwrap() == rej.id
        }),
        "overload rejection missing from incidents: {rows:?}"
    );
    assert!(server.counters().rejected_overload.load(Ordering::Relaxed) >= 1);

    let mut staller = stall.join().unwrap();
    let bye = staller.call(Op::Ping, None, Json::Null).unwrap();
    assert!(bye.ok);
    drop(staller);
    drop(cl);
    sh.join().unwrap();
    h.join().unwrap();
}

#[test]
fn degradation_sheds_heavies_then_serves_stale_reads_but_never_the_writer() {
    let cfg = ServeConfig {
        max_inflight: 1,
        enable_debug_ops: true,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(23, 4), cfg);

    // Hold the slot so every read rejection pumps pressure.
    let (mut staller, sh) = connect(&server);
    let srv = server.clone();
    let stall = std::thread::spawn(move || {
        let r = staller
            .call(Op::DebugStall, None, obj([("ms", 150_u64.to_json())]))
            .unwrap();
        assert!(r.ok);
        staller
    });
    while srv.counters().accepted.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(20));

    let (mut cl, h) = connect(&server);
    // Rejections pump the pressure to ShedHeavy: batch work is refused.
    for _ in 0..SHED_PRESSURE.div_ceil(REJECTION_PRESSURE) {
        let rej = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
        assert_eq!(rej.code(), Some("overloaded"));
    }
    let shed = cl
        .call(Op::Batch, None, obj([("scenarios", Json::Arr(vec![]))]))
        .unwrap();
    assert_eq!(shed.code(), Some("shed"), "{:?}", shed.error);

    // Keep pumping until SnapshotOnly, then let the staller drain so the
    // next read can actually win a slot — pressure persists past the
    // overload itself (it decays one step per completion, and one per
    // idle `PRESSURE_DECAY_MS`): pump past the threshold by a margin.
    for _ in 0..SNAPSHOT_ONLY_PRESSURE.div_ceil(REJECTION_PRESSURE) + 2 {
        let r = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
        assert_eq!(r.code(), Some("overloaded"));
    }
    let mut staller = stall.join().unwrap();
    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    assert_eq!(
        stats.result.get::<String>("tier").unwrap(),
        "snapshot_only",
        "pressure: {:?}",
        stats.result.get::<u64>("pressure")
    );
    let stale = cl
        .call(
            Op::ReportSlack,
            None,
            obj([("min_epoch", 999_u64.to_json())]),
        )
        .unwrap();
    assert!(stale.ok, "{:?}", stale.error);
    assert_eq!(stale.result.get::<bool>("degraded").unwrap(), true);
    assert_eq!(stale.result.get::<u64>("epoch").unwrap(), 0);
    assert!(server.counters().degraded_reports.load(Ordering::Relaxed) >= 1);

    // The writer is exempt from the cap and every tier: it commits even
    // at snapshot_only.
    let up = cl.call(Op::Update, None, delta_params(1, 25.0, 2.0)).unwrap();
    assert!(up.ok, "writer must never be dropped: {:?}", up.error);
    assert_eq!(up.result.get::<u64>("epoch").unwrap(), 1);

    let _ = staller.call(Op::Ping, None, Json::Null);
    drop(staller);
    drop(cl);
    sh.join().unwrap();
    h.join().unwrap();
}

#[test]
fn epoch_wait_times_out_typed_and_deadline_overshoot_is_distinct() {
    let cfg = ServeConfig {
        max_epoch_wait_ms: 20,
        enable_debug_ops: true,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(24, 4), cfg);
    let (mut cl, h) = connect(&server);

    // A min_epoch wait that can't be satisfied fails with `deadline`
    // (the engine was never touched — nothing to roll back).
    let wait = cl
        .call(
            Op::ReportSlack,
            Some(30),
            obj([("min_epoch", 7_u64.to_json())]),
        )
        .unwrap();
    assert_eq!(wait.code(), Some("deadline"), "{:?}", wait.error);

    // A read that *finishes* but blows its budget is a distinct error:
    // the kernels' per-level polls can't see a stall inside one op.
    let late = cl
        .call(Op::DebugStall, Some(10), obj([("ms", 60_u64.to_json())]))
        .unwrap();
    assert_eq!(late.code(), Some("deadline_overshoot"), "{:?}", late.error);
    assert!(server.counters().deadline_overshoot.load(Ordering::Relaxed) >= 1);
    assert!(server.counters().deadline_cancelled.load(Ordering::Relaxed) >= 1);

    drop(cl);
    h.join().unwrap();
}

/// Satellite regression: a writer stalled *between* the last per-level
/// cancellation poll and the commit decision must roll back and report
/// `deadline_overshoot` — never publish, never half-commit.
#[test]
fn overshot_writer_rolls_back_instead_of_committing_late() {
    let cfg = ServeConfig {
        stall_writer_ms: 60,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(25, 8), cfg);
    let before: Vec<u64> = server
        .snapshot()
        .report()
        .unwrap()
        .slacks
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let (mut cl, h) = connect(&server);

    let up = cl
        .call(Op::Update, Some(20), delta_params(0, 80.0, 8.0))
        .unwrap();
    assert_eq!(up.code(), Some("deadline_overshoot"), "{:?}", up.error);
    assert_eq!(up.epoch, 0, "nothing may have been published");
    assert_eq!(server.counters().snapshot_swaps.load(Ordering::Relaxed), 0);

    // The rollback is bit-perfect: the same update without a deadline
    // starts from pristine state and commits cleanly.
    let rep = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert_eq!(slack_bits(&rep.result), before, "state must be untouched");
    let retry = cl.call(Op::Update, None, delta_params(0, 80.0, 8.0)).unwrap();
    assert!(retry.ok, "{:?}", retry.error);
    assert_eq!(retry.result.get::<u64>("epoch").unwrap(), 1);

    drop(cl);
    h.join().unwrap();
}

#[test]
fn stats_journal_and_perf_surfaces_are_live() {
    let server = Server::new(build_engine(26, 4), ServeConfig::default());
    let (mut cl, h) = connect(&server);

    let _ = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    let _ = cl.call(Op::Update, None, delta_params(2, 15.0, 1.5)).unwrap();
    let at = cl
        .call(Op::ReportAt, None, obj([("node", 0_u64.to_json())]))
        .unwrap();
    assert!(at.ok);
    let perf = cl.call(Op::PerfReport, None, Json::Null).unwrap();
    assert!(perf.ok, "perf_report must serve (empty when not tracing)");

    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    assert!(stats.ok);
    let engine = stats.result.field("engine").unwrap();
    assert_eq!(engine.get::<u64>("epoch").unwrap(), 1);
    assert_eq!(engine.get::<u64>("sessions_committed").unwrap(), 1);
    let service = stats.result.field("service").unwrap();
    assert!(service.get::<u64>("accepted").unwrap() >= 4);
    assert_eq!(service.get::<u64>("snapshot_swaps").unwrap(), 1);

    // The journal is JSONL with one event per request, carrying ids.
    let journal = cl.call(Op::Journal, None, Json::Null).unwrap();
    let jsonl = journal.result.as_str().unwrap();
    assert!(jsonl.lines().count() >= 5, "journal too short:\n{jsonl}");
    assert!(jsonl.contains("report_slack") && jsonl.contains("update"));
    for line in jsonl.lines() {
        insta_support::json::parse(line).expect("journal lines parse");
    }

    // A gradient is the writer's own backward pass: committed state unmoved.
    let g = cl.call(Op::Gradient, None, Json::Null).unwrap();
    assert!(g.ok, "{:?}", g.error);
    assert!(g.result.get::<u64>("n_arcs").unwrap() > 0);
    assert!(g.result.get::<f64>("l1").unwrap().is_finite());
    let stats2 = cl.call(Op::Stats, None, Json::Null).unwrap();
    assert_eq!(
        stats2.result.field("engine").unwrap().get::<u64>("epoch").unwrap(),
        1,
        "gradient must not commit an epoch"
    );

    drop(cl);
    h.join().unwrap();
}

/// `stats` shows, per op, the daemon's own time from decode start to reply
/// written: a stalled op reads as its stall, an op never sent as zeros,
/// and a body that never decoded counts for no op.
#[test]
fn stats_shows_each_ops_server_side_latency() {
    let cfg = ServeConfig {
        enable_debug_ops: true,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(27, 4), cfg);
    let (mut cl, h) = connect(&server);
    for _ in 0..3 {
        assert!(cl.call(Op::ReportSlack, None, Json::Null).unwrap().ok);
    }
    let at = cl.call(Op::ReportAt, None, obj([("node", 0_u64.to_json())]));
    assert!(at.unwrap().ok);
    let stall = cl.call(Op::DebugStall, None, obj([("ms", 20_u64.to_json())]));
    assert!(stall.unwrap().ok);
    cl.send_raw(b"{not json").unwrap();
    assert_eq!(cl.read_response().unwrap().code(), Some("protocol"));

    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    let latency = stats.result.field("latency_us").unwrap();
    let row = |op: Op| {
        let r = latency.field(op.name()).unwrap();
        let get = |k: &str| r.get::<u64>(k).unwrap();
        (get("p50"), get("p99"), get("max"))
    };
    for op in [Op::ReportSlack, Op::ReportAt] {
        let (p50, p99, max) = row(op);
        assert!(p50 >= 1 && p50 <= p99, "{}: p50 {p50} p99 {p99}", op.name());
        assert!(max < p99, "{}: max {max} p99 {p99}", op.name());
    }
    // Buckets are powers of two: a 20 ms stall lands in [16.4, 32.8) ms.
    let (p50, _, max) = row(Op::DebugStall);
    assert_eq!(p50, 1 << 15);
    assert!((20_000..1 << 15).contains(&max), "stall max {max}");
    for op in [Op::Batch, Op::Update, Op::Stats] {
        assert_eq!(row(op), (0, 0, 0), "{} was never answered", op.name());
    }
    assert_eq!(latency.as_obj().unwrap().len(), Op::ALL.len());

    drop(cl);
    h.join().unwrap();
}

/// The `engine` section of a fresh `stats` reply.
fn engine_stats(cl: &mut Conn) -> Json {
    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    stats.result.field("engine").unwrap().clone()
}

/// `stats.engine` is the writer's counters as its last op left them: a
/// batch and a refused update each show in the very next `stats`, with no
/// commit between them to publish a snapshot, and a gradient — the
/// writer's own backward pass, no batch — leaves every counter as it was.
#[test]
fn stats_engine_shows_the_writers_last_op_without_a_commit() {
    let server = Server::new(build_engine(28, 4), ServeConfig::default());
    let (mut cl, h) = connect(&server);
    let count = |section: &Json, key: &str| section.get::<u64>(key).unwrap();
    let scenario = |arc: u32| {
        let params = delta_params(arc, 15.0 + f64::from(arc), 1.5);
        params.field("deltas").unwrap().clone()
    };
    let before = engine_stats(&mut cl);

    let scenarios = Json::Arr((0..3).map(scenario).collect());
    let batch = cl
        .call(Op::Batch, None, obj([("scenarios", scenarios)]))
        .unwrap();
    assert!(batch.ok, "{:?}", batch.error);
    let after_batch = engine_stats(&mut cl);
    assert_eq!(
        count(&after_batch, "batches"),
        count(&before, "batches") + 1
    );
    assert_eq!(
        count(&after_batch, "batch_scenarios"),
        count(&before, "batch_scenarios") + 3
    );

    let gradient = cl.call(Op::Gradient, None, Json::Null).unwrap();
    assert!(gradient.ok, "{:?}", gradient.error);
    let after_gradient = engine_stats(&mut cl);
    assert_eq!(
        after_gradient, after_batch,
        "a gradient moves no engine counter"
    );

    // An arc past the graph's is refused inside the session it opened.
    let refused = cl
        .call(Op::Update, None, delta_params(4_000_000, 15.0, 1.5))
        .unwrap();
    assert!(!refused.ok, "an out-of-range arc must be refused");
    let after_refusal = engine_stats(&mut cl);
    for key in ["sessions_begun", "sessions_rolled_back"] {
        assert_eq!(
            count(&after_refusal, key),
            count(&after_gradient, key) + 1,
            "{key}"
        );
    }
    assert_eq!(count(&after_refusal, "epoch"), 0, "nothing committed");
    assert_eq!(server.snapshot().epoch(), 0);

    drop(cl);
    h.join().unwrap();
}

/// Every leaf key path of a JSON object, in member order
/// (`engine.epoch`, `latency_us.ping.p50`, ...).
fn key_paths(value: &Json, prefix: &str, out: &mut Vec<String>) {
    let Json::Obj(members) = value else {
        out.push(prefix.to_owned());
        return;
    };
    for (key, member) in members {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        key_paths(member, &path, out);
    }
}

/// The `stats` layout of a durable daemon, pinned: no key moves, is
/// renamed, or disappears — dashboards and the benchmark read these paths.
#[test]
fn a_durable_daemons_stats_layout_is_pinned() {
    const LAYOUT: &[&str] = &[
        "epoch",
        "version",
        "tier",
        "pressure",
        "inflight",
        "engine.epoch",
        "engine.sessions_begun",
        "engine.sessions_committed",
        "engine.sessions_rolled_back",
        "engine.sessions_cancelled",
        "engine.incremental_updates",
        "engine.drift_updates",
        "engine.drift_mass",
        "engine.incidents_total",
        "engine.incidents_dropped",
        "engine.batches",
        "engine.batch_scenarios",
        "engine.batch_quarantined",
        "engine.mcmm_corner_lanes",
        "engine.mcmm_deduped",
        "service.accepted",
        "service.rejected_overload",
        "service.shed",
        "service.rejected_protocol",
        "service.deadline_cancelled",
        "service.deadline_overshoot",
        "service.degraded_reports",
        "service.panics_isolated",
        "service.snapshot_swaps",
        "service.connections_opened",
        "service.connections_closed",
        "service.slack_images_built",
        "service.slack_image_hits",
        "durability.enabled",
        "durability.fsync",
        "durability.wal_records",
        "durability.wal_bytes",
        "durability.fsyncs",
        "durability.wal_append_failures",
        "durability.checkpoints_written",
        "durability.checkpoint_failures",
        "durability.last_checkpoint_epoch",
        "durability.sync_wait_us",
        "durability.checkpoint_inflight",
        "durability.checkpoints_superseded",
        "durability.wal_segments",
        "durability.last_checkpoint_ms",
        "durability.fdatasync_p50_us",
        "durability.fdatasync_p99_us",
        "durability.fdatasync_max_us",
        "latency_us.ping.p50",
        "latency_us.ping.p99",
        "latency_us.ping.max",
        "latency_us.stats.p50",
        "latency_us.stats.p99",
        "latency_us.stats.max",
        "latency_us.report_slack.p50",
        "latency_us.report_slack.p99",
        "latency_us.report_slack.max",
        "latency_us.report_at.p50",
        "latency_us.report_at.p99",
        "latency_us.report_at.max",
        "latency_us.perf_report.p50",
        "latency_us.perf_report.p99",
        "latency_us.perf_report.max",
        "latency_us.incidents.p50",
        "latency_us.incidents.p99",
        "latency_us.incidents.max",
        "latency_us.journal.p50",
        "latency_us.journal.p99",
        "latency_us.journal.max",
        "latency_us.update.p50",
        "latency_us.update.p99",
        "latency_us.update.max",
        "latency_us.propagate.p50",
        "latency_us.propagate.p99",
        "latency_us.propagate.max",
        "latency_us.batch.p50",
        "latency_us.batch.p99",
        "latency_us.batch.max",
        "latency_us.gradient.p50",
        "latency_us.gradient.p99",
        "latency_us.gradient.max",
        "latency_us.shutdown.p50",
        "latency_us.shutdown.p99",
        "latency_us.shutdown.max",
        "latency_us.debug_stall.p50",
        "latency_us.debug_stall.p99",
        "latency_us.debug_stall.max",
        "latency_us.debug_panic.p50",
        "latency_us.debug_panic.p99",
        "latency_us.debug_panic.max",
        "service_incidents",
    ];
    let dir = std::env::temp_dir().join(format!("insta-stats-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (server, _) = Server::with_durability(
        build_engine(29, 4),
        ServeConfig::default(),
        DurabilityConfig::new(&dir),
    )
    .unwrap();
    let (mut cl, h) = connect(&server);
    let up = cl
        .call(Op::Update, None, delta_params(1, 20.0, 2.0))
        .unwrap();
    assert!(up.ok, "{:?}", up.error);
    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    let mut paths = Vec::new();
    key_paths(&stats.result, "", &mut paths);
    assert_eq!(paths, LAYOUT);
    let durability = stats.result.field("durability").unwrap();
    assert_eq!(durability.get::<u64>("wal_records").unwrap(), 1);
    drop(cl);
    h.join().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
}

/// One request on a fresh connection, and its reply frame byte for byte.
fn reply_bytes(server: &Server, body: &str) -> Vec<u8> {
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let srv = server.clone();
    let h = std::thread::spawn(move || {
        let r = theirs.try_clone().expect("clone server half");
        srv.handle_connection(r, theirs);
    });
    write_frame(&mut &ours, body).expect("request written");
    let reply = read_frame(&mut BufReader::new(&ours), 64 << 20).expect("reply frame");
    drop(ours);
    h.join().unwrap();
    reply
}

/// The `gradient` op's numbers are a twin's `propagate` + `forward_lse` +
/// `backward_tns` gradients, bit for bit, and asking for them moves
/// nothing: a commit and a read afterwards reply with the same bytes as a
/// daemon that never asked.
#[test]
fn gradient_replies_equal_a_twins_and_move_no_later_commit() {
    let asked = Server::new(build_engine(36, 4), ServeConfig::default());
    let quiet = Server::new(build_engine(36, 4), ServeConfig::default());
    let request = |id: u64, op: &str, params: Json| {
        obj([
            ("id", id.to_json()),
            ("op", Json::Str(op.into())),
            ("params", params),
        ])
        .to_string()
    };
    // A slow arc, so that some endpoints violate and steer the gradients.
    let slow = request(8, "update", delta_params(3, 900.0, 9.0));
    assert_eq!(reply_bytes(&asked, &slow), reply_bytes(&quiet, &slow));
    let mut twin = build_engine(36, 4);
    let delta = ArcDelta {
        arc: 3,
        mean: [900.0; 2],
        sigma: [9.0; 2],
    };
    assert!(twin.update_timing(&[delta]).unwrap().n_violations > 0);
    twin.propagate();
    twin.forward_lse();
    twin.backward_tns();
    let want: Vec<u64> = twin.arc_gradients().iter().map(|g| g.to_bits()).collect();

    let (mut cl, h) = connect(&asked);
    let arcs = Json::Arr((0..want.len() as u64).map(|a| a.to_json()).collect());
    let g = cl.call(Op::Gradient, None, obj([("arcs", arcs)])).unwrap();
    assert!(g.ok, "{:?}", g.error);
    assert_eq!(g.result.get::<u64>("n_arcs").unwrap(), want.len() as u64);
    let got: Vec<u64> = g
        .result
        .field("gradients")
        .and_then(Json::as_arr)
        .expect("gradients")
        .iter()
        .map(|j| j.as_f64().expect("number").to_bits())
        .collect();
    assert_eq!(got, want, "the reply differs from the twin's gradients");
    assert!(
        want.iter().any(|&g| f64::from_bits(g) != 0.0),
        "fixture: some arc steers TNS"
    );
    drop(cl);
    h.join().unwrap();

    for body in [
        request(9, "update", delta_params(3, 25.0, 2.5)),
        request(10, "report_slack", Json::Null),
    ] {
        assert_eq!(
            reply_bytes(&asked, &body),
            reply_bytes(&quiet, &body),
            "{body}"
        );
    }
}

/// Runs `serve_tcp` on a loopback port.
fn tcp_daemon(server: &Server) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = server.clone();
    (addr, std::thread::spawn(move || srv.serve_tcp(listener)))
}

/// A TCP client whose reads give up after `secs`, so a daemon that never
/// answers fails the test instead of hanging it.
fn tcp_client(addr: SocketAddr, secs: u64) -> Client<TcpStream, TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(secs)))
        .unwrap();
    Client::new(stream.try_clone().unwrap(), stream)
}

/// The daemon serves 64 TCP connections at once. One more gets a single
/// typed `overloaded` frame and is closed; once a held connection ends, a
/// new one is served again; and after shutdown every connection opened is
/// closed.
#[test]
fn tcp_connections_past_the_cap_get_one_overloaded_frame() {
    let server = Server::new(build_engine(37, 4), ServeConfig::default());
    let (addr, accept_loop) = tcp_daemon(&server);
    let mut held: Vec<_> = (0..64)
        .map(|_| {
            let mut cl = tcp_client(addr, 10);
            assert!(cl.call(Op::Ping, None, Json::Null).unwrap().ok);
            cl
        })
        .collect();

    let extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut r = BufReader::new(&extra);
    let frame = read_frame(&mut r, 1 << 20).expect("one reply frame, unasked");
    let reply = parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert!(!reply.get::<bool>("ok").unwrap());
    let error = reply.field("error").unwrap();
    assert_eq!(error.get::<String>("code").unwrap(), "overloaded");
    assert!(
        matches!(read_frame(&mut r, 1 << 20), Err(FrameError::Eof)),
        "then closed"
    );
    assert!(server.counters().rejected_overload.load(Ordering::Relaxed) >= 1);

    drop(held.pop());
    let served = (0..100).any(|_| {
        let mut cl = tcp_client(addr, 10);
        let ok = cl.call(Op::Ping, None, Json::Null).is_ok_and(|r| r.ok);
        if !ok {
            std::thread::sleep(Duration::from_millis(20));
        }
        ok
    });
    assert!(served, "a freed slot serves a new connection");

    server.shutdown_token().cancel();
    accept_loop
        .join()
        .unwrap()
        .expect("accept loop exits cleanly");
    let c = server.counters();
    let opened = c.connections_opened.load(Ordering::Relaxed);
    assert_eq!(c.connections_closed.load(Ordering::Relaxed), opened);
    drop(held);
}

/// A connection that sends nothing is closed after the 5 s idle timeout,
/// one still open when shutdown fires within a read poll, and a client
/// that writes its frame in pieces, pausing longer than a read poll, keeps
/// frame sync. Afterwards every connection opened is closed.
#[test]
fn tcp_connections_close_when_idle_or_at_shutdown_and_slow_writers_keep_sync() {
    let server = Server::new(build_engine(38, 4), ServeConfig::default());
    let (addr, accept_loop) = tcp_daemon(&server);

    let body = r#"{"id":1,"op":"ping"}"#;
    let frame = format!("{}\n{body}", body.len());
    let mut socket = TcpStream::connect(addr).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for piece in frame.as_bytes().chunks(6) {
        socket.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    let pong = read_frame(&mut BufReader::new(&socket), 1 << 20).expect("a reply");
    assert!(std::str::from_utf8(&pong)
        .unwrap()
        .contains("\"pong\":true"));

    let t = Instant::now();
    let mut byte = [0u8; 1];
    let n = (&socket)
        .read(&mut byte)
        .expect("closed by the daemon, not timed out");
    assert_eq!(n, 0, "an idle connection ends");
    let idle = t.elapsed();
    assert!(
        idle > Duration::from_secs(4) && idle < Duration::from_secs(8),
        "{idle:?}"
    );

    // One connection between two requests, one that never sent a byte.
    let served = TcpStream::connect(addr).unwrap();
    served
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut cl = Client::new(served.try_clone().unwrap(), served.try_clone().unwrap());
    assert!(cl.call(Op::Ping, None, Json::Null).unwrap().ok);
    let silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    server.shutdown_token().cancel();
    for mut conn in [served, silent] {
        assert_eq!(conn.read(&mut byte).expect("closed at shutdown"), 0);
    }
    assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
    accept_loop
        .join()
        .unwrap()
        .expect("accept loop exits cleanly");
    let c = server.counters();
    let opened = c.connections_opened.load(Ordering::Relaxed);
    assert_eq!(opened, 3);
    assert_eq!(c.connections_closed.load(Ordering::Relaxed), opened);
}

/// The idle clock runs inside a frame too: 64 connections that send one
/// header byte and then nothing fill the cap, are closed after the 5 s
/// idle timeout, and a new client is then served.
#[test]
fn tcp_connections_silent_inside_a_frame_close_and_free_the_cap() {
    let server = Server::new(build_engine(39, 4), ServeConfig::default());
    let (addr, accept_loop) = tcp_daemon(&server);
    let t = Instant::now();
    let stalled: Vec<TcpStream> = (0..64)
        .map(|_| {
            let mut socket = TcpStream::connect(addr).unwrap();
            socket
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            socket.write_all(b"2").unwrap();
            socket
        })
        .collect();
    let mut extra = tcp_client(addr, 10);
    let refused = extra.read_response().expect("one reply frame, unasked");
    assert_eq!(refused.code(), Some("overloaded"), "the cap is full");

    // The cut header may be answered with a `protocol` frame; then EOF.
    for mut socket in stalled {
        socket
            .read_to_end(&mut Vec::new())
            .expect("closed by the daemon, not timed out");
    }
    let idle = t.elapsed();
    assert!(
        idle > Duration::from_secs(4) && idle < Duration::from_secs(8),
        "{idle:?}"
    );
    let served = (0..100).any(|_| {
        let mut cl = tcp_client(addr, 10);
        let ok = cl.call(Op::Ping, None, Json::Null).is_ok_and(|r| r.ok);
        if !ok {
            std::thread::sleep(Duration::from_millis(20));
        }
        ok
    });
    assert!(served, "the freed cap serves a new connection");

    server.shutdown_token().cancel();
    accept_loop
        .join()
        .unwrap()
        .expect("accept loop exits cleanly");
    let c = server.counters();
    let opened = c.connections_opened.load(Ordering::Relaxed);
    assert_eq!(c.connections_closed.load(Ordering::Relaxed), opened);
}

#[test]
fn shutdown_is_acknowledged_then_connections_wind_down() {
    let server = Server::new(build_engine(27, 4), ServeConfig::default());
    let (mut cl, h) = connect(&server);
    let bye = cl.call(Op::Shutdown, None, Json::Null).unwrap();
    assert!(bye.ok);
    assert!(server.shutdown_token().is_cancelled());
    // The acknowledging connection closes right after the reply.
    assert!(cl.call(Op::Ping, None, Json::Null).is_err());
    h.join().unwrap();
    // New connections are refused with a typed error or wound down.
    let (mut late, h2) = connect(&server);
    match late.call(Op::Ping, None, Json::Null) {
        Ok(resp) => assert_eq!(resp.code(), Some("shutting_down")),
        Err(_) => {} // loop observed the token before reading
    }
    drop(late);
    h2.join().unwrap();
}

/// Regression: a `shutdown` request must wind down the TCP accept loop
/// on its own — with a blocking `incoming()` the daemon stayed pinned
/// until one more connection happened to arrive.
#[test]
fn tcp_accept_loop_unblocks_on_shutdown() {
    let server = Server::new(build_engine(29, 4), ServeConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = server.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let r = srv.serve_tcp(listener);
        let _ = tx.send(r);
    });

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut cl = insta_serve::Client::new(stream.try_clone().unwrap(), stream);
    let pong = cl.call(Op::Ping, None, Json::Null).unwrap();
    assert!(pong.ok);
    let bye = cl.call(Op::Shutdown, None, Json::Null).unwrap();
    assert!(bye.ok);

    // No further connection arrives: the accept loop must notice the
    // cancelled token by itself.
    rx.recv_timeout(std::time::Duration::from_secs(5))
        .expect("accept loop must exit after shutdown without another connection")
        .expect("accept loop exits cleanly");
}

/// Regression: the TCP transport stalled ~44 ms per direction. A frame
/// left as a header write then a body write on a socket without
/// `TCP_NODELAY`, so Nagle's algorithm held the body back until the peer's
/// delayed ACK of the header. A frame is now one write (and accepted
/// sockets are nodelay): a round trip over loopback takes microseconds.
#[test]
fn tcp_round_trips_do_not_wait_for_delayed_acks() {
    let server = Server::new(build_engine(33, 4), ServeConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = server.clone();
    let accept_loop = std::thread::spawn(move || srv.serve_tcp(listener));

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut cl = insta_serve::Client::new(stream.try_clone().unwrap(), stream);
    let mut ms: Vec<f64> = (0..50)
        .map(|_| {
            let t = std::time::Instant::now();
            assert!(cl.call(Op::Ping, None, Json::Null).unwrap().ok);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    assert!(
        ms[25] < 5.0,
        "ping p50 over loopback TCP is {:.3} ms (p10 {:.3}, p90 {:.3})",
        ms[25],
        ms[5],
        ms[45]
    );

    assert!(cl.call(Op::Shutdown, None, Json::Null).unwrap().ok);
    accept_loop.join().unwrap().expect("accept loop exits cleanly");
}

/// Regression: `Client::send_raw` must put invalid UTF-8 on the wire
/// verbatim (it used to silently send an empty frame), and the daemon
/// must answer it with a typed `protocol` error while keeping frame sync.
#[test]
fn invalid_utf8_frame_body_is_rejected_typed_and_connection_survives() {
    let server = Server::new(build_engine(30, 4), ServeConfig::default());
    let (mut cl, h) = connect(&server);

    cl.send_raw(&[0xFF, 0xFE, b'{', 0x80, b'}']).unwrap();
    let resp = cl.read_response().unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.code(), Some("protocol"), "{:?}", resp.error);

    // The length claim was true, so frame sync survived: the same
    // connection keeps working.
    let pong = cl.call(Op::Ping, None, Json::Null).unwrap();
    assert!(pong.ok);

    drop(cl);
    h.join().unwrap();
}

#[test]
fn debug_ops_are_refused_unless_enabled() {
    let server = Server::new(build_engine(28, 4), ServeConfig::default());
    let (mut cl, h) = connect(&server);
    let r = cl.call(Op::DebugPanic, None, Json::Null).unwrap();
    assert_eq!(r.code(), Some("bad_request"));
    drop(cl);
    h.join().unwrap();
}

#[test]
fn mcmm_batch_serves_scenario_objects_and_merged_view_bit_exactly() {
    use insta_engine::{CornerTransform, ModeMask, Scenario};

    let server = Server::new(build_engine(31, 8), ServeConfig::default());
    let (mut cl, h) = connect(&server);

    // 2 corners (identity + a slow derate) × 2 modes (all endpoints /
    // endpoint 0 excluded), as wire scenario objects.
    let corner_json = |slow: bool| {
        if slow {
            obj([
                ("mean_scale", 1.08_f64.to_json()),
                ("sigma_scale", 1.2_f64.to_json()),
            ])
        } else {
            obj([("mean_scale", 1.0_f64.to_json())])
        }
    };
    let mode_json = |masked: bool| {
        let disabled = if masked { vec![0_u64.to_json()] } else { vec![] };
        obj([("disabled", Json::Arr(disabled))])
    };
    let scenarios: Vec<Json> = [(false, false), (false, true), (true, false), (true, true)]
        .iter()
        .map(|&(slow, masked)| {
            obj([("corner", corner_json(slow)), ("mode", mode_json(masked))])
        })
        .collect();
    let rep = cl
        .call(
            Op::Batch,
            None,
            obj([
                ("scenarios", Json::Arr(scenarios)),
                ("merged", Json::Bool(true)),
            ]),
        )
        .unwrap();
    assert!(rep.ok, "mcmm batch failed: {:?}", rep.error);

    // The twin: the same sweep run directly on an identical engine.
    let mut twin = build_engine(31, 8);
    let sweep: Vec<Scenario> = [(false, false), (false, true), (true, false), (true, true)]
        .iter()
        .map(|&(slow, masked)| {
            let c = if slow {
                CornerTransform::scale(1.08, 1.2)
            } else {
                CornerTransform::IDENTITY
            };
            let m = ModeMask::disabling(if masked { vec![0] } else { vec![] });
            Scenario::default().with_corner(c).with_mode(m)
        })
        .collect();
    let want = twin.evaluate_mcmm(&sweep);

    let rows = rep.result.field("scenarios").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 4);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.get::<u64>("scenario").unwrap(), i as u64);
        assert!(row.get::<bool>("ok").unwrap());
        let wr = want.scenarios[i].outcome.as_ref().expect("valid scenario");
        // Bit-exact over the wire: shortest round-trip f64 formatting.
        assert_eq!(
            row.get::<f64>("wns_ps").unwrap().to_bits(),
            wr.wns_ps.to_bits(),
            "scenario {i} wns"
        );
        assert_eq!(
            row.get::<f64>("tns_ps").unwrap().to_bits(),
            wr.tns_ps.to_bits(),
            "scenario {i} tns"
        );
    }
    let merged = rep.result.field("merged").unwrap();
    assert_eq!(
        merged.get::<f64>("wns_ps").unwrap().to_bits(),
        want.merged_wns_ps.to_bits()
    );
    assert_eq!(
        merged.get::<f64>("tns_ps").unwrap().to_bits(),
        want.merged_tns_ps.to_bits()
    );
    assert_eq!(
        merged.get::<u64>("n_violations").unwrap(),
        want.merged_violations as u64
    );

    // A generation-1 bare delta-array batch is still served unchanged —
    // no `merged` object appears unless asked for.
    let legacy = cl
        .call(
            Op::Batch,
            None,
            obj([("scenarios", Json::Arr(vec![Json::Arr(vec![])]))]),
        )
        .unwrap();
    assert!(legacy.ok, "legacy batch failed: {:?}", legacy.error);
    assert!(legacy.result.field("merged").is_err());

    drop(cl);
    h.join().unwrap();
}

/// A mode index past the last endpoint disables nothing, so the daemon
/// drops it before it builds the mask: `1e18` would otherwise size the
/// mask's bitset at ~1.25·10¹⁷ bytes, and a failed allocation aborts the
/// process, past the connection supervisor. The reply keeps the bits of
/// the same batch without that index, and the daemon serves on.
#[test]
fn a_mode_index_past_the_endpoints_disables_nothing_and_allocates_nothing() {
    let server = Server::new(build_engine(33, 8), ServeConfig::default());
    let batch = |disabled: &str| {
        format!(
            r#"{{"id":1,"op":"batch","params":{{"merged":true,"scenarios":[{{"mode":{{"disabled":[{disabled}]}}}}]}}}}"#
        )
    };
    let far = reply_bytes(&server, &batch("1e18, 0"));
    assert_eq!(far, reply_bytes(&server, &batch("0")));
    let text = String::from_utf8(far).expect("utf-8 reply");
    assert!(text.contains(r#""ok":true"#), "{text}");
    let pong = reply_bytes(&server, r#"{"id":2,"op":"ping","params":null}"#);
    let pong = String::from_utf8(pong).expect("utf-8 reply");
    assert!(pong.contains(r#""pong":true"#), "{pong}");
}

/// One request whose params are `base` plus, when given, `param: value`.
fn call_with(
    cl: &mut Conn,
    op: Op,
    base: &[(&'static str, Json)],
    param: &'static str,
    value: Option<Json>,
) -> insta_serve::Response {
    let mut params = base.to_vec();
    params.extend(value.map(|v| (param, v)));
    cl.call(op, None, obj(params)).expect("a reply")
}

/// A `bad_request` whose message begins with the param's name.
fn assert_refused_by_name(reply: &insta_serve::Response, param: &str, case: &str) {
    assert_eq!(reply.code(), Some("bad_request"), "{case}: {:?}", reply.error);
    let message = &reply.error.as_ref().expect("an error").1;
    assert!(message.starts_with(&format!("{param}: ")), "{case}: {message}");
}

/// The protocol's params rule, param by param for every op that defines
/// params: an absent param takes its default — the reply equals the one
/// to the default spelled out — or, when it is required, is refused; a
/// value of the wrong type or range is a `bad_request` whose message
/// names the param. Among the refused values are those the daemon once
/// read as their default (`min_epoch` `"1"`, `-1`, `1.5`, `merged: 1`, the
/// scenarios `5` and `null`, `ms: "x"`).
#[test]
fn every_param_defaults_when_absent_and_is_refused_by_name_when_malformed() {
    let cfg = ServeConfig {
        enable_debug_ops: true,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(37, 4), cfg);
    let n_ep = server.snapshot().num_endpoints() as u64;
    let (mut cl, h) = connect(&server);
    let (num, text, list) = (Json::Num, |s: &str| Json::Str(s.into()), Json::Arr);
    let one = |j: Json| Json::Arr(vec![j]);
    let delta = ArcDelta {
        arc: 0,
        mean: [40.0; 2],
        sigma: [4.0; 2],
    }
    .to_json();
    let every_endpoint = (0..n_ep).collect::<Vec<_>>().to_json();
    let a_batch = [("scenarios", one(one(delta)))];
    let node_0 = [("node", num(0.0))];
    let corner = |c: Json| one(obj([("corner", c)]));
    let mode = |disabled: Json| one(obj([("mode", obj([("disabled", disabled)]))]));
    // (op, params every case carries, the param, its default spelled out
    // — `None` when it is required or no value spells it —, wrong values)
    type Case<'a> = (Op, &'a [(&'static str, Json)], &'static str, Option<Json>, Vec<Json>);
    let table: Vec<Case> = vec![
        (
            Op::ReportSlack,
            &[],
            "min_epoch",
            Some(num(0.0)),
            vec![text("1"), num(-1.0), num(1.5), Json::Null, Json::Bool(true)],
        ),
        (
            Op::ReportSlack,
            &[],
            "endpoints",
            Some(every_endpoint),
            vec![num(5.0), text("0"), one(num(1.5)), one(num(-1.0)), one(Json::Null), obj([])],
        ),
        (
            Op::ReportAt,
            &[],
            "node",
            None,
            vec![text("0"), num(-1.0), num(1.5), num(4_294_967_296.0), Json::Null],
        ),
        (
            Op::ReportAt,
            &node_0,
            "rf",
            Some(num(0.0)),
            vec![num(2.0), text("0"), num(0.5), num(-1.0)],
        ),
        (
            Op::Update,
            &[],
            "deltas",
            None,
            vec![num(5.0), obj([]), one(num(5.0)), one(obj([("arc", num(0.0))]))],
        ),
        (
            Op::Batch,
            &[],
            "scenarios",
            None,
            vec![
                num(5.0),
                one(num(5.0)),
                one(Json::Null),
                one(text("x")),
                corner(num(5.0)),
                corner(obj([("mean_scale", text("x"))])),
                mode(one(num(1.5))),
                mode(num(0.0)),
                one(obj([("deltas", num(0.0))])),
                list(vec![list(vec![]); 65]),
            ],
        ),
        (
            Op::Batch,
            &a_batch,
            "merged",
            Some(Json::Bool(false)),
            vec![num(1.0), text("true"), Json::Null],
        ),
        (Op::Gradient, &[], "arcs", None, vec![num(5.0), one(num(1.5)), one(text("0"))]),
        (Op::DebugStall, &[], "ms", Some(num(10.0)), vec![text("x"), num(-1.0), num(1.5)]),
    ];
    for (op, base, param, default, wrong) in table {
        let case = format!("{} {param}", op.name());
        let absent = call_with(&mut cl, op, base, param, None);
        match (default, param) {
            (Some(value), _) => {
                let spelled = call_with(&mut cl, op, base, param, Some(value));
                assert!(absent.ok, "{case} absent: {:?}", absent.error);
                assert_eq!(absent.result, spelled.result, "{case}: absent is the default");
            }
            (None, "arcs") => {
                assert!(absent.ok && absent.result.field("l1").is_ok(), "{case}: a summary");
            }
            _ => assert_refused_by_name(&absent, param, &format!("{case} absent")),
        }
        for value in wrong {
            let reply = call_with(&mut cl, op, base, param, Some(value.clone()));
            assert_refused_by_name(&reply, param, &format!("{case} = {value}"));
        }
    }

    // A `params` that is no object, for each op that defines params; keys
    // an op does not define are ignored, and so is the `params` of an op
    // that defines none.
    let ops = [Op::ReportSlack, Op::ReportAt, Op::Update, Op::Batch, Op::Gradient, Op::DebugStall];
    for op in ops {
        for params in [text("x"), num(5.0), list(vec![]), Json::Bool(true)] {
            let reply = cl.call(op, None, params.clone()).expect("a reply");
            assert_refused_by_name(&reply, "params", &format!("{} params {params}", op.name()));
        }
    }
    let bare = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    let extra = cl.call(Op::ReportSlack, None, obj([("zzz", num(1.0))])).unwrap();
    assert_eq!(bare.result, extra.result, "an unknown key is ignored");
    assert!(cl.call(Op::Ping, None, text("x")).unwrap().ok);

    // What only the engine can refuse: an index past its endpoints or arcs.
    let past = cl.call(Op::ReportSlack, None, obj([("endpoints", one(num(n_ep as f64)))]));
    assert_eq!(past.unwrap().code(), Some("bad_request"));
    let past = cl.call(Op::Gradient, None, obj([("arcs", one(num(1e9)))]));
    assert_eq!(past.unwrap().code(), Some("bad_request"));
    assert_eq!(server.counters().panics_isolated.load(Ordering::Relaxed), 0);
    assert_eq!(server.snapshot().epoch(), 0, "no refused update committed");
    drop(cl);
    h.join().unwrap();
}
