//! The chaos gate: a deterministic protocol-fault storm against a live
//! daemon. For every [`ProtocolFault`] class × case the daemon must
//! neither crash nor hang, every failed request must yield a *typed*
//! error when a reply is possible, connections must survive exactly the
//! classes that keep frame sync, and — the transactional payoff — the
//! writer's next commit after the storm must be bit-identical to a
//! fault-free run.

mod common;

use common::{build_engine, connect, deltas_params, slack_bits};
use insta_refsta::eco::ArcDelta;
use insta_serve::protocol::{self, Op, Request};
use insta_serve::{ServeConfig, Server};
use insta_support::fault::{FaultPlan, ProtocolFault};
use insta_support::json::{obj, Json, ToJson};
use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;

const SEED: u64 = 41;
const K: usize = 8;
const CASES: u64 = 4;

/// A well-formed `report_slack` frame to corrupt.
fn clean_frame() -> Vec<u8> {
    let body = Request {
        id: 7,
        op: Op::ReportSlack,
        deadline_ms: None,
        version: None,
        params: Json::Null,
    }
    .encode();
    let mut f = format!("{}\n", body.len()).into_bytes();
    f.extend_from_slice(body.as_bytes());
    f
}

fn update_params() -> Json {
    deltas_params(&[ArcDelta {
        arc: 0,
        mean: [35.0; 2],
        sigma: [3.5; 2],
    }])
}

/// Raw socket pair against the daemon, for episodes that need direct
/// byte-level and shutdown control.
fn raw_connect(server: &Server) -> (UnixStream, std::thread::JoinHandle<()>) {
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let srv = server.clone();
    let h = std::thread::spawn(move || {
        let r = theirs.try_clone().expect("clone");
        srv.handle_connection(r, theirs);
    });
    (ours, h)
}

fn read_reply(sock: &UnixStream) -> Result<Json, String> {
    let mut r = std::io::BufReader::new(sock.try_clone().expect("clone"));
    let body = protocol::read_frame(&mut r, 64 << 20).map_err(|e| e.to_string())?;
    insta_support::json::parse(std::str::from_utf8(&body).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())
}

#[test]
fn protocol_fault_storm_never_crashes_hangs_or_corrupts_the_writer() {
    let plan = FaultPlan::new(0x5E27E);
    let cfg = ServeConfig {
        enable_debug_ops: true,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(SEED, K), cfg);

    // Serial fault-free ground truth: the storm must not perturb it.
    let truth0: Vec<u64> = server
        .snapshot()
        .report()
        .unwrap()
        .slacks
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let mut twin = build_engine(SEED, K);
    let truth1: Vec<u64> = twin
        .update_timing(&[insta_refsta::eco::ArcDelta {
            arc: 0,
            mean: [35.0; 2],
            sigma: [3.5; 2],
        }])
        .expect("twin update")
        .slacks
        .iter()
        .map(|s| s.to_bits())
        .collect();

    let mut joins = Vec::new();
    for fault in ProtocolFault::ALL {
        for case in 0..CASES {
            let wire = plan.corrupt_frame(case, fault, &clean_frame());
            match fault {
                ProtocolFault::GarbageJson => {
                    // Length claim still true → frame sync survives: a
                    // typed reply arrives and the connection stays up.
                    let (mut sock, h) = raw_connect(&server);
                    sock.write_all(&wire).expect("send garbage");
                    sock.flush().unwrap();
                    let reply = read_reply(&sock)
                        .unwrap_or_else(|e| panic!("{fault:?}/{case}: no reply: {e}"));
                    assert!(
                        reply.get::<bool>("ok").is_ok(),
                        "{fault:?}/{case}: untyped reply {reply}"
                    );
                    // Same connection, next frame: fully functional.
                    let mut cl = insta_serve::Client::new(
                        sock.try_clone().unwrap(),
                        sock.try_clone().unwrap(),
                    );
                    let pong = cl
                        .call(Op::Ping, None, Json::Null)
                        .unwrap_or_else(|e| panic!("{fault:?}/{case}: connection died: {e}"));
                    assert!(pong.ok);
                    drop(cl);
                    drop(sock);
                    joins.push(h);
                }
                ProtocolFault::OversizedLength | ProtocolFault::BadLengthHeader => {
                    // Frame sync lost: one typed protocol error, then the
                    // daemon closes the connection.
                    let (mut sock, h) = raw_connect(&server);
                    sock.write_all(&wire).expect("send bad header");
                    sock.flush().unwrap();
                    let reply = read_reply(&sock)
                        .unwrap_or_else(|e| panic!("{fault:?}/{case}: no reply: {e}"));
                    assert_eq!(
                        reply.get::<bool>("ok").unwrap(),
                        false,
                        "{fault:?}/{case}: must be an error"
                    );
                    assert_eq!(
                        reply
                            .field("error")
                            .unwrap()
                            .get::<String>("code")
                            .unwrap(),
                        "protocol",
                        "{fault:?}/{case}"
                    );
                    assert!(
                        read_reply(&sock).is_err(),
                        "{fault:?}/{case}: connection must close after lost sync"
                    );
                    drop(sock);
                    joins.push(h);
                }
                ProtocolFault::TruncatedFrame => {
                    // Header promises more bytes than arrive; closing our
                    // write half must unblock the daemon, not hang it.
                    let (mut sock, h) = raw_connect(&server);
                    sock.write_all(&wire).expect("send truncated");
                    sock.flush().unwrap();
                    sock.shutdown(Shutdown::Write).unwrap();
                    let _ = read_reply(&sock); // EOF — nobody to reply to
                    drop(sock);
                    h.join().expect("daemon thread must exit cleanly");
                }
                ProtocolFault::MidRequestDisconnect => {
                    // Vanish mid-frame without so much as a shutdown.
                    let (mut sock, h) = raw_connect(&server);
                    sock.write_all(&wire).expect("send partial");
                    sock.flush().unwrap();
                    drop(sock);
                    h.join().expect("daemon thread must exit cleanly");
                }
                ProtocolFault::SlowLoris => {
                    // The frame is clean but dribbles in: the daemon
                    // waits it out and answers normally.
                    let (mut sock, h) = raw_connect(&server);
                    let mid = wire.len() / 2;
                    sock.write_all(&wire[..mid]).unwrap();
                    sock.flush().unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(15));
                    sock.write_all(&wire[mid..]).unwrap();
                    sock.flush().unwrap();
                    let reply = read_reply(&sock)
                        .unwrap_or_else(|e| panic!("{fault:?}/{case}: no reply: {e}"));
                    assert_eq!(reply.get::<bool>("ok").unwrap(), true, "{fault:?}/{case}");
                    drop(sock);
                    joins.push(h);
                }
                ProtocolFault::DeadlineStorm => {
                    // A flood of impossible deadlines: each is a typed
                    // `deadline` failure, none wedges the daemon.
                    let (mut cl, h) = connect(&server);
                    for _ in 0..4 {
                        let r = cl
                            .call(
                                Op::ReportSlack,
                                Some(1),
                                obj([("min_epoch", 999_u64.to_json())]),
                            )
                            .unwrap_or_else(|e| panic!("{fault:?}/{case}: {e}"));
                        assert_eq!(r.code(), Some("deadline"), "{fault:?}/{case}: {:?}", r.error);
                    }
                    drop(cl);
                    joins.push(h);
                }
            }

            // Liveness probe after every episode: fresh connection, the
            // committed epoch still serves bit-exact.
            let (mut probe, ph) = connect(&server);
            let rep = probe
                .call(Op::ReportSlack, None, Json::Null)
                .unwrap_or_else(|e| panic!("{fault:?}/{case}: daemon dead after episode: {e}"));
            assert!(rep.ok, "{fault:?}/{case}: {:?}", rep.error);
            assert_eq!(
                slack_bits(&rep.result),
                truth0,
                "{fault:?}/{case}: storm must not perturb the committed epoch"
            );
            drop(probe);
            joins.push(ph);
        }
    }

    // A panic inside dispatch is isolated to its request: same
    // connection keeps working, and the supervisor counted it.
    let (mut cl, h) = connect(&server);
    let boom = cl.call(Op::DebugPanic, None, Json::Null).expect("reply");
    assert_eq!(boom.code(), Some("internal"), "{:?}", boom.error);
    let pong = cl.call(Op::Ping, None, Json::Null).expect("survives panic");
    assert!(pong.ok);
    assert!(server.counters().panics_isolated.load(Ordering::Relaxed) >= 1);

    // Every fault left a service-side incident trail.
    let inc = cl.call(Op::Incidents, None, Json::Null).unwrap();
    assert!(inc.result.get::<u64>("total").unwrap() > 0);

    // The payoff: the writer's next commit after the whole storm is
    // bit-identical to the fault-free twin — no half-committed state,
    // no drifted arrays.
    let up = cl.call(Op::Update, None, update_params()).unwrap();
    assert!(up.ok, "post-storm writer failed: {:?}", up.error);
    assert_eq!(up.result.get::<u64>("epoch").unwrap(), 1);
    let post = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert_eq!(
        slack_bits(&post.result),
        truth1,
        "post-storm commit diverged from the fault-free run"
    );

    drop(cl);
    h.join().unwrap();
    for j in joins {
        j.join().expect("connection thread");
    }
}
