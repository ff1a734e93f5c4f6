//! Crash-recovery chaos suite: the durability contract under simulated
//! power loss at every [`CrashPoint`], byte damage of every
//! [`DurabilityFault`] class, the startup edge paths, protocol version
//! gating, the publish-condvar wakeup, and a real `kill -9` against the
//! `insta-serve` binary.
//!
//! The contract everywhere: after recovery the engine's slacks are
//! **bit-identical** (`f64::to_bits`) to a crash-free twin that applied
//! exactly the durable commit prefix — torn tails surface as typed
//! incidents and are truncated, never silently replayed; uncommitted
//! writes disappear whole.
//!
//! Checkpoints are written by the durability layer's background thread.
//! Where a test's expectation depends on *which* checkpoints landed, the
//! storm waits for that thread after every commit
//! ([`insta_serve::Durability::wait_idle`]); the generated schedules at
//! the end leave the interleaving to chance on purpose.

mod common;

use common::{build_engine, connect, deltas_params, slack_bits, Conn};
use insta_engine::{InstaConfig, InstaEngine};
use insta_refsta::eco::ArcDelta;
use insta_serve::wal::{list_checkpoints, list_segments, scan_segment, segment_path};
use insta_serve::{
    recover, Client, Durability, DurabilityConfig, Op, Request, ServeConfig, Server,
    PROTOCOL_VERSION,
};
use insta_support::json::{obj, Json, ToJson};
use insta_support::{CrashPoint, CrashSwitch, DurabilityFault, FaultPlan};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const SEED: u64 = 31;
const K: usize = 8;

/// A fresh scratch directory under the system temp dir (unique per test
/// case; wiped before use so reruns start clean).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("insta-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic commit storm: op `i` is a propagate every third
/// commit and otherwise an update of a rotating arc — so replay exercises
/// both [`insta_engine::WriterOp`] variants.
fn storm_delta(i: u64) -> ArcDelta {
    ArcDelta {
        arc: (i % 3) as u32,
        mean: [40.0 + i as f64, 42.5 + i as f64],
        sigma: [4.0 + i as f64 / 8.0, 3.25],
    }
}

fn storm_request(i: u64) -> (Op, Json) {
    if i % 3 == 2 {
        return (Op::Propagate, Json::Null);
    }
    (Op::Update, deltas_params(&[storm_delta(i)]))
}

/// A crash-free twin: a fresh engine with the first `k` storm commits
/// applied through real sessions (exactly what recovery replays).
fn twin_after(k: u64) -> InstaEngine {
    let mut eng = build_engine(SEED, K);
    for i in 0..k {
        let mut s = eng.begin_session();
        if i % 3 == 2 {
            s.propagate().expect("twin propagate");
        } else {
            s.update_timing(&[storm_delta(i)]).expect("twin update");
        }
        s.commit().expect("twin commit");
    }
    eng
}

fn engine_bits(e: &InstaEngine) -> Vec<u64> {
    e.try_report()
        .map(|r| r.slacks.iter().map(|s| s.to_bits()).collect())
        .unwrap_or_default()
}

/// Waits for the server's background checkpoint writer, so the next
/// commit (or the assertions) see every checkpoint handed over so far on
/// disk — or abandoned, when the crash switch tripped in the writer.
fn settle(server: &Server) {
    server.durability().expect("durable server").wait_idle();
}

/// First epochs of the WAL segments in `dir`, in log order.
fn segment_names(dir: &Path) -> Vec<u64> {
    list_segments(dir).unwrap().iter().map(|s| s.0).collect()
}

/// The one segment of a directory whose log never rotated, with the
/// length of its written prefix (header + records).
fn only_segment(dir: &Path) -> (PathBuf, usize) {
    let segments = list_segments(dir).unwrap();
    assert_eq!(segments.len(), 1, "{segments:?}");
    let path = segments[0].1.clone();
    let scan = scan_segment(&path).unwrap();
    assert_eq!(scan.damage, None);
    (path, scan.valid_bytes as usize)
}

/// Name, size and CRC of every file in `dir`, sorted: two equal listings
/// mean nothing in the directory was touched.
fn dir_fingerprint(dir: &Path) -> Vec<(String, u64, u32)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                bytes.len() as u64,
                insta_support::hash::crc32(&bytes),
            )
        })
        .collect();
    out.sort();
    out
}

/// Runs `n` storm commits against a durable server in `dir`, stopping
/// early if an armed crash switch trips. Returns the server's last
/// acked epoch.
fn run_storm(
    server: &Server,
    n: u64,
    stop: impl Fn() -> bool,
) -> u64 {
    let (mut cl, h) = connect(server);
    let mut last_epoch = 0;
    for i in 0..n {
        let (op, params) = storm_request(i);
        let r = cl.call(op, None, params).unwrap();
        assert!(r.ok, "storm commit {i} failed: {:?}", r.error);
        last_epoch = r.result.get::<u64>("epoch").unwrap();
        if stop() {
            break;
        }
    }
    drop(cl);
    h.join().unwrap();
    last_epoch
}

#[test]
fn kill_at_every_crash_point_recovers_the_durable_prefix_bit_exactly() {
    const CRASH_AT: u64 = 3;
    for point in CrashPoint::ALL {
        let dir = scratch(&format!("crash-{point:?}"));
        let switch = CrashSwitch::new(point, CRASH_AT);
        let mut cfg = DurabilityConfig::new(&dir);
        // The cadence lands the checkpoint hand-over (and with it the
        // log rotation) exactly on the armed commit, so the rotation and
        // the three checkpoint crash points actually fire.
        cfg.checkpoint_every = CRASH_AT + 1;
        cfg.crash = Some(switch.clone());
        let (server, boot) =
            Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
        assert_eq!(boot.recovered_epoch, 0, "{point:?}: fresh dir must boot clean");
        assert!(boot.incidents.is_empty(), "{point:?}");

        run_storm(&server, 6, || {
            settle(&server);
            switch.is_tripped()
        });
        assert!(switch.is_tripped(), "{point:?}: the armed crash never fired");
        assert!(server.durability().unwrap().is_dead(), "{point:?}");
        drop(server);

        // What the platter must hold, per the crash-window semantics:
        // a commit vanishes whole before its append, survives whole
        // after it — and a rotation or checkpoint crash never loses or
        // doubles anything, because the WAL still covers the epochs.
        let durable = match point {
            CrashPoint::BeforeWalAppend | CrashPoint::MidWalAppend => CRASH_AT,
            _ => CRASH_AT + 1,
        };
        let mut recovered = build_engine(SEED, K);
        let rep = recover(&mut recovered, &DurabilityConfig::new(&dir)).unwrap();
        let twin = twin_after(durable);
        assert_eq!(rep.recovered_epoch, durable, "{point:?}");
        assert_eq!(recovered.epoch(), twin.epoch(), "{point:?}");
        assert_eq!(
            engine_bits(&recovered),
            engine_bits(&twin),
            "{point:?}: recovered slacks must be bit-identical to the crash-free twin"
        );

        let tmp_left = || {
            std::fs::read_dir(&dir).unwrap().any(|e| {
                let name = e.unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("checkpoint-") && name.ends_with(".tmp")
            })
        };
        match point {
            CrashPoint::BeforeWalAppend | CrashPoint::AfterWalAppend => {
                assert!(rep.incidents.is_empty(), "{point:?}: clean log, no incidents");
                assert!(!rep.wal_truncated, "{point:?}");
            }
            CrashPoint::MidWalAppend => {
                // The torn record is a typed incident and is physically
                // truncated — never silently replayed.
                assert!(rep.wal_truncated, "{point:?}");
                assert_eq!(rep.incidents.len(), 1, "{point:?}: {:?}", rep.incidents);
                assert!(rep.incidents[0].message.contains("truncated"), "{point:?}");
            }
            CrashPoint::MidRotation => {
                // The next segment is in place, stamped and empty; the one
                // before it still holds every record. Both are read, and
                // an empty stamped segment is a clean log, not damage.
                assert_eq!(segment_names(&dir), vec![1, durable + 1], "{point:?}");
                assert!(rep.incidents.is_empty(), "{point:?}: {:?}", rep.incidents);
                assert!(!rep.wal_truncated, "{point:?}");
                assert_eq!(rep.checkpoint_epoch, None, "{point:?}");
                assert_eq!(rep.replayed, durable, "{point:?}");
            }
            CrashPoint::MidCheckpointStream | CrashPoint::MidCheckpoint => {
                // The partial temp file — header not yet written, or
                // header written over a torn payload — is ignored; the
                // WAL carries all.
                assert!(rep.incidents.is_empty(), "{point:?}: {:?}", rep.incidents);
                assert_eq!(rep.checkpoint_epoch, None, "{point:?}");
                assert_eq!(rep.replayed, durable, "{point:?}");
                assert!(tmp_left(), "{point:?}: the partial checkpoint should be on disk");
            }
            CrashPoint::AfterCheckpointBeforeRetire => {
                // Checkpoint landed, the segment it covers never retired:
                // every record is subsumed and none may be double-replayed.
                assert_eq!(segment_names(&dir), vec![1, durable + 1], "{point:?}");
                assert_eq!(rep.checkpoint_epoch, Some(durable), "{point:?}");
                assert_eq!(rep.replayed, 0, "{point:?}: no double replay");
            }
        }

        // A second recovery over the (now repaired) artifacts is clean
        // and lands on the same epoch.
        let mut again = build_engine(SEED, K);
        let rep2 = recover(&mut again, &DurabilityConfig::new(&dir)).unwrap();
        assert!(rep2.incidents.is_empty(), "{point:?}: repair must be idempotent");
        assert_eq!(again.epoch(), durable, "{point:?}");

        // And the daemon picks the timeline up where the crash left it:
        // two more commits on the crashed directory, another restart.
        let (server, boot) = Server::with_durability(
            build_engine(SEED, K),
            ServeConfig::default(),
            DurabilityConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(boot.recovered_epoch, durable, "{point:?}");
        let (mut cl, h) = connect(&server);
        for i in durable..durable + 2 {
            let (op, params) = storm_request(i);
            let r = cl.call(op, None, params).unwrap();
            assert!(r.ok, "{point:?}: post-crash commit {i}: {:?}", r.error);
        }
        drop(cl);
        h.join().unwrap();
        drop(server);
        let mut resumed = build_engine(SEED, K);
        let rep3 = recover(&mut resumed, &DurabilityConfig::new(&dir)).unwrap();
        assert!(rep3.incidents.is_empty(), "{point:?}: {:?}", rep3.incidents);
        assert_eq!(rep3.recovered_epoch, durable + 2, "{point:?}");
        assert_eq!(
            engine_bits(&resumed),
            engine_bits(&twin_after(durable + 2)),
            "{point:?}: the resumed timeline must match its twin"
        );
    }
}

/// The graph arcs into nodes no endpoint sees, with one such node, found
/// by walking the exported fanin back from the endpoints of the design
/// [`build_engine`] builds.
fn dead_arcs() -> (Vec<u32>, u32) {
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};
    let design = generate_design(&GeneratorConfig::small("serve-test", SEED));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference STA");
    sta.full_update(&design);
    let init = sta.export_insta_init();
    let fanin = |v: usize| {
        let (first, end) = (init.fanin_start[v] as usize, init.fanin_start[v + 1] as usize);
        &init.fanin[first..end]
    };
    let mut live = vec![false; init.n_nodes];
    let mut stack: Vec<u32> = init.endpoints.iter().map(|e| e.node).collect();
    while let Some(v) = stack.pop() {
        if !std::mem::replace(&mut live[v as usize], true) {
            stack.extend(fanin(v as usize).iter().map(|a| a.parent));
        }
    }
    let dead: Vec<usize> = (0..init.n_nodes).filter(|&v| !live[v]).collect();
    let arcs = dead.iter().flat_map(|&v| fanin(v).iter().map(|a| a.source_arc)).collect();
    (arcs, *dead.first().expect("the generated design has dead logic") as u32)
}

/// A WAL and checkpoints that carry deltas on arcs into nodes no endpoint
/// sees replay like any other: dead-arc commits before the first
/// checkpoint and after it, then live-arc commits, a crash at every
/// [`CrashPoint`] on the last one — and the recovered slacks and durable
/// state equal a crash-free twin's on `to_bits`, while a restarted daemon
/// still answers `reached:false` on a dead node.
#[test]
fn dead_arc_deltas_in_the_wal_and_checkpoints_recover_bit_exactly() {
    const CRASH_AT: u64 = 5;
    let (dead, dead_node) = dead_arcs();
    assert!(dead.len() >= 4, "{} dead arcs", dead.len());
    // Commits 0-3 land on dead arcs, three of them under the checkpoint
    // of epoch 3 and one in the WAL after it; 4 and 5 on live ones.
    let commit = |i: u64| {
        let arc = if i < 4 { dead[i as usize * dead.len() / 4] } else { (i % 3) as u32 };
        let mean = 30.0 + 7.0 * i as f64;
        ArcDelta { arc, mean: [mean, mean + 2.5], sigma: [3.0, 3.5] }
    };
    let twin = |k: u64| {
        let mut eng = build_engine(SEED, K);
        for i in 0..k {
            let mut s = eng.begin_session();
            s.update_timing(&[commit(i)]).expect("twin update");
            s.commit().expect("twin commit");
        }
        eng
    };
    let durable_bytes = |e: &InstaEngine| insta_engine::EngineDurableState::capture(e).encode();
    let base = build_engine(SEED, K);
    assert_eq!(engine_bits(&twin(4)), engine_bits(&base), "dead arcs move no slack");
    assert_ne!(durable_bytes(&twin(4)), durable_bytes(&base), "but they are annotated");

    for point in CrashPoint::ALL {
        let dir = scratch(&format!("dead-arcs-{point:?}"));
        let switch = CrashSwitch::new(point, CRASH_AT);
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.checkpoint_every = 3;
        cfg.crash = Some(switch.clone());
        let (server, _) =
            Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
        let (mut cl, h) = connect(&server);
        for i in 0..=CRASH_AT {
            let reply = cl.call(Op::Update, None, deltas_params(&[commit(i)])).unwrap();
            settle(&server);
            // A simulated kill drops the disk writes, not the reply.
            assert!(reply.ok, "{point:?} commit {i}: {:?}", reply.error);
        }
        drop(cl);
        h.join().unwrap();
        assert!(switch.is_tripped(), "{point:?}: the armed crash never fired");
        drop(server);

        let durable = match point {
            CrashPoint::BeforeWalAppend | CrashPoint::MidWalAppend => CRASH_AT,
            _ => CRASH_AT + 1,
        };
        let mut recovered = build_engine(SEED, K);
        let rep = recover(&mut recovered, &DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(rep.recovered_epoch, durable, "{point:?}");
        if point == CrashPoint::AfterCheckpointBeforeRetire {
            assert_eq!((rep.checkpoint_epoch, rep.replayed), (Some(6), 0), "{point:?}");
        } else {
            // The dead-arc commit of epoch 4 is replayed from the WAL.
            assert_eq!(rep.checkpoint_epoch, Some(3), "{point:?}");
            assert_eq!(rep.replayed, durable - 3, "{point:?}");
        }
        let twin = twin(durable);
        assert_eq!(engine_bits(&recovered), engine_bits(&twin), "{point:?}");
        assert_eq!(durable_bytes(&recovered), durable_bytes(&twin), "{point:?}");

        let (server, _) = Server::with_durability(
            build_engine(SEED, K),
            ServeConfig::default(),
            DurabilityConfig::new(&dir),
        )
        .unwrap();
        let (mut cl, h) = connect(&server);
        for rf in [0u64, 1] {
            let params = obj([("node", dead_node.to_json()), ("rf", rf.to_json())]);
            let at = cl.call(Op::ReportAt, None, params).unwrap();
            assert_eq!(at.result.get::<bool>("reached"), Ok(false), "{point:?} rf {rf}");
        }
        drop(cl);
        h.join().unwrap();
    }
}

#[test]
fn damaged_wal_bytes_surface_typed_incidents_and_keep_the_valid_prefix() {
    const COMMITS: u64 = 5;
    // One pristine WAL holding the whole storm (checkpoints off).
    let master = scratch("fault-master");
    let mut cfg = DurabilityConfig::new(&master);
    cfg.checkpoint_every = 0;
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    run_storm(&server, COMMITS, || false);
    drop(server);
    // The faults aim at the end of what was *written* — where a torn
    // append or a short flush hits — not at the preallocated zeros after
    // it, which hold nothing to lose.
    let (segment, written) = only_segment(&master);
    let image = std::fs::read(&segment).unwrap();
    let pristine = &image[..written];

    let plan = FaultPlan::new(0xD00D);
    for (case, fault) in DurabilityFault::ALL
        .into_iter()
        .filter(|f| f.is_byte_level())
        .enumerate()
    {
        let dir = scratch(&format!("fault-{fault:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut corrupted = plan.corrupt_durable(case as u64, fault, pristine);
        assert_ne!(corrupted, pristine, "{fault:?} must change the bytes");
        // Pages that never reached the platter read back as the zeros
        // the segment was made of — except for the plain torn write, left
        // as a short file: the end of the file ends a log too.
        if fault != DurabilityFault::TornWrite {
            corrupted.resize(image.len(), 0);
        }
        std::fs::write(dir.join(segment.file_name().unwrap()), &corrupted).unwrap();

        let mut recovered = build_engine(SEED, K);
        let rep = recover(&mut recovered, &DurabilityConfig::new(&dir)).unwrap();
        assert!(rep.wal_truncated, "{fault:?}: damage must be truncated");
        assert_eq!(rep.incidents.len(), 1, "{fault:?}: {:?}", rep.incidents);
        assert_eq!(rep.incidents[0].category, "durability", "{fault:?}");
        assert!(
            rep.replayed < COMMITS,
            "{fault:?}: the damaged record must not replay"
        );
        // What survives is a valid prefix, bit-identical to its twin.
        let twin = twin_after(rep.replayed);
        assert_eq!(rep.recovered_epoch, rep.replayed, "{fault:?}");
        assert_eq!(recovered.epoch(), twin.epoch(), "{fault:?}");
        assert_eq!(engine_bits(&recovered), engine_bits(&twin), "{fault:?}");

        // The repaired log recovers cleanly the second time.
        let mut again = build_engine(SEED, K);
        let rep2 = recover(&mut again, &DurabilityConfig::new(&dir)).unwrap();
        assert!(rep2.incidents.is_empty(), "{fault:?}");
        assert!(!rep2.wal_truncated, "{fault:?}");
        assert_eq!(again.epoch(), recovered.epoch(), "{fault:?}");
    }
}

#[test]
fn stale_checkpoint_is_rejected_typed_and_wal_replay_rebuilds_from_genesis() {
    const COMMITS: u64 = 5;
    let dir = scratch("stale-ckpt");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.checkpoint_every = 0; // the WAL holds the full history
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    run_storm(&server, COMMITS, || false);
    drop(server);

    // Drop in a checkpoint from a *different design*: internally valid
    // (magic, CRC, framing all sound) but semantically stale —
    // DurabilityFault::StaleCheckpoint, constructed rather than
    // byte-corrupted.
    let foreign = build_engine(SEED + 900, K);
    let foreign_dir = scratch("stale-ckpt-foreign");
    let written = Durability::open(DurabilityConfig::new(&foreign_dir))
        .unwrap()
        .write_checkpoint(
            &insta_engine::EngineDurableState::capture(&foreign),
            &foreign.snapshot(),
        )
        .unwrap();
    assert_eq!(written, Some(0));
    std::fs::copy(
        &list_checkpoints(&foreign_dir).unwrap()[0].1,
        dir.join("checkpoint-00000000000000000003.ckpt"),
    )
    .unwrap();

    let mut recovered = build_engine(SEED, K);
    let rep = recover(&mut recovered, &DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(
        rep.checkpoint_epoch, None,
        "a stale checkpoint must never be accepted"
    );
    assert!(
        rep.incidents.iter().any(|i| i.message.contains("stale")),
        "the rejection must be typed: {:?}",
        rep.incidents
    );
    // Recovery fell back to replaying the WAL from genesis.
    assert_eq!(rep.replayed, COMMITS);
    let twin = twin_after(COMMITS);
    assert_eq!(recovered.epoch(), twin.epoch());
    assert_eq!(engine_bits(&recovered), engine_bits(&twin));
}

/// Regression: a replay gap used to stay in the log. The newest checkpoint
/// is rejected as stale after the segments it covered were retired, so the
/// records past it no longer chain onto the older checkpoint recovery falls
/// back to. Appends then continued *behind* those records, and every later
/// restart stopped at the same gap — before the commits acknowledged since.
/// The log is now cut at the first unreplayable record.
#[test]
fn a_replay_gap_is_cut_out_so_commits_after_it_survive_the_next_restart() {
    replay_gap_then_two_commits("replay-gap", false);
}

/// Regression: the segment that cut emptied kept its old, higher name
/// (`wal-5` after falling back to checkpoint 2). With checkpoints still on,
/// the rotation at epoch 4 asked for `wal-5` too — that same name — and
/// its rename replaced the active segment and the two fsynced records in
/// it, before the checkpoint that would have covered them was durable: a
/// crash while it streamed lost both acknowledged commits.
#[test]
fn a_segment_emptied_by_the_cut_is_renamed_so_no_rotation_replaces_it() {
    replay_gap_then_two_commits("replay-gap-rotation", true);
}

/// Checkpoints [4, 2] and segment [5]; checkpoint 4 goes stale, so the
/// restart falls back to 2 and meets record 5: a gap. Two more commits
/// are acknowledged — with `checkpoints_on`, under the same cadence, the
/// second one's checkpoint crashing mid-stream — and the next restart
/// must replay both.
fn replay_gap_then_two_commits(name: &str, checkpoints_on: bool) {
    let dir = scratch(name);
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.checkpoint_every = 2;
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    run_storm(&server, 5, || {
        settle(&server);
        false
    });
    drop(server);
    let kept: Vec<u64> = list_checkpoints(&dir).unwrap().iter().map(|c| c.0).collect();
    assert_eq!(kept, vec![4, 2]);
    assert_eq!(segment_names(&dir), vec![5], "records 1-4 are retired");

    // Checkpoint 4 goes stale (a foreign design's image under its name).
    let foreign = build_engine(SEED + 900, K);
    let foreign_dir = scratch(&format!("{name}-foreign"));
    Durability::open(DurabilityConfig::new(&foreign_dir))
        .unwrap()
        .write_checkpoint(
            &insta_engine::EngineDurableState::capture(&foreign),
            &foreign.snapshot(),
        )
        .unwrap();
    std::fs::copy(
        &list_checkpoints(&foreign_dir).unwrap()[0].1,
        &list_checkpoints(&dir).unwrap()[0].1,
    )
    .unwrap();

    // Restart: checkpoint 2, then record 5 — a gap. The stale image keeps
    // its name: checkpoints stay off, or the one at epoch 4 never lands.
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.checkpoint_every = if checkpoints_on { 2 } else { 0 };
    if checkpoints_on {
        cfg.crash = Some(CrashSwitch::new(CrashPoint::MidCheckpointStream, 1));
    }
    let (server, rep) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg.clone())
            .unwrap();
    assert_eq!((rep.checkpoint_epoch, rep.recovered_epoch), (Some(2), 2));
    assert!(rep.wal_truncated);
    let gaps = |rep: &insta_serve::RecoveryReport| {
        let hit = |i: &&insta_engine::ServiceIncident| i.message.contains("WAL replay gap");
        rep.incidents.iter().filter(hit).count()
    };
    assert_eq!(gaps(&rep), 1, "{:?}", rep.incidents);
    assert_eq!(
        segment_names(&dir),
        vec![3],
        "the emptied segment is named after the first record it may hold"
    );
    // Two more commits are acknowledged on the timeline being served.
    let (mut cl, h) = connect(&server);
    for i in 2..4 {
        let (op, params) = storm_request(i);
        let r = cl.call(op, None, params).unwrap();
        assert!(r.ok, "commit {i} failed: {:?}", r.error);
        assert_eq!(r.result.get::<u64>("epoch").unwrap(), i + 1);
    }
    drop(cl);
    h.join().unwrap();
    settle(&server);
    if let Some(switch) = &cfg.crash {
        assert!(switch.is_tripped(), "the checkpoint at epoch 4 never streamed");
    }
    drop(server);

    // The next restart replays both, bit-exactly, and meets no gap.
    let mut restarted = build_engine(SEED, K);
    let rep = recover(&mut restarted, &cfg).unwrap();
    assert_eq!((rep.checkpoint_epoch, rep.replayed), (Some(2), 2));
    assert_eq!(gaps(&rep), 0, "{:?}", rep.incidents);
    assert!(!rep.wal_truncated);
    assert_eq!(restarted.epoch(), 4);
    assert_eq!(engine_bits(&restarted), engine_bits(&twin_after(4)));
}

#[test]
fn fresh_missing_empty_and_zero_length_wal_startups_are_clean() {
    let cases: [(&str, fn(&PathBuf)); 5] = [
        ("edge-missing", |_dir| {}),
        ("edge-empty", |dir| std::fs::create_dir_all(dir).unwrap()),
        ("edge-zero-wal", |dir| {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(dir.join("wal.log"), b"").unwrap();
        }),
        // A segment that was named but never got a byte, and one that was
        // sized but never stamped: both are empty logs, not damage.
        ("edge-zero-segment", |dir| {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(segment_path(dir, 1), b"").unwrap();
        }),
        ("edge-unstamped-segment", |dir| {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(segment_path(dir, 1), vec![0u8; 8192]).unwrap();
        }),
    ];
    for (name, prep) in cases {
        let dir = scratch(name);
        prep(&dir);
        let (server, boot) = Server::with_durability(
            build_engine(SEED, K),
            ServeConfig::default(),
            DurabilityConfig::new(&dir),
        )
        .unwrap();
        assert!(boot.incidents.is_empty(), "{name}: {:?}", boot.incidents);
        assert_eq!(boot.recovered_epoch, 0, "{name}");
        assert_eq!(boot.checkpoint_epoch, None, "{name}");
        assert_eq!(boot.replayed, 0, "{name}");
        assert!(!boot.wal_truncated, "{name}");

        // The daemon is immediately serviceable and its first commit is
        // durable across a restart.
        let last = run_storm(&server, 1, || false);
        assert_eq!(last, 1, "{name}");
        drop(server);
        let mut restarted = build_engine(SEED, K);
        let rep = recover(&mut restarted, &DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(rep.recovered_epoch, 1, "{name}");
        assert_eq!(rep.replayed, 1, "{name}");
        assert_eq!(engine_bits(&restarted), engine_bits(&twin_after(1)), "{name}");
    }
}

#[test]
fn checkpoint_only_and_wal_only_directories_recover_bit_exactly() {
    // Checkpoint-only: every commit checkpoints (rotating the log and
    // retiring what it covers); then the WAL segments are deleted.
    let dir = scratch("ckpt-only");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.checkpoint_every = 1;
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    // Each checkpoint lands before the next commit, so none is superseded
    // in the mailbox.
    run_storm(&server, 3, || {
        settle(&server);
        false
    });
    drop(server);
    // Pruning kept the newest two checkpoints.
    let kept: Vec<u64> = insta_serve::wal::list_checkpoints(&dir)
        .unwrap()
        .into_iter()
        .map(|(e, _)| e)
        .collect();
    assert_eq!(kept, vec![3, 2]);
    // Every segment a checkpoint covers is gone; the one after the last
    // checkpoint is empty.
    assert_eq!(segment_names(&dir), vec![4]);
    std::fs::remove_file(segment_path(&dir, 4)).unwrap();

    let (server, rep) = Server::with_durability(
        build_engine(SEED, K),
        ServeConfig::default(),
        DurabilityConfig::new(&dir),
    )
    .unwrap();
    assert_eq!(rep.checkpoint_epoch, Some(3));
    assert_eq!(rep.replayed, 0);
    assert_eq!(rep.recovered_epoch, 3);
    assert!(rep.incidents.is_empty(), "{:?}", rep.incidents);
    // The served slacks match the twin over the real wire.
    let twin = twin_after(3);
    let golden: Vec<u64> = engine_bits(&twin);
    let (mut cl, h) = connect(&server);
    let r = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert_eq!(r.epoch, 3);
    assert_eq!(slack_bits(&r.result), golden);
    drop(cl);
    h.join().unwrap();
    drop(server);

    // WAL-only: checkpoints off, the whole history replays.
    let dir = scratch("wal-only");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.checkpoint_every = 0;
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    run_storm(&server, 4, || false);
    drop(server);
    assert!(insta_serve::wal::list_checkpoints(&dir).unwrap().is_empty());
    let mut restarted = build_engine(SEED, K);
    let rep = recover(&mut restarted, &DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(rep.checkpoint_epoch, None);
    assert_eq!(rep.replayed, 4);
    assert_eq!(rep.recovered_epoch, 4);
    assert_eq!(engine_bits(&restarted), engine_bits(&twin_after(4)));
}

#[test]
fn torn_tail_restart_seeds_the_incident_ring_and_serves_the_prefix() {
    let dir = scratch("torn-restart");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.checkpoint_every = 0;
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    run_storm(&server, 4, || false);
    drop(server);
    // Tear the tail: the last record loses its final 5 bytes (they read
    // back as the segment's zeros).
    let (wal, written) = only_segment(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[written - 5..written].fill(0);
    std::fs::write(&wal, &bytes).unwrap();

    let (server, rep) = Server::with_durability(
        build_engine(SEED, K),
        ServeConfig::default(),
        DurabilityConfig::new(&dir),
    )
    .unwrap();
    assert!(rep.wal_truncated);
    assert_eq!(rep.recovered_epoch, 3);

    let (mut cl, h) = connect(&server);
    // The recovery incident is visible in the service incident ring.
    let inc = cl.call(Op::Incidents, None, Json::Null).unwrap();
    let rows = inc.result.field("incidents").unwrap().as_arr().unwrap();
    assert!(
        rows.iter()
            .any(|r| r.get::<String>("category").unwrap() == "durability"),
        "recovery incidents must seed the ring: {rows:?}"
    );
    // Stats: the durability section is live and this process's counters
    // start fresh (they count *this* process's appends, not history).
    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    assert_eq!(stats.result.get::<u64>("epoch").unwrap(), 3);
    let dur = stats.result.field("durability").unwrap();
    assert_eq!(dur.get::<bool>("enabled").unwrap(), true);
    assert_eq!(dur.get::<bool>("fsync").unwrap(), true);
    assert_eq!(dur.get::<u64>("wal_records").unwrap(), 0);

    // A post-recovery commit appends to the repaired log...
    let extra = storm_delta(9);
    let r = cl.call(Op::Update, None, deltas_params(&[extra])).unwrap();
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.result.get::<u64>("epoch").unwrap(), 4);
    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    let dur = stats.result.field("durability").unwrap();
    assert_eq!(dur.get::<u64>("wal_records").unwrap(), 1);
    assert!(dur.get::<u64>("fsyncs").unwrap() >= 1);
    drop(cl);
    h.join().unwrap();
    drop(server);

    // ...and the repaired-plus-extended timeline recovers whole.
    let mut again = build_engine(SEED, K);
    let rep2 = recover(&mut again, &DurabilityConfig::new(&dir)).unwrap();
    assert!(rep2.incidents.is_empty(), "{:?}", rep2.incidents);
    assert_eq!(rep2.recovered_epoch, 4);
    let mut twin = twin_after(3);
    let mut s = twin.begin_session();
    s.update_timing(&[extra]).unwrap();
    s.commit().unwrap();
    assert_eq!(engine_bits(&again), engine_bits(&twin));
}

/// Reads one counter of the `stats` op's `durability` section.
fn durability_stat(cl: &mut Conn, key: &str) -> u64 {
    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    stats
        .result
        .field("durability")
        .unwrap()
        .get::<u64>(key)
        .unwrap_or_else(|e| panic!("durability.{key}: {e}"))
}

fn durability_incidents(cl: &mut Conn) -> Vec<String> {
    let inc = cl.call(Op::Incidents, None, Json::Null).unwrap();
    inc.result
        .field("incidents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|r| r.get::<String>("category").unwrap() == "durability")
        .map(|r| r.get::<String>("message").unwrap())
        .collect()
}

#[test]
fn a_clean_shutdown_restarts_without_incidents_and_covered_segments_retire() {
    let dir = scratch("clean-restart");
    let cfg = || DurabilityConfig {
        checkpoint_every: 4,
        ..DurabilityConfig::new(&dir)
    };
    let mut total = 0;
    let mut newest = 0;
    for round in 0..3 {
        let (server, boot) =
            Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg()).unwrap();
        // The log's zero tail is its end, not a torn record: a restart
        // after a clean shutdown has nothing to report or repair.
        assert!(boot.incidents.is_empty(), "round {round}: {:?}", boot.incidents);
        assert!(!boot.wal_truncated, "round {round}");
        assert_eq!(boot.recovered_epoch, total, "round {round}");

        let (mut cl, h) = connect(&server);
        for i in total..total + 10 {
            let (op, params) = storm_request(i);
            assert!(cl.call(op, None, params).unwrap().ok, "commit {i}");
        }
        total += 10;
        settle(&server);
        assert!(durability_incidents(&mut cl).is_empty(), "round {round}");
        // Off the commit path, and seen: nothing in flight once the
        // writer idles, the checkpoints it wrote and how long the last
        // took, the segments left, the fsync latency distribution.
        assert_eq!(durability_stat(&mut cl, "checkpoint_inflight"), 0);
        assert_eq!(durability_stat(&mut cl, "checkpoint_failures"), 0);
        let written = durability_stat(&mut cl, "checkpoints_written");
        let superseded = durability_stat(&mut cl, "checkpoints_superseded");
        assert!(written >= 1, "round {round}");
        assert!(
            written + superseded <= 3,
            "round {round}: {written} + {superseded}"
        );
        // (The cadence counts this process's commits.)
        newest = durability_stat(&mut cl, "last_checkpoint_epoch");
        assert_eq!(newest, total - 2, "round {round}");
        assert_eq!(durability_stat(&mut cl, "fsyncs"), 10, "round {round}");
        assert!(durability_stat(&mut cl, "fdatasync_p50_us") > 0);
        // A quantile reads as its bucket's upper edge: above the largest
        // sample by less than a factor of two.
        assert!(
            durability_stat(&mut cl, "fdatasync_p99_us")
                <= 2 * durability_stat(&mut cl, "fdatasync_max_us").max(1)
        );
        // Every segment the newest checkpoint covers is retired: what is
        // left starts after it (plus, at most, the one it was handed over
        // with, when that checkpoint was superseded in the mailbox).
        let names = segment_names(&dir);
        assert_eq!(durability_stat(&mut cl, "wal_segments"), names.len() as u64);
        assert!(names.len() <= 2, "round {round}: {names:?}");
        assert_eq!(*names.last().unwrap(), newest + 1, "round {round}: {names:?}");
        drop(cl);
        h.join().unwrap();
        drop(server);
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 2, "round {round}");
    }
    let mut restarted = build_engine(SEED, K);
    let rep = recover(&mut restarted, &cfg()).unwrap();
    assert!(rep.incidents.is_empty(), "{:?}", rep.incidents);
    assert_eq!(rep.recovered_epoch, total);
    assert_eq!(rep.checkpoint_epoch, Some(newest));
    assert_eq!(rep.replayed, total - newest);
    assert_eq!(engine_bits(&restarted), engine_bits(&twin_after(total)));
}

/// A rotation renames the spare segment into place without waiting for
/// the directory to be durable. After a power loss the acknowledged
/// records written since may therefore sit under the spare's name:
/// recovery reads them from there, and the next open gives the file the
/// name it was on its way to.
#[test]
fn a_rotation_whose_rename_never_reached_the_directory_loses_nothing() {
    let dir = scratch("lost-rename");
    let cfg = DurabilityConfig {
        checkpoint_every: 3,
        ..DurabilityConfig::new(&dir)
    };
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    run_storm(&server, 5, || {
        settle(&server);
        false
    });
    drop(server);
    // Checkpoint 3 landed and retired the first segment; epochs 4 and 5
    // are in the segment the rotation renamed. Undo that rename.
    assert_eq!(segment_names(&dir), vec![4]);
    std::fs::rename(segment_path(&dir, 4), dir.join("wal-spare.seg")).unwrap();

    let mut recovered = build_engine(SEED, K);
    let rep = recover(&mut recovered, &DurabilityConfig::new(&dir)).unwrap();
    assert!(rep.incidents.is_empty(), "{:?}", rep.incidents);
    assert_eq!((rep.checkpoint_epoch, rep.replayed), (Some(3), 2));
    assert_eq!(rep.recovered_epoch, 5);
    assert_eq!(engine_bits(&recovered), engine_bits(&twin_after(5)));

    let (server, boot) = Server::with_durability(
        build_engine(SEED, K),
        ServeConfig::default(),
        DurabilityConfig::new(&dir),
    )
    .unwrap();
    assert!(boot.incidents.is_empty(), "{:?}", boot.incidents);
    assert_eq!(boot.recovered_epoch, 5);
    assert_eq!(segment_names(&dir), vec![4], "the open names the segment");
    let (mut cl, h) = connect(&server);
    for i in 5..7 {
        let (op, params) = storm_request(i);
        assert!(cl.call(op, None, params).unwrap().ok, "commit {i}");
    }
    drop(cl);
    h.join().unwrap();
    drop(server);
    let mut resumed = build_engine(SEED, K);
    let rep = recover(&mut resumed, &DurabilityConfig::new(&dir)).unwrap();
    assert!(rep.incidents.is_empty(), "{:?}", rep.incidents);
    assert_eq!(rep.recovered_epoch, 7);
    assert_eq!(engine_bits(&resumed), engine_bits(&twin_after(7)));
}

#[test]
fn a_checkpoint_writer_panic_or_io_error_is_an_incident_and_commits_carry_on() {
    let dir = scratch("writer-panic");
    let cfg = DurabilityConfig {
        checkpoint_every: 2,
        ..DurabilityConfig::new(&dir)
    };
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    let (mut cl, h) = connect(&server);
    let mut commit = |i: u64| {
        let (op, params) = storm_request(i);
        let r = cl.call(op, None, params).unwrap();
        assert!(r.ok, "commit {i}: {:?}", r.error);
        settle(&server);
    };
    // The checkpoint of epoch 2 panics in the middle of its stream.
    server.durability().unwrap().debug_panic_next_checkpoint();
    (0..2).for_each(&mut commit);
    // The checkpoint of epoch 4 finds its temp file's place taken by a
    // directory: an I/O error.
    let blocker = dir.join(format!("checkpoint-{:020}.tmp", 4));
    std::fs::create_dir(&blocker).unwrap();
    (2..4).for_each(&mut commit);
    std::fs::remove_dir(&blocker).unwrap();
    // The daemon kept committing, and the next checkpoint lands.
    (4..6).for_each(&mut commit);

    let incidents = durability_incidents(&mut cl);
    assert_eq!(incidents.len(), 2, "{incidents:?}");
    assert!(
        incidents[0].contains("epoch 2") && incidents[0].contains("panicked"),
        "{incidents:?}"
    );
    assert!(incidents[1].contains("epoch 4"), "{incidents:?}");
    assert_eq!(durability_stat(&mut cl, "checkpoint_failures"), 2);
    assert_eq!(durability_stat(&mut cl, "checkpoints_written"), 1);
    assert_eq!(durability_stat(&mut cl, "last_checkpoint_epoch"), 6);
    assert_eq!(durability_stat(&mut cl, "wal_records"), 6);
    drop(cl);
    h.join().unwrap();
    drop(server);

    let mut restarted = build_engine(SEED, K);
    let rep = recover(&mut restarted, &DurabilityConfig::new(&dir)).unwrap();
    assert!(rep.incidents.is_empty(), "{:?}", rep.incidents);
    assert_eq!(rep.checkpoint_epoch, Some(6));
    assert_eq!(rep.recovered_epoch, 6);
    assert_eq!(engine_bits(&restarted), engine_bits(&twin_after(6)));
}

/// One step of a generated durability schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// One acknowledged storm commit (logged, synced, committed).
    Commit,
    /// A checkpoint of the current epoch is handed to the background
    /// writer: the log rotates; the checkpoint lands whenever it lands.
    Checkpoint,
    /// Wait for the background writer: every checkpoint handed over so
    /// far completes before the next step.
    Settle,
}

/// Where the crash cuts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    /// The last, unacknowledged record of the active segment is lost from
    /// this share of its length on (1.0 = it landed whole); the lost
    /// bytes read back as zeros, or the file ends there.
    Log { share: f64, short_file: bool },
    /// A checkpoint was being streamed: a temp file holding this share of
    /// an image is left behind, with or without its header.
    TempCheckpoint { share: f64, header: bool },
}

#[derive(Debug, Clone)]
struct Schedule {
    steps: Vec<Step>,
    cut: Cut,
}

impl insta_support::prop::Shrink for Schedule {
    fn shrink(&self) -> Vec<Self> {
        (0..self.steps.len())
            .map(|skip| Schedule {
                steps: self
                    .steps
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, s)| *s)
                    .collect(),
                cut: self.cut,
            })
            .collect()
    }
}

/// Runs one schedule against a fresh directory and checks the recovery
/// contract. `case` only names the scratch directory.
fn check_schedule(case: &str, schedule: &Schedule) -> Result<(), String> {
    use insta_support::{prop_assert, prop_assert_eq};
    let dir = scratch(case);
    let cfg = DurabilityConfig {
        // The schedule, not a cadence, says when checkpoints happen; no
        // pacing, so a case costs its fsyncs and nothing more.
        checkpoint_every: 0,
        sync_interval: Duration::ZERO,
        ..DurabilityConfig::new(&dir)
    };
    let mut engine = build_engine(SEED, K);
    let dur = Durability::open(cfg.clone()).map_err(|e| e.to_string())?;
    let op_of = |i: u64| {
        if i % 3 == 2 {
            insta_engine::WriterOp::Propagate
        } else {
            insta_engine::WriterOp::Update(vec![storm_delta(i)])
        }
    };
    let mut acked = 0;
    for step in &schedule.steps {
        match step {
            Step::Commit => {
                let op = op_of(acked);
                let mut session = engine.begin_session();
                match &op {
                    insta_engine::WriterOp::Propagate => session.propagate(),
                    insta_engine::WriterOp::Update(d) => session.update_timing(d),
                }
                .map_err(|e| e.to_string())?;
                dur.log_commit(acked + 1, &op).map_err(|e| e.to_string())?;
                acked = session.commit().map_err(|e| e.to_string())?;
            }
            Step::Checkpoint => dur.submit_checkpoint(
                insta_engine::EngineDurableState::capture(&engine),
                std::sync::Arc::new(engine.snapshot()),
            ),
            Step::Settle => dur.wait_idle(),
        }
    }
    // The crash strikes during one more commit: its record is on its way
    // to the platter, nobody was told it is durable.
    let in_flight = op_of(acked);
    dur.log_commit(acked + 1, &in_flight)
        .map_err(|e| e.to_string())?;
    drop(dur);
    prop_assert!(no_temp_files(&dir), "the run itself must be clean");

    let (active, end) = {
        let segments = list_segments(&dir).unwrap();
        let path = segments.last().expect("a log").1.clone();
        let scan = scan_segment(&path).unwrap();
        prop_assert_eq!(scan.damage, None);
        (path, scan.valid_bytes as usize)
    };
    let record_len = 8 + 8 + in_flight.encode().len();
    let mut whole = true;
    match schedule.cut {
        Cut::Log { share, short_file } => {
            let at = end - record_len + (record_len as f64 * share) as usize;
            whole = at >= end;
            let mut bytes = std::fs::read(&active).unwrap();
            if short_file {
                bytes.truncate(at);
            } else {
                bytes[at..end].fill(0);
            }
            std::fs::write(&active, &bytes).unwrap();
        }
        Cut::TempCheckpoint { share, header } => {
            // An image to cut: the newest checkpoint, or one written now.
            let donor = scratch(&format!("{case}-donor"));
            let image = match list_checkpoints(&dir).unwrap().first() {
                Some((_, path)) => std::fs::read(path).unwrap(),
                None => {
                    let d = Durability::open(DurabilityConfig::new(&donor)).unwrap();
                    d.write_checkpoint(
                        &insta_engine::EngineDurableState::capture(&engine),
                        &engine.snapshot(),
                    )
                    .unwrap();
                    std::fs::read(&list_checkpoints(&donor).unwrap()[0].1).unwrap()
                }
            };
            let mut partial = image[..(image.len() as f64 * share) as usize].to_vec();
            if !header {
                let n = partial.len().min(24);
                partial[..n].fill(0);
            }
            let name = format!("checkpoint-{:020}.tmp", acked + 1);
            std::fs::write(dir.join(name), partial).unwrap();
        }
    }

    let mut recovered = build_engine(SEED, K);
    let rep = recover(&mut recovered, &cfg).map_err(|e| e.to_string())?;
    let landed = if whole { acked + 1 } else { acked };
    prop_assert!(
        rep.recovered_epoch == landed,
        "recovered epoch {} with {acked} acknowledged, expected {landed}",
        rep.recovered_epoch
    );
    // A torn record is cut off with exactly one incident; a record that
    // landed whole, or a cut exactly between two records, leaves none.
    let torn = !whole && !matches!(schedule.cut, Cut::Log { share, .. } if share == 0.0);
    prop_assert!(
        rep.wal_truncated == torn && rep.incidents.len() == usize::from(torn),
        "torn {torn}, truncated {}: {:?}",
        rep.wal_truncated,
        rep.incidents
    );
    let twin = twin_after(landed);
    prop_assert_eq!(recovered.epoch(), twin.epoch());
    prop_assert!(
        engine_bits(&recovered) == engine_bits(&twin),
        "recovered slacks differ from the twin at epoch {landed}"
    );

    // A second recovery of the same directory changes nothing and has
    // nothing to say.
    let before = dir_fingerprint(&dir);
    let mut again = build_engine(SEED, K);
    let rep2 = recover(&mut again, &cfg).map_err(|e| e.to_string())?;
    prop_assert!(rep2.incidents.is_empty(), "{:?}", rep2.incidents);
    prop_assert!(!rep2.wal_truncated);
    prop_assert_eq!(rep2.recovered_epoch, landed);
    prop_assert!(engine_bits(&again) == engine_bits(&twin));
    prop_assert!(before == dir_fingerprint(&dir), "the second recovery wrote");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// No `.tmp` is left by a run that was not cut.
fn no_temp_files(dir: &Path) -> bool {
    !std::fs::read_dir(dir)
        .unwrap()
        .any(|e| e.unwrap().file_name().to_string_lossy().ends_with(".tmp"))
}

#[test]
fn generated_crash_schedules_recover_the_acknowledged_prefix() {
    use insta_support::prop::{for_all, Config};
    // Fixed seeds; the box bounds the wall time on a slow machine (cases
    // past it pass unexamined), not the coverage on a normal one.
    let started = Instant::now();
    let budget = Duration::from_secs(60);
    let case = std::sync::atomic::AtomicU64::new(0);
    for_all(
        Config::cases(24).seed(0x05EC_07D5),
        |rng| {
            let steps = (0..2 + rng.bounded_u64(22))
                .map(|_| match rng.bounded_u64(10) {
                    0..=6 => Step::Commit,
                    7 | 8 => Step::Checkpoint,
                    _ => Step::Settle,
                })
                .collect();
            let share = match rng.bounded_u64(5) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.bounded_u64(1000) as f64 / 1000.0,
            };
            let cut = if rng.bounded_u64(4) == 0 {
                Cut::TempCheckpoint {
                    share,
                    header: rng.bounded_u64(2) == 0,
                }
            } else {
                Cut::Log {
                    share,
                    short_file: rng.bounded_u64(2) == 0,
                }
            };
            Schedule { steps, cut }
        },
        |schedule| {
            if started.elapsed() > budget {
                return Ok(());
            }
            let n = case.fetch_add(1, Ordering::Relaxed);
            check_schedule(&format!("schedule-{n}"), schedule)
        },
    );
}

#[test]
fn protocol_version_is_surfaced_and_mismatched_clients_are_refused() {
    let server = Server::new(build_engine(SEED, K), ServeConfig::default());

    // Ping and stats both carry the server's protocol generation.
    let (mut cl, h) = connect(&server);
    let pong = cl.call(Op::Ping, None, Json::Null).unwrap();
    assert_eq!(pong.result.get::<u64>("version").unwrap(), PROTOCOL_VERSION);
    let stats = cl.call(Op::Stats, None, Json::Null).unwrap();
    assert_eq!(stats.result.get::<u64>("version").unwrap(), PROTOCOL_VERSION);
    drop(cl);
    h.join().unwrap();

    // A client declaring a different generation is refused, typed,
    // before dispatch — even for a ping.
    let (cl, h) = connect(&server);
    let mut cl = cl.with_version(Some(PROTOCOL_VERSION + 41));
    let refused = cl.call(Op::Ping, None, Json::Null).unwrap();
    assert_eq!(refused.code(), Some("version_mismatch"), "{:?}", refused.error);
    let (_, msg, _) = refused.error.unwrap();
    assert!(msg.contains("speaks protocol version"), "{msg}");
    drop(cl);
    h.join().unwrap();
    assert!(server.counters().rejected_protocol.load(Ordering::Relaxed) >= 1);

    // A legacy client that omits the field is still served (the gate
    // refuses only a *declared* mismatch), and the refusal above landed
    // in the incident ring.
    let (cl, h) = connect(&server);
    let mut cl = cl.with_version(None);
    assert!(cl.call(Op::Ping, None, Json::Null).unwrap().ok);
    let inc = cl.call(Op::Incidents, None, Json::Null).unwrap();
    let rows = inc.result.field("incidents").unwrap().as_arr().unwrap();
    assert!(
        rows.iter()
            .any(|r| r.get::<String>("category").unwrap() == "version_mismatch"),
        "{rows:?}"
    );
    drop(cl);
    h.join().unwrap();
}

#[test]
fn min_epoch_reader_wakes_on_the_publish_it_asked_for() {
    // A generous wait cap proves the reader wakes on the publish
    // notification, not on the cap running out (the old implementation
    // polled; the condvar must release the waiter as the commit lands).
    let cfg = ServeConfig {
        max_epoch_wait_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::new(build_engine(SEED, K), cfg);
    let (mut reader, rh) = connect(&server);
    let t = std::thread::spawn(move || {
        let started = Instant::now();
        let r = reader
            .call(
                Op::ReportSlack,
                None,
                obj([("min_epoch", 1_u64.to_json())]),
            )
            .unwrap();
        (r, started.elapsed(), reader)
    });
    std::thread::sleep(Duration::from_millis(120));
    let (mut writer, wh) = connect(&server);
    let (op, params) = storm_request(0);
    assert!(writer.call(op, None, params).unwrap().ok);

    let (r, waited, reader) = t.join().unwrap();
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.epoch, 1, "the reader must see the commit it waited for");
    assert_eq!(r.result.get::<bool>("degraded").unwrap(), false);
    assert!(
        waited >= Duration::from_millis(100),
        "the reader must actually have blocked ({waited:?})"
    );
    assert!(
        waited < Duration::from_secs(8),
        "the reader must wake on publish, not on the wait cap ({waited:?})"
    );
    drop(reader);
    drop(writer);
    rh.join().unwrap();
    wh.join().unwrap();
}

/// Builds the engine exactly as `insta-serve --gen small:42 --k 8` does
/// (the generator's design *name* participates in generation, so the
/// twin must use the binary's, not the test fixture's).
fn binary_twin() -> InstaEngine {
    let design = insta_netlist::generator::generate_design(
        &insta_netlist::generator::GeneratorConfig::small("small", 42),
    );
    let mut sta =
        insta_refsta::RefSta::new(&design, insta_refsta::StaConfig::default()).unwrap();
    sta.full_update(&design);
    let mut eng = InstaEngine::new(
        sta.export_insta_init(),
        InstaConfig {
            top_k: 8,
            ..InstaConfig::default()
        },
    )
    .unwrap();
    eng.propagate();
    eng
}

fn connect_tcp_with_retry(addr: &str) -> std::net::TcpStream {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "insta-serve never listened on {addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

#[test]
fn kill_minus_nine_on_the_real_binary_loses_no_acked_commit() {
    use std::process::{Command, Stdio};
    let dir = scratch("binary-kill9");
    let spawn_daemon = |addr: &str| {
        Command::new(env!("CARGO_BIN_EXE_insta-serve"))
            .args(["--gen", "small:42", "--k", "8", "--tcp", addr])
            .args(["--durability", dir.to_str().unwrap()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn insta-serve")
    };

    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = spawn_daemon(&addr);
    let stream = connect_tcp_with_retry(&addr);
    let mut cl = Client::new(stream.try_clone().unwrap(), stream);

    // Acked commits: each response means the WAL record was synced
    // before publication, so all of these must survive the kill.
    const ACKED: u64 = 5;
    let mut last_epoch = 0;
    for i in 0..ACKED {
        let (op, params) = storm_request(i);
        let r = cl.call(op, None, params).unwrap();
        assert!(r.ok, "commit {i}: {:?}", r.error);
        last_epoch = r.result.get::<u64>("epoch").unwrap();
    }
    assert_eq!(last_epoch, ACKED);
    // One more goes out un-acked — then SIGKILL races its commit. It
    // must land whole or vanish whole.
    let (op, params) = storm_request(ACKED);
    let inflight = Request {
        id: 999,
        op,
        deadline_ms: None,
        version: Some(PROTOCOL_VERSION),
        params,
    };
    cl.send_raw(inflight.encode().as_bytes()).unwrap();
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    drop(cl);

    // Recover a twin in-process from a *copy* of the artifacts (the
    // restarted binary must repair the originals itself).
    let copy = scratch("binary-kill9-copy");
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let mut twin = binary_twin();
    let rep = recover(&mut twin, &DurabilityConfig::new(&copy)).unwrap();
    assert!(
        rep.recovered_epoch == ACKED || rep.recovered_epoch == ACKED + 1,
        "every acked commit survives, the in-flight one lands whole or not at all \
         (recovered {})",
        rep.recovered_epoch
    );

    // Restart the real binary on the original directory (a fresh port:
    // the killed connection may linger in TIME_WAIT) and compare served
    // slacks bit-for-bit — f64s survive the JSON wire exactly.
    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = spawn_daemon(&addr);
    let stream = connect_tcp_with_retry(&addr);
    let mut cl = Client::new(stream.try_clone().unwrap(), stream);
    let r = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.epoch, twin.epoch());
    assert_eq!(slack_bits(&r.result), engine_bits(&twin));

    let bye = cl.call(Op::Shutdown, None, Json::Null).unwrap();
    assert!(bye.ok);
    drop(cl);
    child.wait().expect("clean shutdown");
}
