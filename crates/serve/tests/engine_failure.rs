//! Recovery over an engine that cannot propagate. A worker panic the
//! engine could not contain (`InstaError::Runtime`) is the engine's
//! failure, not the log's: recovery stops with an error — no panic — and
//! every file in the directory keeps its bytes, so a restart with a sound
//! engine recovers the whole acknowledged timeline.
//!
//! A binary of its own: `chaos::arm` is process-global, and an armed
//! forward kernel would fail every other suite's engines too.

mod common;

use common::{build_engine, connect, deltas_params, slack_bits};
use insta_engine::parallel::chaos;
use insta_engine::Kernel;
use insta_refsta::eco::ArcDelta;
use insta_serve::wal::list_checkpoints;
use insta_serve::{recover, DurabilityConfig, Op, ServeConfig, Server};
use insta_support::json::Json;
use std::path::{Path, PathBuf};

const SEED: u64 = 53;
const K: usize = 8;
const COMMITS: u64 = 5;

fn scratch(name: &str) -> PathBuf {
    let tag = format!("insta-engine-failure-{}-{name}", std::process::id());
    let dir = std::env::temp_dir().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commit `i`: a full propagation every third, else an update of a
/// rotating arc — so the log holds records of both kinds.
fn commit(i: u64) -> (Op, Json) {
    if i % 3 == 2 {
        return (Op::Propagate, Json::Null);
    }
    let delta = ArcDelta {
        arc: (i % 3) as u32,
        mean: [40.0 + i as f64, 42.5],
        sigma: [4.0, 3.25],
    };
    (Op::Update, deltas_params(&[delta]))
}

/// Runs the commits against a durable daemon in `cfg.dir` and returns the
/// slack bits it served last: the crash-free twin's.
fn history(cfg: DurabilityConfig) -> Vec<u64> {
    let (server, _) =
        Server::with_durability(build_engine(SEED, K), ServeConfig::default(), cfg).unwrap();
    let (mut cl, h) = connect(&server);
    for i in 0..COMMITS {
        let (op, params) = commit(i);
        let r = cl.call(op, None, params).unwrap();
        assert!(r.ok, "commit {i}: {:?}", r.error);
    }
    let served = cl.call(Op::ReportSlack, None, Json::Null).unwrap();
    drop(cl);
    h.join().unwrap();
    slack_bits(&served.result)
}

/// Every file's name and bytes, sorted.
fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn an_engine_failure_stops_recovery_and_leaves_every_byte() {
    // One directory whose recovery starts from a checkpoint (and fails
    // re-propagating it), one whose recovery replays the log (and fails
    // on a record).
    let checkpointed = scratch("checkpointed");
    let log_only = scratch("log-only");
    let cfg = |dir: &Path, every: u64| DurabilityConfig {
        checkpoint_every: every,
        ..DurabilityConfig::new(dir)
    };
    let golden = history(cfg(&checkpointed, 2));
    assert_eq!(history(cfg(&log_only, 0)), golden);
    assert!(!list_checkpoints(&checkpointed).unwrap().is_empty());
    assert!(list_checkpoints(&log_only).unwrap().is_empty());

    for (name, dir) in [("checkpointed", &checkpointed), ("log-only", &log_only)] {
        let before = contents(dir);
        let mut engine = build_engine(SEED, K);
        chaos::arm(Kernel::Forward, 1, true);
        let outcome = recover(&mut engine, &DurabilityConfig::new(dir));
        chaos::disarm();
        let err = outcome.expect_err(name);
        assert!(err.to_string().contains("engine failed"), "{name}: {err}");
        assert!(contents(dir) == before, "{name}: a file was touched");

        let mut engine = build_engine(SEED, K);
        let rep = recover(&mut engine, &DurabilityConfig::new(dir)).unwrap();
        assert!(rep.incidents.is_empty(), "{name}: {:?}", rep.incidents);
        assert!(!rep.wal_truncated, "{name}");
        assert_eq!(rep.recovered_epoch, COMMITS, "{name}");
        let got: Vec<u64> = engine.report().slacks.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, golden, "{name}");
    }
}
