//! What a checkpoint holds: the durable engine state with the published
//! report's slacks — its exact size, its layout word for word, the
//! verifier that compares those slacks on recovery, and the version gate
//! in front of both.

use insta_engine::{EngineDurableState, InstaConfig, InstaEngine, WriterOp};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{RefSta, StaConfig};
use insta_serve::wal::{list_checkpoints, load_checkpoint};
use insta_serve::{recover, Durability, DurabilityConfig};
use insta_support::hash::crc32;
use std::path::{Path, PathBuf};

const SEED: u64 = 47;
const K: usize = 8;
/// Magic, version, CRC, payload length.
const HEADER: usize = 8 + 4 + 4 + 8;

fn scratch(name: &str) -> PathBuf {
    let tag = format!("insta-checkpoint-{}-{name}", std::process::id());
    let dir = std::env::temp_dir().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An engine on the small generated design, propagated or not.
fn build_engine(propagate: bool) -> InstaEngine {
    let design = generate_design(&GeneratorConfig::small("checkpoint", SEED));
    let mut sta = RefSta::new(&design, StaConfig::default()).unwrap();
    sta.full_update(&design);
    let cfg = InstaConfig {
        top_k: K,
        ..InstaConfig::default()
    };
    let mut engine = InstaEngine::new(sta.export_insta_init(), cfg).unwrap();
    if propagate {
        engine.propagate();
    }
    engine
}

fn bits(slacks: &[f64]) -> Vec<u64> {
    slacks.iter().map(|s| s.to_bits()).collect()
}

/// Writes a checkpoint of `engine` into `dir` and returns its path.
fn checkpoint(dir: &Path, engine: &InstaEngine) -> PathBuf {
    let dur = Durability::open(DurabilityConfig::new(dir)).unwrap();
    let state = EngineDurableState::capture(engine);
    assert_eq!(dur.checkpoint(&state).unwrap(), Some(engine.epoch()));
    drop(dur);
    list_checkpoints(dir).unwrap()[0].1.clone()
}

#[test]
fn a_checkpoint_is_the_durable_state_plus_the_slacks() {
    let engine = build_engine(true);
    let path = checkpoint(&scratch("size"), &engine);
    let state = EngineDurableState::capture(&engine);
    let n = engine.num_endpoints();
    assert!(n > 0);
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    assert_eq!(len, HEADER + 8 + state.encoded_len() + 8 + 8 * n);
    let stored = load_checkpoint(&path).unwrap();
    assert_eq!(stored, state);
    assert_eq!(bits(&stored.slacks), bits(&engine.report().slacks));

    // An engine that never propagated stores an empty list.
    let path = checkpoint(&scratch("size-bare"), &build_engine(false));
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    assert_eq!(len, HEADER + 8 + state.encoded_len() + 8);
    assert!(load_checkpoint(&path).unwrap().slacks.is_empty());
}

/// The `i`-th update of a [`history`].
fn delta(i: u64) -> ArcDelta {
    ArcDelta {
        arc: (i % 4) as u32,
        mean: [35.0 + i as f64, 30.0],
        sigma: [3.0, 2.5 + i as f64 / 4.0],
    }
}

/// Logs `n` updates to `dir` the way the daemon's writer does (record
/// first, then the commit), checkpointing the engine after `ckpt_at`.
fn history(dir: &Path, n: u64, ckpt_at: u64) -> InstaEngine {
    let mut engine = build_engine(true);
    let dur = Durability::open(DurabilityConfig {
        checkpoint_every: 0,
        ..DurabilityConfig::new(dir)
    })
    .unwrap();
    for i in 0..n {
        let delta = delta(i);
        dur.log_commit(i + 1, &WriterOp::Update(vec![delta]))
            .unwrap();
        let mut s = engine.begin_session();
        s.update_timing(&[delta]).unwrap();
        s.commit().unwrap();
        if i + 1 == ckpt_at {
            let state = EngineDurableState::capture(&engine);
            dur.checkpoint(&state).unwrap();
        }
    }
    engine
}

/// A checkpoint file written by hand, word by word, in format 4: the
/// header, then `[state len][epoch][odometer updates][odometer mass]
/// [m][m mean pairs][s][s sigma pairs][n][n slacks]` — the layout of the
/// engines that still kept a resync odometer in the two words after the
/// epoch.
fn format_4(state: &EngineDurableState, updates: u64, mass: f64) -> Vec<u8> {
    let mut body: Vec<u64> = vec![0, state.epoch, updates, mass.to_bits()];
    for pairs in [&state.arc_mean, &state.arc_sigma] {
        body.push(pairs.len() as u64);
        body.extend(pairs.iter().flatten().map(|x| x.to_bits()));
    }
    body[0] = 8 * (body.len() as u64 - 1);
    body.push(state.slacks.len() as u64);
    body.extend(state.slacks.iter().map(|x| x.to_bits()));
    let payload: Vec<u8> = body.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut file = b"INSTACKP".to_vec();
    file.extend_from_slice(&4u32.to_le_bytes());
    file.extend_from_slice(&crc32(&payload).to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&payload);
    file
}

#[test]
fn a_checkpoint_with_odometer_words_recovers_to_the_twin() {
    let dir = scratch("odometer");
    let live = history(&dir, 5, 3);
    let mut at_3 = build_engine(true);
    for i in 0..3 {
        let mut s = at_3.begin_session();
        s.update_timing(&[delta(i)]).unwrap();
        s.commit().unwrap();
    }
    let state = EngineDurableState::capture(&at_3);

    // The writer's file is the hand-written layout with zero words.
    let path = list_checkpoints(&dir).unwrap()[0].1.clone();
    assert_eq!(std::fs::read(&path).unwrap(), format_4(&state, 0, 0.0));

    // The same checkpoint as an odometer-keeping engine wrote it.
    std::fs::write(&path, format_4(&state, 3, 3.0 / 1024.0)).unwrap();
    let mut engine = build_engine(true);
    let rep = recover(&mut engine, &DurabilityConfig::new(&dir)).unwrap();
    assert!(rep.incidents.is_empty(), "{:?}", rep.incidents);
    assert_eq!((rep.checkpoint_epoch, rep.replayed), (Some(3), 2));
    assert_eq!(bits(&engine.report().slacks), bits(&live.report().slacks));
}

#[test]
fn a_flipped_slack_bit_makes_the_checkpoint_stale_and_the_log_rebuilds() {
    let dir = scratch("flipped");
    let live = history(&dir, 5, 3);
    let golden = bits(&live.report().slacks);

    // Untouched, the checkpoint carries recovery.
    let mut engine = build_engine(true);
    let rep = recover(&mut engine, &DurabilityConfig::new(&dir)).unwrap();
    assert!(rep.incidents.is_empty(), "{:?}", rep.incidents);
    assert_eq!((rep.checkpoint_epoch, rep.replayed), (Some(3), 2));
    assert_eq!(bits(&engine.report().slacks), golden);

    // One stored slack bit flipped under a recomputed CRC: the file is
    // sound, its slacks no longer what the state re-derives.
    let path = list_checkpoints(&dir).unwrap()[0].1.clone();
    let mut bytes = std::fs::read(&path).unwrap();
    let state_len = u64::from_le_bytes(bytes[HEADER..HEADER + 8].try_into().unwrap()) as usize;
    let first_slack = HEADER + 8 + state_len + 8;
    bytes[first_slack] ^= 1;
    let crc = crc32(&bytes[HEADER..]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(load_checkpoint(&path).is_ok(), "the framing still holds");

    let mut engine = build_engine(true);
    let rep = recover(&mut engine, &DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(rep.checkpoint_epoch, None);
    assert_eq!(rep.incidents.len(), 1, "{:?}", rep.incidents);
    assert!(
        rep.incidents[0].message.contains("stale"),
        "{:?}",
        rep.incidents
    );
    // The pristine state plus the whole log.
    assert_eq!((rep.replayed, rep.recovered_epoch), (5, 5));
    assert_eq!(bits(&engine.report().slacks), golden);
}

#[test]
fn a_checkpoint_of_another_format_version_is_refused_typed() {
    let dir = scratch("v3");
    let live = history(&dir, 4, 2);
    let path = list_checkpoints(&dir).unwrap()[0].1.clone();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let mut engine = build_engine(true);
    let rep = recover(&mut engine, &DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(rep.checkpoint_epoch, None);
    assert_eq!(rep.incidents.len(), 1, "{:?}", rep.incidents);
    assert!(
        rep.incidents[0]
            .message
            .contains("unsupported checkpoint format version 3"),
        "{:?}",
        rep.incidents
    );
    assert_eq!(rep.replayed, 4);
    assert_eq!(bits(&engine.report().slacks), bits(&live.report().slacks));
}
