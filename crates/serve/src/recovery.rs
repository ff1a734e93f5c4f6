//! Startup recovery: rebuild the committed timeline from the durability
//! directory and leave the engine exactly where a crash-free twin would
//! be.
//!
//! The algorithm (see DESIGN.md "Durability and recovery"):
//!
//! 1. **Checkpoint.** Load the newest checkpoint, restore its durable
//!    state into the engine, re-propagate, and compare slack bits against
//!    the slacks stored *inside* the checkpoint. A mismatch (stale
//!    checkpoint: wrong design, seed, or engine config) or any decode
//!    failure records a typed incident and falls back to the next-newest
//!    checkpoint, then to the engine's initial state.
//! 2. **WAL scan.** Every segment in name order: validate framing and
//!    per-record CRC. A segment's log ends cleanly at a zero record
//!    header or the end of the file. A torn or corrupt record is damage:
//!    the rest of that segment is zeroed and later segments are dropped,
//!    each with a typed incident — the valid prefix is kept, the damage
//!    is never replayed.
//! 3. **Replay.** Each record with an epoch above the engine's is applied
//!    through a *real* timing session — the same code path the daemon's
//!    writer used — and must commit to exactly the logged epoch. Records
//!    at or below the engine's epoch are subsumed by the checkpoint
//!    (segments it covers are retired only after it is durable, and a
//!    crash may come between the two) and skipped. A record that cannot
//!    be replayed — a gap in the epoch chain, an op the engine rejects —
//!    stops the replay and is cut out of the log like damage: left ahead
//!    of later appends, it would stop every restart at the same place,
//!    before the commits acknowledged since. A segment a cut leaves
//!    without a record is renamed to the recovered epoch + 1, so segment
//!    names stay the epochs of the first records they may hold.
//!
//! An engine failure is not the log's fault: a worker panic the engine
//! could not contain ([`InstaError::Runtime`]) in either propagation stops
//! recovery with an error before any file is touched, so a restart
//! with a sound engine finds every byte where it was.
//!
//! Because deltas are absolute overwrites and propagation is
//! deterministic, the recovered engine's slacks are bit-identical
//! (`f64::to_bits`) to a twin that never crashed — the contract the
//! chaos suite in `tests/recovery.rs` enforces at every crash point.

use crate::wal::{self, DurabilityConfig};
use insta_engine::{EngineDurableState, InstaEngine, InstaError, ServiceIncident, WriterOp};
use std::io;

/// Incident category for everything the durability layer reports.
pub const INCIDENT_CATEGORY: &str = "durability";

/// What recovery did, for the startup log and the stats surface.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The engine's epoch after recovery.
    pub recovered_epoch: u64,
    /// Epoch restored from a checkpoint, if one was used.
    pub checkpoint_epoch: Option<u64>,
    /// WAL records replayed through real sessions.
    pub replayed: u64,
    /// Whether the WAL was cut — at damage or at a record that could not
    /// be replayed (the rest zeroed, later segments dropped).
    pub wal_truncated: bool,
    /// Typed incidents (stale checkpoints, torn tails, replay gaps) —
    /// the server seeds its incident ring with these.
    pub incidents: Vec<ServiceIncident>,
}

fn incident(message: String) -> ServiceIncident {
    ServiceIncident {
        request_id: 0,
        category: INCIDENT_CATEGORY,
        message,
    }
}

/// Ends the log at byte `keep` of segment `at`: the rest of that segment is
/// zeroed and every later segment removed (nothing past the cut can join
/// the epoch chain again).
fn cut_log(segments: &[(u64, std::path::PathBuf)], at: usize, keep: u64) -> io::Result<()> {
    wal::repair_segment(&segments[at].1, keep)?;
    for (_, path) in &segments[at + 1..] {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

/// A cut may leave the last segment without a record under a name above
/// the epoch its first record will have, which breaks the log's naming
/// rule ([`crate::wal`]: a segment's name is the epoch of the first record
/// it may hold) — the next rotation would then ask for that very name.
/// The emptied segment takes the name `next_epoch`.
fn rename_emptied_tail(dir: &std::path::Path, next_epoch: u64) -> io::Result<()> {
    let Some((first, path)) = wal::list_segments(dir)?.pop() else {
        return Ok(());
    };
    if first > next_epoch && wal::scan_segment(&path)?.records.is_empty() {
        std::fs::rename(&path, wal::segment_path(dir, next_epoch))?;
        wal::fsync_dir(dir)?;
    }
    Ok(())
}

fn bits(slacks: &[f64]) -> Vec<u64> {
    slacks.iter().map(|s| s.to_bits()).collect()
}

/// An engine failure recovery must not blame on the log: the startup
/// stops, and the files stay as they are.
fn engine_failure(at: &str, e: InstaError) -> io::Error {
    io::Error::other(format!("recovery stopped at {at}: the engine failed: {e}"))
}

/// Recovers `engine` from `cfg.dir`. The engine must be freshly built
/// from the same design/config the daemon originally served (recovery
/// replays *state*, not topology). Returns the report; `engine` is left
/// propagated whenever anything was restored or replayed.
pub fn recover(engine: &mut InstaEngine, cfg: &DurabilityConfig) -> io::Result<RecoveryReport> {
    std::fs::create_dir_all(&cfg.dir)?;
    let mut report = RecoveryReport {
        recovered_epoch: engine.epoch(),
        checkpoint_epoch: None,
        replayed: 0,
        wal_truncated: false,
        incidents: Vec::new(),
    };

    // Phase 1: newest valid-and-verified checkpoint. The pristine state
    // is captured first so a stale candidate can be undone before trying
    // the next one.
    let pristine = EngineDurableState::capture(engine);
    for (epoch, path) in wal::list_checkpoints(&cfg.dir)? {
        let image = match wal::load_checkpoint(&path) {
            Ok(img) => img,
            Err(msg) => {
                report
                    .incidents
                    .push(incident(format!("checkpoint epoch {epoch} rejected: {msg}")));
                continue;
            }
        };
        if let Err(e) = image.state.restore(engine) {
            report.incidents.push(incident(format!(
                "checkpoint epoch {epoch} is stale: {e}"
            )));
            continue;
        }
        // Self-verification: the re-derived slacks must match the bits
        // the checkpoint stored, or the checkpoint lies about this
        // engine (stale: wrong design/seed/config at startup).
        let derived = match engine.try_propagate() {
            Ok(r) => bits(&r.slacks),
            Err(e) => return Err(engine_failure(&format!("checkpoint epoch {epoch}"), e)),
        };
        if derived != bits(&image.slacks) {
            report.incidents.push(incident(format!(
                "checkpoint epoch {epoch} is stale: restored slacks diverge from the stored \
                 ones ({} vs {} endpoints)",
                derived.len(),
                image.slacks.len()
            )));
            pristine
                .restore(engine)
                .expect("pristine state always fits its own engine");
            continue;
        }
        report.checkpoint_epoch = Some(epoch);
        break;
    }
    if report.checkpoint_epoch.is_none() && !report.incidents.is_empty() {
        // Every checkpoint was rejected: restart the timeline from the
        // engine's initial state and let the WAL replay carry it forward.
        pristine
            .restore(engine)
            .expect("pristine state always fits its own engine");
    }

    // Phase 2: WAL scan, segment by segment, up to the first damage, with
    // a typed incident. The log is cut there (or at an earlier record the
    // replay stops at) only after the replay: an engine failure in it
    // must leave every file as it was.
    let mut cut = None;
    let mut records = Vec::new();
    let segments = wal::list_segments(&cfg.dir)?;
    let name = |i: usize| {
        let name = segments[i].1.file_name().unwrap_or_default();
        name.to_string_lossy().into_owned()
    };
    for (i, (_, path)) in segments.iter().enumerate() {
        let scan = wal::scan_segment(path)?;
        records.extend(scan.records.into_iter().map(|rec| (i, rec)));
        let Some(damage) = scan.damage else { continue };
        report.incidents.push(incident(format!(
            "WAL segment {} truncated at byte {}: {}",
            name(i),
            damage.offset,
            damage.message
        )));
        cut = Some((i, scan.valid_bytes));
        let dropped = segments.len() - i - 1;
        if dropped > 0 {
            report.incidents.push(incident(format!(
                "{dropped} WAL segment(s) after the damaged {} dropped",
                name(i)
            )));
        }
        break;
    }
    let legacy = cfg.dir.join("wal.log");
    if std::fs::metadata(&legacy).is_ok_and(|m| m.len() > 0) {
        report.incidents.push(incident(format!(
            "unsupported WAL format version: {} predates the segmented log (format {}); \
             its records are not replayed",
            legacy.display(),
            wal::FORMAT_VERSION
        )));
    }

    // Phase 3: replay the tail through real sessions, up to the first
    // record that cannot be; the log ends there.
    for (i, (segment, rec)) in records.iter().enumerate() {
        if rec.epoch <= engine.epoch() {
            continue; // subsumed by the checkpoint
        }
        let failure = if rec.epoch != engine.epoch() + 1 {
            Some(format!(
                "WAL replay gap: next record is epoch {}, engine is at {}",
                rec.epoch,
                engine.epoch()
            ))
        } else {
            let mut session = engine.begin_session();
            let outcome = match &rec.op {
                WriterOp::Propagate => session.propagate(),
                WriterOp::Update(deltas) => session.update_timing(deltas),
            };
            // A logged op failing on replay means the artifacts disagree
            // with the engine (e.g. deltas for a different design that
            // somehow passed the epoch chain). Stop: serving a partial
            // timeline with an incident beats serving a wrong one.
            match outcome.and_then(|_| session.commit()) {
                Ok(epoch) => {
                    debug_assert_eq!(epoch, rec.epoch, "replay must reproduce the logged epoch");
                    report.replayed += 1;
                    None
                }
                Err(e @ InstaError::Runtime(_)) => {
                    return Err(engine_failure(&format!("WAL epoch {}", rec.epoch), e))
                }
                Err(e) => Some(format!("WAL replay failed at epoch {}: {e}", rec.epoch)),
            }
        };
        if let Some(why) = failure {
            cut = Some((*segment, rec.offset));
            let dropped = segments.len() - segment - 1;
            report.incidents.push(incident(format!(
                "{why} — replay stopped; log cut at byte {} of {}: {} record(s) and {dropped} \
                 later segment(s) dropped",
                rec.offset,
                name(*segment),
                records.len() - i
            )));
            break;
        }
    }

    if let Some((at, keep)) = cut {
        cut_log(&segments, at, keep)?;
        report.wal_truncated = true;
        rename_emptied_tail(&cfg.dir, engine.epoch() + 1)?;
    }
    report.recovered_epoch = engine.epoch();
    Ok(report)
}
