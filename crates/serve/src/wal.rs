//! The durability layer's on-disk formats and writer: a checksummed,
//! length-framed write-ahead log of committed writer ops plus periodic
//! binary checkpoints of the committed engine state.
//!
//! # File formats (version 1)
//!
//! **WAL** (`wal.log`): an 12-byte header — magic `INSTAWAL`, `u32` LE
//! format version — followed by records, each framed as
//!
//! ```text
//! [u32 LE payload len][u32 LE crc32(payload)][payload]
//! payload = [u64 LE commit epoch][WriterOp bytes]   (insta_engine::persist)
//! ```
//!
//! A record is appended (and, by default, `fdatasync`'d) *before* the
//! session commits and the snapshot publishes, so the log is always a
//! superset of what any client ever observed. A torn tail — short header,
//! short body, or CRC mismatch — marks the end of the committed history;
//! recovery truncates it with a typed incident and never replays bytes
//! past it.
//!
//! # Sync pacing
//!
//! With fsync on, the log keeps a commit schedule of one `fdatasync` per
//! [`DurabilityConfig::sync_interval`]. An append that arrives ahead of
//! the schedule sleeps until its slot. One that arrives late goes at once
//! and the following appends catch the schedule up: all of the time a
//! checkpoint write took (the log's own I/O), and up to
//! [`SYNC_CATCH_UP`] slots of any other delay, so a stall before the
//! writer got going cannot turn into a long unpaced burst.
//!
//! On ext4 every size-changing `fdatasync` is a filesystem-wide journal
//! commit, and once a session update costs a few hundred microseconds a
//! closed-loop writer would otherwise issue one as fast as the device and
//! the scheduler happen to allow — a rate that moves with every neighbour
//! on the disk and the cores. Pacing makes the durable commit cadence a
//! property of the configuration: the commit work (well under a
//! millisecond) finishes inside its slot with room to spare, so CPU and
//! device jitter are absorbed by the wait instead of showing up in the
//! commit rate. `sync_interval = 0` is fsync-per-append as fast as the
//! caller can go.
//!
//! **Checkpoint** (`checkpoint-<epoch:020>.ckpt`): magic `INSTACKP`,
//! `u32` LE version, `u32` LE crc32(payload), `u64` LE payload length,
//! then the payload:
//!
//! ```text
//! payload = [u64 LE state len][EngineDurableState bytes][TimingSnapshot bytes]
//! ```
//!
//! The embedded snapshot is a *self-verification artifact*: recovery
//! restores the durable state, re-propagates, and compares slack bits
//! against the stored snapshot — a checkpoint from a different design or
//! engine configuration is detected as stale instead of silently serving
//! wrong timing. Checkpoints are written to a temp file, fsync'd, renamed
//! into place, and the directory fsync'd, so a crash mid-checkpoint
//! leaves at most an ignorable `.tmp`. After a successful checkpoint the
//! WAL is truncated back to its header (every logged record is ≤ the
//! checkpoint epoch, hence subsumed); a crash between rename and truncate
//! is benign because replay skips records at or below the restored epoch.

use insta_engine::{encode_snapshot, EngineDurableState, TimingSnapshot, WriterOp};
use insta_support::fault::{CrashPoint, CrashSwitch};
use insta_support::hash::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 8] = b"INSTAWAL";
/// Checkpoint file magic.
pub const CKPT_MAGIC: &[u8; 8] = b"INSTACKP";
/// On-disk format generation shared by both artifacts.
///
/// v2: the engine-counters codec grew the MCMM fields
/// (`mcmm_evaluations` / `mcmm_corner_lanes` / `mcmm_deduped`), so v1
/// checkpoints decode short and are rejected rather than misread.
pub const FORMAT_VERSION: u32 = 2;
/// WAL header bytes: magic + version.
pub const WAL_HEADER_LEN: u64 = 12;
/// Largest accepted WAL record payload — a corrupted length field must
/// not drive a multi-gigabyte allocation.
const MAX_RECORD_BYTES: u32 = 1 << 30;
/// Slots of schedule debt (beyond checkpoint time) that late appends may
/// catch up at full speed before the schedule is re-based on "now".
pub const SYNC_CATCH_UP: u32 = 8;

/// Durability configuration for a daemon.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `checkpoint-*.ckpt` (created on
    /// open).
    pub dir: PathBuf,
    /// `fdatasync` every WAL append before the commit publishes (the
    /// default). Turning this off trades the power-loss guarantee for
    /// speed — a kill -9 still loses nothing, but a host crash may.
    pub fsync: bool,
    /// Sustained spacing of WAL `fdatasync`s (see the module docs, "Sync
    /// pacing"); zero = no pacing. Ignored when `fsync` is off.
    pub sync_interval: Duration,
    /// Commits between checkpoints (`0` = never checkpoint; the WAL then
    /// grows until restart).
    pub checkpoint_every: u64,
    /// Newest checkpoints retained after a successful new one (≥ 1).
    pub keep_checkpoints: usize,
    /// Test hook: a crash injector that kills the durability layer at an
    /// armed [`CrashPoint`] — writes after the trip vanish, exactly as
    /// after a `kill -9`.
    pub crash: Option<Arc<CrashSwitch>>,
}

impl DurabilityConfig {
    /// Durability in `dir` with the production defaults: fsync on and
    /// paced at one per 3 ms, a checkpoint every 64 commits, two
    /// checkpoints retained.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: true,
            sync_interval: Duration::from_millis(3),
            checkpoint_every: 64,
            keep_checkpoints: 2,
            crash: None,
        }
    }
}

/// Live durability counters, surfaced under `stats.durability`.
#[derive(Debug, Default)]
pub struct DurabilityStats {
    /// WAL records appended.
    pub wal_records: AtomicU64,
    /// WAL bytes appended (headers included).
    pub wal_bytes: AtomicU64,
    /// `fdatasync` calls issued.
    pub fsyncs: AtomicU64,
    /// WAL appends that failed (each rolled back its session).
    pub wal_append_failures: AtomicU64,
    /// Checkpoints successfully renamed into place.
    pub checkpoints_written: AtomicU64,
    /// Checkpoint attempts that failed (commit durability unaffected —
    /// the WAL still holds the records).
    pub checkpoint_failures: AtomicU64,
    /// Epoch of the newest successful checkpoint (0 = none yet).
    pub last_checkpoint_epoch: AtomicU64,
    /// Microseconds appends spent waiting for their sync slot.
    pub sync_wait_us: AtomicU64,
}

impl DurabilityStats {
    /// Snapshot rows for the stats surface.
    pub fn rows(&self) -> [(&'static str, u64); 8] {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            ("wal_records", g(&self.wal_records)),
            ("wal_bytes", g(&self.wal_bytes)),
            ("fsyncs", g(&self.fsyncs)),
            ("wal_append_failures", g(&self.wal_append_failures)),
            ("checkpoints_written", g(&self.checkpoints_written)),
            ("checkpoint_failures", g(&self.checkpoint_failures)),
            ("last_checkpoint_epoch", g(&self.last_checkpoint_epoch)),
            ("sync_wait_us", g(&self.sync_wait_us)),
        ]
    }
}

/// The sync schedule (module docs, "Sync pacing").
#[derive(Debug, Default)]
struct Pace {
    /// Slot of the next `fdatasync` (`None` until the first one).
    next: Option<Instant>,
    /// Checkpoint-write time not yet caught up.
    checkpoint_debt: Duration,
}

/// The append side of the durability layer. All mutating calls happen
/// under the server's writer lock; the internal mutex only guards the
/// file handle against stats scrapes.
#[derive(Debug)]
pub struct Durability {
    cfg: DurabilityConfig,
    wal: Mutex<File>,
    /// Set when the crash injector trips: every later durable write is
    /// dropped, simulating the instant after power loss.
    dead: AtomicBool,
    /// Commit attempts seen (the crash injector's index space).
    commits: AtomicU64,
    /// Commits since the last checkpoint.
    since_checkpoint: AtomicU64,
    /// The sync schedule.
    pace: Mutex<Pace>,
    /// Live counters.
    pub stats: DurabilityStats,
}

/// The WAL file path under a durability directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    // Zero-padded so lexicographic order is epoch order.
    dir.join(format!("checkpoint-{epoch:020}.ckpt"))
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn encode_record(epoch: u64, op: &WriterOp) -> Vec<u8> {
    let mut payload = epoch.to_le_bytes().to_vec();
    payload.extend_from_slice(&op.encode());
    let mut rec = Vec::with_capacity(payload.len() + 8);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

impl Durability {
    /// Opens (creating as needed) the durability directory and WAL for
    /// appending. Run [`crate::recovery::recover`] *first* — it truncates
    /// any torn tail; this open only validates/initializes the header.
    pub fn open(cfg: DurabilityConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        let path = wal_path(&cfg.dir);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        if len < WAL_HEADER_LEN {
            // Fresh (or sub-header, which recovery already judged
            // worthless): write a clean header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            file.sync_data()?;
            fsync_dir(&cfg.dir)?;
        }
        Ok(Durability {
            cfg,
            wal: Mutex::new(file),
            dead: AtomicBool::new(false),
            commits: AtomicU64::new(0),
            since_checkpoint: AtomicU64::new(0),
            pace: Mutex::new(Pace::default()),
            stats: DurabilityStats::default(),
        })
    }

    /// Whether fsync-per-append is on.
    pub fn fsync_enabled(&self) -> bool {
        self.cfg.fsync
    }

    /// Whether the crash injector has tripped (test observability).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn lock_wal(&self) -> MutexGuard<'_, File> {
        self.wal.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_pace(&self) -> MutexGuard<'_, Pace> {
        self.pace.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn fire(&self, point: CrashPoint, idx: u64) -> bool {
        if let Some(sw) = &self.cfg.crash {
            if sw.fire(point, idx) {
                self.dead.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Waits for this append's slot on the sync schedule and books the
    /// next one. The schedule is a deadline, not a gap: a sleep that
    /// overshoots shortens the next wait, so the sustained spacing is
    /// `sync_interval` exactly whenever the caller keeps up.
    fn pace_sync(&self) {
        let every = self.cfg.sync_interval;
        if !self.cfg.fsync || every.is_zero() {
            return;
        }
        let mut pace = self.lock_pace();
        let now = Instant::now();
        let floor = now
            .checked_sub(every * SYNC_CATCH_UP + pace.checkpoint_debt)
            .unwrap_or(now);
        let slot = pace.next.map_or(now, |t| t.max(floor));
        if let Some(wait) = slot.checked_duration_since(now) {
            std::thread::sleep(wait);
            self.stats
                .sync_wait_us
                .fetch_add(wait.as_micros() as u64, Ordering::Relaxed);
            pace.checkpoint_debt = Duration::ZERO;
        }
        pace.next = Some(slot + every);
    }

    /// Makes one commit durable *before* it happens: appends the framed,
    /// checksummed record and (by default) `fdatasync`s it. `epoch` is
    /// the epoch the imminent commit will produce. On error the caller
    /// must roll the session back — nothing may publish.
    pub fn log_commit(&self, epoch: u64, op: &WriterOp) -> io::Result<()> {
        let idx = self.commits.fetch_add(1, Ordering::Relaxed);
        if self.is_dead() || self.fire(CrashPoint::BeforeWalAppend, idx) {
            return Ok(());
        }
        let rec = encode_record(epoch, op);
        self.pace_sync();
        let mut f = self.lock_wal();
        let r = (|| -> io::Result<()> {
            f.seek(SeekFrom::End(0))?;
            if self.fire(CrashPoint::MidWalAppend, idx) {
                // Simulated power loss mid-write: a torn prefix of the
                // record reaches the platter, then the layer dies.
                let torn = (rec.len() * 2 / 3).clamp(1, rec.len() - 1);
                f.write_all(&rec[..torn])?;
                f.sync_data()?;
                return Ok(());
            }
            f.write_all(&rec)?;
            if self.cfg.fsync {
                f.sync_data()?;
                self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            self.stats.wal_records.fetch_add(1, Ordering::Relaxed);
            self.stats
                .wal_bytes
                .fetch_add(rec.len() as u64, Ordering::Relaxed);
            self.fire(CrashPoint::AfterWalAppend, idx);
            Ok(())
        })();
        if r.is_err() {
            self.stats.wal_append_failures.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Advances the checkpoint cadence by one committed epoch and says
    /// whether a checkpoint is due *now*. Callers gate the (expensive)
    /// `EngineDurableState::capture` behind this so commits between
    /// checkpoints never pay for a full state clone.
    pub fn checkpoint_due(&self) -> bool {
        if self.is_dead() || self.cfg.checkpoint_every == 0 {
            return false;
        }
        let n = self.since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
        if n < self.cfg.checkpoint_every {
            return false;
        }
        self.since_checkpoint.store(0, Ordering::Relaxed);
        true
    }

    /// Writes a checkpoint of the epoch just committed. Called after
    /// publication, still under the writer lock, only when
    /// [`Durability::checkpoint_due`] said so. Returns the checkpointed
    /// epoch when one was written.
    ///
    /// Failure here never un-commits anything — the WAL still holds every
    /// record — so callers record an incident and carry on.
    pub fn write_checkpoint(
        &self,
        state: &EngineDurableState,
        snapshot: &TimingSnapshot,
    ) -> io::Result<Option<u64>> {
        if self.is_dead() {
            return Ok(None);
        }
        let idx = self.commits.load(Ordering::Relaxed).saturating_sub(1);
        let epoch = state.epoch;
        let started = Instant::now();
        let r = (|| -> io::Result<Option<u64>> {
            let image = encode_checkpoint(state, snapshot);
            let tmp = self.cfg.dir.join(format!("checkpoint-{epoch:020}.tmp"));
            if self.fire(CrashPoint::MidCheckpoint, idx) {
                // Crash mid-checkpoint: a partial temp file survives; the
                // real checkpoint never lands.
                let torn = (image.len() / 2).max(1);
                let mut f = File::create(&tmp)?;
                f.write_all(&image[..torn])?;
                f.sync_data()?;
                return Ok(None);
            }
            {
                let mut f = File::create(&tmp)?;
                f.write_all(&image)?;
                f.sync_data()?;
            }
            let dst = checkpoint_path(&self.cfg.dir, epoch);
            std::fs::rename(&tmp, &dst)?;
            fsync_dir(&self.cfg.dir)?;
            self.stats.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            self.stats
                .last_checkpoint_epoch
                .store(epoch, Ordering::Relaxed);
            if self.fire(CrashPoint::AfterCheckpointBeforeTruncate, idx) {
                return Ok(Some(epoch));
            }
            // Every logged record is ≤ the checkpoint epoch: subsumed.
            {
                let f = self.lock_wal();
                f.set_len(WAL_HEADER_LEN)?;
                if self.cfg.fsync {
                    f.sync_data()?;
                }
            }
            self.prune_checkpoints()?;
            Ok(Some(epoch))
        })();
        if r.is_err() {
            self.stats.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.lock_pace().checkpoint_debt += started.elapsed();
        r
    }

    fn prune_checkpoints(&self) -> io::Result<()> {
        let keep = self.cfg.keep_checkpoints.max(1);
        let mut all = list_checkpoints(&self.cfg.dir)?;
        for (_epoch, path) in all.drain(..).skip(keep) {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The epoch this commit produced.
    pub epoch: u64,
    /// The logged writer operation.
    pub op: WriterOp,
}

/// Damage found at the WAL tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDamage {
    /// Byte offset of the first bad record (= the valid prefix length).
    pub offset: u64,
    /// What was wrong.
    pub message: String,
}

/// The result of scanning a WAL file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix — what a repair truncates to.
    pub valid_bytes: u64,
    /// Tail damage, if any (`None` = the whole file is sound).
    pub damage: Option<WalDamage>,
}

/// Scans a WAL file, validating framing and per-record CRC. A missing or
/// zero-length file is a valid empty log. Damage never aborts the scan
/// result: the valid prefix is returned alongside the typed damage.
pub fn scan_wal(path: &Path) -> io::Result<WalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e),
    }
    if bytes.is_empty() {
        return Ok(WalScan::default());
    }
    let mut scan = WalScan::default();
    if bytes.len() < WAL_HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
        scan.damage = Some(WalDamage {
            offset: 0,
            message: "bad or torn WAL header (wrong magic)".to_owned(),
        });
        return Ok(scan);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        scan.damage = Some(WalDamage {
            offset: 0,
            message: format!("unsupported WAL format version {version}"),
        });
        return Ok(scan);
    }
    let mut pos = WAL_HEADER_LEN as usize;
    scan.valid_bytes = pos as u64;
    let damage = |pos: usize, message: String| {
        Some(WalDamage {
            offset: pos as u64,
            message,
        })
    };
    while pos < bytes.len() {
        let rest = bytes.len() - pos;
        if rest < 8 {
            scan.damage = damage(pos, format!("torn record header ({rest} of 8 bytes)"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            scan.damage = damage(pos, format!("implausible record length {len}"));
            break;
        }
        let len = len as usize;
        if rest - 8 < len {
            scan.damage = damage(
                pos,
                format!("torn record body ({} of {len} bytes)", rest - 8),
            );
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        let actual = crc32(payload);
        if actual != crc {
            scan.damage = damage(
                pos,
                format!("record checksum mismatch (stored {crc:#010x}, computed {actual:#010x})"),
            );
            break;
        }
        if payload.len() < 8 {
            scan.damage = damage(pos, "record payload shorter than its epoch".to_owned());
            break;
        }
        let epoch = u64::from_le_bytes(payload[..8].try_into().unwrap());
        match WriterOp::decode(&payload[8..]) {
            Ok(op) => scan.records.push(WalRecord { epoch, op }),
            Err(e) => {
                scan.damage = damage(pos, format!("undecodable record payload: {e}"));
                break;
            }
        }
        pos += 8 + len;
        scan.valid_bytes = pos as u64;
    }
    Ok(scan)
}

/// Physically truncates a damaged WAL to its valid prefix (a sub-header
/// prefix is cut to zero; the next [`Durability::open`] rewrites the
/// header).
pub fn truncate_wal(path: &Path, valid_bytes: u64) -> io::Result<()> {
    let keep = if valid_bytes < WAL_HEADER_LEN {
        0
    } else {
        valid_bytes
    };
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(keep)?;
    f.sync_data()?;
    Ok(())
}

/// A decoded checkpoint: the durable engine state plus the committed
/// snapshot stored for self-verification.
#[derive(Debug)]
pub struct CheckpointImage {
    /// The restorable engine state.
    pub state: EngineDurableState,
    /// The snapshot as committed — recovery re-derives it and compares
    /// bits to detect stale checkpoints.
    pub snapshot: TimingSnapshot,
}

/// Encodes a checkpoint file image (header + checksummed payload).
pub fn encode_checkpoint(state: &EngineDurableState, snapshot: &TimingSnapshot) -> Vec<u8> {
    let state_bytes = state.encode();
    let snap_bytes = encode_snapshot(snapshot);
    let mut payload = Vec::with_capacity(8 + state_bytes.len() + snap_bytes.len());
    payload.extend_from_slice(&(state_bytes.len() as u64).to_le_bytes());
    payload.extend_from_slice(&state_bytes);
    payload.extend_from_slice(&snap_bytes);
    let mut image = Vec::with_capacity(payload.len() + 24);
    image.extend_from_slice(CKPT_MAGIC);
    image.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    image.extend_from_slice(&crc32(&payload).to_le_bytes());
    image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    image.extend_from_slice(&payload);
    image
}

/// Loads and fully validates one checkpoint file. The error is a
/// human-readable reason suitable for a `ServiceIncident`.
pub fn load_checkpoint(path: &Path) -> Result<CheckpointImage, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    if bytes.len() < 24 || &bytes[..8] != CKPT_MAGIC {
        return Err("bad or torn checkpoint header (wrong magic)".to_owned());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(format!("unsupported checkpoint format version {version}"));
    }
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    if bytes.len() - 24 != len {
        return Err(format!(
            "checkpoint payload length mismatch (declared {len}, have {})",
            bytes.len() - 24
        ));
    }
    let payload = &bytes[24..];
    let actual = crc32(payload);
    if actual != crc {
        return Err(format!(
            "checkpoint checksum mismatch (stored {crc:#010x}, computed {actual:#010x})"
        ));
    }
    if payload.len() < 8 {
        return Err("checkpoint payload shorter than its state length".to_owned());
    }
    let state_len = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
    if payload.len() - 8 < state_len {
        return Err(format!(
            "checkpoint state length {state_len} exceeds payload ({})",
            payload.len() - 8
        ));
    }
    let state = EngineDurableState::decode(&payload[8..8 + state_len])
        .map_err(|e| format!("checkpoint state: {e}"))?;
    let snapshot = insta_engine::decode_snapshot(&payload[8 + state_len..])
        .map_err(|e| format!("checkpoint snapshot: {e}"))?;
    Ok(CheckpointImage { state, snapshot })
}

/// Checkpoint files in `dir`, newest (highest epoch) first. Temp files
/// and foreign names are ignored; a missing directory is empty.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(epoch) = name
            .strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((epoch, entry.path()));
    }
    out.sort_by(|a, b| b.0.cmp(&a.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(name: &str, fsync: bool, sync_interval: Duration) -> (Durability, PathBuf) {
        let dir = std::env::temp_dir().join(format!("insta-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig {
            fsync,
            sync_interval,
            ..DurabilityConfig::new(&dir)
        };
        (Durability::open(cfg).unwrap(), dir)
    }

    fn append(d: &Durability, n: u64) -> Duration {
        let t = Instant::now();
        for epoch in 1..=n {
            d.log_commit(epoch, &WriterOp::Propagate).unwrap();
        }
        t.elapsed()
    }

    #[test]
    fn paced_syncs_keep_the_interval_and_book_their_waits() {
        let every = Duration::from_millis(2);
        let (d, dir) = open("paced", true, every);
        // The first append has no slot to wait for; the other nine do.
        assert!(append(&d, 10) >= every * 9);
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(g(&d.stats.fsyncs), 10);
        assert!(g(&d.stats.sync_wait_us) > 0);
        assert_eq!(scan_wal(&wal_path(&dir)).unwrap().records.len(), 10);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_late_append_catches_up_without_waiting() {
        let every = Duration::from_millis(20);
        let (d, dir) = open("late", true, every);
        append(&d, 1);
        // Three slots pass idle: the next three appends are behind
        // schedule and go at once; once the schedule is caught up the
        // appends wait again.
        std::thread::sleep(every * 3);
        let before = d.stats.sync_wait_us.load(Ordering::Relaxed);
        append(&d, 3);
        assert_eq!(d.stats.sync_wait_us.load(Ordering::Relaxed), before);
        append(&d, 8);
        assert!(d.stats.sync_wait_us.load(Ordering::Relaxed) > before);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pacing_is_off_at_zero_and_without_fsync() {
        for (name, fsync, every) in [
            ("zero", true, Duration::ZERO),
            ("nosync", false, Duration::from_secs(1)),
        ] {
            let (d, dir) = open(name, fsync, every);
            assert!(append(&d, 5) < Duration::from_secs(1));
            assert_eq!(d.stats.sync_wait_us.load(Ordering::Relaxed), 0);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
