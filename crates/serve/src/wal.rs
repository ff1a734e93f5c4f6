//! The durability layer's on-disk formats and writer: a checksummed,
//! length-framed write-ahead log of committed writer ops, kept in
//! preallocated segments, plus periodic binary checkpoints of the
//! committed engine state written by a background thread.
//!
//! # File formats (version 4)
//!
//! **WAL segments** (`wal-<first epoch:020>.seg`): a fixed-size file
//! ([`SEGMENT_BYTES`]; a record too large for one gets a segment of its
//! own size), created zero-filled with a 12-byte header — magic
//! `INSTAWAL`, `u32` LE format version — and fsynced *before* it gets its
//! name. Records follow the header, each framed as
//!
//! ```text
//! [u32 LE payload len][u32 LE crc32(payload)][payload]
//! payload = [u64 LE commit epoch][WriterOp bytes]   (insta_engine::persist)
//! ```
//!
//! A record is written at the log's tracked offset (an overwrite of
//! blocks that were written when the segment was made, so neither the
//! file size nor its block map changes and the `fdatasync` is a data
//! flush, not a filesystem journal commit) and, by default, `fdatasync`'d
//! *before* the session commits and the snapshot publishes, so the log is
//! always a superset of what any client ever observed.
//!
//! **End of log.** Within a segment the log ends at a zero `(len, crc)`
//! header or at the end of the file, with nothing but zeros after it:
//! that is a *clean* end, no incident, nothing to repair. A torn or
//! corrupt record — short header, short body, CRC mismatch, bytes after
//! the end — is damage: recovery zeroes the rest of that segment, drops
//! any later segment, records a typed incident and never replays a byte
//! past the damage. The segment's name is the epoch of its first record
//! (of the first record it *may* hold, for the one segment
//! [`Durability::open`] makes in an empty directory), so name order is
//! log order and every record of a segment is older than the next
//! segment's name.
//!
//! **Rotation and retire.** The writer moves to the next segment when a
//! checkpoint is handed to the background writer (every record so far is
//! ≤ the checkpoint's epoch) and when a record does not fit. The next
//! segment is a spare the background thread keeps ready
//! (`wal-spare.seg`, its directory entry durable): rotation is one
//! rename — no write, no fsync — and only when no spare is ready is a
//! segment made, and the directory fsynced, on the commit path. The
//! rename becomes durable with the next directory fsync (the checkpoint
//! that follows does one); should the power fail first, the records
//! written meanwhile are found under the spare's name, which is why a
//! spare that holds records counts as a segment ([`list_segments`]). Once
//! the checkpoint of epoch *E* is durable, segments whose successor is
//! named ≤ *E + 1* hold nothing recovery needs and are deleted. The last
//! segment is never deleted.
//!
//! **Checkpoint** (`checkpoint-<epoch:020>.ckpt`): magic `INSTACKP`,
//! `u32` LE version, `u32` LE crc32(payload), `u64` LE payload length,
//! then the payload:
//!
//! ```text
//! payload = [u64 LE state len][EngineDurableState bytes]
//!           [u64 LE n][n × f64 LE bits: the published report's slacks]
//! ```
//!
//! The slacks are a *self-verification artifact* — nothing else of the
//! published snapshot is stored, and an epoch without a report stores
//! `n = 0`: recovery restores the durable state, re-propagates, and
//! compares slack bits against the stored ones — a checkpoint from a
//! different design or engine configuration is detected as stale instead
//! of silently serving wrong timing. A checkpoint is **streamed** into a
//! temp file through a 64 KiB buffer (the ~1.2 MB image is never built in
//! memory: with it and its parts in a second thread's malloc arena the
//! daemon's peak RSS broke its bound), the file `fdatasync`'d every
//! 256 KiB so the log's own sync never queues behind one multi-megabyte
//! flush, the header — which needs the payload's CRC — written last, then
//! the file renamed into place and the directory fsync'd. A crash mid-checkpoint leaves at
//! most an ignorable `.tmp`.
//!
//! # The background checkpoint writer
//!
//! One thread per [`Durability`], started by `open` and joined by `Drop`
//! (which first lets it finish a waiting checkpoint), so a dropped layer
//! leaves its directory at rest. The commit path, under the server's
//! writer lock, does only the cheap part — `EngineDurableState::capture`
//! and an `Arc` clone of the snapshot just published — and leaves both in
//! a single-slot mailbox ([`Durability::submit_checkpoint`]). If the
//! thread is still busy the newer capture replaces the waiting one
//! (`checkpoints_superseded`); the writer never blocks, the WAL covers
//! the gap. A failed or panicked checkpoint is a `checkpoint_failures`
//! bump and a message the server moves into its incident ring
//! ([`Durability::take_incidents`]); commits carry on.
//!
//! # Sync pacing
//!
//! With fsync on, the log keeps a commit schedule of one `fdatasync` per
//! [`DurabilityConfig::sync_interval`]. An append that arrives ahead of
//! the schedule sleeps until its slot. One that arrives late goes at once
//! and the following appends catch the schedule up, by at most
//! [`SYNC_CATCH_UP`] of wall time: a stall before the writer got going
//! cannot turn into a long unpaced burst.
//!
//! The slot exists because a closed-loop writer would otherwise issue
//! syncs as fast as the device and the scheduler happen to allow — a rate
//! that moves with every neighbour on the disk and the cores. Pacing
//! makes the durable commit cadence a property of the configuration: the
//! commit work finishes inside its slot with room to spare, so CPU and
//! device jitter are absorbed by the wait instead of showing up in the
//! commit rate. `sync_interval = 0` is fsync-per-append as fast as the
//! caller can go.

use insta_engine::{ByteSink, Dec, Enc, EngineDurableState, IncidentLog, TimingSnapshot, WriterOp};
use insta_support::fault::{CrashPoint, CrashSwitch};
use insta_support::hash::{crc32, Crc32};
use insta_support::obs::LatencyHistogram;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// WAL segment magic.
pub const WAL_MAGIC: &[u8; 8] = b"INSTAWAL";
/// Checkpoint file magic.
pub const CKPT_MAGIC: &[u8; 8] = b"INSTACKP";
/// On-disk format generation shared by both artifacts.
///
/// v2: the engine-counters codec grew the MCMM fields. v3: the log is a
/// sequence of preallocated segments (`wal-*.seg`) instead of one
/// growing `wal.log`; checkpoints kept their layout. v4: a checkpoint
/// stores the published report's slacks instead of the whole snapshot
/// image. Artifacts of another version are rejected with a typed
/// incident, not misread.
pub const FORMAT_VERSION: u32 = 4;
/// Segment header bytes: magic + version.
pub const SEGMENT_HEADER_LEN: u64 = 12;
/// Size of a WAL segment. A checkpoint rotates the log every
/// `checkpoint_every` commits (64 × ~0.3 KB on block-5; 64 hundred-delta
/// batches are 230 KB), so a segment of this size is rarely filled, and
/// one that is rotates early. Every rotation costs a segment's worth of
/// zeros written off the commit path, and the first one is made by
/// `open`: 0.7 ms at this size on the reference box, 1.7 ms at 1 MiB.
pub const SEGMENT_BYTES: u64 = 256 << 10;
/// Largest accepted WAL record payload — a corrupted length field must
/// not drive a multi-gigabyte allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 30;
/// How far behind its schedule the log may be and still catch up at full
/// speed; a larger debt is forgiven (the schedule is re-based on "now").
pub const SYNC_CATCH_UP: Duration = Duration::from_millis(16);
/// Checkpoint header bytes: magic, version, CRC, payload length.
const CKPT_HEADER_LEN: u64 = 24;
/// The checkpoint stream's buffer, and how much it writes between syncs.
const CKPT_BUF_BYTES: usize = 64 << 10;
const CKPT_SYNC_BYTES: usize = 256 << 10;
/// Messages kept for [`Durability::take_incidents`] when nobody drains.
const INCIDENT_BACKLOG: usize = 64;
/// Newest checkpoints retained after a successful new one: the fallback
/// when the newest turns out stale.
const KEEP_CHECKPOINTS: usize = 2;

/// Durability configuration for a daemon.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal-*.seg` and `checkpoint-*.ckpt` (created on
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
    /// Test hook: a crash injector that kills the durability layer at an
    /// armed [`CrashPoint`] — writes after the trip vanish, exactly as
    /// after a `kill -9`.
    pub crash: Option<Arc<CrashSwitch>>,
}

impl DurabilityConfig {
    /// Durability in `dir` with the production defaults: fsync on and
    /// paced at one per millisecond, a checkpoint every 64 commits, two
    /// checkpoints retained.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: true,
            sync_interval: Duration::from_micros(1000),
            checkpoint_every: 64,
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
    /// `fdatasync` calls issued for WAL appends.
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
    /// 1 while a checkpoint waits in the mailbox or is being written.
    pub checkpoint_inflight: AtomicU64,
    /// Captures replaced in the mailbox by a newer one before the
    /// background writer got to them.
    pub checkpoints_superseded: AtomicU64,
    /// WAL segments on disk (the active one included, the spare not).
    pub wal_segments: AtomicU64,
    /// How long the newest successful checkpoint took to write (ms).
    pub last_checkpoint_ms: AtomicU64,
    /// Latency of the WAL appends' `fdatasync`.
    pub fdatasync: LatencyHistogram,
}

impl DurabilityStats {
    /// The counters as `(name, value)` rows — the `stats.durability`
    /// surface after its `enabled` and `fsync` flags.
    pub fn rows(&self) -> [(&'static str, f64); 15] {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        [
            ("wal_records", g(&self.wal_records)),
            ("wal_bytes", g(&self.wal_bytes)),
            ("fsyncs", g(&self.fsyncs)),
            ("wal_append_failures", g(&self.wal_append_failures)),
            ("checkpoints_written", g(&self.checkpoints_written)),
            ("checkpoint_failures", g(&self.checkpoint_failures)),
            ("last_checkpoint_epoch", g(&self.last_checkpoint_epoch)),
            ("sync_wait_us", g(&self.sync_wait_us)),
            ("checkpoint_inflight", g(&self.checkpoint_inflight)),
            ("checkpoints_superseded", g(&self.checkpoints_superseded)),
            ("wal_segments", g(&self.wal_segments)),
            ("last_checkpoint_ms", g(&self.last_checkpoint_ms)),
            ("fdatasync_p50_us", self.fdatasync.quantile_us(0.50) as f64),
            ("fdatasync_p99_us", self.fdatasync.quantile_us(0.99) as f64),
            ("fdatasync_max_us", self.fdatasync.max_us() as f64),
        ]
    }
}

/// The sync schedule (module docs, "Sync pacing"): the slot of the next
/// `fdatasync`, `None` until the first one.
#[derive(Debug, Default)]
struct Pace {
    next: Option<Instant>,
}

/// The active segment: appends go to `file` at `offset`.
#[derive(Debug)]
struct Log {
    file: File,
    offset: u64,
    /// The segment's size; a record that would pass it rotates the log.
    len: u64,
}

/// One captured checkpoint on its way to the background writer.
#[derive(Debug)]
struct Job {
    /// The commit the capture was taken after (the crash injector's
    /// index space).
    commit: u64,
    state: EngineDurableState,
    snapshot: Arc<TimingSnapshot>,
}

/// What the commit path and the background writer share.
#[derive(Debug, Default)]
struct Mailbox {
    /// The single slot: the newest capture not yet picked up.
    job: Option<Job>,
    /// The background writer is not parked: it is working, or about to
    /// look at the mailbox.
    busy: bool,
    /// `wal-spare.seg` is complete and unclaimed.
    spare_ready: bool,
    /// Set by `Drop`: finish the waiting job, then exit.
    shutdown: bool,
}

/// Everything but the thread handle; shared with the background writer.
#[derive(Debug)]
struct Core {
    cfg: DurabilityConfig,
    log: Mutex<Log>,
    /// Set when the crash injector trips: every later durable write is
    /// dropped, simulating the instant after power loss.
    dead: AtomicBool,
    /// Commit attempts seen (the crash injector's index space).
    commits: AtomicU64,
    /// Commits since the last checkpoint.
    since_checkpoint: AtomicU64,
    pace: Mutex<Pace>,
    stats: Arc<DurabilityStats>,
    mailbox: Mutex<Mailbox>,
    /// Wakes the background writer: a job, a spare to make, shutdown.
    work: Condvar,
    /// Wakes [`Durability::wait_idle`]: the writer found nothing to do.
    idle: Condvar,
    /// Failures of the background writer, until the server takes them.
    incidents: Mutex<IncidentLog<String>>,
    /// Test hook: the next checkpoint panics mid-stream.
    panic_next: AtomicBool,
}

/// The append side of the durability layer. All mutating calls happen
/// under the server's writer lock; the background checkpoint writer
/// shares only the mailbox, the counters and the directory.
#[derive(Debug)]
pub struct Durability {
    core: Arc<Core>,
    /// Live counters.
    pub stats: Arc<DurabilityStats>,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// The path of the segment whose first record is (at least) `first_epoch`.
pub fn segment_path(dir: &Path, first_epoch: u64) -> PathBuf {
    // Zero-padded so lexicographic order is epoch order.
    dir.join(format!("wal-{first_epoch:020}.seg"))
}

fn spare_path(dir: &Path) -> PathBuf {
    dir.join("wal-spare.seg")
}

fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("checkpoint-{epoch:020}.ckpt"))
}

pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under these locks leaves the data valid at each step,
    // so a poisoned lock is taken over rather than propagated.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// What a caught panic said.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

fn segment_header() -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut h = [0u8; SEGMENT_HEADER_LEN as usize];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

/// Writes zeros over `file` from `from` to `to`.
fn zero_fill(file: &File, from: u64, to: u64) -> io::Result<()> {
    let zeros = [0u8; 64 << 10];
    let mut at = from;
    while at < to {
        let n = zeros.len().min((to - at) as usize);
        file.write_all_at(&zeros[..n], at)?;
        at += n as u64;
    }
    Ok(())
}

/// Makes a complete segment at `path`: header, zeros up to `size`, all of
/// it *written* (not merely sized) and fsynced under a temp name first,
/// so that a file with a segment's name is always whole.
fn create_segment(path: &Path, size: u64) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let file = File::create(&tmp)?;
    file.write_all_at(&segment_header(), 0)?;
    zero_fill(&file, SEGMENT_HEADER_LEN, size)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
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
    /// Opens (creating as needed) the durability directory, the segment
    /// appends continue in, and the background checkpoint writer. Run
    /// [`crate::recovery::recover`] *first* — it repairs a damaged log;
    /// this open only finds the end of the last segment.
    pub fn open(cfg: DurabilityConfig) -> io::Result<Self> {
        let dir = &cfg.dir;
        std::fs::create_dir_all(dir)?;
        // Temp files are what a crash left of a checkpoint or a segment in
        // the making.
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = std::fs::remove_file(path);
            }
        }
        let spare = spare_path(dir);
        let mut segments = list_segments(dir)?;
        for (first, path) in &mut segments {
            if *path == spare {
                // A rotation's rename that never reached the directory.
                let named = segment_path(dir, *first);
                std::fs::rename(&spare, &named)?;
                fsync_dir(dir)?;
                *path = named;
            }
        }
        // Any other spare is from before the restart: an unused one, or the
        // torn first record of such a rotation. The background writer
        // makes a new one.
        let _ = std::fs::remove_file(&spare);
        let (path, offset) = match segments.last() {
            Some((_, path)) => {
                let valid = scan_segment(path)?.valid_bytes;
                if valid < SEGMENT_HEADER_LEN {
                    // Never stamped, or not repaired: start it over.
                    repair_segment(path, 0)?;
                }
                (path.clone(), valid.max(SEGMENT_HEADER_LEN))
            }
            None => {
                // The first record will be newer than any checkpoint.
                let newest = list_checkpoints(dir)?.first().map_or(0, |(e, _)| *e);
                let path = segment_path(dir, newest + 1);
                create_segment(&path, SEGMENT_BYTES)?;
                fsync_dir(dir)?;
                (path, SEGMENT_HEADER_LEN)
            }
        };
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        let stats = Arc::new(DurabilityStats::default());
        stats
            .wal_segments
            .store(segments.len().max(1) as u64, Ordering::Relaxed);
        let core = Arc::new(Core {
            cfg,
            log: Mutex::new(Log { file, offset, len }),
            dead: AtomicBool::new(false),
            commits: AtomicU64::new(0),
            since_checkpoint: AtomicU64::new(0),
            pace: Mutex::new(Pace::default()),
            stats: Arc::clone(&stats),
            mailbox: Mutex::new(Mailbox {
                busy: true,
                ..Mailbox::default()
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            incidents: Mutex::new(IncidentLog::with_capacity(INCIDENT_BACKLOG)),
            panic_next: AtomicBool::new(false),
        });
        let worker = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("insta-checkpoint".to_owned())
                .spawn(move || core.worker_loop())?
        };
        Ok(Durability {
            core,
            stats,
            worker: Some(worker),
        })
    }

    /// Whether fsync-per-append is on.
    pub fn fsync_enabled(&self) -> bool {
        self.core.cfg.fsync
    }

    /// Whether the crash injector has tripped (test observability).
    pub fn is_dead(&self) -> bool {
        self.core.is_dead()
    }

    /// Makes one commit durable *before* it happens: writes the framed,
    /// checksummed record at the end of the log and (by default)
    /// `fdatasync`s it. `epoch` is the epoch the imminent commit will
    /// produce. On error the caller must roll the session back — nothing
    /// may publish.
    pub fn log_commit(&self, epoch: u64, op: &WriterOp) -> io::Result<()> {
        self.core.log_commit(epoch, op)
    }

    /// Advances the checkpoint cadence by one committed epoch and says
    /// whether a checkpoint is due *now*. Callers gate the (expensive)
    /// `EngineDurableState::capture` behind this so commits between
    /// checkpoints never pay for a full state clone.
    pub fn checkpoint_due(&self) -> bool {
        let core = &self.core;
        if core.is_dead() || core.cfg.checkpoint_every == 0 {
            return false;
        }
        let n = core.since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
        if n < core.cfg.checkpoint_every {
            return false;
        }
        core.since_checkpoint.store(0, Ordering::Relaxed);
        true
    }

    /// Hands a checkpoint of the epoch just committed to the background
    /// writer and rotates the log, so the records the checkpoint covers
    /// end with their segment. Called after publication, still under the
    /// writer lock, only when [`Durability::checkpoint_due`] said so.
    /// Never blocks on the writer: a capture still waiting is replaced.
    pub fn submit_checkpoint(&self, state: EngineDurableState, snapshot: Arc<TimingSnapshot>) {
        self.core.submit_checkpoint(state, snapshot);
    }

    /// Writes a checkpoint of `state` now, on the calling thread: streams
    /// it to a temp file, renames it into place, retires the segments it
    /// covers and prunes old checkpoints. The background writer does this
    /// for every capture it is handed; returns the checkpointed epoch
    /// when one was written.
    ///
    /// Failure here never un-commits anything — the WAL still holds every
    /// record.
    pub fn write_checkpoint(
        &self,
        state: &EngineDurableState,
        snapshot: &TimingSnapshot,
    ) -> io::Result<Option<u64>> {
        let commit = self.core.commits.load(Ordering::Relaxed).saturating_sub(1);
        self.core.write_checkpoint(commit, state, snapshot)
    }

    /// Blocks until the background writer has nothing left to do: no
    /// checkpoint waiting or in progress, the spare segment made (or
    /// given up on). For tests and orderly hand-overs; the commit path
    /// never calls it.
    pub fn wait_idle(&self) {
        let core = &self.core;
        let mut mb = lock(&core.mailbox);
        while mb.job.is_some() || mb.busy {
            mb = core.idle.wait(mb).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Takes the background writer's failure messages recorded since the
    /// last call (each names the epoch it was for).
    pub fn take_incidents(&self) -> IncidentLog<String> {
        let fresh = IncidentLog::with_capacity(INCIDENT_BACKLOG);
        std::mem::replace(&mut *lock(&self.core.incidents), fresh)
    }

    /// Test hook: the next checkpoint the layer writes panics in the
    /// middle of its stream.
    #[doc(hidden)]
    pub fn debug_panic_next_checkpoint(&self) {
        self.core.panic_next.store(true, Ordering::SeqCst);
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        lock(&self.core.mailbox).shutdown = true;
        self.core.work.notify_all();
        if let Some(worker) = self.worker.take() {
            // The loop contains its jobs' panics; nothing to report here.
            let _ = worker.join();
        }
    }
}

impl Core {
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn fire(&self, point: CrashPoint, commit: u64) -> bool {
        if let Some(sw) = &self.cfg.crash {
            if sw.fire(point, commit) {
                self.dead.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    fn incident(&self, message: String) {
        lock(&self.incidents).record(message);
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
        let mut pace = lock(&self.pace);
        let now = Instant::now();
        let floor = now.checked_sub(SYNC_CATCH_UP).unwrap_or(now);
        let slot = pace.next.map_or(now, |t| t.max(floor));
        if let Some(wait) = slot.checked_duration_since(now) {
            std::thread::sleep(wait);
            self.stats
                .sync_wait_us
                .fetch_add(wait.as_micros() as u64, Ordering::Relaxed);
        }
        pace.next = Some(slot + every);
    }

    fn log_commit(&self, epoch: u64, op: &WriterOp) -> io::Result<()> {
        let commit = self.commits.fetch_add(1, Ordering::Relaxed);
        if self.is_dead() || self.fire(CrashPoint::BeforeWalAppend, commit) {
            return Ok(());
        }
        let rec = encode_record(epoch, op);
        let mut log = lock(&self.log);
        let full = log.offset + rec.len() as u64 > log.len;
        let r = (|| -> io::Result<()> {
            if full {
                // Ahead of the wait for the slot, which absorbs it.
                self.rotate(&mut log, commit, epoch, rec.len() as u64)?;
                if self.is_dead() {
                    return Ok(());
                }
            }
            self.pace_sync();
            if self.fire(CrashPoint::MidWalAppend, commit) {
                // Simulated power loss mid-write: a torn prefix of the
                // record reaches the platter, then the layer dies.
                let torn = (rec.len() * 2 / 3).clamp(1, rec.len() - 1);
                log.file.write_all_at(&rec[..torn], log.offset)?;
                log.file.sync_data()?;
                return Ok(());
            }
            // A failed write leaves the offset where it was: the next
            // attempt overwrites whatever part of this one landed.
            log.file.write_all_at(&rec, log.offset)?;
            if self.cfg.fsync {
                let t = Instant::now();
                log.file.sync_data()?;
                self.stats.fdatasync.record(t.elapsed());
                self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            log.offset += rec.len() as u64;
            self.stats.wal_records.fetch_add(1, Ordering::Relaxed);
            self.stats
                .wal_bytes
                .fetch_add(rec.len() as u64, Ordering::Relaxed);
            self.fire(CrashPoint::AfterWalAppend, commit);
            Ok(())
        })();
        if r.is_err() {
            self.stats
                .wal_append_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        if full {
            // The rotation used the spare up: time to make the next.
            self.work.notify_all();
        }
        r
    }

    /// Moves the log to a fresh segment named `first_epoch` with room for
    /// a record of `need` bytes: the spare if one is ready and large
    /// enough, else one made here. Never onto an existing segment — the
    /// rename would replace that file and the fsynced records in it: the
    /// log stays where it is (a record past the segment's end grows it),
    /// with an incident unless its segment is still empty (an oversized
    /// first record asks an empty segment for its own name).
    fn rotate(&self, log: &mut Log, commit: u64, first_epoch: u64, need: u64) -> io::Result<()> {
        let dir = &self.cfg.dir;
        let path = segment_path(dir, first_epoch);
        if path.exists() {
            if log.offset > SEGMENT_HEADER_LEN {
                self.incident(format!(
                    "WAL rotation refused: {} exists; the log stays in its segment",
                    path.display()
                ));
            }
            return Ok(());
        }
        let size = SEGMENT_BYTES.max(SEGMENT_HEADER_LEN + need);
        let took_spare = size == SEGMENT_BYTES && {
            let mut mb = lock(&self.mailbox);
            std::mem::take(&mut mb.spare_ready)
        };
        // The spare's own directory entry is durable, and recovery reads a
        // spare that holds records as the segment it was about to be named
        // (`list_segments`), so its rename needs no fsync here: the next
        // directory fsync anyone does carries it. A segment made on the
        // spot has no durable name yet.
        if !(took_spare && std::fs::rename(spare_path(dir), &path).is_ok()) {
            create_segment(&path, size)?;
            fsync_dir(dir)?;
        }
        if self.fire(CrashPoint::MidRotation, commit) {
            return Ok(());
        }
        *log = Log {
            file: OpenOptions::new().read(true).write(true).open(&path)?,
            offset: SEGMENT_HEADER_LEN,
            len: size,
        };
        self.stats.wal_segments.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn submit_checkpoint(&self, state: EngineDurableState, snapshot: Arc<TimingSnapshot>) {
        if self.is_dead() {
            return;
        }
        let commit = self.commits.load(Ordering::Relaxed).saturating_sub(1);
        {
            let mut log = lock(&self.log);
            // An empty segment has nothing to set apart.
            if log.offset > SEGMENT_HEADER_LEN {
                if let Err(e) = self.rotate(&mut log, commit, state.epoch + 1, 0) {
                    // The log just stays in its segment a while longer.
                    self.incident(format!("WAL rotation at epoch {} failed: {e}", state.epoch));
                }
            }
        }
        if self.is_dead() {
            return;
        }
        let job = Job {
            commit,
            state,
            snapshot,
        };
        {
            // The gauge moves with the slot, under the slot's lock.
            let mut mb = lock(&self.mailbox);
            if mb.job.replace(job).is_some() {
                self.stats
                    .checkpoints_superseded
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.stats.checkpoint_inflight.store(1, Ordering::Relaxed);
        }
        self.work.notify_all();
    }

    /// The background writer: checkpoints first, then the spare segment,
    /// until `Drop` says stop — after the waiting checkpoint, so that a
    /// dropped layer's directory holds the newest capture it was given.
    fn worker_loop(&self) {
        // A spare that could not be made is tried again after the next
        // wake-up, not in a loop; rotations make their own meanwhile.
        let mut spare_failed = false;
        let mut mb = lock(&self.mailbox);
        loop {
            if let Some(job) = mb.job.take() {
                drop(mb);
                self.run_job(&job);
                // The capture is freed before the slot is looked at again.
                drop(job);
                mb = lock(&self.mailbox);
                if mb.job.is_none() {
                    self.stats.checkpoint_inflight.store(0, Ordering::Relaxed);
                }
            } else if mb.shutdown {
                break;
            } else if !mb.spare_ready && !spare_failed && !self.is_dead() {
                drop(mb);
                // Ready only once its name is durable: a rotation renames
                // it without a directory fsync of its own.
                let made = create_segment(&spare_path(&self.cfg.dir), SEGMENT_BYTES)
                    .and_then(|()| fsync_dir(&self.cfg.dir));
                if let Err(e) = &made {
                    self.incident(format!("preparing the spare WAL segment failed: {e}"));
                }
                mb = lock(&self.mailbox);
                mb.spare_ready = made.is_ok();
                spare_failed = made.is_err();
            } else {
                mb.busy = false;
                self.idle.notify_all();
                mb = self.work.wait(mb).unwrap_or_else(|p| p.into_inner());
                mb.busy = true;
                spare_failed = false;
                // Woken by a commit that still has its reply to send, and
                // a long sleeper wakes with the scheduler's favour: step
                // aside once, the checkpoint is in no hurry.
                drop(mb);
                std::thread::yield_now();
                mb = lock(&self.mailbox);
            }
        }
        mb.busy = false;
        drop(mb);
        self.idle.notify_all();
    }

    fn run_job(&self, job: &Job) {
        let epoch = job.state.epoch;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.write_checkpoint(job.commit, &job.state, &job.snapshot)
        }));
        match outcome {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => self.incident(format!("checkpoint at epoch {epoch} failed: {e}")),
            Err(payload) => {
                let why = panic_message(payload.as_ref());
                self.stats
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
                self.incident(format!(
                    "checkpoint at epoch {epoch} failed: the writer panicked: {why}"
                ));
            }
        }
    }

    fn write_checkpoint(
        &self,
        commit: u64,
        state: &EngineDurableState,
        snapshot: &TimingSnapshot,
    ) -> io::Result<Option<u64>> {
        if self.is_dead() {
            return Ok(None);
        }
        let dir = &self.cfg.dir;
        let epoch = state.epoch;
        let started = Instant::now();
        let tmp = dir.join(format!("checkpoint-{epoch:020}.tmp"));
        let r = (|| -> io::Result<Option<u64>> {
            let mut stream = CheckpointStream::create(&tmp)?;
            let mut enc = Enc::to(&mut stream);
            enc.u64(state.encoded_len() as u64);
            state.encode_into(&mut enc);
            if self.fire(CrashPoint::MidCheckpointStream, commit) {
                // The writer dies mid-stream: the state is (partly) out,
                // the slacks and the header never follow.
                stream.flush()?;
                stream.file.sync_data()?;
                return Ok(None);
            }
            if self.panic_next.swap(false, Ordering::SeqCst) {
                panic!("injected checkpoint writer panic at epoch {epoch}");
            }
            enc.f64s(snapshot.report().map_or(&[], |r| &r.slacks));
            let (file, len) = stream.finish()?;
            if self.fire(CrashPoint::MidCheckpoint, commit) {
                // Crash before the fsync took: the header page reached the
                // platter, the tail of the payload did not. The real
                // checkpoint never lands.
                file.set_len((CKPT_HEADER_LEN + len) / 2)?;
                file.sync_data()?;
                return Ok(None);
            }
            drop(file);
            std::fs::rename(&tmp, checkpoint_path(dir, epoch))?;
            fsync_dir(dir)?;
            self.stats
                .checkpoints_written
                .fetch_add(1, Ordering::Relaxed);
            self.stats
                .last_checkpoint_epoch
                .fetch_max(epoch, Ordering::Relaxed);
            self.stats
                .last_checkpoint_ms
                .store(started.elapsed().as_millis() as u64, Ordering::Relaxed);
            if self.fire(CrashPoint::AfterCheckpointBeforeRetire, commit) {
                return Ok(Some(epoch));
            }
            self.retire_segments(epoch)?;
            self.prune_checkpoints()?;
            Ok(Some(epoch))
        })();
        if r.is_err() {
            self.stats
                .checkpoint_failures
                .fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::remove_file(&tmp);
        }
        r
    }

    /// Deletes the segments the durable checkpoint of `epoch` covers:
    /// those whose successor starts at or before `epoch + 1`. Goes by
    /// names alone, so it needs nothing from the commit path; the last
    /// segment — the one appends go to — has no successor and stays.
    fn retire_segments(&self, epoch: u64) -> io::Result<()> {
        let segments = list_segments(&self.cfg.dir)?;
        for pair in segments.windows(2) {
            if pair[1].0 <= epoch + 1 && std::fs::remove_file(&pair[0].1).is_ok() {
                self.stats.wal_segments.fetch_sub(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn prune_checkpoints(&self) -> io::Result<()> {
        let mut all = list_checkpoints(&self.cfg.dir)?;
        for (_epoch, path) in all.drain(..).skip(KEEP_CHECKPOINTS) {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// The checkpoint's temp file as an encoder sink: bytes collect in a
/// small buffer; a full buffer is checksummed, written, and every
/// [`CKPT_SYNC_BYTES`] synced. The first write error is kept and the rest
/// of the stream discarded; [`finish`](Self::finish) reports it.
struct CheckpointStream {
    file: File,
    buf: Vec<u8>,
    crc: Crc32,
    /// Payload bytes written so far.
    len: u64,
    unsynced: usize,
    err: Option<io::Error>,
}

impl CheckpointStream {
    fn create(path: &Path) -> io::Result<Self> {
        let mut file = File::create(path)?;
        // The header's place; its content needs the payload's checksum.
        file.write_all(&[0u8; CKPT_HEADER_LEN as usize])?;
        Ok(CheckpointStream {
            file,
            buf: Vec::with_capacity(CKPT_BUF_BYTES + 16),
            crc: Crc32::new(),
            len: 0,
            unsynced: 0,
            err: None,
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        let r = (|| -> io::Result<()> {
            self.crc.update(&self.buf);
            self.file.write_all(&self.buf)?;
            self.len += self.buf.len() as u64;
            self.unsynced += self.buf.len();
            if self.unsynced >= CKPT_SYNC_BYTES {
                self.file.sync_data()?;
                self.unsynced = 0;
            }
            Ok(())
        })();
        self.buf.clear();
        r
    }

    /// Writes what is buffered, then the header, and syncs. Returns the
    /// file and the payload length.
    fn finish(mut self) -> io::Result<(File, u64)> {
        if self.err.is_none() {
            self.err = self.flush().err();
        }
        if let Some(e) = self.err {
            return Err(e);
        }
        let mut header = [0u8; CKPT_HEADER_LEN as usize];
        header[..8].copy_from_slice(CKPT_MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&self.crc.finish().to_le_bytes());
        header[16..].copy_from_slice(&self.len.to_le_bytes());
        self.file.write_all_at(&header, 0)?;
        self.file.sync_data()?;
        Ok((self.file, self.len))
    }
}

impl ByteSink for &mut CheckpointStream {
    fn put(&mut self, bytes: &[u8]) {
        if self.err.is_some() {
            return;
        }
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= CKPT_BUF_BYTES {
            self.err = self.flush().err();
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The epoch this commit produced.
    pub epoch: u64,
    /// The logged writer operation.
    pub op: WriterOp,
    /// Byte offset in its segment: what a repair keeps to drop it.
    pub offset: u64,
}

/// Damage found in a WAL segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDamage {
    /// Byte offset of the first bad record (= the valid prefix length).
    pub offset: u64,
    /// What was wrong.
    pub message: String,
}

/// The result of scanning one WAL segment.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix — where appends continue, and what a
    /// repair keeps.
    pub valid_bytes: u64,
    /// Damage after the valid prefix, if any (`None` = the log ends
    /// cleanly: see the module docs, "End of log").
    pub damage: Option<WalDamage>,
}

/// Scans a WAL segment, validating framing and per-record CRC. A missing,
/// zero-length or never-stamped (all-zero) file is a valid empty log.
/// Damage never aborts the scan result: the valid prefix is returned
/// alongside the typed damage.
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SegmentScan::default()),
        Err(e) => return Err(e),
    }
    let mut scan = SegmentScan::default();
    let damage = |pos: usize, message: String| {
        Some(WalDamage {
            offset: pos as u64,
            message,
        })
    };
    let blank = |from: usize| bytes[from..].iter().all(|&b| b == 0);
    let header_len = SEGMENT_HEADER_LEN as usize;
    if bytes.len() < header_len || bytes[..header_len].iter().all(|&b| b == 0) {
        if !blank(0) {
            scan.damage = damage(0, "bad or torn segment header".to_owned());
        }
        return Ok(scan);
    }
    if &bytes[..8] != WAL_MAGIC {
        scan.damage = damage(0, "bad or torn segment header (wrong magic)".to_owned());
        return Ok(scan);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        scan.damage = damage(0, format!("unsupported WAL format version {version}"));
        return Ok(scan);
    }
    let mut pos = header_len;
    scan.valid_bytes = pos as u64;
    while pos < bytes.len() {
        let rest = bytes.len() - pos;
        if rest < 8 {
            if !blank(pos) {
                scan.damage = damage(pos, format!("torn record header ({rest} of 8 bytes)"));
            }
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 && crc == 0 {
            // The end of the log — if nothing was ever written past it.
            if !blank(pos + 8) {
                scan.damage = damage(pos, "bytes after the end of the log".to_owned());
            }
            break;
        }
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
            Ok(op) => scan.records.push(WalRecord {
                epoch,
                op,
                offset: pos as u64,
            }),
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

/// Repairs a damaged segment in place: keeps its valid prefix (rewriting
/// the header when even that is gone), zeroes everything after it out to
/// the segment's size, and fsyncs.
pub fn repair_segment(path: &Path, valid_bytes: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    let keep = if valid_bytes < SEGMENT_HEADER_LEN {
        file.write_all_at(&segment_header(), 0)?;
        SEGMENT_HEADER_LEN
    } else {
        valid_bytes
    };
    zero_fill(&file, keep, file.metadata()?.len().max(SEGMENT_BYTES))?;
    file.sync_all()
}

/// WAL segments in `dir` in log order (ascending first epoch). Temp
/// files and foreign names are ignored; a missing directory is empty.
///
/// A spare that holds records is a segment too, placed by the epoch of
/// its first record: a rotation renames the spare without waiting for the
/// directory to be durable, so after a power loss the newest records may
/// sit under the spare's name. (`Durability::open` gives it its proper
/// name.) An unused spare is not listed.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = list_numbered(dir, "wal-", ".seg")?;
    let spare = spare_path(dir);
    if let Some(first) = scan_segment(&spare)?.records.first() {
        out.push((first.epoch, spare));
    }
    out.sort_by_key(|(first, _)| *first);
    Ok(out)
}

/// A decoded checkpoint: the durable engine state plus the committed
/// slacks stored for self-verification.
#[derive(Debug)]
pub struct CheckpointImage {
    /// The restorable engine state.
    pub state: EngineDurableState,
    /// The published report's slacks (empty without a report) — recovery
    /// re-derives them and compares bits to detect stale checkpoints.
    pub slacks: Vec<f64>,
}

/// Loads and fully validates one checkpoint file. The error is a
/// human-readable reason suitable for a `ServiceIncident`.
pub fn load_checkpoint(path: &Path) -> Result<CheckpointImage, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let header_len = CKPT_HEADER_LEN as usize;
    if bytes.len() < header_len || &bytes[..8] != CKPT_MAGIC {
        return Err("bad or torn checkpoint header (wrong magic)".to_owned());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(format!("unsupported checkpoint format version {version}"));
    }
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    if bytes.len() - header_len != len {
        return Err(format!(
            "checkpoint payload length mismatch (declared {len}, have {})",
            bytes.len() - header_len
        ));
    }
    let payload = &bytes[header_len..];
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
    let mut d = Dec::new(&payload[8 + state_len..]);
    let slacks = d
        .f64s("checkpoint slacks")
        .and_then(|v| d.finish().map(|()| v))
        .map_err(|e| format!("checkpoint slacks: {e}"))?;
    Ok(CheckpointImage { state, slacks })
}

/// Checkpoint files in `dir`, newest (highest epoch) first. Temp files
/// and foreign names are ignored; a missing directory is empty.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = list_numbered(dir, "checkpoint-", ".ckpt")?;
    out.sort_by_key(|(epoch, _)| std::cmp::Reverse(*epoch));
    Ok(out)
}

/// Files in `dir` named `<prefix><number><suffix>`, with their numbers.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
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
        let Some(number) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((number, entry.path()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(name: &str, fsync: bool, sync_interval: Duration) -> DurabilityConfig {
        let dir = std::env::temp_dir().join(format!("insta-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurabilityConfig {
            fsync,
            sync_interval,
            ..DurabilityConfig::new(&dir)
        }
    }

    fn open(name: &str, fsync: bool, sync_interval: Duration) -> (Durability, PathBuf) {
        let cfg = config(name, fsync, sync_interval);
        let dir = cfg.dir.clone();
        (Durability::open(cfg).unwrap(), dir)
    }

    fn append(d: &Durability, epochs: std::ops::RangeInclusive<u64>) -> Duration {
        let t = Instant::now();
        for epoch in epochs {
            d.log_commit(epoch, &WriterOp::Propagate).unwrap();
        }
        t.elapsed()
    }

    /// Every record in the directory, segment by segment, damage-free.
    fn logged_epochs(dir: &Path) -> Vec<u64> {
        let mut out = Vec::new();
        for (_, path) in list_segments(dir).unwrap() {
            let scan = scan_segment(&path).unwrap();
            assert_eq!(scan.damage, None, "{}", path.display());
            out.extend(scan.records.iter().map(|r| r.epoch));
        }
        out
    }

    fn wait_sum(d: &Durability) -> u64 {
        d.stats.sync_wait_us.load(Ordering::Relaxed)
    }

    #[test]
    fn paced_syncs_keep_the_interval_and_book_their_waits() {
        let every = Duration::from_millis(2);
        let (d, dir) = open("paced", true, every);
        // The first append has no slot to wait for; the other nine do.
        assert!(append(&d, 1..=10) >= every * 9);
        assert_eq!(d.stats.fsyncs.load(Ordering::Relaxed), 10);
        assert!(wait_sum(&d) > 0);
        assert_eq!(logged_epochs(&dir).len(), 10);
        let rows = d.stats.rows();
        let row = |k: &str| rows.iter().find(|(name, _)| *name == k).unwrap().1;
        assert!(row("fdatasync_p50_us") > 0.0);
        assert!(row("fdatasync_p50_us") <= row("fdatasync_p99_us"));
        assert!(row("fdatasync_max_us") > 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_late_append_catches_up_without_waiting() {
        // The slots are generous next to an append, the idle spell short
        // next to the allowance.
        let every = Duration::from_millis(4);
        assert!(every * 3 < SYNC_CATCH_UP);
        let (d, dir) = open("late", true, every);
        append(&d, 1..=1);
        // Three slots pass idle: the next three appends are behind
        // schedule and go at once; once the schedule is caught up the
        // appends wait again.
        std::thread::sleep(every * 3);
        let before = wait_sum(&d);
        append(&d, 2..=4);
        assert_eq!(wait_sum(&d), before);
        append(&d, 5..=12);
        assert!(wait_sum(&d) > before);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_debt_past_the_allowance_is_forgiven_not_repaid() {
        // Slots long enough that an append on a busy disk still fits one.
        let every = Duration::from_millis(5);
        let (d, dir) = open("forgiven", true, every);
        append(&d, 1..=1);
        // Twenty slots pass idle. The allowance covers three of them and a
        // bit; were the whole debt repaid, the next twelve appends would
        // all go without a wait.
        std::thread::sleep(every * 20);
        let before = wait_sum(&d);
        append(&d, 2..=13);
        assert!(wait_sum(&d) > before);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pacing_is_off_at_zero_and_without_fsync() {
        for (name, fsync, every) in [
            ("zero", true, Duration::ZERO),
            ("nosync", false, Duration::from_secs(1)),
        ] {
            let (d, dir) = open(name, fsync, every);
            assert!(append(&d, 1..=5) < Duration::from_secs(1));
            assert_eq!(wait_sum(&d), 0);
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The end-of-log rule: a fresh segment, a zero-length file and a
    /// never-stamped one are clean empty logs; zeros after the last record
    /// are a clean end; anything else after it is damage, and a repair
    /// leaves a clean log again.
    #[test]
    fn a_zero_tail_is_a_clean_end_and_bytes_after_it_are_damage() {
        let (d, dir) = open("eol", true, Duration::ZERO);
        append(&d, 1..=3);
        drop(d);
        let seg = segment_path(&dir, 1);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), SEGMENT_BYTES);
        let clean = scan_segment(&seg).unwrap();
        assert_eq!((clean.records.len(), &clean.damage), (3, &None));

        for (name, content) in [("empty", vec![]), ("unstamped", vec![0u8; 4096])] {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let scan = scan_segment(&path).unwrap();
            assert_eq!(
                (scan.records.len(), scan.valid_bytes, scan.damage),
                (0, 0, None)
            );
        }

        // A stray byte far past the end of the log: damage *at* the end.
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[SEGMENT_BYTES as usize - 9] = 7;
        std::fs::write(&seg, &bytes).unwrap();
        let scan = scan_segment(&seg).unwrap();
        assert_eq!(scan.records.len(), 3);
        let damage = scan.damage.expect("bytes after the end");
        assert_eq!(damage.offset, clean.valid_bytes);
        repair_segment(&seg, scan.valid_bytes).unwrap();
        let again = scan_segment(&seg).unwrap();
        assert_eq!((again.records.len(), again.damage), (3, None));

        // Appends continue where the valid prefix ends.
        let (d, _) = (Durability::open(DurabilityConfig::new(&dir)).unwrap(), ());
        append(&d, 4..=4);
        drop(d);
        assert_eq!(logged_epochs(&dir), vec![1, 2, 3, 4]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A rotation never replaces a segment file: asked for the name of the
    /// segment it is in (only a log whose names broke their rule can ask),
    /// the log stays there with its records and says so once.
    #[test]
    fn a_rotation_onto_an_existing_segment_is_refused() {
        let cfg = config("refused", true, Duration::ZERO);
        let dir = cfg.dir.clone();
        std::fs::create_dir_all(&dir).unwrap();
        // The active segment is named above its first record.
        std::fs::write(segment_path(&dir, 3), b"").unwrap();
        let d = Durability::open(cfg).unwrap();
        append(&d, 1..=2);
        d.core
            .rotate(&mut lock(&d.core.log), 0, 3, 0)
            .expect("a refusal is not an I/O error");
        append(&d, 3..=3);
        let incidents = d.take_incidents();
        assert_eq!(incidents.len(), 1, "{incidents:?}");
        let message = incidents.last().expect("one incident");
        assert!(message.contains("rotation refused"), "{incidents:?}");
        drop(d);
        assert_eq!(logged_epochs(&dir), vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A record that does not fit rotates the log; one larger than a
    /// standard segment gets a segment of its own size, even when the
    /// active one is still empty and carries the same name.
    #[test]
    fn full_segments_rotate_and_an_oversized_record_gets_its_own() {
        let (d, dir) = open("full", false, Duration::ZERO);
        let deltas = |n: usize| {
            WriterOp::Update(vec![
                insta_refsta::eco::ArcDelta {
                    arc: 1,
                    mean: [1.0; 2],
                    sigma: [0.5; 2],
                };
                n
            ])
        };
        // 36 bytes a delta: this record alone is past a standard segment.
        let oversized = deltas(SEGMENT_BYTES as usize / 36 + 10);
        d.log_commit(1, &oversized).unwrap();
        // About 0.4 of a segment each: the third does not fit.
        let big = deltas(SEGMENT_BYTES as usize * 2 / 5 / 36);
        for epoch in 2..=4 {
            d.log_commit(epoch, &big).unwrap();
        }
        drop(d);
        let names: Vec<u64> = list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(names, vec![1, 2, 4]);
        assert!(std::fs::metadata(segment_path(&dir, 1)).unwrap().len() > SEGMENT_BYTES);
        assert_eq!(logged_epochs(&dir), vec![1, 2, 3, 4]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
