//! The daemon: MVCC snapshot publication, the connection supervisor, and
//! request dispatch.
//!
//! # MVCC read path
//!
//! The committed epoch lives in a [`SnapshotCell`]: an
//! `RwLock<Arc<PublishedEpoch>>` where the read lock is held only long
//! enough to clone the `Arc` (nanoseconds) — never across a propagation.
//! Readers therefore observe a wholly-consistent epoch, old or new and
//! never a blend, while the single writer mutates the *next* epoch inside
//! `Mutex<InstaEngine>` and publishes with one pointer swap after a
//! successful commit. A failed or deadline-cancelled write rolls back via
//! the session layer and publishes nothing: readers cannot observe a
//! half-committed epoch by construction.
//!
//! # What a published epoch owns
//!
//! A [`PublishedEpoch`] is the snapshot plus what the daemon derives from
//! it for the wire: the text of the whole-report `report_slack` result,
//! built by the first reader that asks (outside every lock) and spliced
//! under each later reader's envelope. The image is a pure function of an
//! immutable snapshot and is dropped with it, so there is nothing to
//! invalidate, size or configure.
//!
//! # Failure containment
//!
//! Each connection runs in its own thread — over TCP at most
//! `MAX_CONNECTIONS` at once, each closed once a read or write has
//! waited `IDLE_TIMEOUT` or shutdown fired; dispatch is wrapped in
//! `catch_unwind`, so a panic poisons at most that request — the session
//! guard rolls the engine back during unwind, mutex poisoning is
//! tolerated everywhere (`into_inner`), and the client gets a typed
//! `internal` error instead of a dead socket. See DESIGN.md "Service
//! architecture" for the full failure matrix.

use crate::admission::{Admission, Rejection, ServeConfig, ServeCounters, Tier, RETRY_AFTER_MS};
use crate::protocol::{
    code, err_response, ok_response, ok_response_text, read_frame, write_frame, FrameError, Op,
    OpKind, Params, Request, PROTOCOL_VERSION,
};
use crate::recovery::{self, RecoveryReport};
use crate::wal::{panic_message, Durability, DurabilityConfig};
use insta_engine::{
    CancelToken, Deadline, EngineCounters, EngineDurableState, IncidentLog, InstaEngine,
    InstaError, InstaReport, PassOptions, Scenario, ServiceIncident, TimingSnapshot, WriterOp,
};
use insta_refsta::eco::ArcDelta;
use insta_support::json::{obj, write_f64, Json, ToJson};
use insta_support::obs::{LatencyHistogram, Recorder};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Capacity of the service-side incident ring.
const INCIDENT_LOG_CAP: usize = 128;
/// Capacity of the request journal (spans/events ring).
const JOURNAL_CAPACITY: usize = 4096;
/// TCP connections served at once, each on a thread of its own; one more
/// gets a typed `overloaded` frame and is closed.
const MAX_CONNECTIONS: usize = 64;
/// How long one TCP read may wait for a byte, between frames or inside
/// one, and one reply write may stall on a peer that stops reading, before
/// the connection is closed: ample for a client between two requests of a
/// sizing or placement loop, short enough that a silent client frees its
/// thread.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// A TCP read's timeout: how often a waiting connection looks at the idle
/// clock and the shutdown token.
const READ_POLL: Duration = Duration::from_millis(100);

/// Locks a mutex, tolerating poisoning: a panic in another connection
/// must not cascade — the session layer already rolled the engine back
/// during that thread's unwind, so the data behind the lock is sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One published epoch: the snapshot and the wire image readers share.
#[derive(Debug)]
pub struct PublishedEpoch {
    snap: Arc<TimingSnapshot>,
    /// The tail of the whole-report `report_slack` result object, from
    /// `"wns_ps"` through the closing brace (see [`write_slack_members`]).
    /// Empty until the epoch's first whole-report read.
    slack_image: OnceLock<Arc<str>>,
}

impl PublishedEpoch {
    fn new(snap: Arc<TimingSnapshot>) -> Arc<Self> {
        Arc::new(PublishedEpoch {
            snap,
            slack_image: OnceLock::new(),
        })
    }

    /// The epoch's snapshot.
    pub fn snapshot(&self) -> &Arc<TimingSnapshot> {
        &self.snap
    }

    /// The epoch's `report_slack` wire image, if a reader has built it
    /// (test observability: an image lives exactly as long as its epoch).
    pub fn slack_image(&self) -> Option<&Arc<str>> {
        self.slack_image.get()
    }
}

/// The published committed epoch. `load` is the entire read path.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: RwLock<Arc<PublishedEpoch>>,
    /// Epoch watch for `min_epoch` waiters: publish bumps the watched
    /// value under the mutex and notifies, so waiters wake on the commit
    /// they asked for instead of polling (ROADMAP item 1 leftover).
    watch: Mutex<u64>,
    publish_cv: Condvar,
}

impl SnapshotCell {
    fn new(snap: TimingSnapshot) -> Self {
        let epoch = snap.epoch();
        SnapshotCell {
            inner: RwLock::new(PublishedEpoch::new(Arc::new(snap))),
            watch: Mutex::new(epoch),
            publish_cv: Condvar::new(),
        }
    }

    /// Clones the current epoch's `Arc` — the only thing the read lock
    /// ever covers.
    pub fn load(&self) -> Arc<PublishedEpoch> {
        Arc::clone(&self.inner.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// The published epoch number.
    fn epoch(&self) -> u64 {
        self.load().snap.epoch()
    }

    /// Atomically replaces the published epoch. Monotonic: a snapshot
    /// that is not strictly newer than the published one is dropped, so
    /// the published epoch can never regress — even if two publishes
    /// ever race, the older writer loses.
    fn publish(&self, snap: Arc<TimingSnapshot>) {
        let epoch = snap.epoch();
        // The lock covers the pointer swap and nothing else: the new `Arc`
        // is allocated before it is taken, and the displaced epoch — the
        // last reference to it, when no reader holds one — is freed after
        // it is released, so no reader's `load` waits on the allocator.
        drop(swap_if_newer(&self.inner, PublishedEpoch::new(snap), |new, cur| {
            new.snap.epoch() > cur.snap.epoch()
        }));
        // The snapshot is visible before the watch moves, so a waiter
        // released by this publish always loads an epoch ≥ what it
        // waited for.
        let mut w = lock(&self.watch);
        if epoch > *w {
            *w = epoch;
        }
        drop(w);
        self.publish_cv.notify_all();
    }

    /// Blocks until the published epoch reaches `min_epoch` or `give_up`
    /// says to stop, waking on publish (with a coarse timeout slice so
    /// shutdown and deadlines are honored even if no commit ever lands).
    /// Returns whether the epoch arrived.
    fn wait_for_epoch(&self, min_epoch: u64, mut give_up: impl FnMut() -> bool) -> bool {
        let mut w = lock(&self.watch);
        loop {
            if *w >= min_epoch {
                return true;
            }
            if give_up() {
                return false;
            }
            let (g, _timeout) = self
                .publish_cv
                .wait_timeout(w, Duration::from_millis(25))
                .unwrap_or_else(|p| p.into_inner());
            w = g;
        }
    }
}

/// Puts `new` into `slot` if `newer(new, current)` and returns the `Arc`
/// that lost — the displaced value or the rejected one — for the caller
/// to drop once the write lock is released.
fn swap_if_newer<T>(
    slot: &RwLock<Arc<T>>,
    new: Arc<T>,
    newer: impl FnOnce(&T, &T) -> bool,
) -> Arc<T> {
    let mut cur = slot.write().unwrap_or_else(|p| p.into_inner());
    if newer(&new, &cur) {
        std::mem::replace(&mut *cur, new)
    } else {
        new
    }
}

/// The `result` member of a success reply.
enum Reply {
    /// A tree the reply writer renders.
    Tree(Json),
    /// A result object the op wrote itself: `head`, then — for a
    /// whole-report `report_slack` — the epoch's shared image.
    Text {
        head: String,
        image: Option<Arc<str>>,
    },
}

/// Renders a dispatch outcome as a response body under its envelope: the
/// request id and the published epoch at reply time.
fn render(id: u64, epoch: u64, outcome: Result<Reply, ErrReply>) -> String {
    match outcome {
        Ok(Reply::Tree(result)) => ok_response(id, epoch, result),
        Ok(Reply::Text { head, image }) => {
            ok_response_text(id, epoch, &[&head, image.as_deref().unwrap_or("")])
        }
        Err(e) => err_response(id, epoch, e.code, &e.message, e.retry_after_ms),
    }
}

/// A typed dispatch failure, rendered as an error response.
struct ErrReply {
    code: &'static str,
    message: String,
    retry_after_ms: Option<u64>,
}

impl ErrReply {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ErrReply {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    cell: SnapshotCell,
    writer: Mutex<InstaEngine>,
    /// The writer's counters as its last op left them (see
    /// [`Server::with_writer`]): what `stats.engine` shows.
    engine_counters: Mutex<EngineCounters>,
    admission: Admission,
    counters: ServeCounters,
    incidents: Mutex<IncidentLog<ServiceIncident>>,
    journal: Mutex<Recorder>,
    shutdown: CancelToken,
    /// The durability layer (`None` = ephemeral daemon, PR 7 behavior).
    durability: Option<Durability>,
    /// Per op, indexed by `Op as usize`: each request's time from decode
    /// start to reply written.
    latency: [LatencyHistogram; Op::ALL.len()],
}

/// The timing service. Cheap to clone (an `Arc` handle) — hand clones to
/// connection threads.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Wraps an engine. The engine's current state (typically just after
    /// an initial `propagate`) becomes the first published epoch.
    pub fn new(engine: InstaEngine, cfg: ServeConfig) -> Self {
        Self::build(engine, cfg, None, &[])
    }

    /// Wraps an engine with durability: recovers the committed timeline
    /// from `durability.dir` (checkpoint restore + WAL replay through
    /// real sessions, torn tails truncated with typed incidents), then
    /// serves with every writer commit logged-and-fsynced before it
    /// publishes. The engine must be freshly built from the same
    /// design/config the directory's artifacts were written against.
    ///
    /// # Errors
    ///
    /// I/O failures opening the directory or WAL. Recovery *findings*
    /// (stale checkpoints, torn tails) are not errors — they surface in
    /// the returned [`RecoveryReport`] and the incident ring.
    pub fn with_durability(
        mut engine: InstaEngine,
        cfg: ServeConfig,
        durability: DurabilityConfig,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let report = recovery::recover(&mut engine, &durability)?;
        let layer = Durability::open(durability)?;
        let server = Self::build(engine, cfg, Some(layer), &report.incidents);
        Ok((server, report))
    }

    fn build(
        engine: InstaEngine,
        cfg: ServeConfig,
        durability: Option<Durability>,
        seed_incidents: &[ServiceIncident],
    ) -> Self {
        let cell = SnapshotCell::new(engine.snapshot());
        let admission = Admission::new(&cfg);
        let mut log = IncidentLog::with_capacity(INCIDENT_LOG_CAP);
        for inc in seed_incidents {
            log.record(inc.clone());
        }
        let journal = Mutex::new(Recorder::with_capacity(JOURNAL_CAPACITY));
        Server {
            shared: Arc::new(Shared {
                cfg,
                cell,
                engine_counters: Mutex::new(engine.counters()),
                writer: Mutex::new(engine),
                admission,
                counters: ServeCounters::default(),
                incidents: Mutex::new(log),
                journal,
                shutdown: CancelToken::new(),
                durability,
                latency: Default::default(),
            }),
        }
    }

    /// The durability layer, when enabled (test/bench observability).
    pub fn durability(&self) -> Option<&Durability> {
        self.shared.durability.as_ref()
    }

    /// The shutdown token: cancel it (or send a `shutdown` request) to
    /// wind the daemon down.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shared.shutdown.clone()
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<TimingSnapshot> {
        Arc::clone(&self.shared.cell.load().snap)
    }

    /// The currently published epoch: the snapshot and its wire image.
    pub fn published(&self) -> Arc<PublishedEpoch> {
        self.shared.cell.load()
    }

    /// The service counters.
    pub fn counters(&self) -> &ServeCounters {
        &self.shared.counters
    }

    /// Current degradation tier.
    pub fn tier(&self) -> Tier {
        self.shared.admission.tier()
    }

    /// Serves one connection until EOF, lost frame sync, write failure,
    /// or shutdown — and, on a reader that times out, `IDLE_TIMEOUT`
    /// without a byte (see `Polled`). Never panics out: dispatch runs
    /// under `catch_unwind`.
    pub fn handle_connection<R: Read, W: Write>(&self, reader: R, mut writer: W) {
        let sh = &self.shared;
        sh.counters.connections_opened.fetch_add(1, Ordering::Relaxed);
        let mut reader = BufReader::new(Polled {
            inner: reader,
            shutdown: &sh.shutdown,
        });
        loop {
            if sh.shutdown.is_cancelled() {
                break;
            }
            let body = match read_frame(&mut reader, sh.cfg.max_frame_bytes) {
                Ok(b) => b,
                Err(FrameError::Eof) => break,
                Err(e @ FrameError::BadHeader(_)) => {
                    // Frame sync is lost: reply once (best effort), close.
                    sh.counters.rejected_protocol.fetch_add(1, Ordering::Relaxed);
                    self.record_incident(0, code::PROTOCOL, &e.to_string());
                    let epoch = sh.cell.epoch();
                    let _ = write_frame(
                        &mut writer,
                        &err_response(0, epoch, code::PROTOCOL, &e.to_string(), None),
                    );
                    break;
                }
                Err(e @ FrameError::Truncated { .. }) => {
                    // The stream died mid-frame; nobody is listening for
                    // a reply, but the incident is recorded.
                    sh.counters.rejected_protocol.fetch_add(1, Ordering::Relaxed);
                    self.record_incident(0, code::PROTOCOL, &e.to_string());
                    break;
                }
                Err(e @ FrameError::Io(_)) => {
                    self.record_incident(0, code::PROTOCOL, &e.to_string());
                    break;
                }
            };
            let started = Instant::now();
            let (response, close, op) = self.respond(&body, started);
            if write_frame(&mut writer, &response).is_err() {
                break;
            }
            if let Some(op) = op {
                sh.latency[op as usize].record(started.elapsed());
            }
            if close {
                break;
            }
        }
        sh.counters.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Serves stdin/stdout — the `insta-serve` default transport.
    pub fn serve_stdio(&self) {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.handle_connection(stdin.lock(), stdout.lock());
    }

    /// Accept loop: one thread per connection, at most
    /// `MAX_CONNECTIONS` at once, until the shutdown token fires; returns
    /// once every connection thread has ended. The listener runs
    /// nonblocking with a short poll so a `shutdown` request winds the loop
    /// down promptly — a blocking accept would otherwise pin the daemon
    /// until one more connection happened to arrive — and a connection's
    /// reads time out every `READ_POLL` and its writes after
    /// `IDLE_TIMEOUT`, so neither a silent client, one that stops
    /// reading, nor shutdown waits on a blocked socket.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            let mut live: Vec<std::thread::ScopedJoinHandle<'_, ()>> = Vec::new();
            while !self.shared.shutdown.is_cancelled() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // Connection threads want blocking reads and writes,
                        // each bounded in time — only the accept itself polls.
                        stream.set_nonblocking(false)?;
                        stream.set_read_timeout(Some(READ_POLL))?;
                        stream.set_write_timeout(Some(IDLE_TIMEOUT))?;
                        live.retain(|conn| !conn.is_finished());
                        if live.len() >= MAX_CONNECTIONS {
                            self.refuse(stream);
                            continue;
                        }
                        // Replies leave as they are written. A socket that
                        // refuses costs latency, not correctness, and is no
                        // reason to stop accepting.
                        let _ = stream.set_nodelay(true);
                        let peer = stream.try_clone()?;
                        live.push(scope.spawn(move || self.handle_connection(peer, stream)));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
    }

    /// Answers a connection past [`MAX_CONNECTIONS`] with one typed
    /// `overloaded` frame and closes it.
    fn refuse(&self, mut stream: TcpStream) {
        let sh = &self.shared;
        ServeCounters::bump(&sh.counters.rejected_overload);
        let message = format!("connection cap {MAX_CONNECTIONS} reached; back off");
        let reply = err_response(
            0,
            sh.cell.epoch(),
            code::OVERLOADED,
            &message,
            Some(RETRY_AFTER_MS),
        );
        let _ = write_frame(&mut stream, &reply);
    }

    fn record_incident(&self, request_id: u64, category: &'static str, message: &str) {
        lock(&self.shared.incidents).record(ServiceIncident {
            request_id,
            category,
            message: message.to_owned(),
        });
    }

    /// Moves what the background checkpoint writer reported since the
    /// last look into the incident ring. A checkpoint failure is an
    /// incident, not a request failure — the WAL already holds the
    /// committed records.
    fn drain_durability_incidents(&self) {
        if let Some(dur) = &self.shared.durability {
            for message in dur.take_incidents().iter() {
                self.record_incident(0, code::DURABILITY, message);
            }
        }
    }

    /// The response body and close flag [`respond`](Self::respond) gives
    /// for one request body.
    #[cfg(test)]
    fn handle_request(&self, body: &[u8]) -> (String, bool) {
        let (response, close, _) = self.respond(body, Instant::now());
        (response, close)
    }

    /// Decodes, admits, dispatches (panic-isolated), and renders one
    /// request whose decode starts at `started`. Returns `(response body,
    /// close connection, the op if the body decoded)`.
    fn respond(&self, body: &[u8], started: Instant) -> (String, bool, Option<Op>) {
        let sh = &self.shared;
        let refuse = |id: u64, code: &'static str, message: &str| {
            sh.counters.rejected_protocol.fetch_add(1, Ordering::Relaxed);
            self.record_incident(id, code, message);
            err_response(id, sh.cell.epoch(), code, message, None)
        };
        let req = match Request::decode(body) {
            Ok(r) => r,
            Err(e) => {
                // id 0 means the body never yielded a request object —
                // that's a protocol error; a decoded-but-invalid request
                // is the client's bug.
                let code = if e.id == 0 { code::PROTOCOL } else { code::BAD_REQUEST };
                return (refuse(e.id, code, &e.message), false, None);
            }
        };
        // Version gate (satellite): a client that declares a different
        // protocol generation is refused before dispatch — loudly and
        // typed, not with a decode error three ops later.
        if let Some(v) = req.version.filter(|&v| v != PROTOCOL_VERSION) {
            let msg =
                format!("client speaks protocol version {v}, server speaks {PROTOCOL_VERSION}");
            return (refuse(req.id, code::VERSION_MISMATCH, &msg), false, Some(req.op));
        }
        let outcome = self.admit_and_execute(&req);
        let epoch = sh.cell.epoch();
        let ok = outcome.is_ok();
        lock(&sh.journal).event(
            req.op.name(),
            &[
                ("id", req.id as f64),
                ("ok", if ok { 1.0 } else { 0.0 }),
                ("us", started.elapsed().as_secs_f64() * 1e6),
                ("epoch", epoch as f64),
            ],
        );
        if let Err(e) = &outcome {
            self.note_failure(&req, e);
        }
        let close = req.op == Op::Shutdown && ok;
        (render(req.id, epoch, outcome), close, Some(req.op))
    }

    /// Counts and records a typed failure (satellite: every server-side
    /// rejection lands in the incident ring with its request id).
    fn note_failure(&self, req: &Request, e: &ErrReply) {
        let c = &self.shared.counters;
        match e.code {
            code::OVERLOADED => ServeCounters::bump(&c.rejected_overload),
            code::SHED => ServeCounters::bump(&c.shed),
            code::DEADLINE => ServeCounters::bump(&c.deadline_cancelled),
            code::DEADLINE_OVERSHOOT => ServeCounters::bump(&c.deadline_overshoot),
            code::INTERNAL => ServeCounters::bump(&c.panics_isolated),
            code::BAD_REQUEST | code::PROTOCOL => ServeCounters::bump(&c.rejected_protocol),
            _ => {}
        }
        self.record_incident(req.id, e.code, &e.message);
    }

    fn admit_and_execute(&self, req: &Request) -> Result<Reply, ErrReply> {
        let sh = &self.shared;
        let kind = req.op.kind();
        if sh.shutdown.is_cancelled() && req.op != Op::Shutdown {
            return Err(ErrReply::new(code::SHUTTING_DOWN, "daemon is winding down"));
        }
        if matches!(req.op, Op::DebugStall | Op::DebugPanic) && !sh.cfg.enable_debug_ops {
            return Err(ErrReply::new(
                code::BAD_REQUEST,
                "debug ops are disabled (ServeConfig::enable_debug_ops)",
            ));
        }
        let _ticket = sh.admission.try_admit(kind).map_err(|r| match r {
            Rejection::Overloaded { retry_after_ms } => ErrReply {
                code: code::OVERLOADED,
                message: format!(
                    "in-flight cap {} reached; back off {retry_after_ms}ms",
                    sh.cfg.max_inflight
                ),
                retry_after_ms: Some(retry_after_ms),
            },
            Rejection::Shed => ErrReply {
                code: code::SHED,
                message: format!(
                    "heavy work shed at tier {}; retry when pressure drops",
                    sh.admission.tier().name()
                ),
                retry_after_ms: Some(RETRY_AFTER_MS * 4),
            },
        })?;
        ServeCounters::bump(&sh.counters.accepted);
        let deadline_ms = req.deadline_ms.unwrap_or(sh.cfg.default_deadline_ms);
        let deadline =
            (deadline_ms > 0).then(|| Deadline::after(Duration::from_millis(deadline_ms)));

        // The supervisor: a panicking op poisons only this request.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.execute(req, deadline.as_ref())
        }))
        .unwrap_or_else(|payload| {
            let msg = panic_message(payload.as_ref());
            Err(ErrReply::new(
                code::INTERNAL,
                format!("panic isolated by connection supervisor: {msg}"),
            ))
        });

        // Coarse wall-clock backstop (satellite): the per-level polls can
        // only cancel *between* levels; a read that finished late still
        // violated its budget and must say so. Writers are exempt here —
        // they check *before* commit (and a committed result is a
        // success, however late). Control ops (ping/stats/incidents/
        // journal/shutdown) are exempt too: an observability scrape or a
        // shutdown ack that computed a result must deliver it, not
        // discard it for arriving late.
        if matches!(kind, OpKind::Read | OpKind::Heavy) {
            if let (Ok(_), Some(d)) = (&result, &deadline) {
                if d.expired() {
                    return Err(ErrReply::new(
                        code::DEADLINE_OVERSHOOT,
                        format!("completed past the {deadline_ms}ms budget"),
                    ));
                }
            }
        }
        result
    }

    /// Decodes the request's params, then runs its op.
    fn execute(&self, req: &Request, deadline: Option<&Deadline>) -> Result<Reply, ErrReply> {
        let params = Params::decode(req.op, &req.params)
            .map_err(|e| ErrReply::new(code::BAD_REQUEST, e.msg))?;
        let opts = || self.pass_options(deadline);
        let tree = match params {
            Params::ReportSlack { min_epoch, endpoints } => {
                let (epoch, degraded) = self.resolve_snapshot(min_epoch, deadline)?;
                let (snap, image, eps) = (&epoch.snap, &epoch.slack_image, endpoints.as_deref());
                let counters = &self.shared.counters;
                return slack_reply(snap.epoch(), snap.report(), image, degraded, eps, counters);
            }
            Params::ReportAt { node, rf } => return Ok(self.report_at(node, rf)),
            Params::Update(deltas) => self.write_epoch(Some(deltas), deadline)?,
            Params::Batch { scenarios, merged } => self.batch(&scenarios, merged, &opts()),
            Params::Gradient { arcs } => self.gradient(arcs.as_deref(), &opts())?,
            Params::DebugStall { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                obj([("stalled_ms", ms.to_json())])
            }
            Params::None => match req.op {
                Op::Ping => obj([
                    ("pong", Json::Bool(true)),
                    ("version", PROTOCOL_VERSION.to_json()),
                ]),
                Op::Stats => self.stats(),
                Op::PerfReport => self.snapshot().perf_report().to_json(),
                Op::Incidents => self.incidents(),
                Op::Journal => Json::Str(lock(&self.shared.journal).export_jsonl()),
                Op::Propagate => self.write_epoch(None, deadline)?,
                Op::Shutdown => {
                    self.shared.shutdown.cancel();
                    obj([("stopping", Json::Bool(true))])
                }
                Op::DebugPanic => panic!("debug_panic requested by request {}", req.id),
                op => unreachable!("{} defines params", op.name()),
            },
        };
        Ok(Reply::Tree(tree))
    }

    /// Engine, service and durability counters, tier, per-op latency and
    /// ring occupancy. `inflight` is the reads and heavies holding an
    /// admission slot plus the writers in flight (which hold none).
    /// `engine` is the writer's counters as its last op left them,
    /// committed or not; a `gradient` request counts as one `batches` call
    /// of one `batch_scenarios` lane.
    fn stats(&self) -> Json {
        self.drain_durability_incidents();
        let sh = &self.shared;
        let engine = lock(&sh.engine_counters).rows();
        let durability = match &sh.durability {
            None => section([("enabled", Json::Bool(false))], &[]),
            Some(d) => section(
                [
                    ("enabled", Json::Bool(true)),
                    ("fsync", Json::Bool(d.fsync_enabled())),
                ],
                &d.stats.rows(),
            ),
        };
        // Server-side time per op, decode start to reply written: beside a
        // client's round trip, what the daemon spent and what it did not.
        let latency = Json::Obj(
            Op::ALL
                .iter()
                .map(|&op| {
                    let h = &sh.latency[op as usize];
                    let row = obj([
                        ("p50", h.quantile_us(0.50).to_json()),
                        ("p99", h.quantile_us(0.99).to_json()),
                        ("max", h.max_us().to_json()),
                    ]);
                    (op.name().to_owned(), row)
                })
                .collect(),
        );
        let log = lock(&sh.incidents);
        obj([
            ("epoch", sh.cell.epoch().to_json()),
            ("version", PROTOCOL_VERSION.to_json()),
            ("tier", Json::Str(sh.admission.tier().name().to_owned())),
            ("pressure", sh.admission.pressure().to_json()),
            ("inflight", (sh.admission.inflight() as u64).to_json()),
            ("engine", section([], &engine)),
            ("service", section([], &sh.counters.rows())),
            ("durability", durability),
            ("latency_us", latency),
            ("service_incidents", (log.total()).to_json()),
        ])
    }

    fn incidents(&self) -> Json {
        self.drain_durability_incidents();
        let log = lock(&self.shared.incidents);
        let rows: Vec<Json> = log
            .iter()
            .map(|s| {
                obj([
                    ("request_id", s.request_id.to_json()),
                    ("category", Json::Str(s.category.to_owned())),
                    ("message", Json::Str(s.message.clone())),
                ])
            })
            .collect();
        obj([
            ("total", log.total().to_json()),
            ("dropped", log.dropped().to_json()),
            ("incidents", Json::Arr(rows)),
        ])
    }

    /// Resolves the snapshot a read should see: the current epoch, or —
    /// when `min_epoch` asks for a commit that hasn't landed — a bounded
    /// wait, degraded at [`Tier::SnapshotOnly`] to an immediate stale
    /// answer flagged `degraded: true`.
    fn resolve_snapshot(
        &self,
        min_epoch: u64,
        deadline: Option<&Deadline>,
    ) -> Result<(Arc<PublishedEpoch>, bool), ErrReply> {
        let sh = &self.shared;
        let snap = sh.cell.load();
        if snap.snap.epoch() >= min_epoch {
            return Ok((snap, false));
        }
        if sh.admission.tier() >= Tier::SnapshotOnly {
            ServeCounters::bump(&sh.counters.degraded_reports);
            return Ok((snap, true));
        }
        // Block on the publish condvar (satellite: no polling loop) — a
        // committing writer wakes every waiter; the coarse timeout slice
        // inside `wait_for_epoch` only bounds how long shutdown or an
        // expired deadline can go unnoticed when no commit ever lands.
        let cap = Deadline::after(Duration::from_millis(sh.cfg.max_epoch_wait_ms.max(1)));
        let arrived = sh.cell.wait_for_epoch(min_epoch, || {
            sh.shutdown.is_cancelled()
                || deadline.is_some_and(|d| d.expired())
                || cap.expired()
        });
        if arrived {
            return Ok((sh.cell.load(), false));
        }
        if sh.shutdown.is_cancelled() {
            return Err(ErrReply::new(code::SHUTTING_DOWN, "daemon is winding down"));
        }
        Err(ErrReply::new(
            code::DEADLINE,
            format!(
                "epoch {min_epoch} not committed within the wait budget \
                 (published epoch {})",
                sh.cell.epoch()
            ),
        ))
    }

    fn report_at(&self, node: u32, rf: usize) -> Reply {
        let epoch = self.shared.cell.load();
        let mut head = String::with_capacity(80);
        head.push_str("{\"epoch\":");
        write_f64(epoch.snap.epoch() as f64, &mut head);
        match epoch.snap.arrival_at(node, rf) {
            Some(arrival) => {
                head.push_str(",\"reached\":true,\"arrival\":");
                write_f64(arrival, &mut head);
            }
            None => head.push_str(",\"reached\":false,\"arrival\":null"),
        }
        head.push('}');
        Reply::Text { head, image: None }
    }

    /// Runs one writer op under the writer lock and, before releasing it,
    /// leaves the engine's counters where `stats` reads them, whichever
    /// way the op returns (an `Err` included).
    fn with_writer<T>(&self, op: impl FnOnce(&mut InstaEngine) -> T) -> T {
        let sh = &self.shared;
        let mut eng = lock(&sh.writer);
        let out = op(&mut eng);
        *lock(&sh.engine_counters) = eng.counters();
        out
    }

    /// What every engine pass of a writer-lock op polls: the daemon's
    /// shutdown token and the request's own deadline.
    fn pass_options(&self, deadline: Option<&Deadline>) -> PassOptions {
        PassOptions {
            cancel: Some(self.shared.shutdown.clone()),
            deadline: deadline.copied(),
        }
    }

    /// The writer path: `update` (apply `deltas`) or `propagate` (full
    /// refresh, no deltas), committed transactionally and published
    /// atomically.
    fn write_epoch(
        &self,
        mut deltas: Option<Vec<ArcDelta>>,
        deadline: Option<&Deadline>,
    ) -> Result<Json, ErrReply> {
        let sh = &self.shared;
        let (epoch, wns, tns, viol) = self.with_writer(|eng| {
            let mut session = eng
                .begin_session()
                .with_options(self.pass_options(deadline));
            let outcome = match &deltas {
                Some(deltas) => session.update_timing(deltas),
                None => session.propagate(),
            };
            let report = outcome.map_err(map_engine_err)?;
            let (wns, tns, viol) = (report.wns_ps, report.tns_ps, report.n_violations);
            if sh.cfg.stall_writer_ms > 0 {
                // Test hook: a stall in the blind spot between the last
                // per-level poll and the commit decision.
                std::thread::sleep(Duration::from_millis(sh.cfg.stall_writer_ms));
            }
            if deadline.is_some_and(|d| d.expired()) {
                // The work finished but the budget is blown: commit would
                // publish a result the client already gave up on. Roll back —
                // never half-commit — and say exactly what happened.
                session.rollback();
                return Err(ErrReply::new(
                    code::DEADLINE_OVERSHOOT,
                    "propagation finished past the deadline; rolled back uncommitted",
                ));
            }
            // Durability point: the commit is appended to the WAL and synced
            // *before* it happens, so the log is a superset of anything a
            // client ever observed. An append failure rolls back — the
            // not-yet-durable epoch must never publish.
            if let Some(dur) = &sh.durability {
                let next_epoch = session.engine().epoch() + 1;
                let op = deltas.take().map_or(WriterOp::Propagate, WriterOp::Update);
                if let Err(e) = dur.log_commit(next_epoch, &op) {
                    session.rollback();
                    return Err(ErrReply::new(
                        code::DURABILITY,
                        format!("write-ahead log append failed: {e}; rolled back uncommitted"),
                    ));
                }
            }
            let epoch = session.commit().map_err(map_engine_err)?;
            // Publish before releasing the writer lock: commit order and
            // publication order must agree, or a preempted writer could
            // publish its older epoch over a successor's newer one.
            sh.cell.publish(Arc::new(eng.snapshot()));
            if let Some(dur) = &sh.durability {
                // Checkpoint cadence, still under the writer lock so the
                // captured state is exactly the epoch just published. Only the
                // capture (a clone of the annotations and slacks) happens here, and only
                // on the commits the cadence selects; encoding and every byte
                // of checkpoint I/O belong to the layer's background writer.
                if dur.checkpoint_due() {
                    dur.submit_checkpoint(EngineDurableState::capture(eng));
                }
            }
            Ok((epoch, wns, tns, viol))
        })?;
        self.drain_durability_incidents();
        ServeCounters::bump(&sh.counters.snapshot_swaps);
        Ok(obj([
            ("epoch", epoch.to_json()),
            ("wns_ps", wns.to_json()),
            ("tns_ps", tns.to_json()),
            ("n_violations", (viol as u64).to_json()),
        ]))
    }

    /// Scores `scenarios`; `merged` adds the MCMM worst-corner merge to
    /// the per-scenario rows (protocol generation 2).
    fn batch(&self, scenarios: &[Scenario], merged: bool, opts: &PassOptions) -> Json {
        let rep = self.with_writer(|eng| eng.evaluate(scenarios, opts));
        let rows: Vec<Json> = rep
            .scenarios
            .iter()
            .map(|r| match &r.outcome {
                Ok(rep) => obj([
                    ("scenario", (r.scenario as u64).to_json()),
                    ("ok", Json::Bool(true)),
                    ("wns_ps", rep.wns_ps.to_json()),
                    ("tns_ps", rep.tns_ps.to_json()),
                    ("n_violations", (rep.n_violations as u64).to_json()),
                ]),
                Err(e) => obj([
                    ("scenario", (r.scenario as u64).to_json()),
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(e.category().to_owned())),
                ]),
            })
            .collect();
        let mut fields = vec![("scenarios", Json::Arr(rows))];
        if merged {
            let m = obj([
                ("wns_ps", rep.merged_wns_ps.to_json()),
                ("tns_ps", rep.merged_tns_ps.to_json()),
                ("n_violations", (rep.merged_violations as u64).to_json()),
            ]);
            fields.push(("merged", m));
        }
        obj(fields)
    }

    /// The differentiable pass: the writer engine's own LSE forward + TNS
    /// backward over its committed annotations. It writes only the LSE and
    /// gradient buffers, which no snapshot, epoch, report or Top-K row
    /// reads, so the committed epoch is never perturbed. A NaN slack
    /// refuses it.
    fn gradient(&self, arcs: Option<&[usize]>, opts: &PassOptions) -> Result<Json, ErrReply> {
        let grads = self
            .with_writer(|eng| eng.try_backward_tns(opts).map(|()| eng.arc_gradients()))
            .map_err(map_engine_err)?;
        let result = match arcs {
            Some(arcs) => obj([
                ("n_arcs", (grads.len() as u64).to_json()),
                ("gradients", pick(&grads, arcs, "arc")?.to_json()),
            ]),
            None => {
                let l1: f64 = grads.iter().map(|g| g.abs()).sum();
                let max_abs = grads.iter().fold(0.0_f64, |m, g| m.max(g.abs()));
                obj([
                    ("n_arcs", (grads.len() as u64).to_json()),
                    ("l1", l1.to_json()),
                    ("max_abs", max_abs.to_json()),
                ])
            }
        };
        Ok(result)
    }
}

/// The read side of a connection. A read that times out — a TCP socket's
/// does every [`READ_POLL`] — is retried, inside a frame too, so a slow
/// writer keeps frame sync; but once shutdown has fired, or one read has
/// waited [`IDLE_TIMEOUT`] without a byte, between frames or inside one,
/// the stream ends as if the peer had closed it.
struct Polled<'a, R> {
    inner: R,
    shutdown: &'a CancelToken,
}

impl<R: Read> Read for Polled<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let waiting = Instant::now();
        loop {
            match self.inner.read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if waiting.elapsed() >= IDLE_TIMEOUT || self.shutdown.is_cancelled() {
                        return Ok(0);
                    }
                }
                read => return read,
            }
        }
    }
}

/// A `stats` section: the `head` members, then one member per counter row.
fn section<const N: usize>(head: [(&'static str, Json); N], rows: &[(&'static str, f64)]) -> Json {
    obj(head
        .into_iter()
        .chain(rows.iter().map(|&(name, value)| (name, value.to_json()))))
}

/// The `report_slack` result for one resolved epoch: the per-request head
/// (`epoch`, `degraded`) over the epoch's shared `image` for the whole
/// report, or over the members written afresh for an `endpoints` subset.
/// Takes the epoch's parts, not a [`PublishedEpoch`], so that a test can
/// hand it a report no engine would produce.
fn slack_reply(
    epoch: u64,
    report: Option<&InstaReport>,
    image: &OnceLock<Arc<str>>,
    degraded: bool,
    endpoints: Option<&[usize]>,
    counters: &ServeCounters,
) -> Result<Reply, ErrReply> {
    let report = report.ok_or_else(|| {
        ErrReply::new(
            code::BAD_REQUEST,
            "no committed report yet; send a propagate request first",
        )
    })?;
    let mut head = String::with_capacity(64);
    head.push_str("{\"epoch\":");
    write_f64(epoch as f64, &mut head);
    head.push_str(if degraded {
        ",\"degraded\":true,"
    } else {
        ",\"degraded\":false,"
    });
    let Some(endpoints) = endpoints else {
        // Every whole-report read of an epoch sends the same bytes: the
        // first one writes them and the rest share them.
        let mut built = false;
        let image = image.get_or_init(|| {
            built = true;
            let mut text = String::with_capacity(96 + 20 * report.slacks.len());
            write_slack_members(&mut text, report, &report.slacks);
            text.into()
        });
        ServeCounters::bump(if built {
            &counters.slack_images_built
        } else {
            &counters.slack_image_hits
        });
        return Ok(Reply::Text {
            head,
            image: Some(Arc::clone(image)),
        });
    };
    write_slack_members(&mut head, report, &pick(&report.slacks, endpoints, "endpoint")?);
    Ok(Reply::Text { head, image: None })
}

/// The `values` at indices `idx`, or `bad_request` naming the first index
/// past them (`what` names an index's kind).
fn pick(values: &[f64], idx: &[usize], what: &str) -> Result<Vec<f64>, ErrReply> {
    let past = |i: usize| {
        let message = format!("{what} {i} out of range ({} {what}s)", values.len());
        ErrReply::new(code::BAD_REQUEST, message)
    };
    idx.iter().map(|&i| values.get(i).copied().ok_or_else(|| past(i))).collect()
}

/// Writes the report's members of a `report_slack` result object and
/// closes it: `"wns_ps":W,"tns_ps":T,"n_violations":N,"slacks":[…]}`, with
/// `slacks` the whole report's or a request's subset. Every number goes
/// through the tree writer's [`write_f64`], so the text is what rendering
/// the same members as a [`Json`] tree would give.
fn write_slack_members(out: &mut String, report: &InstaReport, slacks: &[f64]) {
    out.push_str("\"wns_ps\":");
    write_f64(report.wns_ps, out);
    out.push_str(",\"tns_ps\":");
    write_f64(report.tns_ps, out);
    out.push_str(",\"n_violations\":");
    write_f64(report.n_violations as f64, out);
    out.push_str(",\"slacks\":[");
    for (i, s) in slacks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(*s, out);
    }
    out.push_str("]}");
}

/// Maps a typed engine error onto the wire: a cooperative cancellation is
/// the deadline doing its job (the session already rolled back); anything
/// else is surfaced with its category.
fn map_engine_err(e: InstaError) -> ErrReply {
    match &e {
        InstaError::Cancelled { kernel, level, .. } => ErrReply::new(
            code::DEADLINE,
            format!("cancelled in {kernel} kernel at level {level}; rolled back"),
        ),
        other => ErrReply::new(
            code::ENGINE,
            format!("{} error: {other}", other.category()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::swap_if_newer;
    use std::sync::{Arc, RwLock};

    type Cell = Arc<RwLock<Arc<Probe>>>;

    /// A published value that, when it is freed, checks that the cell's
    /// write lock is not held.
    struct Probe {
        epoch: u64,
        slot: Arc<RwLock<Option<Cell>>>,
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            if let Some(cell) = self.slot.read().unwrap().as_ref() {
                assert!(
                    cell.try_read().is_ok(),
                    "epoch {} was freed inside the publish critical section",
                    self.epoch
                );
            }
        }
    }

    /// The publish critical section is a pointer swap: whichever `Arc`
    /// loses — the displaced epoch or a stale candidate — comes back to
    /// the caller alive (one reference: the caller's) and is freed with
    /// the lock released.
    #[test]
    fn the_displaced_epoch_is_freed_outside_the_write_lock() {
        let slot = Arc::new(RwLock::new(None));
        let probe = |epoch| {
            Arc::new(Probe {
                epoch,
                slot: Arc::clone(&slot),
            })
        };
        let cell = Arc::new(RwLock::new(probe(0)));
        *slot.write().unwrap() = Some(Arc::clone(&cell));
        let newer = |new: &Probe, cur: &Probe| new.epoch > cur.epoch;
        for epoch in [1, 2, 2, 1, 3] {
            let lost = swap_if_newer(&cell, probe(epoch), newer);
            assert_eq!(Arc::strong_count(&lost), 1, "nobody else frees it");
            assert!(lost.epoch <= cell.read().unwrap().epoch);
            drop(lost);
        }
        assert_eq!(cell.read().unwrap().epoch, 3);
        // Let the last probe go without looking at a cell that is gone.
        *slot.write().unwrap() = None;
    }
}

#[cfg(test)]
mod reply_identity {
    //! Reply byte identity: the image-splicing reply writer against the
    //! tree-building encoder it replaced, which lives on here — and only
    //! here — as the oracle. For one snapshot and one request the two must
    //! agree on every byte, and [`Client::read_response`] must decode both to
    //! equal [`Response`](crate::client::Response)s.

    use super::*;
    use crate::client::{Client, Response};
    use crate::protocol::tree_oracle;
    use insta_engine::InstaConfig;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};
    use insta_support::prop::{for_all, Config, Shrink};
    use insta_support::{prop_assert, prop_assert_eq, Rng};

    // ---- The oracle: the encoders as they were before the image ------------

    fn tree_report_slack(
        epoch: u64,
        report: Option<&InstaReport>,
        degraded: bool,
        endpoints: Option<&Json>,
    ) -> Result<Json, ErrReply> {
        let report = report.ok_or_else(|| {
            ErrReply::new(
                code::BAD_REQUEST,
                "no committed report yet; send a propagate request first",
            )
        })?;
        let slacks: Vec<Json> = match endpoints {
            Some(eps) => {
                let idx = eps
                    .as_arr()
                    .map_err(|e| ErrReply::new(code::BAD_REQUEST, format!("endpoints: {e}")))?;
                let mut out = Vec::with_capacity(idx.len());
                for j in idx {
                    let i = j
                        .as_u64()
                        .map_err(|e| ErrReply::new(code::BAD_REQUEST, format!("endpoints: {e}")))?
                        as usize;
                    let s = report.slacks.get(i).ok_or_else(|| {
                        ErrReply::new(
                            code::BAD_REQUEST,
                            format!(
                                "endpoint {i} out of range ({} endpoints)",
                                report.slacks.len()
                            ),
                        )
                    })?;
                    out.push(s.to_json());
                }
                out
            }
            None => report.slacks.iter().map(|s| s.to_json()).collect(),
        };
        Ok(obj([
            ("epoch", epoch.to_json()),
            ("degraded", Json::Bool(degraded)),
            ("wns_ps", report.wns_ps.to_json()),
            ("tns_ps", report.tns_ps.to_json()),
            ("n_violations", (report.n_violations as u64).to_json()),
            ("slacks", Json::Arr(slacks)),
        ]))
    }

    fn tree_report_at(snap: &TimingSnapshot, node: u32, rf: usize) -> Json {
        let arrival = snap.arrival_at(node, rf);
        obj([
            ("epoch", snap.epoch().to_json()),
            ("reached", Json::Bool(arrival.is_some())),
            ("arrival", arrival.map_or(Json::Null, |a| a.to_json())),
        ])
    }

    fn tree_body(id: u64, epoch: u64, outcome: Result<Json, ErrReply>) -> String {
        match outcome {
            Ok(result) => tree_oracle::ok_response(id, epoch, result),
            Err(e) => {
                tree_oracle::err_response(id, epoch, e.code, &e.message, e.retry_after_ms)
            }
        }
    }

    // ---- Generated reports through the reply writer ------------------------

    fn decoded(body: &str) -> Response {
        let mut frame = Vec::new();
        write_frame(&mut frame, body).expect("a Vec takes every write");
        Client::new(&frame[..], std::io::sink())
            .read_response()
            .unwrap_or_else(|e| panic!("undecodable reply {body:?}: {e}"))
    }

    /// One request against one epoch, none of it constrained to what an
    /// engine would produce.
    #[derive(Debug, Clone)]
    struct Case {
        id: u64,
        envelope_epoch: u64,
        epoch: u64,
        degraded: bool,
        report: Option<InstaReport>,
        endpoints: Option<Json>,
    }

    impl Shrink for Case {}

    fn any_f64(rng: &mut Rng) -> f64 {
        match rng.gen_range(0u32..8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            // Every bit pattern: subnormals, huge exponents, more NaNs.
            4 => f64::from_bits(rng.next_u64()),
            5 => rng.gen_range(0u32..8000) as f64 - 4000.0,
            _ => rng.gen_range(-2500.0..2500.0),
        }
    }

    fn any_case(rng: &mut Rng) -> Case {
        let epoch = match rng.gen_range(0u32..4) {
            0 => 0,
            1 => (1 << 53) + rng.gen_range(0u64..1000),
            _ => rng.gen_range(0u64..100_000),
        };
        let report = rng.gen_bool(0.9).then(|| {
            let n = if rng.gen_bool(0.15) {
                0
            } else {
                rng.gen_range(1usize..48)
            };
            InstaReport {
                wns_ps: any_f64(rng),
                tns_ps: any_f64(rng),
                n_violations: rng.gen_range(0usize..=n),
                slacks: (0..n).map(|_| any_f64(rng)).collect(),
                arrivals: vec![0.0; n],
                requireds: vec![0.0; n],
                worst_sp: vec![0; n],
                worst_rf: vec![0; n],
            }
        });
        let n = report.as_ref().map_or(0, |r| r.slacks.len()) as u64;
        let endpoints = match rng.gen_range(0u32..6) {
            0 | 1 => None,
            // Not an array at all.
            2 => Some(7.0_f64.to_json()),
            _ => {
                let len = rng.gen_range(0usize..12);
                let items = (0..len)
                    .map(|_| match rng.gen_range(0u32..16) {
                        0 => n.to_json(),
                        1 => ((1u64 << 32) + 1).to_json(),
                        2 => Json::Num(1.5),
                        3 => Json::Num(-1.0),
                        4 => Json::Str("0".into()),
                        _ => rng.gen_range(0..n.max(1)).to_json(),
                    })
                    .collect();
                Some(Json::Arr(items))
            }
        };
        Case {
            id: rng.gen_range(1u64..1 << 40),
            envelope_epoch: epoch + rng.gen_range(0u64..3),
            epoch,
            degraded: rng.gen_bool(0.5),
            report,
            endpoints,
        }
    }

    #[test]
    fn generated_report_slack_replies_equal_the_tree_encoders_bytes() {
        for_all(Config::cases(600), any_case, |c| {
            let oracle = tree_body(
                c.id,
                c.envelope_epoch,
                tree_report_slack(c.epoch, c.report.as_ref(), c.degraded, c.endpoints.as_ref()),
            );
            // The daemon decodes `endpoints` before the op runs: a list that
            // is not one of indices never reaches the reply writer, and is
            // refused as the oracle refuses it, with a message naming it.
            let params = obj(c.endpoints.clone().map(|e| ("endpoints", e)));
            let endpoints = match Params::decode(Op::ReportSlack, &params) {
                Ok(Params::ReportSlack { endpoints, .. }) => endpoints,
                Ok(other) => panic!("report_slack decoded as {other:?}"),
                Err(e) => {
                    prop_assert!(e.msg.starts_with("endpoints: "), "{e}");
                    let refused = decoded(&oracle);
                    prop_assert_eq!(refused.code(), Some(code::BAD_REQUEST));
                    return Ok(());
                }
            };
            let image = OnceLock::new();
            let counters = ServeCounters::default();
            // Twice: the whole-report form builds the image, then shares it.
            for read in ["first", "second"] {
                let reply = slack_reply(
                    c.epoch,
                    c.report.as_ref(),
                    &image,
                    c.degraded,
                    endpoints.as_deref(),
                    &counters,
                );
                let body = render(c.id, c.envelope_epoch, reply);
                prop_assert!(
                    body == oracle,
                    "read {read}:\n   got {body}\n want {oracle}"
                );
                prop_assert_eq!(decoded(&body), decoded(&oracle));
            }
            let whole = c.report.is_some() && c.endpoints.is_none();
            let count = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
            prop_assert_eq!(count(&counters.slack_images_built), u64::from(whole));
            prop_assert_eq!(count(&counters.slack_image_hits), u64::from(whole));
            prop_assert!(image.get().is_some() == whole, "an image nobody asked for");
            Ok(())
        });
    }

    // ---- A real daemon: every op's reply, resolved epochs included ---------

    fn engine(seed: u64, propagate: bool) -> InstaEngine {
        let design = generate_design(&GeneratorConfig::small("reply-identity", seed));
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference STA");
        sta.full_update(&design);
        let cfg = InstaConfig {
            top_k: 4,
            ..InstaConfig::default()
        };
        let mut engine = InstaEngine::new(sta.export_insta_init(), cfg).expect("engine init");
        if propagate {
            engine.propagate();
        }
        engine
    }

    fn request(id: u64, op: Op, params: Json) -> Request {
        Request {
            id,
            op,
            deadline_ms: None,
            version: Some(PROTOCOL_VERSION),
            params,
        }
    }

    /// What the tree encoder replies to a read against the server's current
    /// epoch (`degraded` as the caller arranged it).
    fn tree_reply(server: &Server, req: &Request, degraded: bool) -> String {
        let snap = server.snapshot();
        let outcome = match req.op {
            Op::ReportSlack => tree_report_slack(
                snap.epoch(),
                snap.report(),
                degraded,
                req.params.field("endpoints").ok(),
            ),
            Op::ReportAt => Ok(tree_report_at(
                &snap,
                req.params.get("node").expect("a valid node"),
                req.params.get::<usize>("rf").unwrap_or(0),
            )),
            other => panic!("no oracle for {}", other.name()),
        };
        tree_body(req.id, snap.epoch(), outcome)
    }

    fn served(server: &Server, req: &Request) -> String {
        server.handle_request(req.encode().as_bytes()).0
    }

    #[test]
    fn a_daemons_read_replies_equal_the_tree_encoders_bytes() {
        let server = Server::new(engine(5, true), ServeConfig::default());
        let n = server.snapshot().num_endpoints() as u64;
        assert!(n > 2);
        let mut id = 0;
        let mut check = |op: Op, params: Json| {
            id += 1;
            let req = request(id, op, params);
            let (body, oracle) = (served(&server, &req), tree_reply(&server, &req, false));
            assert_eq!(body, oracle, "{} #{id}", op.name());
            assert_eq!(decoded(&body), decoded(&oracle));
        };
        let endpoints = |idx: &[u64]| obj([("endpoints", idx.to_vec().to_json())]);
        check(Op::ReportSlack, Json::Null);
        check(Op::ReportSlack, Json::Null);
        check(Op::ReportSlack, obj([("min_epoch", 0u64.to_json())]));
        check(Op::ReportSlack, endpoints(&[0, n - 1, 1, 1]));
        check(Op::ReportSlack, endpoints(&[]));
        check(Op::ReportSlack, endpoints(&[0, n]));
        check(Op::ReportSlack, endpoints(&[(1 << 32) + 1]));
        for node in 0..40u64 {
            check(Op::ReportAt, obj([("node", node.to_json())]));
            check(
                Op::ReportAt,
                obj([("node", node.to_json()), ("rf", 1u64.to_json())]),
            );
        }
        let reached = |rf: u64| {
            (0..40u64).any(|node| {
                let params = obj([("node", node.to_json()), ("rf", rf.to_json())]);
                decoded(&served(&server, &request(99, Op::ReportAt, params)))
                    .result
                    .get::<bool>("reached")
                    .expect("reached")
            })
        };
        assert!(reached(0) && reached(1), "some probed node must be reached");
        // An unknown node is unreached, not an error.
        check(Op::ReportAt, obj([("node", 4_000_000u64.to_json())]));
    }

    #[test]
    fn no_report_yet_is_the_same_typed_refusal() {
        let server = Server::new(engine(6, false), ServeConfig::default());
        assert!(server.snapshot().report().is_none());
        for params in [Json::Null, obj([("endpoints", vec![0u64].to_json())])] {
            let req = request(3, Op::ReportSlack, params);
            let body = served(&server, &req);
            assert_eq!(body, tree_reply(&server, &req, false));
            assert_eq!(decoded(&body).code(), Some(code::BAD_REQUEST));
        }
        assert!(server.published().slack_image().is_none());
    }

    #[test]
    fn a_degraded_read_and_a_min_epoch_wait_splice_the_same_image() {
        let cfg = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let server = Server::new(engine(7, true), cfg);
        let fresh = request(1, Op::ReportSlack, Json::Null);
        assert_eq!(served(&server, &fresh), tree_reply(&server, &fresh, false));

        // A rejection storm walks the gate to `SnapshotOnly`: a read that asks
        // for an epoch nobody committed is answered at once, flagged.
        let gate = &server.shared.admission;
        let hold = gate.try_admit(OpKind::Read).expect("a free slot");
        let storm = crate::admission::SNAPSHOT_ONLY_PRESSURE
            .div_ceil(crate::admission::REJECTION_PRESSURE)
            + 2;
        for _ in 0..storm {
            assert!(gate.try_admit(OpKind::Read).is_err());
        }
        drop(hold);
        assert_eq!(server.tier(), Tier::SnapshotOnly);
        let stale = request(2, Op::ReportSlack, obj([("min_epoch", 9u64.to_json())]));
        let body = served(&server, &stale);
        assert_eq!(body, tree_reply(&server, &stale, true));
        assert!(decoded(&body).result.get::<bool>("degraded").expect("flag"));
        let image = Arc::clone(server.published().slack_image().expect("built once"));
        assert_eq!(
            server.counters().slack_images_built.load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            server.counters().slack_image_hits.load(Ordering::Relaxed),
            1
        );

        // A healthy gate honours the wait: the read blocks until a commit
        // publishes epoch 1, and answers from *that* epoch's image.
        let server = Server::new(engine(7, true), ServeConfig::default());
        let wait = request(4, Op::ReportSlack, obj([("min_epoch", 1u64.to_json())]));
        let body = std::thread::scope(|scope| {
            let reader = scope.spawn(|| served(&server, &wait));
            let deltas = (0..24u64)
                .map(|arc| {
                    obj([
                        ("arc", arc.to_json()),
                        ("mean", [300.0, 300.0].to_json()),
                        ("sigma", [5.0, 5.0].to_json()),
                    ])
                })
                .collect();
            let commit = request(5, Op::Update, obj([("deltas", Json::Arr(deltas))]));
            assert!(decoded(&served(&server, &commit)).ok);
            reader.join().expect("the waiting reader")
        });
        assert_eq!(server.snapshot().epoch(), 1);
        assert_eq!(body, tree_reply(&server, &wait, false));
        let after = server.published();
        let waited = after.slack_image().expect("the waiter built epoch 1's");
        assert_ne!(**waited, *image, "the commit moved some slack");
    }

    /// A plain delta array is a corner-less, mode-less scenario: the reply
    /// and the engine counters are what `evaluate` of the same delta sets
    /// produces, quarantined and out-of-range arcs included; an arc id past
    /// `u32` fails the request as it did.
    #[test]
    fn a_plain_array_batch_replies_as_evaluate_batch_did() {
        let server = Server::new(engine(8, true), ServeConfig::default());
        let mut twin = engine(8, true);
        let delta = |arc: u32, sigma: f64| ArcDelta {
            arc,
            mean: [60.0 + f64::from(arc), 20.0],
            sigma: [sigma, 1.5],
        };
        let sets: Vec<Vec<ArcDelta>> = vec![
            vec![delta(0, 2.0)],
            vec![],
            vec![delta(1, -1.0)],       // invalid sigma: quarantined
            vec![delta(4_000_000, 2.0)], // past the graph's arcs: quarantined
            vec![delta(2, 2.0), delta(3, 0.5)],
        ];
        let scenarios = sets.iter().map(ToJson::to_json).collect();
        let req = request(1, Op::Batch, obj([("scenarios", Json::Arr(scenarios))]));
        let body = served(&server, &req);

        let opts = insta_engine::PassOptions {
            cancel: Some(CancelToken::new()),
            deadline: None,
        };
        let sets: Vec<insta_engine::Scenario> = sets.into_iter().map(Into::into).collect();
        let rows = twin
            .evaluate(&sets, &opts)
            .scenarios
            .iter()
            .map(|r| match &r.outcome {
                Ok(rep) => obj([
                    ("scenario", (r.scenario as u64).to_json()),
                    ("ok", Json::Bool(true)),
                    ("wns_ps", rep.wns_ps.to_json()),
                    ("tns_ps", rep.tns_ps.to_json()),
                    ("n_violations", (rep.n_violations as u64).to_json()),
                ]),
                Err(e) => obj([
                    ("scenario", (r.scenario as u64).to_json()),
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(e.category().to_owned())),
                ]),
            })
            .collect();
        let expected = obj([("scenarios", Json::Arr(rows))]);
        assert_eq!(body, tree_body(1, 0, Ok(expected)));
        let counters = lock(&server.shared.writer).counters();
        assert_eq!(counters, twin.counters());
        assert_eq!((counters.batch_scenarios, counters.batch_quarantined), (5, 2));

        // The `stats` op shows the writer's counters, a commit's included.
        let commit = request(2, Op::Propagate, Json::Null);
        assert!(decoded(&served(&server, &commit)).ok);
        let mut s = twin.begin_session();
        s.propagate().expect("twin propagate");
        s.commit().expect("twin commit");
        let stats = decoded(&served(&server, &request(3, Op::Stats, Json::Null)));
        let shown = stats.result.field("engine").expect("engine counters");
        let want = twin.counters();
        for (key, value) in [
            ("batches", want.batches),
            ("batch_scenarios", want.batch_scenarios),
            ("batch_quarantined", want.batch_quarantined),
            ("mcmm_corner_lanes", want.mcmm_corner_lanes),
            ("mcmm_deduped", want.mcmm_deduped),
        ] {
            assert_eq!(shown.get::<u64>(key).expect(key), value, "{key}");
        }

        // An arc id that does not fit `u32` is the whole request's error.
        let past = obj([
            ("arc", ((1u64 << 32) + 1).to_json()),
            ("mean", [1.0, 1.0].to_json()),
            ("sigma", [1.0, 1.0].to_json()),
        ]);
        let scenarios = Json::Arr(vec![Json::Arr(vec![past])]);
        let reply = decoded(&served(
            &server,
            &request(4, Op::Batch, obj([("scenarios", scenarios)])),
        ));
        assert_eq!(reply.code(), Some(code::BAD_REQUEST));
        let message = reply.error.unwrap().1;
        assert!(
            message.contains("deltas: index 0: field `arc`"),
            "{message}"
        );
    }
}
