//! The daemon: MVCC snapshot publication, the connection supervisor, and
//! request dispatch.
//!
//! # MVCC read path
//!
//! The committed epoch lives in a [`SnapshotCell`]: an
//! `RwLock<Arc<TimingSnapshot>>` where the read lock is held only long
//! enough to clone the `Arc` (nanoseconds) — never across a propagation.
//! Readers therefore observe a wholly-consistent epoch, old or new and
//! never a blend, while the single writer mutates the *next* epoch inside
//! `Mutex<InstaEngine>` and publishes with one pointer swap after a
//! successful commit. A failed or deadline-cancelled write rolls back via
//! the session layer and publishes nothing: readers cannot observe a
//! half-committed epoch by construction.
//!
//! # Failure containment
//!
//! Each connection runs in its own thread; dispatch is wrapped in
//! `catch_unwind`, so a panic poisons at most that request — the session
//! guard rolls the engine back during unwind, mutex poisoning is
//! tolerated everywhere (`into_inner`), and the client gets a typed
//! `internal` error instead of a dead socket. See DESIGN.md "Service
//! architecture" for the full failure matrix.

use crate::admission::{Admission, Rejection, ServeConfig, ServeCounters, Tier};
use crate::protocol::{
    code, err_response, ok_response, read_frame, write_frame, FrameError, Op, OpKind, Request,
    PROTOCOL_VERSION,
};
use crate::recovery::{self, RecoveryReport};
use crate::wal::{panic_message, Durability, DurabilityConfig};
use insta_engine::{
    CancelToken, CornerTransform, Deadline, DeltaSet, EngineDurableState, IncidentLog,
    InstaEngine, InstaError, ModeMask, Scenario, ServiceIncident, TimingSnapshot, WriterOp,
};
use insta_refsta::eco::ArcDelta;
use insta_support::json::{obj, Json, ToJson};
use insta_support::obs::Recorder;
use std::io::{BufReader, Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Locks a mutex, tolerating poisoning: a panic in another connection
/// must not cascade — the session layer already rolled the engine back
/// during that thread's unwind, so the data behind the lock is sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The published committed epoch. `load` is the entire read path.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: RwLock<Arc<TimingSnapshot>>,
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
            inner: RwLock::new(Arc::new(snap)),
            watch: Mutex::new(epoch),
            publish_cv: Condvar::new(),
        }
    }

    /// Clones the current epoch's `Arc` — the only thing the read lock
    /// ever covers.
    pub fn load(&self) -> Arc<TimingSnapshot> {
        Arc::clone(&self.inner.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Atomically replaces the published epoch. Monotonic: a snapshot
    /// that is not strictly newer than the published one is dropped, so
    /// the published epoch can never regress — even if two publishes
    /// ever race, the older writer loses.
    fn publish(&self, snap: TimingSnapshot) {
        let epoch = snap.epoch();
        // The lock covers the pointer swap and nothing else: the new `Arc`
        // is allocated before it is taken, and the displaced epoch — the
        // last reference to it, when no reader holds one — is freed after
        // it is released, so no reader's `load` waits on the allocator.
        drop(swap_if_newer(&self.inner, Arc::new(snap), |new, cur| {
            new.epoch() > cur.epoch()
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
    admission: Admission,
    counters: ServeCounters,
    incidents: Mutex<IncidentLog>,
    journal: Mutex<Recorder>,
    shutdown: CancelToken,
    /// The durability layer (`None` = ephemeral daemon, PR 7 behavior).
    durability: Option<Durability>,
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
        let mut log = IncidentLog::with_capacity(cfg.incident_log_cap);
        for inc in seed_incidents {
            log.record_service(inc.clone());
        }
        let journal = Mutex::new(Recorder::with_capacity(cfg.journal_capacity));
        Server {
            shared: Arc::new(Shared {
                cfg,
                cell,
                writer: Mutex::new(engine),
                admission,
                counters: ServeCounters::default(),
                incidents: Mutex::new(log),
                journal,
                shutdown: CancelToken::new(),
                durability,
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
    /// or shutdown. Never panics out: dispatch runs under `catch_unwind`.
    pub fn handle_connection<R: Read, W: Write>(&self, reader: R, mut writer: W) {
        let sh = &self.shared;
        sh.counters.connections_opened.fetch_add(1, Ordering::Relaxed);
        let mut reader = BufReader::new(reader);
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
                    let epoch = sh.cell.load().epoch();
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
            let (response, close) = self.handle_request(&body);
            if write_frame(&mut writer, &response).is_err() {
                break;
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

    /// Accept loop: one thread per connection, until the shutdown token
    /// fires. The listener runs nonblocking with a short poll so a
    /// `shutdown` request winds the loop down promptly — a blocking
    /// accept would otherwise pin the daemon until one more connection
    /// happened to arrive.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            if self.shared.shutdown.is_cancelled() {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Connection threads want blocking reads — only the
                    // accept itself polls.
                    stream.set_nonblocking(false)?;
                    let peer = stream.try_clone()?;
                    let server = self.clone();
                    std::thread::spawn(move || server.handle_connection(peer, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn record_incident(&self, request_id: u64, category: &'static str, message: &str) {
        lock(&self.shared.incidents).record_service(ServiceIncident {
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
            for message in dur.take_incidents() {
                self.record_incident(0, code::DURABILITY, &message);
            }
        }
    }

    /// Decodes, admits, dispatches (panic-isolated), and renders one
    /// request. Returns `(response body, close connection)`.
    fn handle_request(&self, body: &[u8]) -> (String, bool) {
        let sh = &self.shared;
        let started = Instant::now();
        let req = match Request::decode(body) {
            Ok(r) => r,
            Err(e) => {
                // id 0 means the body never yielded a request object —
                // that's a protocol error; a decoded-but-invalid request
                // is the client's bug.
                let code = if e.id == 0 { code::PROTOCOL } else { code::BAD_REQUEST };
                sh.counters.rejected_protocol.fetch_add(1, Ordering::Relaxed);
                self.record_incident(e.id, code, &e.message);
                let epoch = sh.cell.load().epoch();
                return (err_response(e.id, epoch, code, &e.message, None), false);
            }
        };
        // Version gate (satellite): a client that declares a different
        // protocol generation is refused before dispatch — loudly and
        // typed, not with a decode error three ops later.
        if let Some(v) = req.version {
            if v != PROTOCOL_VERSION {
                let msg = format!(
                    "client speaks protocol version {v}, server speaks {PROTOCOL_VERSION}"
                );
                sh.counters.rejected_protocol.fetch_add(1, Ordering::Relaxed);
                self.record_incident(req.id, code::VERSION_MISMATCH, &msg);
                let epoch = sh.cell.load().epoch();
                return (
                    err_response(req.id, epoch, code::VERSION_MISMATCH, &msg, None),
                    false,
                );
            }
        }
        let outcome = self.admit_and_execute(&req);
        let epoch = sh.cell.load().epoch();
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
        match outcome {
            Ok(result) => (ok_response(req.id, epoch, result), req.op == Op::Shutdown),
            Err(e) => {
                self.note_failure(&req, &e);
                (
                    err_response(req.id, epoch, e.code, &e.message, e.retry_after_ms),
                    false,
                )
            }
        }
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

    fn admit_and_execute(&self, req: &Request) -> Result<Json, ErrReply> {
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
                retry_after_ms: Some(sh.cfg.retry_after_ms * 4),
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

    fn execute(&self, req: &Request, deadline: Option<&Deadline>) -> Result<Json, ErrReply> {
        match req.op {
            Op::Ping => Ok(obj([
                ("pong", Json::Bool(true)),
                ("version", PROTOCOL_VERSION.to_json()),
            ])),
            Op::Stats => Ok(self.stats()),
            Op::ReportSlack => self.report_slack(req, deadline),
            Op::ReportAt => self.report_at(req),
            Op::PerfReport => Ok(self.shared.cell.load().perf_report().to_json()),
            Op::Incidents => Ok(self.incidents()),
            Op::Journal => Ok(Json::Str(lock(&self.shared.journal).export_jsonl())),
            Op::Update | Op::Propagate => self.write_epoch(req, deadline),
            Op::Batch => self.batch(req, deadline),
            Op::Gradient => self.gradient(req, deadline),
            Op::Shutdown => {
                self.shared.shutdown.cancel();
                Ok(obj([("stopping", Json::Bool(true))]))
            }
            Op::DebugStall => {
                let ms = req.params.get::<u64>("ms").unwrap_or(10).min(10_000);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(obj([("stalled_ms", ms.to_json())]))
            }
            Op::DebugPanic => panic!("debug_panic requested by request {}", req.id),
        }
    }

    /// Engine + service counters, tier, and ring occupancy (satellite:
    /// the `stats` surface).
    fn stats(&self) -> Json {
        self.drain_durability_incidents();
        let sh = &self.shared;
        let snap = sh.cell.load();
        let ec = snap.counters();
        let engine = obj([
            ("epoch", ec.epoch.to_json()),
            ("sessions_begun", ec.sessions_begun.to_json()),
            ("sessions_committed", ec.sessions_committed.to_json()),
            ("sessions_rolled_back", ec.sessions_rolled_back.to_json()),
            ("sessions_cancelled", ec.sessions_cancelled.to_json()),
            ("degraded_passes", ec.degraded_passes.to_json()),
            ("incremental_updates", ec.incremental_updates.to_json()),
            ("drift_updates", ec.drift_updates.to_json()),
            ("drift_mass", ec.drift_mass.to_json()),
            ("incidents_total", ec.incidents_total.to_json()),
            ("incidents_dropped", ec.incidents_dropped.to_json()),
            ("batches", ec.batches.to_json()),
            ("batch_scenarios", ec.batch_scenarios.to_json()),
            ("batch_quarantined", ec.batch_quarantined.to_json()),
            ("mcmm_evaluations", ec.mcmm_evaluations.to_json()),
            ("mcmm_corner_lanes", ec.mcmm_corner_lanes.to_json()),
            ("mcmm_deduped", ec.mcmm_deduped.to_json()),
            (
                "stat_backend",
                Json::Str(ec.stat_backend.name().to_owned()),
            ),
            ("stat_bins", (ec.stat_bins as u64).to_json()),
        ]);
        let service = Json::Obj(
            sh.counters
                .rows()
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.to_json()))
                .collect(),
        );
        let durability = match &sh.durability {
            None => obj([("enabled", Json::Bool(false))]),
            Some(d) => {
                let mut rows = vec![
                    ("enabled", Json::Bool(true)),
                    ("fsync", Json::Bool(d.fsync_enabled())),
                ];
                let stat_rows = d.stats.rows();
                rows.extend(stat_rows.iter().map(|(k, v)| (*k, v.to_json())));
                obj(rows)
            }
        };
        let log = lock(&sh.incidents);
        obj([
            ("epoch", snap.epoch().to_json()),
            ("version", PROTOCOL_VERSION.to_json()),
            ("tier", Json::Str(sh.admission.tier().name().to_owned())),
            ("pressure", sh.admission.pressure().to_json()),
            ("inflight", (sh.admission.inflight() as u64).to_json()),
            ("engine", engine),
            ("service", service),
            ("durability", durability),
            ("service_incidents", (log.total()).to_json()),
        ])
    }

    fn incidents(&self) -> Json {
        self.drain_durability_incidents();
        let log = lock(&self.shared.incidents);
        let rows: Vec<Json> = log
            .services()
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
    ) -> Result<(Arc<TimingSnapshot>, bool), ErrReply> {
        let sh = &self.shared;
        let snap = sh.cell.load();
        if snap.epoch() >= min_epoch {
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
                sh.cell.load().epoch()
            ),
        ))
    }

    fn report_slack(&self, req: &Request, deadline: Option<&Deadline>) -> Result<Json, ErrReply> {
        let min_epoch = req.params.get::<u64>("min_epoch").unwrap_or(0);
        let (snap, degraded) = self.resolve_snapshot(min_epoch, deadline)?;
        let report = snap.report().ok_or_else(|| {
            ErrReply::new(
                code::BAD_REQUEST,
                "no committed report yet; send a propagate request first",
            )
        })?;
        let slacks: Vec<Json> = match req.params.field("endpoints") {
            Ok(eps) => {
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
                            format!("endpoint {i} out of range ({} endpoints)", report.slacks.len()),
                        )
                    })?;
                    out.push(s.to_json());
                }
                out
            }
            Err(_) => report.slacks.iter().map(|s| s.to_json()).collect(),
        };
        Ok(obj([
            ("epoch", snap.epoch().to_json()),
            ("degraded", Json::Bool(degraded)),
            ("wns_ps", report.wns_ps.to_json()),
            ("tns_ps", report.tns_ps.to_json()),
            ("n_violations", (report.n_violations as u64).to_json()),
            ("slacks", Json::Arr(slacks)),
        ]))
    }

    fn report_at(&self, req: &Request) -> Result<Json, ErrReply> {
        let bad = |m: String| ErrReply::new(code::BAD_REQUEST, m);
        // Node ids are u32 on the engine side: a wider integer is refused,
        // never narrowed onto some other node.
        let node = req
            .params
            .get::<u32>("node")
            .map_err(|e| bad(format!("node: {e}")))?;
        // `rf` is optional (rise); when present it must be a transition.
        let rf = match req.params.field("rf").map(Json::as_u64) {
            Err(_) => 0,
            Ok(Ok(rf @ 0..=1)) => rf as usize,
            Ok(_) => return Err(bad("rf: want 0 (rise) or 1 (fall)".into())),
        };
        let snap = self.shared.cell.load();
        let arrival = snap.arrival_at(node, rf);
        Ok(obj([
            ("epoch", snap.epoch().to_json()),
            ("reached", Json::Bool(arrival.is_some())),
            ("arrival", arrival.map_or(Json::Null, |a| a.to_json())),
        ]))
    }

    /// The writer path: `update` (apply deltas) or `propagate` (full
    /// refresh), committed transactionally and published atomically.
    fn write_epoch(&self, req: &Request, deadline: Option<&Deadline>) -> Result<Json, ErrReply> {
        let sh = &self.shared;
        let mut deltas = if req.op == Op::Update {
            parse_deltas(req.params.field("deltas").unwrap_or(&Json::Null))?
        } else {
            Vec::new()
        };
        let mut eng = lock(&sh.writer);
        let mut session = eng.begin_session().with_cancel(sh.shutdown.clone());
        if let Some(d) = deadline {
            session = session.with_deadline(d.remaining());
        }
        let outcome = if req.op == Op::Update {
            session.update_timing(&deltas)
        } else {
            session.propagate()
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
            let op = if req.op == Op::Update {
                WriterOp::Update(std::mem::take(&mut deltas))
            } else {
                WriterOp::Propagate
            };
            if let Err(e) = dur.log_commit(next_epoch, &op) {
                session.rollback();
                return Err(ErrReply::new(
                    code::DURABILITY,
                    format!("write-ahead log append failed: {e}; rolled back uncommitted"),
                ));
            }
        }
        let epoch = session.commit().map_err(map_engine_err)?;
        let snap = eng.snapshot();
        // Publish before releasing the writer lock: commit order and
        // publication order must agree, or a preempted writer could
        // publish its older epoch over a successor's newer one.
        sh.cell.publish(snap);
        if let Some(dur) = &sh.durability {
            // Checkpoint cadence, still under the writer lock so the
            // captured state is exactly the epoch just published. Only the
            // capture (a clone of the annotations) happens here, and only
            // on the commits the cadence selects; encoding and every byte
            // of checkpoint I/O belong to the layer's background writer.
            if dur.checkpoint_due() {
                dur.submit_checkpoint(EngineDurableState::capture(&eng), sh.cell.load());
            }
        }
        drop(eng);
        self.drain_durability_incidents();
        ServeCounters::bump(&sh.counters.snapshot_swaps);
        Ok(obj([
            ("epoch", epoch.to_json()),
            ("wns_ps", wns.to_json()),
            ("tns_ps", tns.to_json()),
            ("n_violations", (viol as u64).to_json()),
        ]))
    }

    fn batch(&self, req: &Request, deadline: Option<&Deadline>) -> Result<Json, ErrReply> {
        let sh = &self.shared;
        let scenarios_json = req
            .params
            .field("scenarios")
            .map_err(|e| ErrReply::new(code::BAD_REQUEST, format!("scenarios: {e}")))?
            .as_arr()
            .map_err(|e| ErrReply::new(code::BAD_REQUEST, format!("scenarios: {e}")))?;
        if scenarios_json.len() > sh.cfg.max_batch_scenarios {
            return Err(ErrReply::new(
                code::BAD_REQUEST,
                format!(
                    "{} scenarios exceeds the cap of {}",
                    scenarios_json.len(),
                    sh.cfg.max_batch_scenarios
                ),
            ));
        }
        let opts = insta_engine::BatchOptions {
            gradients: false,
            cancel: Some(sh.shutdown.clone()),
            deadline: deadline.map(|d| d.remaining()),
        };
        // `merged: true` asks for the MCMM worst-corner merge on top of
        // the per-scenario rows (protocol generation 2).
        let merged = matches!(
            req.params.field("merged").and_then(|v| v.as_bool()),
            Ok(true)
        );
        // Plain delta-array scenarios without a merge request take the
        // generation-1 path verbatim; scenario *objects* (deltas × corner
        // × mode) and merge requests go through the MCMM entry points.
        let legacy = !merged && scenarios_json.iter().all(|s| s.as_arr().is_ok());
        let (results, merged_json) = if legacy {
            let mut sets = Vec::with_capacity(scenarios_json.len());
            for s in scenarios_json {
                sets.push(DeltaSet::from(parse_deltas(s)?));
            }
            let mut eng = lock(&sh.writer);
            let results = eng.evaluate_batch_with(&sets, &opts);
            drop(eng);
            (results, None)
        } else {
            let mut scs = Vec::with_capacity(scenarios_json.len());
            for s in scenarios_json {
                scs.push(parse_scenario(s)?);
            }
            let mut eng = lock(&sh.writer);
            if merged {
                let rep = eng.evaluate_mcmm_with(&scs, &opts);
                drop(eng);
                let m = obj([
                    ("wns_ps", rep.merged_wns_ps.to_json()),
                    ("tns_ps", rep.merged_tns_ps.to_json()),
                    ("n_violations", (rep.merged_violations as u64).to_json()),
                ]);
                (rep.scenarios, Some(m))
            } else {
                let results = eng.evaluate_scenarios_with(&scs, &opts);
                drop(eng);
                (results, None)
            }
        };
        let rows: Vec<Json> = results
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
        if let Some(m) = merged_json {
            fields.push(("merged", m));
        }
        Ok(obj(fields))
    }

    /// The differentiable pass: LSE forward + TNS backward inside a
    /// rolled-back session — the committed epoch is never perturbed.
    fn gradient(&self, req: &Request, deadline: Option<&Deadline>) -> Result<Json, ErrReply> {
        let sh = &self.shared;
        let mut eng = lock(&sh.writer);
        let mut session = eng.begin_session().with_cancel(sh.shutdown.clone());
        if let Some(d) = deadline {
            session = session.with_deadline(d.remaining());
        }
        let run = session
            .forward_lse()
            .and_then(|()| session.backward_tns());
        let grads = match run {
            Ok(()) => session.engine().arc_gradients(),
            Err(e) => {
                session.rollback();
                return Err(map_engine_err(e));
            }
        };
        session.rollback();
        drop(eng);
        let result = match req.params.field("arcs") {
            Ok(list) => {
                let idx = list
                    .as_arr()
                    .map_err(|e| ErrReply::new(code::BAD_REQUEST, format!("arcs: {e}")))?;
                let mut vals = Vec::with_capacity(idx.len());
                for j in idx {
                    let a = j
                        .as_u64()
                        .map_err(|e| ErrReply::new(code::BAD_REQUEST, format!("arcs: {e}")))?
                        as usize;
                    let g = grads.get(a).ok_or_else(|| {
                        ErrReply::new(
                            code::BAD_REQUEST,
                            format!("arc {a} out of range ({} arcs)", grads.len()),
                        )
                    })?;
                    vals.push(g.to_json());
                }
                obj([
                    ("n_arcs", (grads.len() as u64).to_json()),
                    ("gradients", Json::Arr(vals)),
                ])
            }
            Err(_) => {
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

/// Decodes one `batch` scenario: the legacy delta array, or the MCMM
/// object `{"deltas": [...], "corner": {"mean_scale", "mean_offset_ps",
/// "sigma_scale", "sigma_offset_ps"}, "mode": {"disabled": [ep, ...]}}`
/// — every field optional, corner fields defaulting to the identity.
fn parse_scenario(j: &Json) -> Result<Scenario, ErrReply> {
    let bad = |m: String| ErrReply::new(code::BAD_REQUEST, m);
    if j.as_arr().is_ok() {
        return Ok(Scenario::from(parse_deltas(j)?));
    }
    let mut sc = Scenario::default();
    if let Ok(d) = j.field("deltas") {
        sc.deltas = parse_deltas(d)?;
    }
    if let Ok(c) = j.field("corner") {
        let f = |key: &'static str, dflt: f64| -> Result<f64, ErrReply> {
            match c.field(key) {
                Ok(v) => v.as_f64().map_err(|e| bad(format!("corner {key}: {e}"))),
                Err(_) => Ok(dflt),
            }
        };
        sc.corner = Some(CornerTransform {
            mean_scale: f("mean_scale", 1.0)?,
            mean_offset_ps: f("mean_offset_ps", 0.0)?,
            sigma_scale: f("sigma_scale", 1.0)?,
            sigma_offset_ps: f("sigma_offset_ps", 0.0)?,
        });
    }
    if let Ok(m) = j.field("mode") {
        let list = m
            .field("disabled")
            .and_then(|v| v.as_arr())
            .map_err(|e| bad(format!("mode disabled: {e}")))?;
        let mut eps = Vec::with_capacity(list.len());
        for v in list {
            eps.push(v.as_u64().map_err(|e| bad(format!("mode disabled: {e}")))? as usize);
        }
        sc.mode = Some(ModeMask::disabling(eps));
    }
    Ok(sc)
}

/// Decodes `[{"arc":N,"mean":[r,f],"sigma":[r,f]}, ...]`.
fn parse_deltas(j: &Json) -> Result<Vec<ArcDelta>, ErrReply> {
    let bad = |m: String| ErrReply::new(code::BAD_REQUEST, m);
    let arr = j
        .as_arr()
        .map_err(|e| bad(format!("deltas: {e}")))?;
    let pair = |d: &Json, key: &str| -> Result<[f64; 2], ErrReply> {
        let v = d
            .field(key)
            .and_then(|f| f.as_arr())
            .map_err(|e| bad(format!("delta {key}: {e}")))?;
        if v.len() != 2 {
            return Err(bad(format!("delta {key}: want [rise, fall]")));
        }
        Ok([
            v[0].as_f64().map_err(|e| bad(format!("delta {key}: {e}")))?,
            v[1].as_f64().map_err(|e| bad(format!("delta {key}: {e}")))?,
        ])
    };
    let mut out = Vec::with_capacity(arr.len());
    for d in arr {
        out.push(ArcDelta {
            // Arc ids are u32: `2^32 + a valid id` must not wrap onto it.
            arc: d
                .get::<u32>("arc")
                .map_err(|e| bad(format!("delta arc: {e}")))?,
            mean: pair(d, "mean")?,
            sigma: pair(d, "sigma")?,
        });
    }
    Ok(out)
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
