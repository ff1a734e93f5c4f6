//! Admission control and graceful overload degradation.
//!
//! The daemon bounds concurrent *work*, not connections: every read or
//! heavy request must win one of [`ServeConfig::max_inflight`] slots
//! before it runs, and a full house is a typed [`overloaded`]
//! (`retry_after_ms` included) rather than a growing queue — the client
//! learns the truth in microseconds instead of timing out.
//!
//! Rejections feed a pressure score that decays as work completes — and,
//! since work may never arrive again after a rejection storm, also with
//! idle wall-clock time ([`PRESSURE_DECAY_MS`] per point),
//! so an idle daemon always walks back to `Normal` instead of wedging in
//! `SnapshotOnly`. The score selects the degradation [`Tier`] (at
//! [`SHED_PRESSURE`] and [`SNAPSHOT_ONLY_PRESSURE`]):
//!
//! | tier           | policy                                              |
//! |----------------|-----------------------------------------------------|
//! | `Normal`       | everything admitted while slots last                |
//! | `ShedHeavy`    | batch / gradient rejected with [`shed`]             |
//! | `SnapshotOnly` | additionally, `min_epoch` waits are not honored —   |
//! |                | reads are served from the last committed snapshot   |
//! |                | immediately, flagged `degraded: true`               |
//!
//! Two classes never degrade: control ops (`ping`/`stats`/`shutdown`
//! must work *especially* when the daemon is drowning) and writer ops —
//! the service sheds analysis load first, degrades read freshness
//! second, and never drops the writer.
//!
//! [`overloaded`]: crate::protocol::code::OVERLOADED
//! [`shed`]: crate::protocol::code::SHED

use crate::protocol::OpKind;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Base back-off hint carried by `overloaded` rejections, scaled by the
/// current pressure.
pub const RETRY_AFTER_MS: u64 = 2;
/// Pressure a rejection adds.
pub const REJECTION_PRESSURE: u32 = 3;
/// Pressure at which heavy work (batch/gradient) is shed.
pub const SHED_PRESSURE: u32 = 6;
/// Pressure at which reads stop honoring `min_epoch` waits and serve the
/// last committed snapshot flagged `degraded`.
pub const SNAPSHOT_ONLY_PRESSURE: u32 = 18;
/// Idle decay rate: one pressure point drains per this many milliseconds
/// without a rejection, so a daemon that stops receiving traffic after a
/// rejection storm still returns to [`Tier::Normal`] (completion-driven
/// decay alone needs new work to finish).
pub const PRESSURE_DECAY_MS: u64 = 100;

/// Tuning knobs of the service layer.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent read/heavy requests allowed to run (writers are exempt).
    pub max_inflight: usize,
    /// Largest accepted frame body (allocation-bomb guard).
    pub max_frame_bytes: usize,
    /// Default per-request wall-clock budget in ms (0 = none).
    pub default_deadline_ms: u64,
    /// Longest a `min_epoch` read will wait for a commit before failing
    /// with `deadline` (bounds the wait even without a client deadline).
    pub max_epoch_wait_ms: u64,
    /// Admit the `debug_stall` / `debug_panic` test hooks.
    pub enable_debug_ops: bool,
    /// Test hook: sleep this long inside writer dispatch *after*
    /// propagation but *before* the commit deadline check — models a
    /// stall in the window the per-level cancellation polls can't see.
    #[doc(hidden)]
    pub stall_writer_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_inflight: 8,
            max_frame_bytes: 16 << 20,
            default_deadline_ms: 0,
            max_epoch_wait_ms: 250,
            enable_debug_ops: false,
            stall_writer_ms: 0,
        }
    }
}

/// The current degradation tier, from least to most degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full service.
    Normal,
    /// Heavy analysis (batch/gradient) is shed.
    ShedHeavy,
    /// Reads are served from the last committed snapshot only.
    SnapshotOnly,
}

impl Tier {
    /// The wire / stats name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Normal => "normal",
            Tier::ShedHeavy => "shed_heavy",
            Tier::SnapshotOnly => "snapshot_only",
        }
    }
}

/// Why admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// No in-flight slot free; hint the client to back off.
    Overloaded {
        /// Suggested client back-off.
        retry_after_ms: u64,
    },
    /// Heavy work refused by the degradation tier.
    Shed,
}

/// The admission gate: a bounded in-flight counter plus the pressure
/// score driving the degradation tier. All atomics — readers never take
/// a lock to get admitted.
#[derive(Debug)]
pub struct Admission {
    max_inflight: usize,
    /// Monotonic clock base for the idle decay.
    epoch: std::time::Instant,
    /// Millis-since-`epoch` up to which idle decay has been applied;
    /// rejections push it forward so a storm can't bank idle credit.
    decay_mark_ms: AtomicU64,
    inflight: AtomicUsize,
    pressure: AtomicU32,
}

/// An admission slot held while a request runs; releasing it (Drop)
/// decays the pressure score — completed work is the evidence the
/// overload is passing.
#[derive(Debug)]
pub struct Ticket<'a> {
    gate: &'a Admission,
    counted: bool,
}

impl Admission {
    /// Builds the gate from the config knobs.
    pub fn new(cfg: &ServeConfig) -> Self {
        Admission {
            max_inflight: cfg.max_inflight.max(1),
            epoch: std::time::Instant::now(),
            decay_mark_ms: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            pressure: AtomicU32::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Drains the pressure earned by idle wall-clock time since the last
    /// mark. Called on every read of the score, so a wedged-but-idle
    /// daemon walks back to `Normal` without needing new completions.
    /// The CAS elects one caller per elapsed window; losers simply read
    /// the already-decayed score.
    fn decay_idle(&self) {
        let now = self.now_ms();
        let mark = self.decay_mark_ms.load(Ordering::Relaxed);
        let steps = now.saturating_sub(mark) / PRESSURE_DECAY_MS;
        if steps == 0 {
            return;
        }
        if self
            .decay_mark_ms
            .compare_exchange(
                mark,
                mark + steps * PRESSURE_DECAY_MS,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            let dec = u32::try_from(steps).unwrap_or(u32::MAX);
            let _ = self
                .pressure
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                    Some(p.saturating_sub(dec))
                });
        }
    }

    /// The current degradation tier.
    pub fn tier(&self) -> Tier {
        self.decay_idle();
        let p = self.pressure.load(Ordering::Relaxed);
        if p >= SNAPSHOT_ONLY_PRESSURE {
            Tier::SnapshotOnly
        } else if p >= SHED_PRESSURE {
            Tier::ShedHeavy
        } else {
            Tier::Normal
        }
    }

    /// Current pressure score (stats surface).
    pub fn pressure(&self) -> u32 {
        self.decay_idle();
        self.pressure.load(Ordering::Relaxed)
    }

    /// Requests currently holding a counted slot.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Admits or rejects one request. Control ops get an uncounted
    /// ticket; writers get a counted ticket unconditionally (they may
    /// exceed the cap — the writer is never dropped); reads and heavies
    /// compete for the bounded slots, and heavies are shed outright at
    /// [`Tier::ShedHeavy`] and above.
    pub fn try_admit(&self, kind: OpKind) -> Result<Ticket<'_>, Rejection> {
        match kind {
            OpKind::Control => Ok(Ticket {
                gate: self,
                counted: false,
            }),
            OpKind::Writer => {
                self.inflight.fetch_add(1, Ordering::AcqRel);
                Ok(Ticket {
                    gate: self,
                    counted: true,
                })
            }
            OpKind::Heavy if self.tier() >= Tier::ShedHeavy => {
                self.note_rejection();
                Err(Rejection::Shed)
            }
            OpKind::Read | OpKind::Heavy => {
                // Optimistic claim, undone on overflow: cheaper than CAS
                // loops and exact enough for an admission gate.
                let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
                if prev >= self.max_inflight {
                    self.inflight.fetch_sub(1, Ordering::AcqRel);
                    let p = self.note_rejection();
                    return Err(Rejection::Overloaded {
                        retry_after_ms: RETRY_AFTER_MS * u64::from(p.max(1)),
                    });
                }
                Ok(Ticket {
                    gate: self,
                    counted: true,
                })
            }
        }
    }

    /// Bumps pressure on a rejection; returns the new score. The decay
    /// mark moves to *now* so the storm itself doesn't bank idle credit
    /// accrued before it.
    fn note_rejection(&self) -> u32 {
        self.decay_mark_ms.store(self.now_ms(), Ordering::Relaxed);
        self.pressure
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                Some(p.saturating_add(REJECTION_PRESSURE))
            })
            .map(|p| p.saturating_add(REJECTION_PRESSURE))
            .unwrap_or(u32::MAX)
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        if self.counted {
            self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
        }
        // Completion decays pressure regardless of class — progress is
        // progress.
        let _ = self
            .gate
            .pressure
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                Some(p.saturating_sub(1))
            });
    }
}

/// Monotonic service-layer counters, exported by the `stats` op and the
/// throughput bench. All relaxed atomics — these are observability, not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Requests admitted and dispatched.
    pub accepted: AtomicU64,
    /// Requests refused with `overloaded`.
    pub rejected_overload: AtomicU64,
    /// Heavy requests refused by the degradation tier.
    pub shed: AtomicU64,
    /// Frames/bodies that failed to decode (`protocol` / `bad_request`).
    pub rejected_protocol: AtomicU64,
    /// Requests whose deadline fired mid-work (engine rolled back).
    pub deadline_cancelled: AtomicU64,
    /// Requests that finished past their wall-clock budget
    /// (`deadline_overshoot`).
    pub deadline_overshoot: AtomicU64,
    /// Reads served from a stale snapshot with `degraded: true`.
    pub degraded_reports: AtomicU64,
    /// Panics isolated by the connection supervisor.
    pub panics_isolated: AtomicU64,
    /// Snapshot publications (successful writer commits).
    pub snapshot_swaps: AtomicU64,
    /// Connections accepted.
    pub connections_opened: AtomicU64,
    /// Connections torn down.
    pub connections_closed: AtomicU64,
    /// Whole-report `report_slack` replies that had to write their
    /// epoch's wire image (the first such read of each epoch).
    pub slack_images_built: AtomicU64,
    /// Whole-report `report_slack` replies that shared an image already
    /// built — hits ÷ (hits + built) is the read path's repeat share.
    pub slack_image_hits: AtomicU64,
}

impl ServeCounters {
    /// The counters as `(name, value)` rows — the `stats.service` surface.
    pub fn rows(&self) -> [(&'static str, f64); 13] {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        [
            ("accepted", g(&self.accepted)),
            ("rejected_overload", g(&self.rejected_overload)),
            ("shed", g(&self.shed)),
            ("rejected_protocol", g(&self.rejected_protocol)),
            ("deadline_cancelled", g(&self.deadline_cancelled)),
            ("deadline_overshoot", g(&self.deadline_overshoot)),
            ("degraded_reports", g(&self.degraded_reports)),
            ("panics_isolated", g(&self.panics_isolated)),
            ("snapshot_swaps", g(&self.snapshot_swaps)),
            ("connections_opened", g(&self.connections_opened)),
            ("connections_closed", g(&self.connections_closed)),
            ("slack_images_built", g(&self.slack_images_built)),
            ("slack_image_hits", g(&self.slack_image_hits)),
        ]
    }

    /// Bump one counter by name-less reference (ergonomic shorthand).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_bounded_and_tickets_release() {
        let cfg = ServeConfig {
            max_inflight: 2,
            ..ServeConfig::default()
        };
        let gate = Admission::new(&cfg);
        let a = gate.try_admit(OpKind::Read).unwrap();
        let _b = gate.try_admit(OpKind::Read).unwrap();
        let rej = gate.try_admit(OpKind::Read).unwrap_err();
        assert!(matches!(rej, Rejection::Overloaded { retry_after_ms } if retry_after_ms > 0));
        drop(a);
        assert!(gate.try_admit(OpKind::Read).is_ok(), "slot came back");
    }

    #[test]
    fn writer_and_control_bypass_the_cap() {
        let cfg = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let gate = Admission::new(&cfg);
        let _r = gate.try_admit(OpKind::Read).unwrap();
        assert!(gate.try_admit(OpKind::Read).is_err(), "cap is real");
        let _w = gate.try_admit(OpKind::Writer).unwrap();
        let _c = gate.try_admit(OpKind::Control).unwrap();
        assert_eq!(gate.inflight(), 2, "writer counted, control not");
    }

    /// Rejections until the score reaches `pressure`.
    fn rejections_to(pressure: u32) -> u32 {
        pressure.div_ceil(REJECTION_PRESSURE)
    }

    #[test]
    fn pressure_walks_the_tiers_and_decays() {
        let cfg = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let gate = Admission::new(&cfg);
        assert_eq!(gate.tier(), Tier::Normal);
        let hold = gate.try_admit(OpKind::Read).unwrap();
        for _ in 0..rejections_to(SHED_PRESSURE) {
            let _ = gate.try_admit(OpKind::Read);
        }
        assert_eq!(gate.tier(), Tier::ShedHeavy, "heavies are shed");
        assert!(matches!(
            gate.try_admit(OpKind::Heavy),
            Err(Rejection::Shed)
        ));
        // That shed itself raised pressure further.
        while gate.pressure() < SNAPSHOT_ONLY_PRESSURE {
            let _ = gate.try_admit(OpKind::Read);
        }
        assert_eq!(gate.tier(), Tier::SnapshotOnly);
        // Writers are still admitted at the worst tier.
        assert!(gate.try_admit(OpKind::Writer).is_ok());
        // Completions decay the score back to normal.
        drop(hold);
        for _ in 0..SNAPSHOT_ONLY_PRESSURE + REJECTION_PRESSURE {
            drop(gate.try_admit(OpKind::Read).unwrap());
        }
        assert_eq!(gate.tier(), Tier::Normal, "pressure decayed");
    }

    /// Regression: an idle daemon must not wedge in `SnapshotOnly` after
    /// a rejection storm. Completion-driven decay needs new work to
    /// finish, and a shed-everything tier may never see any — wall-clock
    /// idle time alone has to drain the score.
    #[test]
    fn idle_pressure_decays_back_to_normal() {
        let cfg = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let gate = Admission::new(&cfg);
        let _hold = gate.try_admit(OpKind::Read).unwrap();
        for _ in 0..rejections_to(SNAPSHOT_ONLY_PRESSURE) {
            let _ = gate.try_admit(OpKind::Read);
        }
        assert_eq!(gate.tier(), Tier::SnapshotOnly, "storm wedged the gate");
        // Idle: no completions, no new traffic — the held ticket never
        // drops. Time alone must clear the tier.
        let step = std::time::Duration::from_millis(PRESSURE_DECAY_MS);
        let deadline = std::time::Instant::now() + step * (SNAPSHOT_ONLY_PRESSURE + 30);
        // `Normal` is reached before the score hits zero, so wait for
        // both (the tier read is what applies the decay).
        while (gate.tier() != Tier::Normal || gate.pressure() != 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(step / 4);
        }
        assert_eq!(gate.tier(), Tier::Normal, "idle gate never recovered");
        assert_eq!(gate.pressure(), 0, "score fully drained");
    }
}
