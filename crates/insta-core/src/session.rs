//! Transactional timing sessions: checkpoint, mutate, commit — or roll
//! back bit-identically.
//!
//! A [`TimingSession`] borrows the engine exclusively and anchors an
//! [`EpochCheckpoint`](crate::checkpoint::EpochCheckpoint) at the current
//! epoch. Every mutating call is then guarded:
//!
//! * **poison ⇒ rollback.** Any error whose
//!   [`poisons_state`](InstaError::poisons_state) is true (numeric poison,
//!   worker-panic runtime failures, cancellation) automatically restores
//!   the checkpoint and closes the session. `Validate` errors are raised
//!   before anything is mutated and leave the session open.
//! * **cancellation is bounded.** [`with_cancel`](TimingSession::with_cancel)
//!   / [`with_deadline`](TimingSession::with_deadline) arm a per-level
//!   poll in every kernel pass: at most one level's work runs after the
//!   token fires or the deadline expires, then the pass returns
//!   [`InstaError::Cancelled`] and the session rolls back.
//! * **no NaN escapes.** A committed report is gated on a cheap slack
//!   scan; a NaN slack poisons the session exactly like a kernel error.
//!
//! [`commit`](TimingSession::commit) promotes the work, drops the undo
//! log and bumps the engine [`epoch`](crate::engine::InstaEngine::epoch);
//! [`rollback`](TimingSession::rollback) (or dropping the session while
//! still open, or a poisoning error) restores the pre-session state
//! bit-for-bit: the Top-K arrays and arc annotations from the cone's undo
//! log, the validity ledger, report, drift and gradients from the
//! checkpoint. Reads (`arrival_at`, `snapshot()`) never see a rolled-back
//! pass, and the next update is a cone update again — also after a cancel,
//! a deadline, a NaN or a worker panic inside a cone sweep. Only a write
//! the log does not cover (a full pass inside the session) costs a full
//! pass to take back: the ledger's rollback rule, [`crate::validity`].
//! The sizer's candidate-move loop is the canonical client: speculative
//! moves run in a session, rejected moves roll back instead of replaying
//! inverse deltas.

use crate::checkpoint::EpochCheckpoint;
use crate::engine::InstaEngine;
use crate::error::InstaError;
use crate::metrics::InstaReport;
use crate::parallel::Interrupt;
use crate::validate::{Issue, ValidationReport};
use insta_refsta::eco::ArcDelta;
use insta_support::timer::{CancelToken, Deadline};
use std::time::Duration;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Accepting work; nothing promoted yet.
    Open,
    /// Work promoted into the engine's new epoch.
    Committed,
    /// Checkpoint restored (explicitly, on poison, or on drop-while-open).
    RolledBack,
    /// Rolled back because a cancel token fired or a deadline expired.
    Cancelled,
}

/// An exclusive, transactional view of an [`InstaEngine`].
///
/// Created by [`InstaEngine::begin_session`]. See the module docs for the
/// failure policy.
#[derive(Debug)]
pub struct TimingSession<'e> {
    eng: &'e mut InstaEngine,
    cp: EpochCheckpoint,
    status: SessionStatus,
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
}

impl InstaEngine {
    /// Opens a transactional session anchored at the current epoch.
    ///
    /// The session borrows the engine exclusively until it is committed,
    /// rolled back, or dropped (drop-while-open rolls back).
    pub fn begin_session(&mut self) -> TimingSession<'_> {
        self.stats.begun += 1;
        // The log is this session's now (an unwound update may have left one).
        self.cone.forget();
        self.validity.session_began();
        TimingSession {
            cp: EpochCheckpoint::default(),
            eng: self,
            status: SessionStatus::Open,
            cancel: None,
            deadline: None,
        }
    }
}

impl<'e> TimingSession<'e> {
    /// Arms a shared cancel token: kernels poll it once per timing level,
    /// so at most one level's work runs after [`CancelToken::cancel`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms a wall-clock budget for the whole session, measured from this
    /// call. Checked at the same per-level poll points as the token.
    pub fn with_deadline(self, budget: Duration) -> Self {
        self.with_deadline_at(Deadline::after(budget))
    }

    /// Arms an absolute deadline — how a batched call hands every serial
    /// lane the one instant its own budget ends at.
    pub(crate) fn with_deadline_at(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Current lifecycle state.
    pub fn status(&self) -> SessionStatus {
        self.status
    }

    /// Whether the session still accepts work.
    pub fn is_open(&self) -> bool {
        self.status == SessionStatus::Open
    }

    /// Read access to the underlying engine (reports, counters, drift).
    pub fn engine(&self) -> &InstaEngine {
        self.eng
    }

    /// Approximate bytes held for a rollback right now: the checkpoint
    /// and the undo log of the session's cone sweeps.
    pub fn checkpoint_bytes(&self) -> usize {
        self.cp.bytes() + self.eng.cone.log_bytes()
    }

    /// Validates, checkpoints, then re-annotates + re-propagates the
    /// changed cone (the session form of [`InstaEngine::update_timing`]).
    ///
    /// # Errors
    ///
    /// [`InstaError::Validate`] rejects the batch atomically and leaves
    /// the session **open**; any poisoning error (numeric, runtime,
    /// cancelled) rolls back to the checkpoint and closes the session.
    pub fn update_timing(&mut self, deltas: &[ArcDelta]) -> Result<InstaReport, InstaError> {
        let report = self.run(false, |eng| eng.update_timing_logged(deltas))?;
        self.gate_report(report)
    }

    /// Session form of [`InstaEngine::try_propagate`]: full forward pass
    /// under the checkpoint/rollback guard.
    pub fn propagate(&mut self) -> Result<InstaReport, InstaError> {
        let report = self.run(false, |eng| eng.try_propagate().map(|r| r.clone()))?;
        self.gate_report(report)
    }

    /// Session form of [`InstaEngine::try_forward_lse`].
    pub fn forward_lse(&mut self) -> Result<(), InstaError> {
        self.run(false, |eng| eng.try_forward_lse())
    }

    /// Session form of [`InstaEngine::try_backward_tns`].
    pub fn backward_tns(&mut self) -> Result<(), InstaError> {
        self.run(true, |eng| eng.try_backward_tns())
    }

    /// Session form of [`InstaEngine::try_backward_wns`].
    pub fn backward_wns(&mut self) -> Result<(), InstaError> {
        self.run(true, |eng| eng.try_backward_wns())
    }

    /// Promotes the session's work: the checkpoint and the undo log are
    /// discarded and the engine's epoch is bumped. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`InstaError::Validate`] if the session was already closed (e.g. by
    /// an automatic rollback); nothing is promoted in that case.
    pub fn commit(mut self) -> Result<u64, InstaError> {
        self.ensure_open()?;
        self.status = SessionStatus::Committed;
        self.eng.cone.forget();
        self.eng.epoch += 1;
        self.eng.stats.committed += 1;
        self.eng
            .trace
            .event("session.commit", &[("epoch", self.eng.epoch as f64)]);
        Ok(self.eng.epoch)
    }

    /// Restores the checkpoint bit-identically and closes the session.
    /// No-op if the session was already closed.
    pub fn rollback(mut self) {
        self.rollback_in_place(SessionStatus::RolledBack);
    }

    fn ensure_open(&self) -> Result<(), InstaError> {
        if self.is_open() {
            return Ok(());
        }
        let mut report = ValidationReport::default();
        report.record(Issue::BadConfig {
            message: format!("session is closed ({:?}) and no longer accepts work", self.status),
        });
        Err(InstaError::Validate(report))
    }

    /// Arms the engine's per-level interrupt poll for one kernel pass, if
    /// the session has a token or deadline.
    fn arm(&mut self) {
        if self.cancel.is_some() || self.deadline.is_some() {
            self.eng
                .set_interrupt(Interrupt::new(self.cancel.clone(), self.deadline));
        }
    }

    /// Checkpoint-guarded wrapper shared by every mutating call. `grads`
    /// marks passes that rewrite the gradient buffers, which are
    /// checkpointed by copy (the ledger has no row for them).
    fn run<T>(
        &mut self,
        grads: bool,
        f: impl FnOnce(&mut InstaEngine) -> Result<T, InstaError>,
    ) -> Result<T, InstaError> {
        self.ensure_open()?;
        self.cp.capture(self.eng, grads);
        self.arm();
        let result = f(self.eng);
        self.eng.clear_interrupt();
        result.map_err(|e| self.close_on(e))
    }

    /// The no-NaN-escapes gate: a report produced inside the session must
    /// have finite-or-infinite slacks. NaN is treated as a poisoning
    /// numeric error (rollback + close).
    fn gate_report(&mut self, report: InstaReport) -> Result<InstaReport, InstaError> {
        let Some(synthesized) = crate::health::nan_slack(&self.eng.st, &report) else {
            return Ok(report);
        };
        // Prefer the engine's own diagnosis (names the poisoned array).
        let err = self.eng.health_check().err().unwrap_or(synthesized);
        Err(self.close_on(err))
    }

    /// Rolls back and closes if `err` poisons engine state; passes the
    /// error through either way.
    fn close_on(&mut self, err: InstaError) -> InstaError {
        if err.poisons_state() {
            let status = if matches!(err, InstaError::Cancelled { .. }) {
                SessionStatus::Cancelled
            } else {
                SessionStatus::RolledBack
            };
            self.rollback_in_place(status);
        }
        err
    }

    fn rollback_in_place(&mut self, status: SessionStatus) {
        if !self.is_open() {
            return;
        }
        let (nodes, arcs) = self.cp.restore(self.eng);
        self.status = status;
        let cancelled = matches!(status, SessionStatus::Cancelled);
        match status {
            SessionStatus::Cancelled => self.eng.stats.cancelled += 1,
            _ => self.eng.stats.rolled_back += 1,
        }
        self.eng.trace.event(
            "session.rollback",
            &[
                ("cancelled", if cancelled { 1.0 } else { 0.0 }),
                ("nodes", nodes as f64),
                ("arcs", arcs as f64),
            ],
        );
    }
}

impl Drop for TimingSession<'_> {
    /// Dropping an open session abandons it: the checkpoint is restored
    /// exactly as if [`rollback`](Self::rollback) had been called.
    fn drop(&mut self) {
        self.rollback_in_place(SessionStatus::RolledBack);
    }
}
