//! Transactional timing sessions: mutate, commit — or roll back
//! bit-identically.
//!
//! A [`TimingSession`] is a [`Txn`](crate::incremental::Txn) on an engine
//! it borrows exclusively, plus cancellation and a lifecycle status. Every
//! mutating call is guarded:
//!
//! * **poison ⇒ rollback.** Any error whose
//!   [`poisons_state`](InstaError::poisons_state) is true (numeric poison,
//!   worker-panic runtime failures, cancellation) automatically undoes the
//!   transaction and closes the session. `Validate` errors are raised
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
//! log, the validity ledger, report and drift from what the transaction
//! captured. A session updates and propagates; it runs no differentiable
//! pass, so the LSE and gradient buffers are never a session's to take
//! back — gradients come from the engine itself
//! ([`try_backward_tns`](InstaEngine::try_backward_tns)). Reads (`arrival_at`, `snapshot()`) never see a
//! rolled-back pass, and the next update is a cone update again — also
//! after a cancel, a deadline, a NaN or a worker panic inside a cone
//! sweep. Only a write the log does not cover (a full pass inside the
//! session) costs a full pass to take back: the ledger's rollback rule,
//! [`crate::validity`]. The sizer's candidate-move loop is the canonical
//! client: speculative moves run in a session, rejected moves roll back
//! instead of replaying inverse deltas.

use crate::engine::InstaEngine;
use crate::error::InstaError;
use crate::incremental::Txn;
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
    /// Undone (explicitly, on poison, or on drop-while-open).
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
    txn: Txn<'e>,
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
        self.counters.sessions_begun += 1;
        self.validity.session_began();
        TimingSession {
            txn: Txn::begin(self),
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
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Deadline::after(budget));
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
        self.txn.eng
    }

    /// Approximate bytes held for a rollback right now: the captured
    /// begin-time state and the undo log of the session's cone sweeps.
    pub fn checkpoint_bytes(&self) -> usize {
        self.txn.bytes()
    }

    /// Validates, then re-annotates + re-propagates the changed cone (the
    /// session form of [`InstaEngine::update_timing`]).
    ///
    /// # Errors
    ///
    /// [`InstaError::Validate`] rejects the batch atomically and leaves
    /// the session **open**; any poisoning error (numeric, runtime,
    /// cancelled) rolls back and closes the session.
    pub fn update_timing(&mut self, deltas: &[ArcDelta]) -> Result<InstaReport, InstaError> {
        let report = self.run(|txn| txn.update_timing(deltas))?;
        self.gate_report(report)
    }

    /// Session form of [`InstaEngine::try_propagate`]: full forward pass
    /// under the rollback guard.
    pub fn propagate(&mut self) -> Result<InstaReport, InstaError> {
        let report = self.run(|txn| txn.eng.try_propagate().cloned())?;
        self.gate_report(report)
    }

    /// Promotes the session's work: the captured state and the undo log
    /// are discarded and the engine's epoch is bumped. Returns the new
    /// epoch.
    ///
    /// # Errors
    ///
    /// [`InstaError::Validate`] if the session was already closed (e.g. by
    /// an automatic rollback); nothing is promoted in that case.
    pub fn commit(mut self) -> Result<u64, InstaError> {
        self.ensure_open()?;
        self.status = SessionStatus::Committed;
        self.txn.commit();
        let eng = &mut *self.txn.eng;
        eng.epoch += 1;
        eng.counters.sessions_committed += 1;
        eng.trace
            .event("session.commit", &[("epoch", eng.epoch as f64)]);
        Ok(eng.epoch)
    }

    /// Restores the pre-session state bit-identically and closes the
    /// session. No-op if the session was already closed.
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

    /// Guarded wrapper shared by every mutating call: the transaction
    /// captures its begin-time state first, and the engine's per-level
    /// interrupt poll is armed for the call if the session has a token or
    /// deadline.
    fn run<T>(
        &mut self,
        f: impl FnOnce(&mut Txn<'e>) -> Result<T, InstaError>,
    ) -> Result<T, InstaError> {
        self.ensure_open()?;
        self.txn.observe();
        if self.cancel.is_some() || self.deadline.is_some() {
            let interrupt = Interrupt::new(self.cancel.clone(), self.deadline);
            self.txn.eng.set_interrupt(interrupt);
        }
        let result = f(&mut self.txn);
        self.txn.eng.clear_interrupt();
        result.map_err(|e| self.close_on(e))
    }

    /// The no-NaN-escapes gate: a report produced inside the session must
    /// have finite-or-infinite slacks. NaN is treated as a poisoning
    /// numeric error (rollback + close).
    fn gate_report(&mut self, report: InstaReport) -> Result<InstaReport, InstaError> {
        let Some(synthesized) = crate::health::nan_slack(&self.txn.eng.st, &report) else {
            return Ok(report);
        };
        // Prefer the engine's own diagnosis (names the poisoned array).
        let err = self.txn.eng.health_check().err().unwrap_or(synthesized);
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
        let (nodes, arcs) = self.txn.undo();
        self.status = status;
        let cancelled = matches!(status, SessionStatus::Cancelled);
        let eng = &mut *self.txn.eng;
        match status {
            SessionStatus::Cancelled => eng.counters.sessions_cancelled += 1,
            _ => eng.counters.sessions_rolled_back += 1,
        }
        eng.trace.event(
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
    /// Dropping an open session abandons it: the transaction is undone
    /// exactly as if [`rollback`](Self::rollback) had been called.
    fn drop(&mut self) {
        self.rollback_in_place(SessionStatus::RolledBack);
    }
}
