//! What a [`TimingSession`] keeps besides the cone's undo log.
//!
//! Everything a session's cone sweeps and annotation writes overwrite is
//! in the one undo log ([`crate::incremental`]), and rollback copies it
//! back. The checkpoint holds the rest, captured lazily:
//!
//! * **observables** — the validity ledger by value
//!   ([`crate::validity`]), the evaluation report and the drift odometer,
//!   captured *once*, immediately before the session's first
//!   state-mutating pass (they still equal the begin-time values then: the
//!   session holds the engine exclusively — which is also why τ, that no
//!   session call can set, needs no saving).
//! * **gradients** — cloned only when the session runs a backward pass:
//!   the one bulk array a client reads directly (`arc_gradients`) with no
//!   recompute hook.
//! * **LSE arrays** — neither copied nor tagged: their stamp names the
//!   generation they were computed from, which after the rollback either is
//!   the restored one or never comes back.
//!
//! What rollback does about Top-K is the ledger's rollback rule, stated
//! once in [`crate::validity`] and executed by [`EpochCheckpoint::restore`].
//!
//! [`TimingSession`]: crate::session::TimingSession

use crate::engine::{DriftState, InstaEngine};
use crate::metrics::InstaReport;
use crate::validity::Validity;

/// Begin-time observables (captured once).
#[derive(Debug)]
struct SavedState {
    ledger: Validity,
    report: Option<InstaReport>,
    drift: DriftState,
}

/// Begin-time gradient buffers (captured only by backward sessions).
#[derive(Debug)]
struct GradSave {
    arrival: Vec<f64>,
    arc: Vec<[f64; 2]>,
    fanout: Vec<[f64; 2]>,
}

/// The lazily captured begin-time state of a session (see the module docs).
#[derive(Debug, Default)]
pub struct EpochCheckpoint {
    /// Observables, captured before the first mutating pass.
    saved: Option<SavedState>,
    /// Gradient clone, captured before the session's first backward pass.
    grads: Option<GradSave>,
}

impl EpochCheckpoint {
    /// Captures, once each: the begin-time observables, ahead of the
    /// session's first state-mutating pass (only the first call still sees
    /// the rollback target); and, with `grads`, the gradient buffers ahead
    /// of its first backward pass — the ledger has no row for them, so they
    /// are the one bulk array restored by copy.
    pub(crate) fn capture(&mut self, engine: &InstaEngine, grads: bool) {
        self.saved.get_or_insert_with(|| SavedState {
            ledger: engine.validity,
            report: engine.state.report.clone(),
            drift: engine.drift,
        });
        if grads {
            self.grads.get_or_insert_with(|| GradSave {
                arrival: engine.state.grad_arrival.clone(),
                arc: engine.state.grad_arc.clone(),
                fanout: engine.state.grad_fanout.clone(),
            });
        }
    }

    /// Takes the session back, bit-identically: the undo log is copied
    /// over the arrays and annotations, then the captured observables are
    /// put back. Returns how many recomputes and annotation writes the log
    /// restored. While the ledger is covered this is copies only — no
    /// kernel, no interrupt poll, nothing that can fail.
    pub(crate) fn restore(&mut self, engine: &mut InstaEngine) -> (usize, usize) {
        engine.cone.undo(&mut engine.st, &mut engine.state);
        if let Some(s) = self.saved.take() {
            // Still the session's ledger: current ⇔ its passes all completed.
            let resynced = engine.validity.covered()
                || (engine.validity.topk_current() && engine.try_propagate().is_ok());
            engine.validity.rewind(&s.ledger, resynced);
            engine.state.report = s.report;
            engine.drift = s.drift;
        }
        // A backward pass ran (or was about to): its buffers go back.
        if let Some(g) = self.grads.take() {
            engine.state.grad_arrival = g.arrival;
            engine.state.grad_arc = g.arc;
            engine.state.grad_fanout = g.fanout;
        }
        let cone = &mut engine.cone;
        if engine.validity.topk_current() && engine.rows.kept() {
            let undone = cone.undone(&engine.st);
            engine.rows.follow(
                &mut engine.validity,
                &engine.st,
                &engine.state,
                undone.into_iter(),
            );
        }
        let restored = (cone.log_node.len(), cone.log_arc.len());
        cone.forget();
        restored
    }

    /// Approximate checkpoint footprint in bytes (the captured observables
    /// and any gradient clone; the undo log is the cone's).
    pub fn bytes(&self) -> usize {
        let report = self
            .saved
            .as_ref()
            .and_then(|s| s.report.as_ref())
            .map_or(0, |r| r.slacks.len() * (8 + 8 + 8 + 4 + 1));
        let grads = self.grads.as_ref().map_or(0, |g| {
            g.arrival.len() * 8 + (g.arc.len() + g.fanout.len()) * 16
        });
        report + grads
    }
}
