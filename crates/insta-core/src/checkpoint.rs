//! What a [`TimingSession`] keeps besides the cone's undo log.
//!
//! Everything a session's cone sweeps and annotation writes overwrite is
//! in the one undo log ([`crate::incremental`]), and rollback copies it
//! back. The checkpoint holds the rest, captured lazily:
//!
//! * **observables** — the evaluation report, the drift odometer, the LSE
//!   staleness tag, `topk_synced` and the write-generation counters,
//!   captured *once*, immediately before the session's first
//!   state-mutating pass (they still equal the begin-time values then: the
//!   session holds the engine exclusively — which is also why τ, that no
//!   session call can set, needs no saving).
//! * **gradients** — cloned only when the session runs a backward pass:
//!   the one bulk array a client reads directly (`arc_gradients`) with no
//!   recompute hook.
//! * **LSE arrays** — not copied: every differentiable forward pass is a
//!   full rewrite, so rollback clears [`lse_tau_used`](crate::engine) when
//!   the session rewrote them and the next consumer recomputes them.
//!
//! **The write the log does not cover.** A full or fused pass inside the
//! session (seeds past the cone's switch, the drift-degraded refresh,
//! `session.propagate()`, an engine unsynced at begin) logs no queue, and a
//! cone sweep that outgrew the log's budget gave its node log up. The
//! `topk_writes` generation says whether either happened. The log still
//! restores the annotations; when every pass of the session completed,
//! rollback then re-syncs the arrays with one full pass, and a session
//! whose full pass was cut (cancel, deadline, panic) leaves them marked
//! stale rather than pay for a second. Either way `topk_synced` survives
//! only if it held at begin: only then is the restored report the arrays'.
//!
//! [`TimingSession`]: crate::session::TimingSession

use crate::engine::{DriftState, InstaEngine};
use crate::metrics::InstaReport;

/// Begin-time observables and generation counters (captured once).
#[derive(Debug)]
struct SavedState {
    report: Option<InstaReport>,
    drift: DriftState,
    lse_tau_used: Option<f64>,
    topk_synced: bool,
    topk_writes: u64,
    lse_writes: u64,
    grad_writes: u64,
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
    /// Observables + generations, captured before the first mutating pass.
    saved: Option<SavedState>,
    /// Gradient clone, captured before the session's first backward pass.
    grads: Option<GradSave>,
}

impl EpochCheckpoint {
    /// Captures, once each: the begin-time observables, ahead of the
    /// session's first state-mutating pass (only the first call still sees
    /// the rollback target); and, with `grads`, the gradient buffers ahead
    /// of its first backward pass — no staleness tag guards them, so they
    /// are the one bulk array restored by copy.
    pub(crate) fn capture(&mut self, engine: &InstaEngine, grads: bool) {
        self.saved.get_or_insert_with(|| SavedState {
            report: engine.state.report.clone(),
            drift: engine.drift,
            lse_tau_used: engine.state.lse_tau_used,
            topk_synced: engine.topk_synced,
            topk_writes: engine.topk_writes,
            lse_writes: engine.lse_writes,
            grad_writes: engine.grad_writes,
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
    /// restored. On the covered path (module docs) this is copies only — no
    /// kernel, no interrupt poll, nothing that can fail.
    pub(crate) fn restore(&mut self, engine: &mut InstaEngine) -> (usize, usize) {
        engine.cone.undo(&mut engine.st, &mut engine.state);
        if let Some(s) = self.saved.take() {
            // No full pass ran: the log covered every write, a failed
            // sweep's included. The begin-time flag gates the result either
            // way.
            let resynced = engine.topk_writes == s.topk_writes
                || (engine.topk_synced && engine.try_propagate().is_ok());
            engine.topk_synced = resynced && s.topk_synced;
            engine.state.report = s.report;
            engine.drift = s.drift;
            // LSE buffers: untouched since capture → the begin-time τ tag
            // is still valid; rewritten → stale, so the next consumer
            // recomputes them from the restored annotations.
            engine.state.lse_tau_used = if engine.lse_writes == s.lse_writes {
                s.lse_tau_used
            } else {
                None
            };
            if engine.grad_writes != s.grad_writes {
                let g = self
                    .grads
                    .take()
                    .expect("sessions checkpoint gradients before a backward pass");
                engine.state.grad_arrival = g.arrival;
                engine.state.grad_arc = g.arc;
                engine.state.grad_fanout = g.fanout;
            }
        }
        let cone = &mut engine.cone;
        if engine.topk_synced {
            engine.rows.follow(&engine.state, cone.log_node.iter().copied());
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
