//! Copy-on-write epoch checkpoints for [`TimingSession`]s.
//!
//! A checkpoint captures exactly what a session can mutate — and nothing
//! it can regenerate. Three granularities, all lazy:
//!
//! * **arc annotations** — saved *sparsely*, first touch per graph arc:
//!   before a delta batch overwrites an arc's expanded mean/sigma entries,
//!   the old values are pushed onto a save list. A sizing move touches a
//!   handful of arcs, so this is tiny compared to the full annotation
//!   arrays.
//! * **observables** — the evaluation report, the drift odometer, the LSE
//!   temperature and staleness tag, and the LSE/gradient write-generation
//!   counters are captured *once*, immediately before the session's first
//!   state-mutating pass (at which point they still equal the begin-time
//!   values, because the session holds the engine exclusively). Gradient
//!   arrays are cloned only when the session actually runs a backward
//!   pass — they are the one bulk array a client reads directly (via
//!   `arc_gradients`) with no recompute hook.
//! * **Top-K arrays** — never copied, and never left holding a rolled-back
//!   pass's values either. When every pass of the session completed, the
//!   arrays are the forward pass's output for the session's annotations,
//!   which differ from the restored ones only on the saved arcs. Restore
//!   writes those back and **re-sweeps the cone** from their children
//!   ([`crate::incremental`]): change pruning stops the sweep where the
//!   session's changes stopped, and the arrays — stale mean/sigma tails
//!   included — return to their pre-session bits, so `arrival_at` and
//!   `snapshot()` read committed values right after a rollback and the
//!   next update is again a cone update. A session closed by a poisoning
//!   error (cancel, deadline, numeric, runtime) left the arrays
//!   half-written; those are only marked stale (`topk_synced` dropped) and
//!   the next forward pass rewrites them in full.
//! * **LSE arrays** — not copied: every differentiable forward pass is a
//!   global reset plus a full rewrite, so rollback clears
//!   [`lse_tau_used`](crate::engine) when the session rewrote them and the
//!   next consumer recomputes from the restored annotations.
//!
//! [`TimingSession`]: crate::session::TimingSession

use crate::engine::{DriftState, InstaEngine};
use crate::metrics::InstaReport;
use insta_refsta::eco::ArcDelta;
use std::collections::HashSet;

/// Begin-time observables and generation counters (captured once).
#[derive(Debug)]
struct SavedState {
    report: Option<InstaReport>,
    drift: DriftState,
    lse_tau_used: Option<f64>,
    topk_synced: bool,
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

/// A compact, lazily populated snapshot of everything a session may undo.
#[derive(Debug)]
pub struct EpochCheckpoint {
    /// First-touch saves: (expanded arc, old mean, old sigma).
    saved_arcs: Vec<(u32, [f64; 2], [f64; 2])>,
    /// Graph arcs whose expansions are already saved (first save wins; a
    /// second delta to the same arc must not clobber the pre-session
    /// values).
    saved_graph: HashSet<u32>,
    /// Observables + generations, captured before the first mutating pass.
    saved: Option<SavedState>,
    /// Gradient clone, captured before the session's first backward pass.
    grads: Option<GradSave>,
    /// LSE temperature at session begin.
    lse_tau: f64,
}

impl EpochCheckpoint {
    /// An empty checkpoint anchored at the engine's current epoch state.
    pub(crate) fn new(engine: &InstaEngine) -> Self {
        Self {
            saved_arcs: Vec::new(),
            saved_graph: HashSet::new(),
            saved: None,
            grads: None,
            lse_tau: engine.cfg.lse_tau,
        }
    }

    /// Saves the annotations a (validated) delta batch is about to
    /// overwrite. Idempotent per graph arc.
    pub(crate) fn save_arcs(&mut self, engine: &InstaEngine, deltas: &[ArcDelta]) {
        for d in deltas {
            if !self.saved_graph.insert(d.arc) {
                continue;
            }
            for &e in engine.st.expansion(d.arc as usize) {
                self.saved_arcs.push((
                    e,
                    engine.st.arc_mean[e as usize],
                    engine.st.arc_sigma[e as usize],
                ));
            }
        }
    }

    /// Captures the begin-time observables if this is the session's first
    /// state-mutating operation (later calls are no-ops: the rollback
    /// target is the *begin-time* state, which only the first call still
    /// observes).
    pub(crate) fn ensure_state(&mut self, engine: &InstaEngine) {
        if self.saved.is_none() {
            self.saved = Some(SavedState {
                report: engine.state.report.clone(),
                drift: engine.drift,
                lse_tau_used: engine.state.lse_tau_used,
                topk_synced: engine.topk_synced,
                lse_writes: engine.lse_writes,
                grad_writes: engine.grad_writes,
            });
        }
    }

    /// Captures the gradient buffers if this is the session's first
    /// backward pass. Gradients have no staleness tag a later consumer
    /// would check, so they are the one bulk array restored by copy.
    pub(crate) fn ensure_grads(&mut self, engine: &InstaEngine) {
        if self.grads.is_none() {
            self.grads = Some(GradSave {
                arrival: engine.state.grad_arrival.clone(),
                arc: engine.state.grad_arc.clone(),
                fanout: engine.state.grad_fanout.clone(),
            });
        }
    }

    /// Restores every observable captured, bit-identically, and re-syncs
    /// the Top-K arrays with the restored annotations (see the module
    /// docs).
    pub(crate) fn restore(&mut self, engine: &mut InstaEngine) {
        for &(e, mean, sigma) in &self.saved_arcs {
            engine.st.arc_mean[e as usize] = mean;
            engine.st.arc_sigma[e as usize] = sigma;
        }
        self.saved_arcs.clear();
        if let Some(s) = self.saved.take() {
            // Top-K arrays: in sync with the session's annotations iff its
            // passes all completed; then the cone of the saved arcs takes
            // them back. The begin-time flag still gates the result — the
            // saved report is only the arrays' report if it was then.
            let resynced =
                engine.topk_synced && engine.resweep(self.saved_graph.iter().copied()).is_ok();
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
        self.saved_graph.clear();
        engine.cfg.lse_tau = self.lse_tau;
    }

    /// Approximate checkpoint footprint in bytes (sparse arc saves plus
    /// the captured observables and any gradient clone).
    pub fn bytes(&self) -> usize {
        let arcs = self.saved_arcs.len() * (4 + 16 + 16);
        let report = self
            .saved
            .as_ref()
            .and_then(|s| s.report.as_ref())
            .map_or(0, |r| r.slacks.len() * (8 + 8 + 8 + 4 + 1));
        let grads = self.grads.as_ref().map_or(0, |g| {
            g.arrival.len() * 8 + (g.arc.len() + g.fanout.len()) * 16
        });
        arcs + report + grads
    }
}
