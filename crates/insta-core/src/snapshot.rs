//! The committed-epoch view: an immutable, cheaply shareable capture of
//! everything a *reader* may observe about an engine.
//!
//! This is the engine-state split the service layer (ROADMAP item 1)
//! forces: [`InstaEngine`] holds session-private mutable kernel state
//! (Top-K queues, LSE buffers, gradients) that a writer mutates in place,
//! while a [`TimingSnapshot`] holds only the committed observables —
//! endpoint report, worst arrivals, counters, the perf breakdown — copied
//! out at commit time. A snapshot is plain owned data with no interior
//! mutability, so wrapping one in an `Arc` and handing clones to N reader
//! threads is safe by construction: readers can never see a half-written
//! epoch, because the writer builds the *next* snapshot off to the side
//! and publishes it with a single pointer swap (see `insta-serve`'s
//! `SnapshotCell`).
//!
//! Capture cost is O(endpoints + nodes), not O(nodes × K): the bulk Top-K
//! arrays stay inside the engine; only the per-(node, transition) worst
//! entry — what [`TimingSnapshot::arrival_at`] serves — is copied. The
//! node-id maps are static per engine and shared by `Arc`.

use crate::engine::InstaEngine;
use crate::metrics::{EngineCounters, InstaReport};
use crate::topk::NO_SP;
use crate::trace::PerfReport;
use std::sync::Arc;

/// An immutable capture of one committed epoch's observable timing state.
///
/// Built by [`InstaEngine::snapshot`]. All accessors are `&self` on plain
/// owned data — share it across threads behind an `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSnapshot {
    // Fields are `pub(crate)` so the `persist` module's binary codec can
    // encode/rebuild a snapshot without widening the public API.
    pub(crate) epoch: u64,
    pub(crate) report: Option<InstaReport>,
    pub(crate) counters: EngineCounters,
    /// Worst corner arrival per `(node, rf)` (renumbered node order).
    pub(crate) arrival0: Vec<f64>,
    /// Startpoint of that worst entry ([`NO_SP`] = unreached).
    pub(crate) sp0: Vec<u32>,
    /// Renumbered → original node id, and its inverse (what makes
    /// [`arrival_at`](Self::arrival_at) O(1)). Both are static per engine
    /// and shared with it: a capture copies neither, and dropping an old
    /// snapshot frees neither.
    pub(crate) node_orig: Arc<[u32]>,
    pub(crate) orig_index: Arc<[u32]>,
    pub(crate) perf: PerfReport,
}

impl TimingSnapshot {
    /// The commit epoch this snapshot captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The committed endpoint report, if the engine had propagated.
    pub fn report(&self) -> Option<&InstaReport> {
        self.report.as_ref()
    }

    /// Worst slack of an endpoint, if a report exists and the endpoint
    /// index is in range.
    pub fn slack(&self, endpoint: usize) -> Option<f64> {
        self.report.as_ref()?.slacks.get(endpoint).copied()
    }

    /// Number of endpoints in the captured report (`0` before the first
    /// propagation).
    pub fn num_endpoints(&self) -> usize {
        self.report.as_ref().map_or(0, |r| r.slacks.len())
    }

    /// The worst corner arrival at an *original* graph node id per
    /// transition, if any path reaches it (the snapshot form of
    /// [`InstaEngine::arrival_at`]).
    pub fn arrival_at(&self, orig_node: u32, rf: usize) -> Option<f64> {
        let v = *self.orig_index.get(orig_node as usize)? as usize;
        let idx = v * 2 + rf.min(1);
        if self.sp0[idx] == NO_SP {
            None
        } else {
            Some(self.arrival0[idx])
        }
    }

    /// The engine's monotonic counters as of the capture.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// The levelized kernel breakdown as of the capture (empty when the
    /// engine was not tracing).
    pub fn perf_report(&self) -> &PerfReport {
        &self.perf
    }

    /// Approximate resident bytes the capture owns (report + arrival rows;
    /// the id maps are shared with the engine).
    pub fn bytes(&self) -> usize {
        let report = self.report.as_ref().map_or(0, |r| {
            r.slacks.len() * 8 * 3 + r.worst_sp.len() * 4 + r.worst_rf.len()
        });
        report + self.arrival0.len() * 8 + self.sp0.len() * 4
    }
}

impl InstaEngine {
    /// Captures the current committed observables as an immutable
    /// [`TimingSnapshot`].
    ///
    /// Callers are expected to capture **after a commit** (or after a
    /// plain `propagate` on an engine they own exclusively), so the
    /// capture is internally consistent: report, arrivals, and counters
    /// all describe the same epoch.
    ///
    /// The arrival rows are copied only from Top-K arrays that are in sync
    /// with the setup report. After a hold pass (negated early corners),
    /// a bare re-annotation or a failed pass every row is captured as
    /// unreached, so [`TimingSnapshot::arrival_at`] answers `None` rather
    /// than a value that does not belong to the report beside it.
    pub fn snapshot(&self) -> TimingSnapshot {
        let n = self.num_nodes();
        let k = self.top_k();
        let (arrival0, sp0) = if self.topk_synced {
            (
                self.state.topk_arrival.iter().step_by(k).copied().collect(),
                self.state.topk_sp.iter().step_by(k).copied().collect(),
            )
        } else {
            (vec![f64::NEG_INFINITY; n * 2], vec![NO_SP; n * 2])
        };
        TimingSnapshot {
            epoch: self.epoch(),
            report: self.try_report().cloned(),
            counters: self.counters(),
            arrival0,
            sp0,
            node_orig: Arc::clone(&self.st.node_orig),
            orig_index: Arc::clone(&self.st.new_id),
            perf: self.perf_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::build_engine;

    /// The snapshot agrees bit-for-bit with the engine it captured, and
    /// stays frozen while the engine mutates past it.
    #[test]
    fn snapshot_is_a_frozen_bit_identical_capture() {
        let (_d, _sta, mut eng) = build_engine(11, 8);
        let before = eng.propagate().clone();
        let snap = eng.snapshot();
        assert_eq!(snap.epoch(), eng.epoch());
        let report = snap.report().expect("captured report");
        for (a, b) in report.slacks.iter().zip(&before.slacks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // arrival_at matches the live engine for every original node id
        // that is reached.
        for &orig in eng.st.node_orig.iter().take(32) {
            for rf in 0..2 {
                let live = eng.arrival_at(orig, rf);
                let snapped = snap.arrival_at(orig, rf);
                match (live, snapped) {
                    (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                    (None, None) => {}
                    other => panic!("reachability disagrees at {orig}/{rf}: {other:?}"),
                }
            }
        }
        // Mutate the engine: the snapshot must not move.
        let perturb = vec![insta_refsta::eco::ArcDelta {
            arc: 0,
            mean: [50.0; 2],
            sigma: [5.0; 2],
        }];
        let after = eng.update_timing(&perturb).expect("valid delta");
        assert_ne!(
            after.slacks.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            report.slacks.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "the perturbation must actually change some slack"
        );
        let frozen = snap.report().expect("still there");
        for (a, b) in frozen.slacks.iter().zip(&before.slacks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(snap.bytes() > 0);
    }

    /// A snapshot taken before any propagation has no report but still
    /// carries the epoch and counters.
    #[test]
    fn pre_propagation_snapshot_is_empty_but_typed() {
        let (_d, _sta, eng) = build_engine(12, 4);
        let snap = eng.snapshot();
        assert!(snap.report().is_none());
        assert_eq!(snap.num_endpoints(), 0);
        assert_eq!(snap.slack(0), None);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.counters().epoch, 0);
        assert!(snap.perf_report().is_empty());
    }

    /// Snapshots are `Send + Sync` plain data: N threads can read one
    /// concurrently through an `Arc` without synchronization.
    #[test]
    fn snapshot_is_shareable_across_threads() {
        let (_d, _sta, mut eng) = build_engine(13, 4);
        eng.propagate();
        let snap = std::sync::Arc::new(eng.snapshot());
        let golden: Vec<u64> = snap
            .report()
            .expect("report")
            .slacks
            .iter()
            .map(|s| s.to_bits())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snap = std::sync::Arc::clone(&snap);
                let golden = golden.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let got: Vec<u64> = snap
                            .report()
                            .expect("report")
                            .slacks
                            .iter()
                            .map(|s| s.to_bits())
                            .collect();
                        assert_eq!(got, golden);
                    }
                });
            }
        });
    }
}
