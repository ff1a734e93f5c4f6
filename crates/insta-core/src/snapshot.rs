//! The committed-epoch view: an immutable, cheaply shareable capture of
//! everything a *reader* may observe about an engine.
//!
//! This is the engine-state split the service layer (`insta-serve`)
//! forces: [`InstaEngine`] holds session-private mutable kernel state
//! (Top-K queues, LSE buffers, gradients) that a writer mutates in place,
//! while a [`TimingSnapshot`] holds only the committed observables —
//! endpoint report, worst arrivals, the perf breakdown — copied
//! out at commit time. A snapshot is plain owned data with no interior
//! mutability, so wrapping one in an `Arc` and handing clones to N reader
//! threads is safe by construction: readers can never see a half-written
//! epoch, because the writer builds the *next* snapshot off to the side
//! and publishes it with a single pointer swap (see `insta-serve`'s
//! `SnapshotCell`).
//!
//! # Capture cost: O(chunks)
//!
//! The bulk Top-K rows stay inside the engine; a snapshot serves only
//! the per-(node, transition) worst entry — what
//! [`TimingSnapshot::arrival_at`] reads: its late corner (recomputed from
//! the entry's mean and sigma; the engine stores no corners) and its
//! startpoint. Snapshot rows stay *per node* although the engine stores
//! Top-K rows for merge nodes only: a virtual node's row is slot 0 of its
//! queue as `queue_of` materialises it. Those rows live in fixed-size
//! copy-on-write chunks (`CHUNK_ROWS` rows behind one `Arc` each) that the
//! engine keeps (`RowStore`) from its first capture on: a flow that never
//! takes a snapshot keeps no chunks and does no upkeep.
//!
//! **One rule.** A filled store equals the rows of the Top-K arrays
//! whenever the ledger (`crate::validity`) calls those arrays current, and
//! every route that makes them current keeps it so:
//! - a completed setup pass gathers the store afresh;
//! - a cone sweep rewrites the rows of the nodes it recomputed or passed
//!   through, copying a chunk first when a snapshot still shares it;
//! - a session's rollback puts back the chunk pointers its transaction
//!   captured beside the ledger, report and drift (`crate::incremental`,
//!   "One transaction"): a pointer swap, no walk.
//!
//! A capture is then blank rows (arrays not current) or one `Arc` clone
//! per chunk plus a copy of the endpoint report — no walk over the
//! `2·nodes` rows, which a gather over every queue used to make the
//! second-largest layer of a durable commit. A reader that still holds an
//! older epoch keeps that epoch's chunks alive and nothing it can see is
//! ever written. The node-id map is static per engine and shared by `Arc`.

use crate::engine::{InstaEngine, State, Static};
use crate::forward::queue_of;
use crate::metrics::InstaReport;
use crate::parallel::VirtualQueue;
use crate::stat;
use crate::topk::NO_SP;
use crate::trace::PerfReport;
use std::sync::{Arc, OnceLock};

/// Rows per copy-on-write chunk. A cone update touches a few hundred
/// nodes scattered over the levels, so nearly every touched node costs
/// one chunk copy while the previous epoch is still published: at 128
/// rows (1.5 KB) that is ~0.4 MB of copies on block-5, and a capture
/// clones ~450 pointers.
pub(crate) const CHUNK_ROWS: usize = 128;

/// One chunk of worst-entry rows, indexed `(node * 2 + rf) % CHUNK_ROWS`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowChunk {
    /// Worst corner arrival per row.
    arrival: [f64; CHUNK_ROWS],
    /// Startpoint of that entry ([`NO_SP`] = unreached).
    sp: [u32; CHUNK_ROWS],
}

/// The rows of one epoch: chunk `i` holds rows `i * CHUNK_ROWS ..`; rows
/// of the last chunk past the row count are unreached.
pub(crate) type Rows = Vec<Arc<RowChunk>>;

const BLANK: RowChunk = RowChunk {
    arrival: [f64::NEG_INFINITY; CHUNK_ROWS],
    sp: [NO_SP; CHUNK_ROWS],
};

/// `n_rows` unreached rows: one chunk, shared by every slot.
fn blank_rows(n_rows: usize) -> Rows {
    let blank = Arc::new(BLANK);
    (0..n_rows.div_ceil(CHUNK_ROWS))
        .map(|_| Arc::clone(&blank))
        .collect()
}

/// Chunks holding the given rows (`arrival` and `sp` of one length).
fn rows_from(arrival: &[f64], sp: &[u32]) -> Rows {
    arrival
        .chunks(CHUNK_ROWS)
        .zip(sp.chunks(CHUNK_ROWS))
        .map(|(a, s)| {
            let mut c = BLANK;
            c.arrival[..a.len()].copy_from_slice(a);
            c.sp[..s.len()].copy_from_slice(s);
            Arc::new(c)
        })
        .collect()
}

/// The worst entry of `(v, rf)` as a row: its late corner and startpoint,
/// unreached when the queue is empty. A virtual node's queue is
/// materialised for it.
fn worst_row(
    st: &Static,
    state: &State,
    v: usize,
    rf: usize,
    scratch: &mut VirtualQueue,
) -> (f64, u32) {
    let q = queue_of::<false>(st, state.lanes(st), v, rf, scratch);
    q.entries()
        .next()
        .map_or((f64::NEG_INFINITY, NO_SP), |(sp, mean, sigma)| {
            (stat::corner_late(mean, sigma, st.n_sigma), sp)
        })
}

/// Every queue's worst entry.
fn gather_rows(st: &Static, state: &State) -> Rows {
    let mut scratch = VirtualQueue::new(state.k);
    let (arrival, sp): (Vec<f64>, Vec<u32>) = (0..st.n * 2)
        .map(|row| worst_row(st, state, row / 2, row % 2, &mut scratch))
        .unzip();
    rows_from(&arrival, &sp)
}

/// The engine's side of the chunks (module docs, "One rule"): empty until
/// the first capture that finds the Top-K arrays current fills it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowStore(OnceLock<Rows>);

impl RowStore {
    /// A completed setup pass rewrote every row: a filled store is gathered
    /// afresh.
    pub(crate) fn gather(&mut self, st: &Static, state: &State) {
        if let Some(chunks) = self.0.get_mut() {
            *chunks = gather_rows(st, state);
        }
    }

    /// A completed cone sweep rewrote the rows of `nodes`: a filled store
    /// rewrites them too, a chunk a snapshot still shares being copied
    /// first.
    pub(crate) fn follow(&mut self, st: &Static, state: &State, nodes: impl Iterator<Item = u32>) {
        let Some(chunks) = self.0.get_mut() else {
            return;
        };
        let mut scratch = VirtualQueue::new(state.k);
        for v in nodes {
            // A node's two rows are neighbours in one chunk.
            let row = v as usize * 2;
            let chunk = Arc::make_mut(&mut chunks[row / CHUNK_ROWS]);
            for rf in 0..2 {
                let at = row % CHUNK_ROWS + rf;
                (chunk.arrival[at], chunk.sp[at]) =
                    worst_row(st, state, v as usize, rf, &mut scratch);
            }
        }
    }
}

/// An immutable capture of one committed epoch's observable timing state.
///
/// Built by [`InstaEngine::snapshot`]. All accessors are `&self` on plain
/// owned data — share it across threads behind an `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSnapshot {
    epoch: u64,
    report: Option<InstaReport>,
    /// Worst corner arrival and its startpoint per `(node, rf)`
    /// (renumbered node order), `n_rows` of them.
    rows: Rows,
    n_rows: usize,
    /// Original → renumbered node id (what makes
    /// [`arrival_at`](Self::arrival_at) O(1)). Static per engine and
    /// shared with it: a capture does not copy it, and dropping an old
    /// snapshot does not free it.
    orig_index: Arc<[u32]>,
    perf: PerfReport,
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
    /// [`InstaEngine::arrival_at`], `None` for `rf ≥ 2` and for a pin no
    /// endpoint sees, which no pass times, like it).
    pub fn arrival_at(&self, orig_node: u32, rf: usize) -> Option<f64> {
        if rf >= 2 {
            return None;
        }
        let v = *self.orig_index.get(orig_node as usize)? as usize;
        let row = v * 2 + rf;
        if row >= self.n_rows {
            return None;
        }
        let chunk = self.rows.get(row / CHUNK_ROWS)?;
        let at = row % CHUNK_ROWS;
        (chunk.sp[at] != NO_SP).then(|| chunk.arrival[at])
    }

    /// The levelized kernel breakdown as of the capture (empty when the
    /// engine was not tracing).
    pub fn perf_report(&self) -> &PerfReport {
        &self.perf
    }

    /// Approximate resident bytes the capture owns (report + arrival rows;
    /// the id map is shared with the engine, and chunks no later sweep
    /// rewrote are shared with neighbouring epochs).
    pub fn bytes(&self) -> usize {
        let report = self.report.as_ref().map_or(0, |r| {
            r.slacks.len() * 8 * 3 + r.worst_sp.len() * 4 + r.worst_rf.len()
        });
        report + self.n_rows * (8 + 4)
    }
}

impl InstaEngine {
    /// Captures the current committed observables as an immutable
    /// [`TimingSnapshot`].
    ///
    /// Callers are expected to capture **after a commit** (or after a
    /// plain `propagate` on an engine they own exclusively), so the
    /// capture is internally consistent: report and arrivals describe the
    /// same epoch.
    ///
    /// The arrival rows come only from Top-K arrays the ledger calls current
    /// (`topk_current()`): then they are the kept chunks (see the
    /// [module docs](self)), gathered by the engine's first such capture.
    /// After a hold pass (negated early corners), a bare re-annotation or a
    /// failed pass every row is captured as unreached, so
    /// [`TimingSnapshot::arrival_at`] answers `None` rather than a value
    /// that does not belong to the report beside it.
    pub fn snapshot(&self) -> TimingSnapshot {
        let n_rows = self.num_nodes() * 2;
        let rows = if self.validity.topk_current() {
            let gather = || gather_rows(&self.st, &self.state);
            let kept = self.rows.0.get_or_init(gather);
            debug_assert!(
                *kept == gather(),
                "the row chunks fell behind the Top-K arrays"
            );
            kept.clone()
        } else {
            blank_rows(n_rows)
        };
        TimingSnapshot {
            epoch: self.epoch(),
            report: self.try_report().cloned(),
            rows,
            n_rows,
            orig_index: Arc::clone(&self.st.new_id),
            perf: self.perf_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::TimingSnapshot;
    use crate::engine::tests::build_engine;
    use std::sync::Arc;

    /// A copy that shares no chunk with `snap`: what the capture held when
    /// it was taken, whatever later happens to the chunks it shares.
    fn deep_copy(snap: &TimingSnapshot) -> TimingSnapshot {
        TimingSnapshot {
            rows: snap.rows.iter().map(|c| Arc::new((**c).clone())).collect(),
            ..snap.clone()
        }
    }

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
            report
                .slacks
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            "the perturbation must actually change some slack"
        );
        let frozen = snap.report().expect("still there");
        for (a, b) in frozen.slacks.iter().zip(&before.slacks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(snap.bytes() > 0);
    }

    /// Cone updates and rollbacks keep the chunked rows current: every
    /// capture on the cone path equals one gathered afresh after a full
    /// pass over the same annotations, and captures taken earlier never
    /// move — a chunk they share is copied before it is rewritten. An
    /// engine nobody captures keeps no chunks.
    #[test]
    fn cone_updates_keep_the_row_chunks_current_and_older_captures_frozen() {
        let (_d, _sta, mut eng) = build_engine(14, 8);
        eng.propagate();
        let n_arcs = eng.st.n_graph_arcs as u32;
        let delta = |round: u32| insta_refsta::eco::ArcDelta {
            arc: (round * 37 + 5) % n_arcs,
            mean: [35.0 + f64::from(round), 20.0],
            sigma: [2.5, 1.0 + f64::from(round)],
        };
        eng.update_timing(&[delta(0)]).expect("valid delta");
        eng.begin_session()
            .update_timing(&[delta(1)])
            .expect("valid delta");
        assert!(eng.rows.0.get().is_none(), "nobody captured: no chunks");
        let mut held = vec![eng.snapshot()];
        let mut copies = vec![deep_copy(&held[0])];
        for round in 0..8 {
            let mut session = eng.begin_session();
            session.update_timing(&[delta(round)]).expect("valid delta");
            if round % 3 == 2 {
                session.rollback();
            } else {
                session.commit().expect("commit");
            }
            let snap = eng.snapshot();
            // The twin's full pass gathers the store it was cloned with.
            let mut twin = eng.clone();
            twin.propagate();
            let fresh = twin.snapshot();
            assert!(snap.rows == fresh.rows, "round {round}: chunks fell behind");
            assert_eq!(
                snap.report().map(|r| &r.slacks),
                fresh.report().map(|r| &r.slacks)
            );
            copies.push(deep_copy(&snap));
            held.push(snap);
        }
        assert!(
            copies.windows(2).any(|w| w[0].rows != w[1].rows),
            "the deltas must move some row"
        );
        for (snap, copy) in held.iter().zip(&copies) {
            assert!(snap == copy, "a held capture moved");
        }
        // Unsynced arrays are captured as unreached rows, whatever the
        // store holds.
        eng.reannotate(&[delta(99)]).expect("valid delta");
        let blank = eng.snapshot();
        assert!(eng
            .st
            .node_orig
            .iter()
            .all(|&o| blank.arrival_at(o, 0).is_none()));
    }

    /// A snapshot taken before any propagation has no report but still
    /// carries the epoch.
    #[test]
    fn pre_propagation_snapshot_is_empty_but_typed() {
        let (_d, _sta, eng) = build_engine(12, 4);
        let snap = eng.snapshot();
        assert!(snap.report().is_none());
        assert_eq!(snap.num_endpoints(), 0);
        assert_eq!(snap.slack(0), None);
        assert_eq!(snap.epoch(), 0);
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
