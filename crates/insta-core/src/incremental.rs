//! Incremental evaluation: arc re-annotation plus re-propagation of the
//! changed fanout cone (paper Application 1).
//!
//! The paper's incremental story is "re-annotate the cloned arc delays
//! (from `estimate_eco` deltas) and re-run the whole forward pass",
//! because on a GPU that pass is nearly free. On a CPU it is not: a sizing
//! move touches a handful of arcs, and re-running every node of the graph
//! for them is what made our update slower than the reference engine's own
//! cone update. So [`InstaEngine::update_timing`] is a CPU-side
//! specialisation of the same pass: it recomputes only the nodes whose
//! inputs changed, **in place** on the live Top-K rows, and lands on the
//! bits the full pass would have produced.
//!
//! # The cone sweep
//!
//! Precondition: the Top-K rows are the full pass's output for the
//! annotations as they were before some expanded arcs were rewritten (the
//! ledger's `topk_current()`, asked before the write). The children of
//! those arcs are the *seeds*. Per-level worklists are visited in level
//! order; one stored node is recomputed exactly as the full pass computes
//! it — if it is a startpoint, its queues made the launch seed as the full
//! pass's prologue does — then `level_chunk` on the node's own row, the
//! very body the full pass and hold run, which determines every other
//! queue completely (every entry of the row's static capacity written).
//!
//! **Virtual nodes pass through.** A node without a row (one fanin arc,
//! one fanout arc, neither startpoint nor endpoint) has nothing to
//! recompute: its queue is computed by whoever reads it (its consumer's
//! gather, or `queue_of`), from its ancestor's
//! row and the annotations down its chain. It is still visited — so the
//! snapshot rows, which are per node, follow it — but never compared and
//! never logged, and it always forwards to its one consumer: what put it
//! on the worklist (a re-annotated fanin arc, a parent that changed) is
//! exactly what its consumer reads through it.
//!
//! **Why this equals the full pass (induction over levels).** A stored
//! node's queues are a pure function of its fanin arcs' annotations, of
//! its parents' entries and — through a virtual parent — of the
//! annotations and the stored row up that parent's chain. Level 0 is
//! launch seeds only and is never touched. Assume every row below level
//! `l` holds full-pass bits. A stored node of level `l` that is *not* on
//! the worklist has no re-annotated fanin arc, no stored parent whose
//! entries changed and no virtual parent that was visited, so its old bits
//! are the full pass's bits; one that *is* on it is recomputed by the
//! shared body from rows that are final. Hence level `l` is final too.
//!
//! **Change pruning.** Before a stored node is recomputed its old entries
//! are copied out; its fanout is queued only if the new ones differ on
//! bits. The cone is therefore bounded by changed *values*, not by
//! structural fanout. A row's entry count is its static capacity, the same
//! before and after, so there is no count to copy or compare.
//!
//! **The full-pass switch.** The cone pays per node for the old-value
//! copy, the compare and the worklist, and it runs on one thread; a batch
//! that re-annotates a large share of the graph (a corner twin touches
//! every arc) is cheaper as the ordinary full pass. The switch is
//! `CONE_SEED_SHARE`, judged on the deduplicated seed count. Those are
//! an update's only two routes, both landing on the same bits; the drift
//! odometer it advances is advisory and picks neither.
//!
//! A dirty level runs through the same level runner as a full pass's
//! ([`crate::parallel`]: poll, containment, one retry, profile row), with
//! the worklist as its work items; the LSE buffers are only left stale.
//!
//! **The cone is live only.** As in every pass (`crate::forward`, "What a
//! pass computes"), a node no endpoint can see (`Static::live`) is neither
//! queued nor recomputed: its row holds nothing. The induction above holds
//! on the live nodes alone, because a live node's parents are live. A
//! delta on an arc into such a node is written and logged and seeds
//! nothing. The seeds are still counted whole, dead ones included, so the
//! route is the full-graph count's, the same for a session and a lane.
//!
//! **The undo log.** There is one way to take a sweep back. The old
//! entries a node's compare needs are copied out before its recompute
//! anyway; they are appended — with the node id: 20 bytes an entry, as
//! many entries as the row's capacity, nothing for a virtual node — to a
//! log, and so is the old value of every annotation write
//! (`ConeScratch::annotate`, the one function that writes deltas).
//! `ConeScratch::undo` copies the log back newest first, so a node logged
//! twice — by stacked updates of a session, or by the forced retry of a
//! level after a contained panic, whose second copy is half-new — gets its
//! first, true copy back last.
//!
//! **One transaction.** The log belongs to the one open `Txn`, which
//! decides what becomes of it: `commit` forgets it, `undo` copies it back.
//! A plain
//! [`update_timing`](InstaEngine::update_timing) is a `Txn` committed at
//! once; a what-if lane ([`crate::batch`]) is one that is undone when
//! dropped; a [session](crate::session) is one that also captures, before
//! its first mutating call, what the log does not cover — the validity
//! ledger by value, the report, the drift odometer and the snapshot row
//! store's chunk pointers. No session call writes the LSE or gradient
//! buffers, so nothing of theirs is captured: the LSE stamp names the
//! generation the buffers were computed from, which after the undo either
//! is the restored one or never comes back. A session's undo applies the
//! ledger's rollback rule (`crate::validity`) and puts the captured chunks
//! back: they equal the begin-time arrays wherever the rule calls those
//! current again (`crate::snapshot`, "One rule").
//!
//! **Its budget.** Logged whole, the rare resize that moves a quarter of
//! the graph put 4 MB (9.8 %) on `eco_block5_k8`'s peak RSS, so a session
//! keeps at most `SESSION_LOG_BYTES` of recomputes, counted in the bytes
//! the node half actually holds (rows are sized by reach, so a recompute
//! costs what its row holds, not K entries). A sweep that outgrows them
//! gives the node half of the log up and sweeps on: the update costs
//! what it did, and only a *rollback* pays — like a full pass inside the
//! session, the sweep leaves the ledger uncovered (`crate::validity`) and
//! is re-synced by a full pass. A lane has no budget because it has no such
//! way out: its base may be a corner's scratch arrays, and its undo must
//! not fail.

use crate::engine::{DriftState, InstaEngine, State, Static};
use crate::error::{InstaError, Kernel, RuntimeIncident};
use crate::forward::{level_chunk, seed_level, source_launch};
use crate::metrics::InstaReport;
use crate::parallel::{MergeArena, Pass, PassOptions};
use crate::snapshot::RowStore;
use crate::trace::LevelProfile;
use crate::validate::{Issue, ValidationReport};
use crate::validity::Validity;
use insta_refsta::eco::ArcDelta;

/// A re-annotation takes the cone path while its distinct seed nodes
/// number at most `nodes / CONE_SEED_SHARE`; beyond that it runs the full
/// pass. Measured with random graph arcs on one thread, the cone costs
/// what the full pass costs at one seed per 28–56 nodes on block-5 (K = 8),
/// per 21–42 on block-3 (K = 8), and never more on block-1 (K = 32); at one
/// per 64 it is 0.55–0.9× the full pass, which leaves room for a full pass
/// that runs its wide levels on several threads.
const CONE_SEED_SHARE: usize = 64;

/// What a session's undo log may hold of node recomputes (module docs):
/// 4 bytes a logged node and [`SLOT_BYTES`] an entry. At K = 8 that is
/// 3 236 stored nodes whose queues are all full, and more where rows hold
/// fewer entries; 90 % of `eco_block5_k8`'s updates visit under 520 nodes,
/// most of them virtual, and 1 % more than 2 000. 2.5 % of that workload's
/// peak RSS at the most.
const SESSION_LOG_BYTES: usize = 1 << 20;

/// What one queue entry costs the log: startpoint, mean, sigma.
const SLOT_BYTES: usize = 4 + 8 + 8;

/// Persistent scratch of the cone sweep, created once per engine: a few
/// words per node, nothing per arc, nothing cleared or scanned per update.
#[derive(Debug, Clone)]
pub(crate) struct ConeScratch {
    /// `stamp[v] == epoch` ⇔ node `v` was queued by the current sweep (and,
    /// once the sweep completes, recomputed by it).
    stamp: Vec<u32>,
    epoch: u32,
    /// Per-level worklists. A completed sweep leaves on them the nodes it
    /// recomputed, until the next sweep opens.
    frontier: Vec<Vec<u32>>,
    /// The undo log, empty outside a [`Txn`]: one run per
    /// recompute of a stored node — its old entries, rise then fall, as
    /// many as its row's capacity says. The change compare reads the last
    /// run. A virtual node has no row, hence no run.
    pub(crate) log_node: Vec<u32>,
    old_sp: Vec<u32>,
    old_mean: Vec<f64>,
    old_sigma: Vec<f64>,
    /// Logged annotation writes: (expanded arc, old mean, old sigma).
    pub(crate) log_arc: Vec<(u32, [f64; 2], [f64; 2])>,
    arena: MergeArena,
    /// What the last sweep did (the `forward.cone` span's payload); `nodes`
    /// are recomputes, a virtual node passed through is one of `passed`,
    /// `arcs` are the recomputes' fanin arcs, and `dead` the stored nodes it
    /// met but did not queue because no endpoint sees them.
    seeds: usize,
    levels: usize,
    pub(crate) nodes: usize,
    pub(crate) pruned: usize,
    pub(crate) passed: usize,
    pub(crate) arcs: usize,
    pub(crate) dead: usize,
}

impl ConeScratch {
    pub(crate) fn new(n: usize, num_levels: usize) -> Self {
        // The budget's worth of log, mapped once and resident only as far as
        // written: grown by doubling, it leaves as much again in freed
        // blocks. Room for the budget's entries, and for its nodes when
        // each row holds one entry a queue.
        let entries = SESSION_LOG_BYTES / SLOT_BYTES;
        Self {
            stamp: vec![0; n],
            epoch: 0,
            frontier: vec![Vec::new(); num_levels],
            log_node: Vec::with_capacity(SESSION_LOG_BYTES / (4 + 2 * SLOT_BYTES)),
            old_sp: Vec::with_capacity(entries),
            old_mean: Vec::with_capacity(entries),
            old_sigma: Vec::with_capacity(entries),
            log_arc: Vec::new(),
            arena: MergeArena::default(),
            seeds: 0,
            levels: 0,
            nodes: 0,
            pruned: 0,
            passed: 0,
            arcs: 0,
            dead: 0,
        }
    }

    /// Opens a new sweep: a fresh stamp epoch and empty worklists (an
    /// aborted sweep may have left some behind).
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.frontier.iter_mut().for_each(Vec::clear);
        (self.seeds, self.levels, self.nodes, self.pruned) = (0, 0, 0, 0);
        (self.passed, self.arcs, self.dead) = (0, 0, 0);
        self.arena.fallbacks = 0;
    }

    /// Queues `v` on its level's worklist unless this sweep already met it,
    /// and returns whether it is new. A node no endpoint sees is met but
    /// not queued.
    #[inline]
    fn enqueue(&mut self, st: &Static, v: u32) -> bool {
        let fresh = self.stamp[v as usize] != self.epoch;
        if fresh {
            self.stamp[v as usize] = self.epoch;
            if !st.live[v as usize] {
                self.dead += usize::from(st.row_of(v as usize).is_some());
            } else {
                self.frontier[crate::health::level_of(st, v as usize)].push(v);
            }
        }
        fresh
    }

    /// How many virtual parents the last sweep materialised.
    pub(crate) fn fallbacks(&self) -> u64 {
        self.arena.fallbacks
    }

    /// Whether the current sweep recomputed node `v` (or, for a node no
    /// endpoint sees, met it).
    #[inline]
    pub(crate) fn recomputed(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Every node the last completed sweep recomputed, level by level.
    pub(crate) fn swept(&self) -> impl Iterator<Item = u32> + '_ {
        self.frontier.iter().flatten().copied()
    }

    /// Writes `deltas` over the annotations — every expansion, a later
    /// delta to the same arc wins — logging what each write replaces.
    /// Nothing else of the engine moves: no drift, no counter, no ledger
    /// stamp. Callers must have validated `deltas`.
    pub(crate) fn annotate(&mut self, st: &mut Static, deltas: &[ArcDelta]) {
        for d in deltas {
            let g = d.arc as usize;
            for i in st.expansion_start[g] as usize..st.expansion_start[g + 1] as usize {
                let e = st.expansion_arc[i] as usize;
                self.log_arc
                    .push((e as u32, st.arc_mean[e], st.arc_sigma[e]));
                st.arc_mean[e] = d.mean;
                st.arc_sigma[e] = d.sigma;
            }
        }
    }

    /// Copies every logged recompute and annotation write back, newest
    /// first. Plain copies: nothing here can fail, be cancelled or panic.
    /// The log stays (for its node list) until [`forget`](Self::forget).
    pub(crate) fn undo(&self, st: &mut Static, state: &mut State) {
        let mut end = self.old_sp.len();
        for &v in self.log_node.iter().rev() {
            let row = st.row_of(v as usize).expect("only stored nodes are logged");
            let to = st.slots(row..row + 1);
            let from = end - to.len()..end;
            state.topk_sp[to.clone()].copy_from_slice(&self.old_sp[from.clone()]);
            state.topk_mean[to.clone()].copy_from_slice(&self.old_mean[from.clone()]);
            state.topk_sigma[to].copy_from_slice(&self.old_sigma[from.clone()]);
            end = from.start;
        }
        for &(e, mean, sigma) in self.log_arc.iter().rev() {
            st.arc_mean[e as usize] = mean;
            st.arc_sigma[e as usize] = sigma;
        }
    }

    /// Empties the log (its capacity stays): the writes it holds are kept
    /// or have just been taken back.
    pub(crate) fn forget(&mut self) {
        self.forget_nodes();
        self.log_arc.clear();
    }

    /// Empties the node half of the log; the annotation writes stay logged.
    fn forget_nodes(&mut self) {
        self.log_node.clear();
        self.old_sp.clear();
        self.old_mean.clear();
        self.old_sigma.clear();
    }

    /// Bytes the node half of the log holds right now: what
    /// [`SESSION_LOG_BYTES`] budgets.
    fn node_log_bytes(&self) -> usize {
        self.log_node.len() * 4 + self.old_sp.len() * SLOT_BYTES
    }

    /// Bytes the log holds right now.
    pub(crate) fn log_bytes(&self) -> usize {
        self.node_log_bytes() + std::mem::size_of_val(self.log_arc.as_slice())
    }
}

impl InstaEngine {
    /// Validates a delta batch against the snapshot without mutating
    /// anything.
    ///
    /// # Errors
    ///
    /// Returns [`InstaError::Validate`] listing **every** offending delta
    /// — out-of-range arc ids, non-finite means, NaN/infinite/negative
    /// sigmas — so a client can fix its whole batch from one rejection.
    /// The checks mirror the snapshot-ingest arc validation: a delta that
    /// would have been rejected at ingest is rejected here too, *before*
    /// any annotation is written.
    pub fn validate_deltas(&self, deltas: &[ArcDelta]) -> Result<(), InstaError> {
        let mut report = ValidationReport::default();
        for (index, d) in deltas.iter().enumerate() {
            if d.arc as usize >= self.st.n_graph_arcs {
                report.record(Issue::DeltaArcOutOfRange {
                    index,
                    arc: d.arc,
                    n_graph_arcs: self.st.n_graph_arcs,
                });
            }
            for rf in 0..2 {
                if !d.mean[rf].is_finite() {
                    report.record(Issue::NonFiniteMean {
                        arc: d.arc as usize,
                        rf: rf as u8,
                        value: d.mean[rf],
                    });
                }
                if !d.sigma[rf].is_finite() || d.sigma[rf] < 0.0 {
                    report.record(Issue::InvalidSigma {
                        arc: d.arc as usize,
                        rf: rf as u8,
                        value: d.sigma[rf],
                    });
                }
            }
        }
        if report.total() > 0 {
            Err(InstaError::Validate(report))
        } else {
            Ok(())
        }
    }

    /// Overwrites the cloned delay annotation of the given graph arcs (all
    /// of their non-unate expansions included).
    ///
    /// The batch is applied **atomically with respect to validation**:
    /// every delta id is checked against the snapshot first, so a rejected
    /// batch leaves the annotations untouched.
    ///
    /// # Errors
    ///
    /// Returns [`InstaError::Validate`] (see
    /// [`validate_deltas`](Self::validate_deltas)) when any delta
    /// references an arc outside the snapshot.
    pub fn reannotate(&mut self, deltas: &[ArcDelta]) -> Result<(), InstaError> {
        self.validate_deltas(deltas)?;
        self.reannotate_unchecked(deltas);
        self.cone.forget();
        Ok(())
    }

    /// The write phase of [`reannotate`](Self::reannotate); callers must
    /// have validated `deltas` already.
    fn reannotate_unchecked(&mut self, deltas: &[ArcDelta]) {
        self.cone.annotate(&mut self.st, deltas);
        // The new generation leaves every derived product stale at once (a
        // cone update re-syncs Top-K and report).
        self.validity.annotated();
        // Drift odometer: one update, batch-size/graph fraction of mass.
        self.drift.updates += 1;
        self.drift.mass += deltas.len() as f64 / self.st.n_graph_arcs.max(1) as f64;
        self.counters.incremental_updates += 1;
    }

    /// Re-annotates and re-propagates in one call, returning the fresh
    /// report (the per-iteration evaluation of the commercial sizing
    /// flow).
    ///
    /// On an engine whose last pass completed, only the fanout cone of
    /// the re-annotated arcs is recomputed (see the [module docs](self));
    /// otherwise, or past the `CONE_SEED_SHARE` switch, the ordinary
    /// full pass runs. Either way the result is bit-identical to
    /// [`reannotate`](Self::reannotate) + [`propagate`](Self::propagate).
    /// The drift odometer this call advances is advisory
    /// ([`drift_exceeded`](Self::drift_exceeded)): it never picks the route.
    ///
    /// # Errors
    ///
    /// [`InstaError::Validate`] for out-of-range deltas (annotations
    /// untouched), [`InstaError::Runtime`] /
    /// [`InstaError::Numeric`] / [`InstaError::Cancelled`] from the
    /// propagation itself (state may be half-updated — run inside a
    /// [`TimingSession`](crate::session::TimingSession) to get automatic
    /// rollback).
    pub fn update_timing(&mut self, deltas: &[ArcDelta]) -> Result<InstaReport, InstaError> {
        let mut txn = Txn::begin(self);
        let result = txn.update_timing(deltas, &PassOptions::default());
        txn.commit();
        result
    }

    /// Runs the seeded sweep under its `forward.cone` span.
    fn run_cone(&mut self, opts: &PassOptions) -> Result<(), InstaError> {
        self.trace.begin("forward.cone");
        let res = cone_sweep(
            &self.st,
            &mut self.state,
            &mut self.cone,
            opts,
            self.trace.profile_mut(Kernel::Forward),
            Some(&mut self.validity),
        );
        let c = &self.cone;
        self.trace.end_with(&[
            ("seeds", c.seeds as f64),
            ("levels", c.levels as f64),
            ("nodes", c.nodes as f64),
            ("pruned", c.pruned as f64),
            ("passed", c.passed as f64),
            ("arcs", c.arcs as f64),
            ("fallbacks", c.fallbacks() as f64),
            ("ok", if res.is_ok() { 1.0 } else { 0.0 }),
        ]);
        self.settle(res)
    }
}

/// The begin-time observables of a session (module docs, "One transaction").
#[derive(Debug)]
struct Observed {
    ledger: Validity,
    report: Option<InstaReport>,
    drift: DriftState,
    rows: RowStore,
}

/// One timing transaction on an engine (module docs, "One transaction"):
/// the cone's undo log from [`begin`](Self::begin) on, and what a session
/// captured besides. Dropped while open, it is undone.
#[derive(Debug)]
pub(crate) struct Txn<'e> {
    pub(crate) eng: &'e mut InstaEngine,
    observed: Option<Observed>,
    open: bool,
}

impl<'e> Txn<'e> {
    /// Opens a transaction on an emptied undo log (an unwound update may
    /// have left one).
    pub(crate) fn begin(eng: &'e mut InstaEngine) -> Self {
        eng.cone.forget();
        Txn {
            eng,
            observed: None,
            open: true,
        }
    }

    /// Captures the begin-time observables once, ahead of the first
    /// state-mutating call (only the first still sees the undo target).
    pub(crate) fn observe(&mut self) {
        let eng = &*self.eng;
        self.observed.get_or_insert_with(|| Observed {
            ledger: eng.validity,
            report: eng.state.report.clone(),
            drift: eng.drift,
            rows: eng.rows.clone(),
        });
    }

    /// A what-if lane's write: `deltas`, then their cone swept over the
    /// engine's rows, which must be the full pass's output for the
    /// annotations before the write. No `forward.cone` span and no level
    /// profile (the call's one `batch.sweep` span carries the totals), and
    /// no log budget: the log is the lane's only way back.
    pub(crate) fn sweep(
        &mut self,
        deltas: &[ArcDelta],
        opts: &PassOptions,
    ) -> Result<Option<RuntimeIncident>, InstaError> {
        let InstaEngine {
            st, state, cone, ..
        } = &mut *self.eng;
        cone.annotate(st, deltas);
        let seeded = seed_cone(st, cone, deltas.iter().map(|d| d.arc));
        debug_assert!(seeded, "lanes past the seed switch run as full passes");
        cone_sweep(st, state, cone, opts, None, None)
    }

    /// Validates, re-annotates and re-propagates: the body of
    /// [`InstaEngine::update_timing`], for the caller to keep or take back;
    /// `opts` is polled by whichever pass the update runs.
    pub(crate) fn update_timing(
        &mut self,
        deltas: &[ArcDelta],
        opts: &PassOptions,
    ) -> Result<InstaReport, InstaError> {
        let eng = &mut *self.eng;
        eng.validate_deltas(deltas)?;
        let synced = eng.validity.topk_current();
        eng.reannotate_unchecked(deltas);
        let arcs = deltas.iter().map(|d| d.arc);
        if synced && seed_cone(&eng.st, &mut eng.cone, arcs) {
            eng.last_incident = None;
            eng.run_cone(opts)?;
            // Only endpoints on recomputed nodes can have moved; the
            // aggregates are re-reduced over the whole slack vector in
            // endpoint order, the accumulation order of a fresh evaluate.
            let mut report = eng.state.report.take().expect("synced: has a report");
            crate::metrics::refresh(
                &eng.st,
                &eng.state,
                &mut report,
                |node| eng.cone.recomputed(node),
                eng.cfg.cppr,
            );
            eng.state.report = Some(report);
            eng.validity.setup_done();
            // The snapshot rows follow the arrays (see [`crate::snapshot`]).
            eng.rows.follow(&eng.st, &eng.state, eng.cone.swept());
        } else {
            eng.try_propagate(opts)?;
        }
        Ok(eng.state.report.clone().expect("just propagated"))
    }

    /// Keeps everything written: the log is forgotten.
    pub(crate) fn commit(&mut self) {
        self.open = false;
        self.eng.cone.forget();
    }

    /// Takes everything back, bit-identically: the log is copied over the
    /// arrays and annotations, then what [`observe`](Self::observe)
    /// captured is put back. Returns how many recomputes and annotation
    /// writes the log restored. While the ledger is covered this is copies
    /// only — no kernel, no cancel poll, nothing that can fail.
    pub(crate) fn undo(&mut self) -> (usize, usize) {
        self.open = false;
        let eng = &mut *self.eng;
        eng.cone.undo(&mut eng.st, &mut eng.state);
        let restored = (eng.cone.log_node.len(), eng.cone.log_arc.len());
        if let Some(o) = self.observed.take() {
            // Still the session's ledger: current ⇔ its passes all completed.
            let resynced = eng.validity.covered()
                || (eng.validity.topk_current()
                    && eng.try_propagate(&PassOptions::default()).is_ok());
            eng.validity.rewind(&o.ledger, resynced);
            eng.state.report = o.report;
            eng.drift = o.drift;
            eng.rows = o.rows;
        }
        eng.cone.forget();
        restored
    }

    /// Approximate bytes held for an undo right now: the captured report
    /// and the undo log.
    pub(crate) fn bytes(&self) -> usize {
        let report = self
            .observed
            .as_ref()
            .and_then(|o| o.report.as_ref())
            .map_or(0, |r| r.slacks.len() * (8 + 8 + 8 + 4 + 1));
        report + self.eng.cone.log_bytes()
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if self.open {
            self.undo();
        }
    }
}

/// Opens a sweep seeded with every child an endpoint sees of the
/// expansions of the given (re-annotated) graph arcs. Returns `false` when
/// the distinct children — seen or not — exceed the [`CONE_SEED_SHARE`]
/// switch: the full pass is the cheaper way to re-sync then.
pub(crate) fn seed_cone(
    st: &Static,
    cone: &mut ConeScratch,
    graph_arcs: impl Iterator<Item = u32>,
) -> bool {
    cone.begin();
    for g in graph_arcs {
        for &e in st.expansion(g as usize) {
            cone.seeds += usize::from(cone.enqueue(st, st.arc_child[e as usize]));
        }
        if cone.seeds * CONE_SEED_SHARE > st.n {
            return false;
        }
    }
    true
}

/// The frontier-driven sweep over Top-K arrays that are the full pass's
/// output for the annotations before the seeding arcs changed (see the
/// module docs). Seeds are already on `cone`'s worklists. `log_budget` is
/// the ledger to tell when the undo log outgrows [`SESSION_LOG_BYTES`],
/// judged once per level, and gives its recomputes up; a lane has none.
pub(crate) fn cone_sweep(
    st: &Static,
    state: &mut State,
    cone: &mut ConeScratch,
    opts: &PassOptions,
    prof: Option<&mut LevelProfile>,
    mut log_budget: Option<&mut Validity>,
) -> Result<Option<RuntimeIncident>, InstaError> {
    // The cone runs on one thread: a dirty level is one inline cut.
    let mut pass = Pass::begin(Kernel::Forward, 1, opts, prof);
    // A sweep polls once per dirty level, and once up front when it has
    // seeds but queued none (each is a node no endpoint sees): a fired token
    // or an expired deadline cancels it all the same. Only a sweep with no
    // seeds — an empty batch — has nothing to cancel.
    if cone.seeds > 0 && cone.frontier.iter().all(Vec::is_empty) {
        pass.poll(0)?;
    }
    for l in 1..st.num_levels() {
        if cone.frontier[l].is_empty() {
            continue;
        }
        let mut nodes = std::mem::take(&mut cone.frontier[l]);
        nodes.sort_unstable();
        let span = nodes[0] as usize..nodes[nodes.len() - 1] as usize + 1;
        // One poll per *dirty* level: levels below `l` are final, `l` and
        // later still hold the previous pass's bits. The work items are
        // worklist positions; an incident names the level's node-id span.
        pass.level(
            l,
            0..nodes.len(),
            &mut (&mut *state, &mut *cone),
            |(state, cone), launch| {
                let window = [(&mut **state, &mut **cone)];
                // A node recompute overwrites its slices from its parents
                // alone, so re-running the level is idempotent — except
                // that a half-written node no longer has its old entries
                // to compare against, so the retry queues every fanout.
                let panicked = launch.run(window, |_, (state, cone)| {
                    let [recomputed, pruned, passed, arcs] =
                        cone_level(st, state, cone, &nodes, launch.retry);
                    cone.nodes += recomputed;
                    cone.pruned += pruned;
                    cone.passed += passed;
                    cone.arcs += arcs;
                });
                panicked.map(|(_, message)| (span.clone(), message))
            },
            |_| {},
        )?;
        cone.levels += 1;
        cone.frontier[l] = nodes;
        if let Some(ledger) = &mut log_budget {
            if cone.node_log_bytes() > SESSION_LOG_BYTES {
                cone.forget_nodes();
                ledger.log_gave_up();
            }
        }
    }
    Ok(pass.finish())
}

/// Recomputes one level's worklist in place and queues the fanout of every
/// node whose entries changed (all of them under `force`). Returns how many
/// nodes were recomputed, how many of those pruned, how many virtual nodes
/// passed through, and the recomputes' fanin arcs.
///
/// A virtual node on the worklist is a pass-through: it has no row to
/// recompute, compare or log, and what its consumer reads of it moved with
/// whatever put it on the list, so it always forwards to that consumer.
fn cone_level(
    st: &Static,
    state: &mut State,
    cone: &mut ConeScratch,
    nodes: &[u32],
    force: bool,
) -> [usize; 4] {
    let (mut recomputed, mut pruned, mut passed, mut arcs) = (0, 0, 0, 0);
    for &v in nodes {
        let v = v as usize;
        let Some(row) = st.row_of(v) else {
            passed += 1;
            cone.enqueue(st, st.consumer_of(v));
            continue;
        };
        recomputed += 1;
        arcs += st.fanin_range(v).len();
        // Both queues of the row, rise then fall, one run of slots.
        let slots = st.slots(row..row + 1);
        let at = cone.old_sp.len();
        cone.log_node.push(v as u32);
        cone.old_sp.extend_from_slice(&state.topk_sp[slots.clone()]);
        cone.old_mean.extend_from_slice(&state.topk_mean[slots.clone()]);
        cone.old_sigma.extend_from_slice(&state.topk_sigma[slots.clone()]);
        {
            // A one-node window: every row before `v`'s is the done prefix
            // (its ancestors sit in earlier levels).
            let (done, mut cur) = state.split_at_row(st, row);
            // The full pass's pre-state of a startpoint node: its launch
            // seed. The body owns every other queue outright.
            seed_level(st, &mut cur, v..v + 1, &source_launch(st));
            let n = slots.len();
            let (mean, sigma, sp) = (&mut cur.mean[..n], &mut cur.sigma[..n], &mut cur.sp[..n]);
            let arena = &mut cone.arena;
            level_chunk::<false>(st, done, v..v + 1, mean, sigma, sp, arena);
        }
        // Old and new entries of the node, on bits.
        let changed = force || {
            let bits = |x: &[f64], y: &[f64]| {
                x.iter().map(|v| v.to_bits()).ne(y.iter().map(|v| v.to_bits()))
            };
            state.topk_sp[slots.clone()] != cone.old_sp[at..]
                || bits(&state.topk_mean[slots.clone()], &cone.old_mean[at..])
                || bits(&state.topk_sigma[slots], &cone.old_sigma[at..])
        };
        if changed {
            for &e in st.fanout(v) {
                cone.enqueue(st, st.arc_child[e as usize]);
            }
        } else {
            pruned += 1;
        }
    }
    [recomputed, pruned, passed, arcs]
}

#[cfg(test)]
mod tests {
    use super::Txn;
    use crate::engine::{InstaConfig, InstaEngine};
    use crate::parallel::PassOptions;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_netlist::CellId;
    use insta_refsta::{estimate_eco, RefSta, StaConfig};

    /// Resize a cell, push estimate_eco deltas into INSTA, and compare the
    /// endpoint slacks against a reference engine that committed the same
    /// resize for real. estimate_eco is exact in our delay model for the
    /// first resize from a converged state *except* for slew ripple beyond
    /// the stage, so the comparison uses a small tolerance.
    #[test]
    fn reannotation_tracks_committed_resize() {
        let mut design = generate_design(&GeneratorConfig::small("incr", 31));
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let mut eng = InstaEngine::new(golden.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        eng.propagate();

        // Pick a loaded comb cell and upsize it.
        let lib = design.library_arc();
        let cell = (0..design.cells().len() as u32)
            .map(CellId)
            .find(|&c| {
                let lc = design.lib_cell_of(c);
                !lc.is_sequential()
                    && lc.class != insta_liberty::GateClass::ClkBuf
                    && lc.drive == 1
            })
            .expect("comb cell");
        let big = *lib.family(design.lib_cell_of(cell).class).last().unwrap();

        let est = estimate_eco(&design, &golden, cell, big);
        let after_insta = eng.update_timing(&est.arc_deltas).expect("in-range deltas");

        design.resize_cell(cell, big);
        let after_golden = golden.incremental_update(&design, &[cell]);

        // Magnitudes agree to estimate accuracy.
        assert!(
            (after_insta.tns_ps - after_golden.tns_ps).abs()
                <= 0.02 * after_golden.tns_ps.abs().max(1.0),
            "INSTA {} vs golden {} after resize",
            after_insta.tns_ps,
            after_golden.tns_ps
        );
    }

    #[test]
    fn identity_deltas_do_not_change_the_report() {
        let design = generate_design(&GeneratorConfig::small("incr", 33));
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let mut eng = InstaEngine::new(golden.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        let before = eng.propagate().clone();
        let cell = CellId(
            design
                .cells()
                .iter()
                .position(|c| {
                    let lc = design.library().cell(c.lib_cell);
                    !lc.is_sequential() && lc.class != insta_liberty::GateClass::ClkBuf
                })
                .expect("comb cell") as u32,
        );
        let same = design.cell(cell).lib_cell;
        let est = estimate_eco(&design, &golden, cell, same);
        let after = eng.update_timing(&est.arc_deltas).expect("in-range deltas");
        for (a, b) in before.slacks.iter().zip(&after.slacks) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// The cone polls once per *dirty* level: a pre-fired token is
    /// cancelled at the lowest level holding a re-annotated arc's child,
    /// before anything is written.
    #[test]
    fn a_prefired_interrupt_cancels_at_the_first_dirty_level() {
        let (_d, _sta, mut eng) = crate::engine::tests::build_engine(43, 4);
        eng.propagate();
        let before = eng.topk_snapshot();
        // The last graph arc's children sit deep in the graph.
        let g = eng.st.n_graph_arcs - 1;
        let first_dirty = eng
            .st
            .expansion(g)
            .iter()
            .map(|&e| crate::health::level_of(&eng.st, eng.st.arc_child[e as usize] as usize))
            .min()
            .expect("every graph arc expands");
        assert!(first_dirty > 1, "fixture: the seed must not sit on level 1");
        let tok = insta_support::timer::CancelToken::new();
        tok.cancel();
        let opts = PassOptions {
            cancel: Some(tok),
            deadline: None,
        };
        let mut txn = Txn::begin(&mut eng);
        let delta = insta_refsta::eco::ArcDelta {
            arc: g as u32,
            mean: [77.0; 2],
            sigma: [3.0; 2],
        };
        let err = txn.update_timing(&[delta], &opts).expect_err("token fired");
        txn.commit();
        drop(txn);
        let crate::error::InstaError::Cancelled { kernel, level, .. } = err else {
            panic!("expected Cancelled, got {err:?}");
        };
        assert_eq!(kernel, crate::error::Kernel::Forward);
        assert_eq!(level, first_dirty);
        assert!(
            !eng.validity.topk_current(),
            "a cut sweep leaves the arrays stale"
        );
        assert_eq!(before, eng.topk_snapshot(), "nothing ran before the poll");
    }

    /// A sweep whose seeds are all nodes no endpoint sees queues no level,
    /// and still polls once: a fired token or an expired deadline cancels a
    /// session update of such an arc and a lane of one, and the session
    /// takes its annotation writes back. An empty update has nothing to
    /// cancel and returns the report, as an empty lane does.
    #[test]
    fn a_cone_that_queues_no_level_still_cancels() {
        let (_d, _sta, mut eng) = crate::engine::tests::build_engine(47, 4);
        eng.propagate();
        let st = &eng.st;
        let dead = |e: &u32| !st.live[st.arc_child[*e as usize] as usize];
        let g = (0..st.n_graph_arcs)
            .find(|&g| st.expansion(g).iter().all(dead))
            .expect("fixture: an arc into a node no endpoint sees");
        let delta = insta_refsta::eco::ArcDelta {
            arc: g as u32,
            mean: [77.0; 2],
            sigma: [3.0; 2],
        };
        let before = eng.undo_image();
        let tok = insta_support::timer::CancelToken::new();
        tok.cancel();
        let fired = [
            PassOptions {
                cancel: Some(tok),
                deadline: None,
            },
            PassOptions {
                cancel: None,
                deadline: Some(insta_support::timer::Deadline::after(std::time::Duration::ZERO)),
            },
        ];
        for opts in &fired {
            let mut session = eng.begin_session().with_options(opts.clone());
            session.update_timing(&[]).expect("an empty update has nothing to cancel");
            let err = session.update_timing(&[delta]).expect_err("fired");
            assert!(
                matches!(err, crate::error::InstaError::Cancelled { level: 0, .. }),
                "{err:?}"
            );
            assert_eq!(session.status(), crate::session::SessionStatus::Cancelled);
            drop(session);
            assert!(eng.undo_image() == before, "a cancelled session is taken back");
            let got = eng.evaluate(&[vec![delta].into()], opts).scenarios;
            assert!(
                matches!(got[0].outcome, Err(crate::error::InstaError::Cancelled { level: 0, .. })),
                "{:?}",
                got[0].outcome
            );
        }
    }

    /// A level re-run after a panic in the middle of it logs its nodes
    /// twice, the second time with half-new values; the reverse-order undo
    /// still puts the first, true copies back. Two logged sweeps of the
    /// same cone stand in for the re-run.
    #[test]
    fn undo_restores_nodes_that_were_logged_twice() {
        let (_d, _sta, mut eng) = crate::engine::tests::build_engine(47, 4);
        eng.propagate();
        let before = eng.undo_image();
        let g = eng.st.n_graph_arcs / 2;
        let delta = |mean: f64| insta_refsta::eco::ArcDelta {
            arc: g as u32,
            mean: [mean; 2],
            sigma: [4.0; 2],
        };
        let InstaEngine {
            st, state, cone, ..
        } = &mut eng;
        for mean in [180.0, 20.0] {
            cone.annotate(st, &[delta(mean)]);
            assert!(super::seed_cone(st, cone, std::iter::once(g as u32)));
            super::cone_sweep(st, state, cone, &PassOptions::default(), None, None)
                .expect("clean sweep");
            assert!(cone.nodes > cone.pruned, "the delta must move its cone");
        }
        cone.undo(st, state);
        cone.forget();
        assert!(before == eng.undo_image(), "the undo left a trace");
    }

    /// The log's budget is bytes. A K = 8 session over rows that hold a
    /// few entries each logs more recomputes than the 3 236 a megabyte held
    /// when every queue was K wide, stays under the budget, and its
    /// rollback is the log's copy: no full pass. Stacked past the budget,
    /// the log is given up and the rollback re-syncs by one full pass.
    /// Both land on the pre-session bits.
    #[test]
    fn the_session_log_is_budgeted_in_bytes() {
        use super::{SESSION_LOG_BYTES, SLOT_BYTES};
        use insta_refsta::eco::ArcDelta;
        // Six startpoints: no row holds more than six entries a queue.
        let design = generate_design(&GeneratorConfig {
            n_flops: 4,
            n_inputs: 2,
            logic_levels: 10,
            gates_per_level: 80,
            ..GeneratorConfig::small("log", 3)
        });
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        sta.full_update(&design);
        let cfg = InstaConfig {
            top_k: 8,
            ..InstaConfig::default()
        };
        let mut eng = InstaEngine::new(sta.export_insta_init(), cfg).expect("valid snapshot");
        eng.propagate();
        eng.enable_tracing();
        let before = eng.undo_image();
        let forward = |e: &InstaEngine| {
            let journal = e.trace_journal().expect("tracing on");
            journal.events().filter(|ev| ev.name == "forward").count()
        };
        // Arcs into the first two levels, whose cones are most of the
        // graph, shifted on odd rounds and put back on even ones.
        let st = &eng.st;
        let deltas = |round: usize| -> Vec<ArcDelta> {
            let shallow = (0..st.n_graph_arcs).filter(|&g| {
                let e = st.expansion(g)[0] as usize;
                crate::health::level_of(st, st.arc_child[e] as usize) <= 2
            });
            let shift = if round % 2 == 0 { 0.0 } else { 250.0 };
            shallow
                .take(8)
                .map(|g| {
                    let e = st.expansion(g)[0] as usize;
                    ArcDelta {
                        arc: g as u32,
                        mean: st.arc_mean[e].map(|m| m + shift),
                        sigma: st.arc_sigma[e],
                    }
                })
                .collect()
        };
        let rounds: Vec<Vec<ArcDelta>> = (1..400).map(deltas).collect();
        let old_cap = SESSION_LOG_BYTES / (4 + SLOT_BYTES * 2 * 8);

        let mut session = eng.begin_session();
        let mut logged = 0;
        for d in &rounds {
            session.update_timing(d).expect("valid deltas");
            logged = session.engine().cone.log_node.len();
            if logged > old_cap {
                break;
            }
        }
        assert!(logged > old_cap, "{logged} recomputes");
        let cone = &session.engine().cone;
        assert!(cone.node_log_bytes() <= SESSION_LOG_BYTES);
        assert!(session.engine().validity.covered(), "the log still covers the session");
        let passes = forward(session.engine());
        session.rollback();
        assert_eq!(forward(&eng), passes, "a log undo runs no pass");
        assert!(eng.undo_image() == before, "the log undo left a trace");

        let mut session = eng.begin_session();
        for d in &rounds {
            session.update_timing(d).expect("valid deltas");
            if !session.engine().validity.covered() {
                break;
            }
        }
        assert!(!session.engine().validity.covered(), "the log outgrew its budget");
        let passes = forward(session.engine());
        session.rollback();
        assert_eq!(forward(&eng), passes + 1, "an outgrown log re-syncs by a pass");
        assert!(eng.undo_image() == before, "the re-sync left a trace");
    }

    /// The log counts an annotation write at what its entry occupies: a
    /// session's `checkpoint_bytes()` grows by exactly one `log_arc` entry
    /// per expansion of a re-annotated graph arc. The arc leads into a node
    /// no endpoint sees, so nothing is recomputed and the arc half of the
    /// log is all that grows.
    #[test]
    fn checkpoint_bytes_count_a_logged_arc_write_at_its_size() {
        let (_d, _sta, mut eng) = crate::engine::tests::build_engine(47, 4);
        eng.propagate();
        let st = &eng.st;
        let dead = |e: &u32| !st.live[st.arc_child[*e as usize] as usize];
        let g = (0..st.n_graph_arcs)
            .find(|&g| st.expansion(g).iter().all(dead))
            .expect("fixture: an arc into a node no endpoint sees");
        let writes = st.expansion(g).len();
        let delta = |mean: f64| insta_refsta::eco::ArcDelta {
            arc: g as u32,
            mean: [mean; 2],
            sigma: [1.0; 2],
        };
        let mut session = eng.begin_session();
        session.update_timing(&[delta(30.0)]).expect("valid delta");
        let before = session.checkpoint_bytes();
        session.update_timing(&[delta(40.0)]).expect("valid delta");
        let entry = std::mem::size_of::<(u32, [f64; 2], [f64; 2])>();
        assert_eq!(entry, 40, "a u32 beside f64 pairs is padded to 8 bytes");
        assert_eq!(session.checkpoint_bytes() - before, writes * entry);
        assert!(
            session.engine().cone.log_node.is_empty(),
            "nothing was recomputed"
        );
    }

    #[test]
    fn out_of_range_deltas_are_a_typed_error_and_leave_annotations_untouched() {
        let design = generate_design(&GeneratorConfig::small("incr", 35));
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let mut eng = InstaEngine::new(golden.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        let before = eng.propagate().clone();
        let n_arcs = eng.st.n_graph_arcs as u32;
        // A mixed batch: a bad id at position 0 and 2, a valid (but
        // perturbing) delta between them. Batch rejection must be atomic.
        let deltas = [
            insta_refsta::eco::ArcDelta {
                arc: u32::MAX,
                mean: [0.0; 2],
                sigma: [0.0; 2],
            },
            insta_refsta::eco::ArcDelta {
                arc: 0,
                mean: [999.0; 2],
                sigma: [9.0; 2],
            },
            insta_refsta::eco::ArcDelta {
                arc: n_arcs,
                mean: [0.0; 2],
                sigma: [0.0; 2],
            },
        ];
        let err = eng.reannotate(&deltas).expect_err("must reject");
        assert_eq!(err.category(), "validate");
        assert!(!err.poisons_state());
        let text = err.to_string();
        assert!(text.contains("out of range"), "{text}");
        let crate::error::InstaError::Validate(report) = &err else {
            panic!("expected Validate, got {err:?}");
        };
        // Both offenders listed, not just the first.
        assert_eq!(report.total(), 2, "{report}");
        // The valid middle delta was NOT applied: re-propagating
        // reproduces the untouched report bit-for-bit.
        let after = eng.propagate().clone();
        assert_eq!(
            before.slacks.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            after.slacks.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        // update_timing rejects identically.
        let err2 = eng.update_timing(&deltas).expect_err("must reject");
        assert_eq!(err2.category(), "validate");
    }
}
