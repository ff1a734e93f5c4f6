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
//! queue completely (live entries and live count written).
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
//! its parents' live entries and — through a virtual parent — of the
//! annotations and the stored row up that parent's chain. Level 0 is
//! launch seeds only and is never touched. Assume every row below level
//! `l` holds full-pass bits. A stored node of level `l` that is *not* on
//! the worklist has no re-annotated fanin arc, no stored parent whose live
//! entries changed and no virtual parent that was visited, so its old bits
//! are the full pass's bits; one that *is* on it is recomputed by the
//! shared body from rows that are final. Hence level `l` is final too.
//!
//! **Change pruning.** Before a stored node is recomputed its old live
//! counts and live entries are copied out; its fanout is queued only if
//! the new ones differ, by count or by bits. The cone is therefore bounded
//! by changed *values*, not by structural fanout. Dead slots are neither
//! copied nor compared.
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
//! **The undo log.** There is one way to take a sweep back. The old
//! entries a node's compare needs are copied out before its recompute
//! anyway; they are appended — with the node id and its two old live
//! counts: 20 bytes a live entry, nothing for a dead slot or a virtual
//! node — to a log, and so is the old value of every annotation write
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
//! ledger by value, the report and the drift odometer. No session call
//! writes the LSE or gradient buffers, so nothing of theirs is captured:
//! the LSE stamp names the generation the buffers were computed from,
//! which after the undo either is the restored one or never comes back.
//! A session's undo applies the ledger's rollback rule
//! (`crate::validity`) and has the snapshot rows follow `undone`, the
//! logged nodes and the virtual nodes reading them.
//!
//! **Its budget.** Logged whole, the rare resize that moves a quarter of
//! the graph put 4 MB (9.8 %) on `eco_block5_k8`'s peak RSS, so a session
//! keeps at most `SESSION_LOG_BYTES` of recomputes. A sweep that outgrows
//! them gives the node half of the log up and sweeps on: the update costs
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
/// 3 196 stored nodes at K = 8 with every queue full, where 90 % of
/// `eco_block5_k8`'s updates visit under 520 nodes, most of them virtual,
/// and 1 % more than 2 000; 2.5 % of that workload's peak RSS at the most.
const SESSION_LOG_BYTES: usize = 1 << 20;

/// What one live queue entry costs the log: startpoint, mean, sigma.
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
    /// recompute of a stored node — its two old live counts and its old
    /// live entries, rise then fall. The change compare reads the last
    /// run. A virtual node has no row, hence no run.
    pub(crate) log_node: Vec<u32>,
    log_live: Vec<u16>,
    old_sp: Vec<u32>,
    old_mean: Vec<f64>,
    old_sigma: Vec<f64>,
    /// Logged annotation writes: (expanded arc, old mean, old sigma).
    pub(crate) log_arc: Vec<(u32, [f64; 2], [f64; 2])>,
    /// The recomputes [`SESSION_LOG_BYTES`] pay for.
    log_cap: usize,
    arena: MergeArena,
    /// What the last sweep did (the `forward.cone` span's payload); `nodes`
    /// are recomputes, a virtual node passed through is not one.
    seeds: usize,
    levels: usize,
    pub(crate) nodes: usize,
    pub(crate) pruned: usize,
}

impl ConeScratch {
    pub(crate) fn new(n: usize, num_levels: usize, k: usize) -> Self {
        // The budget's worth of log, mapped once and resident only as far as
        // written: grown by doubling, it leaves as much again in freed blocks.
        let log_cap = SESSION_LOG_BYTES / (4 + 2 * 2 + SLOT_BYTES * 2 * k);
        Self {
            stamp: vec![0; n],
            epoch: 0,
            frontier: vec![Vec::new(); num_levels],
            log_node: Vec::with_capacity(log_cap),
            log_live: Vec::with_capacity(log_cap * 2),
            old_sp: Vec::with_capacity(log_cap * 2 * k),
            old_mean: Vec::with_capacity(log_cap * 2 * k),
            old_sigma: Vec::with_capacity(log_cap * 2 * k),
            log_arc: Vec::new(),
            log_cap,
            arena: MergeArena::default(),
            seeds: 0,
            levels: 0,
            nodes: 0,
            pruned: 0,
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
        self.arena.fallbacks = 0;
    }

    /// Queues `v` on its level's worklist unless this sweep already did.
    #[inline]
    fn enqueue(&mut self, st: &Static, v: u32) -> bool {
        let fresh = self.stamp[v as usize] != self.epoch;
        if fresh {
            self.stamp[v as usize] = self.epoch;
            self.frontier[crate::health::level_of(st, v as usize)].push(v);
        }
        fresh
    }

    /// How many virtual parents the last sweep materialised.
    pub(crate) fn fallbacks(&self) -> u64 {
        self.arena.fallbacks
    }

    /// Whether the current sweep recomputed node `v`.
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
        let k = state.k;
        let mut end = self.old_sp.len();
        for (i, &v) in self.log_node.iter().enumerate().rev() {
            let row = st.row_of(v as usize).expect("only stored nodes are logged");
            for rf in (0..2).rev() {
                let live = self.log_live[i * 2 + rf];
                let from = end - live as usize..end;
                let q = row * 2 + rf;
                let to = q * k..q * k + live as usize;
                state.live[q] = live;
                state.topk_sp[to.clone()].copy_from_slice(&self.old_sp[from.clone()]);
                state.topk_mean[to.clone()].copy_from_slice(&self.old_mean[from.clone()]);
                state.topk_sigma[to].copy_from_slice(&self.old_sigma[from.clone()]);
                end = from.start;
            }
        }
        for &(e, mean, sigma) in self.log_arc.iter().rev() {
            st.arc_mean[e as usize] = mean;
            st.arc_sigma[e as usize] = sigma;
        }
    }

    /// Every node whose readable queue [`undo`](Self::undo) may have moved:
    /// the logged nodes, and the virtual nodes that read them — downstream
    /// of a logged node or of a logged annotation write through virtual
    /// nodes only. What a rollback has the snapshot rows follow.
    pub(crate) fn undone(&self, st: &Static) -> Vec<u32> {
        let mut nodes = self.log_node.clone();
        let mut wake = |mut v: u32| {
            while st.row_of(v as usize).is_none() {
                nodes.push(v);
                v = st.consumer_of(v as usize);
            }
        };
        for &v in &self.log_node {
            for &e in st.fanout(v as usize) {
                wake(st.arc_child[e as usize]);
            }
        }
        for &(e, ..) in &self.log_arc {
            wake(st.arc_child[e as usize]);
        }
        nodes
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
        self.log_live.clear();
        self.old_sp.clear();
        self.old_mean.clear();
        self.old_sigma.clear();
    }

    /// Bytes the log holds right now.
    pub(crate) fn log_bytes(&self) -> usize {
        self.log_node.len() * (4 + 2 * 2)
            + self.old_sp.len() * SLOT_BYTES
            + self.log_arc.len() * (4 + 16 + 16)
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
        // cone update re-syncs Top-K, report and rows).
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
        let log_budget = self.cone.log_cap;
        let res = cone_sweep(
            &self.st,
            &mut self.state,
            &mut self.cone,
            opts,
            self.trace.profile_mut(Kernel::Forward),
            Some((log_budget, &mut self.validity)),
        );
        let c = &self.cone;
        self.trace.end_with(&[
            ("seeds", c.seeds as f64),
            ("levels", c.levels as f64),
            ("nodes", c.nodes as f64),
            ("pruned", c.pruned as f64),
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
        if synced && seed_cone(&eng.st, &mut eng.cone, deltas.iter().map(|d| d.arc)) {
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
            eng.validity.cone_done();
            // The snapshot rows follow the arrays (see [`crate::snapshot`]).
            eng.rows
                .follow(&mut eng.validity, &eng.st, &eng.state, eng.cone.swept());
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
            if eng.validity.topk_current() && eng.rows.kept() {
                let undone = eng.cone.undone(&eng.st);
                eng.rows
                    .follow(&mut eng.validity, &eng.st, &eng.state, undone.into_iter());
            }
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

/// Opens a sweep seeded with the children of every expansion of the given
/// (re-annotated) graph arcs. Returns `false` when the distinct seeds
/// exceed the [`CONE_SEED_SHARE`] switch: the full pass is the cheaper way
/// to re-sync then.
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
/// how many recomputes the undo log may hold, judged once per level, and
/// the ledger to tell when a sweep past it gives them up; a lane has none.
pub(crate) fn cone_sweep(
    st: &Static,
    state: &mut State,
    cone: &mut ConeScratch,
    opts: &PassOptions,
    prof: Option<&mut LevelProfile>,
    mut log_budget: Option<(usize, &mut Validity)>,
) -> Result<Option<RuntimeIncident>, InstaError> {
    // The cone runs on one thread: a dirty level is one inline cut.
    let mut pass = Pass::begin(Kernel::Forward, 1, opts, prof);
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
                    let (recomputed, pruned) = cone_level(st, state, cone, &nodes, launch.retry);
                    cone.nodes += recomputed;
                    cone.pruned += pruned;
                });
                panicked.map(|(_, message)| (span.clone(), message))
            },
            |_| {},
        )?;
        cone.levels += 1;
        cone.frontier[l] = nodes;
        if let Some((cap, ledger)) = &mut log_budget {
            if cone.log_node.len() > *cap {
                cone.forget_nodes();
                ledger.log_gave_up();
            }
        }
    }
    Ok(pass.finish())
}

/// Recomputes one level's worklist in place and queues the fanout of every
/// node whose readable entries changed (all of them under `force`).
/// Returns how many nodes were recomputed and how many of those pruned.
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
) -> (usize, usize) {
    let k = state.k;
    let (mut recomputed, mut pruned) = (0, 0);
    for &v in nodes {
        let v = v as usize;
        let Some(row) = st.row_of(v) else {
            cone.enqueue(st, st.consumer_of(v));
            continue;
        };
        recomputed += 1;
        let at = cone.old_sp.len();
        cone.log_node.push(v as u32);
        for q in row * 2..row * 2 + 2 {
            let w = q * k..q * k + state.live[q] as usize;
            cone.log_live.push(state.live[q]);
            cone.old_sp.extend_from_slice(&state.topk_sp[w.clone()]);
            cone.old_mean.extend_from_slice(&state.topk_mean[w.clone()]);
            cone.old_sigma.extend_from_slice(&state.topk_sigma[w]);
        }
        {
            // A one-node window: every row before `v`'s is the done prefix
            // (its ancestors sit in earlier levels).
            let (done, mut cur) = state.split_at_row(row);
            // The full pass's pre-state of a startpoint node: its launch
            // seed. The body owns every other queue outright.
            seed_level(st, &mut cur, v..v + 1, &source_launch(st));
            level_chunk::<false>(
                st,
                done,
                v..v + 1,
                &mut cur.live[..2],
                &mut cur.mean[..2 * k],
                &mut cur.sigma[..2 * k],
                &mut cur.sp[..2 * k],
                &mut cone.arena,
            );
        }
        let changed = force || {
            // Old and new entries of the node, rise then fall: the same
            // live counts, then the same bits.
            let lanes = state.lanes();
            let (rise, fall) = (lanes.row(row, 0), lanes.row(row, 1));
            let new_live = [rise.sp.len() as u16, fall.sp.len() as u16];
            let bits = |x: &[f64], y: &[f64], z: &[f64]| {
                x.iter().chain(y).map(|v| v.to_bits()).ne(z.iter().map(|v| v.to_bits()))
            };
            cone.log_live[cone.log_live.len() - 2..] != new_live
                || rise.sp.iter().chain(fall.sp).ne(&cone.old_sp[at..])
                || bits(rise.mean, fall.mean, &cone.old_mean[at..])
                || bits(rise.sigma, fall.sigma, &cone.old_sigma[at..])
        };
        if changed {
            for &e in st.fanout(v) {
                cone.enqueue(st, st.arc_child[e as usize]);
            }
        } else {
            pruned += 1;
        }
    }
    (recomputed, pruned)
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
