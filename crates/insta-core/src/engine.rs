//! Engine state: the GPU-style memory layout built from an [`InstaInit`]
//! snapshot.
//!
//! At construction the engine renumbers nodes in **level-major order** so
//! that every timing level — and every level's fanin arc block — is one
//! contiguous slice. That is the CPU equivalent of the paper's Fig. 3
//! layout (index arrays in shared memory mapping threads to parent pins),
//! and it is what lets the kernels split the SoA arrays into disjoint
//! `done` / `current` regions and run each level's pins in parallel with no
//! synchronization and no unsafe code.
//!
//! The Top-K rows are sized once, from the graph alone: a queue holds
//! exactly as many entries as there are distinct startpoints in its fan-in
//! cone, capped at K (`capacities`), and the rows are a compact CSR over
//! that count (`Static::slot_base`) with no live count and no slot a pass
//! never writes (block-1 at K = 32: rows 33.0 → 21.0 MiB).

use crate::error::{IncidentLog, InstaError, RuntimeIncident};
use crate::forward::queue_of;
use crate::incremental::ConeScratch;
use crate::metrics::EngineCounters;
use crate::parallel::VirtualQueue;
use crate::snapshot::RowStore;
use crate::stat;
use crate::trace::{kernel_code, TraceSink};
use crate::validate::{self, Issue, ValidationReport};
use crate::validity::Validity;
use insta_refsta::export::{EndpointInit, InstaInit, SourceInit, NO_LEAF};
use insta_refsta::ExceptionSet;
use std::sync::Arc;

/// Configuration of the INSTA engine.
#[derive(Debug, Clone)]
pub struct InstaConfig {
    /// Top-K queue capacity per pin (paper Table I uses 32; Fig. 6
    /// contrasts 1 and 128).
    pub top_k: usize,
    /// Worker threads per kernel launch (`0` = all cores).
    pub n_threads: usize,
    /// LSE temperature τ of the differentiable forward (ps). The paper
    /// uses τ = 0.01 for INSTA-Size; larger values spread gradients over
    /// more sub-critical paths.
    pub lse_tau: f64,
    /// Whether endpoint evaluation applies CPPR credit (Fig. 6 contrasts
    /// Top-K=1 without CPPR against Top-K=128 with it).
    pub cppr: bool,
    /// Nothing reads it: the frozen end-to-end benchmark still names it in
    /// a struct literal (see the `adapter` module).
    #[doc(hidden)]
    pub drift_policy: crate::adapter::DriftPolicy,
}

impl Default for InstaConfig {
    fn default() -> Self {
        Self {
            top_k: 32,
            n_threads: 0,
            lse_tau: 1.0,
            cppr: true,
            drift_policy: crate::adapter::DriftPolicy,
        }
    }
}

/// Immutable topology plus the (re-annotatable) cloned arc delays.
#[derive(Debug, Clone)]
pub(crate) struct Static {
    /// Number of nodes.
    pub n: usize,
    /// Level CSR over renumbered node ids.
    pub level_start: Vec<u32>,
    /// Fanin CSR per renumbered node.
    pub fanin_start: Vec<u32>,
    /// Parent (renumbered) per expanded arc.
    pub arc_parent: Vec<u32>,
    /// Child (renumbered) per expanded arc.
    pub arc_child: Vec<u32>,
    /// Whether the arc inverts the parent transition.
    pub arc_neg: Vec<bool>,
    /// Cloned arc mean delays per destination transition (ps).
    pub arc_mean: Vec<[f64; 2]>,
    /// Cloned arc sigmas per destination transition (ps).
    pub arc_sigma: Vec<[f64; 2]>,
    /// Fanout CSR per renumbered node (indices into `fanout_arc`).
    pub fanout_start: Vec<u32>,
    /// Expanded-arc ids in fanout order.
    pub fanout_arc: Vec<u32>,
    /// Graph-arc → expanded-arc expansion CSR.
    pub expansion_start: Vec<u32>,
    pub expansion_arc: Vec<u32>,
    /// Startpoint launch data (renumbered nodes).
    pub sources: Vec<SourceInit>,
    /// Node → index into `sources` (`u32::MAX` = not a startpoint; the
    /// *last* source on a node wins). What every pass seeds a startpoint
    /// node's queues from ([`crate::forward::seed_level`]).
    pub source_of: Vec<u32>,
    /// Endpoint attributes (renumbered nodes).
    pub endpoints: Vec<EndpointInit>,
    /// Startpoint → clock leaf.
    pub sp_leaf: Vec<u32>,
    /// Clock-tree arrays for LCA credit.
    pub clock_parent: Vec<u32>,
    pub clock_depth: Vec<u32>,
    pub clock_credit: Vec<f64>,
    /// Corner pessimism.
    pub n_sigma: f64,
    /// Clock period (ps).
    pub period_ps: f64,
    /// Exceptions keyed by (SP, EP).
    pub exceptions: ExceptionSet,
    /// Renumbered → original node id (for external correlation). Static
    /// per engine, so snapshots share it by `Arc` instead of cloning it.
    pub node_orig: Arc<[u32]>,
    /// Original → renumbered node id (the inverse permutation).
    pub new_id: Arc<[u32]>,
    /// Number of graph (pre-expansion) arcs.
    pub n_graph_arcs: usize,
    /// Stored Top-K rows ahead of each node, `n + 1` long: node `v` owns
    /// row `row_base[v]` unless it is *virtual* — exactly one fanin arc,
    /// exactly one fanout arc, neither startpoint nor endpoint — in which
    /// case `row_base[v + 1] == row_base[v]` and its queue is computed
    /// where it is read ([`crate::forward::queue_of`]). Rows are in node
    /// order, so a level's rows are contiguous like its nodes.
    pub row_base: Vec<u32>,
    /// Queue slots ahead of each stored row, `rows + 1` long: both queues
    /// of row `r` hold exactly `slot_base[r + 1] - slot_base[r]` entries,
    /// `min(K, distinct startpoint ids reaching the node)`, 0 for a node no
    /// endpoint sees — a structural count, the same for rise and fall and
    /// for every pass ([`capacities`]).
    /// The rows' lanes are a CSR over it: queue `(r, rf)` is
    /// [`queue_slots`](Self::queue_slots).
    pub slot_base: Vec<u32>,
    /// Whether node `v` reaches an endpoint (an endpoint does): structural,
    /// from one reverse sweep over the fanout CSR ([`reaches_endpoint`]).
    /// A node no endpoint can see moves no slack, no TNS and no ∂TNS, so no
    /// pass seeds, merges, queues or stores it: its row holds nothing
    /// ([`capacities`]) and every reader sees it unreached. Every parent of
    /// a live node is live, so a live node reads live rows only.
    pub live: Vec<bool>,
}

impl Static {
    /// CPPR credit between a startpoint leaf and endpoint leaf.
    #[inline]
    pub fn cppr_credit(&self, mut a: u32, mut b: u32) -> f64 {
        if a == NO_LEAF || b == NO_LEAF {
            return 0.0;
        }
        while self.clock_depth[a as usize] > self.clock_depth[b as usize] {
            a = self.clock_parent[a as usize];
        }
        while self.clock_depth[b as usize] > self.clock_depth[a as usize] {
            b = self.clock_parent[b as usize];
        }
        while a != b {
            a = self.clock_parent[a as usize];
            b = self.clock_parent[b as usize];
        }
        self.clock_credit[a as usize]
    }

    /// Number of levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_start.len() - 1
    }

    /// Node range of a level.
    #[inline]
    pub fn level_range(&self, l: usize) -> std::ops::Range<usize> {
        self.level_start[l] as usize..self.level_start[l + 1] as usize
    }

    /// Fanin arc range of a node.
    #[inline]
    pub fn fanin_range(&self, v: usize) -> std::ops::Range<usize> {
        self.fanin_start[v] as usize..self.fanin_start[v + 1] as usize
    }

    /// The Top-K row of node `v`; `None` for a virtual node.
    #[inline]
    pub fn row_of(&self, v: usize) -> Option<usize> {
        let row = self.row_base[v];
        (self.row_base[v + 1] != row).then_some(row as usize)
    }

    /// The rows of a node range.
    #[inline]
    pub fn rows(&self, nodes: std::ops::Range<usize>) -> std::ops::Range<usize> {
        self.row_base[nodes.start] as usize..self.row_base[nodes.end] as usize
    }

    /// Number of stored Top-K rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.row_base[self.n] as usize
    }

    /// Number of queue entries the stored rows hold, both transitions.
    #[inline]
    pub fn n_slots(&self) -> usize {
        2 * self.slot_base[self.n_rows()] as usize
    }

    /// Where the queues of `rows` sit in compact lanes: both transitions of
    /// every row, rise ahead of fall.
    #[inline]
    pub fn slots(&self, rows: std::ops::Range<usize>) -> std::ops::Range<usize> {
        2 * self.slot_base[rows.start] as usize..2 * self.slot_base[rows.end] as usize
    }

    /// Where queue `(row, rf)` sits in compact lanes; its length is the
    /// row's capacity.
    #[inline(always)]
    pub fn queue_slots(&self, row: usize, rf: usize) -> std::ops::Range<usize> {
        queue_slots(&self.slot_base, row, rf)
    }

    /// The expanded arcs leaving node `v`.
    #[inline]
    pub fn fanout(&self, v: usize) -> &[u32] {
        &self.fanout_arc[self.fanout_start[v] as usize..self.fanout_start[v + 1] as usize]
    }

    /// The one consumer of a virtual node.
    #[inline]
    pub fn consumer_of(&self, v: usize) -> u32 {
        self.arc_child[self.fanout(v)[0] as usize]
    }

    /// The expanded arcs a graph arc derives into.
    #[inline]
    pub fn expansion(&self, g: usize) -> &[u32] {
        &self.expansion_arc[self.expansion_start[g] as usize..self.expansion_start[g + 1] as usize]
    }
}

/// Mutable propagation state (the SoA Top-K structures of Algorithm 1 plus
/// the differentiable-pass buffers).
///
/// The Top-K lanes are indexed by *row* ([`Static::row_base`]), not by
/// node, and hold exactly the entries a queue can have: a row's slots are
/// its capacity ([`Static::slot_base`]), every one of them live after a
/// pass, so no queue carries a count and no slot is dead. A corner arrival
/// is computed from the two values beside it where it is needed.
#[derive(Debug, Clone)]
pub(crate) struct State {
    /// Top-K capacity.
    pub k: usize,
    /// Whether the rows are in hold's order (negated early corners): the
    /// last full pass over them was the min pass. Every pass writes every
    /// row that holds an entry, so this says it of every row.
    pub early: bool,
    /// Queue entries, `2 * slot_base[rows]`, queue `(row, rf)` at
    /// [`Static::queue_slots`].
    pub topk_mean: Vec<f64>,
    pub topk_sigma: Vec<f64>,
    pub topk_sp: Vec<u32>,
    /// Smooth (LSE) corner arrival per `(node, rf)`.
    pub lse_arrival: Vec<f64>,
    /// Softmax weight per expanded arc per destination transition.
    pub lse_weight: Vec<[f64; 2]>,
    /// ∂TNS/∂arrival per `(node, rf)`.
    pub grad_arrival: Vec<f64>,
    /// ∂TNS/∂(arc delay) per expanded arc per destination transition.
    pub grad_arc: Vec<[f64; 2]>,
    /// Scratch gradients in fanout-slot order (scattered back into
    /// `grad_arc` after the backward sweep).
    pub grad_fanout: Vec<[f64; 2]>,
    /// Last evaluation report.
    pub report: Option<crate::metrics::InstaReport>,
}

/// A read view of Top-K rows: a whole [`State`], the rows ahead of the
/// window a kernel is writing, a window pass's level buffer or its slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<'a> {
    pub k: usize,
    /// The rows' capacities ([`Static::slot_base`]).
    pub base: &'a [u32],
    /// Where stored row `r` sits in these lanes: at its compact slots
    /// ([`Static::queue_slots`]) less `origin` (`None`), or in slot
    /// `slot[r]` of `2 * k` entries (a window pass's slot plan, see
    /// [`crate::forward::SlotPlan`]).
    pub slot: Option<&'a [u32]>,
    pub origin: usize,
    pub sp: &'a [u32],
    pub mean: &'a [f64],
    pub sigma: &'a [f64],
}

/// The live entries of one queue, best corner first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queue<'a> {
    pub sp: &'a [u32],
    pub mean: &'a [f64],
    pub sigma: &'a [f64],
}

impl<'a> Queue<'a> {
    /// The entries as `(sp, mean, sigma)`, best corner first.
    #[inline]
    pub fn entries(self) -> impl Iterator<Item = (u32, f64, f64)> + 'a {
        let stats = self.mean.iter().zip(self.sigma);
        self.sp.iter().zip(stats).map(|(&sp, (&m, &s))| (sp, m, s))
    }
}

impl<'a> Lanes<'a> {
    /// The queue of `(row, rf)`, wherever the plan keeps the row.
    #[inline(always)]
    pub fn row(&self, row: usize, rf: usize) -> Queue<'a> {
        let w = queue_slots(self.base, row, rf);
        let at = match self.slot {
            Some(slot) => (slot[row] as usize * 2 + rf) * self.k,
            None => w.start - self.origin,
        };
        let w = at..at + w.len();
        Queue {
            sp: &self.sp[w.clone()],
            mean: &self.mean[w.clone()],
            sigma: &self.sigma[w],
        }
    }
}

impl State {
    /// A state with `slots` Top-K entries and no other array allocated
    /// (scratch passes fill in only the arrays they touch).
    pub fn with_slots(slots: usize, k: usize) -> Self {
        State {
            k,
            early: false,
            topk_mean: vec![0.0; slots],
            topk_sigma: vec![0.0; slots],
            topk_sp: vec![0; slots],
            lse_arrival: Vec::new(),
            lse_weight: Vec::new(),
            grad_arrival: Vec::new(),
            grad_arc: Vec::new(),
            grad_fanout: Vec::new(),
            report: None,
        }
    }

    /// The Top-K rows as a read view.
    #[inline]
    pub fn lanes<'a>(&'a self, st: &'a Static) -> Lanes<'a> {
        Lanes {
            k: self.k,
            base: &st.slot_base,
            slot: None,
            origin: 0,
            sp: &self.topk_sp,
            mean: &self.topk_mean,
            sigma: &self.topk_sigma,
        }
    }

    /// Splits the Top-K rows at `row`: the rows before it as a read view
    /// (a kernel's `done` prefix) and the rows from it on as a write view,
    /// for the kernel to carve its window from.
    pub fn split_at_row<'a>(&'a mut self, st: &'a Static, row: usize) -> (Lanes<'a>, RowsMut<'a>) {
        let at = st.slots(row..row).start;
        let (mean_done, mean) = self.topk_mean.split_at_mut(at);
        let (sigma_done, sigma) = self.topk_sigma.split_at_mut(at);
        let (sp_done, sp) = self.topk_sp.split_at_mut(at);
        let done = Lanes {
            k: self.k,
            base: &st.slot_base,
            slot: None,
            origin: 0,
            sp: sp_done,
            mean: mean_done,
            sigma: sigma_done,
        };
        let rest = RowsMut {
            origin: at,
            mean,
            sigma,
            sp,
        };
        (done, rest)
    }

    /// Bytes held by every array of the state.
    pub fn bytes(&self) -> usize {
        fn of<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        of(&self.topk_mean)
            + of(&self.topk_sigma)
            + of(&self.topk_sp)
            + of(&self.lse_arrival)
            + of(&self.lse_weight)
            + of(&self.grad_arrival)
            + of(&self.grad_arc)
            + of(&self.grad_fanout)
    }
}

/// A write view of consecutive Top-K rows in compact lanes, slot `origin`
/// at index 0: the window a full pass writes one level into.
pub(crate) struct RowsMut<'a> {
    pub origin: usize,
    pub mean: &'a mut [f64],
    pub sigma: &'a mut [f64],
    pub sp: &'a mut [u32],
}

/// Lazily allocated scratch that a clone of its owner starts without: it
/// holds no result, only pages worth keeping mapped.
#[derive(Debug)]
pub(crate) struct Scratch<T>(pub Option<T>);

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Self(None)
    }
}

impl<T> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Self(None)
    }
}

/// The INSTA engine.
///
/// Construct it from a reference export, then call
/// [`propagate`](InstaEngine::propagate) for evaluation,
/// [`forward_lse`](InstaEngine::forward_lse) +
/// [`backward_tns`](InstaEngine::backward_tns) for timing gradients, and
/// [`reannotate`](InstaEngine::reannotate) for incremental updates.
#[derive(Debug, Clone)]
pub struct InstaEngine {
    pub(crate) st: Static,
    pub(crate) state: State,
    pub(crate) cfg: InstaConfig,
    /// Report of the construction-time validation pass.
    validation: ValidationReport,
    /// The worker-panic incident of the most recent kernel pass, if it
    /// had one that serial re-execution recovered from.
    pub(crate) last_incident: Option<RuntimeIncident>,
    /// Bounded history of every recovered or fatal worker panic (see
    /// [`IncidentLog`]).
    pub(crate) incidents: IncidentLog<RuntimeIncident>,
    /// Commit counter: bumped by every committed session.
    pub(crate) epoch: u64,
    /// The counters bumped in place; [`counters`](Self::counters()) fills
    /// in the derived ones.
    pub(crate) counters: EngineCounters,
    /// Which derived product — Top-K arrays, report, LSE buffers — is
    /// current with the annotations (see [`crate::validity`]).
    pub(crate) validity: Validity,
    /// Persistent scratch of the cone sweep (see [`crate::incremental`]).
    pub(crate) cone: ConeScratch,
    /// The worst-entry rows a [`snapshot`](InstaEngine::snapshot) serves,
    /// kept from the first capture on (see [`crate::snapshot`]).
    pub(crate) rows: RowStore,
    /// Top-K arrays of a batched call's corner base passes (see
    /// [`crate::batch`]): absent until the first corner group with a delta
    /// lane, then kept.
    pub(crate) corner_scratch: Scratch<State>,
    /// The slot plan and rows of a batched call's window passes (see
    /// [`crate::forward::Window`]): absent until the first one, then kept.
    pub(crate) window: Scratch<crate::forward::Window>,
    /// The observability sink (disabled by default; see [`crate::trace`]).
    pub(crate) trace: TraceSink,
    /// The reference fold's dense arrays of the last reference pass (see
    /// [`crate::scalar_ref`]).
    #[cfg(any(test, feature = "scalar-reference"))]
    pub(crate) scalar_topk: Option<crate::scalar_ref::DenseTopK>,
}

impl InstaEngine {
    /// Builds the engine from a reference snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`InstaError::Validate`] when the configuration is invalid
    /// (`top_k` zero or above 65 535, non-positive `lse_tau`) or when
    /// the snapshot violates the engine's contract (see
    /// [`crate::validate`]).
    pub fn new(mut init: InstaInit, cfg: InstaConfig) -> Result<Self, InstaError> {
        let mut config_issues = ValidationReport::default();
        if cfg.top_k == 0 {
            config_issues.record(Issue::BadConfig {
                message: "top_k must be positive".into(),
            });
        }
        // A merge reserves K slots of scratch per fanin arc, whatever the
        // rows hold.
        if cfg.top_k > usize::from(u16::MAX) {
            config_issues.record(Issue::BadConfig {
                message: format!("top_k must be at most {}, got {}", u16::MAX, cfg.top_k),
            });
        }
        if !(cfg.lse_tau > 0.0) {
            config_issues.record(Issue::BadConfig {
                message: format!("lse_tau must be positive, got {}", cfg.lse_tau),
            });
        }
        if config_issues.total() > 0 {
            return Err(InstaError::Validate(config_issues));
        }
        let validation = validate::validate(&init);
        if validation.rejects_strict() {
            return Err(InstaError::Validate(validation));
        }
        let n = init.n_nodes;
        // Renumbering: new id = position in level-major order, refined by
        // a level-blocked reorder. Within each level, nodes are
        // stable-sorted by the (already renumbered) id of their first
        // fanin parent, so consecutive nodes of a level read neighboring
        // rows of the done prefix — parent gathers walk the earlier
        // levels near-sequentially instead of hopping in export order.
        // Per-node results are pure functions of the parents' queues, and
        // every downstream array (CSRs, sources, endpoints, `node_orig`)
        // is built from the permuted order, so the refinement is
        // invisible to callers: reports stay endpoint-indexed and
        // `node_orig` still maps back to export ids. Levels are processed
        // in order because a level's sort keys are its parents' final ids.
        let mut order = std::mem::take(&mut init.order);
        let mut new_id = vec![0u32; n];
        let num_levels = init.level_start.len().saturating_sub(1);
        for l in 0..num_levels {
            let r = init.level_start[l] as usize..init.level_start[l + 1] as usize;
            if l > 0 {
                order[r.clone()].sort_by_key(|&orig| {
                    let fr = init.fanin_start[orig as usize] as usize
                        ..init.fanin_start[orig as usize + 1] as usize;
                    init.fanin[fr]
                        .first()
                        .map_or(u32::MAX, |e| new_id[e.parent as usize])
                });
            }
            for pos in r {
                new_id[order[pos] as usize] = pos as u32;
            }
        }
        init.order = order;

        // Rebuild the fanin CSR in renumbered node order.
        let mut fanin_start = Vec::with_capacity(n + 1);
        fanin_start.push(0u32);
        let n_exp = init.fanin.len();
        let mut arc_parent = Vec::with_capacity(n_exp);
        let mut arc_child = Vec::with_capacity(n_exp);
        let mut arc_neg = Vec::with_capacity(n_exp);
        let mut arc_source = Vec::with_capacity(n_exp);
        let mut arc_mean = Vec::with_capacity(n_exp);
        let mut arc_sigma = Vec::with_capacity(n_exp);
        for v_new in 0..n {
            let orig = init.order[v_new] as usize;
            let range = init.fanin_start[orig] as usize..init.fanin_start[orig + 1] as usize;
            for e in &init.fanin[range] {
                arc_parent.push(new_id[e.parent as usize]);
                arc_child.push(v_new as u32);
                arc_neg.push(e.negative_unate);
                arc_source.push(e.source_arc);
                arc_mean.push(e.mean);
                arc_sigma.push(e.sigma);
            }
            fanin_start.push(arc_parent.len() as u32);
        }

        // Fanout CSR (ordered by parent, which keeps each level's fanout
        // arc block contiguous for the backward kernel).
        let (fanout_start, fanout_arc) = csr(n, arc_parent.iter().map(|&p| p as usize));

        // Graph-arc expansion CSR (for re-annotation and gradient
        // aggregation back onto design objects).
        let n_graph_arcs = arc_source.iter().map(|&a| a as usize + 1).max().unwrap_or(0);
        let (expansion_start, expansion_arc) =
            csr(n_graph_arcs, arc_source.iter().map(|&a| a as usize));

        let sources = init
            .sources
            .iter()
            .map(|s| SourceInit {
                node: new_id[s.node as usize],
                ..*s
            })
            .collect();
        let mut source_of = vec![u32::MAX; n];
        for (i, s) in init.sources.iter().enumerate() {
            source_of[new_id[s.node as usize] as usize] = i as u32;
        }
        let endpoints = init
            .endpoints
            .iter()
            .map(|e| EndpointInit {
                node: new_id[e.node as usize],
                ..*e
            })
            .collect();

        // The virtual rule (see `Static::row_base`): structural, no knob.
        let mut is_endpoint = vec![false; n];
        for e in &init.endpoints {
            is_endpoint[new_id[e.node as usize] as usize] = true;
        }
        let mut row_base = Vec::with_capacity(n + 1);
        row_base.push(0u32);
        for v in 0..n {
            let is_virtual = fanin_start[v + 1] - fanin_start[v] == 1
                && fanout_start[v + 1] - fanout_start[v] == 1
                && source_of[v] == u32::MAX
                && !is_endpoint[v];
            row_base.push(row_base[v] + u32::from(!is_virtual));
        }
        let live = reaches_endpoint(&fanout_start, &fanout_arc, &arc_child, is_endpoint);
        let slot_base = capacities(
            &fanin_start,
            &arc_parent,
            &source_of,
            &init.sources,
            &row_base,
            &live,
            cfg.top_k,
        );

        let st = Static {
            n,
            level_start: init.level_start,
            fanin_start,
            arc_parent,
            arc_child,
            arc_neg,
            arc_mean,
            arc_sigma,
            fanout_start,
            fanout_arc,
            expansion_start,
            expansion_arc,
            sources,
            source_of,
            endpoints,
            sp_leaf: init.sp_leaf,
            clock_parent: init.clock_parent,
            clock_depth: init.clock_depth,
            clock_credit: init.clock_credit,
            n_sigma: init.n_sigma,
            period_ps: init.period_ps,
            exceptions: init.exceptions,
            node_orig: init.order.into(),
            new_id: new_id.into(),
            n_graph_arcs,
            row_base,
            slot_base,
            live,
        };
        let k = cfg.top_k;
        let state = State {
            lse_arrival: vec![f64::NEG_INFINITY; n * 2],
            lse_weight: vec![[0.0; 2]; n_exp],
            grad_arrival: vec![0.0; n * 2],
            grad_arc: vec![[0.0; 2]; n_exp],
            grad_fanout: vec![[0.0; 2]; n_exp],
            ..State::with_slots(st.n_slots(), k)
        };
        Ok(Self {
            st,
            state,
            cfg,
            validation,
            last_incident: None,
            incidents: IncidentLog::with_capacity(IncidentLog::CAPACITY),
            epoch: 0,
            counters: EngineCounters::default(),
            validity: Validity::default(),
            cone: ConeScratch::new(n, num_levels),
            rows: RowStore::default(),
            corner_scratch: Scratch::default(),
            window: Scratch::default(),
            trace: TraceSink::disabled(),
            #[cfg(any(test, feature = "scalar-reference"))]
            scalar_topk: None,
        })
    }

    /// Records a runtime incident in the bounded [`IncidentLog`] *and*
    /// journals it as a trace event — the single funnel every kernel entry
    /// point reports worker-panic incidents through, so the incident ring
    /// and the trace journal can never disagree on totals.
    pub(crate) fn record_incident(&mut self, inc: &RuntimeIncident) {
        self.incidents.record(inc.clone());
        self.trace.event(
            "incident",
            &[
                ("kernel", kernel_code(inc.kernel)),
                ("level", inc.level as f64),
                (
                    "serial_retry_failed",
                    if inc.serial_retry_failed { 1.0 } else { 0.0 },
                ),
            ],
        );
    }

    /// The construction-time validation report: the issues (warnings
    /// only) found before the engine accepted the snapshot.
    pub fn validation_report(&self) -> &ValidationReport {
        &self.validation
    }

    /// The worker-panic incident of the most recent kernel pass, if that
    /// pass had one that the serial re-execution fallback recovered from
    /// (`None` after an undisturbed pass). Unrecoverable panics surface as
    /// [`InstaError::Runtime`] from the `try_*` kernel entry points
    /// instead.
    pub fn last_incident(&self) -> Option<&RuntimeIncident> {
        self.last_incident.as_ref()
    }

    /// The Top-K capacity.
    pub fn top_k(&self) -> usize {
        self.state.k
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.st.n
    }

    /// Number of timing levels.
    pub fn num_levels(&self) -> usize {
        self.st.num_levels()
    }

    /// Number of expanded arcs.
    pub fn num_arcs(&self) -> usize {
        self.st.arc_parent.len()
    }

    /// Number of endpoints.
    pub fn num_endpoints(&self) -> usize {
        self.st.endpoints.len()
    }

    /// The engine configuration.
    pub fn config(&self) -> &InstaConfig {
        &self.cfg
    }

    /// The bounded history of worker-panic incidents — both recovered and
    /// fatal — across the engine's whole lifetime (capacity
    /// [`IncidentLog::CAPACITY`]; evictions are counted, not lost).
    pub fn incident_log(&self) -> &IncidentLog<RuntimeIncident> {
        &self.incidents
    }

    /// The commit epoch: how many sessions have committed on this engine.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Resident memory of the propagation state in bytes: every array of
    /// it, the Top-K lanes counted by row (reported in the Table I
    /// reproduction and as `engine.state_mb`).
    pub fn state_bytes(&self) -> usize {
        self.state.bytes()
    }

    /// Number of stored Top-K rows: nodes that are not virtual (exactly one
    /// fanin arc, exactly one fanout arc, neither startpoint nor endpoint).
    pub fn num_rows(&self) -> usize {
        self.st.n_rows()
    }

    /// Renumbered index of an *original* graph node id.
    pub(crate) fn node_index(&self, orig_node: u32) -> Option<usize> {
        self.st.new_id.get(orig_node as usize).map(|&v| v as usize)
    }

    /// The worst corner arrival at an *original* graph node id per
    /// transition index, if any path reaches it. A pin no endpoint sees is
    /// not timed: `None`, as for an unreached one.
    ///
    /// Answers only while the ledger's setup Top-K row is current:
    /// `None` for every node after [`propagate_hold`](Self::propagate_hold),
    /// a bare [`reannotate`](Self::reannotate) or a failed pass, until the
    /// next completed setup pass or cone update.
    pub fn arrival_at(&self, orig_node: u32, rf: usize) -> Option<f64> {
        let (mean, sigma) = self.distribution_at(orig_node, rf)?;
        Some(stat::corner_late(mean, sigma, self.st.n_sigma))
    }

    /// The `(mean, sigma)` of the worst (slot 0) Top-K entry of an
    /// *original* graph node id and transition — the distribution behind
    /// [`arrival_at`](Self::arrival_at)'s corner value. `None` when no path
    /// reaches it, no endpoint sees it (no pass times such a pin) or `rf` is
    /// not a transition index (0 rise, 1 fall), and
    /// `None` for every node while the ledger's setup Top-K row is not
    /// current (`topk_current()`): after a hold pass the rows hold negated
    /// early corners, after a re-annotation or a failed pass they are
    /// stale. A virtual node's queue is materialised for the read.
    pub fn distribution_at(&self, orig_node: u32, rf: usize) -> Option<(f64, f64)> {
        if !self.validity.topk_current() || rf >= 2 {
            return None;
        }
        let v = self.node_index(orig_node)?;
        let mut scratch = VirtualQueue::new(self.state.k);
        let q = queue_of::<false>(&self.st, self.state.lanes(&self.st), v, rf, &mut scratch);
        // "Unreached" is an empty queue, not an arrival value: −∞ is a
        // representable arrival (e.g. a −∞ launch time).
        let (_, mean, sigma) = q.entries().next()?;
        Some((mean, sigma))
    }
}

/// The capacity pass: [`Static::slot_base`] from the graph alone.
///
/// The merge emits every distinct startpoint of its candidates until it
/// has K, whatever their values, and a queue holding fewer than K holds
/// every startpoint its parents hold. So a node's queues hold
/// `min(K, |distinct sp ids reaching it|)` entries after any pass, setup
/// or hold, full or cone. That count is computed here once, in node order
/// (parents first), as a K-capped set of sp ids per node deduplicated by
/// id as the merge does: a single-fanin node without a launch shares its
/// parent's set, and a parent already at K makes the child K without
/// looking further. A node no endpoint sees ([`Static::live`]) is computed
/// by no pass, so its row holds nothing: capacity 0, and an empty set,
/// which only its children (dead too) read. The sets are freed before the
/// rows are allocated.
fn capacities(
    fanin_start: &[u32],
    arc_parent: &[u32],
    source_of: &[u32],
    sources: &[SourceInit],
    row_base: &[u32],
    live: &[bool],
    k: usize,
) -> Vec<u32> {
    /// A set that reached K: its ids are never read again.
    const FULL: u32 = u32::MAX;
    let n = source_of.len();
    // Per node, its set as `(start, len)` in `pool`.
    let mut set: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut pool: Vec<u32> = Vec::new();
    // `seen[sp] == stamp` ⇔ sp is in the set being built.
    let mut seen = vec![0u32; sources.len()];
    let mut slot_base = Vec::with_capacity(row_base[n] as usize + 1);
    slot_base.push(0u32);
    for v in 0..n {
        let fanin = fanin_start[v] as usize..fanin_start[v + 1] as usize;
        let own = sources.get(source_of[v] as usize).map(|s| s.sp);
        let parent = |ai: usize| set[arc_parent[ai] as usize];
        let this = if !live[v] {
            (0, 0)
        } else if own.is_none() && fanin.len() == 1 {
            parent(fanin.start)
        } else if fanin.clone().any(|ai| parent(ai).0 == FULL) {
            (FULL, k as u32)
        } else {
            let (start, stamp) = (pool.len(), v as u32 + 1);
            let mut add = |pool: &mut Vec<u32>, sp: u32| {
                if seen[sp as usize] != stamp {
                    seen[sp as usize] = stamp;
                    pool.push(sp);
                }
                pool.len() - start < k
            };
            if own.is_none_or(|sp| add(&mut pool, sp)) {
                'arcs: for ai in fanin {
                    let (at, len) = set[arc_parent[ai] as usize];
                    for i in at as usize..(at + len) as usize {
                        let sp = pool[i];
                        if !add(&mut pool, sp) {
                            break 'arcs;
                        }
                    }
                }
            }
            let len = pool.len() - start;
            if len >= k {
                pool.truncate(start);
                (FULL, k as u32)
            } else {
                (start as u32, len as u32)
            }
        };
        set.push(this);
        if row_base[v + 1] != row_base[v] {
            slot_base.push(slot_base[slot_base.len() - 1] + this.1);
        }
    }
    slot_base
}

/// The live set ([`Static::live`]): node `v` is live when it is an endpoint
/// or one of its fanout arcs leads to a live node. Nodes are numbered
/// level-major, so every child sits above its parent and one sweep from
/// the last node down decides each node after all of its children.
fn reaches_endpoint(
    fanout_start: &[u32],
    fanout_arc: &[u32],
    arc_child: &[u32],
    mut live: Vec<bool>,
) -> Vec<bool> {
    for v in (0..live.len()).rev() {
        let fanout = &fanout_arc[fanout_start[v] as usize..fanout_start[v + 1] as usize];
        live[v] = live[v] || fanout.iter().any(|&e| live[arc_child[e as usize] as usize]);
    }
    live
}

/// Where queue `(row, rf)` sits in compact lanes over the capacities
/// `slot_base` ([`Static::slot_base`]): a row's rise queue, then its fall
/// queue, each as long as the row's capacity.
#[inline(always)]
fn queue_slots(slot_base: &[u32], row: usize, rf: usize) -> std::ops::Range<usize> {
    let (b, e) = (slot_base[row] as usize, slot_base[row + 1] as usize);
    let at = 2 * b + rf * (e - b);
    at..at + (e - b)
}

/// Builds a CSR from bucket assignments.
pub(crate) fn csr(n: usize, keys: impl Iterator<Item = usize> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for k in keys.clone() {
        start[k + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut cursor = start.clone();
    let mut items = vec![0u32; start[n] as usize];
    for (i, k) in keys.enumerate() {
        items[cursor[k] as usize] = i as u32;
        cursor[k] += 1;
    }
    (start, items)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    pub(crate) fn build_engine(seed: u64, k: usize) -> (insta_netlist::Design, RefSta, InstaEngine) {
        let d = generate_design(&GeneratorConfig::small("eng", seed));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let engine = InstaEngine::new(
            sta.export_insta_init(),
            InstaConfig {
                top_k: k,
                ..InstaConfig::default()
            },
        )
        .expect("valid snapshot");
        (d, sta, engine)
    }

    #[test]
    fn renumbering_keeps_levels_contiguous_and_parents_earlier() {
        let (_d, _sta, eng) = build_engine(1, 8);
        let st = &eng.st;
        assert_eq!(*st.level_start.last().unwrap() as usize, st.n);
        for l in 0..st.num_levels() {
            let r = st.level_range(l);
            for v in r.clone() {
                for ai in st.fanin_range(v) {
                    assert!(
                        (st.arc_parent[ai] as usize) < r.start,
                        "parent must be in a strictly earlier level"
                    );
                    assert_eq!(st.arc_child[ai] as usize, v);
                }
            }
        }
    }

    #[test]
    fn fanout_csr_inverts_fanin() {
        let (_d, _sta, eng) = build_engine(2, 4);
        let st = &eng.st;
        let mut count = 0usize;
        for v in 0..st.n {
            for &ai in &st.fanout_arc
                [st.fanout_start[v] as usize..st.fanout_start[v + 1] as usize]
            {
                assert_eq!(st.arc_parent[ai as usize] as usize, v);
                count += 1;
            }
        }
        assert_eq!(count, st.arc_parent.len());
    }

    #[test]
    fn expansion_csr_covers_every_expanded_arc() {
        let (_d, sta, eng) = build_engine(3, 4);
        let st = &eng.st;
        // The export's source arc of each expanded arc, in renumbered
        // fanin order.
        let init = sta.export_insta_init();
        let source_arc: Vec<u32> = st
            .node_orig
            .iter()
            .flat_map(|&o| {
                let o = o as usize;
                let range = init.fanin_start[o] as usize..init.fanin_start[o + 1] as usize;
                init.fanin[range].iter().map(|e| e.source_arc)
            })
            .collect();
        assert_eq!(source_arc.len(), st.arc_parent.len());
        assert_eq!(st.n_graph_arcs, sta.graph().num_arcs());
        let total: usize = (0..st.n_graph_arcs)
            .map(|g| (st.expansion_start[g + 1] - st.expansion_start[g]) as usize)
            .sum();
        assert_eq!(total, st.arc_parent.len());
        for g in 0..st.n_graph_arcs {
            for &e in
                &st.expansion_arc[st.expansion_start[g] as usize..st.expansion_start[g + 1] as usize]
            {
                assert_eq!(source_arc[e as usize] as usize, g);
            }
        }
    }

    /// Regression: `rf = 2` used to index `(node * 2 + 2) * k` — the next
    /// node's rise row, and out of bounds on the last node.
    #[test]
    fn point_reads_answer_none_for_a_transition_index_past_one() {
        let (_d, _sta, mut eng) = build_engine(8, 4);
        eng.propagate();
        eng.forward_lse();
        eng.backward_tns();
        let last = eng.st.node_orig[eng.st.n - 1];
        let reached = (0..eng.st.n as u32)
            .find(|&v| eng.arrival_at(v, 0).is_some())
            .expect("some node is reached");
        for node in [last, reached] {
            for rf in [2, 3, usize::MAX] {
                assert_eq!(eng.arrival_at(node, rf), None);
                assert_eq!(eng.distribution_at(node, rf), None);
                assert_eq!(eng.node_gradient(node, rf), None);
                assert_eq!(eng.snapshot().arrival_at(node, rf), None);
            }
            assert!(eng.node_gradient(node, 1).is_some());
            assert_eq!(eng.snapshot().arrival_at(node, 1), eng.arrival_at(node, 1));
        }
    }

    /// A row holds `min(K, reach)` entries per queue: quadrupling K grows
    /// the rows, by less than four times where queues do not saturate.
    #[test]
    fn state_sized_by_top_k() {
        let (_d, _sta, eng8) = build_engine(4, 8);
        let (_d2, _sta2, eng32) = build_engine(4, 32);
        let (slots8, slots32) = (eng8.state.topk_mean.len(), eng32.state.topk_mean.len());
        assert_eq!((slots8, slots32), (eng8.st.n_slots(), eng32.st.n_slots()));
        assert!(slots8 < slots32 && slots32 < slots8 * 4, "{slots8} → {slots32}");
        assert!(eng32.state_bytes() > eng8.state_bytes());
    }

    /// `state_bytes()` is what `engine.state_mb` prints: every vector of
    /// the state, the Top-K lanes by row.
    #[test]
    fn state_bytes_counts_every_array_of_the_state() {
        let (_d, _sta, eng) = build_engine(4, 8);
        let (s, rows, arcs) = (&eng.state, eng.num_rows(), eng.num_arcs());
        assert!(rows < eng.num_nodes(), "fixture: some node is virtual");
        assert_eq!(s.topk_sp.len(), eng.st.n_slots());
        assert!(s.topk_sp.len() <= rows * 2 * 8);
        let want = s.topk_sp.len() * 4
            + (s.topk_mean.len() + s.topk_sigma.len()) * 8
            + (s.lse_arrival.len() + s.grad_arrival.len()) * 8
            + (s.lse_weight.len() + s.grad_arc.len() + s.grad_fanout.len()) * 16;
        assert_eq!(eng.state_bytes(), want);
        assert_eq!(s.grad_fanout.len(), arcs, "the fanout scratch is counted");
    }

    /// The virtual rule: a node without a row has exactly one fanin arc
    /// and one fanout arc and is neither startpoint nor endpoint — and
    /// every such node is without one.
    #[test]
    fn rows_skip_exactly_the_single_fanin_single_fanout_interior_nodes() {
        let (_d, _sta, eng) = build_engine(4, 8);
        let st = &eng.st;
        for v in 0..st.n {
            let interior = st.fanin_range(v).len() == 1
                && st.fanout_start[v + 1] - st.fanout_start[v] == 1
                && st.source_of[v] == u32::MAX
                && st.endpoints.iter().all(|e| e.node as usize != v);
            assert_eq!(st.row_of(v).is_none(), interior, "node {v}");
        }
        assert_eq!(st.rows(0..st.n), 0..st.n_rows());
    }

    #[test]
    fn a_top_k_out_of_range_is_a_typed_config_error() {
        let d = generate_design(&GeneratorConfig::small("eng", 5));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        for top_k in [0, usize::from(u16::MAX) + 1] {
            let err = InstaEngine::new(
                sta.export_insta_init(),
                InstaConfig {
                    top_k,
                    ..InstaConfig::default()
                },
            )
            .expect_err("top_k out of range must be rejected");
            assert_eq!(err.category(), "validate");
            assert!(err.to_string().contains("top_k"), "{top_k}: {err}");
        }
    }

    #[test]
    fn construction_records_a_clean_validation_report() {
        let (_d, _sta, eng) = build_engine(6, 4);
        let report = eng.validation_report();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn strict_rejects_a_poisoned_snapshot() {
        let d = generate_design(&GeneratorConfig::small("eng", 7));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let mut init = sta.export_insta_init();
        init.fanin[0].sigma[0] = -1.0;
        init.fanin[1].mean[1] = f64::NAN;
        let err = InstaEngine::new(init, InstaConfig::default()).expect_err("strict must reject");
        assert_eq!(err.category(), "validate");
        let crate::error::InstaError::Validate(report) = err else {
            unreachable!("category says validate");
        };
        assert!(report.n_fatal >= 2, "{report}");
    }

    /// Regression: options built once and reused across several kernel
    /// passes must report `Cancelled { elapsed }` relative to the pass
    /// they cut, not to when they were built.
    #[test]
    fn a_reused_interrupt_reports_cancellation_latency_per_pass() {
        let (_d, _r, mut eng) = build_engine(91, 4);
        eng.propagate();
        let tok = insta_support::timer::CancelToken::new();
        let opts = crate::PassOptions {
            cancel: Some(tok.clone()),
            deadline: None,
        };
        // Age the options well past what a small-design pass takes.
        std::thread::sleep(std::time::Duration::from_millis(40));
        tok.cancel();
        for pass in 0..2 {
            let err = eng.try_propagate(&opts).expect_err("token fired");
            let crate::error::InstaError::Cancelled { elapsed, .. } = err else {
                panic!("expected Cancelled, got {err:?}");
            };
            assert!(
                elapsed < std::time::Duration::from_millis(40),
                "pass {pass} reported elapsed since building, not since entry: {elapsed:?}"
            );
        }
    }
}
