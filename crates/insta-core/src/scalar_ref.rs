//! The reference the production kernels are pinned against: Algorithm 2
//! over the push sequence.
//!
//! The forward kernel computes each queue as one selection over gathered
//! runs, gathers through virtual parents and stores rows for merge nodes
//! only, all under a bit-identity contract. This module is what it must
//! equal: every `(node, transition)` queue folded from its push sequence
//! *P* (`forward.rs`'s `merge_node_queue` defines it: the launch seed,
//! then for `j = 0..K`, for each fanin arc in CSR order, the parent's
//! `j`-th entry carried over the arc) through [`TopKQueue::push`], the
//! literal Algorithm 2, in level order, one dense K-slot queue per node.
//! Setup and hold are one fold ([`push_sequence`]); `kernel_equivalence`
//! and `cone_equivalence` compare the engine's rows to it on raw bits.
//! `ref_forward_lse` is the serial reference of the LSE pass.
//!
//! A change that breaks equivalence is a production-kernel bug, or a
//! semantic change that must change *P* — and say so in review.
//!
//! Compiled only under `cfg(test)` or the `scalar-reference` feature, so
//! release builds of the engine carry none of it.

use crate::engine::{InstaEngine, State, Static};
use crate::forward::{corner, queue_of};
use crate::hold::HoldAttributes;
use crate::metrics::InstaReport;
use crate::parallel::VirtualQueue;
use crate::topk::{Candidate, TopKQueue, NO_SP};

/// The reference's arrays: one dense K-slot queue per `(node, transition)`,
/// corner arrivals stored, empty slots marked `-INF` / [`NO_SP`]. The
/// engine's own state stores rows for merge nodes only and no corners; the
/// reference keeps this layout for itself.
#[derive(Debug, Clone)]
pub(crate) struct DenseTopK {
    /// Top-K capacity.
    pub k: usize,
    /// Corner arrivals, `n * 2 * k`, indexed `(node * 2 + rf) * k + j`.
    pub topk_arrival: Vec<f64>,
    pub topk_mean: Vec<f64>,
    pub topk_sigma: Vec<f64>,
    pub topk_sp: Vec<u32>,
}

impl DenseTopK {
    /// Every queue empty. `repeat` copies by doubling; `vec![x; len]` writes
    /// slot by slot, 3.5 ms an array at K = 256, 743 nodes, in a test build.
    fn empty(n: usize, k: usize) -> Self {
        DenseTopK {
            k,
            topk_arrival: [f64::NEG_INFINITY].repeat(n * 2 * k),
            topk_mean: vec![0.0; n * 2 * k],
            topk_sigma: vec![0.0; n * 2 * k],
            topk_sp: [NO_SP].repeat(n * 2 * k),
        }
    }

    /// Copies the queues of the stored nodes into the engine's rows, as
    /// many entries as each row's capacity, so the engine goes on from the
    /// reference's bits.
    fn install(&self, st: &Static, state: &mut State, early: bool) {
        state.early = early;
        for v in 0..st.n {
            let Some(row) = st.row_of(v) else { continue };
            for rf in 0..2 {
                let to = st.queue_slots(row, rf);
                let from = (v * 2 + rf) * self.k..(v * 2 + rf) * self.k + to.len();
                state.topk_mean[to.clone()].copy_from_slice(&self.topk_mean[from.clone()]);
                state.topk_sigma[to.clone()].copy_from_slice(&self.topk_sigma[from.clone()]);
                state.topk_sp[to].copy_from_slice(&self.topk_sp[from]);
            }
        }
    }
}

/// The engine's rows in the reference's dense layout: every node's queue —
/// a virtual node's materialised — its corners recomputed, its tail empty
/// (`-INF`, zero mean / sigma, [`NO_SP`]). `MIN` is the order the rows are
/// in.
pub(crate) fn dense_view<const MIN: bool>(st: &Static, state: &State) -> DenseTopK {
    let k = state.k;
    let mut dense = DenseTopK::empty(st.n, k);
    let mut scratch = VirtualQueue::new(state.k);
    for q in 0..st.n * 2 {
        let queue = queue_of::<MIN>(st, state.lanes(st), q / 2, q % 2, &mut scratch);
        let at = q * k..q * k + queue.sp.len();
        dense.topk_mean[at.clone()].copy_from_slice(queue.mean);
        dense.topk_sigma[at.clone()].copy_from_slice(queue.sigma);
        dense.topk_sp[at.clone()].copy_from_slice(queue.sp);
        let corners = queue.mean.iter().zip(queue.sigma);
        for (a, (&mean, &sigma)) in dense.topk_arrival[at].iter_mut().zip(corners) {
            *a = corner::<MIN>(mean, sigma, st.n_sigma);
        }
    }
    dense
}

/// Candidate `(sp, mean, sigma)` of a parent's queue carried over fanin arc
/// `ai` into a transition-`rf` queue: the means add, the sigmas add in
/// quadrature (Eqs. 1–3), and the key is the late corner — in min (hold)
/// mode the negated early one, so the max-queue keeps the smallest early
/// arrivals. Spelled out here, not through `stat`, so a reassociation there
/// shows against this.
fn carried<const MIN: bool>(
    st: &Static,
    (sp, mean, sigma): (u32, f64, f64),
    ai: usize,
    rf: usize,
) -> Candidate {
    let s_arc = st.arc_sigma[ai][rf];
    let sigma = (sigma * sigma + s_arc * s_arc).sqrt();
    keyed::<MIN>(st.n_sigma, mean + st.arc_mean[ai][rf], sigma, sp)
}

/// The candidate of a distribution, keyed by its corner as [`carried`]
/// keys it.
fn keyed<const MIN: bool>(n_sigma: f64, mean: f64, sigma: f64, sp: u32) -> Candidate {
    let arrival = if MIN {
        -(mean - n_sigma * sigma)
    } else {
        mean + n_sigma * sigma
    };
    Candidate {
        arrival,
        mean,
        sigma,
        sp,
    }
}

/// Feeds `queue` the push sequence *P* of `(v, rf)` — `seed` first, then
/// for `j = 0..K`, for each fanin arc in CSR order, the `j`-th entry of
/// the parent queue the arc reads, carried over the arc — through
/// [`TopKQueue::push`], the literal Algorithm 2. `entry(p, prf, j)` is
/// entry `j` of parent `p`'s transition-`prf` queue, `None` past its end.
/// What a queue is, in `forward.rs`'s `merge_node_queue`, is this fold.
pub(crate) fn push_sequence<const MIN: bool>(
    st: &Static,
    (v, rf): (usize, usize),
    seed: Option<Candidate>,
    entry: impl Fn(usize, usize, usize) -> Option<(u32, f64, f64)>,
    queue: &mut TopKQueue,
) {
    if let Some(seed) = seed {
        queue.push(seed);
    }
    let fanin = st.fanin_range(v);
    for j in 0..queue.capacity() {
        let mut any_live = false;
        for ai in fanin.clone() {
            let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
            if let Some(e) = entry(st.arc_parent[ai] as usize, prf, j) {
                any_live = true;
                queue.push(carried::<MIN>(st, e, ai, rf));
            }
        }
        if !any_live {
            break;
        }
    }
}

/// The whole-graph reference: [`push_sequence`] for every queue, in level
/// order (renumbered ids, so every parent is done before its child), each
/// startpoint seeded with `launch` of its source. `MIN` is hold's order.
/// A queue no endpoint reads is left empty, as no production pass writes
/// it; the reference finds those by its own sweep, not [`Static::live`].
fn ref_forward<const MIN: bool>(
    st: &Static,
    k: usize,
    launch: impl Fn(usize) -> ([f64; 2], [f64; 2]),
) -> DenseTopK {
    let mut dense = DenseTopK::empty(st.n, k);
    let mut seen = vec![false; st.n];
    for e in &st.endpoints {
        seen[e.node as usize] = true;
    }
    for v in (0..st.n).rev() {
        if seen[v] {
            for ai in st.fanin_range(v) {
                seen[st.arc_parent[ai] as usize] = true;
            }
        }
    }
    // No queue holds more startpoints than there are, so this capacity
    // never truncates one: it is K's queue without K-slot scans.
    let capacity = k.min(st.sources.len()).max(1);
    for v in (0..st.n).filter(|&v| seen[v]) {
        // Every parent precedes `v`: its queues are in the `done` halves.
        let split = v * 2 * k;
        let (done_sp, sp) = dense.topk_sp.split_at_mut(split);
        let (done_mean, mean) = dense.topk_mean.split_at_mut(split);
        let (done_sigma, sigma) = dense.topk_sigma.split_at_mut(split);
        let arrival = &mut dense.topk_arrival[split..];
        let entry = |p: usize, prf: usize, j: usize| {
            let at = (p * 2 + prf) * k + j;
            let sp = done_sp[at];
            (sp != NO_SP).then_some((sp, done_mean[at], done_sigma[at]))
        };
        let source = st.source_of[v] as usize;
        for rf in 0..2 {
            let seed = st.sources.get(source).map(|s| {
                let (mean, sigma) = launch(source);
                keyed::<MIN>(st.n_sigma, mean[rf], sigma[rf], s.sp)
            });
            let mut queue = TopKQueue::new(capacity);
            push_sequence::<MIN>(st, (v, rf), seed, entry, &mut queue);
            for (at, c) in (rf * k..).zip(queue.entries()) {
                (arrival[at], mean[at], sigma[at], sp[at]) = (c.arrival, c.mean, c.sigma, c.sp);
            }
        }
    }
    dense
}

/// The serial reference of the differentiable forward pass: the
/// numerically stable three-pass Log-Sum-Exp merge, one node at a time.
fn ref_forward_lse(st: &Static, state: &mut State, tau: f64) {
    crate::lse::lse_reset_seed(st, state);
    for l in 1..st.num_levels() {
        for v in st.level_range(l) {
            let fanin = st.fanin_range(v);
            if fanin.is_empty() {
                continue;
            }
            for rf in 0..2usize {
                // Pass 1: candidate values and running max.
                let mut m = f64::NEG_INFINITY;
                for ai in fanin.clone() {
                    let p = st.arc_parent[ai] as usize;
                    let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
                    let pa = state.lse_arrival[p * 2 + prf];
                    let c = if pa == f64::NEG_INFINITY {
                        f64::NEG_INFINITY
                    } else {
                        pa + st.arc_mean[ai][rf] + st.n_sigma * st.arc_sigma[ai][rf]
                    };
                    state.lse_weight[ai][rf] = c;
                    if c > m {
                        m = c;
                    }
                }
                if m == f64::NEG_INFINITY {
                    state.lse_arrival[v * 2 + rf] = f64::NEG_INFINITY;
                    for ai in fanin.clone() {
                        state.lse_weight[ai][rf] = 0.0;
                    }
                    continue;
                }
                // Pass 2: exponentiate and accumulate the denominator.
                let mut denom = 0.0;
                for ai in fanin.clone() {
                    let c = state.lse_weight[ai][rf];
                    let e = if c == f64::NEG_INFINITY {
                        0.0
                    } else {
                        ((c - m) / tau).exp()
                    };
                    state.lse_weight[ai][rf] = e;
                    denom += e;
                }
                // Pass 3: normalize into softmax weights (Eq. 6).
                for ai in fanin.clone() {
                    state.lse_weight[ai][rf] /= denom;
                }
                state.lse_arrival[v * 2 + rf] = m + tau * denom.ln();
            }
        }
    }
}

/// Reference-path entry points and raw-state snapshots for the
/// differential kernel-equivalence suite. Hidden from the public docs:
/// this is test infrastructure, not engine API, and it exists only under
/// `cfg(test)` / the `scalar-reference` feature.
#[doc(hidden)]
impl InstaEngine {
    /// Runs the reference fold over the current annotations and
    /// refreshes the endpoint report — the reference twin of
    /// [`propagate`](InstaEngine::propagate), with the same state
    /// bookkeeping.
    pub fn forward_scalar_reference(&mut self) -> &InstaReport {
        self.validity.begin_full_pass();
        let st = &self.st;
        let dense = ref_forward::<false>(st, self.state.k, |i| {
            (st.sources[i].mean, st.sources[i].sigma)
        });
        dense.install(&self.st, &mut self.state, false);
        self.scalar_topk = Some(dense);
        self.setup_pass_done()
    }

    /// Runs the serial LSE reference pass — the reference twin of
    /// [`forward_lse`](InstaEngine::forward_lse). The reference computes
    /// every node; a node no endpoint sees is then put back to
    /// what no production pass writes: unreached, its fanin weights 0.
    pub fn forward_lse_scalar_reference(&mut self) {
        self.validity.begin_lse();
        let (st, state) = (&self.st, &mut self.state);
        ref_forward_lse(st, state, self.cfg.lse_tau);
        for v in (0..st.n).filter(|&v| !st.live[v]) {
            state.lse_arrival[v * 2..v * 2 + 2].fill(f64::NEG_INFINITY);
            state.lse_weight[st.fanin_range(v)].fill([0.0; 2]);
        }
        self.validity.lse_done();
    }

    /// Runs the reference fold in min (hold) order and evaluates hold
    /// checks —
    /// the reference twin of
    /// [`propagate_hold`](InstaEngine::propagate_hold).
    pub fn hold_scalar_reference(&mut self, attrs: &HoldAttributes) -> InstaReport {
        assert_eq!(attrs.source_mean.len(), self.st.sources.len());
        assert_eq!(attrs.required_base.len(), self.st.endpoints.len());
        self.validity.begin_full_pass();
        let launch = |i: usize| (attrs.source_mean[i], attrs.source_sigma[i]);
        let dense = ref_forward::<true>(&self.st, self.state.k, launch);
        dense.install(&self.st, &mut self.state, true);
        self.scalar_topk = Some(dense);
        crate::hold::evaluate_hold(&self.st, &self.state, attrs, self.cfg.cppr)
    }

    /// The engine's Top-K state `(arrival, mean, sigma, sp)` in the
    /// canonical dense per-node form, for full-array bit-compares: every
    /// node's queue — a virtual node's materialised — with its corner
    /// recomputed and its tail empty (`-INF`, zero mean / sigma, `NO_SP`).
    pub fn topk_snapshot(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>) {
        let (st, state) = (&self.st, &self.state);
        let d = if state.early {
            dense_view::<true>(st, state)
        } else {
            dense_view::<false>(st, state)
        };
        (d.topk_arrival, d.topk_mean, d.topk_sigma, d.topk_sp)
    }

    /// The reference's own dense arrays as the engine's last reference
    /// pass ([`forward_scalar_reference`](Self::forward_scalar_reference) /
    /// [`hold_scalar_reference`](Self::hold_scalar_reference)) left them —
    /// what a production engine's [`topk_snapshot`](Self::topk_snapshot)
    /// over the same annotations must equal, virtual nodes included, and
    /// the queues of the nodes no endpoint sees empty on both sides.
    ///
    /// # Panics
    ///
    /// Panics if the engine never ran a reference pass.
    pub fn scalar_topk_snapshot(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>) {
        let d = self.scalar_topk.clone().expect("no reference pass ran");
        (d.topk_arrival, d.topk_mean, d.topk_sigma, d.topk_sp)
    }

    /// How many entries the queue of an *original* graph node id and
    /// transition holds as every reader sees it (a virtual node's
    /// materialised), in whichever order the last full pass left the rows.
    pub fn queue_len(&self, orig_node: u32, rf: usize) -> usize {
        let (st, state) = (&self.st, &self.state);
        let v = st.new_id[orig_node as usize] as usize;
        let mut scratch = VirtualQueue::new(state.k);
        if state.early {
            queue_of::<true>(st, state.lanes(st), v, rf, &mut scratch)
                .sp
                .len()
        } else {
            queue_of::<false>(st, state.lanes(st), v, rf, &mut scratch)
                .sp
                .len()
        }
    }

    /// Whether an *original* graph node id is virtual: it owns no Top-K
    /// row and its queue is computed where it is read.
    pub fn is_virtual(&self, orig_node: u32) -> bool {
        self.node_index(orig_node)
            .is_some_and(|v| self.st.row_of(v).is_none())
    }

    /// The *original* ids of the nodes the cone's undo log holds a run
    /// for, oldest first.
    pub fn undo_log_nodes(&self) -> Vec<u32> {
        let nodes = self.cone.log_node.iter();
        nodes.map(|&v| self.st.node_orig[v as usize]).collect()
    }

    /// Everything a batched `evaluate` call must give back, as named
    /// bit vectors: the Top-K queues (dense view), the annotations, the report, and the
    /// bookkeeping — the observable validity ledger (current generation and
    /// the products' stamps) and the drift odometer.
    pub fn undo_image(&self) -> Vec<(&'static str, Vec<u64>)> {
        let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (s, st) = (&self.state, &self.st);
        let report = s.report.as_ref().map_or(Vec::new(), |r| {
            let mut bits = vec![
                r.wns_ps.to_bits(),
                r.tns_ps.to_bits(),
                r.n_violations as u64,
            ];
            bits.extend(
                r.slacks
                    .iter()
                    .chain(&r.arrivals)
                    .chain(&r.requireds)
                    .map(|v| v.to_bits()),
            );
            bits.extend(r.worst_sp.iter().map(|&v| u64::from(v)));
            bits.extend(r.worst_rf.iter().map(|&v| u64::from(v)));
            bits
        });
        let (arrival, mean, sigma, sp) = self.topk_snapshot();
        vec![
            ("topk_arrival", f(&arrival)),
            ("topk_mean", f(&mean)),
            ("topk_sigma", f(&sigma)),
            ("topk_sp", sp.iter().map(|&v| u64::from(v)).collect()),
            ("arc_mean", f(st.arc_mean.as_flattened())),
            ("arc_sigma", f(st.arc_sigma.as_flattened())),
            ("report", report),
            (
                "bookkeeping",
                self.validity
                    .observable()
                    .into_iter()
                    .chain([self.drift.updates, self.drift.mass.to_bits()])
                    .collect(),
            ),
        ]
    }

    /// Raw LSE state `(smooth arrivals, softmax weights)`.
    pub fn lse_snapshot(&self) -> (Vec<f64>, Vec<[f64; 2]>) {
        (
            self.state.lse_arrival.clone(),
            self.state.lse_weight.clone(),
        )
    }

    /// Raw gradient state `(∂TNS/∂arrival, ∂TNS/∂arc-delay)`.
    pub fn grad_snapshot(&self) -> (Vec<f64>, Vec<[f64; 2]>) {
        (self.state.grad_arrival.clone(), self.state.grad_arc.clone())
    }
}

#[cfg(test)]
impl DenseTopK {
    /// Every array as raw bits, for whole-image compares.
    pub(crate) fn bits(&self) -> Vec<u64> {
        let floats = self
            .topk_arrival
            .iter()
            .chain(&self.topk_mean)
            .chain(&self.topk_sigma);
        let sps = self.topk_sp.iter().map(|&sp| u64::from(sp));
        floats.map(|v| v.to_bits()).chain(sps).collect()
    }
}
