//! Frozen scalar reference kernels — the pre-overhaul forward path.
//!
//! The forward kernel was rewritten for speed (gather-then-merge SoA
//! arenas, fixed-K compare-exchange restore networks, within-level CSR
//! reordering, and the fused evaluation + LSE sweep) under a strict
//! bit-identity contract: every consumer must observe exactly the floats
//! the original branching kernel produced. This module retains that
//! original kernel **verbatim** — the literal Algorithm 1 / Algorithm 2
//! transcriptions that shipped before the overhaul, serial, one candidate
//! at a time — as the ground truth the differential kernel-equivalence
//! suite (`tests/kernel_equivalence.rs`) pins the production kernels
//! against.
//!
//! Nothing here is a second implementation to maintain: these functions
//! are frozen. If a production-kernel change breaks equivalence, the
//! production kernel is wrong (or the change is a semantic one that must
//! update this reference *and* say so in review).
//!
//! Compiled only under `cfg(test)` or the `scalar-reference` feature, so
//! release builds of the engine carry none of it.

use crate::engine::{InstaEngine, State, Static};
use crate::forward::{corner, queue_of};
use crate::hold::HoldAttributes;
use crate::metrics::InstaReport;
use crate::parallel::VirtualQueue;
use crate::topk::{Candidate, NO_SP};

/// The arrays the kernels below were frozen over: one dense K-slot queue
/// per `(node, transition)`, corner arrivals stored, empty slots marked
/// `-INF` / [`NO_SP`]. The engine's own state stores rows for merge nodes
/// only and no corners; the reference keeps this layout for itself.
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
    /// Every queue empty.
    fn empty(n: usize, k: usize) -> Self {
        DenseTopK {
            k,
            topk_arrival: vec![f64::NEG_INFINITY; n * 2 * k],
            topk_mean: vec![0.0; n * 2 * k],
            topk_sigma: vec![0.0; n * 2 * k],
            topk_sp: vec![NO_SP; n * 2 * k],
        }
    }

    /// Every array as raw bits, for whole-image compares.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> Vec<u64> {
        let floats = self.topk_arrival.iter().chain(&self.topk_mean).chain(&self.topk_sigma);
        let sps = self.topk_sp.iter().map(|&sp| u64::from(sp));
        floats.map(|v| v.to_bits()).chain(sps).collect()
    }

    /// Copies the queues of the stored nodes into the engine's rows (live
    /// prefix and count), so the engine goes on from the reference's bits.
    fn install(&self, st: &Static, state: &mut State, early: bool) {
        let k = self.k;
        state.early = early;
        for v in 0..st.n {
            let Some(row) = st.row_of(v) else { continue };
            for rf in 0..2 {
                let (from, to) = ((v * 2 + rf) * k, (row * 2 + rf) * k);
                let live = self.topk_sp[from..from + k]
                    .iter()
                    .position(|&sp| sp == NO_SP)
                    .unwrap_or(k);
                state.live[row * 2 + rf] = live as u16;
                state.topk_mean[to..to + live].copy_from_slice(&self.topk_mean[from..from + live]);
                state.topk_sigma[to..to + live]
                    .copy_from_slice(&self.topk_sigma[from..from + live]);
                state.topk_sp[to..to + live].copy_from_slice(&self.topk_sp[from..from + live]);
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
        let queue = queue_of::<MIN>(st, state.lanes(), q / 2, q % 2, &mut scratch);
        for (at, (sp, mean, sigma)) in (q * k..).zip(queue.entries()) {
            dense.topk_arrival[at] = corner::<MIN>(mean, sigma, st.n_sigma);
            dense.topk_mean[at] = mean;
            dense.topk_sigma[at] = sigma;
            dense.topk_sp[at] = sp;
        }
    }
    dense
}

/// The pre-overhaul Algorithm 2 queue update, frozen byte-for-byte.
///
/// Maintains one K-entry queue stored as parallel slices in descending
/// `arrival` order with unique startpoints:
///
/// 1. if `sp` already exists, replace its entry when the new arrival is
///    strictly larger (then bubble it toward the front);
/// 2. otherwise insert at the sorted position, shifting smaller entries
///    down and dropping the last one.
///
/// The production kernel added a floor fast-path rejection before the
/// uniqueness scan; this copy predates it, so equal-key tie-breaking and
/// duplicate-startpoint handling are exercised exactly as originally
/// written.
#[inline]
pub fn ref_update_topk(
    arrivals: &mut [f64],
    means: &mut [f64],
    sigmas: &mut [f64],
    sps: &mut [u32],
    cand: Candidate,
) {
    let k = arrivals.len();
    debug_assert!(k > 0 && means.len() == k && sigmas.len() == k && sps.len() == k);

    // Step 1: startpoint uniqueness. Occupied slots are dense from the
    // front, so the scan stops at the first empty slot.
    for j in 0..k {
        if sps[j] == NO_SP {
            // Empty tail: the startpoint is new; insert right here.
            arrivals[j] = cand.arrival;
            means[j] = cand.mean;
            sigmas[j] = cand.sigma;
            sps[j] = cand.sp;
            let mut i = j;
            while i > 0 && arrivals[i - 1] < arrivals[i] {
                arrivals.swap(i - 1, i);
                means.swap(i - 1, i);
                sigmas.swap(i - 1, i);
                sps.swap(i - 1, i);
                i -= 1;
            }
            return;
        }
        if sps[j] == cand.sp {
            if cand.arrival > arrivals[j] {
                arrivals[j] = cand.arrival;
                means[j] = cand.mean;
                sigmas[j] = cand.sigma;
                // Bubble up: the increased entry may outrank predecessors.
                let mut i = j;
                while i > 0 && arrivals[i - 1] < arrivals[i] {
                    arrivals.swap(i - 1, i);
                    means.swap(i - 1, i);
                    sigmas.swap(i - 1, i);
                    sps.swap(i - 1, i);
                    i -= 1;
                }
            }
            return;
        }
    }

    // Step 2: insert if it beats the smallest entry (or an empty slot).
    if cand.arrival <= arrivals[k - 1] {
        return;
    }
    // Find the insertion position (first entry smaller than the candidate).
    let mut pos = k - 1;
    while pos > 0 && arrivals[pos - 1] < cand.arrival {
        pos -= 1;
    }
    // Shift down and insert.
    for i in (pos..k - 1).rev() {
        arrivals[i + 1] = arrivals[i];
        means[i + 1] = means[i];
        sigmas[i + 1] = sigmas[i];
        sps[i + 1] = sps[i];
    }
    arrivals[pos] = cand.arrival;
    means[pos] = cand.mean;
    sigmas[pos] = cand.sigma;
    sps[pos] = cand.sp;
}

/// The pre-overhaul `merge_node_queue`, frozen: single-fanin vectorized
/// transform with nearly-sorted insertion restore, multi-fanin j-major /
/// arc-minor interleaved merge pushing one [`Candidate`] at a time
/// through [`ref_update_topk`]. A launch seed already in slot 0 is merged
/// like any candidate, so a seeded node never takes the single-fanin
/// transform (the one semantic change since the freeze: that transform
/// used to overwrite the seed).
#[allow(clippy::too_many_arguments)]
fn ref_merge_node_queue(
    st: &Static,
    fanin: std::ops::Range<usize>,
    rf: usize,
    k: usize,
    mean_done: &[f64],
    sigma_done: &[f64],
    sp_done: &[u32],
    arc_ann: &impl Fn(usize) -> (f64, f64),
    qa: &mut [f64],
    qm: &mut [f64],
    qs: &mut [f64],
    qsp: &mut [u32],
) {
    if fanin.len() == 1 && qsp[0] == NO_SP {
        let ai = fanin.start;
        let p = st.arc_parent[ai] as usize;
        let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
        let (a_mean, s_arc) = arc_ann(ai);
        for j in 0..k {
            let pidx = (p * 2 + prf) * k + j;
            let sp = sp_done[pidx];
            if sp == NO_SP {
                break;
            }
            let mean = mean_done[pidx] + a_mean;
            let s_par = sigma_done[pidx];
            let sigma = (s_par * s_par + s_arc * s_arc).sqrt();
            qm[j] = mean;
            qs[j] = sigma;
            qa[j] = mean + st.n_sigma * sigma;
            qsp[j] = sp;
            // Insertion step of the nearly-sorted restore.
            let mut i = j;
            while i > 0 && qa[i - 1] < qa[i] {
                qa.swap(i - 1, i);
                qm.swap(i - 1, i);
                qs.swap(i - 1, i);
                qsp.swap(i - 1, i);
                i -= 1;
            }
        }
        return;
    }
    for j in 0..k {
        let mut any_live = false;
        for ai in fanin.clone() {
            let p = st.arc_parent[ai] as usize;
            let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
            let pidx = (p * 2 + prf) * k + j;
            let sp = sp_done[pidx];
            if sp == NO_SP {
                continue;
            }
            any_live = true;
            let (a_mean, s_arc) = arc_ann(ai);
            let mean = mean_done[pidx] + a_mean;
            let s_par = sigma_done[pidx];
            let sigma = (s_par * s_par + s_arc * s_arc).sqrt();
            ref_update_topk(
                qa,
                qm,
                qs,
                qsp,
                Candidate {
                    arrival: mean + st.n_sigma * sigma,
                    mean,
                    sigma,
                    sp,
                },
            );
        }
        if !any_live {
            break;
        }
    }
}

/// One level of the frozen max-mode kernel (the pre-overhaul
/// `level_chunk`, serial over the whole level).
fn ref_level_max(st: &Static, state: &mut DenseTopK, l: usize) {
    let k = state.k;
    let stride = 2 * k;
    let r = st.level_range(l);
    if r.is_empty() {
        return;
    }
    let split = r.start * stride;
    let (_, arr_cur) = state.topk_arrival.split_at_mut(split);
    let (mean_done, mean_cur) = state.topk_mean.split_at_mut(split);
    let (sigma_done, sigma_cur) = state.topk_sigma.split_at_mut(split);
    let (sp_done, sp_cur) = state.topk_sp.split_at_mut(split);
    for (li, v) in r.clone().enumerate() {
        let fanin = st.fanin_range(v);
        if fanin.is_empty() {
            continue; // level-0 stragglers with no driver stay empty
        }
        for rf in 0..2 {
            let off = li * stride + rf * k;
            let arc_ann = |ai: usize| (st.arc_mean[ai][rf], st.arc_sigma[ai][rf]);
            ref_merge_node_queue(
                st,
                fanin.clone(),
                rf,
                k,
                mean_done,
                sigma_done,
                sp_done,
                &arc_ann,
                &mut arr_cur[off..off + k],
                &mut mean_cur[off..off + k],
                &mut sigma_cur[off..off + k],
                &mut sp_cur[off..off + k],
            );
        }
    }
}

/// One level of the frozen min-mode kernel (the pre-overhaul
/// `min_level_chunk`: candidates pushed as negated early corners so the
/// max-queue keeps the smallest early arrivals).
fn ref_level_min(st: &Static, state: &mut DenseTopK, l: usize) {
    let k = state.k;
    let stride = 2 * k;
    let r = st.level_range(l);
    if r.is_empty() {
        return;
    }
    let split = r.start * stride;
    let (_, arr_cur) = state.topk_arrival.split_at_mut(split);
    let (mean_done, mean_cur) = state.topk_mean.split_at_mut(split);
    let (sigma_done, sigma_cur) = state.topk_sigma.split_at_mut(split);
    let (sp_done, sp_cur) = state.topk_sp.split_at_mut(split);
    for (li, v) in r.clone().enumerate() {
        let fanin = st.fanin_range(v);
        if fanin.is_empty() {
            continue;
        }
        for rf in 0..2 {
            let off = li * stride + rf * k;
            let (qa, qm, qs, qsp) = (
                &mut arr_cur[off..off + k],
                &mut mean_cur[off..off + k],
                &mut sigma_cur[off..off + k],
                &mut sp_cur[off..off + k],
            );
            for j in 0..k {
                let mut any_live = false;
                for ai in fanin.clone() {
                    let p = st.arc_parent[ai] as usize;
                    let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
                    let pidx = (p * 2 + prf) * k + j;
                    let sp = sp_done[pidx];
                    if sp == NO_SP {
                        continue;
                    }
                    any_live = true;
                    let mean = mean_done[pidx] + st.arc_mean[ai][rf];
                    let s_arc = st.arc_sigma[ai][rf];
                    let s_par = sigma_done[pidx];
                    let sigma = (s_par * s_par + s_arc * s_arc).sqrt();
                    ref_update_topk(
                        qa,
                        qm,
                        qs,
                        qsp,
                        Candidate {
                            // Negated early corner: the max-queue keeps
                            // the smallest early arrivals.
                            arrival: -(mean - st.n_sigma * sigma),
                            mean,
                            sigma,
                            sp,
                        },
                    );
                }
                if !any_live {
                    break;
                }
            }
        }
    }
}

/// The full frozen serial forward pass: global reset, launch seeding,
/// then [`ref_level_max`] level by level.
fn ref_forward(st: &Static, k: usize) -> DenseTopK {
    let mut dense = DenseTopK::empty(st.n, k);
    let state = &mut dense;
    for s in &st.sources {
        for rf in 0..2 {
            let idx = (s.node as usize * 2 + rf) * k;
            state.topk_mean[idx] = s.mean[rf];
            state.topk_sigma[idx] = s.sigma[rf];
            state.topk_arrival[idx] = s.mean[rf] + st.n_sigma * s.sigma[rf];
            state.topk_sp[idx] = s.sp;
        }
    }
    for l in 1..st.num_levels() {
        ref_level_max(st, state, l);
    }
    dense
}

/// The full frozen serial min-mode (hold) forward pass — the
/// pre-overhaul `forward_min`.
fn ref_forward_min(st: &Static, k: usize, attrs: &HoldAttributes) -> DenseTopK {
    let mut dense = DenseTopK::empty(st.n, k);
    let state = &mut dense;
    for (sp_idx, s) in st.sources.iter().enumerate() {
        let v = s.node as usize;
        for rf in 0..2 {
            let idx = (v * 2 + rf) * k;
            let mean = attrs.source_mean[sp_idx][rf];
            let sigma = attrs.source_sigma[sp_idx][rf];
            state.topk_mean[idx] = mean;
            state.topk_sigma[idx] = sigma;
            state.topk_arrival[idx] = -(mean - st.n_sigma * sigma);
            state.topk_sp[idx] = s.sp;
        }
    }
    for l in 1..st.num_levels() {
        ref_level_min(st, state, l);
    }
    dense
}

/// The frozen serial differentiable forward pass: the numerically stable
/// three-pass Log-Sum-Exp merge, one node at a time.
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
    /// Runs the frozen scalar forward pass over the current annotations
    /// and refreshes the endpoint report — the reference twin of
    /// [`propagate`](InstaEngine::propagate), with the same state
    /// bookkeeping.
    pub fn forward_scalar_reference(&mut self) -> &InstaReport {
        self.validity.begin_full_pass();
        let dense = ref_forward(&self.st, self.state.k);
        dense.install(&self.st, &mut self.state, false);
        self.scalar_topk = Some(dense);
        let report = crate::metrics::evaluate(&self.st, &self.state, self.cfg.cppr);
        self.state.report = Some(report);
        self.validity.setup_done();
        self.state.report.as_ref().expect("just set")
    }

    /// Runs the frozen scalar differentiable forward pass — the reference
    /// twin of [`forward_lse`](InstaEngine::forward_lse).
    pub fn forward_lse_scalar_reference(&mut self) {
        self.validity.begin_lse();
        ref_forward_lse(&self.st, &mut self.state, self.cfg.lse_tau);
        self.validity.lse_done();
    }

    /// Runs the frozen scalar min-mode pass and evaluates hold checks —
    /// the reference twin of
    /// [`propagate_hold`](InstaEngine::propagate_hold).
    pub fn hold_scalar_reference(&mut self, attrs: &HoldAttributes) -> InstaReport {
        assert_eq!(attrs.source_mean.len(), self.st.sources.len());
        assert_eq!(attrs.required_base.len(), self.st.endpoints.len());
        self.validity.begin_full_pass();
        let dense = ref_forward_min(&self.st, self.state.k, attrs);
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

    /// The frozen kernels' own dense arrays as the engine's last reference
    /// pass ([`forward_scalar_reference`](Self::forward_scalar_reference) /
    /// [`hold_scalar_reference`](Self::hold_scalar_reference)) left them —
    /// what a production engine's [`topk_snapshot`](Self::topk_snapshot)
    /// over the same annotations must equal, virtual nodes included.
    ///
    /// # Panics
    ///
    /// Panics if the engine never ran a reference pass.
    pub fn scalar_topk_snapshot(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>) {
        let d = self.scalar_topk.clone().expect("no reference pass ran");
        (d.topk_arrival, d.topk_mean, d.topk_sigma, d.topk_sp)
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
        (self.state.lse_arrival.clone(), self.state.lse_weight.clone())
    }

    /// Raw gradient state `(∂TNS/∂arrival, ∂TNS/∂arc-delay)`.
    pub fn grad_snapshot(&self) -> (Vec<f64>, Vec<[f64; 2]>) {
        (self.state.grad_arrival.clone(), self.state.grad_arc.clone())
    }
}
