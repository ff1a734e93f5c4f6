//! Differentiable forward pass: Log-Sum-Exp smooth-max merging (paper
//! §III-F, Eqs. 4–6).
//!
//! The evaluation kernel's "greater than" merge blocks gradient flow from
//! sub-critical paths, so the differentiable pass replaces it with the
//! numerically stable LSE operator. For every `(pin, transition)` the pass
//! computes
//!
//! ```text
//! LSE({A_i}) = M + τ · ln Σ exp((A_i − M)/τ),   M = max A_i
//! ```
//!
//! over the candidate arrivals `A_i = arrival(parent, prf) + d_arc`, where
//! `d_arc = μ_arc + N_σ·σ_arc` is the linearized corner cost of the arc,
//! and stores the softmax weight of each candidate (Eq. 6) for the backward
//! kernel. As τ → 0 the pass converges to the evaluation maximum.

use crate::engine::{InstaEngine, State, Static};
use crate::error::{InstaError, Kernel, RuntimeIncident};
use crate::parallel::{chaos, resolve_threads, Interrupt, PanicCell, PAR_THRESHOLD};
use crate::stat::{with_model, StatModel};
use crate::trace::LevelProfile;
use std::panic::{catch_unwind, AssertUnwindSafe};

impl InstaEngine {
    /// Runs the differentiable forward pass, filling per-node smooth
    /// arrivals and per-arc softmax weights.
    ///
    /// # Panics
    ///
    /// Panics if a worker panic could not be contained (see
    /// [`try_forward_lse`](InstaEngine::try_forward_lse)).
    pub fn forward_lse(&mut self) {
        if let Err(e) = self.try_forward_lse() {
            panic!("forward_lse failed: {e}");
        }
    }

    /// Fallible [`forward_lse`](InstaEngine::forward_lse) with the same
    /// worker-panic containment contract as
    /// [`try_propagate`](InstaEngine::try_propagate).
    pub fn try_forward_lse(&mut self) -> Result<(), InstaError> {
        self.last_incident = None;
        self.lse_writes += 1;
        self.state.lse_tau_used = None;
        self.trace.begin("forward_lse");
        let res = with_model!(&self.backend, m => forward_lse(
            &self.st,
            &mut self.state,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            self.interrupt.as_ref(),
            self.trace.profile_mut(Kernel::ForwardLse),
            m,
        ));
        self.trace
            .end_with(&[("ok", if res.is_ok() { 1.0 } else { 0.0 })]);
        match res {
            Ok(incident) => {
                if let Some(inc) = &incident {
                    self.record_incident(inc);
                }
                self.last_incident = incident;
                self.state.lse_tau_used = Some(self.cfg.lse_tau);
                Ok(())
            }
            Err(e) => {
                if let InstaError::Runtime(inc) = &e {
                    self.record_incident(inc);
                }
                Err(e)
            }
        }
    }

    /// The smooth (LSE) corner arrival at a renumbered node, `None` when
    /// unreached.
    #[cfg(test)]
    pub(crate) fn lse_arrival(&self, node: usize, rf: usize) -> Option<f64> {
        let a = self.state.lse_arrival[node * 2 + rf];
        (a != f64::NEG_INFINITY).then_some(a)
    }
}

/// Applies the corner launch arrivals for sources whose node lies in
/// `range`.
fn seed_lse_sources<M: StatModel>(
    st: &Static,
    state: &mut State,
    range: std::ops::Range<usize>,
    model: &M,
) {
    for s in &st.sources {
        let v = s.node as usize;
        if !range.contains(&v) {
            continue;
        }
        for rf in 0..2 {
            state.lse_arrival[v * 2 + rf] = model.corner_late(s.mean[rf], s.sigma[rf], st.n_sigma);
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_lse<M: StatModel>(
    st: &Static,
    state: &mut State,
    tau: f64,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    prof: Option<&mut LevelProfile>,
    model: &M,
) -> Result<Option<RuntimeIncident>, InstaError> {
    let ann = |ai: usize, rf: usize| (st.arc_mean[ai][rf], st.arc_sigma[ai][rf]);
    forward_lse_with(st, state, tau, n_threads, interrupt, &ann, prof, model)
}

/// [`forward_lse`] with arc-annotation reads routed through `ann(ai, rf) →
/// (mean, sigma)`. The batched scenario path ([`crate::batch`]) runs this
/// into scratch buffers while a lane's deltas are written in place —
/// sharing this body (instead of maintaining a second LSE kernel) is what
/// makes the batched gradient bit-identical to a serial re-annotate +
/// `forward_lse` run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_lse_with<M: StatModel>(
    st: &Static,
    state: &mut State,
    tau: f64,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    ann: &(impl Fn(usize, usize) -> (f64, f64) + Sync),
    mut prof: Option<&mut LevelProfile>,
    model: &M,
) -> Result<Option<RuntimeIncident>, InstaError> {
    debug_assert!(tau > 0.0);
    // Restart the interrupt's reporting clock at pass entry (see
    // `Interrupt::restarted`).
    let restarted = interrupt.map(Interrupt::restarted);
    let interrupt = restarted.as_ref();
    lse_reset_seed(st, state, model);

    let nt = resolve_threads(n_threads);
    let mut recovered: Option<RuntimeIncident> = None;
    if let Some(p) = prof.as_deref_mut() {
        p.passes += 1;
    }
    for l in 1..st.num_levels() {
        // One cancellation poll per level (bounded-latency contract).
        if let Some(e) = interrupt.and_then(|i| i.check(Kernel::ForwardLse, l)) {
            return Err(e);
        }
        if let Some(inc) = lse_level(st, state, tau, nt, l, ann, prof.as_deref_mut(), model)? {
            recovered.get_or_insert(inc);
        }
    }
    Ok(recovered)
}

/// Resets the LSE arrival/weight buffers and applies the source seeds —
/// the pre-sweep state both [`forward_lse_with`] and the fused sweep
/// ([`crate::forward::forward_fused`]) start from.
pub(crate) fn lse_reset_seed<M: StatModel>(st: &Static, state: &mut State, model: &M) {
    state.lse_arrival.fill(f64::NEG_INFINITY);
    for w in state.lse_weight.iter_mut() {
        *w = [0.0; 2];
    }
    seed_lse_sources(st, state, 0..st.n, model);
}

/// One level of the differentiable forward pass: parallel launch, panic
/// containment + serial retry, and per-level profiling for level `l`.
/// Shared verbatim by [`forward_lse_with`] and the fused sweep — level
/// `l` reads only earlier levels' smooth arrivals, so interleaving whole
/// level bodies with the evaluation kernel changes nothing it computes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lse_level<M: StatModel>(
    st: &Static,
    state: &mut State,
    tau: f64,
    nt: usize,
    l: usize,
    ann: &(impl Fn(usize, usize) -> (f64, f64) + Sync),
    mut prof: Option<&mut LevelProfile>,
    model: &M,
) -> Result<Option<RuntimeIncident>, InstaError> {
    let mut recovered: Option<RuntimeIncident> = None;
    {
        let r = st.level_range(l);
        let (base, len) = (r.start, r.len());
        if len == 0 {
            return Ok(None);
        }
        let t_level = prof.is_some().then(std::time::Instant::now);
        // The level's fanin arcs are contiguous because arcs are stored in
        // renumbered-child order.
        let arc_lo = st.fanin_start[base] as usize;
        let arc_hi = st.fanin_start[base + len] as usize;
        let panicked = {
            let node_split = base * 2;
            let (done, cur_all) = state.lse_arrival.split_at_mut(node_split);
            let cur = &mut cur_all[..len * 2];
            let weights = &mut state.lse_weight[arc_lo..arc_hi];

            if nt <= 1 || len < PAR_THRESHOLD {
                lse_chunk(st, tau, base, base..base + len, done, cur, weights, arc_lo, ann, model);
                None
            } else {
                let chunk_nodes = len.div_ceil(nt);
                let cell = PanicCell::new();
                std::thread::scope(|scope| {
                    let mut rest_nodes = cur;
                    let mut rest_weights = weights;
                    let mut s0 = base;
                    while s0 < base + len {
                        let e0 = (s0 + chunk_nodes).min(base + len);
                        let take_nodes = (e0 - s0) * 2;
                        let take_arcs =
                            st.fanin_start[e0] as usize - st.fanin_start[s0] as usize;
                        let (cn, rn) = rest_nodes.split_at_mut(take_nodes);
                        let (cw, rw) = rest_weights.split_at_mut(take_arcs);
                        rest_nodes = rn;
                        rest_weights = rw;
                        let done_ref = &*done;
                        let w_base = st.fanin_start[s0] as usize;
                        let cell = &cell;
                        scope.spawn(move || {
                            cell.run(s0..e0, || {
                                chaos::maybe_panic(Kernel::ForwardLse, l);
                                lse_chunk(
                                    st, tau, base, s0..e0, done_ref, cn, cw, w_base, ann, model,
                                );
                            });
                        });
                        s0 = e0;
                    }
                });
                cell.take()
            }
        };
        if let Some((chunk, message)) = panicked {
            let incident = RuntimeIncident {
                kernel: Kernel::ForwardLse,
                level: l,
                chunk,
                message,
                serial_retry_failed: false,
            };
            let retry = catch_unwind(AssertUnwindSafe(|| {
                state.lse_arrival[base * 2..(base + len) * 2].fill(f64::NEG_INFINITY);
                for w in state.lse_weight[arc_lo..arc_hi].iter_mut() {
                    *w = [0.0; 2];
                }
                seed_lse_sources(st, state, base..base + len, model);
                chaos::maybe_panic(Kernel::ForwardLse, l);
                let (done, cur_all) = state.lse_arrival.split_at_mut(base * 2);
                lse_chunk(
                    st,
                    tau,
                    base,
                    base..base + len,
                    done,
                    &mut cur_all[..len * 2],
                    &mut state.lse_weight[arc_lo..arc_hi],
                    arc_lo,
                    ann,
                    model,
                );
            }));
            match retry {
                Ok(()) => {
                    recovered.get_or_insert(incident);
                }
                Err(_) => {
                    return Err(InstaError::Runtime(RuntimeIncident {
                        serial_retry_failed: true,
                        ..incident
                    }))
                }
            }
        }
        if let (Some(p), Some(t0)) = (prof.as_deref_mut(), t_level) {
            p.record_level(l, t0.elapsed().as_nanos() as u64, len as u64);
        }
    }
    #[cfg(debug_assertions)]
    crate::health::debug_assert_lse_level_clean(st, state, l);
    Ok(recovered)
}

/// Per-thread body: nodes `range` of the level starting at `level_base`.
/// `cur` holds the 2-per-node arrivals of the range; `weights` holds the
/// fanin-arc weights of the range, offset by `w_base`.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)] // rf indexes parallel [f64; 2] slots
fn lse_chunk<M: StatModel>(
    st: &Static,
    tau: f64,
    level_base: usize,
    range: std::ops::Range<usize>,
    done: &[f64],
    cur: &mut [f64],
    weights: &mut [[f64; 2]],
    w_base: usize,
    ann: &impl Fn(usize, usize) -> (f64, f64),
    model: &M,
) {
    let chunk_node_base = range.start;
    for v in range {
        let fanin = st.fanin_range(v);
        if fanin.is_empty() {
            continue;
        }
        for rf in 0..2usize {
            // Pass 1: candidate values and running max.
            let mut m = f64::NEG_INFINITY;
            for ai in fanin.clone() {
                let p = st.arc_parent[ai] as usize;
                debug_assert!(p < level_base);
                let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
                let pa = done[p * 2 + prf];
                let c = if pa == f64::NEG_INFINITY {
                    f64::NEG_INFINITY
                } else {
                    let (a_mean, a_sigma) = ann(ai, rf);
                    model.lse_candidate(pa, a_mean, a_sigma, st.n_sigma)
                };
                weights[ai - w_base][rf] = c;
                if c > m {
                    m = c;
                }
            }
            let out_idx = (v - chunk_node_base) * 2 + rf;
            if m == f64::NEG_INFINITY {
                cur[out_idx] = f64::NEG_INFINITY;
                for ai in fanin.clone() {
                    weights[ai - w_base][rf] = 0.0;
                }
                continue;
            }
            // Pass 2: exponentiate and accumulate the denominator.
            let mut denom = 0.0;
            for ai in fanin.clone() {
                let c = weights[ai - w_base][rf];
                let e = if c == f64::NEG_INFINITY {
                    0.0
                } else {
                    ((c - m) / tau).exp()
                };
                weights[ai - w_base][rf] = e;
                denom += e;
            }
            // Pass 3: normalize into softmax weights (Eq. 6).
            for ai in fanin.clone() {
                weights[ai - w_base][rf] /= denom;
            }
            cur[out_idx] = m + tau * denom.ln();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{InstaConfig, InstaEngine};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    fn engine(seed: u64, tau: f64) -> InstaEngine {
        let d = generate_design(&GeneratorConfig::small("lse", seed));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        InstaEngine::new(
            sta.export_insta_init(),
            InstaConfig {
                lse_tau: tau,
                ..InstaConfig::default()
            },
        ).expect("valid snapshot")
    }

    /// LSE is an upper bound of the max and converges to it as τ → 0
    /// (paper Eq. 5).
    #[test]
    fn lse_upper_bounds_max_and_converges() {
        let mut tight = engine(1, 0.01);
        tight.propagate();
        tight.forward_lse();
        let mut loose = engine(1, 5.0);
        loose.propagate();
        loose.forward_lse();
        let n = tight.num_nodes();
        let mut max_gap_tight = 0.0_f64;
        let mut max_gap_loose = 0.0_f64;
        for v in 0..n {
            for rf in 0..2 {
                // Hard max over candidates equals the Top-K=32 head entry
                // arrival when sigma composition matches; compare the
                // smooth arrival of both temperatures instead, which is
                // self-consistent: LSE_tau >= LSE_0 and gap grows with tau.
                let (Some(t), Some(l)) = (tight.lse_arrival(v, rf), loose.lse_arrival(v, rf))
                else {
                    continue;
                };
                assert!(l >= t - 1e-6, "larger tau must not decrease LSE");
                max_gap_tight = max_gap_tight.max((t - l).abs());
                max_gap_loose = max_gap_loose.max((l - t).abs());
            }
        }
        assert!(max_gap_loose > 0.0, "temperatures must differ somewhere");
    }

    /// Softmax weights per (node, rf) sum to 1 wherever the node is
    /// reached.
    #[test]
    fn weights_are_normalized() {
        let mut eng = engine(2, 1.0);
        eng.forward_lse();
        let st = &eng.st;
        let state = &eng.state;
        for v in 0..st.n {
            let fanin = st.fanin_range(v);
            if fanin.is_empty() {
                continue;
            }
            for rf in 0..2 {
                if state.lse_arrival[v * 2 + rf] == f64::NEG_INFINITY {
                    continue;
                }
                let total: f64 = fanin.clone().map(|ai| state.lse_weight[ai][rf]).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "weights at node {v} rf {rf} sum to {total}"
                );
            }
        }
    }

    /// At tiny τ the most critical candidate takes essentially all the
    /// weight (softmax sharpness).
    #[test]
    fn tiny_tau_concentrates_weight() {
        let mut eng = engine(3, 1e-4);
        eng.forward_lse();
        let st = &eng.st;
        let state = &eng.state;
        let mut checked = 0;
        for v in 0..st.n {
            let fanin = st.fanin_range(v);
            if fanin.len() < 2 || state.lse_arrival[v * 2] == f64::NEG_INFINITY {
                continue;
            }
            let max_w = fanin
                .clone()
                .map(|ai| state.lse_weight[ai][0])
                .fold(0.0_f64, f64::max);
            assert!(max_w > 0.99, "expected concentration, got {max_w}");
            checked += 1;
        }
        assert!(checked > 0, "no multi-fanin node exercised");
    }
}
