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
use crate::parallel::{carve, Pass, PassOptions};
use crate::stat;
use crate::trace::LevelProfile;

impl InstaEngine {
    /// Runs the differentiable forward pass, filling per-node smooth
    /// arrivals and per-arc softmax weights.
    ///
    /// # Panics
    ///
    /// Panics if a worker panic could not be contained (see
    /// [`try_forward_lse`](InstaEngine::try_forward_lse)).
    pub fn forward_lse(&mut self) {
        if let Err(e) = self.try_forward_lse(&PassOptions::default()) {
            panic!("forward_lse failed: {e}");
        }
    }

    /// Fallible [`forward_lse`](InstaEngine::forward_lse) with the same
    /// worker-panic containment contract as
    /// [`try_propagate`](InstaEngine::try_propagate), and the same
    /// cancel/deadline poll.
    pub fn try_forward_lse(&mut self, opts: &PassOptions) -> Result<(), InstaError> {
        self.last_incident = None;
        self.validity.begin_lse();
        self.trace.begin("forward_lse");
        let res = forward_lse(
            &self.st,
            &mut self.state,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            opts,
            self.trace.profile_mut(Kernel::ForwardLse),
        );
        self.trace
            .end_with(&[("ok", if res.is_ok() { 1.0 } else { 0.0 })]);
        self.settle(res)?;
        self.validity.lse_done();
        Ok(())
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
fn seed_lse_sources(st: &Static, state: &mut State, range: std::ops::Range<usize>) {
    for s in &st.sources {
        let v = s.node as usize;
        if !range.contains(&v) {
            continue;
        }
        for rf in 0..2 {
            state.lse_arrival[v * 2 + rf] = stat::corner_late(s.mean[rf], s.sigma[rf], st.n_sigma);
        }
    }
}

fn forward_lse(
    st: &Static,
    state: &mut State,
    tau: f64,
    n_threads: usize,
    opts: &PassOptions,
    prof: Option<&mut LevelProfile>,
) -> Result<Option<RuntimeIncident>, InstaError> {
    debug_assert!(tau > 0.0);
    lse_reset_seed(st, state);
    let mut pass = Pass::begin(Kernel::ForwardLse, n_threads, opts, prof);
    for l in 1..st.num_levels() {
        lse_level(st, state, &mut pass, tau, l)?;
    }
    Ok(pass.finish())
}

/// Resets the LSE arrival/weight buffers and applies the source seeds —
/// the pre-sweep state both [`forward_lse`] and the fused sweep
/// ([`crate::forward::forward_fused`]) start from.
pub(crate) fn lse_reset_seed(st: &Static, state: &mut State) {
    state.lse_arrival.fill(f64::NEG_INFINITY);
    for w in state.lse_weight.iter_mut() {
        *w = [0.0; 2];
    }
    seed_lse_sources(st, state, 0..st.n);
}

/// One level of the differentiable forward pass, run through the level
/// runner ([`Pass::level`]). Shared verbatim by [`forward_lse`] and the
/// fused sweep — level `l` reads only earlier levels' smooth arrivals, so
/// interleaving whole level bodies with the evaluation kernel changes
/// nothing it computes.
pub(crate) fn lse_level(
    st: &Static,
    state: &mut State,
    pass: &mut Pass<'_>,
    tau: f64,
    l: usize,
) -> Result<(), InstaError> {
    let nodes = st.level_range(l);
    // The level's fanin arcs are contiguous because arcs are stored in
    // renumbered-child order.
    let arcs = st.fanin_start[nodes.start] as usize..st.fanin_start[nodes.end] as usize;
    pass.level(
        l,
        nodes.clone(),
        state,
        |state, launch| {
            let (done, cur) = state.lse_arrival.split_at_mut(nodes.start * 2);
            let mut rest = (
                &mut cur[..nodes.len() * 2],
                &mut state.lse_weight[arcs.clone()],
            );
            let windows = launch.cuts().map(|cut| {
                let cut_arcs = (st.fanin_start[cut.end] - st.fanin_start[cut.start]) as usize;
                (
                    carve(&mut rest.0, cut.len() * 2),
                    carve(&mut rest.1, cut_arcs),
                )
            });
            launch.run(windows, |cut, (cur, weights)| {
                lse_chunk(st, tau, nodes.start, cut, done, cur, weights);
            })
        },
        |state| {
            state.lse_arrival[nodes.start * 2..nodes.end * 2].fill(f64::NEG_INFINITY);
            state.lse_weight[arcs.clone()].fill([0.0; 2]);
            seed_lse_sources(st, state, nodes.clone());
        },
    )?;
    #[cfg(debug_assertions)]
    crate::health::debug_assert_lse_level_clean(st, state, l);
    Ok(())
}

/// The body of one cut: nodes `range` of the level starting at
/// `level_base`. `cur` holds the 2-per-node arrivals of the range;
/// `weights` holds the fanin-arc weights of the range.
#[allow(clippy::needless_range_loop)] // rf indexes parallel [f64; 2] slots
fn lse_chunk(
    st: &Static,
    tau: f64,
    level_base: usize,
    range: std::ops::Range<usize>,
    done: &[f64],
    cur: &mut [f64],
    weights: &mut [[f64; 2]],
) {
    let chunk_node_base = range.start;
    let w_base = st.fanin_start[chunk_node_base] as usize;
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
                    stat::lse_candidate(pa, st.arc_mean[ai][rf], st.arc_sigma[ai][rf], st.n_sigma)
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
