//! The backward kernel: gradient backpropagation from timing endpoints
//! (paper §III-G, Fig. 4).
//!
//! Seeds are planted at violating endpoints (`∂TNS/∂arrival = −w_rf`,
//! where `w_rf` is the softmax split between the endpoint's rise/fall
//! smooth arrivals), then levels are swept in *reverse*. The kernel is
//! formulated as a **pull**: each node gathers `grad(child) · w(arc)` over
//! its fanout arcs — children live in strictly later (already finalized)
//! levels, so the sweep is race-free with the same done/current slice
//! split as the forward pass. Per-arc timing gradients `∂TNS/∂d_arc`
//! (Eq. 6 weights times the backpropagated endpoint gradients) come out as
//! a by-product, exactly the "timing gradient" the paper's applications
//! consume.

use crate::engine::{InstaEngine, State, Static};
use crate::error::{InstaError, Kernel, RuntimeIncident};
use crate::parallel::{carve, Interrupt, Pass};
use crate::stat;
use crate::trace::LevelProfile;

impl InstaEngine {
    /// Backpropagates ∂TNS/∂(arc delay) from the evaluation report through
    /// the differentiable forward pass.
    ///
    /// Call order: [`propagate`](InstaEngine::propagate) (for required
    /// times), [`forward_lse`](InstaEngine::forward_lse) (for weights),
    /// then this; whichever of the two is not current with the annotations
    /// is run first.
    ///
    /// # Panics
    ///
    /// Panics if a worker panic could not be contained (see
    /// [`try_backward_tns`](InstaEngine::try_backward_tns)).
    pub fn backward_tns(&mut self) {
        if let Err(e) = self.try_backward_tns() {
            panic!("backward_tns failed: {e}");
        }
    }

    /// Fallible [`backward_tns`](InstaEngine::backward_tns) with the same
    /// worker-panic containment contract as
    /// [`try_propagate`](InstaEngine::try_propagate).
    pub fn try_backward_tns(&mut self) -> Result<(), InstaError> {
        // The backward pass consumes the report (required times) and the
        // LSE arrivals/weights; what the ledger calls stale (never computed,
        // or arcs re-annotated since) is recomputed rather than silently
        // read.
        if !self.validity.report_current() {
            self.try_propagate()?;
        }
        if !self.validity.lse_current() {
            self.try_forward_lse()?;
        }
        let report = self.state.report.clone().expect("current: has a report");
        self.last_incident = None;
        self.trace.begin("backward");
        let res = backward(
            &self.st,
            &mut self.state,
            &report,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            self.interrupt.as_ref(),
            self.trace.profile_mut(Kernel::Backward),
        );
        self.trace
            .end_with(&[("ok", if res.is_ok() { 1.0 } else { 0.0 })]);
        self.settle(res)
    }

    /// ∂TNS/∂(delay) per *graph* arc (aggregated over non-unate expansion
    /// and both destination transitions). Values are ≤ 0: increasing any
    /// arc delay can only worsen TNS.
    pub fn arc_gradients(&self) -> Vec<f64> {
        graph_arc_gradients(&self.st, &self.state.grad_arc)
    }

    /// ∂TNS/∂arrival at an *original* graph node id per transition index
    /// (diagnostic view of the backward pass); `None` for an unknown node
    /// or a transition index past 1.
    pub fn node_gradient(&self, orig_node: u32, rf: usize) -> Option<f64> {
        let v = self.node_index(orig_node)?;
        (rf < 2).then(|| self.state.grad_arrival[v * 2 + rf])
    }
}

/// Folds per-expanded-arc gradients onto graph arcs: over a graph arc's
/// non-unate expansions and both destination transitions.
pub(crate) fn graph_arc_gradients(st: &Static, grad_arc: &[[f64; 2]]) -> Vec<f64> {
    (0..st.n_graph_arcs)
        .map(|g| {
            st.expansion(g).iter().fold(0.0, |acc, &e| {
                let ga = grad_arc[e as usize];
                acc + (ga[0] + ga[1])
            })
        })
        .collect()
}

/// One backward pass: gradients reset, the TNS seeds planted — every
/// violating endpoint seeds −1 (`TNS = Σ_ep min(0, slack_ep)`), split over
/// its rise/fall smooth arrivals by the softmax `w_rf` of
/// `slack_ep = required − LSE(arr_r, arr_f)` — then the reverse level
/// sweep.
pub(crate) fn backward(
    st: &Static,
    state: &mut State,
    report: &crate::metrics::InstaReport,
    tau: f64,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    prof: Option<&mut LevelProfile>,
) -> Result<Option<RuntimeIncident>, InstaError> {
    state.grad_arrival.fill(0.0);
    for g in state.grad_fanout.iter_mut() {
        *g = [0.0; 2];
    }
    for (i, ep) in st.endpoints.iter().enumerate() {
        if report.slacks[i] >= 0.0 || !report.slacks[i].is_finite() {
            continue;
        }
        let v = ep.node as usize;
        let (wr, wf) =
            stat::softmax2(state.lse_arrival[v * 2], state.lse_arrival[v * 2 + 1], tau);
        state.grad_arrival[v * 2] = -wr;
        state.grad_arrival[v * 2 + 1] = -wf;
    }
    sweep(st, state, n_threads, interrupt, prof)
}

/// The reverse level sweep (pull from children) plus the final
/// scatter of fanout-slot gradients back into arc order. Seeds must
/// already be planted in `state.grad_arrival`.
fn sweep(
    st: &Static,
    state: &mut State,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    prof: Option<&mut LevelProfile>,
) -> Result<Option<RuntimeIncident>, InstaError> {
    let mut pass = Pass::begin(Kernel::Backward, n_threads, interrupt, prof);
    // `backward_chunk` *accumulates* onto the endpoint seeds already
    // planted in a level's window, so the retry after a contained panic
    // must put them back: each level's pre-level window is kept here.
    let mut seeds: Vec<f64> = Vec::new();
    for l in (0..st.num_levels().saturating_sub(1)).rev() {
        let nodes = st.level_range(l);
        let split = nodes.end * 2;
        let slots = st.fanout_start[nodes.start] as usize..st.fanout_start[nodes.end] as usize;
        seeds.clear();
        seeds.extend_from_slice(&state.grad_arrival[nodes.start * 2..split]);
        pass.level(
            l,
            nodes.clone(),
            state,
            |state, launch| {
                // Children live in strictly later levels: `done`.
                let (head, done) = state.grad_arrival.split_at_mut(split);
                let mut rest = (
                    &mut head[nodes.start * 2..],
                    &mut state.grad_fanout[slots.clone()],
                );
                let weights = &state.lse_weight;
                let windows = launch.cuts().map(|cut| {
                    let cut_slots =
                        (st.fanout_start[cut.end] - st.fanout_start[cut.start]) as usize;
                    (
                        carve(&mut rest.0, cut.len() * 2),
                        carve(&mut rest.1, cut_slots),
                    )
                });
                launch.run(windows, |cut, (cur, gf)| {
                    backward_chunk(st, cut, done, split, cur, gf, weights);
                })
            },
            |state| {
                state.grad_arrival[nodes.start * 2..split].copy_from_slice(&seeds);
                for g in state.grad_fanout[slots.clone()].iter_mut() {
                    *g = [0.0; 2];
                }
            },
        )?;
        #[cfg(debug_assertions)]
        crate::health::debug_assert_grad_level_clean(st, state, l);
    }

    // ---- Scatter fanout-slot gradients back to arc order ----------------
    for (slot, &arc) in st.fanout_arc.iter().enumerate() {
        state.grad_arc[arc as usize] = state.grad_fanout[slot];
    }
    Ok(pass.finish())
}

/// The body of one cut: pulls gradient contributions for nodes in `range`.
///
/// `done` holds `grad_arrival[split..]` (all strictly later levels); `cur`
/// holds the range's own gradient slots (seeded with endpoint gradients);
/// `gf` holds the range's fanout-arc gradient slots.
fn backward_chunk(
    st: &Static,
    range: std::ops::Range<usize>,
    done: &[f64],
    split: usize,
    cur: &mut [f64],
    gf: &mut [[f64; 2]],
    weights: &[[f64; 2]],
) {
    let chunk_node_base = range.start;
    let gf_base = st.fanout_start[chunk_node_base] as usize;
    for v in range {
        let slots =
            st.fanout_start[v] as usize..st.fanout_start[v + 1] as usize;
        if slots.is_empty() {
            continue;
        }
        let mut acc = [0.0_f64; 2];
        for slot in slots {
            let arc = st.fanout_arc[slot] as usize;
            let child = st.arc_child[arc] as usize;
            debug_assert!(child * 2 >= split);
            for crf in 0..2usize {
                let g_child = done[child * 2 + crf - split];
                let contrib = g_child * weights[arc][crf];
                gf[slot - gf_base][crf] = contrib;
                let prf = if st.arc_neg[arc] { 1 - crf } else { crf };
                acc[prf] += contrib;
            }
        }
        let local = (v - chunk_node_base) * 2;
        cur[local] += acc[0];
        cur[local + 1] += acc[1];
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{InstaConfig, InstaEngine};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    fn gradient_engine(seed: u64, tau: f64) -> InstaEngine {
        // A tight clock so the design actually violates (TNS < 0) and
        // gradients flow.
        let mut cfg = GeneratorConfig::small("bwd", seed);
        cfg.clock_period_ps = 120.0;
        let d = generate_design(&cfg);
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        let report = sta.full_update(&d);
        assert!(report.n_violations > 0, "test design must violate");
        let mut eng = InstaEngine::new(
            sta.export_insta_init(),
            InstaConfig {
                lse_tau: tau,
                ..InstaConfig::default()
            },
        ).expect("valid snapshot");
        eng.propagate();
        eng.forward_lse();
        eng.backward_tns();
        eng
    }

    #[test]
    fn gradients_are_nonpositive_and_finite() {
        let eng = gradient_engine(1, 1.0);
        let grads = eng.arc_gradients();
        assert!(!grads.is_empty());
        for (i, g) in grads.iter().enumerate() {
            assert!(g.is_finite(), "grad {i} not finite");
            assert!(*g <= 1e-12, "grad {i} = {g} must be ≤ 0");
        }
        let total: f64 = grads.iter().map(|g| g.abs()).sum();
        assert!(total > 0.0, "violating design must produce gradient flow");
    }

    /// Finite-difference check of ∂TNS/∂(arc delay): perturb the most
    /// critical arc's cloned delay and compare the smooth-TNS change with
    /// the analytic gradient.
    #[test]
    fn gradient_matches_finite_difference() {
        let mut eng = gradient_engine(2, 2.0);
        let grads = eng.arc_gradients();
        let (worst_arc, g) = grads
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("arcs exist");
        assert!(g < 0.0, "need a critical arc for the check");

        // Smooth TNS as the backward pass differentiates it: slack from
        // the LSE arrivals with the report's required times.
        let smooth_tns = |eng: &mut InstaEngine| -> f64 {
            eng.forward_lse();
            let report = eng.state.report.clone().expect("report");
            let mut tns = 0.0;
            for (i, ep) in eng.st.endpoints.iter().enumerate() {
                if report.slacks[i] >= 0.0 || !report.slacks[i].is_finite() {
                    continue;
                }
                let v = ep.node as usize;
                let tau = eng.cfg.lse_tau;
                let ar = eng.state.lse_arrival[v * 2];
                let af = eng.state.lse_arrival[v * 2 + 1];
                let m = ar.max(af);
                let lse =
                    m + tau * (((ar - m) / tau).exp() + ((af - m) / tau).exp()).ln();
                tns += report.requireds[i] - lse;
            }
            tns
        };

        let base_tns = smooth_tns(&mut eng);
        let eps = 0.05; // ps
        for &e in &eng.st.expansion_arc[eng.st.expansion_start[worst_arc] as usize
            ..eng.st.expansion_start[worst_arc + 1] as usize]
        {
            eng.st.arc_mean[e as usize][0] += eps;
            eng.st.arc_mean[e as usize][1] += eps;
        }
        let new_tns = smooth_tns(&mut eng);
        let fd = (new_tns - base_tns) / eps;
        // The analytic gradient sums the rise and fall sensitivities, and
        // we perturbed both edges simultaneously, so they must agree.
        let rel_err = (fd - g).abs() / g.abs().max(1e-12);
        assert!(
            rel_err < 0.05,
            "finite difference {fd} vs analytic {g} (rel err {rel_err})"
        );
    }

    /// Clean (violation-free) designs produce zero gradients.
    #[test]
    fn zero_gradient_without_violations() {
        let mut cfg = GeneratorConfig::small("bwd", 3);
        cfg.clock_period_ps = 100_000.0; // absurdly relaxed
        let d = generate_design(&cfg);
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        let report = sta.full_update(&d);
        assert_eq!(report.n_violations, 0, "design must be clean");
        let mut eng = InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        eng.propagate();
        eng.forward_lse();
        eng.backward_tns();
        assert!(eng.arc_gradients().iter().all(|&g| g == 0.0));
    }

    /// Gradient magnitude orders arcs by criticality: arcs on violating
    /// paths carry weight, arcs feeding only clean endpoints carry none.
    #[test]
    fn gradients_concentrate_on_violating_cones() {
        let eng = gradient_engine(4, 0.1);
        let report = eng.report().clone();
        if report.n_violations == 0 {
            return; // seed produced a clean design; nothing to check
        }
        let grads = eng.arc_gradients();
        let nonzero = grads.iter().filter(|g| g.abs() > 1e-15).count();
        assert!(nonzero > 0);
        assert!(
            nonzero < grads.len(),
            "some arcs must be outside every violating cone"
        );
    }
}
