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
use crate::parallel::{carve, Pass, PassOptions};
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
    /// Panics if the call fails (see
    /// [`try_backward_tns`](InstaEngine::try_backward_tns)).
    pub fn backward_tns(&mut self) {
        if let Err(e) = self.try_backward_tns(&PassOptions::default()) {
            panic!("backward_tns failed: {e}");
        }
    }

    /// Fallible [`backward_tns`](InstaEngine::backward_tns) — the one
    /// producer of timing gradients — with the same worker-panic
    /// containment contract as [`try_propagate`](InstaEngine::try_propagate).
    ///
    /// `opts` is polled by every pass the call runs — a stale propagation,
    /// a stale LSE pass, then the backward sweep — and a fired token or an
    /// expired deadline returns [`InstaError::Cancelled`]. The
    /// call writes only what those passes write: on a current report, the
    /// LSE and gradient buffers and nothing a report, a snapshot or an
    /// epoch reads. A NaN slack refuses the call with the session layer's
    /// [`InstaError::Numeric`] before any differentiable pass runs.
    pub fn try_backward_tns(&mut self, opts: &PassOptions) -> Result<(), InstaError> {
        // The backward pass consumes the report (required times) and the
        // LSE arrivals/weights; what the ledger calls stale (never computed,
        // or arcs re-annotated since) is recomputed rather than silently
        // read.
        if !self.validity.report_current() {
            self.try_propagate(opts)?;
        }
        let report = self.state.report.clone().expect("current: has a report");
        if let Some(err) = crate::health::nan_slack(&self.st, &report) {
            return Err(err);
        }
        if !self.validity.lse_current() {
            self.try_forward_lse(opts)?;
        }
        self.last_incident = None;
        self.trace.begin("backward");
        let res = backward(
            &self.st,
            &mut self.state,
            &report,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            opts,
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
        let (st, grad_arc) = (&self.st, &self.state.grad_arc);
        (0..st.n_graph_arcs)
            .map(|g| {
                st.expansion(g).iter().fold(0.0, |acc, &e| {
                    let ga = grad_arc[e as usize];
                    acc + (ga[0] + ga[1])
                })
            })
            .collect()
    }

    /// ∂TNS/∂arrival at an *original* graph node id per transition index
    /// (diagnostic view of the backward pass); `None` for an unknown node
    /// or a transition index past 1.
    pub fn node_gradient(&self, orig_node: u32, rf: usize) -> Option<f64> {
        let v = self.node_index(orig_node)?;
        (rf < 2).then(|| self.state.grad_arrival[v * 2 + rf])
    }
}

/// One backward pass: gradients reset, the TNS seeds planted — every
/// violating endpoint seeds −1 (`TNS = Σ_ep min(0, slack_ep)`), split over
/// its rise/fall smooth arrivals by the softmax `w_rf` of
/// `slack_ep = required − LSE(arr_r, arr_f)` — then the reverse level
/// sweep.
fn backward(
    st: &Static,
    state: &mut State,
    report: &crate::metrics::InstaReport,
    tau: f64,
    n_threads: usize,
    opts: &PassOptions,
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
    sweep(st, state, n_threads, opts, prof)
}

/// The reverse level sweep (pull from children) plus the final
/// scatter of fanout-slot gradients back into arc order. Seeds must
/// already be planted in `state.grad_arrival`.
fn sweep(
    st: &Static,
    state: &mut State,
    n_threads: usize,
    opts: &PassOptions,
    prof: Option<&mut LevelProfile>,
) -> Result<Option<RuntimeIncident>, InstaError> {
    let mut pass = Pass::begin(Kernel::Backward, n_threads, opts, prof);
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
    use crate::error::{InstaError, Kernel};
    use crate::parallel::PassOptions;
    use crate::snapshot::TimingSnapshot;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};
    use insta_support::timer::{CancelToken, Deadline};
    use std::time::Duration;

    /// An engine over a design with a tight clock, so that it violates
    /// (TNS < 0) and gradients flow; no pass has run yet.
    fn violating_engine(seed: u64, tau: f64) -> InstaEngine {
        let mut cfg = GeneratorConfig::small("bwd", seed);
        cfg.clock_period_ps = 120.0;
        let d = generate_design(&cfg);
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        let report = sta.full_update(&d);
        assert!(report.n_violations > 0, "test design must violate");
        InstaEngine::new(
            sta.export_insta_init(),
            InstaConfig {
                lse_tau: tau,
                ..InstaConfig::default()
            },
        )
        .expect("valid snapshot")
    }

    fn gradient_engine(seed: u64, tau: f64) -> InstaEngine {
        let mut eng = violating_engine(seed, tau);
        eng.propagate();
        eng.forward_lse();
        eng.backward_tns();
        eng
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every bit a snapshot reader can see: epoch, slacks, arrivals.
    fn snapshot_bits(snap: &TimingSnapshot, n_nodes: u32) -> Vec<u64> {
        let mut out = vec![snap.epoch()];
        out.extend(bits(&snap.report().expect("synced").slacks));
        for v in 0..n_nodes {
            for rf in 0..2 {
                out.push(snap.arrival_at(v, rf).map_or(u64::MAX, f64::to_bits));
            }
        }
        out
    }

    /// A pre-fired token and a zero deadline both cancel the call — in the
    /// LSE pass when it is stale, in the backward sweep when it is not —
    /// and move no bit of the epoch, the report, the Top-K arrays, the
    /// annotations, the ledger or a snapshot; the next default call's
    /// gradients equal a fresh twin's.
    #[test]
    fn a_cancelled_gradient_call_moves_nothing_a_reader_sees() {
        let token = CancelToken::new();
        token.cancel();
        let cancels = [
            PassOptions {
                cancel: Some(token),
                deadline: None,
            },
            PassOptions {
                cancel: None,
                deadline: Some(Deadline::after(Duration::ZERO)),
            },
        ];
        let mut twin = violating_engine(5, 1.0);
        twin.backward_tns();
        let want = bits(&twin.arc_gradients());
        assert!(want.iter().any(|&g| f64::from_bits(g) != 0.0));
        for lse_current in [false, true] {
            for opts in &cancels {
                let mut eng = violating_engine(5, 1.0);
                let mut session = eng.begin_session();
                session.propagate().expect("propagate");
                session.commit().expect("commit");
                if lse_current {
                    eng.forward_lse();
                }
                let n_nodes = eng.num_nodes() as u32;
                let epoch = eng.epoch();
                let image = eng.undo_image();
                let snap = snapshot_bits(&eng.snapshot(), n_nodes);

                let stopped_in = if lse_current {
                    Kernel::Backward
                } else {
                    Kernel::ForwardLse
                };
                match eng.try_backward_tns(opts) {
                    Err(InstaError::Cancelled { kernel, .. }) => assert_eq!(kernel, stopped_in),
                    other => panic!("expected a cancel, got {other:?}"),
                }
                assert_eq!(eng.epoch(), epoch);
                assert!(eng.undo_image() == image, "lse current: {lse_current}");
                assert_eq!(snapshot_bits(&eng.snapshot(), n_nodes), snap);

                eng.try_backward_tns(&PassOptions::default())
                    .expect("an uncancelled call");
                assert_eq!(bits(&eng.arc_gradients()), want);
            }
        }
    }

    /// A NaN slack refuses the call with the session layer's numeric
    /// error, before any differentiable pass runs.
    #[test]
    fn a_nan_slack_refuses_the_gradient_call() {
        let mut eng = violating_engine(6, 1.0);
        eng.propagate();
        // The kernels keep NaN out of a report, so the poison goes into
        // the engine's own report after the pass.
        let report = eng.state.report.as_mut().expect("propagated");
        report.slacks[0] = f64::NAN;
        let lse = eng.validity.lse_current();
        let err = eng
            .try_backward_tns(&PassOptions::default())
            .expect_err("a NaN slack must be refused");
        assert!(matches!(err, InstaError::Numeric { .. }), "{err}");
        assert_eq!(err.category(), "numeric");
        assert_eq!(eng.validity.lse_current(), lse, "no LSE pass ran");
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
