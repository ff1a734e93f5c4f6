//! Hold (early/min) propagation in the INSTA engine — engine parity with
//! the reference's hold analysis, beyond the paper's setup-only scope.
//!
//! The min pass is the setup pass with two things swapped: it runs the
//! shared full-pass driver ([`crate::forward::forward`]) in its `MIN`
//! instantiation, and it seeds the early launch arrivals of
//! [`HoldAttributes`]. `MIN` orders candidates by **negated early
//! corners** (`-(mean − N_σ·σ)`), so the same unique-startpoint Top-K
//! selection keeps the *smallest* early arrivals. Everything else — the
//! level loop on [`InstaConfig::n_threads`] threads through the level
//! runner ([`crate::parallel`]), rows for merge nodes only behind live
//! counts, virtual queues computed where they are read
//! ([`crate::forward::queue_of`], here in its `MIN` order) — is the
//! driver's; hold has no level loop of its own. Endpoint
//! hold checks then mirror the reference: the earliest arrival must not
//! beat the late capture edge plus the hold margin, with CPPR credit
//! *reducing* the requirement.
//!
//! The pass overwrites the shared Top-K rows in the order of negated early
//! corners ([`State::early`]; a corner itself is never stored, the hold
//! check recomputes it per entry) and leaves them marked out of sync, so
//! point reads ([`InstaEngine::arrival_at`]) answer `None` until the next
//! setup pass.
//!
//! [`InstaConfig::n_threads`]: crate::engine::InstaConfig::n_threads

use crate::engine::{InstaEngine, State, Static};
use crate::forward::{forward, pass_fields, queue_of, seed_queues};
use crate::metrics::InstaReport;
use crate::parallel::VirtualQueue;
use crate::stat;
use crate::topk::NO_SP;
use insta_refsta::export::NO_LEAF;
use insta_refsta::{EpId, SpId};

/// Hold-side attributes the engine needs beyond the setup snapshot:
/// per-startpoint early launch arrivals and per-endpoint hold
/// requirements. Produced by [`hold_attributes`] from a reference engine.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldAttributes {
    /// Early launch mean per startpoint per transition (ps).
    pub source_mean: Vec<[f64; 2]>,
    /// Launch sigma per startpoint per transition (ps).
    pub source_sigma: Vec<[f64; 2]>,
    /// Hold requirement per endpoint *before* CPPR credit:
    /// `capture_late + hold_margin` (ps); `NEG_INFINITY` for
    /// hold-unconstrained endpoints (primary outputs).
    pub required_base: Vec<f64>,
}

/// Extracts hold attributes from a timed reference engine (the hold-side
/// counterpart of the setup export).
pub fn hold_attributes(
    design: &insta_netlist::Design,
    golden: &insta_refsta::RefSta,
) -> HoldAttributes {
    use insta_liberty::{ArcKind, Transition};
    let cfg = golden.config();
    let mut source_mean = Vec::with_capacity(golden.sp_infos().len());
    let mut source_sigma = Vec::with_capacity(golden.sp_infos().len());
    for sp in golden.sp_infos() {
        match sp.flop.and_then(|f| golden.clock().flop(f).copied()) {
            Some(fc) => {
                let lc = design.lib_cell_of(sp.flop.expect("clocked flop"));
                let launch = lc
                    .arcs()
                    .iter()
                    .find(|a| a.kind == ArcKind::Launch)
                    .expect("flop has a launch arc");
                let load = design.driver_load_ff(sp.pin);
                let mut mean = [0.0; 2];
                let mut sigma = [0.0; 2];
                for tr in Transition::BOTH {
                    let d = launch.delay(tr).lookup(fc.slew, load);
                    let s = launch.sigma_coeff * d;
                    mean[tr.index()] = fc.mean * cfg.derate_early + d;
                    sigma[tr.index()] = (fc.sigma * fc.sigma + s * s).sqrt();
                }
                source_mean.push(mean);
                source_sigma.push(sigma);
            }
            None => {
                source_mean.push([cfg.input_delay_ps; 2]);
                source_sigma.push([0.0; 2]);
            }
        }
    }
    let required_base = golden
        .ep_infos()
        .iter()
        .map(|ep| match ep.capture.and_then(|f| golden.clock().flop(f).copied()) {
            Some(fc) => {
                let lc = design.lib_cell_of(ep.capture.expect("capture flop"));
                let hold_margin = lc
                    .arcs()
                    .iter()
                    .find(|a| a.kind == ArcKind::Hold)
                    .map(|a| a.delay(Transition::Rise).lookup(fc.slew, 0.0))
                    .unwrap_or(0.0);
                fc.mean * cfg.derate_late + cfg.n_sigma * fc.sigma + hold_margin
            }
            None => f64::NEG_INFINITY,
        })
        .collect();
    HoldAttributes {
        source_mean,
        source_sigma,
        required_base,
    }
}

impl InstaEngine {
    /// Runs the hold (min) forward pass and evaluates hold checks.
    ///
    /// Reuses the setup snapshot's arc delays and CPPR arrays; the
    /// hold-specific launch arrivals and requirements come from `attrs`.
    /// Returns a report in the same shape as the setup report (slacks per
    /// endpoint, WNS/TNS over hold violations).
    ///
    /// A data-parallel worker panic is contained as in
    /// [`try_propagate`](InstaEngine::try_propagate): the level is re-run
    /// serially, bit-identically, and the incident is recorded in
    /// [`last_incident`](InstaEngine::last_incident) (as a
    /// [`Kernel::Forward`](crate::error::Kernel) incident — it is that
    /// kernel's level body).
    ///
    /// # Panics
    ///
    /// Panics if `attrs` does not cover every startpoint and endpoint, or
    /// if a worker panic could not be contained, exactly as
    /// [`propagate`](InstaEngine::propagate) does.
    pub fn propagate_hold(&mut self, attrs: &HoldAttributes) -> InstaReport {
        assert_eq!(
            attrs.source_mean.len(),
            self.st.sources.len(),
            "hold attributes must cover every startpoint"
        );
        assert_eq!(
            attrs.required_base.len(),
            self.st.endpoints.len(),
            "hold attributes must cover every endpoint"
        );
        self.last_incident = None;
        // The min pass clobbers the setup Top-K arrays; the report stays.
        self.validity.begin_full_pass();
        self.trace.begin("hold");
        // No level profile: `forward.kernel_ms` stays the setup kernel's.
        let mut fallbacks = 0;
        let res = forward::<true>(
            &self.st,
            &mut self.state,
            self.cfg.n_threads,
            None,
            None,
            &|state, nodes| seed_early_launches(&self.st, state, attrs, nodes),
            &mut fallbacks,
        );
        self.trace.end_with(&pass_fields(&res, fallbacks));
        if let Err(e) = self.settle(res) {
            panic!("propagate_hold failed: {e}");
        }
        evaluate_hold(&self.st, &self.state, attrs, self.cfg.cppr)
    }
}

/// Makes the early launch arrival of every startpoint whose node lies in
/// `nodes` the one entry of its queues (the hold counterpart of
/// [`crate::forward::seed_sources`]).
fn seed_early_launches(
    st: &Static,
    state: &mut State,
    attrs: &HoldAttributes,
    nodes: std::ops::Range<usize>,
) {
    for (sp_idx, s) in st.sources.iter().enumerate() {
        if nodes.contains(&(s.node as usize)) {
            let (mean, sigma) = (attrs.source_mean[sp_idx], attrs.source_sigma[sp_idx]);
            seed_queues(st, state, s.node as usize, s.sp, mean, sigma);
        }
    }
}

/// Hold checks from the min-mode state.
pub(crate) fn evaluate_hold(
    st: &Static,
    state: &State,
    attrs: &HoldAttributes,
    cppr: bool,
) -> InstaReport {
    let n_ep = st.endpoints.len();
    let mut slacks = vec![f64::INFINITY; n_ep];
    let mut arrivals = vec![f64::INFINITY; n_ep];
    let mut requireds = vec![f64::NEG_INFINITY; n_ep];
    let mut worst_sp = vec![NO_SP; n_ep];
    let mut worst_rf = vec![0u8; n_ep];
    let mut wns = f64::INFINITY;
    let mut tns = 0.0;
    let mut viol = 0usize;
    let mut scratch = VirtualQueue::new(state.k);
    for (i, ep) in st.endpoints.iter().enumerate() {
        let base = attrs.required_base[i];
        if base == f64::NEG_INFINITY {
            continue; // hold-unconstrained (primary output)
        }
        let v = ep.node as usize;
        for rf in 0..2usize {
            let q = queue_of::<true>(st, state.lanes(), v, rf, &mut scratch);
            for (sp, mean, sigma) in q.entries() {
                if st
                    .exceptions
                    .is_false(SpId(sp), EpId(ep.ep))
                {
                    continue;
                }
                let mut required = base;
                if cppr && st.sp_leaf[sp as usize] != NO_LEAF && ep.leaf != NO_LEAF {
                    required -= st.cppr_credit(st.sp_leaf[sp as usize], ep.leaf);
                }
                // The queues are ordered by the negated early corner.
                let early = -stat::corner_min(mean, sigma, st.n_sigma);
                let slack = early - required;
                if slack < slacks[i] {
                    slacks[i] = slack;
                    arrivals[i] = early;
                    requireds[i] = required;
                    worst_sp[i] = sp;
                    worst_rf[i] = rf as u8;
                }
            }
        }
        if slacks[i] < 0.0 {
            tns += slacks[i];
            viol += 1;
        }
        if slacks[i] < wns {
            wns = slacks[i];
        }
    }
    InstaReport {
        wns_ps: wns,
        tns_ps: tns,
        n_violations: viol,
        slacks,
        arrivals,
        requireds,
        worst_sp,
        worst_rf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{InstaConfig, InstaEngine};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    fn setup(seed: u64) -> (insta_netlist::Design, RefSta, InstaEngine, HoldAttributes) {
        let d = generate_design(&GeneratorConfig::small("ihold", seed));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let attrs = hold_attributes(&d, &sta);
        let eng = InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        (d, sta, eng, attrs)
    }

    /// INSTA's hold slacks match the reference hold analysis exactly at
    /// covering K.
    #[test]
    fn hold_matches_reference_exactly() {
        let (d, mut sta, mut eng, attrs) = setup(3);
        let golden = sta.hold_update(&d);
        let report = eng.propagate_hold(&attrs);
        assert_eq!(report.slacks.len(), golden.endpoints.len());
        for (i, g) in golden.endpoints.iter().enumerate() {
            if g.slack_ps.is_finite() {
                assert!(
                    (report.slacks[i] - g.slack_ps).abs() < 1e-9,
                    "ep {i}: insta {} vs golden {}",
                    report.slacks[i],
                    g.slack_ps
                );
            } else {
                assert!(!report.slacks[i].is_finite());
            }
        }
        assert!((report.wns_ps - golden.wns_ps).abs() < 1e-9);
        assert!((report.tns_ps - golden.tns_ps).abs() < 1e-9);
    }

    /// The min-path (earliest) arrivals behind the hold slacks match the
    /// reference hold analysis on fixed-seed designs — the hold check is
    /// built on the right arrivals, not just the right differences.
    #[test]
    fn hold_min_arrivals_match_reference() {
        for seed in [11, 13] {
            let (d, mut sta, mut eng, attrs) = setup(seed);
            let golden = sta.hold_update(&d);
            let report = eng.propagate_hold(&attrs);
            let mut checked = 0usize;
            for (i, g) in golden.endpoints.iter().enumerate() {
                if g.slack_ps.is_finite() {
                    checked += 1;
                    assert!(
                        (report.arrivals[i] - g.arrival_ps).abs() < 1e-9,
                        "seed {seed} ep {i}: min arrival {} vs golden {}",
                        report.arrivals[i],
                        g.arrival_ps
                    );
                }
            }
            assert!(checked > 0, "seed {seed}: no constrained hold endpoint");
        }
    }

    /// A batched setup evaluation interleaved with hold passes stays
    /// bit-correct: `propagate_hold` repurposes the Top-K buffers (and
    /// desyncs them), so `evaluate_batch` must re-sync its shared base
    /// before sweeping — scenario results before and after a hold pass
    /// are bit-identical, and the hold report is unaffected by a batch.
    #[test]
    fn batched_evaluation_is_bit_stable_across_hold_passes() {
        use crate::batch::DeltaSet;
        use insta_refsta::eco::ArcDelta;

        let (_d, sta, mut eng, attrs) = setup(9);
        eng.propagate();
        let delays = sta.delays();
        let arc = (delays.mean.len() / 3) as u32;
        let mean = delays.mean[arc as usize];
        let scenarios = vec![
            DeltaSet::default(),
            DeltaSet::from(vec![ArcDelta {
                arc,
                mean: [mean[0] + 25.0, mean[1] + 25.0],
                sigma: delays.sigma[arc as usize],
            }]),
        ];
        let bits = |reports: &[crate::batch::ScenarioReport]| -> Vec<u64> {
            reports
                .iter()
                .flat_map(|r| {
                    r.outcome
                        .as_ref()
                        .expect("clean scenario")
                        .slacks
                        .iter()
                        .map(|s| s.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let before = bits(&eng.evaluate_batch(&scenarios));
        let hold_a = eng.propagate_hold(&attrs);
        // The hold pass overwrote the shared base; the batch re-syncs.
        let after = bits(&eng.evaluate_batch(&scenarios));
        assert_eq!(before, after, "hold pass leaked into batched setup results");
        // And the batch leaves hold analysis undisturbed in turn.
        let hold_b = eng.propagate_hold(&attrs);
        assert_eq!(hold_a.slacks, hold_b.slacks);
    }

    /// Setup state is restored by re-propagating after a hold pass (the
    /// two modes share buffers by design).
    #[test]
    fn setup_propagation_recovers_after_hold() {
        let (_d, sta, mut eng, attrs) = setup(5);
        let setup_before = eng.propagate().clone();
        eng.propagate_hold(&attrs);
        let setup_after = eng.propagate().clone();
        assert_eq!(setup_before.slacks, setup_after.slacks);
        let _ = sta;
    }

    /// Hold and setup disagree on what is critical: the hold-worst
    /// endpoint is generally not the setup-worst endpoint.
    #[test]
    fn hold_is_a_distinct_analysis() {
        let (_d, _sta, mut eng, attrs) = setup(7);
        let setup = eng.propagate().clone();
        let hold = eng.propagate_hold(&attrs);
        // Both must be populated over the same endpoints.
        assert_eq!(setup.slacks.len(), hold.slacks.len());
        // At least one endpoint orders differently (overwhelmingly likely
        // on any non-trivial design; this is a structure check, not a
        // tautology).
        let differs = setup
            .slacks
            .iter()
            .zip(&hold.slacks)
            .any(|(a, b)| a.is_finite() && b.is_finite() && (a - b).abs() > 1.0);
        assert!(differs, "hold slacks must not mirror setup slacks");
    }
}
