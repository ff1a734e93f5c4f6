//! Hold (early/min) propagation in the INSTA engine — engine parity with
//! the reference's hold analysis, beyond the paper's setup-only scope.
//!
//! The min pass is the setup pass with two things swapped: it runs the
//! shared full-pass driver (`crate::forward::forward`) in its `MIN`
//! instantiation, and it seeds the early launch arrivals of
//! [`HoldAttributes`] — like the setup snapshot, an export of the
//! reference engine ([`hold_attributes`]); the engine computes no delay.
//! `MIN` orders candidates by **negated early corners**
//! (`-(mean − N_σ·σ)`), so the same unique-startpoint Top-K selection
//! keeps the *smallest* early arrivals. Everything else — the
//! level loop on [`InstaConfig::n_threads`] threads through the level
//! runner ([`crate::parallel`]), rows for merge nodes only, each sized by
//! the startpoints that can reach it (a hold pass fills the same
//! capacities as setup: they depend on the graph, not on the launches),
//! virtual queues computed where they are read
//! (`crate::forward::queue_of`, here in its `MIN` order) — is the
//! driver's; hold has no level loop of its own. Endpoint
//! hold checks then mirror the reference: the earliest arrival must not
//! beat the late capture edge plus the hold margin, with CPPR credit
//! *reducing* the requirement.
//!
//! Like every pass it computes only the nodes that reach an endpoint
//! (`crate::forward`, "What a pass computes"): a node with no path to an
//! endpoint — a quarter of the generated designs — holds no entry. The
//! rows are overwritten in the order of negated early corners
//! (`State::early`; a corner itself is never stored, the hold check
//! recomputes it per entry) and left marked out of sync, so point reads
//! ([`InstaEngine::arrival_at`]) answer `None` until the next setup pass,
//! which rewrites every row. The `hold` span's `live` and `dead` fields
//! count the rows merged and skipped.
//!
//! [`InstaConfig::n_threads`]: crate::engine::InstaConfig::n_threads

use crate::engine::{InstaEngine, State, Static};
use crate::error::InstaError;
use crate::forward::{forward, pass_fields, queue_of, Tally};
use crate::metrics::InstaReport;
use crate::parallel::{PassOptions, VirtualQueue};
use crate::stat;
use crate::validate::{Issue, ValidationReport};
use insta_refsta::export::NO_LEAF;
use insta_refsta::{EpId, SpId};

/// The hold-side export the pass takes, re-exported from the reference
/// engine's export module, where [`RefSta::hold_update`] reads the same
/// values.
///
/// [`RefSta::hold_update`]: insta_refsta::RefSta::hold_update
pub use insta_refsta::export::{hold_attributes, HoldAttributes};

impl InstaEngine {
    /// Runs the hold (min) forward pass and evaluates hold checks:
    /// [`try_propagate_hold`](Self::try_propagate_hold) with default
    /// options.
    ///
    /// # Panics
    ///
    /// Panics where `try_propagate_hold` returns an error: attributes that
    /// do not cover every startpoint and endpoint, or a worker panic that
    /// could not be contained.
    pub fn propagate_hold(&mut self, attrs: &HoldAttributes) -> InstaReport {
        self.try_propagate_hold(attrs, &PassOptions::default())
            .unwrap_or_else(|e| panic!("propagate_hold failed: {e}"))
    }

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
    /// # Errors
    ///
    /// [`InstaError::Validate`] when `attrs` does not cover every
    /// startpoint and endpoint, before anything is written;
    /// [`InstaError::Cancelled`] when `opts` fires (polled once per level);
    /// [`InstaError::Runtime`] when a worker panic's serial retry fails
    /// too. After a pass error the Top-K rows are out of sync until the
    /// next setup pass, as after any hold pass.
    pub fn try_propagate_hold(
        &mut self,
        attrs: &HoldAttributes,
        opts: &PassOptions,
    ) -> Result<InstaReport, InstaError> {
        let (n_sp, n_ep) = (self.st.sources.len(), self.st.endpoints.len());
        let mut issues = ValidationReport::default();
        for (what, got, want) in [
            ("startpoint launch means", attrs.source_mean.len(), n_sp),
            ("startpoint launch sigmas", attrs.source_sigma.len(), n_sp),
            ("endpoint requirements", attrs.required_base.len(), n_ep),
        ] {
            if got != want {
                let message = format!("hold attributes carry {got} {what}, the engine has {want}");
                issues.record(Issue::BadConfig { message });
            }
        }
        if issues.total() > 0 {
            return Err(InstaError::Validate(issues));
        }
        self.last_incident = None;
        // The min pass clobbers the setup Top-K arrays; the report stays.
        self.validity.begin_full_pass();
        self.trace.begin("hold");
        // No level profile: `forward.kernel_ms` stays the setup kernel's.
        let mut tally = Tally::default();
        let res = forward::<true>(
            &self.st,
            &mut self.state,
            self.cfg.n_threads,
            opts,
            None,
            &|i| (attrs.source_mean[i], attrs.source_sigma[i]),
            &mut tally,
        );
        self.trace.end_with(&pass_fields(&res, &tally));
        self.settle(res)?;
        Ok(evaluate_hold(&self.st, &self.state, attrs, self.cfg.cppr))
    }
}

/// Hold checks from the min-mode state: each endpoint's worst check, then
/// WNS, TNS and #vio reduced like every report's.
pub(crate) fn evaluate_hold(
    st: &Static,
    state: &State,
    attrs: &HoldAttributes,
    cppr: bool,
) -> InstaReport {
    let n_ep = st.endpoints.len();
    let mut report = InstaReport {
        arrivals: vec![f64::INFINITY; n_ep],
        requireds: vec![f64::NEG_INFINITY; n_ep],
        ..InstaReport::blank(n_ep)
    };
    let mut scratch = VirtualQueue::new(state.k);
    for (i, ep) in st.endpoints.iter().enumerate() {
        let base = attrs.required_base[i];
        if base == f64::NEG_INFINITY {
            continue; // hold-unconstrained (primary output)
        }
        let v = ep.node as usize;
        for rf in 0..2usize {
            let q = queue_of::<true>(st, state.lanes(st), v, rf, &mut scratch);
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
                if slack < report.slacks[i] {
                    report.slacks[i] = slack;
                    report.arrivals[i] = early;
                    report.requireds[i] = required;
                    report.worst_sp[i] = sp;
                    report.worst_rf[i] = rf as u8;
                }
            }
        }
    }
    report.reduce(None);
    report
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
    /// desyncs them), so `evaluate` must re-sync its shared base
    /// before sweeping — scenario results before and after a hold pass
    /// are bit-identical, and the hold report is unaffected by a batch.
    #[test]
    fn batched_evaluation_is_bit_stable_across_hold_passes() {
        use crate::batch::Scenario;
        use insta_refsta::eco::ArcDelta;

        let (_d, sta, mut eng, attrs) = setup(9);
        eng.propagate();
        let delays = sta.delays();
        let arc = (delays.mean.len() / 3) as u32;
        let mean = delays.mean[arc as usize];
        let scenarios = vec![
            Scenario::default(),
            Scenario::from(vec![ArcDelta {
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
        let before = bits(&eng.evaluate(&scenarios, &PassOptions::default()).scenarios);
        let hold_a = eng.propagate_hold(&attrs);
        // The hold pass overwrote the shared base; the batch re-syncs.
        let after = bits(&eng.evaluate(&scenarios, &PassOptions::default()).scenarios);
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

    /// The fallible hold pass: short attributes are a typed error before
    /// anything is written, a pre-fired token cancels at the first level
    /// poll, and after either one the next setup pass lands on a fresh
    /// twin's bits.
    #[test]
    fn hold_errors_are_typed_and_leave_setup_recoverable() {
        use crate::parallel::PassOptions;
        let (_d, _sta, mut eng, attrs) = setup(15);
        let fresh = eng.clone().propagate().clone();
        eng.propagate();
        let reached = (0..eng.num_nodes() as u32)
            .find(|&v| eng.arrival_at(v, 0).is_some())
            .expect("a reached node");
        let bits = |r: &InstaReport| r.slacks.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let short_sp = HoldAttributes {
            source_mean: attrs.source_mean[1..].to_vec(),
            ..attrs.clone()
        };
        let short_ep = HoldAttributes {
            required_base: attrs.required_base[1..].to_vec(),
            ..attrs.clone()
        };
        for short in [short_sp, short_ep] {
            let err = eng
                .try_propagate_hold(&short, &PassOptions::default())
                .expect_err("attributes that miss one entry");
            assert_eq!(err.category(), "validate", "{err}");
            // Nothing was written: setup reads still answer.
            assert!(eng.arrival_at(reached, 0).is_some());
        }
        let cancel = insta_support::timer::CancelToken::new();
        cancel.cancel();
        let opts = PassOptions {
            cancel: Some(cancel),
            deadline: None,
        };
        let err = eng
            .try_propagate_hold(&attrs, &opts)
            .expect_err("pre-fired token");
        assert!(
            matches!(err, InstaError::Cancelled { level: 1, .. }),
            "{err:?}"
        );
        assert_eq!(bits(eng.propagate()), bits(&fresh));
        let hold = eng
            .try_propagate_hold(&attrs, &PassOptions::default())
            .expect("clean");
        assert_eq!(bits(&hold), bits(&eng.clone().propagate_hold(&attrs)));
        assert_eq!(bits(eng.propagate()), bits(&fresh));
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
