//! Endpoint evaluation: slack per endpoint with SP-matched required times,
//! CPPR credit, exceptions, and the WNS/TNS design metrics.
//!
//! This is where the unique-startpoint Top-K pays off (paper §III-C): the
//! startpoint contributing the maximum arrival may not be the startpoint
//! with the worst slack once per-SP CPPR credit shifts required times, so
//! the evaluation scans all K entries per rise/fall and minimizes
//! `required(sp) − arrival(sp)`.

use crate::engine::{Queue, State, Static};
use crate::forward::queue_of;
use crate::parallel::VirtualQueue;
use crate::stat;
use crate::topk::NO_SP;
use insta_refsta::{EpId, SpId};

/// The INSTA endpoint report.
#[derive(Debug, Clone, PartialEq)]
pub struct InstaReport {
    /// Worst negative slack (ps).
    pub wns_ps: f64,
    /// Total negative slack (ps, ≤ 0).
    pub tns_ps: f64,
    /// Number of violating endpoints.
    pub n_violations: usize,
    /// Worst slack per endpoint (indexed by endpoint id); `INFINITY` for
    /// unreached endpoints.
    pub slacks: Vec<f64>,
    /// Worst corner arrival per endpoint.
    pub arrivals: Vec<f64>,
    /// Required time used for the worst slack per endpoint.
    pub requireds: Vec<f64>,
    /// Worst startpoint per endpoint ([`NO_SP`] when unreached).
    pub worst_sp: Vec<u32>,
    /// Worst transition per endpoint (0 = rise, 1 = fall).
    pub worst_rf: Vec<u8>,
}

impl InstaReport {
    /// Slack of an endpoint.
    pub fn slack(&self, ep: EpId) -> f64 {
        self.slacks[ep.index()]
    }

    /// The report under a mode mask: per-endpoint entries are kept
    /// verbatim (a disabled endpoint's slack stays inspectable), but
    /// WNS/TNS/violations are re-accumulated in endpoint order skipping
    /// disabled endpoints — the one reduction every report ends in, so
    /// masking after the fact is bit-identical to masking in a batched
    /// lane.
    pub fn masked(&self, mask: &crate::batch::ModeMask) -> InstaReport {
        let mut out = self.clone();
        out.reduce(Some(mask));
        out
    }

    /// Re-accumulates WNS/TNS/violations from the slack vector, in
    /// endpoint order, skipping endpoints `mask` disables. Every producer
    /// of a report ends here, so a report patched in place carries the
    /// aggregate bits of one evaluated from scratch.
    pub(crate) fn reduce(&mut self, mask: Option<&crate::batch::ModeMask>) {
        (self.wns_ps, self.tns_ps, self.n_violations) = aggregate(&self.slacks, mask);
    }

    /// A report of `n_ep` unreached endpoints, for a producer that sets
    /// every endpoint and then reduces.
    pub(crate) fn blank(n_ep: usize) -> InstaReport {
        InstaReport {
            wns_ps: f64::INFINITY,
            tns_ps: 0.0,
            n_violations: 0,
            slacks: vec![f64::INFINITY; n_ep],
            arrivals: vec![f64::NEG_INFINITY; n_ep],
            requireds: vec![f64::INFINITY; n_ep],
            worst_sp: vec![NO_SP; n_ep],
            worst_rf: vec![0u8; n_ep],
        }
    }

    /// Evaluates endpoint `i` from its node's two queues (rise, fall),
    /// each corner being the late corner of the entry.
    #[inline]
    pub(crate) fn set_endpoint(
        &mut self,
        st: &Static,
        i: usize,
        queues: [Queue<'_>; 2],
        cppr: bool,
    ) {
        let ep = &st.endpoints[i];
        let ep_id = EpId(ep.ep);
        let (mut slack, mut arrival, mut required) =
            (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY);
        let (mut worst_sp, mut worst_rf) = (NO_SP, 0u8);
        for (rf, q) in queues.into_iter().enumerate() {
            for (sp, mean, sigma) in q.entries() {
                let sp_id = SpId(sp);
                if st.exceptions.is_false(sp_id, ep_id) {
                    continue;
                }
                let mut req = ep.required_base;
                let mcp = st.exceptions.multicycle_factor(sp_id, ep_id);
                if mcp > 1 {
                    req += (mcp - 1) as f64 * st.period_ps;
                }
                if cppr {
                    req += st.cppr_credit(st.sp_leaf[sp as usize], ep.leaf);
                }
                let corner = stat::corner_late(mean, sigma, st.n_sigma);
                let s = req - corner;
                if s < slack {
                    (slack, arrival, required) = (s, corner, req);
                    (worst_sp, worst_rf) = (sp, rf as u8);
                }
            }
        }
        self.slacks[i] = slack;
        self.arrivals[i] = arrival;
        self.requireds[i] = required;
        self.worst_sp[i] = worst_sp;
        self.worst_rf[i] = worst_rf;
    }
}

/// WNS, TNS and violations over `slacks`, accumulated in endpoint order and
/// skipping the endpoints `mask` disables (an infinite slack — an
/// endpoint nothing reaches — counts toward neither).
pub(crate) fn aggregate(
    slacks: &[f64],
    mask: Option<&crate::batch::ModeMask>,
) -> (f64, f64, usize) {
    let mut wns = f64::INFINITY;
    let mut tns = 0.0;
    let mut viol = 0usize;
    let mut off = mask.map_or(&[][..], crate::batch::ModeMask::disabled).iter().peekable();
    for (i, &s) in slacks.iter().enumerate() {
        if off.next_if_eq(&&i).is_some() {
            continue;
        }
        if s < 0.0 {
            tns += s;
            viol += 1;
        }
        if s < wns {
            wns = s;
        }
    }
    (wns, tns, viol)
}

/// Evaluates endpoint slacks from the current Top-K state.
pub(crate) fn evaluate(st: &Static, state: &State, cppr: bool) -> InstaReport {
    let mut report = InstaReport::blank(st.endpoints.len());
    refresh(st, state, &mut report, |_| true, cppr);
    report
}

/// Re-evaluates the endpoints whose node `selected` names, in place, and
/// re-reduces the aggregates. With every endpoint selected
/// this *is* [`evaluate`]; a cone update — and a batched lane, which
/// starts from a copy of its base's report — selects the nodes it
/// recomputed.
pub(crate) fn refresh(
    st: &Static,
    state: &State,
    report: &mut InstaReport,
    selected: impl Fn(u32) -> bool,
    cppr: bool,
) {
    // An endpoint is never virtual, so the accessor never touches these.
    let (mut rise, mut fall) = (VirtualQueue::default(), VirtualQueue::default());
    let lanes = state.lanes(st);
    for (i, ep) in st.endpoints.iter().enumerate() {
        if selected(ep.node) {
            let v = ep.node as usize;
            let queues = [
                queue_of::<false>(st, lanes, v, 0, &mut rise),
                queue_of::<false>(st, lanes, v, 1, &mut fall),
            ];
            report.set_endpoint(st, i, queues, cppr);
        }
    }
    report.reduce(None);
}

/// Runtime counters for observability: session lifecycle, batches, drift
/// odometer, and incident-ring totals — the `stats.engine` section, one
/// row per field (see [`rows`](Self::rows)).
///
/// Every field but two is monotonic — a rolled-back session still
/// *happened* — so dashboards can difference consecutive scrapes. The two
/// drift fields are gauges: [`reset_drift`](crate::engine::InstaEngine::reset_drift)
/// zeroes them and a rolled-back session restores them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineCounters {
    /// Committed-session count; bumped once per successful
    /// [`commit`](crate::session::TimingSession::commit).
    pub epoch: u64,
    /// Sessions opened via `begin_session`.
    pub sessions_begun: u64,
    /// Sessions committed.
    pub sessions_committed: u64,
    /// Sessions rolled back (explicitly, on poison, or on drop-while-open);
    /// excludes cancellations.
    pub sessions_rolled_back: u64,
    /// Sessions rolled back because a cancel token fired or a deadline
    /// expired.
    pub sessions_cancelled: u64,
    /// Total incremental updates (`reannotate` / `update_timing`).
    pub incremental_updates: u64,
    /// Re-annotation batches since the last
    /// [`reset_drift`](crate::engine::InstaEngine::reset_drift).
    pub drift_updates: u64,
    /// Touched-arc mass (Σ batch-size / graph-arcs) since the last drift
    /// reset.
    pub drift_mass: f64,
    /// Runtime incidents ever recorded (recovered and fatal).
    pub incidents_total: u64,
    /// Incidents evicted from the bounded ring
    /// ([`IncidentLog`](crate::error::IncidentLog)).
    pub incidents_dropped: u64,
    /// [`evaluate`](crate::engine::InstaEngine::evaluate) calls.
    pub batches: u64,
    /// Scenarios submitted across all batches.
    pub batch_scenarios: u64,
    /// Scenarios quarantined inside a batch (returned an error while
    /// sibling scenarios completed normally).
    pub batch_quarantined: u64,
    /// Batched lanes that carried a non-identity
    /// [`CornerTransform`](crate::batch::CornerTransform).
    pub mcmm_corner_lanes: u64,
    /// Scenarios answered from a sibling lane's propagation by the
    /// `(deltas, corner)` dedup — the saved sweeps of a C × M sweep.
    pub mcmm_deduped: u64,
}

impl EngineCounters {
    /// The counters as `(name, value)` rows, in field order — the
    /// `stats.engine` surface. `drift_updates` and `drift_mass` are gauges;
    /// every other row is monotonic.
    pub fn rows(&self) -> [(&'static str, f64); 15] {
        // Exhaustive: a field added without a row does not compile.
        let EngineCounters {
            epoch,
            sessions_begun,
            sessions_committed,
            sessions_rolled_back,
            sessions_cancelled,
            incremental_updates,
            drift_updates,
            drift_mass,
            incidents_total,
            incidents_dropped,
            batches,
            batch_scenarios,
            batch_quarantined,
            mcmm_corner_lanes,
            mcmm_deduped,
        } = *self;
        [
            ("epoch", epoch as f64),
            ("sessions_begun", sessions_begun as f64),
            ("sessions_committed", sessions_committed as f64),
            ("sessions_rolled_back", sessions_rolled_back as f64),
            ("sessions_cancelled", sessions_cancelled as f64),
            ("incremental_updates", incremental_updates as f64),
            ("drift_updates", drift_updates as f64),
            ("drift_mass", drift_mass),
            ("incidents_total", incidents_total as f64),
            ("incidents_dropped", incidents_dropped as f64),
            ("batches", batches as f64),
            ("batch_scenarios", batch_scenarios as f64),
            ("batch_quarantined", batch_quarantined as f64),
            ("mcmm_corner_lanes", mcmm_corner_lanes as f64),
            ("mcmm_deduped", mcmm_deduped as f64),
        ]
    }
}

impl crate::engine::InstaEngine {
    /// A copy of the engine's observability counters.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            epoch: self.epoch,
            drift_updates: self.drift.updates,
            drift_mass: self.drift.mass,
            incidents_total: self.incidents.total(),
            incidents_dropped: self.incidents.dropped(),
            ..self.counters
        }
    }

    /// The last evaluation report.
    ///
    /// # Panics
    ///
    /// Panics if [`propagate`](crate::engine::InstaEngine::propagate) has
    /// not been called yet.
    pub fn report(&self) -> &InstaReport {
        self.state
            .report
            .as_ref()
            .expect("call propagate() before report()")
    }

    /// The last report, if any.
    pub fn try_report(&self) -> Option<&InstaReport> {
        self.state.report.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{InstaConfig, InstaEngine};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    #[test]
    fn report_metrics_are_internally_consistent() {
        let d = generate_design(&GeneratorConfig::small("met", 3));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let mut eng = InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        let r = eng.propagate().clone();
        let tns: f64 = r.slacks.iter().map(|s| s.min(0.0)).sum();
        assert!((tns - r.tns_ps).abs() < 1e-9);
        let wns = r.slacks.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(wns, r.wns_ps);
        assert_eq!(
            r.n_violations,
            r.slacks.iter().filter(|&&s| s < 0.0).count()
        );
        for (i, &s) in r.slacks.iter().enumerate() {
            if s.is_finite() {
                assert!((r.requireds[i] - r.arrivals[i] - s).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn exceptions_flow_through_the_engine() {
        let d = generate_design(&GeneratorConfig::small("met", 5));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        let golden = sta.full_update(&d);
        let worst = golden
            .endpoints
            .iter()
            .min_by(|a, b| a.slack_ps.total_cmp(&b.slack_ps))
            .copied()
            .expect("endpoints");
        let sp = worst.worst_sp.expect("worst sp");
        sta.exceptions_mut().add_false_path(sp, worst.ep);
        sta.full_update(&d);
        let mut eng = InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        let r = eng.propagate().clone();
        // INSTA must agree with the golden engine under the exception.
        let g = sta.report().endpoints[worst.ep.index()];
        assert!((r.slacks[worst.ep.index()] - g.slack_ps).abs() < 1e-9);
        assert_ne!(r.worst_sp[worst.ep.index()], sp.0);
    }

    #[test]
    fn report_panics_before_propagate() {
        let d = generate_design(&GeneratorConfig::small("met", 7));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let eng = InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
        assert!(eng.try_report().is_none());
        let result = std::panic::catch_unwind(|| {
            let _ = eng.report();
        });
        assert!(result.is_err());
    }
}
