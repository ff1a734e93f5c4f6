//! Batched what-if evaluation: S scenarios scored against one engine state
//! and taken back (paper §IV-B — INSTA-Size scores its resize candidates
//! as batched what-if evaluations).
//!
//! [`InstaEngine::evaluate`] takes S [`Scenario`]s and returns one
//! [`ScenarioReport`] per scenario, bit-identical to S independent serial
//! `update_timing` sessions from the current engine state, each rolled
//! back, plus the worst-corner merge of them. There is no batch kernel and
//! no session. The module is a router over the two kernels the engine
//! already has, and every lane is one `Txn` that captures nothing and is
//! undone when dropped:
//!
//! * **A cone lane is a cone sweep taken back.** All scenarios diverge
//!   from the *same* synced base: the engine's live Top-K arrays and its
//!   report. A lane writes its deltas over the annotations, runs the
//!   session's own [`cone_sweep`](crate::incremental) in place, reads its
//!   report off the live arrays (a copy of the base report, refreshed on
//!   the recomputed nodes), and its transaction copies the overwritten
//!   k-slices and annotations back. A candidate costs its changed cone once
//!   forward and once as a memcpy, and nothing per node or per arc of the
//!   graph.
//! * **A corner is one full pass.** A [`CornerTransform`] re-annotates
//!   every arc, which is what the ordinary [`forward`](crate::forward)
//!   pass is for: each *distinct* non-identity corner gets one full pass
//!   over its transformed annotation table, built while the corner's group
//!   runs and dropped after it. A group whose lanes carry no deltas needs
//!   only that pass's report, so it runs the *window pass*
//!   (`window_pass`): each level is written into a small buffer and a
//!   row is kept, in a shared slot, only until the last level that reads
//!   it. A group with a delta-carrying lane needs the corner's whole row
//!   set as its cones' base, so its pass writes the kept scratch rows and
//!   its lanes are cone lanes over *that* base. C corners × S candidates
//!   cost C full passes + C·S cones.
//! * **A lane whose serial run is no cone update is a full pass too.** A
//!   lane with more distinct seeds than the cone's full-pass switch allows
//!   writes its deltas and runs one window pass for its report, and counts
//!   one incremental update as its serial twin does.
//!
//! **Only what an endpoint sees.** Like every pass (`crate::forward`,
//! "What a pass computes"), a call's passes and sweeps compute only the
//! nodes that reach an endpoint: a lane whose deltas all sit on arcs into
//! other nodes is its base's report. The `batch.sweep` span counts the
//! rows merged (`live`) and skipped (`dead`).
//!
//! **Why a lane equals its serial twin.** The cone sweep lands on the full
//! pass's bits for any base that is the full pass's output over the
//! annotations the cone starts from (induction over levels, see
//! [`crate::incremental`]). An identity lane's base is the engine's own
//! synced arrays, so lane ≡ `update_timing` of the same deltas. A corner
//! lane's base is the full pass over the corner table, so lane ≡ the full
//! pass over "corner table, then the lane's transformed deltas" — the
//! annotations [`scenario_twin_deltas`](InstaEngine::scenario_twin_deltas)
//! writes. A full-pass lane *is* that full pass, and a window pass is the
//! full pass's driver and level body reading its rows through a slot plan,
//! so its report has the full pass's bits.
//!
//! **The call leaves no trace.** The undo is unconditional: it runs after
//! a completed lane, a cancelled or failed sweep, a NaN slack, and from
//! the transaction's drop if anything unwinds. After an `evaluate` call
//! the engine's Top-K arrays (stale mean/sigma tails included),
//! annotations, report, validity ledger and LSE state are
//! their pre-call bits — the only state a call may write is the
//! base sync itself (identical to the caller running
//! [`propagate`](InstaEngine::propagate) first) and the monotonic batch
//! counters. A failed lane does not force the next update onto a full
//! pass.
//!
//! **Quarantine semantics.** A poisoned scenario — validation-rejected
//! deltas, a NaN slack, a cancelled or failed pass — is quarantined *per
//! scenario*: its `outcome` carries the same typed [`InstaError`] the
//! serial session would raise, while sibling scenarios complete
//! bit-identically to a clean run. A failed base sync, like a failed
//! corner base pass, gives every lane that needed it its own copy of the
//! error.
//!
//! **MCMM lanes.** A [`Scenario`] carries, besides its deltas, an optional
//! [`CornerTransform`] (a lane-local affine derate of every arc's `(μ, σ)`
//! annotation, composed *under* the scenario's own deltas) and an optional
//! [`ModeMask`] (per-mode endpoint exceptions: disabled endpoints keep
//! their slack in the report but contribute neither WNS nor TNS). A lane
//! with corner `C` and mode `M` is bit-identical to a serial session whose
//! annotations were pre-scaled by `C` and whose report was masked by `M`.
//! Mode is a report-time filter, so scenarios that agree on `(corner,
//! deltas)` share one lane, and every call merges a worst-corner slack per
//! endpoint.
//!
//! **It scores, it does not differentiate.** A report is all a lane
//! returns; ∂TNS/∂(arc delay) has one producer, the engine's own
//! [`try_backward_tns`](InstaEngine::try_backward_tns).

use crate::engine::{InstaEngine, State};
use crate::error::{InstaError, RuntimeIncident};
use crate::forward::{forward, source_launch, window_pass, Tally, Window};
use crate::incremental::{seed_cone, Txn};
use crate::metrics::InstaReport;
use crate::parallel::PassOptions;
use crate::validate::{Issue, ValidationReport};
use insta_refsta::eco::ArcDelta;
use insta_support::json::{FromJson, Json, JsonError};
use std::borrow::Cow;
use std::collections::HashMap;

/// The corner axis of an MCMM [`Scenario`]: a lane-local affine derate of
/// every arc annotation, `μ' = μ·mean_scale + mean_offset_ps` and
/// `σ' = max(0, σ·sigma_scale + sigma_offset_ps)`.
///
/// The transform models voltage/temperature scaling of the delay tables
/// (mean axis) and OCV derating of the variation (sigma axis). It applies
/// to *arc annotations only* — source launch distributions and endpoint
/// required times are corner-invariant here — and composes *under* the
/// scenario's deltas: a delta'd arc reads `C(delta)`, an untouched arc
/// reads `C(base)`.
///
/// The snapshot export carries a single arc class today, so one transform
/// covers the lane; per-arc-class tables slot in behind the same
/// `apply` seam when the exporter grows class ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerTransform {
    /// Multiplier on every arc-delay mean.
    pub mean_scale: f64,
    /// Offset added to every arc-delay mean, in ps.
    pub mean_offset_ps: f64,
    /// Multiplier on every arc-delay sigma.
    pub sigma_scale: f64,
    /// Offset added to every arc-delay sigma, in ps.
    pub sigma_offset_ps: f64,
}

impl Default for CornerTransform {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl CornerTransform {
    /// The no-op corner (a lane with it behaves as if it had none).
    pub const IDENTITY: CornerTransform = CornerTransform {
        mean_scale: 1.0,
        mean_offset_ps: 0.0,
        sigma_scale: 1.0,
        sigma_offset_ps: 0.0,
    };

    /// A pure scaling corner (no offsets).
    pub fn scale(mean_scale: f64, sigma_scale: f64) -> Self {
        CornerTransform {
            mean_scale,
            mean_offset_ps: 0.0,
            sigma_scale,
            sigma_offset_ps: 0.0,
        }
    }

    /// Whether the transform is exactly the identity (bit-compare, so an
    /// identity corner is indistinguishable from no corner at all).
    pub fn is_identity(&self) -> bool {
        self.to_key() == Self::IDENTITY.to_key()
    }

    /// Applies the transform to one `(mean, sigma)` pair. The sigma clamp
    /// keeps a negative-offset corner statistically meaningful (σ ≥ 0);
    /// note `max` also maps a NaN σ product to `0.0`, so validation of a
    /// corner lane runs on *transformed* values (both the lane and its
    /// serial twin see the post-clamp numbers).
    #[inline]
    pub fn apply(&self, mean: f64, sigma: f64) -> (f64, f64) {
        (
            mean * self.mean_scale + self.mean_offset_ps,
            (sigma * self.sigma_scale + self.sigma_offset_ps).max(0.0),
        )
    }

    /// [`apply`](Self::apply) over a delta's rise/fall pairs.
    pub fn apply_delta(&self, d: &ArcDelta) -> ArcDelta {
        let (m0, s0) = self.apply(d.mean[0], d.sigma[0]);
        let (m1, s1) = self.apply(d.mean[1], d.sigma[1]);
        ArcDelta {
            arc: d.arc,
            mean: [m0, m1],
            sigma: [s0, s1],
        }
    }

    /// Raw-bits key: two corners with the same key produce bit-identical
    /// lanes (dedup / table-sharing identity).
    fn to_key(&self) -> [u64; 4] {
        [
            self.mean_scale.to_bits(),
            self.mean_offset_ps.to_bits(),
            self.sigma_scale.to_bits(),
            self.sigma_offset_ps.to_bits(),
        ]
    }
}

/// The wire form `{"mean_scale", "mean_offset_ps", "sigma_scale",
/// "sigma_offset_ps"}`; an absent member is the identity's.
impl FromJson for CornerTransform {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let id = CornerTransform::IDENTITY;
        Ok(CornerTransform {
            mean_scale: v.get_opt("mean_scale")?.unwrap_or(id.mean_scale),
            mean_offset_ps: v.get_opt("mean_offset_ps")?.unwrap_or(id.mean_offset_ps),
            sigma_scale: v.get_opt("sigma_scale")?.unwrap_or(id.sigma_scale),
            sigma_offset_ps: v.get_opt("sigma_offset_ps")?.unwrap_or(id.sigma_offset_ps),
        })
    }
}

/// The mode axis of an MCMM [`Scenario`]: an endpoint exception mask.
/// Disabled endpoints keep their computed slack/arrival/required in the
/// report (`report.slacks[ep]` stays meaningful) but contribute neither
/// WNS nor TNS nor the violation count — per-mode false paths at
/// reporting granularity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModeMask {
    /// The disabled endpoint report indices, sorted and without repeats:
    /// one word per index given, whatever its value.
    disabled: Vec<usize>,
}

impl ModeMask {
    /// A mask disabling the given endpoint report indices. An index past
    /// the last endpoint disables nothing.
    pub fn disabling(disabled: impl IntoIterator<Item = usize>) -> Self {
        let mut disabled: Vec<usize> = disabled.into_iter().collect();
        disabled.sort_unstable();
        disabled.dedup();
        ModeMask { disabled }
    }

    /// The disabled endpoint report indices, ascending and each once: a
    /// walk over the endpoints in order meets them as the list's head.
    pub fn disabled(&self) -> &[usize] {
        &self.disabled
    }

    /// Whether the mask lists any index (an empty mask lane is
    /// indistinguishable from a lane without one).
    pub fn disables_any(&self) -> bool {
        !self.disabled.is_empty()
    }
}

/// The wire form `{"disabled": [ep, ...]}`; an absent list disables
/// nothing.
impl FromJson for ModeMask {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ModeMask::disabling(v.get_opt::<Vec<_>>("disabled")?.unwrap_or_default()))
    }
}

/// One MCMM scenario: what-if deltas × corner × mode. Without a corner or
/// mode it is a plain what-if, built `Scenario::from(deltas)`.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// The scenario's re-annotations (applied in order, later wins, like
    /// [`InstaEngine::reannotate`]), expressed in *pre-corner* units — the
    /// lane propagates `corner.apply(delta)`, matching a serial session
    /// whose whole annotation set (base and deltas alike) was pre-scaled.
    /// Empty = the base scenario itself.
    pub deltas: Vec<ArcDelta>,
    /// Optional corner derate of every arc annotation.
    pub corner: Option<CornerTransform>,
    /// Optional per-mode endpoint exception mask.
    pub mode: Option<ModeMask>,
}

impl Scenario {
    /// Builder: attach a corner transform.
    pub fn with_corner(mut self, corner: CornerTransform) -> Self {
        self.corner = Some(corner);
        self
    }

    /// Builder: attach a mode mask.
    pub fn with_mode(mut self, mode: ModeMask) -> Self {
        self.mode = Some(mode);
        self
    }

    /// The corner, if it actually changes anything.
    fn effective_corner(&self) -> Option<&CornerTransform> {
        self.corner.as_ref().filter(|c| !c.is_identity())
    }

    /// The mode, if it actually masks anything.
    fn effective_mode(&self) -> Option<&ModeMask> {
        self.mode.as_ref().filter(|m| m.disables_any())
    }
}

impl From<Vec<ArcDelta>> for Scenario {
    fn from(deltas: Vec<ArcDelta>) -> Self {
        Scenario {
            deltas,
            ..Scenario::default()
        }
    }
}

/// The wire form: a plain delta array, or `{"deltas": [...], "corner":
/// {...}, "mode": {...}}` with every member optional.
impl FromJson for Scenario {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.as_arr().is_ok() {
            let deltas = Vec::from_json(v).map_err(|e| JsonError::decode(format!("deltas: {e}")));
            return deltas.map(Scenario::from);
        }
        Ok(Scenario {
            deltas: v.get_opt("deltas")?.unwrap_or_default(),
            corner: v.get_opt("corner")?,
            mode: v.get_opt("mode")?,
        })
    }
}

/// The result of [`InstaEngine::evaluate`]: every scenario's report plus
/// the merged worst-corner view per endpoint.
#[derive(Debug)]
pub struct McmmReport {
    /// Per-scenario outcomes, aligned with the submitted slice (entry `i`
    /// has `scenario == i`).
    pub scenarios: Vec<ScenarioReport>,
    /// Merged worst slack per endpoint: the minimum over every successful
    /// scenario in which the endpoint is mode-enabled. `f64::INFINITY`
    /// when no scenario covers the endpoint.
    pub merged_slacks: Vec<f64>,
    /// Which scenario owns each endpoint's merged slack (`u32::MAX` when
    /// uncovered; the first worst scenario wins ties).
    pub merged_scenario: Vec<u32>,
    /// WNS over the merged slacks.
    pub merged_wns_ps: f64,
    /// TNS over the merged slacks (each endpoint counted once, at its
    /// worst corner — the signoff aggregate, not a per-corner sum).
    pub merged_tns_ps: f64,
    /// Violating endpoints in the merged view.
    pub merged_violations: usize,
}

/// The per-scenario result of [`InstaEngine::evaluate`].
#[derive(Debug)]
pub struct ScenarioReport {
    /// Index into the submitted scenario slice.
    pub scenario: usize,
    /// The scenario's endpoint report, or the same typed error a serial
    /// session running this scenario alone would have raised.
    pub outcome: Result<InstaReport, InstaError>,
}

/// One distinct corner's transformed base annotations, indexed by
/// expanded arc — built when the corner's group runs, shared by every lane
/// carrying that corner and dropped after the group. While the corner's
/// lanes run, the table stands in for the engine's own annotation arrays
/// (see [`Base`]), so the kernels read it with plain loads; the serial twin
/// is re-annotated from the same values, so both see identical bits.
struct CornerTable {
    mean: Vec<[f64; 2]>,
    sigma: Vec<[f64; 2]>,
}

/// A distinct corner of a call: its transform, or — when the transform
/// drives some annotation non-finite — the validation failure that
/// quarantines every lane carrying it with the same `Validate` error the
/// serial twin's `update_timing` would raise.
type CornerResult = Result<CornerTransform, ValidationReport>;

/// One propagated lane of a call: the scenarios that agree on its corner
/// and effective delta bits share it.
struct Lane<'a> {
    /// The deltas after the corner transform ("effective"); borrowed from
    /// the scenario when it has no corner.
    deltas: Cow<'a, [ArcDelta]>,
    /// Index into the call's corner tables, present only for a
    /// non-identity corner.
    corner: Option<usize>,
    /// The first scenario served by the lane: the one its report moves to.
    first: usize,
}

/// How a valid lane runs: a cone sweep over its group's base, or — when
/// its serial run would not be a cone update — a full pass of its own.
struct Routed {
    lane: usize,
    cone: bool,
}

impl InstaEngine {
    /// Evaluates S what-if scenarios (deltas × corner × mode) against the
    /// current engine state. Each scenario's report is bit-identical to a
    /// serial `update_timing` of
    /// [`scenario_twin_deltas`](Self::scenario_twin_deltas) in a session
    /// that was then rolled back, masked by the scenario's mode
    /// ([`InstaReport::masked`]).
    ///
    /// A poisoned scenario is quarantined per scenario (its `outcome` is
    /// the serial error), never call-fatal. The engine's annotations,
    /// Top-K arrays and report are left untouched — like S sessions that
    /// all rolled back — and no session is opened.
    ///
    /// Mode is a report-time filter, so scenarios that agree on `(corner,
    /// deltas)` share one propagated lane — a C-corner × M-mode sweep
    /// costs C lanes, not C × M (the `mcmm_deduped` counter); the sharing
    /// is invisible in the results. The merged view is, per endpoint, the
    /// worst slack over every successful scenario that covers it.
    ///
    /// `opts` is one budget for the whole call: the base sync and every
    /// lane are cut at the same instant, and every unfinished scenario
    /// reports [`InstaError::Cancelled`].
    pub fn evaluate(&mut self, scenarios: &[Scenario], opts: &PassOptions) -> McmmReport {
        let (corners, lanes, lane_of) = self.prepare_lanes(scenarios);
        self.counters.batches += 1;
        self.counters.batch_scenarios += scenarios.len() as u64;
        self.counters.mcmm_deduped += (scenarios.len() - lanes.len()) as u64;
        self.counters.mcmm_corner_lanes += lanes.iter().filter(|l| l.corner.is_some()).count() as u64;
        let masked = scenarios.iter().filter(|sc| sc.effective_mode().is_some());
        let mut results = self.run_lanes(&lanes, &corners, opts, masked.count());

        // A lane's report moves into its first scenario; a later scenario
        // sharing the lane gets a copy. Every report is re-reduced under
        // its scenario's own mode (a report ends in `reduce`, so one
        // reduced under another mode before comes out the same bits).
        let mut out: Vec<ScenarioReport> = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let mode = sc.effective_mode();
            let lane = &lanes[lane_of[i]];
            let outcome = match results[lane_of[i]].take() {
                Some(outcome) => outcome,
                None => match &out[lane.first].outcome {
                    Ok(r) => Ok(r.clone()),
                    Err(e) => Err(clone_lane_error(e)),
                },
            };
            let outcome = outcome.map(|mut r| {
                if mode.is_some() || lane.first != i {
                    r.reduce(mode);
                }
                r
            });
            out.push(ScenarioReport {
                scenario: i,
                outcome,
            });
        }
        self.counters.batch_quarantined += out.iter().filter(|r| r.outcome.is_err()).count() as u64;

        // Merged worst-corner slack: per endpoint, the min over every
        // successful scenario in which the endpoint is mode-enabled. Strict
        // `<` keeps the first worst scenario on ties.
        let n_ep = self.st.endpoints.len();
        let mut merged_slacks = vec![f64::INFINITY; n_ep];
        let mut merged_scenario = vec![u32::MAX; n_ep];
        for (i, sc) in scenarios.iter().enumerate() {
            let Ok(r) = &out[i].outcome else { continue };
            let mut off = sc.effective_mode().map_or(&[][..], ModeMask::disabled).iter().peekable();
            for ep in 0..n_ep {
                if off.next_if_eq(&&ep).is_some() {
                    continue;
                }
                if r.slacks[ep] < merged_slacks[ep] {
                    merged_slacks[ep] = r.slacks[ep];
                    merged_scenario[ep] = i as u32;
                }
            }
        }
        // An endpoint no scenario covers keeps an infinite slack, which
        // counts toward neither aggregate.
        let (merged_wns_ps, merged_tns_ps, merged_violations) =
            crate::metrics::aggregate(&merged_slacks, None);
        McmmReport {
            scenarios: out,
            merged_slacks,
            merged_scenario,
            merged_wns_ps,
            merged_tns_ps,
            merged_violations,
        }
    }

    /// The serial twin of a scenario: the delta list that pre-scales every
    /// annotated graph arc by the scenario's corner and then applies the
    /// scenario's (corner-transformed) deltas on top.
    /// `update_timing(&twin)` on a clone of this engine, masked by the
    /// scenario's mode, is the reference a batched lane is bit-identical
    /// to — the differential suites are built on this helper.
    ///
    /// Valid because `reannotate` writes a graph arc's delta to every
    /// expansion uniformly, and the snapshot import gives all expansions
    /// of a graph arc the same annotation — so a per-graph-arc delta list
    /// can express the per-expansion corner table exactly.
    pub fn scenario_twin_deltas(&self, scenario: &Scenario) -> Vec<ArcDelta> {
        let Some(c) = scenario.effective_corner() else {
            return scenario.deltas.clone();
        };
        let st = &self.st;
        let mut out = Vec::with_capacity(st.n_graph_arcs + scenario.deltas.len());
        for g in 0..st.n_graph_arcs {
            if let Some(&e) = st.expansion(g).first() {
                out.push(c.apply_delta(&ArcDelta {
                    arc: g as u32,
                    mean: st.arc_mean[e as usize],
                    sigma: st.arc_sigma[e as usize],
                }));
            }
        }
        out.extend(scenario.deltas.iter().map(|d| c.apply_delta(d)));
        out
    }

    /// Normalizes a call: distinct non-identity corners are validated once
    /// each, every scenario's deltas are corner-transformed, and scenarios
    /// that agree on the corner and the effective delta bits — the mode
    /// stays out of the key, it only filters reports — share one lane.
    /// Returns the corners, the lanes and each scenario's lane.
    fn prepare_lanes<'a>(
        &self,
        scenarios: &'a [Scenario],
    ) -> (Vec<CornerResult>, Vec<Lane<'a>>, Vec<usize>) {
        let mut corners: Vec<CornerTransform> = Vec::new();
        let mut lanes: Vec<Lane<'a>> = Vec::new();
        let mut seen: HashMap<(Option<usize>, Vec<u64>), usize> = HashMap::new();
        let lane_of = scenarios
            .iter()
            .enumerate()
            .map(|(first, sc)| {
                let (corner, deltas) = match sc.effective_corner() {
                    None => (None, Cow::Borrowed(&sc.deltas[..])),
                    Some(c) => {
                        let ci = corners.iter().position(|k| k.to_key() == c.to_key());
                        let ci = ci.unwrap_or_else(|| {
                            corners.push(*c);
                            corners.len() - 1
                        });
                        (
                            Some(ci),
                            sc.deltas.iter().map(|d| c.apply_delta(d)).collect(),
                        )
                    }
                };
                let mut key = Vec::with_capacity(deltas.len() * 5);
                for d in deltas.iter() {
                    key.push(u64::from(d.arc));
                    key.extend(d.mean.iter().chain(&d.sigma).map(|v| v.to_bits()));
                }
                *seen.entry((corner, key)).or_insert_with(|| {
                    lanes.push(Lane {
                        deltas,
                        corner,
                        first,
                    });
                    lanes.len() - 1
                })
            })
            .collect();
        let corners = corners.into_iter().map(|c| self.check_corner(c)).collect();
        (corners, lanes, lane_of)
    }

    /// Every expanded arc's `(mean, sigma)` annotation under corner `c`.
    fn transformed<'s>(
        &'s self,
        c: &'s CornerTransform,
    ) -> impl Iterator<Item = ([f64; 2], [f64; 2])> + 's {
        let st = &self.st;
        st.arc_mean.iter().zip(&st.arc_sigma).map(|(m, s)| {
            let ((m0, s0), (m1, s1)) = (c.apply(m[0], s[0]), c.apply(m[1], s[1]));
            ([m0, m1], [s0, s1])
        })
    }

    /// Rejects a transform that drives any annotation non-finite (the same
    /// `NonFiniteMean` / `InvalidSigma` issues — and therefore the same
    /// `Validate` error category — the serial twin's `update_timing` would
    /// raise on the pre-scaled delta list), keeping none of the values.
    fn check_corner(&self, c: CornerTransform) -> CornerResult {
        let mut report = ValidationReport::default();
        for (arc, (mean, sigma)) in self.transformed(&c).enumerate() {
            for (rf, (&m, &s)) in (0u8..).zip(mean.iter().zip(&sigma)) {
                if !m.is_finite() {
                    report.record(Issue::NonFiniteMean { arc, rf, value: m });
                }
                if !s.is_finite() || s < 0.0 {
                    report.record(Issue::InvalidSigma { arc, rf, value: s });
                }
            }
        }
        if report.total() > 0 {
            Err(report)
        } else {
            Ok(c)
        }
    }

    /// Materializes a checked corner's transformed base annotations.
    fn corner_table(&self, c: &CornerTransform) -> CornerTable {
        let (mean, sigma) = self.transformed(c).unzip();
        CornerTable { mean, sigma }
    }

    /// Routes and runs a call's lanes, and returns each lane's result by
    /// lane index (every one is `Some`). Validation first
    /// (quarantine: a rejected lane gets the `Validate` error a serial
    /// `update_timing` would raise and never writes an annotation; an
    /// invalid corner quarantines its lanes the same way), then the route,
    /// then the base sync, then the lanes grouped by corner — identity
    /// first, a group's lanes in submission order — one after another on
    /// the calling thread. Corner pre-scaling is a lane-local *view*, not
    /// an annotation update, so only a lane's own deltas count toward the
    /// seed switch. One `batch.sweep` span per call.
    fn run_lanes(
        &mut self,
        lanes: &[Lane<'_>],
        corners: &[CornerResult],
        opts: &PassOptions,
        masked: usize,
    ) -> Vec<Option<Result<InstaReport, InstaError>>> {
        let mut out: Vec<_> = lanes.iter().map(|_| None).collect();
        let mut routed = Vec::new();
        for (i, lane) in lanes.iter().enumerate() {
            let err = match lane.corner.map(|ci| &corners[ci]) {
                Some(Err(report)) => Some(InstaError::Validate(report.clone())),
                _ => self.validate_deltas(&lane.deltas).err(),
            };
            if let Some(e) = err {
                out[i] = Some(Err(e));
                continue;
            }
            let arcs = lane.deltas.iter().map(|d| d.arc);
            let cone = seed_cone(&self.st, &mut self.cone, arcs);
            routed.push(Routed { lane: i, cone });
        }
        if routed.is_empty() {
            return out;
        }
        if let Err(e) = self.sync_base(opts) {
            for r in &routed {
                out[r.lane] = Some(Err(clone_lane_error(&e)));
            }
            return out;
        }

        routed.sort_by_key(|r| lanes[r.lane].corner.map_or(0, |ci| ci + 1));
        self.trace.begin("batch.sweep");
        let mut call = LaneCall {
            opts,
            cone_lanes: 0,
            base_passes: 0,
            window_passes: 0,
            window_rows: 0,
            nodes: 0,
            pruned: 0,
            passed: 0,
            arcs: 0,
            tally: Tally::default(),
            incident: None,
        };
        for group in routed.chunk_by(|a, b| lanes[a.lane].corner == lanes[b.lane].corner) {
            // One corner's table is alive at a time: the running group's.
            let mut table = lanes[group[0].lane].corner.map(|ci| match &corners[ci] {
                Ok(c) => self.corner_table(c),
                Err(_) => unreachable!("invalid corners are quarantined before routing"),
            });
            call.run_group(&mut Base::new(self, table.as_mut()), lanes, group, &mut out);
        }
        let corner_lanes = routed.iter().filter(|r| lanes[r.lane].corner.is_some());
        let ok = routed.iter().all(|r| matches!(out[r.lane], Some(Ok(_))));
        self.trace.end_with(&[
            ("lanes", routed.len() as f64),
            ("corner_lanes", corner_lanes.count() as f64),
            ("masked_lanes", masked as f64),
            ("cone_lanes", call.cone_lanes as f64),
            ("base_passes", call.base_passes as f64),
            ("window_passes", call.window_passes as f64),
            ("window_rows", call.window_rows as f64),
            ("nodes", call.nodes as f64),
            ("pruned", call.pruned as f64),
            ("passed", call.passed as f64),
            ("arcs", call.arcs as f64),
            ("fallbacks", call.tally.fallbacks as f64),
            ("live", call.tally.live as f64),
            ("dead", call.tally.dead as f64),
            ("ok", if ok { 1.0 } else { 0.0 }),
        ]);
        // A panic is booked once per call, whichever lane hit it; the lanes
        // carry their own errors.
        let _ = self.settle(Ok(call.incident));
        out
    }

    /// Makes sure the Top-K arrays are the synced output of the current
    /// annotations — the shared base every identity lane diverges from.
    /// Equivalent to the caller running `propagate()` before the call.
    fn sync_base(&mut self, opts: &PassOptions) -> Result<(), InstaError> {
        if self.validity.topk_current() {
            return Ok(());
        }
        self.try_propagate(opts).map(|_| ())
    }
}

/// The engine as a group of lanes sees it: a corner's table standing in
/// for its annotations and — once [`scratch`](Self::scratch) asks for
/// them, for a corner's delta lanes — the kept scratch rows standing in
/// for its own Top-K state. Both
/// are O(1) swaps, so the kernels keep reading `st.arc_mean` /
/// `state.topk_*` and no annotation or row parameter is threaded through
/// them; both are swapped back on drop.
struct Base<'a> {
    eng: &'a mut InstaEngine,
    table: Option<&'a mut CornerTable>,
    scratch: bool,
}

impl<'a> Base<'a> {
    fn new(eng: &'a mut InstaEngine, table: Option<&'a mut CornerTable>) -> Self {
        let mut base = Base {
            eng,
            table,
            scratch: false,
        };
        base.swap_table();
        base
    }

    fn swap_table(&mut self) {
        if let Some(table) = self.table.as_deref_mut() {
            std::mem::swap(&mut self.eng.st.arc_mean, &mut table.mean);
            std::mem::swap(&mut self.eng.st.arc_sigma, &mut table.sigma);
        }
    }

    /// Puts the scratch rows in place of the engine's own for the rest of
    /// the group. Allocated by the engine's first call that needs them and
    /// kept: faulting their fresh pages in (a dense slot per pin then) was
    /// 5 ms of every call on block-3 at K = 8, half a base pass.
    fn scratch(&mut self) {
        if !self.scratch {
            self.scratch = true;
            self.swap_rows();
        }
    }

    fn swap_rows(&mut self) {
        let eng = &mut *self.eng;
        let (slots, k) = (eng.st.n_slots(), eng.state.k);
        let scratch = eng
            .corner_scratch
            .0
            .get_or_insert_with(|| State::with_slots(slots, k));
        std::mem::swap(&mut eng.state, scratch);
    }
}

impl Drop for Base<'_> {
    fn drop(&mut self) {
        if self.scratch {
            self.swap_rows();
        }
        self.swap_table();
    }
}

/// What the lanes of one call share: the call's one [`PassOptions`] and
/// the `batch.sweep` span's tallies.
struct LaneCall<'a> {
    opts: &'a PassOptions,
    cone_lanes: usize,
    /// Corner base passes into the scratch rows.
    base_passes: usize,
    window_passes: usize,
    /// The window plan's slot count: the most rows a window pass keeps.
    window_rows: usize,
    nodes: usize,
    pruned: usize,
    /// Virtual nodes the cone lanes passed through, and the fanin arcs of
    /// the nodes they recomputed.
    passed: usize,
    arcs: usize,
    /// Over every pass and sweep of the call: virtual parents
    /// materialised, rows merged (a cone lane's recomputes) and rows
    /// skipped because no endpoint reads them.
    tally: Tally,
    /// The first contained (or fatal) worker panic of the call.
    incident: Option<RuntimeIncident>,
}

impl LaneCall<'_> {
    /// One corner group: its cone lanes over the group's base, then its
    /// full-pass lanes, each a window pass. The base is the engine's own
    /// synced rows and report, or a corner's full pass: into the scratch
    /// rows when a cone lane carries deltas (its cone needs the corner's
    /// whole row set), otherwise a window pass, whose report is every such
    /// lane's.
    fn run_group(
        &mut self,
        base: &mut Base<'_>,
        lanes: &[Lane<'_>],
        group: &[Routed],
        out: &mut [Option<Result<InstaReport, InstaError>>],
    ) {
        if group.iter().any(|r| r.cone) {
            let swept = |r: &Routed| r.cone && !lanes[r.lane].deltas.is_empty();
            let report = if base.table.is_none() {
                Ok(base.eng.state.report.clone().expect("base synced"))
            } else if group.iter().any(swept) {
                base.scratch();
                self.base_passes += 1;
                self.full_pass(base.eng)
            } else {
                self.window_pass(base.eng)
            };
            for r in group.iter().filter(|r| r.cone) {
                out[r.lane] = Some(match &report {
                    Ok(report) => self.cone_lane(base.eng, report, &lanes[r.lane].deltas),
                    // The base pass died (cancelled, or a worker panic the
                    // serial retry couldn't contain): every lane of the
                    // corner reports its own copy of the error.
                    Err(e) => Err(clone_lane_error(e)),
                });
            }
        }
        for r in group.iter().filter(|r| !r.cone) {
            out[r.lane] = Some(self.full_lane(base.eng, &lanes[r.lane].deltas));
        }
    }

    /// A cone lane over the engine's rows, which are the full pass's output
    /// for its annotations, and `base`, their report.
    fn cone_lane(
        &mut self,
        eng: &mut InstaEngine,
        base: &InstaReport,
        deltas: &[ArcDelta],
    ) -> Result<InstaReport, InstaError> {
        if deltas.is_empty() {
            // Nothing to sweep: the lane is its base.
            return nan_gate(eng, base.clone());
        }
        let mut txn = Txn::begin(eng);
        let swept = txn.sweep(deltas, self.opts);
        let eng = &*txn.eng;
        self.cone_lanes += 1;
        self.nodes += eng.cone.nodes;
        self.pruned += eng.cone.pruned;
        self.passed += eng.cone.passed;
        self.arcs += eng.cone.arcs;
        self.tally.fallbacks += eng.cone.fallbacks();
        self.tally.live += eng.cone.nodes as u64;
        self.tally.dead += eng.cone.dead as u64;
        self.book(swept)?;
        // Only endpoints on recomputed nodes can differ from the base.
        let mut report = base.clone();
        let recomputed = |node| eng.cone.recomputed(node);
        crate::metrics::refresh(&eng.st, &eng.state, &mut report, recomputed, eng.cfg.cppr);
        nan_gate(eng, report)
    }

    /// A lane whose serial run is no cone update: its deltas and one window
    /// pass. Counted as its serial twin counts it.
    fn full_lane(
        &mut self,
        eng: &mut InstaEngine,
        deltas: &[ArcDelta],
    ) -> Result<InstaReport, InstaError> {
        eng.counters.incremental_updates += 1;
        let txn = Txn::begin(eng);
        let eng = &mut *txn.eng;
        eng.cone.annotate(&mut eng.st, deltas);
        let report = self.window_pass(eng)?;
        nan_gate(eng, report)
    }

    /// One full pass over the engine's annotations into its rows, and their
    /// report: the base of the group's cone lanes.
    fn full_pass(&mut self, eng: &mut InstaEngine) -> Result<InstaReport, InstaError> {
        let st = &eng.st;
        let passed = forward::<false>(
            st,
            &mut eng.state,
            eng.cfg.n_threads,
            self.opts,
            None,
            &source_launch(st),
            &mut self.tally,
        );
        self.book(passed)?;
        Ok(crate::metrics::evaluate(st, &eng.state, eng.cfg.cppr))
    }

    /// One window pass over the engine's annotations: their report, without
    /// reading or writing the engine's rows.
    fn window_pass(&mut self, eng: &mut InstaEngine) -> Result<InstaReport, InstaError> {
        let (st, k) = (&eng.st, eng.state.k);
        let window = eng.window.0.get_or_insert_with(|| Window::new(st, k));
        let (n_threads, cppr) = (eng.cfg.n_threads, eng.cfg.cppr);
        let (report, passed) =
            window_pass(st, window, n_threads, self.opts, cppr, &mut self.tally);
        self.window_passes += 1;
        self.window_rows = window.plan.slots;
        self.book(passed)?;
        Ok(report)
    }

    /// Keeps the call's first worker-panic incident, recovered or fatal,
    /// and passes a pass's error on.
    fn book(
        &mut self,
        passed: Result<Option<RuntimeIncident>, InstaError>,
    ) -> Result<(), InstaError> {
        match passed {
            Ok(recovered) => {
                if let Some(inc) = recovered {
                    self.incident.get_or_insert(inc);
                }
                Ok(())
            }
            Err(e) => {
                if let InstaError::Runtime(inc) = &e {
                    self.incident.get_or_insert(inc.clone());
                }
                Err(e)
            }
        }
    }
}

/// The session layer's no-NaN-escapes gate on a lane's report.
fn nan_gate(eng: &InstaEngine, report: InstaReport) -> Result<InstaReport, InstaError> {
    match crate::health::nan_slack(&eng.st, &report) {
        Some(err) => Err(err),
        None => Ok(report),
    }
}

/// Duplicates an error a batched lane can carry, for fanning it out: a
/// failed base sync to every lane, a failed corner base pass to every lane
/// of the corner, a shared lane to every scenario sharing it ([`InstaError`] is intentionally not
/// `Clone`; lanes only raise these variants).
fn clone_lane_error(e: &InstaError) -> InstaError {
    match e {
        InstaError::Validate(report) => InstaError::Validate(report.clone()),
        InstaError::Cancelled {
            kernel,
            level,
            elapsed,
        } => InstaError::Cancelled {
            kernel: *kernel,
            level: *level,
            elapsed: *elapsed,
        },
        InstaError::Runtime(inc) => InstaError::Runtime(inc.clone()),
        InstaError::Numeric {
            kernel,
            array,
            node,
            orig_node,
            level,
            rf,
            value,
        } => InstaError::Numeric {
            kernel: *kernel,
            array: *array,
            node: *node,
            orig_node: *orig_node,
            level: *level,
            rf: *rf,
            value: *value,
        },
        _ => unreachable!("lanes raise only Validate/Cancelled/Runtime/Numeric"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::build_engine;

    /// Every graph arc's annotation, shifted: a lane far past the cone's
    /// full-pass switch.
    fn every_arc_slower(eng: &InstaEngine) -> Vec<ArcDelta> {
        let st = &eng.st;
        (0..st.n_graph_arcs)
            .filter_map(|g| st.expansion(g).first().map(|&e| (g, e as usize)))
            .map(|(g, e)| ArcDelta {
                arc: g as u32,
                mean: st.arc_mean[e].map(|m| m + 1.5),
                sigma: st.arc_sigma[e],
            })
            .collect()
    }

    /// A mask holds the indices it was given, not a bitset as wide as the
    /// largest of them: `1 << 60` costs one word, and a lane under that
    /// mask reports what a lane disabling endpoint 0 alone reports.
    #[test]
    fn a_mode_mask_is_sized_by_its_indices_not_their_values() {
        let far = ModeMask::disabling([1 << 60, 0]);
        assert_eq!(far.disabled(), [0, 1 << 60]);
        assert_eq!(far.disabled.capacity(), 2, "one word per index");
        let (_d, _sta, mut eng) = build_engine(5, 8);
        eng.propagate();
        let near = ModeMask::disabling([0]);
        let modes = [
            Scenario::default().with_mode(far),
            Scenario::default().with_mode(near),
        ];
        let mcmm = eng.evaluate(&modes, &PassOptions::default());
        let [a, b] = [0, 1].map(|i| mcmm.scenarios[i].outcome.as_ref().expect("a clean lane"));
        assert_eq!(a.wns_ps.to_bits(), b.wns_ps.to_bits());
        assert_eq!(a.tns_ps.to_bits(), b.tns_ps.to_bits());
        assert_eq!(a.n_violations, b.n_violations);
    }

    /// Report-only passes keep no second row set: a delta-free MCMM call
    /// and full-pass lanes leave the corner rows unallocated, and only a
    /// corner group with a delta lane allocates them.
    #[test]
    fn only_a_corner_group_with_a_delta_lane_allocates_corner_rows() {
        let (_d, _sta, mut eng) = build_engine(5, 8);
        eng.propagate();
        let corner = CornerTransform::scale(1.05, 1.1);
        let bare = Scenario::default().with_corner(corner);
        let sweep = [bare.clone(), bare.with_mode(ModeMask::disabling([0]))];
        let mcmm = eng.evaluate(&sweep, &PassOptions::default());
        assert!(mcmm.scenarios.iter().all(|r| r.outcome.is_ok()));
        assert!(eng.corner_scratch.0.is_none(), "a delta-free corner group");
        let plan = eng
            .window
            .0
            .as_ref()
            .expect("the window pass ran")
            .plan
            .slots;
        assert!(plan > 0 && plan < eng.num_rows());

        let big = every_arc_slower(&eng);
        let full = [
            Scenario::from(big.clone()),
            Scenario::from(big).with_corner(corner),
        ];
        let lanes = eng.evaluate(&full, &PassOptions::default()).scenarios;
        assert!(lanes.iter().all(|r| r.outcome.is_ok()));
        assert!(eng.corner_scratch.0.is_none(), "full-pass lanes");

        let one = every_arc_slower(&eng)[..1].to_vec();
        let swept = [Scenario::from(one).with_corner(corner)];
        assert!(eng.evaluate(&swept, &PassOptions::default()).scenarios[0].outcome.is_ok());
        assert!(
            eng.corner_scratch.0.is_some(),
            "a corner's delta lane sweeps its rows"
        );
    }
}
