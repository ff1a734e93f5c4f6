//! Batched what-if evaluation: S scenarios scored against one engine state
//! and taken back (paper §IV-B — INSTA-Size scores its resize candidates
//! as batched what-if evaluations).
//!
//! [`InstaEngine::evaluate_batch`] takes S [`DeltaSet`]s and returns one
//! [`ScenarioReport`] per scenario, bit-identical to S independent serial
//! `update_timing` sessions from the current engine state, each rolled
//! back. There is no batch kernel. The module is a router over the two
//! kernels the engine already has:
//!
//! * **A lane is a cone sweep with an undo log.** All scenarios diverge
//!   from the *same* synced base: the engine's live Top-K arrays and its
//!   report. A lane writes its deltas over the annotations, runs the
//!   session's own [`cone_sweep`](crate::incremental) in place, reads its
//!   report off the live arrays (a copy of the base report, refreshed on
//!   the recomputed nodes), and then takes the sweep back the way a session
//!   rollback does: the cone's undo log copies the overwritten k-slices and
//!   annotations back. A candidate costs its changed cone once forward and
//!   once as a memcpy, and nothing per node or per arc of the graph.
//! * **A corner is one full pass.** A [`CornerTransform`] re-annotates
//!   every arc, which is what the ordinary [`forward`](crate::forward)
//!   pass is for: each *distinct* non-identity corner gets one full pass
//!   over its transformed annotation table into a Top-K scratch, and that
//!   corner's lanes are then cone lanes over *that* base. C corners × S
//!   candidates cost C full passes + C·S cones.
//!
//! **Why a lane equals its serial twin.** The cone sweep lands on the full
//! pass's bits for any base that is the full pass's output over the
//! annotations the cone starts from (induction over levels, see
//! [`crate::incremental`]). An identity lane's base is the engine's own
//! synced arrays, so lane ≡ `update_timing` of the same deltas. A corner
//! lane's base is the full pass over the corner table, so lane ≡ the full
//! pass over "corner table, then the lane's transformed deltas" — the
//! annotations [`scenario_twin_deltas`](InstaEngine::scenario_twin_deltas)
//! writes.
//!
//! **The call leaves no trace.** The undo is unconditional: it runs after
//! a completed lane, a cancelled or failed sweep, a NaN or gradient
//! failure, and from a drop guard if anything unwinds. After any
//! `evaluate_*` call the engine's Top-K arrays (stale mean/sigma tails
//! included), annotations, report, drift odometer, validity ledger and LSE
//! state are their pre-call bits — the only state a call may write is the
//! base sync itself (identical to the caller running
//! [`propagate`](InstaEngine::propagate) first) and the monotonic batch
//! counters. A failed lane does not force the next update onto a full
//! pass.
//!
//! **Quarantine semantics.** A poisoned scenario — validation-rejected
//! deltas, a NaN slack, a cancelled or failed pass — is quarantined *per
//! scenario*: its `outcome` carries the same typed [`InstaError`] the
//! serial session would raise, while sibling scenarios complete
//! bit-identically to a clean run. Scenarios whose serial run would not be
//! a cone update — the degraded drift path, or more distinct seeds than
//! the cone's full-pass switch allows — and any batch whose base
//! propagation fails are replayed through real checkpoint/rollback
//! sessions.
//!
//! **MCMM lanes.** A [`Scenario`] carries, besides its deltas, an optional
//! [`CornerTransform`] (a lane-local affine derate of every arc's `(μ, σ)`
//! annotation, composed *under* the scenario's own deltas) and an optional
//! [`ModeMask`] (per-mode endpoint exceptions: disabled endpoints keep
//! their slack in the report but contribute neither WNS nor TNS). A lane
//! with corner `C` and mode `M` is bit-identical to a serial session whose
//! annotations were pre-scaled by `C` and whose report was masked by `M`.
//! [`InstaEngine::evaluate_mcmm`] adds scenario dedup (mode is a
//! report-time filter, so `(deltas, corner)`-equal scenarios share one
//! lane) and a merged worst-corner slack per endpoint.

use crate::backward::{graph_arc_gradients, Objective};
use crate::engine::{InstaConfig, InstaEngine, State, Static};
use crate::error::{InstaError, RuntimeIncident};
use crate::forward::{forward, seed_sources};
use crate::incremental::{cone_sweep, seed_cone, ConeScratch};
use crate::metrics::InstaReport;
use crate::parallel::Interrupt;
use crate::validate::{Issue, ValidationReport};
use insta_refsta::eco::ArcDelta;
use insta_support::timer::Deadline;
use std::time::Duration;

/// One scenario of a batch: the arc deltas that distinguish it from the
/// engine's current annotations (empty = the base scenario itself).
#[derive(Debug, Clone, Default)]
pub struct DeltaSet {
    /// The scenario's re-annotations, applied in order (a later delta to
    /// the same arc wins, like [`InstaEngine::reannotate`]).
    pub deltas: Vec<ArcDelta>,
}

impl From<Vec<ArcDelta>> for DeltaSet {
    fn from(deltas: Vec<ArcDelta>) -> Self {
        Self { deltas }
    }
}

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

/// The mode axis of an MCMM [`Scenario`]: an endpoint exception mask.
/// Disabled endpoints keep their computed slack/arrival/required in the
/// report (`report.slacks[ep]` stays meaningful) but contribute neither
/// WNS nor TNS nor the violation count — per-mode false paths at
/// reporting granularity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModeMask {
    /// Disabled-endpoint bitset, one bit per endpoint report index.
    words: Vec<u64>,
}

impl ModeMask {
    /// A mask disabling the given endpoint report indices.
    pub fn disabling(disabled: impl IntoIterator<Item = usize>) -> Self {
        let mut words: Vec<u64> = Vec::new();
        for ep in disabled {
            let w = ep / 64;
            if words.len() <= w {
                words.resize(w + 1, 0);
            }
            words[w] |= 1u64 << (ep % 64);
        }
        ModeMask { words }
    }

    /// Whether the endpoint at this report index is mode-disabled.
    /// Out-of-range indices are enabled.
    #[inline]
    pub fn is_disabled(&self, ep: usize) -> bool {
        match self.words.get(ep / 64) {
            Some(w) => w >> (ep % 64) & 1 == 1,
            None => false,
        }
    }

    /// Whether the mask disables anything at all (an empty mask lane is
    /// indistinguishable from a lane without one).
    pub fn disables_any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }
}

/// One MCMM scenario: what-if deltas × corner × mode. A plain
/// [`DeltaSet`] converts into a scenario with neither corner nor mode,
/// so `evaluate_batch` callers upgrade for free.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// The scenario's re-annotations (applied in order, later wins),
    /// expressed in *pre-corner* units — the lane propagates
    /// `corner.apply(delta)`, matching a serial session whose whole
    /// annotation set (base and deltas alike) was pre-scaled.
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

impl From<DeltaSet> for Scenario {
    fn from(ds: DeltaSet) -> Self {
        Scenario {
            deltas: ds.deltas,
            ..Scenario::default()
        }
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

/// The result of [`InstaEngine::evaluate_mcmm`]: every scenario's report
/// plus the merged worst-corner view per endpoint.
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

/// The per-scenario result of [`InstaEngine::evaluate_batch`].
#[derive(Debug)]
pub struct ScenarioReport {
    /// Index into the submitted scenario slice.
    pub scenario: usize,
    /// The scenario's endpoint report, or the same typed error a serial
    /// session running this scenario alone would have raised.
    pub outcome: Result<InstaReport, InstaError>,
    /// ∂TNS/∂(arc delay) per graph arc, when
    /// [`BatchOptions::gradients`] was requested and the scenario
    /// succeeded.
    pub gradients: Option<Vec<f64>>,
}

/// Options of [`InstaEngine::evaluate_batch_with`].
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Also run the differentiable forward + backward passes per scenario
    /// and return [`ScenarioReport::gradients`].
    pub gradients: bool,
    /// Cooperative cancel token, polled once per timing level (the
    /// session-layer contract): at most one level's work runs after it
    /// fires, then every unfinished scenario reports
    /// [`InstaError::Cancelled`].
    pub cancel: Option<insta_support::timer::CancelToken>,
    /// Wall-clock budget for the whole batch, measured from the call.
    pub deadline: Option<Duration>,
}

/// One distinct corner's transformed base annotations, indexed by
/// expanded arc — built once per `evaluate_*` call and shared by every
/// lane carrying that corner. While the corner's lanes run, the table
/// stands in for the engine's own annotation arrays (see [`CornerSwap`]),
/// so the kernels read it with plain loads; the serial twin is
/// re-annotated from the same values, so both see identical bits.
struct CornerTable {
    mean: Vec<[f64; 2]>,
    sigma: Vec<[f64; 2]>,
}

/// A corner either materializes as a table or fails validation (a
/// transform that drives some annotation non-finite); the failure
/// quarantines every lane carrying it with the same `Validate` error the
/// serial twin's `update_timing` would raise.
type CornerResult = Result<CornerTable, ValidationReport>;

/// One routed lane of a batched call, after corner/mode normalization:
/// `deltas` are already corner-transformed ("effective"), `corner` indexes
/// the call's corner tables and is present only when non-identity, `mode`
/// only when it masks something.
#[derive(Clone, Copy)]
struct LaneSpec<'a> {
    deltas: &'a [ArcDelta],
    corner: Option<usize>,
    mode: Option<&'a ModeMask>,
}

/// A lane's report (or typed error) and, when asked for, its gradients.
type LaneResult = (Result<InstaReport, InstaError>, Option<Vec<f64>>);

/// Owned per-call delta storage backing the `LaneSpec` views of a
/// `&[Scenario]` batch.
struct LanePrep {
    /// Per-scenario index into the call's corner tables.
    corner_of: Vec<Option<usize>>,
    /// Per-scenario corner-transformed deltas (corner lanes only; lanes
    /// without a corner borrow the scenario's deltas directly).
    eff_deltas: Vec<Option<Vec<ArcDelta>>>,
}

impl LanePrep {
    fn spec<'a>(&'a self, scenarios: &'a [Scenario], i: usize) -> LaneSpec<'a> {
        LaneSpec {
            deltas: self.eff_deltas[i]
                .as_deref()
                .unwrap_or(&scenarios[i].deltas),
            corner: self.corner_of[i],
            mode: scenarios[i].effective_mode(),
        }
    }
}

impl InstaEngine {
    /// Evaluates S what-if scenarios against the current engine state,
    /// each bit-identical to a serial `update_timing` of that scenario
    /// alone.
    ///
    /// A poisoned scenario is quarantined per-scenario (its `outcome` is
    /// the serial error), never batch-fatal. The engine's annotations,
    /// Top-K arrays and report are left untouched — like S sessions that
    /// all rolled back.
    pub fn evaluate_batch(&mut self, scenarios: &[DeltaSet]) -> Vec<ScenarioReport> {
        self.evaluate_batch_with(scenarios, &BatchOptions::default())
    }

    /// [`evaluate_batch`](Self::evaluate_batch) with cancellation,
    /// deadline, and per-scenario gradient options.
    pub fn evaluate_batch_with(
        &mut self,
        scenarios: &[DeltaSet],
        opts: &BatchOptions,
    ) -> Vec<ScenarioReport> {
        let deadline = opts.deadline.map(Deadline::after);
        let specs: Vec<LaneSpec<'_>> = scenarios
            .iter()
            .map(|sc| LaneSpec {
                deltas: &sc.deltas,
                corner: None,
                mode: None,
            })
            .collect();
        self.evaluate_lanes(&specs, &mut [], opts, deadline)
    }

    /// Evaluates S full MCMM scenarios (deltas × corner × mode). Each lane
    /// is bit-identical to a serial `update_timing` of
    /// [`scenario_twin_deltas`](Self::scenario_twin_deltas) whose report
    /// was then masked by the scenario's mode ([`InstaReport::masked`]).
    pub fn evaluate_scenarios(&mut self, scenarios: &[Scenario]) -> Vec<ScenarioReport> {
        self.evaluate_scenarios_with(scenarios, &BatchOptions::default())
    }

    /// [`evaluate_scenarios`](Self::evaluate_scenarios) with cancellation,
    /// deadline, and gradient options.
    pub fn evaluate_scenarios_with(
        &mut self,
        scenarios: &[Scenario],
        opts: &BatchOptions,
    ) -> Vec<ScenarioReport> {
        let deadline = opts.deadline.map(Deadline::after);
        let (mut tables, prep) = self.prepare_lanes(scenarios);
        let specs: Vec<LaneSpec<'_>> = (0..scenarios.len())
            .map(|i| prep.spec(scenarios, i))
            .collect();
        self.evaluate_lanes(&specs, &mut tables, opts, deadline)
    }

    /// MCMM sweep: evaluates every scenario, then merges a worst-corner
    /// slack per endpoint across all successful lanes (respecting each
    /// lane's mode mask).
    ///
    /// On top of [`evaluate_scenarios`](Self::evaluate_scenarios) this
    /// dedups the propagation work: mode is a report-time filter, so
    /// scenarios that agree on `(deltas, corner)` share one propagated
    /// lane — a C-corner × M-mode sweep costs C lanes, not C × M. The
    /// dedup is observable on the `mcmm_deduped` counter and invisible in
    /// the results (shared lanes are re-masked per scenario).
    pub fn evaluate_mcmm(&mut self, scenarios: &[Scenario]) -> McmmReport {
        self.evaluate_mcmm_with(scenarios, &BatchOptions::default())
    }

    /// [`evaluate_mcmm`](Self::evaluate_mcmm) with cancellation,
    /// deadline, and gradient options.
    pub fn evaluate_mcmm_with(
        &mut self,
        scenarios: &[Scenario],
        opts: &BatchOptions,
    ) -> McmmReport {
        let deadline = opts.deadline.map(Deadline::after);
        self.stats.mcmm_evaluations += 1;
        let (mut tables, prep) = self.prepare_lanes(scenarios);

        // Dedup by propagation identity: corner table + effective-delta
        // bits. The mode stays out of the key — it only filters reports.
        let mut lane_of = vec![0usize; scenarios.len()];
        let mut uniq: Vec<usize> = Vec::new();
        let mut seen: std::collections::HashMap<(Option<usize>, Vec<u64>), usize> =
            std::collections::HashMap::new();
        for i in 0..scenarios.len() {
            let spec = prep.spec(scenarios, i);
            let mut key = Vec::with_capacity(spec.deltas.len() * 5);
            for d in spec.deltas {
                key.push(u64::from(d.arc));
                key.extend(d.mean.iter().chain(&d.sigma).map(|v| v.to_bits()));
            }
            let lane = *seen.entry((prep.corner_of[i], key)).or_insert_with(|| {
                uniq.push(i);
                uniq.len() - 1
            });
            lane_of[i] = lane;
        }

        // Propagate the unique lanes mode-less; modes re-mask per
        // scenario below. Counter fixup: `evaluate_lanes` saw only the
        // unique lanes, but the batch counters account for submissions.
        let specs: Vec<LaneSpec<'_>> = uniq
            .iter()
            .map(|&i| LaneSpec {
                mode: None,
                ..prep.spec(scenarios, i)
            })
            .collect();
        let lane_reports = self.evaluate_lanes(&specs, &mut tables, opts, deadline);
        let deduped = (scenarios.len() - uniq.len()) as u64;
        self.stats.batch_scenarios += deduped;
        self.stats.mcmm_deduped += deduped;

        let mut dup_quarantined = 0u64;
        let mut out = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let lr = &lane_reports[lane_of[i]];
            if uniq[lane_of[i]] != i && lr.outcome.is_err() {
                dup_quarantined += 1;
            }
            let outcome = match &lr.outcome {
                Ok(r) => Ok(match sc.effective_mode() {
                    Some(m) => r.masked(m),
                    None => r.clone(),
                }),
                Err(e) => Err(clone_lane_error(e)),
            };
            out.push(ScenarioReport {
                scenario: i,
                outcome,
                gradients: lr.gradients.clone(),
            });
        }
        self.stats.batch_quarantined += dup_quarantined;

        // Merged worst-corner slack: per endpoint, the min over every
        // successful lane in which the endpoint is mode-enabled. Strict
        // `<` keeps the first worst scenario on ties.
        let n_ep = self.st.endpoints.len();
        let mut merged_slacks = vec![f64::INFINITY; n_ep];
        let mut merged_scenario = vec![u32::MAX; n_ep];
        for (i, sc) in scenarios.iter().enumerate() {
            let Ok(r) = &out[i].outcome else { continue };
            let mode = sc.effective_mode();
            for ep in 0..n_ep {
                if mode.is_some_and(|m| m.is_disabled(ep)) {
                    continue;
                }
                if r.slacks[ep] < merged_slacks[ep] {
                    merged_slacks[ep] = r.slacks[ep];
                    merged_scenario[ep] = i as u32;
                }
            }
        }
        let mut merged_wns = f64::INFINITY;
        let mut merged_tns = 0.0;
        let mut merged_violations = 0usize;
        for ep in 0..n_ep {
            let s = merged_slacks[ep];
            if merged_scenario[ep] == u32::MAX {
                continue; // no scenario covers this endpoint
            }
            if s < 0.0 {
                merged_tns += s;
                merged_violations += 1;
            }
            if s < merged_wns {
                merged_wns = s;
            }
        }
        McmmReport {
            scenarios: out,
            merged_slacks,
            merged_scenario,
            merged_wns_ps: merged_wns,
            merged_tns_ps: merged_tns,
            merged_violations,
        }
    }

    /// The serial twin of an MCMM scenario: the delta list that
    /// pre-scales every annotated graph arc by the scenario's corner and
    /// then applies the scenario's (corner-transformed) deltas on top.
    /// `update_timing(&twin)` on a clone of this engine, masked by the
    /// scenario's mode, is the reference a batched lane is bit-identical
    /// to — the differential suite is built on this helper, and so is the
    /// batch's own serial-replay fallback.
    ///
    /// Valid because `reannotate` writes a graph arc's delta to every
    /// expansion uniformly, and the snapshot import gives all expansions
    /// of a graph arc the same annotation — so a per-graph-arc delta list
    /// can express the per-expansion corner table exactly.
    pub fn scenario_twin_deltas(&self, scenario: &Scenario) -> Vec<ArcDelta> {
        match scenario.effective_corner() {
            None => scenario.deltas.clone(),
            Some(c) => {
                let st = &self.st;
                let base = |e: usize| {
                    let (m0, s0) = c.apply(st.arc_mean[e][0], st.arc_sigma[e][0]);
                    let (m1, s1) = c.apply(st.arc_mean[e][1], st.arc_sigma[e][1]);
                    ([m0, m1], [s0, s1])
                };
                twin_deltas(st, base, scenario.deltas.iter().map(|d| c.apply_delta(d)))
            }
        }
    }

    /// Normalizes a `&[Scenario]` batch: distinct non-identity corners
    /// become shared [`CornerTable`]s (validated once each), and corner
    /// lanes get their deltas pre-transformed so everything downstream
    /// deals in effective values only.
    fn prepare_lanes(&self, scenarios: &[Scenario]) -> (Vec<CornerResult>, LanePrep) {
        let mut keys: Vec<[u64; 4]> = Vec::new();
        let mut reps: Vec<CornerTransform> = Vec::new();
        let corner_of: Vec<Option<usize>> = scenarios
            .iter()
            .map(|sc| {
                sc.effective_corner().map(|c| {
                    let key = c.to_key();
                    keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                        keys.push(key);
                        reps.push(*c);
                        keys.len() - 1
                    })
                })
            })
            .collect();
        let tables = reps.iter().map(|c| self.build_corner_table(c)).collect();
        let eff_deltas = scenarios
            .iter()
            .zip(&corner_of)
            .map(|(sc, co)| {
                co.map(|ci| sc.deltas.iter().map(|d| reps[ci].apply_delta(d)).collect())
            })
            .collect();
        (
            tables,
            LanePrep {
                corner_of,
                eff_deltas,
            },
        )
    }

    /// Materializes one corner's transformed base annotations, rejecting
    /// transforms that drive any annotation non-finite (the same
    /// `NonFiniteMean` / `InvalidSigma` issues — and therefore the same
    /// `Validate` error category — the serial twin's `update_timing`
    /// would raise on the pre-scaled delta list).
    fn build_corner_table(&self, c: &CornerTransform) -> CornerResult {
        let st = &self.st;
        let n = st.arc_mean.len();
        let mut mean = Vec::with_capacity(n);
        let mut sigma = Vec::with_capacity(n);
        let mut report = ValidationReport::default();
        for e in 0..n {
            let mut m = [0.0; 2];
            let mut s = [0.0; 2];
            for rf in 0..2 {
                let (tm, ts) = c.apply(st.arc_mean[e][rf], st.arc_sigma[e][rf]);
                if !tm.is_finite() {
                    report.record(Issue::NonFiniteMean {
                        arc: e,
                        rf: rf as u8,
                        value: tm,
                    });
                }
                if !ts.is_finite() || ts < 0.0 {
                    report.record(Issue::InvalidSigma {
                        arc: e,
                        rf: rf as u8,
                        value: ts,
                    });
                }
                m[rf] = tm;
                s[rf] = ts;
            }
            mean.push(m);
            sigma.push(s);
        }
        if report.n_fatal > 0 || report.n_repairable > 0 || report.n_warning > 0 {
            Err(report)
        } else {
            Ok(CornerTable { mean, sigma })
        }
    }

    /// The shared core of every batched entry point: routes lanes
    /// (quarantine / serial replay / in-place cone lanes) and accounts the
    /// batch counters. `deadline` is the call's budget as one absolute
    /// instant, taken at the public entry point: the base sync, every
    /// serial lane and every cone lane are cut at that same instant.
    fn evaluate_lanes(
        &mut self,
        lanes: &[LaneSpec<'_>],
        tables: &mut [CornerResult],
        opts: &BatchOptions,
        deadline: Option<Deadline>,
    ) -> Vec<ScenarioReport> {
        self.stats.batches += 1;
        self.stats.batch_scenarios += lanes.len() as u64;
        self.stats.mcmm_corner_lanes += lanes.iter().filter(|l| l.corner.is_some()).count() as u64;
        let mut out: Vec<Option<LaneResult>> = (0..lanes.len()).map(|_| None).collect();

        // Per-scenario validation quarantine: a rejected scenario gets the
        // same `Validate` error a serial `update_timing` would raise and
        // never writes an annotation. An invalid corner quarantines its
        // lane the same way (the twin's pre-scaled delta list carries the
        // same non-finite annotations).
        //
        // Valid lanes whose serial run is not a cone update — the degraded
        // drift path (full health-gated refresh), or more distinct seeds
        // than the cone's own full-pass switch allows — are replayed
        // through real checkpoint/rollback sessions, which reproduces the
        // serial semantics exactly. They run first: their sessions may
        // desync the Top-K state the in-place lanes start from. Corner
        // pre-scaling is a lane-local *view*, not an annotation update, so
        // only the scenario's own deltas count toward drift and toward the
        // switch — and either serial path is report-bit-identical to the
        // cone (the fused refresh and cone ≡ full pass contracts), so the
        // routing choice never shows in the outcomes.
        let mut fast = Vec::new();
        for (i, spec) in lanes.iter().enumerate() {
            let err = match spec.corner.map(|ci| &tables[ci]) {
                Some(Err(report)) => Some(InstaError::Validate(report.clone())),
                _ => self.validate_deltas(spec.deltas).err(),
            };
            if let Some(e) = err {
                out[i] = Some((Err(e), None));
            } else if self.would_degrade(spec.deltas.len())
                || !seed_cone(&self.st, &mut self.cone, spec.deltas.iter().map(|d| d.arc))
            {
                out[i] = Some(self.run_serial_lane(spec, tables, opts, deadline));
            } else {
                fast.push(i);
            }
        }

        if !fast.is_empty() {
            let interrupt = (opts.cancel.is_some() || deadline.is_some())
                .then(|| Interrupt::new(opts.cancel.clone(), deadline));
            if self.ensure_base_synced(interrupt.as_ref()) {
                let results =
                    self.run_lanes(lanes, &fast, tables, opts.gradients, interrupt.as_ref());
                for (i, result) in results {
                    out[i] = Some(result);
                }
            } else {
                // Base propagation failed (pre-existing poison or an early
                // cancellation): fall back to serial sessions so every
                // scenario reports its own typed error.
                for &i in &fast {
                    out[i] = Some(self.run_serial_lane(&lanes[i], tables, opts, deadline));
                }
            }
        }

        let reports: Vec<ScenarioReport> = out
            .into_iter()
            .enumerate()
            .map(|(scenario, o)| {
                let (outcome, gradients) = o.expect("every scenario routed");
                ScenarioReport {
                    scenario,
                    outcome,
                    gradients,
                }
            })
            .collect();
        self.stats.batch_quarantined +=
            reports.iter().filter(|r| r.outcome.is_err()).count() as u64;
        reports
    }

    /// Whether a serial `update_timing` of a batch this size would take
    /// the degraded drift path. Mirrors the serial check, which runs
    /// *after* the batch's own odometer contribution is added.
    fn would_degrade(&self, batch_len: usize) -> bool {
        let updates = self.drift.updates + 1;
        let mass = self.drift.mass + batch_len as f64 / self.st.n_graph_arcs.max(1) as f64;
        self.cfg.drift_policy.exceeded(updates, mass)
    }

    /// Makes sure the Top-K arrays are the synced output of the current
    /// annotations — the shared base every scenario diverges from.
    /// Equivalent to the caller running `propagate()` before the batch.
    fn ensure_base_synced(&mut self, interrupt: Option<&Interrupt>) -> bool {
        if self.validity.topk_current() {
            return true;
        }
        if let Some(i) = interrupt {
            self.set_interrupt(i.clone());
        }
        let ok = self.try_propagate().is_ok();
        self.clear_interrupt();
        ok
    }

    /// Replays one lane through a real checkpoint/rollback session — the
    /// exact serial semantics the in-place lane is equivalent to. Corner
    /// lanes re-annotate the twin delta list (corner table over every
    /// graph arc, then the effective deltas); the mode masks the report
    /// after the session, exactly like the differential suite's twin.
    fn run_serial_lane(
        &mut self,
        spec: &LaneSpec<'_>,
        tables: &[CornerResult],
        opts: &BatchOptions,
        deadline: Option<Deadline>,
    ) -> LaneResult {
        let twin: Vec<ArcDelta>;
        let deltas: &[ArcDelta] = match spec.corner.map(|ci| &tables[ci]) {
            Some(Ok(table)) => {
                let base = |e: usize| (table.mean[e], table.sigma[e]);
                twin = twin_deltas(&self.st, base, spec.deltas.iter().cloned());
                &twin
            }
            Some(Err(_)) => unreachable!("invalid corners are quarantined before routing"),
            None => spec.deltas,
        };
        let mut session = self.begin_session();
        if let Some(token) = &opts.cancel {
            session = session.with_cancel(token.clone());
        }
        if let Some(deadline) = deadline {
            session = session.with_deadline_at(deadline);
        }
        let mut gradients = None;
        let outcome = session.update_timing(deltas).and_then(|report| {
            if opts.gradients {
                session.forward_lse()?;
                session.backward_tns()?;
                gradients = Some(session.engine().arc_gradients());
            }
            Ok(report)
        });
        session.rollback();
        let outcome = outcome.map(|r| match spec.mode {
            Some(m) => r.masked(m),
            None => r,
        });
        (outcome, gradients)
    }

    /// Runs the routed lanes against the synced base, grouped by corner
    /// (identity first, lanes of a group in submission order), and returns
    /// `(lane index, result)` pairs. One `batch.sweep` span per call.
    fn run_lanes(
        &mut self,
        lanes: &[LaneSpec<'_>],
        fast: &[usize],
        tables: &mut [CornerResult],
        gradients: bool,
        interrupt: Option<&Interrupt>,
    ) -> Vec<(usize, LaneResult)> {
        let k = self.state.k;
        let mut order = fast.to_vec();
        order.sort_by_key(|&i| lanes[i].corner.map_or(0, |ci| ci + 1));
        self.trace.begin("batch.sweep");
        let mut call = LaneCall {
            cfg: &self.cfg,
            interrupt,
            grads: gradients.then(|| grad_scratch(&self.st, k)),
            cone_lanes: 0,
            nodes: 0,
            pruned: 0,
            incident: None,
        };
        // The corner groups' base rows, rewritten in full by every
        // corner's base pass. Allocated by the engine's first corner lane
        // and kept: faulting their fresh pages in (a dense slot per pin
        // then) was 5 ms of every call on block-3 at K = 8, half a base
        // pass. Taken out for the
        // call, so an unwind only costs the next call the allocation.
        let mut scratch = self.corner_scratch.0.take();
        let mut base_passes = 0usize;
        let mut out: Vec<(usize, LaneResult)> = Vec::with_capacity(fast.len());
        for group in order.chunk_by(|&a, &b| lanes[a].corner == lanes[b].corner) {
            let Some(ci) = lanes[group[0]].corner else {
                // The engine's own arrays and report are the base.
                let base = self.state.report.clone().expect("base synced");
                for &i in group {
                    let r = call.run(
                        &mut self.st,
                        &mut self.state,
                        &mut self.cone,
                        &base,
                        &lanes[i],
                    );
                    out.push((i, r));
                }
                continue;
            };
            let Ok(table) = &mut tables[ci] else {
                unreachable!("invalid corners are quarantined before routing")
            };
            let state = scratch.get_or_insert_with(|| State::with_rows(self.st.n_rows(), k));
            // One ordinary full pass over the corner's annotations.
            let corner = CornerSwap::new(&mut self.st, table);
            base_passes += 1;
            let seed = |state: &mut State, nodes| seed_sources(corner.st, state, nodes);
            match forward::<false>(corner.st, state, self.cfg.n_threads, interrupt, None, &seed) {
                Ok(recovered) => {
                    if let Some(inc) = recovered {
                        call.incident.get_or_insert(inc);
                    }
                    let base = crate::metrics::evaluate(corner.st, state, self.cfg.cppr);
                    for &i in group {
                        let r = call.run(corner.st, state, &mut self.cone, &base, &lanes[i]);
                        out.push((i, r));
                    }
                }
                // The base pass died (cancelled, or a worker panic the
                // serial retry couldn't contain): every lane of this
                // corner reports its own copy of the error.
                Err(e) => {
                    if let InstaError::Runtime(inc) = &e {
                        call.incident.get_or_insert(inc.clone());
                    }
                    out.extend(
                        group
                            .iter()
                            .map(|&i| (i, (Err(clone_lane_error(&e)), None))),
                    );
                }
            }
        }
        let LaneCall {
            cone_lanes,
            nodes,
            pruned,
            incident,
            ..
        } = call;
        let corner_lanes = fast.iter().filter(|&&i| lanes[i].corner.is_some()).count();
        let masked_lanes = fast.iter().filter(|&&i| lanes[i].mode.is_some()).count();
        self.trace.end_with(&[
            ("lanes", fast.len() as f64),
            ("corner_lanes", corner_lanes as f64),
            ("masked_lanes", masked_lanes as f64),
            ("cone_lanes", cone_lanes as f64),
            ("base_passes", base_passes as f64),
            ("nodes", nodes as f64),
            ("pruned", pruned as f64),
            (
                "ok",
                if out.iter().all(|(_, r)| r.0.is_ok()) {
                    1.0
                } else {
                    0.0
                },
            ),
        ]);
        self.corner_scratch.0 = scratch;
        // A panic is booked once per call, whichever lane hit it; the lanes
        // carry their own errors.
        let _ = self.settle(Ok(incident));
        out
    }
}

/// Scratch of a call's differentiable passes (they never touch the Top-K
/// arrays), so the engine's own LSE/gradient state stays untouched. Every
/// pass resets what it reads, so one allocation serves every lane.
fn grad_scratch(st: &Static, k: usize) -> State {
    let n_exp = st.arc_parent.len();
    State {
        lse_arrival: vec![f64::NEG_INFINITY; st.n * 2],
        lse_weight: vec![[0.0; 2]; n_exp],
        grad_arrival: vec![0.0; st.n * 2],
        grad_arc: vec![[0.0; 2]; n_exp],
        grad_fanout: vec![[0.0; 2]; n_exp],
        ..State::with_rows(0, k)
    }
}

/// The per-graph-arc delta list of a corner twin: `base(e)` for the first
/// expansion `e` of every annotated graph arc, then the lane's effective
/// deltas.
fn twin_deltas(
    st: &Static,
    base: impl Fn(usize) -> ([f64; 2], [f64; 2]),
    deltas: impl Iterator<Item = ArcDelta>,
) -> Vec<ArcDelta> {
    let mut out = Vec::with_capacity(st.n_graph_arcs);
    for g in 0..st.n_graph_arcs {
        if let Some(&e0) = st.expansion(g).first() {
            let (mean, sigma) = base(e0 as usize);
            out.push(ArcDelta {
                arc: g as u32,
                mean,
                sigma,
            });
        }
    }
    out.extend(deltas);
    out
}

/// A corner's table standing in for the engine's annotation arrays while
/// that corner's base pass and lanes run: an O(1) swap, so the kernels
/// keep reading `st.arc_mean` / `st.arc_sigma` and no annotation parameter
/// is threaded through them. Swapped back on drop.
struct CornerSwap<'a> {
    st: &'a mut Static,
    table: &'a mut CornerTable,
}

impl<'a> CornerSwap<'a> {
    fn new(st: &'a mut Static, table: &'a mut CornerTable) -> Self {
        let mut swap = CornerSwap { st, table };
        swap.swap();
        swap
    }

    fn swap(&mut self) {
        std::mem::swap(&mut self.st.arc_mean, &mut self.table.mean);
        std::mem::swap(&mut self.st.arc_sigma, &mut self.table.sigma);
    }
}

impl Drop for CornerSwap<'_> {
    fn drop(&mut self) {
        self.swap();
    }
}

/// A lane applied in place: its deltas written over the annotations and
/// its cone swept over the base arrays. Dropping it takes every write back
/// by the cone's undo log, as a session rollback does — after a finished
/// lane, a failed one, or an unwind.
pub(crate) struct LaneUndo<'a> {
    pub(crate) st: &'a mut Static,
    pub(crate) state: &'a mut State,
    pub(crate) cone: &'a mut ConeScratch,
}

impl<'a> LaneUndo<'a> {
    /// Writes `deltas` and sweeps their cone over `state`, which must be
    /// the full pass's output for `st`'s current annotations.
    pub(crate) fn sweep(
        st: &'a mut Static,
        state: &'a mut State,
        cone: &'a mut ConeScratch,
        deltas: &[ArcDelta],
        interrupt: Option<&Interrupt>,
    ) -> (Self, Result<Option<RuntimeIncident>, InstaError>) {
        let lane = LaneUndo { st, state, cone };
        lane.cone.annotate(lane.st, deltas);
        let seeded = seed_cone(lane.st, lane.cone, deltas.iter().map(|d| d.arc));
        debug_assert!(seeded, "lanes past the seed switch run as serial sessions");
        // No `forward.cone` span and no level profile per lane: the call's
        // one `batch.sweep` span carries the totals. No log budget either:
        // the log is the lane's only way back.
        let swept = cone_sweep(lane.st, lane.state, lane.cone, interrupt, None, None);
        (lane, swept)
    }
}

impl Drop for LaneUndo<'_> {
    fn drop(&mut self) {
        self.cone.undo(self.st, self.state);
        self.cone.forget();
    }
}

/// What the lanes of one call share: configuration, the call's one
/// interrupt, the gradient scratch, and the `batch.sweep` span's tallies.
struct LaneCall<'a> {
    cfg: &'a InstaConfig,
    interrupt: Option<&'a Interrupt>,
    /// Present when the call asked for gradients.
    grads: Option<State>,
    cone_lanes: usize,
    nodes: usize,
    pruned: usize,
    /// The first contained (or fatal) worker panic of the call.
    incident: Option<RuntimeIncident>,
}

impl LaneCall<'_> {
    /// One lane against `(st, state, base)`: `state` is the full pass's
    /// output for `st`'s annotations and `base` its report. Returns with
    /// all three as they were.
    fn run(
        &mut self,
        st: &mut Static,
        state: &mut State,
        cone: &mut ConeScratch,
        base: &InstaReport,
        spec: &LaneSpec<'_>,
    ) -> LaneResult {
        if spec.deltas.is_empty() {
            // Nothing to sweep: the lane is its base, under its mode.
            let mut report = base.clone();
            if spec.mode.is_some() {
                report.reduce(spec.mode);
            }
            return self.finish(st, report);
        }
        let (lane, swept) = LaneUndo::sweep(st, state, cone, spec.deltas, self.interrupt);
        self.cone_lanes += 1;
        self.nodes += lane.cone.nodes;
        self.pruned += lane.cone.pruned;
        match swept {
            Ok(None) => {}
            Ok(Some(inc)) => {
                self.incident.get_or_insert(inc);
            }
            Err(e) => {
                if let InstaError::Runtime(inc) = &e {
                    self.incident.get_or_insert(inc.clone());
                }
                return (Err(e), None);
            }
        }
        // Only endpoints on recomputed nodes can differ from the base.
        let mut report = base.clone();
        crate::metrics::refresh(
            lane.st,
            lane.state,
            &mut report,
            |node| lane.cone.recomputed(node),
            spec.mode,
            self.cfg.cppr,
        );
        // Gradients read the lane's annotations: before `lane` drops.
        self.finish(lane.st, report)
    }

    /// The session layer's no-NaN-escapes gate, then the optional
    /// differentiable passes against `st`'s current annotations —
    /// bit-identical to a serial session running `update_timing` +
    /// `forward_lse` + `backward_tns`, because it *is* the same kernel
    /// code reading the same values.
    fn finish(&mut self, st: &Static, report: InstaReport) -> LaneResult {
        if let Some(err) = crate::health::nan_slack(st, &report) {
            return (Err(err), None);
        }
        let Some(scratch) = &mut self.grads else {
            return (Ok(report), None);
        };
        // Lane passes run on scratch buffers; they never feed the engine's
        // per-level kernel profiles.
        let passes = crate::lse::forward_lse(
            st,
            scratch,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            self.interrupt,
            None,
        )
        .and_then(|_| {
            crate::backward::backward(
                st,
                scratch,
                &report,
                Objective::Tns,
                self.cfg.lse_tau,
                self.cfg.n_threads,
                self.interrupt,
                None,
            )
        });
        if let Err(e) = passes {
            return (Err(e), None);
        }
        let gradients = graph_arc_gradients(st, &scratch.grad_arc);
        (Ok(report), Some(gradients))
    }
}

/// Duplicates an error a batched lane can carry, for fanning it out: a
/// failed corner base pass to every lane of the corner, a deduped MCMM
/// lane to every scenario sharing it ([`InstaError`] is intentionally not
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
