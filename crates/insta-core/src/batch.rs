//! Batched multi-scenario evaluation: one levelized sweep propagates S
//! delta-sets simultaneously (paper §IV-B — INSTA-Size batches thousands
//! of what-if candidates per GPU pass).
//!
//! [`InstaEngine::evaluate_batch`] takes S [`DeltaSet`]s and returns one
//! [`ScenarioReport`] per scenario, bit-identical to S independent serial
//! `update_timing` runs from the current engine state. The batched path
//! never replays S full sweeps; it exploits what the serial path cannot:
//!
//! * **Shared base.** All scenarios diverge from the *same* synced Top-K
//!   state. The base is propagated (at most) once; each scenario only
//!   recomputes the nodes inside its own dirty fanout cone.
//! * **SoA scenario lanes.** A [`ScenarioBatch`] holds per-lane Top-K
//!   queues in a *compact* structure-of-arrays layout: storage exists
//!   only for dirty `(node, lane)` pairs. A prefix sum of
//!   `popcount(dirty[node])` assigns each pair a dense slot (node-major,
//!   lane-minor), element index `(slot·2 + rf)·k + j` — so every lane's
//!   k-slice is contiguous, the serial kernels' queue primitives apply
//!   unchanged, and the allocation scales with the dirty cone instead of
//!   `nodes × lanes`.
//! * **Bit-identity by construction.** The per-node merge body is the
//!   *same function* the serial kernel runs
//!   ([`merge_node_queue`](crate::forward)), with parent and annotation
//!   reads routed through lane-aware closures: a dirty parent reads the
//!   lane's recomputed queue, a clean parent falls through to the base
//!   arrays, and a touched arc reads the lane's overlaid delta. Induction
//!   over levels then gives bit-equality with a serial re-annotate +
//!   propagate, without maintaining a second kernel.
//!
//! **Quarantine semantics.** A poisoned scenario — validation-rejected
//! deltas, a NaN slack, a cancelled or failed gradient pass — is
//! quarantined *per scenario*: its `outcome` carries the same typed
//! [`InstaError`] the serial session would raise, while sibling scenarios
//! complete bit-identically to a clean run. Scenarios whose serial run
//! would take the degraded drift path, and any batch whose base
//! propagation fails, are transparently replayed through real
//! checkpoint/rollback sessions so the serial semantics (including
//! rollback and counter behavior) are reproduced exactly.
//!
//! Like a rolled-back session, a batch leaves the engine's annotations,
//! drift odometer, and report untouched — the only state it may write is
//! the base sync itself (identical to the caller running
//! [`propagate`](InstaEngine::propagate) first) and the monotonic batch
//! counters.
//!
//! **MCMM lanes.** A lane is not just a delta-set: a [`Scenario`] also
//! carries an optional [`CornerTransform`] (a lane-local affine derate of
//! every arc's `(μ, σ)` annotation, composed *under* the scenario's own
//! deltas) and an optional [`ModeMask`] (per-mode endpoint exceptions:
//! disabled endpoints keep their slack in the report but contribute
//! neither WNS nor TNS). Corner lanes reuse the same sweep — the corner
//! materializes as a per-corner transformed-annotation table that
//! [`LaneCtx::arc_ann`] falls through to before the base arrays, and the
//! lane's dirty mask covers every node with fanin (a corner re-annotates
//! every arc). The identity contract extends verbatim: a lane with corner
//! `C` and mode `M` is bit-identical to a serial session whose
//! annotations were pre-scaled by `C` (see
//! [`InstaEngine::scenario_twin_deltas`]) and whose report was masked by
//! `M`. [`InstaEngine::evaluate_mcmm`] adds scenario dedup (mode is a
//! report-time filter, so `(deltas, corner)`-equal scenarios share one
//! propagated lane) and a merged worst-corner slack per endpoint.

use crate::engine::{InstaEngine, State, Static};
use crate::error::{InstaError, Kernel, PoisonedArray, RuntimeIncident};
use crate::forward::merge_node_queue;
use crate::metrics::InstaReport;
use crate::parallel::{chaos, resolve_threads, Interrupt, MergeArena, PanicCell, PAR_THRESHOLD};
use crate::stat::{with_model, StatModel};
use crate::topk::NO_SP;
use crate::validate::{Issue, ValidationReport};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{EpId, SpId};
use insta_support::timer::Deadline;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// Scenario lanes per shared sweep — the width of the `u64` dirty masks.
/// Larger batches are processed in chunks of this size.
pub(crate) const MAX_LANES: usize = 64;

/// One distinct corner's transformed base annotations, indexed by
/// expanded arc — built once per `evaluate_*` call and shared by every
/// lane carrying that corner. Reading `table[e]` instead of
/// `C(st.arc_mean[e])` in the inner loop keeps the merge body a pure
/// load, and guarantees the lane and its serial twin (which is
/// re-annotated from this same table's values) see identical bits.
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
/// `deltas` are already corner-transformed ("effective"), `corner` is
/// present only when non-identity, `mode` only when it masks something.
#[derive(Clone, Copy)]
pub(crate) struct LaneSpec<'a> {
    deltas: &'a [ArcDelta],
    corner: Option<&'a CornerResult>,
    mode: Option<&'a ModeMask>,
}

impl<'a> LaneSpec<'a> {
    pub(crate) fn from_deltas(deltas: &'a [ArcDelta]) -> Self {
        LaneSpec {
            deltas,
            corner: None,
            mode: None,
        }
    }

    /// The lane's corner table (routed lanes only carry valid corners).
    fn table(&self) -> Option<&'a CornerTable> {
        self.corner.map(|r| match r {
            Ok(t) => t,
            Err(_) => unreachable!("invalid corners are quarantined before routing"),
        })
    }
}

/// Owned per-call corner/delta storage backing the `LaneSpec` views of a
/// `&[Scenario]` batch.
struct LanePrep {
    /// Distinct non-identity corners, materialized (or failed).
    tables: Vec<CornerResult>,
    /// Per-scenario index into `tables`.
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
            corner: self.corner_of[i].map(|ci| &self.tables[ci]),
            mode: scenarios[i].effective_mode(),
        }
    }
}

impl InstaEngine {
    /// Evaluates S what-if scenarios in one batched pass, each
    /// bit-identical to a serial `update_timing` of that scenario alone
    /// from the current engine state.
    ///
    /// A poisoned scenario is quarantined per-scenario (its `outcome` is
    /// the serial error), never batch-fatal. The engine's annotations and
    /// report are left untouched — like S sessions that all rolled back.
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
        let specs: Vec<LaneSpec<'_>> = scenarios
            .iter()
            .map(|sc| LaneSpec::from_deltas(&sc.deltas))
            .collect();
        self.evaluate_lanes(&specs, opts)
    }

    /// Evaluates S full MCMM scenarios (deltas × corner × mode) in one
    /// batched pass. Each lane is bit-identical to a serial
    /// `update_timing` of [`scenario_twin_deltas`](Self::scenario_twin_deltas)
    /// whose report was then masked by the scenario's mode
    /// ([`InstaReport::masked`]).
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
        let prep = self.prepare_lanes(scenarios);
        let specs: Vec<LaneSpec<'_>> =
            (0..scenarios.len()).map(|i| prep.spec(scenarios, i)).collect();
        self.evaluate_lanes(&specs, opts)
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
        self.stats.mcmm_evaluations += 1;
        let prep = self.prepare_lanes(scenarios);

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
            let lane = *seen
                .entry((prep.corner_of[i], key))
                .or_insert_with(|| {
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
        let lane_reports = self.evaluate_lanes(&specs, opts);
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
                let mut out = Vec::with_capacity(st.n_graph_arcs + scenario.deltas.len());
                for g in 0..st.n_graph_arcs {
                    let er = st.expansion_start[g] as usize..st.expansion_start[g + 1] as usize;
                    let Some(&e0) = st.expansion_arc[er].first() else {
                        continue;
                    };
                    let e0 = e0 as usize;
                    let (m0, s0) = c.apply(st.arc_mean[e0][0], st.arc_sigma[e0][0]);
                    let (m1, s1) = c.apply(st.arc_mean[e0][1], st.arc_sigma[e0][1]);
                    out.push(ArcDelta {
                        arc: g as u32,
                        mean: [m0, m1],
                        sigma: [s0, s1],
                    });
                }
                out.extend(scenario.deltas.iter().map(|d| c.apply_delta(d)));
                out
            }
        }
    }

    /// Normalizes a `&[Scenario]` batch into per-lane views: distinct
    /// non-identity corners become shared [`CornerTable`]s (validated
    /// once each), and corner lanes get their deltas pre-transformed so
    /// everything downstream deals in effective values only.
    fn prepare_lanes(&self, scenarios: &[Scenario]) -> LanePrep {
        let mut keys: Vec<[u64; 4]> = Vec::new();
        let mut reps: Vec<CornerTransform> = Vec::new();
        let corner_of: Vec<Option<usize>> = scenarios
            .iter()
            .map(|sc| {
                sc.effective_corner().map(|c| {
                    let key = c.to_key();
                    keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                        keys.push(key);
                        reps.push(c.clone());
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
        LanePrep {
            tables,
            corner_of,
            eff_deltas,
        }
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
    /// (quarantine / serial-replay / fast sweep) and accounts the batch
    /// counters.
    fn evaluate_lanes(
        &mut self,
        lanes: &[LaneSpec<'_>],
        opts: &BatchOptions,
    ) -> Vec<ScenarioReport> {
        self.stats.batches += 1;
        self.stats.batch_scenarios += lanes.len() as u64;
        self.stats.mcmm_corner_lanes +=
            lanes.iter().filter(|l| l.corner.is_some()).count() as u64;
        let mut out: Vec<Option<ScenarioReport>> = (0..lanes.len()).map(|_| None).collect();

        // Per-scenario validation quarantine: a rejected scenario gets the
        // same `Validate` error a serial `update_timing` would raise and
        // never contributes dirt to the shared sweep. An invalid corner
        // quarantines its lane the same way (the twin's pre-scaled delta
        // list carries the same non-finite annotations).
        let mut live = Vec::new();
        for (i, spec) in lanes.iter().enumerate() {
            let err = match spec.corner {
                Some(Err(report)) => Some(InstaError::Validate(report.clone())),
                _ => self.validate_deltas(spec.deltas).err(),
            };
            match err {
                None => live.push(i),
                Some(e) => {
                    out[i] = Some(ScenarioReport {
                        scenario: i,
                        outcome: Err(e),
                        gradients: None,
                    });
                }
            }
        }

        // Scenarios whose serial run would take the degraded drift path
        // (full health-gated refresh) can't share the sparse sweep: replay
        // them through real checkpoint/rollback sessions, which reproduces
        // the serial semantics exactly. They run first because their
        // sessions desync the Top-K state that the fast path re-syncs.
        // Corner pre-scaling is a lane-local *view*, not an annotation
        // update, so only the scenario's own deltas count toward drift —
        // and the degraded serial path is report-bit-identical to the
        // fast one (the fused refresh contract), so the routing choice
        // never shows in the outcomes.
        let mut fast = Vec::new();
        for &i in &live {
            if self.would_degrade(lanes[i].deltas.len()) {
                out[i] = Some(self.run_serial_lane(i, &lanes[i], opts));
            } else {
                fast.push(i);
            }
        }

        if !fast.is_empty() {
            if self.ensure_base_synced(opts) {
                let interrupt = (opts.cancel.is_some() || opts.deadline.is_some()).then(|| {
                    Interrupt::new(opts.cancel.clone(), opts.deadline.map(Deadline::after))
                });
                // One backend dispatch for the whole batch; the clone keeps
                // the borrow disjoint from the `&mut self` chunk runner.
                let backend = self.backend.clone();
                for chunk in fast.chunks(MAX_LANES) {
                    let specs: Vec<LaneSpec<'_>> =
                        chunk.iter().map(|&i| lanes[i]).collect();
                    let results = with_model!(&backend, m => self.run_scenario_chunk(
                        &specs,
                        opts,
                        interrupt.as_ref(),
                        m,
                    ));
                    for (&i, (outcome, gradients)) in chunk.iter().zip(results) {
                        out[i] = Some(ScenarioReport {
                            scenario: i,
                            outcome,
                            gradients,
                        });
                    }
                }
            } else {
                // Base propagation failed (pre-existing poison or an early
                // cancellation): fall back to serial sessions so every
                // scenario reports its own typed error.
                for &i in &fast {
                    out[i] = Some(self.run_serial_lane(i, &lanes[i], opts));
                }
            }
        }

        let reports: Vec<ScenarioReport> =
            out.into_iter().map(|o| o.expect("every scenario routed")).collect();
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
    fn ensure_base_synced(&mut self, opts: &BatchOptions) -> bool {
        if self.topk_synced && self.state.report.is_some() {
            return true;
        }
        if opts.cancel.is_some() || opts.deadline.is_some() {
            self.set_interrupt(Interrupt::new(
                opts.cancel.clone(),
                opts.deadline.map(Deadline::after),
            ));
        }
        let ok = self.try_propagate().is_ok();
        self.clear_interrupt();
        ok
    }

    /// Replays one lane through a real checkpoint/rollback session — the
    /// exact serial semantics the fast path is equivalent to. Corner
    /// lanes re-annotate the twin delta list (corner table over every
    /// graph arc, then the effective deltas); the mode masks the report
    /// after the session, exactly like the differential suite's twin.
    fn run_serial_lane(
        &mut self,
        scenario: usize,
        spec: &LaneSpec<'_>,
        opts: &BatchOptions,
    ) -> ScenarioReport {
        let twin: Vec<ArcDelta>;
        let deltas: &[ArcDelta] = match spec.table() {
            Some(table) => {
                let st = &self.st;
                let mut t = Vec::with_capacity(st.n_graph_arcs + spec.deltas.len());
                for g in 0..st.n_graph_arcs {
                    let er = st.expansion_start[g] as usize..st.expansion_start[g + 1] as usize;
                    let Some(&e0) = st.expansion_arc[er].first() else {
                        continue;
                    };
                    t.push(ArcDelta {
                        arc: g as u32,
                        mean: table.mean[e0 as usize],
                        sigma: table.sigma[e0 as usize],
                    });
                }
                t.extend_from_slice(spec.deltas);
                twin = t;
                &twin
            }
            None => spec.deltas,
        };
        let mut session = self.begin_session();
        if let Some(token) = &opts.cancel {
            session = session.with_cancel(token.clone());
        }
        if let Some(budget) = opts.deadline {
            session = session.with_deadline(budget);
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
        ScenarioReport {
            scenario,
            outcome,
            gradients,
        }
    }

    /// Runs up to [`MAX_LANES`] lanes through one shared sweep and
    /// returns `(outcome, gradients)` per lane.
    fn run_scenario_chunk<M: StatModel>(
        &mut self,
        specs: &[LaneSpec<'_>],
        opts: &BatchOptions,
        interrupt: Option<&Interrupt>,
        model: &M,
    ) -> Vec<(Result<InstaReport, InstaError>, Option<Vec<f64>>)> {
        let nt = resolve_threads(self.cfg.n_threads);
        let mut sb = ScenarioBatch::new(&self.st, &self.state, specs);
        self.trace.begin("batch.sweep");
        let swept = sb.sweep(nt, interrupt, model);
        if self.trace.is_enabled() {
            let (dirty_levels, dirty_nodes) = sb.occupancy();
            self.trace.end_with(&[
                ("lanes", specs.len() as f64),
                ("corner_lanes", specs.iter().filter(|s| s.corner.is_some()).count() as f64),
                ("masked_lanes", specs.iter().filter(|s| s.mode.is_some()).count() as f64),
                ("dirty_levels", dirty_levels as f64),
                ("dirty_nodes", dirty_nodes as f64),
                ("ok", if swept.is_ok() { 1.0 } else { 0.0 }),
            ]);
        }
        match swept {
            Err(e) => {
                // The shared sweep died (cancelled, or a worker panic the
                // serial retry couldn't contain): every lane of this chunk
                // reports its own copy of the error.
                let out = specs
                    .iter()
                    .map(|_| (Err(clone_kernel_error(&e)), None))
                    .collect();
                drop(sb);
                if let InstaError::Runtime(inc) = e {
                    self.record_incident(&inc);
                    self.last_incident = Some(inc);
                }
                out
            }
            Ok(recovered) => {
                let base_report = self.state.report.as_ref().expect("base synced");
                let mut out = Vec::with_capacity(specs.len());
                for lane in 0..specs.len() {
                    let report = sb.lane_report(lane, base_report, self.cfg.cppr, model);
                    // The session layer's no-NaN-escapes gate, per lane.
                    if let Some(err) = nan_gate(&self.st, &report) {
                        out.push((Err(err), None));
                        continue;
                    }
                    let gradients = if opts.gradients {
                        match self.lane_gradients(&sb, lane, &report, interrupt, model) {
                            Ok(g) => Some(g),
                            Err(e) => {
                                out.push((Err(e), None));
                                continue;
                            }
                        }
                    } else {
                        None
                    };
                    out.push((Ok(report), gradients));
                }
                drop(sb);
                if let Some(inc) = recovered {
                    self.record_incident(&inc);
                    self.last_incident = Some(inc);
                }
                out
            }
        }
    }

    /// Differentiable passes for one lane: LSE forward against the lane's
    /// overlaid annotations, then the shared backward sweep — into scratch
    /// buffers, so the engine's own LSE/gradient state is untouched.
    /// Bit-identical to a serial session running `update_timing` +
    /// `forward_lse` + `backward_tns` on this scenario, because it *is*
    /// the same kernel code reading the same values.
    fn lane_gradients<M: StatModel>(
        &self,
        sb: &ScenarioBatch<'_>,
        lane: usize,
        report: &InstaReport,
        interrupt: Option<&Interrupt>,
        model: &M,
    ) -> Result<Vec<f64>, InstaError> {
        let st = &self.st;
        let n_exp = st.arc_parent.len();
        let mut scratch = State {
            k: self.state.k,
            // The differentiable passes never touch the Top-K arrays.
            topk_arrival: Vec::new(),
            topk_mean: Vec::new(),
            topk_sigma: Vec::new(),
            topk_sp: Vec::new(),
            lse_arrival: vec![f64::NEG_INFINITY; st.n * 2],
            lse_weight: vec![[0.0; 2]; n_exp],
            grad_arrival: vec![0.0; st.n * 2],
            grad_arc: vec![[0.0; 2]; n_exp],
            grad_fanout: vec![[0.0; 2]; n_exp],
            report: None,
            lse_tau_used: None,
        };
        let ann = |ai: usize, rf: usize| sb.arc_ann(ai, rf, lane);
        crate::lse::forward_lse_with(
            st,
            &mut scratch,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            interrupt,
            &ann,
            // Lane passes run on scratch buffers; they never feed the
            // engine's per-level kernel profiles.
            None,
            model,
        )?;
        crate::backward::backward(
            st,
            &mut scratch,
            report,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            interrupt,
            None,
            model,
        )?;
        // Aggregate expanded-arc gradients onto graph arcs, exactly like
        // `arc_gradients`.
        let mut out = vec![0.0; st.n_graph_arcs];
        for (g, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &e in &st.expansion_arc
                [st.expansion_start[g] as usize..st.expansion_start[g + 1] as usize]
            {
                let ga = scratch.grad_arc[e as usize];
                acc += ga[0] + ga[1];
            }
            *slot = acc;
        }
        Ok(out)
    }
}

/// Duplicates a kernel-sweep error for each lane of an aborted chunk
/// ([`InstaError`] is intentionally not `Clone`; the sweep only raises
/// these variants).
fn clone_kernel_error(e: &InstaError) -> InstaError {
    match e {
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
        _ => unreachable!("kernel sweeps raise only Cancelled/Runtime/Numeric"),
    }
}

/// Duplicates any error a batched lane can carry — the kernel variants
/// plus validation quarantines (dedup in `evaluate_mcmm` fans one lane's
/// error out to every scenario sharing the lane).
fn clone_lane_error(e: &InstaError) -> InstaError {
    match e {
        InstaError::Validate(report) => InstaError::Validate(report.clone()),
        other => clone_kernel_error(other),
    }
}

/// The session layer's no-NaN-escapes gate for one lane's report.
fn nan_gate(st: &Static, report: &InstaReport) -> Option<InstaError> {
    let ep = report.slacks.iter().position(|s| s.is_nan())?;
    let node = st.endpoints[ep].node;
    Some(InstaError::Numeric {
        kernel: Kernel::Forward,
        array: PoisonedArray::TopKArrival,
        node,
        orig_node: st.node_orig[node as usize],
        level: crate::health::level_of(st, node as usize),
        rf: 0,
        value: f64::NAN,
    })
}

/// S scenarios' worth of sparse propagation state over one shared base —
/// the SoA layout of the batched kernel (see the module docs).
pub(crate) struct ScenarioBatch<'a> {
    st: &'a Static,
    base: &'a State,
    /// Lane count S of this chunk (≤ [`MAX_LANES`]).
    lanes: usize,
    k: usize,
    /// Per-lane corner table (`None` = base annotations). A corner lane's
    /// annotation reads fall through overlay → table → never base.
    corner: Vec<Option<&'a CornerTable>>,
    /// Per-lane mode mask, applied by [`lane_report`](Self::lane_report).
    mode: Vec<Option<&'a ModeMask>>,
    /// Expanded arc → overlay slot (`u32::MAX` = untouched by any lane).
    touched: Vec<u32>,
    /// Overlaid annotations at `slot·lanes + lane`; untouched lanes of a
    /// touched arc hold the base annotation.
    over_mean: Vec<[f64; 2]>,
    over_sigma: Vec<[f64; 2]>,
    /// Per-node lane bitmask: which scenarios must recompute this node.
    dirty: Vec<u64>,
    /// OR of `dirty` over each level (clean levels are skipped wholesale).
    level_dirty: Vec<u64>,
    /// Dirty-node count per level (parallel-launch sizing).
    level_dirty_nodes: Vec<u32>,
    /// Prefix sum of `popcount(dirty[v])` over nodes (length `n + 1`):
    /// dirty `(node, lane)` pair → dense storage slot. The slot of lane
    /// `L` at node `v` is `slot_start[v] + popcount(dirty[v] & (2^L − 1))`
    /// — node-major, lane-minor, so a level's slots are one contiguous
    /// window (levels are contiguous node ranges).
    slot_start: Vec<u32>,
    /// Per-lane Top-K queues, compact: element `(slot·2 + rf)·k + j`.
    /// Only dirty `(node, lane)` pairs have storage at all.
    sc_arrival: Vec<f64>,
    sc_mean: Vec<f64>,
    sc_sigma: Vec<f64>,
    sc_sp: Vec<u32>,
}

/// The shared-ref context workers need (everything but the mutable lane
/// queues).
#[derive(Clone, Copy)]
struct LaneCtx<'a> {
    st: &'a Static,
    base: &'a State,
    k: usize,
    lanes: usize,
    corner: &'a [Option<&'a CornerTable>],
    dirty: &'a [u64],
    touched: &'a [u32],
    over_mean: &'a [[f64; 2]],
    over_sigma: &'a [[f64; 2]],
    slot_start: &'a [u32],
}

impl LaneCtx<'_> {
    /// A lane's annotation of an expanded arc: the overlaid delta when
    /// the lane touched it, else the lane's corner-transformed base, else
    /// the base annotation. (Overlay entries of a corner lane are already
    /// in post-transform units, so the overlay needs no second apply.)
    #[inline]
    fn arc_ann(&self, ai: usize, rf: usize, lane: usize) -> (f64, f64) {
        let slot = self.touched[ai];
        if slot != u32::MAX {
            let oi = slot as usize * self.lanes + lane;
            (self.over_mean[oi][rf], self.over_sigma[oi][rf])
        } else if let Some(table) = self.corner[lane] {
            (table.mean[ai][rf], table.sigma[ai][rf])
        } else {
            (self.st.arc_mean[ai][rf], self.st.arc_sigma[ai][rf])
        }
    }

    /// Compact storage slot of a dirty `(node, lane)` pair: the node's
    /// slot base plus the lane's rank among the node's dirty lanes.
    #[inline]
    fn lane_slot(&self, v: usize, lane: usize) -> usize {
        debug_assert!(self.dirty[v] >> lane & 1 == 1, "slot of a clean pair");
        let rank = (self.dirty[v] & ((1u64 << lane) - 1)).count_ones();
        (self.slot_start[v] + rank) as usize
    }
}

impl<'a> ScenarioBatch<'a> {
    pub(crate) fn new(st: &'a Static, base: &'a State, specs: &[LaneSpec<'a>]) -> Self {
        let lanes = specs.len();
        debug_assert!(lanes > 0 && lanes <= MAX_LANES);
        let k = base.k;
        let n = st.n;
        let corner: Vec<Option<&'a CornerTable>> =
            specs.iter().map(LaneSpec::table).collect();
        let mode: Vec<Option<&'a ModeMask>> = specs.iter().map(|s| s.mode).collect();

        // ---- Overlay + dirty seeds ----------------------------------
        let mut touched = vec![u32::MAX; st.arc_parent.len()];
        let mut over_mean: Vec<[f64; 2]> = Vec::new();
        let mut over_sigma: Vec<[f64; 2]> = Vec::new();
        let mut dirty = vec![0u64; n];
        for (lane, spec) in specs.iter().enumerate() {
            let bit = 1u64 << lane;
            for d in spec.deltas {
                let g = d.arc as usize;
                let er =
                    st.expansion_start[g] as usize..st.expansion_start[g + 1] as usize;
                for &e in &st.expansion_arc[er] {
                    let e = e as usize;
                    let slot = if touched[e] == u32::MAX {
                        let slot = (over_mean.len() / lanes) as u32;
                        touched[e] = slot;
                        // Every lane starts from its own view of the
                        // untouched arc — the corner-transformed base for
                        // corner lanes, the base annotation otherwise —
                        // so lanes that never re-annotate this arc keep
                        // reading their corner through the overlay.
                        for l2 in 0..lanes {
                            match corner[l2] {
                                Some(t) => {
                                    over_mean.push(t.mean[e]);
                                    over_sigma.push(t.sigma[e]);
                                }
                                None => {
                                    over_mean.push(st.arc_mean[e]);
                                    over_sigma.push(st.arc_sigma[e]);
                                }
                            }
                        }
                        slot
                    } else {
                        touched[e]
                    };
                    let oi = slot as usize * lanes + lane;
                    // Batch order: a later delta to the same arc wins,
                    // exactly like `reannotate`'s sequential writes. A
                    // corner lane's deltas arrive pre-transformed.
                    over_mean[oi] = d.mean;
                    over_sigma[oi] = d.sigma;
                    dirty[st.arc_child[e] as usize] |= bit;
                }
            }
        }

        // A corner re-annotates every arc, so a corner lane's dirty cone
        // is every node with fanin — exactly the set the serial twin's
        // full re-annotate recomputes. Level-0 nodes stay clean (their
        // queues are source-seeded, which the corner leaves alone).
        let corner_bits = corner
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .fold(0u64, |acc, (l, _)| acc | 1u64 << l);
        if corner_bits != 0 {
            for v in 0..n {
                if !st.fanin_range(v).is_empty() {
                    dirty[v] |= corner_bits;
                }
            }
        }

        // ---- Levelized dirt propagation -----------------------------
        // A node is dirty for a lane when an incoming arc was touched or
        // any parent is dirty. Seeds sit on arc children, which always
        // have fanin, so level 0 stays clean.
        let num_levels = st.num_levels();
        let mut level_dirty = vec![0u64; num_levels];
        let mut level_dirty_nodes = vec![0u32; num_levels];
        for l in 1..num_levels {
            let mut any = 0u64;
            let mut cnt = 0u32;
            for v in st.level_range(l) {
                let mut m = dirty[v];
                for ai in st.fanin_range(v) {
                    m |= dirty[st.arc_parent[ai] as usize];
                }
                dirty[v] = m;
                if m != 0 {
                    any |= m;
                    cnt += 1;
                }
            }
            level_dirty[l] = any;
            level_dirty_nodes[l] = cnt;
        }

        // Compact slot map: storage only for dirty (node, lane) pairs.
        // The dense alternative (`nodes × lanes × 2k` per array) zeroes
        // hundreds of megabytes per call on large blocks — more time than
        // the sweep itself when the dirty cone is sparse.
        let mut slot_start = vec![0u32; n + 1];
        let mut slots = 0u32;
        for v in 0..n {
            slot_start[v] = slots;
            slots += dirty[v].count_ones();
        }
        slot_start[n] = slots;

        // Lane queues are written before they are read (every dirty pair
        // is reset + computed by the sweep), so zero-init is only a
        // fresh-page guarantee, sized by the dirty cone.
        let elems = slots as usize * 2 * k;
        Self {
            st,
            base,
            lanes,
            k,
            corner,
            mode,
            touched,
            over_mean,
            over_sigma,
            dirty,
            level_dirty,
            level_dirty_nodes,
            slot_start,
            sc_arrival: vec![0.0; elems],
            sc_mean: vec![0.0; elems],
            sc_sigma: vec![0.0; elems],
            sc_sp: vec![0; elems],
        }
    }

    /// Dirty-cone occupancy for tracing: `(dirty levels, dirty nodes)`
    /// summed over the batch. Cheap (two short scans) and only consulted
    /// when a trace sink is attached.
    pub(crate) fn occupancy(&self) -> (u64, u64) {
        let levels = self.level_dirty.iter().filter(|&&m| m != 0).count() as u64;
        let nodes = self.level_dirty_nodes.iter().map(|&c| u64::from(c)).sum();
        (levels, nodes)
    }

    /// See [`LaneCtx::lane_slot`].
    #[inline]
    fn lane_slot(&self, v: usize, lane: usize) -> usize {
        debug_assert!(self.dirty[v] >> lane & 1 == 1, "slot of a clean pair");
        let rank = (self.dirty[v] & ((1u64 << lane) - 1)).count_ones();
        (self.slot_start[v] + rank) as usize
    }

    /// See [`LaneCtx::arc_ann`].
    #[inline]
    fn arc_ann(&self, ai: usize, rf: usize, lane: usize) -> (f64, f64) {
        let slot = self.touched[ai];
        if slot != u32::MAX {
            let oi = slot as usize * self.lanes + lane;
            (self.over_mean[oi][rf], self.over_sigma[oi][rf])
        } else if let Some(table) = self.corner[lane] {
            (table.mean[ai][rf], table.sigma[ai][rf])
        } else {
            (self.st.arc_mean[ai][rf], self.st.arc_sigma[ai][rf])
        }
    }

    /// The batched forward sweep: one pass over the dirty levels computes
    /// every lane's dirty cone, parallelized across (level-nodes ×
    /// lanes) with the same panic-containment + serial-retry contract as
    /// the serial kernel.
    pub(crate) fn sweep<M: StatModel>(
        &mut self,
        nt: usize,
        interrupt: Option<&Interrupt>,
        model: &M,
    ) -> Result<Option<RuntimeIncident>, InstaError> {
        // Reused tokens report cancellation latency per pass, not since
        // arming (same contract as the serial kernels).
        let restarted = interrupt.map(Interrupt::restarted);
        let interrupt = restarted.as_ref();
        let st = self.st;
        // Per-slot stride: each dirty (node, lane) pair owns 2k elements.
        let stride = 2 * self.k;
        let ctx = LaneCtx {
            st,
            base: self.base,
            k: self.k,
            lanes: self.lanes,
            corner: &self.corner,
            dirty: &self.dirty,
            touched: &self.touched,
            over_mean: &self.over_mean,
            over_sigma: &self.over_sigma,
            slot_start: &self.slot_start,
        };
        let mut recovered: Option<RuntimeIncident> = None;
        // One merge arena per worker, reused across every dirty level.
        let mut arenas = MergeArena::bank(nt);
        for l in 1..st.num_levels() {
            if self.level_dirty[l] == 0 {
                continue; // no lane touches this level
            }
            // Same bounded-latency contract as the serial kernels: one
            // cancellation poll per (dirty) level.
            if let Some(e) = interrupt.and_then(|i| i.check(Kernel::Forward, l)) {
                return Err(e);
            }
            let r = st.level_range(l);
            let (base_n, len) = (r.start, r.len());
            // Levels are contiguous node ranges, so a level's dirty slots
            // are one contiguous storage window.
            let split = self.slot_start[base_n] as usize * stride;
            let cur_elems =
                (self.slot_start[base_n + len] as usize - self.slot_start[base_n] as usize)
                    * stride;
            let panicked = {
                let (mean_done, mean_tail) = self.sc_mean.split_at_mut(split);
                let (sigma_done, sigma_tail) = self.sc_sigma.split_at_mut(split);
                let (sp_done, sp_tail) = self.sc_sp.split_at_mut(split);
                let (_, arr_tail) = self.sc_arrival.split_at_mut(split);
                let arr_cur = &mut arr_tail[..cur_elems];
                let mean_cur = &mut mean_tail[..cur_elems];
                let sigma_cur = &mut sigma_tail[..cur_elems];
                let sp_cur = &mut sp_tail[..cur_elems];

                if nt <= 1 || (self.level_dirty_nodes[l] as usize) < PAR_THRESHOLD {
                    batch_level_chunk(
                        &ctx,
                        base_n..base_n + len,
                        mean_done,
                        sigma_done,
                        sp_done,
                        arr_cur,
                        mean_cur,
                        sigma_cur,
                        sp_cur,
                        &mut arenas[0],
                        model,
                    );
                    None
                } else {
                    // Carve the level into node-granular chunks; each
                    // chunk's storage window follows from the slot map
                    // (chunks vary in element count with their dirt).
                    let chunk_nodes = len.div_ceil(nt);
                    let cell = PanicCell::new();
                    std::thread::scope(|scope| {
                        let mut rest = (arr_cur, mean_cur, sigma_cur, sp_cur);
                        let mut rest_arenas = &mut arenas[..];
                        let mut cbase = base_n;
                        while cbase < base_n + len {
                            let cend = (cbase + chunk_nodes).min(base_n + len);
                            let take = (ctx.slot_start[cend] as usize
                                - ctx.slot_start[cbase] as usize)
                                * stride;
                            let (a, ra) = rest.0.split_at_mut(take);
                            let (m, rm) = rest.1.split_at_mut(take);
                            let (sg, rs) = rest.2.split_at_mut(take);
                            let (sp, rsp) = rest.3.split_at_mut(take);
                            rest = (ra, rm, rs, rsp);
                            let (ar, rar) = rest_arenas.split_at_mut(1);
                            rest_arenas = rar;
                            let arena = &mut ar[0];
                            let (md, sd, spd) = (&*mean_done, &*sigma_done, &*sp_done);
                            let cell = &cell;
                            let ctx = &ctx;
                            scope.spawn(move || {
                                cell.run(cbase..cend, || {
                                    chaos::maybe_panic(Kernel::Forward, l);
                                    batch_level_chunk(
                                        ctx,
                                        cbase..cend,
                                        md,
                                        sd,
                                        spd,
                                        a,
                                        m,
                                        sg,
                                        sp,
                                        arena,
                                        model,
                                    );
                                });
                            });
                            cbase = cend;
                        }
                    });
                    cell.take()
                }
            };
            if let Some((chunk, message)) = panicked {
                let incident = RuntimeIncident {
                    kernel: Kernel::Forward,
                    level: l,
                    chunk,
                    message,
                    serial_retry_failed: false,
                };
                // Serial re-execution. No window reset is needed: the
                // chunk body resets every dirty (node, lane) slice before
                // computing it, so partial writes are invisible and the
                // retry is bit-identical to an undisturbed run.
                let retry = catch_unwind(AssertUnwindSafe(|| {
                    chaos::maybe_panic(Kernel::Forward, l);
                    let (mean_done, mean_tail) = self.sc_mean.split_at_mut(split);
                    let (sigma_done, sigma_tail) = self.sc_sigma.split_at_mut(split);
                    let (sp_done, sp_tail) = self.sc_sp.split_at_mut(split);
                    let (_, arr_tail) = self.sc_arrival.split_at_mut(split);
                    batch_level_chunk(
                        &ctx,
                        base_n..base_n + len,
                        mean_done,
                        sigma_done,
                        sp_done,
                        &mut arr_tail[..cur_elems],
                        &mut mean_tail[..cur_elems],
                        &mut sigma_tail[..cur_elems],
                        &mut sp_tail[..cur_elems],
                        &mut arenas[0],
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
        }
        Ok(recovered)
    }

    /// One lane's endpoint report. Clean endpoints copy the base report's
    /// entries bit-for-bit (their whole fanin cone is clean for this lane,
    /// so a serial run would recompute exactly those values); dirty
    /// endpoints scan the lane's queues with the same code path as
    /// `metrics::evaluate`. Accumulation runs in endpoint order either
    /// way, so WNS/TNS are bit-identical too.
    ///
    /// A lane's [`ModeMask`] applies here: disabled endpoints keep their
    /// per-endpoint entries but are skipped by the WNS/TNS/violation
    /// accumulation — the same arithmetic, in the same order, as
    /// [`InstaReport::masked`] on the unmasked report.
    pub(crate) fn lane_report<M: StatModel>(
        &self,
        lane: usize,
        base_report: &InstaReport,
        cppr: bool,
        model: &M,
    ) -> InstaReport {
        let st = self.st;
        let k = self.k;
        let mask = self.mode[lane];
        let n_ep = st.endpoints.len();
        let mut slacks = vec![f64::INFINITY; n_ep];
        let mut arrivals = vec![f64::NEG_INFINITY; n_ep];
        let mut requireds = vec![f64::INFINITY; n_ep];
        let mut worst_sp = vec![NO_SP; n_ep];
        let mut worst_rf = vec![0u8; n_ep];
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut viol = 0usize;
        for (i, ep) in st.endpoints.iter().enumerate() {
            let v = ep.node as usize;
            if self.dirty[v] >> lane & 1 == 0 {
                slacks[i] = base_report.slacks[i];
                arrivals[i] = base_report.arrivals[i];
                requireds[i] = base_report.requireds[i];
                worst_sp[i] = base_report.worst_sp[i];
                worst_rf[i] = base_report.worst_rf[i];
            } else {
                let ep_id = EpId(ep.ep);
                let slot = self.lane_slot(v, lane);
                for rf in 0..2usize {
                    for j in 0..k {
                        let idx = (slot * 2 + rf) * k + j;
                        let sp = self.sc_sp[idx];
                        if sp == NO_SP {
                            break; // the queue is dense from the front
                        }
                        let sp_id = SpId(sp);
                        if st.exceptions.is_false(sp_id, ep_id) {
                            continue;
                        }
                        let mut required = ep.required_base;
                        let mcp = st.exceptions.multicycle_factor(sp_id, ep_id);
                        if mcp > 1 {
                            required += (mcp - 1) as f64 * st.period_ps;
                        }
                        if cppr {
                            required += st.cppr_credit(st.sp_leaf[sp as usize], ep.leaf);
                        }
                        let arrival = self.sc_arrival[idx];
                        let slack = model.slack(required, arrival);
                        if slack < slacks[i] {
                            slacks[i] = slack;
                            arrivals[i] = arrival;
                            requireds[i] = required;
                            worst_sp[i] = sp;
                            worst_rf[i] = rf as u8;
                        }
                    }
                }
            }
            if mask.is_some_and(|m| m.is_disabled(i)) {
                continue; // mode-disabled: present in the arrays, absent
                          // from every aggregate
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
}

/// Per-thread body of the batched sweep: computes every dirty (node, lane)
/// queue of the chunk. For each one it restores the serial kernel's
/// pre-state (global-fill reset + launch seed) and then runs the *same*
/// merge body as the serial kernel, with parent reads falling through to
/// the base arrays on clean lanes.
#[allow(clippy::too_many_arguments)]
fn batch_level_chunk<M: StatModel>(
    ctx: &LaneCtx<'_>,
    nodes: std::ops::Range<usize>,
    mean_done: &[f64],
    sigma_done: &[f64],
    sp_done: &[u32],
    arr_cur: &mut [f64],
    mean_cur: &mut [f64],
    sigma_cur: &mut [f64],
    sp_cur: &mut [u32],
    arena: &mut MergeArena,
    model: &M,
) {
    let (st, k) = (ctx.st, ctx.k);
    // The chunk's slices start at its first node's slot window.
    let chunk_slot0 = ctx.slot_start[nodes.start] as usize;
    for v in nodes {
        let mut mask = ctx.dirty[v];
        if mask == 0 {
            continue;
        }
        let fanin = st.fanin_range(v);
        debug_assert!(!fanin.is_empty(), "dirt only flows along fanin arcs");
        // Lanes come off the mask in ascending order — exactly the slot
        // order of the compact layout — so the local slot just increments.
        let mut slot = ctx.slot_start[v] as usize - chunk_slot0;
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            debug_assert_eq!(slot, ctx.lane_slot(v, lane) - chunk_slot0);
            // Reset this lane's queue slices to the serial kernel's
            // post-global-fill state, then re-apply the launch seed when
            // the node is a startpoint — the exact pre-state the serial
            // pass gives every node before its level is computed.
            for rf in 0..2 {
                let off = (slot * 2 + rf) * k;
                arr_cur[off..off + k].fill(f64::NEG_INFINITY);
                sp_cur[off..off + k].fill(NO_SP);
            }
            if let Some(s) = st.source_at(v) {
                for rf in 0..2 {
                    let off = (slot * 2 + rf) * k;
                    mean_cur[off] = s.mean[rf];
                    sigma_cur[off] = s.sigma[rf];
                    arr_cur[off] = model.corner_late(s.mean[rf], s.sigma[rf], st.n_sigma);
                    sp_cur[off] = s.sp;
                }
            }
            for rf in 0..2 {
                let off = (slot * 2 + rf) * k;
                let (qa, qm, qs, qsp) = (
                    &mut arr_cur[off..off + k],
                    &mut mean_cur[off..off + k],
                    &mut sigma_cur[off..off + k],
                    &mut sp_cur[off..off + k],
                );
                let parent = |p: usize, prf: usize, j: usize| {
                    if ctx.dirty[p] >> lane & 1 == 1 {
                        // Parents live in earlier levels, so their slots
                        // precede the chunk's window: absolute indices
                        // land inside the `done` prefix.
                        let idx = (ctx.lane_slot(p, lane) * 2 + prf) * k + j;
                        (sp_done[idx], mean_done[idx], sigma_done[idx])
                    } else {
                        let idx = (p * 2 + prf) * k + j;
                        (
                            ctx.base.topk_sp[idx],
                            ctx.base.topk_mean[idx],
                            ctx.base.topk_sigma[idx],
                        )
                    }
                };
                let arc = |ai: usize| ctx.arc_ann(ai, rf, lane);
                merge_node_queue::<M, false>(
                    st,
                    fanin.clone(),
                    rf,
                    k,
                    &parent,
                    &arc,
                    arena,
                    qa,
                    qm,
                    qs,
                    qsp,
                    model,
                );
            }
            slot += 1;
        }
    }
}

#[cfg(test)]
impl ScenarioBatch<'_> {
    /// Lane count of the chunk.
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Whether the sweep recomputed this (node, lane) pair.
    pub(crate) fn is_dirty(&self, v: usize, lane: usize) -> bool {
        self.dirty[v] >> lane & 1 == 1
    }

    /// One lane's k-slices of a node's queue: (arrival, mean, sigma, sp).
    /// Only valid for dirty `(node, lane)` pairs — clean pairs have no
    /// storage in the compact layout.
    pub(crate) fn lane_queue(
        &self,
        v: usize,
        rf: usize,
        lane: usize,
    ) -> (&[f64], &[f64], &[f64], &[u32]) {
        let off = (self.lane_slot(v, lane) * 2 + rf) * self.k;
        let k = self.k;
        (
            &self.sc_arrival[off..off + k],
            &self.sc_mean[off..off + k],
            &self.sc_sigma[off..off + k],
            &self.sc_sp[off..off + k],
        )
    }
}
