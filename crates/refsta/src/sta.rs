//! The reference statistical STA analysis: per-startpoint POCV arrival
//! propagation, endpoint slack with exact CPPR credit, and WNS/TNS
//! reporting.
//!
//! This is the "golden" engine INSTA correlates against. Unlike INSTA's
//! fixed Top-K queues, the reference tracks arrivals *per startpoint* with
//! a windowed pruning rule that is exact for endpoint slack: an entry can
//! only become the worst slack at an endpoint if its corner arrival is
//! within the maximum possible CPPR credit of the map's best entry, so
//! everything below `best - prune_window` (beyond a safety count) is
//! dropped. With a zero-credit clock (no derate spread) this degenerates to
//! plain worst-arrival propagation.
//!
//! # The reduction
//!
//! A node's map is built from *runs*, one per (fanin arc, input
//! transition): the fanin's map with the arc's mean added and its sigma
//! combined in quadrature. The shift keeps a run nearly in corner order, so
//! one insertion pass sorts it; the runs are then merged, and a
//! per-startpoint stamp keeps each startpoint's first — latest-corner —
//! entry. The merge stops at `sp_cap`, or at the first entry past
//! `sp_keep_min` that falls outside the pruning window of the map's best.
//! Hold runs the same reduction on the early corner (`Side::Early`).
//!
//! **Tie rule.** Entries are ordered by corner under `f64::total_cmp`,
//! then by startpoint ascending; of two entries of one startpoint with the
//! same corner, the one from the earlier run (fanin arc order, then input
//! transition order) is kept. The order is defined, so no sort
//! implementation decides which entry a reader that takes a map's
//! `first()` sees.

use crate::clocktime::{ClockModelError, ClockTiming};
use crate::delay::{ArcDelays, DelayCalc};
use crate::exceptions::{EpId, ExceptionSet, SpId};
use crate::incremental::{Changes, Frontier};
use insta_liberty::{ArcKind, TimingSense, Transition};
use insta_netlist::{BuildGraphError, CellId, Design, NodeId, PinId, TimingGraph};
use insta_support::obs::Recorder;

/// Configuration of the reference analysis.
#[derive(Debug, Clone)]
pub struct StaConfig {
    /// Corner pessimism: `arrival = mean + n_sigma * sigma` (paper: 3.0).
    pub n_sigma: f64,
    /// Early OCV derate on capture clock paths.
    pub derate_early: f64,
    /// Late OCV derate on launch clock paths.
    pub derate_late: f64,
    /// Whether endpoint slack applies CPPR credit.
    pub cppr_enabled: bool,
    /// Hard cap on per-node startpoint maps (the golden "Top-K"; must
    /// exceed INSTA's K for the correlation claims to be meaningful).
    pub sp_cap: usize,
    /// Minimum entries kept regardless of the pruning window (protects
    /// exception handling on sub-critical startpoints).
    pub sp_keep_min: usize,
    /// Arrival assumed at primary inputs (ps).
    pub input_delay_ps: f64,
    /// Overrides the design's clock period when set (SDC `create_clock`).
    pub period_override_ps: Option<f64>,
    /// Delay-calculation settings.
    pub delay_calc: DelayCalc,
    /// Timing exceptions.
    pub exceptions: ExceptionSet,
}

impl Default for StaConfig {
    fn default() -> Self {
        Self {
            n_sigma: 3.0,
            derate_early: 0.95,
            derate_late: 1.05,
            cppr_enabled: true,
            sp_cap: 128,
            sp_keep_min: 8,
            input_delay_ps: 0.0,
            period_override_ps: None,
            delay_calc: DelayCalc::default(),
            exceptions: ExceptionSet::new(),
        }
    }
}

/// One startpoint-tagged arrival distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpArrival {
    /// Startpoint id.
    pub sp: u32,
    /// Mean arrival (ps).
    pub mean: f64,
    /// POCV sigma (ps).
    pub sigma: f64,
}

impl SpArrival {
    /// The pessimistic corner value `mean + n_sigma * sigma`.
    #[inline]
    pub fn corner(&self, n_sigma: f64) -> f64 {
        self.mean + n_sigma * self.sigma
    }
}

/// Arrival map of one (node, transition): unique startpoints, sorted by
/// descending corner value, ties by ascending startpoint (the module docs'
/// tie rule).
pub type SpMap = Vec<SpArrival>;

/// Static data of one startpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpInfo {
    /// Source node in the timing graph.
    pub node: NodeId,
    /// The source pin.
    pub pin: PinId,
    /// Clock-tree leaf of the launching flop (`None` for primary inputs).
    pub leaf: Option<u32>,
    /// The launching flop (`None` for primary inputs).
    pub flop: Option<CellId>,
}

/// Static data of one endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpInfo {
    /// Endpoint node in the timing graph.
    pub node: NodeId,
    /// The endpoint pin.
    pub pin: PinId,
    /// Capturing flop (`None` for primary outputs).
    pub capture: Option<CellId>,
    /// Clock-tree leaf of the capturing flop.
    pub leaf: Option<u32>,
    /// Single-cycle required time before per-startpoint adjustments (ps).
    pub required_base: f64,
}

/// Slack report of one endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointReport {
    /// Endpoint id.
    pub ep: EpId,
    /// The endpoint pin.
    pub pin: PinId,
    /// Worst slack (ps); `f64::INFINITY` if no arrival reaches it.
    pub slack_ps: f64,
    /// The worst corner arrival (ps).
    pub arrival_ps: f64,
    /// The required time against which the worst slack was computed (ps).
    pub required_ps: f64,
    /// Startpoint responsible for the worst slack.
    pub worst_sp: Option<SpId>,
    /// Data transition of the worst path.
    pub transition: Transition,
}

/// Design-level timing report.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Worst negative slack over all endpoints (ps); `f64::INFINITY` when
    /// there are no constrained endpoints.
    pub wns_ps: f64,
    /// Total negative slack: sum of negative endpoint slacks (ps, ≤ 0).
    pub tns_ps: f64,
    /// Number of violating endpoints.
    pub n_violations: usize,
    /// Per-endpoint reports, indexed by [`EpId`].
    pub endpoints: Vec<EndpointReport>,
}

impl Default for StaReport {
    fn default() -> Self {
        Self {
            wns_ps: f64::INFINITY,
            tns_ps: 0.0,
            n_violations: 0,
            endpoints: Vec::new(),
        }
    }
}

/// The reference STA engine. Holds the levelized graph, clock timing, arc
/// delay annotation, and per-node startpoint arrival maps.
#[derive(Debug)]
pub struct RefSta {
    pub(crate) graph: TimingGraph,
    pub(crate) config: StaConfig,
    pub(crate) clock: ClockTiming,
    pub(crate) delays: ArcDelays,
    pub(crate) arrivals: Vec<[SpMap; 2]>,
    pub(crate) sp_infos: Vec<SpInfo>,
    pub(crate) ep_infos: Vec<EpInfo>,
    pub(crate) prune_window: f64,
    pub(crate) period: f64,
    pub(crate) report: StaReport,
    /// Set until the first full update and whenever the configuration or
    /// the exceptions are handed out mutably: the next incremental update
    /// then runs as a full one.
    pub(crate) full_pending: bool,
    /// Persistent scratch of the incremental update.
    pub(crate) frontier: Frontier,
    /// What the last update changed.
    pub(crate) changes: Changes,
    /// Persistent scratch of the arrival-map reduction.
    pub(crate) reducer: Reducer,
}

impl RefSta {
    /// Builds the engine over a design: constructs and levelizes the timing
    /// graph and indexes startpoints/endpoints. Call
    /// [`RefSta::full_update`] to produce timing.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError`] if the design has a combinational loop.
    pub fn new(design: &Design, config: StaConfig) -> Result<Self, BuildGraphError> {
        let graph = TimingGraph::build(design)?;
        let n = graph.num_nodes();
        let mut engine = Self {
            graph,
            config,
            clock: ClockTiming::default(),
            delays: ArcDelays {
                mean: Vec::new(),
                sigma: Vec::new(),
                sense: Vec::new(),
                node_slew: Vec::new(),
            },
            arrivals: vec![[Vec::new(), Vec::new()]; n],
            sp_infos: Vec::new(),
            ep_infos: Vec::new(),
            prune_window: 0.0,
            period: f64::INFINITY,
            report: StaReport::default(),
            full_pending: true,
            frontier: Frontier::default(),
            changes: Changes::default(),
            reducer: Reducer::default(),
        };
        engine.index_points(design);
        engine.frontier = Frontier::new(&engine.graph, &engine.sp_infos, &engine.ep_infos);
        engine.reducer = Reducer::new(engine.sp_infos.len());
        Ok(engine)
    }

    fn index_points(&mut self, design: &Design) {
        self.sp_infos = self
            .graph
            .sources()
            .iter()
            .map(|&node| {
                let pin = self.graph.pin_of(node);
                let p = design.pin(pin);
                let flop = p.cell.filter(|&c| design.lib_cell_of(c).is_sequential());
                SpInfo {
                    node,
                    pin,
                    leaf: None, // filled once clock timing exists
                    flop,
                }
            })
            .collect();
        self.ep_infos = self
            .graph
            .endpoints()
            .iter()
            .map(|&node| {
                let pin = self.graph.pin_of(node);
                let p = design.pin(pin);
                let capture = p.cell.filter(|&c| design.lib_cell_of(c).is_sequential());
                EpInfo {
                    node,
                    pin,
                    capture,
                    leaf: None,
                    required_base: 0.0,
                }
            })
            .collect();
    }

    /// The levelized timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The analysis configuration.
    pub fn config(&self) -> &StaConfig {
        &self.config
    }

    /// Mutable access to the exceptions (changes apply on the next update).
    pub fn exceptions_mut(&mut self) -> &mut ExceptionSet {
        self.full_pending = true;
        &mut self.config.exceptions
    }

    /// Mutable access to the configuration (changes apply on the next
    /// update); used by the SDC front end.
    pub fn config_mut(&mut self) -> &mut StaConfig {
        self.full_pending = true;
        &mut self.config
    }

    /// The clock timing of the last update.
    pub fn clock(&self) -> &ClockTiming {
        &self.clock
    }

    /// The arc delay annotation of the last update.
    pub fn delays(&self) -> &ArcDelays {
        &self.delays
    }

    /// The startpoint table.
    pub fn sp_infos(&self) -> &[SpInfo] {
        &self.sp_infos
    }

    /// The endpoint table.
    pub fn ep_infos(&self) -> &[EpInfo] {
        &self.ep_infos
    }

    /// Arrival maps of a node (`[rise, fall]`).
    pub fn arrivals(&self, node: NodeId) -> &[SpMap; 2] {
        &self.arrivals[node.index()]
    }

    /// The worst corner arrival at a node for a transition, if any path
    /// reaches it.
    pub fn arrival_corner(&self, node: NodeId, tr: Transition) -> Option<f64> {
        self.arrivals[node.index()][tr.index()]
            .first()
            .map(|e| e.corner(self.config.n_sigma))
    }

    /// The report of the last update.
    pub fn report(&self) -> &StaReport {
        &self.report
    }

    /// Full timing update: clock timing, delay annotation, arrival
    /// propagation over every level, endpoint evaluation.
    ///
    /// Panics if the clock network is structurally malformed; use
    /// [`try_full_update`](Self::try_full_update) to get the
    /// [`ClockModelError`] as a value instead.
    pub fn full_update(&mut self, design: &Design) -> StaReport {
        self.try_full_update(design).expect("valid clock network")
    }

    /// Fallible [`full_update`](Self::full_update): returns
    /// [`ClockModelError`] when the design's clock network violates the
    /// clock model's structure (bufferless tree node, buffer without an
    /// input pin or combinational arc, CK pin with no leaf or cell)
    /// instead of panicking.
    pub fn try_full_update(&mut self, design: &Design) -> Result<StaReport, ClockModelError> {
        self.try_full_update_with(design, None)
    }

    /// [`full_update`](Self::full_update) journaled through an
    /// [`obs::Recorder`](Recorder): one `refsta.full_update` span wrapping
    /// `refsta.clock` / `refsta.annotate` / `refsta.propagate` /
    /// `refsta.endpoints` children. The result is bit-identical to the
    /// untraced update.
    pub fn full_update_traced(&mut self, design: &Design, recorder: &mut Recorder) -> StaReport {
        self.try_full_update_traced(design, recorder)
            .expect("valid clock network")
    }

    /// Fallible [`full_update_traced`](Self::full_update_traced). Spans are
    /// closed even on the clock-model error path, so the recorder's stack
    /// always returns to its pre-call depth.
    pub fn try_full_update_traced(
        &mut self,
        design: &Design,
        recorder: &mut Recorder,
    ) -> Result<StaReport, ClockModelError> {
        self.try_full_update_with(design, Some(recorder))
    }

    fn try_full_update_with(
        &mut self,
        design: &Design,
        mut rec: Option<&mut Recorder>,
    ) -> Result<StaReport, ClockModelError> {
        if let Some(r) = rec.as_deref_mut() {
            r.begin("refsta.full_update");
            r.begin("refsta.clock");
        }
        self.changes = Changes {
            full: true,
            ..Changes::default()
        };
        self.period = self
            .config
            .period_override_ps
            .or(design.clock().map(|c| c.period_ps))
            .unwrap_or(f64::INFINITY);
        let clock = ClockTiming::compute(
            design,
            self.graph.clock_tree(),
            &self.config.delay_calc,
            self.config.derate_early,
            self.config.derate_late,
        );
        self.clock = match clock {
            Ok(c) => {
                if let Some(r) = rec.as_deref_mut() {
                    r.end_with(&[("ok", 1.0)]);
                }
                c
            }
            Err(e) => {
                if let Some(r) = rec.as_deref_mut() {
                    r.end_with(&[("ok", 0.0)]);
                    r.end_with(&[("ok", 0.0)]);
                }
                return Err(e);
            }
        };
        // Max possible CPPR credit bounds the pruning window.
        let max_common = self
            .clock
            .node_mean
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v));
        self.prune_window = if self.config.cppr_enabled {
            max_common * (self.config.derate_late - self.config.derate_early) + 1e-9
        } else {
            1e-9
        };
        if let Some(r) = rec.as_deref_mut() {
            r.begin("refsta.annotate");
        }
        self.delays = self.config.delay_calc.annotate(design, &self.graph);
        self.bind_clock_leaves(design);
        for sp_idx in 0..self.sp_infos.len() {
            self.init_source(design, sp_idx);
        }
        let order: Vec<NodeId> = self.graph.topo_order().to_vec();
        if let Some(r) = rec.as_deref_mut() {
            r.end_with(&[("arcs", self.delays.mean.len() as f64)]);
            r.begin("refsta.propagate");
        }
        for &node in &order {
            self.propagate_node(node);
        }
        if let Some(r) = rec.as_deref_mut() {
            r.end_with(&[("nodes", order.len() as f64)]);
            r.begin("refsta.endpoints");
        }
        self.evaluate_endpoints();
        self.full_pending = false;
        if let Some(r) = rec.as_deref_mut() {
            r.end_with(&[("endpoints", self.report.endpoints.len() as f64)]);
            r.end_with(&[
                ("ok", 1.0),
                ("wns_ps", self.report.wns_ps),
                ("tns_ps", self.report.tns_ps),
            ]);
        }
        Ok(self.report.clone())
    }

    fn bind_clock_leaves(&mut self, design: &Design) {
        for sp in &mut self.sp_infos {
            sp.leaf = sp.flop.and_then(|f| self.clock.flop(f)).map(|fc| fc.leaf);
        }
        let period = self.period;
        for ep in &mut self.ep_infos {
            ep.leaf = ep
                .capture
                .and_then(|f| self.clock.flop(f))
                .map(|fc| fc.leaf);
            ep.required_base = match ep.capture.and_then(|f| self.clock.flop(f).copied()) {
                Some(fc) => {
                    let lc = design.lib_cell_of(ep.capture.expect("capture flop"));
                    let setup = lc
                        .arcs()
                        .iter()
                        .find(|a| a.kind == ArcKind::Setup)
                        .map(|a| a.delay(Transition::Rise).lookup(fc.slew, 0.0))
                        .unwrap_or(0.0);
                    period + fc.mean * self.config.derate_early
                        - setup
                        - self.config.n_sigma * fc.sigma
                }
                None => period,
            };
        }
    }

    /// Initializes the arrival maps of startpoint `sp_idx` — a flop's Q pin
    /// from the late launch clock plus the CK→Q arc, a primary input from
    /// the configured input delay; returns whether any entry changed bits.
    pub(crate) fn init_source(&mut self, design: &Design, sp_idx: usize) -> bool {
        let sp = self.sp_infos[sp_idx];
        let entries = match sp.flop {
            Some(flop) => {
                let fc = *self.clock.flop(flop).expect("flop is clocked");
                let lc = design.lib_cell_of(flop);
                let launch = lc
                    .arcs()
                    .iter()
                    .find(|a| a.kind == ArcKind::Launch)
                    .expect("flop has a launch arc");
                let load = design.driver_load_ff(sp.pin);
                Transition::BOTH.map(|tr| {
                    let d = launch.delay(tr).lookup(fc.slew, load);
                    let s = launch.sigma_coeff * d;
                    SpArrival {
                        sp: sp_idx as u32,
                        mean: fc.mean * self.config.derate_late + d,
                        sigma: rss(fc.sigma, s),
                    }
                })
            }
            None => {
                [SpArrival {
                    sp: sp_idx as u32,
                    mean: self.config.input_delay_ps,
                    sigma: 0.0,
                }; 2]
            }
        };
        let mut changed = false;
        for (map, e) in self.arrivals[sp.node.index()].iter_mut().zip(&entries) {
            changed |= store_map(map, std::slice::from_ref(e));
        }
        changed
    }

    /// Recomputes the arrival maps of one non-source node from its fanins'
    /// maps and its fanin arcs' delays, in place; returns whether any entry
    /// changed bits. Sources keep their initialization.
    pub(crate) fn propagate_node(&mut self, node: NodeId) -> bool {
        let rule = self.prune_rule(Side::Late);
        let mut changed = false;
        for tr in Transition::BOTH {
            let map = self.reducer.reduce_fanin(
                &self.graph,
                &self.delays,
                &self.arrivals,
                node,
                tr,
                &rule,
            );
            if let Some(map) = map {
                changed |= store_map(&mut self.arrivals[node.index()][tr.index()], map);
            }
        }
        changed
    }

    /// The reduction rule of this engine's maps on `side`.
    pub(crate) fn prune_rule(&self, side: Side) -> PruneRule {
        PruneRule {
            side,
            n_sigma: self.config.n_sigma,
            cap: self.config.sp_cap,
            keep_min: self.config.sp_keep_min,
            window: self.prune_window,
        }
    }

    /// Recomputes endpoint slacks and the design report from the current
    /// arrival maps.
    pub fn evaluate_endpoints(&mut self) {
        self.report.endpoints = (0..self.ep_infos.len())
            .map(|ep_idx| self.evaluate_endpoint(ep_idx))
            .collect();
        self.summarize_endpoints();
    }

    /// The worst-slack report of endpoint `ep_idx` from its arrival maps.
    pub(crate) fn evaluate_endpoint(&self, ep_idx: usize) -> EndpointReport {
        let n_sigma = self.config.n_sigma;
        let tree = self.graph.clock_tree();
        let ep = &self.ep_infos[ep_idx];
        let ep_id = EpId(ep_idx as u32);
        let mut best = EndpointReport {
            ep: ep_id,
            pin: ep.pin,
            slack_ps: f64::INFINITY,
            arrival_ps: f64::NEG_INFINITY,
            required_ps: f64::INFINITY,
            worst_sp: None,
            transition: Transition::Rise,
        };
        for tr in Transition::BOTH {
            for e in &self.arrivals[ep.node.index()][tr.index()] {
                let sp_id = SpId(e.sp);
                if self.config.exceptions.is_false(sp_id, ep_id) {
                    continue;
                }
                let mut required = ep.required_base;
                let mcp = self.config.exceptions.multicycle_factor(sp_id, ep_id);
                if mcp > 1 {
                    // Extra capture cycles; the period is recoverable
                    // from required_base only for PO endpoints, so use
                    // the credit-free form: add (n-1) periods directly.
                    required += (mcp - 1) as f64 * self.period_hint();
                }
                if self.config.cppr_enabled {
                    if let (Some(la), Some(lb)) = (self.sp_infos[e.sp as usize].leaf, ep.leaf) {
                        required += self.clock.cppr_credit(tree, la, lb);
                    }
                }
                let arrival = e.corner(n_sigma);
                let slack = required - arrival;
                if slack < best.slack_ps {
                    best.slack_ps = slack;
                    best.arrival_ps = arrival;
                    best.required_ps = required;
                    best.worst_sp = Some(sp_id);
                    best.transition = tr;
                }
            }
        }
        best
    }

    /// Re-reduces WNS, TNS and the violation count over every endpoint
    /// report, in endpoint order.
    pub(crate) fn summarize_endpoints(&mut self) {
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut viol = 0usize;
        for r in &self.report.endpoints {
            if r.slack_ps < 0.0 {
                tns += r.slack_ps;
                viol += 1;
            }
            wns = wns.min(r.slack_ps);
        }
        self.report.wns_ps = wns;
        self.report.tns_ps = tns;
        self.report.n_violations = viol;
    }

    fn period_hint(&self) -> f64 {
        self.period
    }

    /// Worst slack per graph node via a backward required-time pass.
    ///
    /// Endpoint required times are seeded from the last report's
    /// worst-slack required values (CPPR-resolved), then propagated
    /// backward with `required(parent) = min(required(child) − delay)`.
    /// This is the per-pin slack view net-weighting placers consume; nodes
    /// on no constrained path get `f64::INFINITY`. The backward pass uses
    /// linearized corner delays (mean + N_σ·σ per arc), which is slightly
    /// pessimistic upstream relative to the forward quadrature
    /// accumulation — appropriate for a criticality heuristic.
    pub fn node_slacks(&self) -> Vec<f64> {
        let n = self.graph.num_nodes();
        let mut req = vec![[f64::INFINITY; 2]; n];
        for (i, ep) in self.ep_infos.iter().enumerate() {
            let Some(r) = self.report.endpoints.get(i) else {
                continue;
            };
            if r.required_ps.is_finite() {
                req[ep.node.index()] = [r.required_ps; 2];
            }
        }
        for &node in self.graph.topo_order().iter().rev() {
            for &ai in self.graph.fanin(node) {
                let from = self.graph.arc(ai).from;
                for tr in Transition::BOTH {
                    let r_child = req[node.index()][tr.index()];
                    if !r_child.is_finite() {
                        continue;
                    }
                    let d = self.delays.mean[ai as usize][tr.index()]
                        + self.config.n_sigma * self.delays.sigma[ai as usize][tr.index()];
                    for ptr in input_transitions(self.delays.sense[ai as usize], tr) {
                        let slot = &mut req[from.index()][ptr.index()];
                        *slot = slot.min(r_child - d);
                    }
                }
            }
        }
        (0..n)
            .map(|v| {
                let mut worst = f64::INFINITY;
                for tr in Transition::BOTH {
                    if let Some(top) = self.arrivals[v][tr.index()].first() {
                        let s = req[v][tr.index()] - top.corner(self.config.n_sigma);
                        worst = worst.min(s);
                    }
                }
                worst
            })
            .collect()
    }
}

#[inline]
fn rss(a: f64, b: f64) -> f64 {
    (a * a + b * b).sqrt()
}

/// Input transitions that can cause output transition `out` through an arc
/// of the given sense (paper Algorithm 1, line 9, extended to non-unate).
#[inline]
pub fn input_transitions(sense: TimingSense, out: Transition) -> &'static [Transition] {
    match sense {
        TimingSense::PositiveUnate => match out {
            Transition::Rise => &[Transition::Rise],
            Transition::Fall => &[Transition::Fall],
        },
        TimingSense::NegativeUnate => match out {
            Transition::Rise => &[Transition::Fall],
            Transition::Fall => &[Transition::Rise],
        },
        TimingSense::NonUnate => &Transition::BOTH,
    }
}

/// Which end of the arrival distribution a map keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Setup: the latest corner `mean + n_sigma * sigma`, largest first.
    Late,
    /// Hold: the earliest corner `mean - n_sigma * sigma`, smallest first.
    Early,
}

impl Side {
    /// The merge key, largest first. The early corner is negated: negation
    /// is exact and reverses `total_cmp`, and `(-best) - (-c)` is `c - best`
    /// in every bit, so both the order and the window test are the
    /// ascending early corner's.
    #[inline]
    fn key(self, e: &SpArrival, n_sigma: f64) -> f64 {
        match self {
            Side::Late => e.mean + n_sigma * e.sigma,
            Side::Early => -(e.mean - n_sigma * e.sigma),
        }
    }
}

/// How a reduction orders and prunes one map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PruneRule {
    pub(crate) side: Side,
    pub(crate) n_sigma: f64,
    /// At most this many entries.
    pub(crate) cap: usize,
    /// Entries kept whatever their distance from the best.
    pub(crate) keep_min: usize,
    /// Past `keep_min`, an entry whose key trails the best by more than
    /// this ends the map.
    pub(crate) window: f64,
}

/// `a` goes before `b`: larger key, then smaller startpoint.
#[inline]
fn ahead(a: &(f64, SpArrival), b: &(f64, SpArrival)) -> bool {
    a.0.total_cmp(&b.0).then(b.1.sp.cmp(&a.1.sp)).is_gt()
}

/// Scratch of the arrival-map reduction (module docs), reused by every
/// map: nothing is allocated once the buffers have grown to the largest
/// map.
#[derive(Debug, Default)]
pub(crate) struct Reducer {
    /// The current map's candidates with their merge keys, run after run.
    cands: Vec<(f64, SpArrival)>,
    /// Per run: its next unmerged candidate and its end in `cands`.
    runs: Vec<(usize, usize)>,
    /// Per startpoint: the stamp of the last map that took it.
    seen: Vec<u32>,
    /// The current map's stamp in `seen`.
    stamp: u32,
    /// The reduced map.
    out: SpMap,
}

impl Reducer {
    /// A reducer for startpoints `0..num_sps`.
    pub(crate) fn new(num_sps: usize) -> Self {
        Self {
            seen: vec![0; num_sps],
            ..Self::default()
        }
    }

    /// Reduces the map of `node` toward output transition `tr` from its
    /// fanins' `arrivals` and its fanin arcs' `delays`; `None` for a node
    /// without fanin arcs (a source, whose map is its launch).
    pub(crate) fn reduce_fanin(
        &mut self,
        graph: &TimingGraph,
        delays: &ArcDelays,
        arrivals: &[[SpMap; 2]],
        node: NodeId,
        tr: Transition,
        rule: &PruneRule,
    ) -> Option<&[SpArrival]> {
        let fanin = graph.fanin(node);
        if fanin.is_empty() {
            return None;
        }
        self.cands.clear();
        self.runs.clear();
        for &ai in fanin {
            let from = graph.arc(ai).from;
            let mean = delays.mean[ai as usize][tr.index()];
            let sigma = delays.sigma[ai as usize][tr.index()];
            for ptr in input_transitions(delays.sense[ai as usize], tr) {
                self.push_run(&arrivals[from.index()][ptr.index()], mean, sigma, rule);
            }
        }
        Some(self.merge(rule))
    }

    /// Appends one run: `parent` with `mean` added and `sigma` combined in
    /// quadrature, put in merge order by an insertion pass (a sorted
    /// parent stays nearly sorted under the shift, so entries move little).
    fn push_run(&mut self, parent: &[SpArrival], mean: f64, sigma: f64, rule: &PruneRule) {
        if parent.is_empty() {
            return;
        }
        let start = self.cands.len();
        for e in parent {
            let a = SpArrival {
                sp: e.sp,
                mean: e.mean + mean,
                sigma: rss(e.sigma, sigma),
            };
            let mut j = self.cands.len();
            self.cands.push((rule.side.key(&a, rule.n_sigma), a));
            while j > start && ahead(&self.cands[j], &self.cands[j - 1]) {
                self.cands.swap(j, j - 1);
                j -= 1;
            }
        }
        self.runs.push((start, self.cands.len()));
    }

    /// Merges the runs by (key, startpoint, run), keeping each startpoint's
    /// first entry, until the cap or the pruning window ends the map.
    fn merge(&mut self, rule: &PruneRule) -> &[SpArrival] {
        self.out.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let mut best = None;
        while self.out.len() < rule.cap {
            let mut pick: Option<(usize, (f64, SpArrival))> = None;
            for (r, &(next, end)) in self.runs.iter().enumerate() {
                if next < end && pick.is_none_or(|(_, head)| ahead(&self.cands[next], &head)) {
                    pick = Some((r, self.cands[next]));
                }
            }
            let Some((r, (key, e))) = pick else { break };
            self.runs[r].0 += 1;
            let seen = &mut self.seen[e.sp as usize];
            if *seen == self.stamp {
                continue;
            }
            *seen = self.stamp;
            let best = *best.get_or_insert(key);
            if self.out.len() >= rule.keep_min && best - key > rule.window {
                break;
            }
            self.out.push(e);
        }
        &self.out
    }
}

/// Overwrites `map` with `new` (keeping its capacity) if the two differ in
/// length or in any entry's bits; returns whether they differed.
fn store_map(map: &mut SpMap, new: &[SpArrival]) -> bool {
    let same = map.len() == new.len()
        && map.iter().zip(new).all(|(a, b)| {
            a.sp == b.sp
                && a.mean.to_bits() == b.mean.to_bits()
                && a.sigma.to_bits() == b.sigma.to_bits()
        });
    if !same {
        map.clear();
        map.extend_from_slice(new);
    }
    !same
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    fn engine(seed: u64) -> (Design, RefSta) {
        let d = generate_design(&GeneratorConfig::small("sta", seed));
        let sta = RefSta::new(&d, StaConfig::default()).expect("build");
        (d, sta)
    }

    #[test]
    fn full_update_produces_finite_report() {
        let (d, mut sta) = engine(1);
        let report = sta.full_update(&d);
        assert!(report.wns_ps.is_finite());
        assert!(report.tns_ps <= 0.0);
        assert_eq!(report.endpoints.len(), sta.graph().endpoints().len());
        assert_eq!(
            report.n_violations,
            report.endpoints.iter().filter(|e| e.slack_ps < 0.0).count()
        );
    }

    #[test]
    fn traced_full_update_journals_every_stage_and_matches_untraced() {
        let (d, mut plain) = engine(6);
        let (_d2, mut traced) = engine(6);
        let untraced = plain.full_update(&d);
        let mut rec = Recorder::new();
        let report = traced.full_update_traced(&d, &mut rec);

        assert_eq!(report.wns_ps.to_bits(), untraced.wns_ps.to_bits());
        assert_eq!(report.tns_ps.to_bits(), untraced.tns_ps.to_bits());
        assert_eq!(report.endpoints.len(), untraced.endpoints.len());

        assert_eq!(rec.open_depth(), 0, "all spans closed");
        for stage in [
            "refsta.full_update",
            "refsta.clock",
            "refsta.annotate",
            "refsta.propagate",
            "refsta.endpoints",
        ] {
            assert!(
                rec.events().any(|e| e.name == stage),
                "missing span {stage}"
            );
        }
        let outer = rec.events().last().expect("journal non-empty");
        assert_eq!(outer.name, "refsta.full_update");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.field("ok"), Some(1.0));
        assert_eq!(outer.field("wns_ps"), Some(report.wns_ps));
        let eps = rec
            .events()
            .find(|e| e.name == "refsta.endpoints")
            .expect("endpoints span");
        assert_eq!(eps.field("endpoints"), Some(report.endpoints.len() as f64));
    }

    #[test]
    fn tns_is_sum_of_negative_slacks() {
        let (d, mut sta) = engine(2);
        let report = sta.full_update(&d);
        let sum: f64 = report
            .endpoints
            .iter()
            .map(|e| e.slack_ps.min(0.0))
            .sum();
        assert!((sum - report.tns_ps).abs() < 1e-9);
        assert!(report.wns_ps <= report.endpoints.iter().map(|e| e.slack_ps).fold(f64::INFINITY, f64::min) + 1e-9);
    }

    #[test]
    fn arrival_maps_have_unique_sorted_startpoints() {
        let (d, mut sta) = engine(3);
        sta.full_update(&d);
        let n_sigma = sta.config().n_sigma;
        for v in 0..sta.graph().num_nodes() {
            for map in sta.arrivals(NodeId(v as u32)) {
                let mut seen = std::collections::HashSet::new();
                let mut prev = f64::INFINITY;
                for e in map {
                    assert!(seen.insert(e.sp), "duplicate sp in map");
                    let c = e.corner(n_sigma);
                    assert!(c <= prev + 1e-9, "map not sorted by corner");
                    prev = c;
                }
            }
        }
    }

    #[test]
    fn arrivals_grow_along_paths() {
        let (d, mut sta) = engine(4);
        sta.full_update(&d);
        for arc in sta.graph().arcs() {
            let from_best = sta.arrival_corner(arc.from, Transition::Rise);
            let to_best = sta
                .arrival_corner(arc.to, Transition::Rise)
                .or(sta.arrival_corner(arc.to, Transition::Fall));
            if let (Some(f), Some(t)) = (from_best, to_best) {
                // The destination's worst arrival is at least as late as
                // any single fanin contribution could be early; weak sanity
                // bound: arrivals are positive and finite.
                assert!(f.is_finite() && t.is_finite());
            }
        }
    }

    #[test]
    fn cppr_credit_never_hurts_slack() {
        let d = generate_design(&GeneratorConfig::small("cppr", 5));
        let mut with = RefSta::new(&d, StaConfig::default()).expect("build");
        let with_report = with.full_update(&d);
        let mut cfg = StaConfig::default();
        cfg.cppr_enabled = false;
        let mut without = RefSta::new(&d, cfg).expect("build");
        let without_report = without.full_update(&d);
        for (a, b) in with_report.endpoints.iter().zip(&without_report.endpoints) {
            assert!(
                a.slack_ps >= b.slack_ps - 1e-9,
                "CPPR must not make slack worse: {} vs {}",
                a.slack_ps,
                b.slack_ps
            );
        }
        assert!(with_report.tns_ps >= without_report.tns_ps - 1e-9);
    }

    #[test]
    fn false_path_removes_violation() {
        let (d, mut sta) = engine(6);
        let report = sta.full_update(&d);
        // Take the worst endpoint and false-path its worst startpoint.
        let worst = report
            .endpoints
            .iter()
            .min_by(|a, b| a.slack_ps.total_cmp(&b.slack_ps))
            .copied()
            .expect("has endpoints");
        let sp = worst.worst_sp.expect("worst sp");
        sta.exceptions_mut().add_false_path(sp, worst.ep);
        let after = sta.full_update(&d);
        assert!(
            after.endpoints[worst.ep.index()].slack_ps >= worst.slack_ps - 1e-9,
            "false path cannot worsen the endpoint"
        );
        // The previously-worst startpoint must no longer be reported.
        assert_ne!(after.endpoints[worst.ep.index()].worst_sp, Some(sp));
    }

    #[test]
    fn multicycle_relaxes_required_time() {
        let (d, mut sta) = engine(7);
        let report = sta.full_update(&d);
        let worst = report
            .endpoints
            .iter()
            .min_by(|a, b| a.slack_ps.total_cmp(&b.slack_ps))
            .copied()
            .expect("has endpoints");
        let sp = worst.worst_sp.expect("worst sp");
        sta.exceptions_mut().add_multicycle(sp, worst.ep, 2);
        let after = sta.full_update(&d);
        let after_ep = after.endpoints[worst.ep.index()];
        assert!(
            after_ep.slack_ps > worst.slack_ps,
            "an extra cycle must improve the endpoint ({} -> {})",
            worst.slack_ps,
            after_ep.slack_ps
        );
    }

    #[test]
    fn node_slacks_match_endpoint_slacks_at_endpoints() {
        let (d, mut sta) = engine(9);
        let report = sta.full_update(&d);
        let slacks = sta.node_slacks();
        let mut exact = 0usize;
        for (i, info) in sta.ep_infos().iter().enumerate() {
            let ep = report.endpoints[i];
            if !ep.slack_ps.is_finite() {
                continue;
            }
            // The node view pairs the worst-slack entry's required time
            // with the top-corner arrival, which can come from a different
            // startpoint whose CPPR credit differs — so at endpoints it is
            // conservative (never optimistic), and exact whenever the
            // top-corner entry is also the worst-slack entry.
            let node_slack = slacks[info.node.index()];
            assert!(
                node_slack <= ep.slack_ps + 1e-9,
                "endpoint node slack {node_slack} optimistic vs report {}",
                ep.slack_ps
            );
            let n_sigma = sta.config().n_sigma;
            let maps = sta.arrivals(info.node);
            let top = Transition::BOTH
                .iter()
                .filter_map(|tr| maps[tr.index()].first())
                .map(|e| (e.corner(n_sigma), Some(SpId(e.sp))))
                .max_by(|a, b| a.0.total_cmp(&b.0));
            if top == Some((ep.arrival_ps, ep.worst_sp)) {
                assert!(
                    (node_slack - ep.slack_ps).abs() < 1e-9,
                    "endpoint node slack {node_slack} vs report {}",
                    ep.slack_ps
                );
                exact += 1;
            }
        }
        assert!(exact > 0, "no endpoint exercised the exact case");
        // The backward pass subtracts full per-arc corners (Σσ) while the
        // forward pass accumulates sigma in quadrature, so upstream node
        // slacks are conservatively pessimistic: the global minimum can
        // only undershoot WNS, never overshoot it.
        let min_node = slacks.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min_node <= report.wns_ps + 1e-9);
    }

    /// Relaxing the clock period by Δ shifts every finite endpoint
    /// slack by exactly Δ (single-cycle paths, no multicycle): the
    /// launch/capture structure is period-independent.
    #[test]
    fn period_relaxation_shifts_slack_exactly() {
        use insta_support::prop::{for_all, Config};
        use insta_support::prop_assert;
        for_all(
            Config::cases(6).seed(0x57A_0641),
            |rng| (rng.gen_range(0u64..200), rng.gen_range(1.0f64..500.0)),
            |&(seed, extra)| {
                let mut cfg = GeneratorConfig::small("prop_sta", seed);
                cfg.clock_period_ps = 400.0;
                let d1 = generate_design(&cfg);
                cfg.clock_period_ps = 400.0 + extra;
                let d2 = generate_design(&cfg);
                let mut s1 = RefSta::new(&d1, StaConfig::default()).expect("build");
                let mut s2 = RefSta::new(&d2, StaConfig::default()).expect("build");
                let r1 = s1.full_update(&d1);
                let r2 = s2.full_update(&d2);
                for (a, b) in r1.endpoints.iter().zip(&r2.endpoints) {
                    if a.slack_ps.is_finite() && b.slack_ps.is_finite() {
                        prop_assert!(
                            (b.slack_ps - a.slack_ps - extra).abs() < 1e-6,
                            "slack shift {} != extra {extra}",
                            b.slack_ps - a.slack_ps
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// The pruning window is sound: widening `sp_cap` never changes
    /// any endpoint's worst slack (the windowed golden is exact).
    #[test]
    fn widening_sp_cap_never_changes_slack() {
        use insta_support::prop::{for_all, Config};
        use insta_support::prop_assert;
        for_all(
            Config::cases(6).seed(0x57A_0642),
            |rng| rng.gen_range(0u64..200),
            |&seed| {
                let d = generate_design(&GeneratorConfig::small("prop_cap", seed));
                let mut narrow_cfg = StaConfig::default();
                narrow_cfg.sp_cap = 16;
                let mut wide_cfg = StaConfig::default();
                wide_cfg.sp_cap = 512;
                let mut narrow = RefSta::new(&d, narrow_cfg).expect("build");
                let mut wide = RefSta::new(&d, wide_cfg).expect("build");
                let rn = narrow.full_update(&d);
                let rw = wide.full_update(&d);
                for (a, b) in rn.endpoints.iter().zip(&rw.endpoints) {
                    if a.slack_ps.is_finite() || b.slack_ps.is_finite() {
                        prop_assert!(
                            (a.slack_ps - b.slack_ps).abs() < 1e-9,
                            "sp_cap changed slack: {} vs {}",
                            a.slack_ps,
                            b.slack_ps
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn determinism_across_runs() {
        let (d, mut a) = engine(8);
        let (_, mut b) = engine(8);
        let ra = a.full_update(&d);
        let rb = b.full_update(&d);
        assert_eq!(ra.wns_ps, rb.wns_ps);
        assert_eq!(ra.tns_ps, rb.tns_ps);
    }

    // ---- The run-merge reduction against the two-sort reducers it replaced

    /// The setup reducer before the run merge, verbatim: the oracle.
    fn reduce_map(
        cands: &mut Vec<SpArrival>,
        n_sigma: f64,
        cap: usize,
        keep_min: usize,
        window: f64,
    ) {
        if cands.is_empty() {
            return;
        }
        // Unique per startpoint: keep the max corner.
        cands.sort_unstable_by(|a, b| {
            a.sp.cmp(&b.sp)
                .then(b.corner(n_sigma).total_cmp(&a.corner(n_sigma)))
        });
        cands.dedup_by_key(|e| e.sp);
        // Sort by criticality.
        cands.sort_unstable_by(|a, b| b.corner(n_sigma).total_cmp(&a.corner(n_sigma)));
        let best = cands[0].corner(n_sigma);
        let mut kept = 0;
        for (i, e) in cands.iter().enumerate().take(cap) {
            if i >= keep_min && best - e.corner(n_sigma) > window {
                break;
            }
            kept = i + 1;
        }
        cands.truncate(kept);
    }

    /// The hold reducer before the run merge, verbatim: the oracle.
    fn reduce_min(
        cands: &mut Vec<SpArrival>,
        n_sigma: f64,
        cap: usize,
        keep_min: usize,
        window: f64,
    ) -> SpMap {
        if cands.is_empty() {
            return Vec::new();
        }
        let corner = |e: &SpArrival| e.mean - n_sigma * e.sigma;
        cands.sort_unstable_by(|a, b| a.sp.cmp(&b.sp).then(corner(a).total_cmp(&corner(b))));
        cands.dedup_by_key(|e| e.sp);
        cands.sort_unstable_by(|a, b| corner(a).total_cmp(&corner(b)));
        let best = corner(&cands[0]);
        let mut out: SpMap = Vec::with_capacity(cands.len().min(cap));
        for (i, e) in cands.iter().enumerate() {
            if i >= cap {
                break;
            }
            if i >= keep_min && corner(e) - best > window {
                break;
            }
            out.push(*e);
        }
        out
    }

    /// Runs of one map: each a parent map (in any order, unique
    /// startpoints) with the arc's mean and sigma.
    #[derive(Debug, Clone)]
    struct Runs {
        num_sps: u32,
        runs: Vec<(Vec<SpArrival>, f64, f64)>,
    }

    impl insta_support::prop::Shrink for Runs {}

    fn shifted(e: &SpArrival, mean: f64, sigma: f64) -> SpArrival {
        SpArrival {
            sp: e.sp,
            mean: e.mean + mean,
            sigma: rss(e.sigma, sigma),
        }
    }

    /// Tie-heavy runs: quarter-step means and sigmas (zero arc sigma keeps a
    /// shifted sigma exact), startpoints shared by several runs with one
    /// corner but different (mean, sigma) bits, empty runs, shuffled
    /// parents, now and then a NaN sigma.
    fn gen_runs(rng: &mut insta_support::Rng) -> Runs {
        let q = |rng: &mut insta_support::Rng, hi: u32| rng.gen_range(0..hi) as f64 * 0.25;
        let num_sps = rng.gen_range(1u32..13);
        let mut runs = Vec::new();
        for _ in 0..rng.gen_range(0usize..7) {
            let mean = q(rng, 16);
            let sigma = match rng.gen_range(0u32..4) {
                0 | 1 => 0.0,
                2 => 0.75,
                _ => q(rng, 8),
            };
            let mut parent = Vec::new();
            if !rng.gen_bool(0.15) {
                for sp in 0..num_sps {
                    if rng.gen_bool(0.6) {
                        parent.push(SpArrival {
                            sp,
                            mean: q(rng, 40),
                            sigma: q(rng, 8),
                        });
                    }
                }
            }
            runs.push((parent, mean, sigma));
        }
        // One startpoint at one corner through several zero-sigma runs, each
        // time with another (mean, sigma): the late corner `c` ties in
        // `mean + 3 sigma`, the early corner in `mean - 3 sigma`.
        if !runs.is_empty() && rng.gen_bool(0.7) {
            let sp = rng.gen_range(0..num_sps);
            let c = q(rng, 40) + 8.0;
            let late = rng.gen_bool(0.5);
            for (k, (parent, mean, sigma)) in runs.iter_mut().enumerate() {
                if *sigma != 0.0 || rng.gen_bool(0.3) {
                    continue;
                }
                let s = (k % 4) as f64 * 0.5;
                let m = if late {
                    c - *mean - 3.0 * s
                } else {
                    c - *mean + 3.0 * s
                };
                parent.retain(|e| e.sp != sp);
                parent.push(SpArrival {
                    sp,
                    mean: m,
                    sigma: s,
                });
            }
        }
        if rng.gen_bool(0.1) {
            if let Some(e) = runs.iter_mut().flat_map(|r| r.0.iter_mut()).next() {
                e.sigma = f64::NAN;
            }
        }
        for (parent, _, _) in &mut runs {
            rng.shuffle(parent);
        }
        Runs { num_sps, runs }
    }

    /// The tie rule spelled out: per startpoint the largest key, the first
    /// run on a tie; then key descending, startpoint ascending; then the
    /// cap and the window.
    fn defined_rule(runs: &Runs, rule: &PruneRule) -> SpMap {
        let key = |e: &SpArrival| rule.side.key(e, rule.n_sigma);
        let mut winners: Vec<SpArrival> = Vec::new();
        for (parent, mean, sigma) in &runs.runs {
            for e in parent.iter().map(|e| shifted(e, *mean, *sigma)) {
                match winners.iter_mut().find(|w| w.sp == e.sp) {
                    Some(w) if key(&e).total_cmp(&key(w)).is_gt() => *w = e,
                    Some(_) => {}
                    None => winners.push(e),
                }
            }
        }
        winners.sort_by(|a, b| key(b).total_cmp(&key(a)).then(a.sp.cmp(&b.sp)));
        let mut out = Vec::new();
        for (i, e) in winners.iter().enumerate() {
            if i >= rule.cap || (i >= rule.keep_min && key(&winners[0]) - key(e) > rule.window) {
                break;
            }
            out.push(*e);
        }
        out
    }

    fn bits(e: &SpArrival) -> (u32, u64, u64) {
        (e.sp, e.mean.to_bits(), e.sigma.to_bits())
    }

    /// One reduction of `runs` under `rule`, checked against the oracle
    /// and the tie rule.
    fn check_reduction(red: &mut Reducer, runs: &Runs, rule: &PruneRule) -> Result<(), String> {
        red.cands.clear();
        red.runs.clear();
        for (parent, mean, sigma) in &runs.runs {
            red.push_run(parent, *mean, *sigma, rule);
        }
        let ours: Vec<_> = red.merge(rule).iter().map(bits).collect();
        let spec: Vec<_> = defined_rule(runs, rule).iter().map(bits).collect();
        if ours != spec {
            return Err(format!("{rule:?}: merge {ours:?} != tie rule {spec:?}"));
        }
        let n = rule.n_sigma;
        let all: Vec<SpArrival> = runs
            .runs
            .iter()
            .flat_map(|(p, m, s)| p.iter().map(move |e| shifted(e, *m, *s)))
            .collect();
        let (oracle, corner): (SpMap, fn(&SpArrival, f64) -> f64) = match rule.side {
            Side::Late => {
                let mut c = all.clone();
                reduce_map(&mut c, n, rule.cap, rule.keep_min, rule.window);
                (c, |e, n| e.mean + n * e.sigma)
            }
            Side::Early => {
                let o = reduce_min(&mut all.clone(), n, rule.cap, rule.keep_min, rule.window);
                (o, |e, n| e.mean - n * e.sigma)
            }
        };
        if oracle.len() != ours.len() {
            return Err(format!(
                "{rule:?}: {} entries, oracle {}",
                ours.len(),
                oracle.len()
            ));
        }
        let best_of = |sp: u32| {
            all.iter()
                .filter(|e| e.sp == sp)
                .map(|e| rule.side.key(e, n))
                .max_by(f64::total_cmp)
                .expect("a candidate")
        };
        let mut sps: Vec<u32> = all.iter().map(|e| e.sp).collect();
        sps.sort_unstable();
        sps.dedup();
        for (i, (o, e)) in oracle.iter().zip(red.out.iter()).enumerate() {
            let c = corner(o, n);
            if c.to_bits() != corner(e, n).to_bits() {
                return Err(format!("{rule:?}: corner {i} {c} vs oracle's"));
            }
            // The oracle's pick is its sort's unless the corner is one
            // startpoint's alone and that startpoint reaches it one way.
            let key = rule.side.key(o, n);
            let tied = sps
                .iter()
                .filter(|&&sp| best_of(sp).to_bits() == key.to_bits())
                .count();
            let ways = all
                .iter()
                .filter(|x| x.sp == o.sp && rule.side.key(x, n).to_bits() == key.to_bits())
                .map(bits)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            if tied == 1 && ways == 1 && bits(o) != bits(e) {
                return Err(format!("{rule:?}: entry {i} {e:?} vs oracle {o:?}"));
            }
        }
        Ok(())
    }

    /// The run merge equals the two-sort reducers on `to_bits` and in order
    /// wherever the order is defined by value, and follows the tie rule
    /// everywhere — setup and hold, with `sp_cap`, `sp_keep_min` and the
    /// window at and around every boundary of each generated map.
    #[test]
    fn run_merge_equals_the_two_sort_oracle_and_pins_ties() {
        use insta_support::prop::{for_all, Config};
        for_all(Config::cases(96).seed(0x5EED_2ED0), gen_runs, |runs| {
            let mut red = Reducer::new(runs.num_sps as usize);
            for side in [Side::Late, Side::Early] {
                let unbounded = PruneRule {
                    side,
                    n_sigma: 3.0,
                    cap: usize::MAX,
                    keep_min: usize::MAX,
                    window: f64::INFINITY,
                };
                let keys: Vec<f64> = defined_rule(runs, &unbounded)
                    .iter()
                    .map(|e| side.key(e, 3.0))
                    .collect();
                let u = keys.len();
                let mut windows = vec![0.0, -0.25, f64::INFINITY];
                for k in &keys {
                    let d = keys[0] - k;
                    if d.is_finite() {
                        windows.extend([d, d.next_down(), d.next_up()]);
                    }
                }
                for cap in [0, 1, 2, u.saturating_sub(1), u, u + 1, 128] {
                    for keep_min in [0, 1, cap.saturating_sub(1), cap, u, u + 1, 8] {
                        for &window in &windows {
                            let rule = PruneRule {
                                window,
                                cap,
                                keep_min,
                                ..unbounded
                            };
                            check_reduction(&mut red, runs, &rule)?;
                        }
                    }
                }
            }
            Ok(())
        });
    }

    /// A map past the reducer's stamp wrap keeps deduplicating.
    #[test]
    fn stamps_survive_the_wrap() {
        let mut red = Reducer::new(2);
        red.stamp = u32::MAX - 1;
        let a = |sp, mean| SpArrival {
            sp,
            mean,
            sigma: 0.0,
        };
        let runs = Runs {
            num_sps: 2,
            runs: vec![
                (vec![a(0, 1.0), a(1, 2.0)], 0.0, 0.0),
                (vec![a(1, 3.0), a(0, 1.0)], 0.0, 0.0),
            ],
        };
        let rule = PruneRule {
            side: Side::Late,
            n_sigma: 3.0,
            cap: 8,
            keep_min: 8,
            window: 0.0,
        };
        for _ in 0..4 {
            check_reduction(&mut red, &runs, &rule).expect("same as the oracle");
            assert_eq!(red.out.len(), 2);
        }
    }
}
