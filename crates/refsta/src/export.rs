//! CircuitOps-style initialization export for the INSTA engine (paper
//! Fig. 2).
//!
//! After a reference full update, [`RefSta::export_insta_init`] snapshots
//! everything INSTA's propagation needs — and nothing else:
//!
//! * the levelized graph (level CSR + per-node fanin CSR),
//! * per-arc variational delay attributes (mean, sigma per rise/fall) with
//!   unateness, where **non-unate arcs are expanded** into a positive-unate
//!   and a negative-unate clone so the Top-K kernel can stay exactly as in
//!   the paper's Algorithm 1,
//! * startpoint launch arrivals and clock leaves,
//! * endpoint base required times, capture leaves, and exceptions,
//! * the clock-tree parent/depth arrays plus per-node cumulative CPPR
//!   credit, so the engine can resolve per-(SP, EP) credit by LCA walks.
//!
//! [`hold_attributes`] is the hold-side counterpart: early launches and
//! hold requirements, the one computation of them that
//! [`RefSta::hold_update`] and the engine's hold pass both read.

use crate::exceptions::ExceptionSet;
use crate::sta::{EpInfo, RefSta, SpInfo, DERATE_EARLY, DERATE_LATE, N_SIGMA};
use insta_liberty::{ArcKind, TimingSense, Transition};
use insta_netlist::Design;
use insta_support::json::{obj, FromJson, Json, JsonError, ToJson};
use std::path::Path;

/// Sentinel for "no clock leaf" (primary-input startpoints, primary-output
/// endpoints).
pub const NO_LEAF: u32 = u32::MAX;

/// One exported (possibly expanded) fanin arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExportedArc {
    /// Parent node index.
    pub parent: u32,
    /// Mean delay per destination transition (ps).
    pub mean: [f64; 2],
    /// Sigma per destination transition (ps).
    pub sigma: [f64; 2],
    /// Whether the parent transition is inverted (paper Algorithm 1 line
    /// 9: `pRF = ~rf if negative_unate else rf`).
    pub negative_unate: bool,
    /// The graph arc this entry was expanded from (for incremental
    /// re-annotation and gradient mapping back to design objects).
    pub source_arc: u32,
}

/// Launch initialization of one startpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceInit {
    /// Source node.
    pub node: u32,
    /// Startpoint id.
    pub sp: u32,
    /// Launch arrival mean per transition (ps).
    pub mean: [f64; 2],
    /// Launch arrival sigma per transition (ps).
    pub sigma: [f64; 2],
}

/// Endpoint attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointInit {
    /// Endpoint node.
    pub node: u32,
    /// Endpoint id.
    pub ep: u32,
    /// Single-cycle required time before per-SP adjustments (ps).
    pub required_base: f64,
    /// Capture clock leaf ([`NO_LEAF`] for primary outputs).
    pub leaf: u32,
}

/// Everything INSTA needs to propagate timing — the "one-time
/// initialization from a reference timing engine" of Fig. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct InstaInit {
    /// Number of graph nodes.
    pub n_nodes: usize,
    /// Level CSR over `order`.
    pub level_start: Vec<u32>,
    /// Node ids in level-major order.
    pub order: Vec<u32>,
    /// Fanin CSR: arcs of node `v` are `fanin[fanin_start[v]..fanin_start[v+1]]`.
    pub fanin_start: Vec<u32>,
    /// Expanded fanin arcs.
    pub fanin: Vec<ExportedArc>,
    /// Startpoint launch data.
    pub sources: Vec<SourceInit>,
    /// Endpoint attributes.
    pub endpoints: Vec<EndpointInit>,
    /// Startpoint → clock leaf ([`NO_LEAF`] for primary inputs).
    pub sp_leaf: Vec<u32>,
    /// Clock-tree parent array ([`NO_LEAF`] for the root).
    pub clock_parent: Vec<u32>,
    /// Clock-tree depth array.
    pub clock_depth: Vec<u32>,
    /// Cumulative CPPR credit at each tree node:
    /// `(derate_late - derate_early) * mean_arrival(node)`.
    pub clock_credit: Vec<f64>,
    /// Corner pessimism `N_sigma` (paper: 3.0).
    pub n_sigma: f64,
    /// Clock period (ps).
    pub period_ps: f64,
    /// Timing exceptions, keyed by (SP, EP).
    pub exceptions: ExceptionSet,
}

impl InstaInit {
    /// CPPR credit between a startpoint leaf and an endpoint leaf using the
    /// exported tree arrays ([`NO_LEAF`] on either side yields 0).
    pub fn cppr_credit(&self, mut a: u32, mut b: u32) -> f64 {
        if a == NO_LEAF || b == NO_LEAF {
            return 0.0;
        }
        while self.clock_depth[a as usize] > self.clock_depth[b as usize] {
            a = self.clock_parent[a as usize];
        }
        while self.clock_depth[b as usize] > self.clock_depth[a as usize] {
            b = self.clock_parent[b as usize];
        }
        while a != b {
            a = self.clock_parent[a as usize];
            b = self.clock_parent[b as usize];
        }
        self.clock_credit[a as usize]
    }

    /// Number of exported (expanded) arcs.
    pub fn num_arcs(&self) -> usize {
        self.fanin.len()
    }
}

// ---- Snapshot JSON encoding ----------------------------------------------
//
// One flat object per struct, field names matching the Rust fields, so a
// snapshot stays self-describing and diff-able. All floats use shortest
// round-trip encoding (see `insta_support::json`), which is what makes the
// round-trip test bit-exact.

impl ToJson for ExportedArc {
    fn to_json(&self) -> Json {
        obj([
            ("parent", self.parent.to_json()),
            ("mean", self.mean.to_json()),
            ("sigma", self.sigma.to_json()),
            ("negative_unate", self.negative_unate.to_json()),
            ("source_arc", self.source_arc.to_json()),
        ])
    }
}

impl FromJson for ExportedArc {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            parent: v.get("parent")?,
            mean: v.get("mean")?,
            sigma: v.get("sigma")?,
            negative_unate: v.get("negative_unate")?,
            source_arc: v.get("source_arc")?,
        })
    }
}

impl ToJson for SourceInit {
    fn to_json(&self) -> Json {
        obj([
            ("node", self.node.to_json()),
            ("sp", self.sp.to_json()),
            ("mean", self.mean.to_json()),
            ("sigma", self.sigma.to_json()),
        ])
    }
}

impl FromJson for SourceInit {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            node: v.get("node")?,
            sp: v.get("sp")?,
            mean: v.get("mean")?,
            sigma: v.get("sigma")?,
        })
    }
}

impl ToJson for EndpointInit {
    fn to_json(&self) -> Json {
        obj([
            ("node", self.node.to_json()),
            ("ep", self.ep.to_json()),
            ("required_base", self.required_base.to_json()),
            ("leaf", self.leaf.to_json()),
        ])
    }
}

impl FromJson for EndpointInit {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            node: v.get("node")?,
            ep: v.get("ep")?,
            required_base: v.get("required_base")?,
            leaf: v.get("leaf")?,
        })
    }
}

impl ToJson for InstaInit {
    fn to_json(&self) -> Json {
        obj([
            ("n_nodes", self.n_nodes.to_json()),
            ("level_start", self.level_start.to_json()),
            ("order", self.order.to_json()),
            ("fanin_start", self.fanin_start.to_json()),
            ("fanin", self.fanin.to_json()),
            ("sources", self.sources.to_json()),
            ("endpoints", self.endpoints.to_json()),
            ("sp_leaf", self.sp_leaf.to_json()),
            ("clock_parent", self.clock_parent.to_json()),
            ("clock_depth", self.clock_depth.to_json()),
            ("clock_credit", self.clock_credit.to_json()),
            ("n_sigma", self.n_sigma.to_json()),
            ("period_ps", self.period_ps.to_json()),
            ("exceptions", self.exceptions.to_json()),
        ])
    }
}

impl FromJson for InstaInit {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            n_nodes: v.get("n_nodes")?,
            level_start: v.get("level_start")?,
            order: v.get("order")?,
            fanin_start: v.get("fanin_start")?,
            fanin: v.get("fanin")?,
            sources: v.get("sources")?,
            endpoints: v.get("endpoints")?,
            sp_leaf: v.get("sp_leaf")?,
            clock_parent: v.get("clock_parent")?,
            clock_depth: v.get("clock_depth")?,
            clock_credit: v.get("clock_credit")?,
            n_sigma: v.get("n_sigma")?,
            period_ps: v.get("period_ps")?,
            exceptions: v.get("exceptions")?,
        })
    }
}

/// Error persisting or loading an [`InstaInit`] snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed snapshot contents.
    Format(JsonError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::Format(e) => write!(f, "snapshot format invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Format(e) => Some(e),
        }
    }
}

/// Persists an initialization snapshot to disk (the paper's CircuitOps
/// interchange file: the one-time extraction commercial flows run once and
/// reuse).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failures.
pub fn save_init(init: &InstaInit, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    std::fs::write(path, init.to_json().to_string()).map_err(SnapshotError::Io)
}

/// Loads an initialization snapshot from disk.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failures and
/// [`SnapshotError::Format`] on malformed contents.
pub fn load_init(path: impl AsRef<Path>) -> Result<InstaInit, SnapshotError> {
    let text = std::fs::read_to_string(path).map_err(SnapshotError::Io)?;
    let value = insta_support::json::parse(&text).map_err(SnapshotError::Format)?;
    InstaInit::from_json(&value).map_err(SnapshotError::Format)
}

impl RefSta {
    /// Exports the INSTA initialization snapshot. Must be called after a
    /// [`RefSta::full_update`] so launch arrivals and required times exist.
    pub fn export_insta_init(&self) -> InstaInit {
        let graph = &self.graph;
        let n = graph.num_nodes();
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin: Vec<ExportedArc> = Vec::with_capacity(graph.num_arcs());
        fanin_start.push(0u32);
        for v in 0..n {
            for &ai in graph.fanin(insta_netlist::NodeId(v as u32)) {
                let arc = graph.arc(ai);
                let mean = self.delays.mean[ai as usize];
                let sigma = self.delays.sigma[ai as usize];
                match self.delays.sense[ai as usize] {
                    TimingSense::PositiveUnate => fanin.push(ExportedArc {
                        parent: arc.from.0,
                        mean,
                        sigma,
                        negative_unate: false,
                        source_arc: ai,
                    }),
                    TimingSense::NegativeUnate => fanin.push(ExportedArc {
                        parent: arc.from.0,
                        mean,
                        sigma,
                        negative_unate: true,
                        source_arc: ai,
                    }),
                    TimingSense::NonUnate => {
                        // Paper-faithful kernel handles only pos/neg; the
                        // export expands non-unate arcs into both flavours.
                        for neg in [false, true] {
                            fanin.push(ExportedArc {
                                parent: arc.from.0,
                                mean,
                                sigma,
                                negative_unate: neg,
                                source_arc: ai,
                            });
                        }
                    }
                }
            }
            fanin_start.push(fanin.len() as u32);
        }

        let sources = self
            .sp_infos
            .iter()
            .enumerate()
            .map(|(sp, info)| {
                let maps = &self.arrivals[info.node.index()];
                let entry = |tr: Transition| {
                    maps[tr.index()]
                        .first()
                        .copied()
                        .unwrap_or(crate::sta::SpArrival {
                            sp: sp as u32,
                            mean: 0.0,
                            sigma: 0.0,
                        })
                };
                let (r, f) = (entry(Transition::Rise), entry(Transition::Fall));
                SourceInit {
                    node: info.node.0,
                    sp: sp as u32,
                    mean: [r.mean, f.mean],
                    sigma: [r.sigma, f.sigma],
                }
            })
            .collect();

        let endpoints = self
            .ep_infos
            .iter()
            .enumerate()
            .map(|(ep, info)| EndpointInit {
                node: info.node.0,
                ep: ep as u32,
                required_base: info.required_base,
                leaf: info.leaf.unwrap_or(NO_LEAF),
            })
            .collect();

        let sp_leaf = self
            .sp_infos
            .iter()
            .map(|i| i.leaf.unwrap_or(NO_LEAF))
            .collect();

        let tree = graph.clock_tree();
        let spread = self.clock.derate_late - self.clock.derate_early;
        InstaInit {
            n_nodes: n,
            level_start: (0..=graph.num_levels())
                .map(|l| {
                    if l == 0 {
                        0
                    } else {
                        (0..l).map(|i| graph.level(i).len() as u32).sum()
                    }
                })
                .collect(),
            order: graph.topo_order().iter().map(|n| n.0).collect(),
            fanin_start,
            fanin,
            sources,
            endpoints,
            sp_leaf,
            clock_parent: tree
                .nodes()
                .iter()
                .map(|n| n.parent.unwrap_or(NO_LEAF))
                .collect(),
            clock_depth: tree.nodes().iter().map(|n| n.depth).collect(),
            clock_credit: self.clock.node_mean.iter().map(|&m| m * spread).collect(),
            n_sigma: N_SIGMA,
            period_ps: self.period,
            exceptions: self.config.exceptions.clone(),
        }
    }
}

/// Hold-side attributes beyond the setup snapshot: per-startpoint early
/// launch arrivals and per-endpoint hold requirements. They are the values
/// [`RefSta::hold_update`] seeds its early maps with and checks its
/// endpoints against, and what the INSTA engine's hold pass takes.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldAttributes {
    /// Early launch mean per startpoint per transition (ps).
    pub source_mean: Vec<[f64; 2]>,
    /// Launch sigma per startpoint per transition (ps).
    pub source_sigma: Vec<[f64; 2]>,
    /// Hold requirement per endpoint *before* CPPR credit:
    /// `capture_late + hold_margin` (ps); `NEG_INFINITY` for
    /// hold-unconstrained endpoints (primary outputs and flops with no
    /// clock timing).
    pub required_base: Vec<f64>,
}

/// Extracts hold attributes from a timed reference engine (the hold-side
/// counterpart of [`RefSta::export_insta_init`]).
///
/// A startpoint launches as a primary input does — at the input delay,
/// with zero sigma — unless it is a flop with clock timing and a launch
/// arc; then it launches at its early CK arrival plus the launch arc at
/// its Q pin's load.
pub fn hold_attributes(design: &Design, golden: &RefSta) -> HoldAttributes {
    let input = golden.config.input_delay_ps;
    let (source_mean, source_sigma) = golden
        .sp_infos
        .iter()
        .map(|sp| early_launch(design, golden, sp).unwrap_or(([input; 2], [0.0; 2])))
        .unzip();
    let required_base = golden
        .ep_infos
        .iter()
        .map(|ep| hold_requirement(design, golden, ep).unwrap_or(f64::NEG_INFINITY))
        .collect();
    HoldAttributes {
        source_mean,
        source_sigma,
        required_base,
    }
}

/// The hold requirement of a flop endpoint before CPPR credit: the late
/// capture edge plus the hold margin; `None` for a primary output and for
/// a flop with no clock timing.
fn hold_requirement(design: &Design, golden: &RefSta, ep: &EpInfo) -> Option<f64> {
    let capture = ep.capture?;
    let fc = golden.clock.flop(capture)?;
    let hold_margin = design
        .lib_cell_of(capture)
        .arcs()
        .iter()
        .find(|a| a.kind == ArcKind::Hold)
        .map(|a| a.delay(Transition::Rise).lookup(fc.slew, 0.0))
        .unwrap_or(0.0);
    Some(fc.mean * DERATE_LATE + N_SIGMA * fc.sigma + hold_margin)
}

/// The early launch `(mean, sigma)` per transition of a flop startpoint;
/// `None` for a primary input and for a flop with no clock timing or no
/// launch arc.
fn early_launch(design: &Design, golden: &RefSta, sp: &SpInfo) -> Option<([f64; 2], [f64; 2])> {
    let flop = sp.flop?;
    let fc = golden.clock.flop(flop)?;
    let lc = design.lib_cell_of(flop);
    let launch = lc.arcs().iter().find(|a| a.kind == ArcKind::Launch)?;
    let load = design.driver_load_ff(sp.pin);
    let mut mean = [0.0; 2];
    let mut sigma = [0.0; 2];
    for tr in Transition::BOTH {
        let d = launch.delay(tr).lookup(fc.slew, load);
        let s = launch.sigma_coeff * d;
        mean[tr.index()] = fc.mean * DERATE_EARLY + d;
        sigma[tr.index()] = (fc.sigma * fc.sigma + s * s).sqrt();
    }
    Some((mean, sigma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::{RefSta, StaConfig};
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    fn exported() -> (insta_netlist::Design, RefSta, InstaInit) {
        let d = generate_design(&GeneratorConfig::small("exp", 23));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let init = sta.export_insta_init();
        (d, sta, init)
    }

    #[test]
    fn export_covers_all_nodes_and_arcs() {
        let (_d, sta, init) = exported();
        assert_eq!(init.n_nodes, sta.graph().num_nodes());
        assert_eq!(init.order.len(), init.n_nodes);
        assert_eq!(init.fanin_start.len(), init.n_nodes + 1);
        // Expanded arc count >= graph arc count (non-unate expansion).
        assert!(init.num_arcs() >= sta.graph().num_arcs());
        assert_eq!(init.sources.len(), sta.sp_infos().len());
        assert_eq!(init.endpoints.len(), sta.ep_infos().len());
    }

    #[test]
    fn level_csr_matches_graph_levels() {
        let (_d, sta, init) = exported();
        assert_eq!(init.level_start.len(), sta.graph().num_levels() + 1);
        assert_eq!(*init.level_start.last().unwrap() as usize, init.n_nodes);
        for l in 0..sta.graph().num_levels() {
            let a = init.level_start[l] as usize;
            let b = init.level_start[l + 1] as usize;
            assert_eq!(b - a, sta.graph().level(l).len());
        }
    }

    #[test]
    fn non_unate_arcs_are_expanded_in_pairs() {
        let (_d, sta, init) = exported();
        let n_non_unate = sta
            .delays()
            .sense
            .iter()
            .filter(|&&s| s == TimingSense::NonUnate)
            .count();
        assert_eq!(
            init.num_arcs(),
            sta.graph().num_arcs() + n_non_unate,
            "each non-unate arc contributes exactly one extra entry"
        );
    }

    #[test]
    fn exported_credit_matches_reference_credit() {
        let (_d, sta, init) = exported();
        let tree = sta.graph().clock_tree();
        let leaves: Vec<u32> = init
            .sp_leaf
            .iter()
            .copied()
            .filter(|&l| l != NO_LEAF)
            .collect();
        assert!(!leaves.is_empty());
        for &a in leaves.iter().take(5) {
            for &b in leaves.iter().rev().take(5) {
                let want = sta.clock().cppr_credit(tree, a, b);
                let got = init.cppr_credit(a, b);
                assert!((want - got).abs() < 1e-12);
            }
        }
        assert_eq!(init.cppr_credit(NO_LEAF, leaves[0]), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let (_d, _sta, init) = exported();
        let dir = std::env::temp_dir().join("insta_snapshot_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("init.json");
        super::save_init(&init, &path).expect("save");
        let back = super::load_init(&path).expect("load");
        assert_eq!(init, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loading_garbage_reports_format_error() {
        let dir = std::env::temp_dir().join("insta_snapshot_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"{ not json ]").expect("write");
        let err = super::load_init(&path).unwrap_err();
        assert!(matches!(err, super::SnapshotError::Format(_)), "{err}");
        std::fs::remove_file(&path).ok();
        let missing = super::load_init(dir.join("missing.json")).unwrap_err();
        assert!(matches!(missing, super::SnapshotError::Io(_)));
    }

    #[test]
    fn source_arrivals_match_engine_init() {
        let (_d, sta, init) = exported();
        for s in &init.sources {
            let maps = sta.arrivals(insta_netlist::NodeId(s.node));
            for ti in 0..2 {
                let top = maps[ti].first().expect("source initialized");
                assert_eq!(top.sp, s.sp);
                assert_eq!(top.mean, s.mean[ti]);
                assert_eq!(top.sigma, s.sigma[ti]);
            }
        }
    }
}
