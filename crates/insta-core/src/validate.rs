//! Snapshot validation: the contract every [`InstaInit`] must satisfy
//! before the kernels may index it.
//!
//! The engine's hot paths are written against invariants the exporter
//! guarantees — CSR monotonicity, strictly-increasing levels along arcs,
//! in-range node/leaf references, finite statistics — and they index
//! arrays without bounds checks *logically* relying on them (Rust still
//! bounds-checks, so violations panic instead of corrupting memory; they
//! must never reach the kernels either way). A snapshot cloned from an
//! external tool is untrusted: this module checks the full contract in a
//! single O(nodes + arcs + endpoints + tree) pass, and
//! [`InstaEngine::new`](crate::InstaEngine::new) rejects any snapshot it
//! finds a fatal issue in.
//!
//! Issue severities:
//!
//! * **fatal** — the kernels cannot index the snapshot: broken structure
//!   (a CSR, an order that is not a permutation) or element-level damage
//!   (an out-of-range reference, a level inversion, a duplicate arc, a
//!   non-finite statistic, an inconsistent clock tree). Rejected.
//! * **warning** — suspicious but representable (an endpoint no path can
//!   reach): reported, never rejected.

use insta_refsta::export::{InstaInit, NO_LEAF};

/// Issue severity class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Unusable structure or element; rejected.
    Fatal,
    /// Reported only.
    Warning,
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Issue {
    /// Engine configuration is invalid (e.g. `top_k == 0`).
    BadConfig {
        /// What is wrong.
        message: String,
    },
    /// `n_nodes` disagrees with the `order` array length.
    NodeCountMismatch {
        /// Declared node count.
        n_nodes: usize,
        /// Actual `order` length.
        order_len: usize,
    },
    /// `order` is not a permutation of `0..n_nodes`.
    OrderNotPermutation {
        /// First offending entry (out of range or repeated).
        entry: u32,
    },
    /// The level CSR is malformed (empty, non-monotone, or not covering
    /// all nodes).
    LevelCsrBroken {
        /// What is wrong.
        detail: String,
    },
    /// The fanin CSR is malformed.
    FaninCsrBroken {
        /// What is wrong.
        detail: String,
    },
    /// An arc references a parent outside the node range.
    ArcParentOutOfRange {
        /// Expanded arc index.
        arc: usize,
        /// The out-of-range parent.
        parent: u32,
    },
    /// An incremental update delta references a graph arc the snapshot
    /// does not have (caller-supplied id past `n_graph_arcs`).
    DeltaArcOutOfRange {
        /// Position of the delta in the caller's batch.
        index: usize,
        /// The out-of-range graph-arc id.
        arc: u32,
        /// Number of graph arcs in the snapshot (exclusive bound).
        n_graph_arcs: usize,
    },
    /// An arc's parent is not in a strictly earlier level than its child
    /// (mis-levelization or a combinational cycle squeezed into the CSR).
    ArcLevelInversion {
        /// Expanded arc index.
        arc: usize,
        /// Parent node (original id).
        parent: u32,
        /// Child node (original id).
        child: u32,
    },
    /// Two identical expanded arcs into the same node.
    DuplicateArc {
        /// Expanded arc index of the duplicate.
        arc: usize,
        /// Child node (original id).
        node: u32,
    },
    /// An arc's `source_arc` (graph-arc id) exceeds
    /// [`source_arc_cap`]. The engine sizes its gradient-aggregation CSR
    /// by `max(source_arc) + 1`, so an absurd id turns into an unbounded
    /// allocation; legitimate ids are always below the expanded arc count
    /// (expansion only ever grows the array).
    ArcSourceOutOfRange {
        /// Expanded arc index.
        arc: usize,
        /// The out-of-range graph-arc id.
        source_arc: u32,
    },
    /// An arc mean is NaN or infinite.
    NonFiniteMean {
        /// Expanded arc index.
        arc: usize,
        /// Transition (0 = rise, 1 = fall).
        rf: u8,
        /// The offending value.
        value: f64,
    },
    /// An arc sigma is NaN, infinite, or negative.
    InvalidSigma {
        /// Expanded arc index.
        arc: usize,
        /// Transition (0 = rise, 1 = fall).
        rf: u8,
        /// The offending value.
        value: f64,
    },
    /// A startpoint references a node outside the range.
    SourceNodeOutOfRange {
        /// Source table index.
        index: usize,
        /// The out-of-range node.
        node: u32,
    },
    /// A startpoint's id does not equal its table index (the engine uses
    /// sp ids to index per-sp arrays).
    SourceIdMismatch {
        /// Source table index.
        index: usize,
        /// The stored id.
        sp: u32,
    },
    /// A launch arrival statistic is NaN/infinite (mean) or invalid
    /// (sigma).
    SourceStatInvalid {
        /// Source table index.
        index: usize,
        /// Transition (0 = rise, 1 = fall).
        rf: u8,
        /// The offending value.
        value: f64,
    },
    /// An endpoint references a node outside the range.
    EndpointNodeOutOfRange {
        /// Endpoint table index.
        index: usize,
        /// The out-of-range node.
        node: u32,
    },
    /// An endpoint's id does not equal its table index.
    EndpointIdMismatch {
        /// Endpoint table index.
        index: usize,
        /// The stored id.
        ep: u32,
    },
    /// An endpoint required time is NaN (±∞ is representable: an
    /// unconstrained endpoint).
    EndpointRequiredNan {
        /// Endpoint table index.
        index: usize,
    },
    /// A clock leaf reference is outside the clock tree.
    LeafOutOfRange {
        /// Which table holds the reference (`"sp_leaf"` / `"endpoint"`).
        table: &'static str,
        /// Index within that table.
        index: usize,
        /// The out-of-range leaf.
        leaf: u32,
    },
    /// `sp_leaf` does not have one entry per startpoint.
    SpLeafLenMismatch {
        /// `sp_leaf` length.
        sp_leaf: usize,
        /// Startpoint count.
        sources: usize,
    },
    /// The clock-tree arrays are inconsistent (length mismatch, multiple
    /// roots, non-decreasing depth along parents, or non-finite credit) —
    /// CPPR walks over them could loop or index out of range.
    ClockTreeBroken {
        /// What is wrong.
        detail: String,
    },
    /// The clock period is NaN or non-positive (+∞ means "no clock" and
    /// is valid).
    PeriodInvalid {
        /// The offending value.
        value: f64,
    },
    /// `n_sigma` is NaN, infinite, or negative.
    NSigmaInvalid {
        /// The offending value.
        value: f64,
    },
    /// No path can reach this endpoint (no fanin and not a startpoint).
    UnreachableEndpoint {
        /// Endpoint table index.
        index: usize,
        /// The endpoint node (original id).
        node: u32,
    },
}

impl Issue {
    /// The severity class of this issue.
    pub fn severity(&self) -> Severity {
        match self {
            Issue::UnreachableEndpoint { .. } => Severity::Warning,
            _ => Severity::Fatal,
        }
    }
}

impl std::fmt::Display for Issue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Issue::BadConfig { message } => write!(f, "bad config: {message}"),
            Issue::NodeCountMismatch { n_nodes, order_len } => {
                write!(f, "n_nodes = {n_nodes} but order has {order_len} entries")
            }
            Issue::OrderNotPermutation { entry } => {
                write!(f, "order is not a permutation (entry {entry})")
            }
            Issue::LevelCsrBroken { detail } => write!(f, "level CSR broken: {detail}"),
            Issue::FaninCsrBroken { detail } => write!(f, "fanin CSR broken: {detail}"),
            Issue::ArcParentOutOfRange { arc, parent } => {
                write!(f, "arc {arc}: parent {parent} out of range")
            }
            Issue::DeltaArcOutOfRange {
                index,
                arc,
                n_graph_arcs,
            } => write!(
                f,
                "delta {index}: arc {arc} out of range (snapshot has {n_graph_arcs} graph arcs)"
            ),
            Issue::ArcLevelInversion { arc, parent, child } => write!(
                f,
                "arc {arc}: parent {parent} not in a strictly earlier level than child {child}"
            ),
            Issue::ArcSourceOutOfRange { arc, source_arc } => {
                write!(f, "arc {arc}: graph-arc id {source_arc} out of range")
            }
            Issue::DuplicateArc { arc, node } => {
                write!(f, "arc {arc}: duplicate fanin arc into node {node}")
            }
            Issue::NonFiniteMean { arc, rf, value } => {
                write!(f, "arc {arc} rf {rf}: non-finite mean {value}")
            }
            Issue::InvalidSigma { arc, rf, value } => {
                write!(f, "arc {arc} rf {rf}: invalid sigma {value}")
            }
            Issue::SourceNodeOutOfRange { index, node } => {
                write!(f, "source {index}: node {node} out of range")
            }
            Issue::SourceIdMismatch { index, sp } => {
                write!(f, "source {index}: sp id {sp} != table index")
            }
            Issue::SourceStatInvalid { index, rf, value } => {
                write!(f, "source {index} rf {rf}: invalid launch stat {value}")
            }
            Issue::EndpointNodeOutOfRange { index, node } => {
                write!(f, "endpoint {index}: node {node} out of range")
            }
            Issue::EndpointIdMismatch { index, ep } => {
                write!(f, "endpoint {index}: ep id {ep} != table index")
            }
            Issue::EndpointRequiredNan { index } => {
                write!(f, "endpoint {index}: required time is NaN")
            }
            Issue::LeafOutOfRange { table, index, leaf } => {
                write!(f, "{table}[{index}]: clock leaf {leaf} out of range")
            }
            Issue::SpLeafLenMismatch { sp_leaf, sources } => {
                write!(f, "sp_leaf has {sp_leaf} entries for {sources} startpoints")
            }
            Issue::ClockTreeBroken { detail } => write!(f, "clock tree broken: {detail}"),
            Issue::PeriodInvalid { value } => write!(f, "invalid clock period {value}"),
            Issue::NSigmaInvalid { value } => write!(f, "invalid n_sigma {value}"),
            Issue::UnreachableEndpoint { index, node } => {
                write!(f, "endpoint {index} (node {node}) is unreachable")
            }
        }
    }
}

/// Cap on individually recorded issues; beyond it only counters grow.
pub const MAX_RECORDED_ISSUES: usize = 64;

/// Everything a validation pass found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// The first [`MAX_RECORDED_ISSUES`] issues in discovery order.
    pub issues: Vec<Issue>,
    /// Total fatal issues (may exceed the recorded list).
    pub n_fatal: usize,
    /// Total warnings.
    pub n_warning: usize,
}

impl ValidationReport {
    /// Records an issue, updating the severity counters and the capped
    /// detail list.
    pub fn record(&mut self, issue: Issue) {
        match issue.severity() {
            Severity::Fatal => self.n_fatal += 1,
            Severity::Warning => self.n_warning += 1,
        }
        if self.issues.len() < MAX_RECORDED_ISSUES {
            self.issues.push(issue);
        }
    }

    /// Whether the engine rejects this snapshot (any fatal issue).
    pub fn rejects_strict(&self) -> bool {
        self.n_fatal > 0
    }

    /// Whether the snapshot is fully clean (warnings allowed).
    pub fn is_clean(&self) -> bool {
        !self.rejects_strict()
    }

    /// Total issues of every severity.
    pub fn total(&self) -> usize {
        self.n_fatal + self.n_warning
    }
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} fatal, {} warnings", self.n_fatal, self.n_warning)?;
        for issue in self.issues.iter().take(8) {
            write!(f, "; {issue}")?;
        }
        if self.total() > self.issues.len().min(8) {
            write!(f, "; …")?;
        }
        Ok(())
    }
}

/// Structure lookups for validation: renumbered position
/// and timing level per original node id. `None` when the structural
/// arrays are too broken to derive them.
struct Positions {
    /// Original node id → renumbered (level-major) position.
    pos_of: Vec<u32>,
    /// Renumbered position → timing level.
    level_of_pos: Vec<u32>,
}

/// Checks the structural skeleton (counts, permutation, CSRs) and derives
/// position lookups. Fatal issues land in `report`.
fn check_structure(init: &InstaInit, report: &mut ValidationReport) -> Option<Positions> {
    let n = init.n_nodes;
    if init.order.len() != n {
        report.record(Issue::NodeCountMismatch {
            n_nodes: n,
            order_len: init.order.len(),
        });
        return None;
    }

    // `order` must be a permutation of 0..n.
    let mut pos_of = vec![u32::MAX; n];
    let mut ok = true;
    for (pos, &orig) in init.order.iter().enumerate() {
        if (orig as usize) >= n || pos_of[orig as usize] != u32::MAX {
            report.record(Issue::OrderNotPermutation { entry: orig });
            ok = false;
            break;
        }
        pos_of[orig as usize] = pos as u32;
    }

    // Level CSR: starts at 0, monotone, covers all nodes.
    if init.level_start.is_empty() {
        report.record(Issue::LevelCsrBroken {
            detail: "empty level_start".into(),
        });
        ok = false;
    } else if init.level_start[0] != 0 {
        report.record(Issue::LevelCsrBroken {
            detail: format!("level_start[0] = {} != 0", init.level_start[0]),
        });
        ok = false;
    } else if init.level_start.windows(2).any(|w| w[1] < w[0]) {
        report.record(Issue::LevelCsrBroken {
            detail: "level_start not monotone".into(),
        });
        ok = false;
    } else if *init.level_start.last().expect("non-empty") as usize != n {
        report.record(Issue::LevelCsrBroken {
            detail: format!(
                "level_start covers {} of {n} nodes",
                init.level_start.last().expect("non-empty")
            ),
        });
        ok = false;
    }

    // Fanin CSR: one row per node, monotone, covering the arc array.
    if init.fanin_start.len() != n + 1 {
        report.record(Issue::FaninCsrBroken {
            detail: format!("fanin_start has {} rows for {n} nodes", init.fanin_start.len()),
        });
        ok = false;
    } else if init.fanin_start[0] != 0 || init.fanin_start.windows(2).any(|w| w[1] < w[0]) {
        report.record(Issue::FaninCsrBroken {
            detail: "fanin_start not monotone from 0".into(),
        });
        ok = false;
    } else if *init.fanin_start.last().expect("non-empty") as usize != init.fanin.len() {
        report.record(Issue::FaninCsrBroken {
            detail: format!(
                "fanin_start covers {} of {} arcs",
                init.fanin_start.last().expect("non-empty"),
                init.fanin.len()
            ),
        });
        ok = false;
    }

    if !ok {
        return None;
    }

    // Position → level via the (validated) level CSR.
    let mut level_of_pos = vec![0u32; n];
    for l in 0..init.level_start.len() - 1 {
        for pos in init.level_start[l] as usize..init.level_start[l + 1] as usize {
            level_of_pos[pos] = l as u32;
        }
    }
    Some(Positions { pos_of, level_of_pos })
}

/// Upper bound (exclusive) on graph-arc ids accepted for a snapshot with
/// `n_arcs` expanded arcs. Legitimate ids are `< n_arcs`; the 16× + 1024
/// headroom keeps engine allocations within a small multiple of the input
/// size.
pub fn source_arc_cap(n_arcs: usize) -> usize {
    n_arcs.saturating_mul(16).saturating_add(1024)
}

/// Validates a snapshot in one O(nodes + arcs + endpoints + tree) pass.
pub fn validate(init: &InstaInit) -> ValidationReport {
    let mut report = ValidationReport::default();
    let Some(pos) = check_structure(init, &mut report) else {
        return report;
    };
    let n = init.n_nodes;

    // ---- Arcs: parent bounds, level monotonicity, duplicates, stats ----
    for v in 0..n {
        let range = init.fanin_start[v] as usize..init.fanin_start[v + 1] as usize;
        let child_level = pos.level_of_pos[pos.pos_of[v] as usize];
        let arcs = &init.fanin[range.clone()];
        for (off, arc) in arcs.iter().enumerate() {
            let ai = range.start + off;
            if (arc.parent as usize) >= n {
                report.record(Issue::ArcParentOutOfRange {
                    arc: ai,
                    parent: arc.parent,
                });
            } else if pos.level_of_pos[pos.pos_of[arc.parent as usize] as usize] >= child_level {
                report.record(Issue::ArcLevelInversion {
                    arc: ai,
                    parent: arc.parent,
                    child: v as u32,
                });
            }
            if arc.source_arc as usize >= source_arc_cap(init.fanin.len()) {
                report.record(Issue::ArcSourceOutOfRange {
                    arc: ai,
                    source_arc: arc.source_arc,
                });
            }
            // Exact duplicate: same parent, unateness, and source arc.
            // Fanin degrees are single-digit in practice, so the local
            // quadratic scan stays O(arcs) overall.
            if arcs[..off].iter().any(|prev| {
                prev.parent == arc.parent
                    && prev.negative_unate == arc.negative_unate
                    && prev.source_arc == arc.source_arc
            }) {
                report.record(Issue::DuplicateArc {
                    arc: ai,
                    node: v as u32,
                });
            }
            for rf in 0..2 {
                if !arc.mean[rf].is_finite() {
                    report.record(Issue::NonFiniteMean {
                        arc: ai,
                        rf: rf as u8,
                        value: arc.mean[rf],
                    });
                }
                if !arc.sigma[rf].is_finite() || arc.sigma[rf] < 0.0 {
                    report.record(Issue::InvalidSigma {
                        arc: ai,
                        rf: rf as u8,
                        value: arc.sigma[rf],
                    });
                }
            }
        }
    }

    // ---- Clock tree ----------------------------------------------------
    let n_tree = init.clock_parent.len();
    let tree_ok = check_clock_tree(init, &mut report);

    // ---- Sources -------------------------------------------------------
    for (i, s) in init.sources.iter().enumerate() {
        if (s.node as usize) >= n {
            report.record(Issue::SourceNodeOutOfRange {
                index: i,
                node: s.node,
            });
        }
        if s.sp as usize != i {
            report.record(Issue::SourceIdMismatch { index: i, sp: s.sp });
        }
        for rf in 0..2 {
            if !s.mean[rf].is_finite() {
                report.record(Issue::SourceStatInvalid {
                    index: i,
                    rf: rf as u8,
                    value: s.mean[rf],
                });
            }
            if !s.sigma[rf].is_finite() || s.sigma[rf] < 0.0 {
                report.record(Issue::SourceStatInvalid {
                    index: i,
                    rf: rf as u8,
                    value: s.sigma[rf],
                });
            }
        }
    }
    if init.sp_leaf.len() != init.sources.len() {
        report.record(Issue::SpLeafLenMismatch {
            sp_leaf: init.sp_leaf.len(),
            sources: init.sources.len(),
        });
    }
    for (i, &leaf) in init.sp_leaf.iter().enumerate() {
        if leaf != NO_LEAF && (!tree_ok || leaf as usize >= n_tree) {
            report.record(Issue::LeafOutOfRange {
                table: "sp_leaf",
                index: i,
                leaf,
            });
        }
    }

    // ---- Endpoints -----------------------------------------------------
    let mut is_source = vec![false; n];
    for s in &init.sources {
        if (s.node as usize) < n {
            is_source[s.node as usize] = true;
        }
    }
    for (i, ep) in init.endpoints.iter().enumerate() {
        if (ep.node as usize) >= n {
            report.record(Issue::EndpointNodeOutOfRange {
                index: i,
                node: ep.node,
            });
            continue;
        }
        if ep.ep as usize != i {
            report.record(Issue::EndpointIdMismatch { index: i, ep: ep.ep });
        }
        if ep.required_base.is_nan() {
            report.record(Issue::EndpointRequiredNan { index: i });
        }
        if ep.leaf != NO_LEAF && (!tree_ok || ep.leaf as usize >= n_tree) {
            report.record(Issue::LeafOutOfRange {
                table: "endpoint",
                index: i,
                leaf: ep.leaf,
            });
        }
        let v = ep.node as usize;
        let no_fanin = init.fanin_start[v] == init.fanin_start[v + 1];
        if no_fanin && !is_source[v] {
            report.record(Issue::UnreachableEndpoint {
                index: i,
                node: ep.node,
            });
        }
    }

    // ---- Scalars -------------------------------------------------------
    if init.period_ps.is_nan() || init.period_ps <= 0.0 {
        report.record(Issue::PeriodInvalid {
            value: init.period_ps,
        });
    }
    if !init.n_sigma.is_finite() || init.n_sigma < 0.0 {
        report.record(Issue::NSigmaInvalid {
            value: init.n_sigma,
        });
    }

    report
}

/// Checks the clock-tree arrays; returns whether LCA walks over them are
/// safe (in-bounds and terminating).
fn check_clock_tree(init: &InstaInit, report: &mut ValidationReport) -> bool {
    let n_tree = init.clock_parent.len();
    if init.clock_depth.len() != n_tree || init.clock_credit.len() != n_tree {
        report.record(Issue::ClockTreeBroken {
            detail: format!(
                "array lengths differ: parent {n_tree}, depth {}, credit {}",
                init.clock_depth.len(),
                init.clock_credit.len()
            ),
        });
        return false;
    }
    let mut roots = 0usize;
    for i in 0..n_tree {
        let p = init.clock_parent[i];
        if p == NO_LEAF {
            roots += 1;
            continue;
        }
        if p as usize >= n_tree {
            report.record(Issue::ClockTreeBroken {
                detail: format!("node {i}: parent {p} out of range"),
            });
            return false;
        }
        // Depth must strictly decrease toward the root: LCA walks
        // terminate and cycles are impossible.
        if init.clock_depth[p as usize] >= init.clock_depth[i] {
            report.record(Issue::ClockTreeBroken {
                detail: format!(
                    "node {i}: parent depth {} >= own depth {}",
                    init.clock_depth[p as usize], init.clock_depth[i]
                ),
            });
            return false;
        }
    }
    if n_tree > 0 && roots != 1 {
        report.record(Issue::ClockTreeBroken {
            detail: format!("{roots} roots (LCA walks between subtrees never meet)"),
        });
        return false;
    }
    if let Some(i) = init.clock_credit.iter().position(|c| !c.is_finite()) {
        report.record(Issue::ClockTreeBroken {
            detail: format!("node {i}: non-finite credit {}", init.clock_credit[i]),
        });
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    fn clean_init() -> InstaInit {
        let d = generate_design(&GeneratorConfig::small("val", 41));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        sta.export_insta_init()
    }

    #[test]
    fn clean_export_validates_clean() {
        let report = validate(&clean_init());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.n_fatal, 0);
    }

    #[test]
    fn broken_structure_is_fatal() {
        let mut init = clean_init();
        init.order.swap_remove(0);
        init.order.push(init.order[0]); // duplicate: not a permutation
        let report = validate(&init);
        assert!(report.n_fatal > 0, "{report}");
        assert!(report.rejects_strict());
    }

    #[test]
    fn poisoned_stats_are_rejected() {
        let mut init = clean_init();
        init.fanin[0].mean[0] = f64::NAN;
        init.fanin[1].sigma[1] = -2.0;
        init.fanin[2].mean[1] = f64::INFINITY;
        let report = validate(&init);
        assert!(report.rejects_strict());
        assert_eq!((report.n_fatal, report.n_warning), (3, 0), "{report}");
    }

    #[test]
    fn level_inversion_is_detected() {
        let mut init = clean_init();
        // Point some late-level node's arc parent at the last node in the
        // order (deepest level) to create an inversion.
        let deep = *init.order.last().expect("nodes");
        let victim = (0..init.n_nodes)
            .find(|&v| {
                init.fanin_start[v] < init.fanin_start[v + 1] && v as u32 != deep
            })
            .expect("node with fanin");
        let ai = init.fanin_start[victim] as usize;
        init.fanin[ai].parent = deep;
        let report = validate(&init);
        assert!(
            report.issues.iter().any(|i| matches!(
                i,
                Issue::ArcLevelInversion { .. } | Issue::DuplicateArc { .. }
            )),
            "{report}"
        );
        assert!(report.rejects_strict());
    }

    #[test]
    fn out_of_range_references_are_detected() {
        let mut init = clean_init();
        init.endpoints[0].node = u32::MAX;
        init.sources[0].node = u32::MAX;
        init.sp_leaf[1] = 1_000_000;
        let report = validate(&init);
        assert!(report.issues.iter().any(|i| matches!(i, Issue::EndpointNodeOutOfRange { .. })));
        assert!(report.issues.iter().any(|i| matches!(i, Issue::SourceNodeOutOfRange { .. })));
        assert!(report.issues.iter().any(|i| matches!(i, Issue::LeafOutOfRange { .. })));
        assert!(report.rejects_strict());
    }

    #[test]
    fn absurd_graph_arc_id_is_rejected() {
        let mut init = clean_init();
        // Well below u32::MAX but far beyond any sane id for this arc
        // count: would make the engine allocate a multi-gigabyte
        // gradient-aggregation CSR if accepted.
        init.fanin[0].source_arc = 4_000_000_017;
        let report = validate(&init);
        assert!(
            report.issues.iter().any(|i| matches!(i, Issue::ArcSourceOutOfRange { .. })),
            "{report}"
        );
        assert!(report.rejects_strict());
    }

    #[test]
    fn broken_clock_tree_is_rejected() {
        let mut init = clean_init();
        assert!(!init.clock_parent.is_empty());
        // Introduce a parent cycle (depth no longer decreases).
        let last = init.clock_parent.len() - 1;
        init.clock_parent[0] = last as u32;
        let report = validate(&init);
        assert!(report.issues.iter().any(|i| matches!(i, Issue::ClockTreeBroken { .. })), "{report}");
        assert!(report.rejects_strict());
    }

    #[test]
    fn scalar_poison_is_rejected() {
        let mut init = clean_init();
        init.period_ps = f64::NAN;
        init.n_sigma = f64::NEG_INFINITY;
        let report = validate(&init);
        assert!(report.rejects_strict());
        assert!(report.issues.iter().any(|i| matches!(i, Issue::PeriodInvalid { .. })));
        assert!(report.issues.iter().any(|i| matches!(i, Issue::NSigmaInvalid { .. })));
    }

    #[test]
    fn issue_cap_bounds_the_report() {
        let mut init = clean_init();
        for arc in init.fanin.iter_mut() {
            arc.mean[0] = f64::NAN;
        }
        let report = validate(&init);
        assert!(report.issues.len() <= MAX_RECORDED_ISSUES);
        assert!(report.n_fatal >= init.fanin.len());
    }
}
