//! Incremental timing update — the `update_timing` analogue.
//!
//! Resizing a cell changes three inputs of the delay calculation: the
//! cell's own library arcs, the capacitance of its input pins, and so the
//! load seen by the drivers of the nets those pins sit on. Nothing else a
//! node's annotation reads — wire parasitics, other cells' tables and
//! loads — moves. The nodes a resize changes *directly* are therefore the
//! **seeds**: the resized cells' pins and the drivers of the nets those
//! pins load.
//!
//! # The frontier sweep
//!
//! Level-bucketed worklists start from the seeds and are visited in level
//! order. A node is queued for one of two reasons:
//!
//! * **re-annotate** — it is a seed, or a fanin's slew changed bits. Its
//!   fanin arcs and slew are re-annotated by the body the full annotation
//!   runs, and then its maps are re-reduced.
//! * **re-reduce** — a fanin's map changed bits. Its two arrival maps are
//!   recomputed (a startpoint's from its launch, any other node's by the
//!   full propagation's own reduction); delay calculation is skipped.
//!
//! A node passes re-annotate to its fanout if its slew changed bits, and
//! re-reduce if a map entry did; re-annotate includes re-reduce, since a
//! node's arcs feed its own maps. Only the endpoints whose maps changed are
//! re-evaluated; WNS, TNS and the violation count are then re-reduced over
//! every endpoint in endpoint order, as the full update sums them.
//!
//! **Why this equals [`RefSta::full_update`] (induction over levels).**
//! Away from the seeds, a node's arc delays and slew are pure functions of
//! its fanins' slews, and its arrival maps of its arc delays and its
//! fanins' maps. Assume every node below level `l` holds the full update's
//! bits. A level-`l` node that was not re-annotated is no seed and no
//! fanin's slew moved, so its arcs and slew are the full update's; one
//! that was is recomputed by the full update's expressions from final
//! fanin slews. Likewise a node that was not queued at all has final arcs
//! and no fanin map moved, so its maps are the full update's; a queued one
//! is reduced from final arcs and final fanin maps. Hence level `l` is
//! final too. The sweep is bounded by changed *values*, not by the
//! structural fanout cone, and delay calculation by changed slews.
//!
//! **What re-times in full.** A flop or a cell on the clock network moves
//! clock arrivals, launch and required times and CPPR credit, which reach
//! endpoints the data graph does not connect to the change. A changelist
//! that touches one re-times through [`RefSta::full_update`], as does the
//! first update after the configuration or the exceptions were handed out
//! mutably.
//!
//! **What changed.** Each update records the arcs whose delay bits moved,
//! the startpoints whose launch moved and whether it re-timed in full
//! ([`Changes`]): what a mirror of this engine's export must sync.
//!
//! This is the "in-house, highly-optimized CPU STA engine" role in the
//! paper's Figure 7 comparison; the full [`RefSta::full_update`] plays the
//! commercial-tool role.

use crate::delay::ArcDelays;
use crate::sta::{EpInfo, RefSta, SpInfo, StaReport};
use insta_netlist::{CellId, Design, NodeId, TimingGraph};

/// Marks a node that is no startpoint (or no endpoint).
const NONE: u32 = u32::MAX;

/// Why a node is queued, weakest first (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Reason {
    Idle,
    Rereduce,
    Reannotate,
}

/// What the last update of a [`RefSta`] changed ([`RefSta::last_change`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Changes {
    /// The update re-timed in full: anything may have changed, and `arcs`
    /// and `launches` are empty.
    pub full: bool,
    /// Graph arcs whose mean or sigma changed bits, in update order.
    pub arcs: Vec<u32>,
    /// Startpoints whose launch arrival changed bits, in update order.
    pub launches: Vec<u32>,
}

/// Persistent scratch of the incremental update, sized once per graph.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    /// Per level: the nodes queued for the current update.
    buckets: Vec<Vec<NodeId>>,
    /// Per node: why it sits in a bucket, or [`Reason::Idle`].
    why: Vec<Reason>,
    /// Per node: its startpoint index, or [`NONE`].
    sp_of: Vec<u32>,
    /// Per node: its endpoint index, or [`NONE`].
    ep_of: Vec<u32>,
    /// A re-annotated node's fanin arcs before the re-annotation.
    old_arcs: Vec<([u64; 2], [u64; 2])>,
}

impl Frontier {
    pub(crate) fn new(graph: &TimingGraph, sp_infos: &[SpInfo], ep_infos: &[EpInfo]) -> Self {
        let n = graph.num_nodes();
        let mut sp_of = vec![NONE; n];
        for (i, sp) in sp_infos.iter().enumerate() {
            sp_of[sp.node.index()] = i as u32;
        }
        let mut ep_of = vec![NONE; n];
        for (i, ep) in ep_infos.iter().enumerate() {
            ep_of[ep.node.index()] = i as u32;
        }
        Self {
            buckets: vec![Vec::new(); graph.num_levels()],
            why: vec![Reason::Idle; n],
            sp_of,
            ep_of,
            old_arcs: Vec::new(),
        }
    }

    /// Queues `node` in its level's bucket unless it is already there, for
    /// the stronger of `why` and the reason it is queued for.
    fn queue(&mut self, graph: &TimingGraph, node: NodeId, why: Reason) {
        let slot = &mut self.why[node.index()];
        if *slot == Reason::Idle {
            self.buckets[graph.level_of(node) as usize].push(node);
        }
        *slot = (*slot).max(why);
    }
}

impl RefSta {
    /// Incrementally re-times the design after the given cells were
    /// resized. Topology must be unchanged (same pins/nets); only library
    /// cells may differ from the last update.
    ///
    /// Returns the refreshed design report, bit-identical to
    /// [`RefSta::full_update`]: it is a pruning of the same computation,
    /// not an approximation (see the module docs). What it changed is
    /// [`last_change`](RefSta::last_change).
    pub fn incremental_update(&mut self, design: &Design, changed_cells: &[CellId]) -> StaReport {
        // The data graph leaves out exactly the pins whose timing comes
        // from the clock network: flop CK pins and every pin on a clock
        // net. A cell with such a pin re-times in full.
        let touches_clock = changed_cells.iter().any(|&c| {
            design
                .cell(c)
                .pins
                .iter()
                .any(|&p| self.graph.node_of(p).is_none())
        });
        if self.full_pending || touches_clock {
            return self.full_update(design);
        }
        self.changes = Changes::default();
        for &c in changed_cells {
            for &pin in &design.cell(c).pins {
                let p = design.pin(pin);
                let loaded = p
                    .net
                    .filter(|_| !p.is_driver())
                    .map(|net| design.net(net).driver);
                for seed in std::iter::once(pin).chain(loaded) {
                    if let Some(node) = self.graph.node_of(seed) {
                        self.frontier.queue(&self.graph, node, Reason::Reannotate);
                    }
                }
            }
        }
        for level in 0..self.frontier.buckets.len() {
            let mut bucket = std::mem::take(&mut self.frontier.buckets[level]);
            for &node in &bucket {
                // Nothing below this level is left to queue it again.
                let why = std::mem::replace(&mut self.frontier.why[node.index()], Reason::Idle);
                let slew_changed = why == Reason::Reannotate && self.reannotate_node(design, node);
                let sp = self.frontier.sp_of[node.index()];
                let maps_changed = if sp != NONE {
                    let moved = self.init_source(design, sp as usize);
                    if moved {
                        self.changes.launches.push(sp);
                    }
                    moved
                } else {
                    self.propagate_node(node)
                };
                let ep = self.frontier.ep_of[node.index()];
                if maps_changed && ep != NONE {
                    self.report.endpoints[ep as usize] = self.evaluate_endpoint(ep as usize);
                }
                let pass = if slew_changed {
                    Reason::Reannotate
                } else if maps_changed {
                    Reason::Rereduce
                } else {
                    continue;
                };
                for &ai in self.graph.fanout(node) {
                    self.frontier
                        .queue(&self.graph, self.graph.arc(ai).to, pass);
                }
            }
            bucket.clear();
            self.frontier.buckets[level] = bucket;
        }
        self.summarize_endpoints();
        self.report.clone()
    }

    /// What the last update changed.
    pub fn last_change(&self) -> &Changes {
        &self.changes
    }

    /// Re-annotates one node's fanin arcs and slew, recording the arcs
    /// whose delay changed bits; returns whether the slew changed bits.
    fn reannotate_node(&mut self, design: &Design, node: NodeId) -> bool {
        let old_slew = self.delays.node_slew[node.index()];
        let fanin = self.graph.fanin(node);
        let bits = |d: &ArcDelays, a: u32| {
            let a = a as usize;
            (d.mean[a].map(f64::to_bits), d.sigma[a].map(f64::to_bits))
        };
        let before = &mut self.frontier.old_arcs;
        before.clear();
        before.extend(fanin.iter().map(|&a| bits(&self.delays, a)));
        self.config
            .delay_calc
            .annotate_node(design, &self.graph, node, &mut self.delays);
        let arcs = fanin.iter().zip(&self.frontier.old_arcs);
        let moved = arcs.filter(|&(&a, old)| bits(&self.delays, a) != *old);
        self.changes.arcs.extend(moved.map(|(&a, _)| a));
        let new_slew = self.delays.node_slew[node.index()];
        old_slew
            .iter()
            .zip(&new_slew)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use crate::sta::{RefSta, StaConfig};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_netlist::CellId;

    /// Resizes a few mid-design gates and checks the incremental result
    /// against a from-scratch full update.
    #[test]
    fn incremental_matches_full_update() {
        let mut design = generate_design(&GeneratorConfig::small("inc", 21));
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        sta.full_update(&design);

        // Pick three combinational cells and upsize them.
        let lib = design.library_arc();
        let mut changed = Vec::new();
        for i in 0..design.cells().len() {
            let c = CellId(i as u32);
            let lc = design.lib_cell_of(c);
            if lc.is_sequential() || lc.class == insta_liberty::GateClass::ClkBuf {
                continue;
            }
            if changed.len() >= 3 {
                break;
            }
            let fam = lib.family(lc.class);
            let bigger = fam
                .iter()
                .copied()
                .find(|&id| lib.cell(id).drive > lc.drive);
            if let Some(b) = bigger {
                design.resize_cell(c, b);
                changed.push(c);
            }
        }
        assert_eq!(changed.len(), 3, "expected three resizable cells");

        let inc_report = sta.incremental_update(&design, &changed);

        let mut fresh = RefSta::new(&design, StaConfig::default()).expect("build");
        let full_report = fresh.full_update(&design);

        assert_eq!(inc_report.wns_ps.to_bits(), full_report.wns_ps.to_bits());
        assert_eq!(inc_report.tns_ps.to_bits(), full_report.tns_ps.to_bits());
        assert_eq!(inc_report.n_violations, full_report.n_violations);
        for (a, b) in inc_report.endpoints.iter().zip(&full_report.endpoints) {
            assert_eq!(
                a.slack_ps.to_bits(),
                b.slack_ps.to_bits(),
                "endpoint slack mismatch at {:?}: {} vs {}",
                a.ep,
                a.slack_ps,
                b.slack_ps
            );
        }
    }

    #[test]
    fn empty_changelist_is_a_noop() {
        let design = generate_design(&GeneratorConfig::small("inc2", 4));
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = sta.full_update(&design);
        let after = sta.incremental_update(&design, &[]);
        assert_eq!(before.wns_ps, after.wns_ps);
        assert_eq!(before.tns_ps, after.tns_ps);
    }
}
