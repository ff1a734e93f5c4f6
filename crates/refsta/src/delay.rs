//! Arc delay calculation and annotation.
//!
//! [`DelayCalc::annotate`] performs the reference engine's delay-calculation
//! stage: a single topological pass that propagates worst slews and
//! annotates every timing arc with a statistical delay (mean, POCV sigma)
//! per destination transition. The resulting [`ArcDelays`] is exactly the
//! data INSTA clones at initialization — the paper's separation of "delay
//! calculation" from "timing propagation" happens at this boundary.
//!
//! Interconnect uses the Elmore model per sink branch
//! (`d = R * (C_wire / 2 + C_sink)`) with PERI-style slew degradation
//! (`s_out² = s_in² + (ln 9 · d)²`), and cells use NLDM table lookups with
//! the worst fanin slew, which is standard graph-based analysis.

use insta_liberty::{TimingSense, Transition};
use insta_netlist::{Design, NodeId, TimingArcKind, TimingGraph};

/// POCV sigma applied to interconnect delays, as a fraction of the mean.
pub const NET_SIGMA_COEFF: f64 = 0.02;

/// Slew-degradation factor of the Elmore step response (ln 9 ≈ 2.197, the
/// 10–90 % rise of a single-pole RC).
const SLEW_DEGRADE: f64 = 2.197;

/// Statistical delay annotation of every timing arc, plus the slews the
/// annotation was computed with.
///
/// Indexing: `mean[arc][tr.index()]` where `tr` is the transition at the
/// arc's *destination* node.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcDelays {
    /// Mean delay per arc per destination transition (ps).
    pub mean: Vec<[f64; 2]>,
    /// POCV sigma per arc per destination transition (ps).
    pub sigma: Vec<[f64; 2]>,
    /// Timing sense per arc (net arcs are positive-unate).
    pub sense: Vec<TimingSense>,
    /// Worst slew per node per transition (ps).
    pub node_slew: Vec<[f64; 2]>,
}

impl ArcDelays {
    /// The mean delay of `arc` toward destination transition `tr`.
    #[inline]
    pub fn arc_mean(&self, arc: u32, tr: Transition) -> f64 {
        self.mean[arc as usize][tr.index()]
    }

    /// The sigma of `arc` toward destination transition `tr`.
    #[inline]
    pub fn arc_sigma(&self, arc: u32, tr: Transition) -> f64 {
        self.sigma[arc as usize][tr.index()]
    }
}

/// Slew assumed at primary inputs and other unconstrained sources (ps).
pub(crate) const DEFAULT_SLEW_PS: f64 = 10.0;

/// The delay calculator: configuration for the annotation pass.
#[derive(Debug, Clone)]
pub struct DelayCalc {
    /// POCV sigma coefficient for interconnect arcs.
    pub net_sigma_coeff: f64,
}

impl Default for DelayCalc {
    fn default() -> Self {
        Self {
            net_sigma_coeff: NET_SIGMA_COEFF,
        }
    }
}

impl DelayCalc {
    /// Annotates every arc of `graph` with statistical delays, propagating
    /// worst slews level by level.
    pub fn annotate(&self, design: &Design, graph: &TimingGraph) -> ArcDelays {
        let n_nodes = graph.num_nodes();
        let n_arcs = graph.num_arcs();
        let mut out = ArcDelays {
            mean: vec![[0.0; 2]; n_arcs],
            sigma: vec![[0.0; 2]; n_arcs],
            sense: vec![TimingSense::PositiveUnate; n_arcs],
            node_slew: vec![[DEFAULT_SLEW_PS; 2]; n_nodes],
        };
        for &node in graph.topo_order() {
            self.annotate_node(design, graph, node, &mut out);
        }
        out
    }

    /// Computes incoming-arc delays and the worst slew of one node, given
    /// that every fanin node has already been processed.
    ///
    /// Every cell arc into a node drives the same net, so the node's driver
    /// load is summed once, at its first cell arc, and shared by the rest;
    /// a node with only net arcs never sums it.
    pub(crate) fn annotate_node(
        &self,
        design: &Design,
        graph: &TimingGraph,
        node: NodeId,
        out: &mut ArcDelays,
    ) {
        let fanin = graph.fanin(node);
        if fanin.is_empty() {
            // Source: default slew unless it is a flop Q pin, whose slew is
            // set by the launch arc (handled by `launch_slew`).
            out.node_slew[node.index()] = self.source_slew(design, graph, node);
            return;
        }
        let mut worst = [0.0_f64; 2];
        let mut load = None;
        for &ai in fanin {
            let arc = graph.arc(ai);
            match arc.kind {
                TimingArcKind::Net { net, sink_pos } => {
                    let net_ref = design.net(net);
                    let wire = net_ref.sink_wires[sink_pos as usize];
                    let sink_cap = design.pin_cap_ff(net_ref.sinks[sink_pos as usize]);
                    let elmore = wire.res_kohm * (wire.cap_ff / 2.0 + sink_cap);
                    out.sense[ai as usize] = TimingSense::PositiveUnate;
                    for tr in Transition::BOTH {
                        let ti = tr.index();
                        out.mean[ai as usize][ti] = elmore;
                        out.sigma[ai as usize][ti] = self.net_sigma_coeff * elmore;
                        let s_in = out.node_slew[arc.from.index()][ti];
                        let s_out = (s_in * s_in
                            + (SLEW_DEGRADE * elmore) * (SLEW_DEGRADE * elmore))
                            .sqrt();
                        worst[ti] = worst[ti].max(s_out);
                    }
                }
                TimingArcKind::Cell { cell, lib_arc } => {
                    let lc = design.lib_cell_of(cell);
                    let la = &lc.arcs()[lib_arc as usize];
                    let load =
                        *load.get_or_insert_with(|| design.driver_load_ff(graph.pin_of(node)));
                    out.sense[ai as usize] = la.sense;
                    for tr in Transition::BOTH {
                        let ti = tr.index();
                        // Worst fanin slew over the input transitions that
                        // can cause this output transition.
                        let s_in = la
                            .input_transitions_for(tr)
                            .iter()
                            .map(|itr| out.node_slew[arc.from.index()][itr.index()])
                            .fold(0.0_f64, f64::max);
                        let d = la.delay(tr).lookup(s_in, load);
                        out.mean[ai as usize][ti] = d;
                        out.sigma[ai as usize][ti] = la.sigma_coeff * d;
                        worst[ti] = worst[ti].max(la.trans(tr).lookup(s_in, load));
                    }
                }
            }
        }
        out.node_slew[node.index()] = worst;
    }

    /// Slew at a source node: flop Q pins take the launch arc's output
    /// transition at the flop's load; everything else takes the default.
    fn source_slew(&self, design: &Design, graph: &TimingGraph, node: NodeId) -> [f64; 2] {
        let pin = graph.pin_of(node);
        let p = design.pin(pin);
        if let (Some(cell), Some(_)) = (p.cell, p.lib_pin) {
            let lc = design.lib_cell_of(cell);
            if lc.is_sequential() {
                let load = design.driver_load_ff(pin);
                if let Some(launch) = lc
                    .arcs()
                    .iter()
                    .find(|a| a.kind == insta_liberty::ArcKind::Launch)
                {
                    return [
                        launch.trans(Transition::Rise).lookup(DEFAULT_SLEW_PS, load),
                        launch.trans(Transition::Fall).lookup(DEFAULT_SLEW_PS, load),
                    ];
                }
            }
        }
        [DEFAULT_SLEW_PS; 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_liberty::{synth_library, SynthLibraryConfig};
    use insta_netlist::design::WireRc;
    use insta_netlist::Design;
    use std::sync::Arc;

    /// in -> INV_X1 -> INV_X4 -> out with explicit wires.
    fn chain() -> (Design, TimingGraph) {
        let lib = Arc::new(synth_library(&SynthLibraryConfig::default()));
        let inv1 = lib.cell_id("INV_X1").expect("INV_X1");
        let inv4 = lib.cell_id("INV_X4").expect("INV_X4");
        let mut d = Design::new("chain", lib);
        let pi = d.add_input_port("in");
        let po = d.add_output_port("out");
        let u1 = d.add_cell("u1", inv1);
        let u2 = d.add_cell("u2", inv4);
        let w = WireRc {
            res_kohm: 0.5,
            cap_ff: 4.0,
        };
        d.connect_with_wires("n0", pi, vec![d.cell_pin(u1, "A")], vec![w]);
        d.connect_with_wires("n1", d.cell_pin(u1, "Y"), vec![d.cell_pin(u2, "A")], vec![w]);
        d.connect_with_wires("n2", d.cell_pin(u2, "Y"), vec![po], vec![w]);
        let g = TimingGraph::build(&d).expect("build");
        (d, g)
    }

    #[test]
    fn elmore_delay_matches_closed_form() {
        let (d, g) = chain();
        let delays = DelayCalc::default().annotate(&d, &g);
        // Net n1 sink cap is INV_X4's input cap = 0.8 * 4.
        let elmore = 0.5 * (4.0 / 2.0 + 3.2);
        let arc = g
            .arcs()
            .iter()
            .position(|a| {
                matches!(a.kind, TimingArcKind::Net { net, .. } if d.net(net).name == "n1")
            })
            .expect("net arc");
        assert!((delays.mean[arc][0] - elmore).abs() < 1e-12);
        assert!((delays.sigma[arc][0] - NET_SIGMA_COEFF * elmore).abs() < 1e-12);
    }

    #[test]
    fn cell_delay_uses_nldm_lookup_with_propagated_slew() {
        let (d, g) = chain();
        let dc = DelayCalc::default();
        let delays = dc.annotate(&d, &g);
        // The u1 cell arc delay must be positive and larger for the rise
        // edge (synth tables scale rise by 1.05).
        let arc = g
            .arcs()
            .iter()
            .position(|a| matches!(a.kind, TimingArcKind::Cell { cell, .. } if d.cell(cell).name == "u1"))
            .expect("cell arc");
        assert!(delays.mean[arc][0] > 0.0);
        assert!(delays.mean[arc][0] > delays.mean[arc][1]);
        assert_eq!(delays.sense[arc], TimingSense::NegativeUnate);
    }

    #[test]
    fn slew_degrades_along_wires_and_recovers_at_strong_cells() {
        let (d, g) = chain();
        let dc = DelayCalc::default();
        let delays = dc.annotate(&d, &g);
        // Slew at u1/A must exceed the default (wire degradation).
        let u1_a = g.node_of(d.cell_pin(insta_netlist::CellId(0), "A")).unwrap();
        assert!(delays.node_slew[u1_a.index()][0] > DEFAULT_SLEW_PS);
    }

    #[test]
    fn sigma_scales_with_mean() {
        let (d, g) = chain();
        let delays = DelayCalc::default().annotate(&d, &g);
        for (m, s) in delays.mean.iter().zip(&delays.sigma) {
            for ti in 0..2 {
                assert!(s[ti] <= 0.1 * m[ti] + 1e-9, "sigma out of range");
                assert!(s[ti] >= 0.0);
            }
        }
    }
}
