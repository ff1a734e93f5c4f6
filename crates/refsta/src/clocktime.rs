//! Clock-network timing: arrivals along the clock tree and CPPR credit.
//!
//! Launch paths use *late*-derated clock delays and capture paths use
//! *early*-derated ones (flat OCV derates). The pessimism this injects on
//! the portion of the tree shared by launch and capture is exactly what
//! CPPR removes: the credit for a (startpoint, endpoint) pair is the
//! late-minus-early difference accumulated up to the lowest common ancestor
//! of their clock leaves.

use crate::delay::{DelayCalc, DEFAULT_SLEW_PS};
use insta_liberty::{ArcKind, Transition};
use insta_netlist::{CellId, ClockTree, Design, PinId};
use std::collections::HashMap;

/// A malformed clock network: the design or extracted tree violates the
/// clock model's structural assumptions. These are input-reachable
/// conditions (a hand-built or corrupted design can trigger every one),
/// so they are reported as values rather than panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockModelError {
    /// A non-root tree node has no cell (clock buffers must be cells).
    MissingCell {
        /// Tree node index.
        node: usize,
    },
    /// A clock buffer has no input pin.
    MissingInputPin {
        /// Tree node index.
        node: usize,
    },
    /// A clock buffer's library cell has no combinational arc to look
    /// delays up from.
    MissingCombinationalArc {
        /// Tree node index.
        node: usize,
    },
    /// A CK pin is not mapped to any tree leaf.
    UnmappedCkPin {
        /// The CK pin.
        pin: PinId,
    },
    /// A CK pin belongs to no cell.
    FloatingCkPin {
        /// The CK pin.
        pin: PinId,
    },
}

impl std::fmt::Display for ClockModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClockModelError::MissingCell { node } => {
                write!(f, "clock tree node {node}: non-root node has no cell")
            }
            ClockModelError::MissingInputPin { node } => {
                write!(f, "clock tree node {node}: buffer has no input pin")
            }
            ClockModelError::MissingCombinationalArc { node } => {
                write!(f, "clock tree node {node}: buffer has no combinational arc")
            }
            ClockModelError::UnmappedCkPin { pin } => {
                write!(f, "CK pin {pin:?} is not mapped to a clock-tree leaf")
            }
            ClockModelError::FloatingCkPin { pin } => {
                write!(f, "CK pin {pin:?} belongs to no cell")
            }
        }
    }
}

impl std::error::Error for ClockModelError {}

/// Per-flop clock arrival data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlopClock {
    /// The flop's CK pin.
    pub ck_pin: PinId,
    /// Mean (underated) clock arrival at CK (ps).
    pub mean: f64,
    /// POCV sigma of the clock arrival (ps).
    pub sigma: f64,
    /// Clock slew at CK (ps), used for launch-arc lookups.
    pub slew: f64,
    /// The clock-tree leaf node driving this CK pin.
    pub leaf: u32,
}

/// Clock arrivals over the extracted tree plus per-flop CK data.
#[derive(Debug, Clone, Default)]
pub struct ClockTiming {
    /// Mean arrival at each tree node's driving pin (ps).
    pub node_mean: Vec<f64>,
    /// Sigma of the arrival at each tree node (ps).
    pub node_sigma: Vec<f64>,
    /// Per-flop CK arrival data.
    by_flop: HashMap<CellId, FlopClock>,
    /// Early OCV derate applied to capture clock paths.
    pub(crate) derate_early: f64,
    /// Late OCV derate applied to launch clock paths.
    pub(crate) derate_late: f64,
}

impl ClockTiming {
    /// Computes clock arrivals over `tree` with the given flat OCV derates.
    ///
    /// The walk mirrors the reference delay calculator: Elmore wire delays
    /// between stages, NLDM buffer delays with propagated slew. Clock
    /// transitions are modelled on the rising edge (the synthetic clock
    /// network is buffer-only).
    ///
    /// # Errors
    ///
    /// Returns [`ClockModelError`] when the design or tree violates the
    /// clock model's structure: a bufferless tree node, a buffer without
    /// an input pin or combinational arc, or a CK pin with no leaf/cell.
    pub fn compute(
        design: &Design,
        tree: &ClockTree,
        calc: &DelayCalc,
        derate_early: f64,
        derate_late: f64,
    ) -> Result<Self, ClockModelError> {
        let n = tree.nodes().len();
        let mut timing = Self {
            node_mean: vec![0.0; n],
            node_sigma: vec![0.0; n],
            by_flop: HashMap::new(),
            derate_early,
            derate_late,
        };
        let mut node_slew = vec![DEFAULT_SLEW_PS; n];

        for (i, node) in tree.nodes().iter().enumerate() {
            let Some(parent) = node.parent else { continue };
            let p = parent as usize;
            // Parent-before-child ordering is a construction invariant of
            // ClockTree, not an input property — assert it in debug only.
            debug_assert!(p < i, "clock tree must store parents before children");
            let cell = node.cell.ok_or(ClockModelError::MissingCell { node: i })?;
            let lc = design.lib_cell_of(cell);
            // Input pin of the buffer and the wire feeding it.
            let in_pin = design
                .cell(cell)
                .pins
                .iter()
                .copied()
                .find(|&pp| !design.pin(pp).is_driver())
                .ok_or(ClockModelError::MissingInputPin { node: i })?;
            let (wire_delay, wire_sigma, in_slew) = wire_step(
                design,
                tree.nodes()[p].pin,
                in_pin,
                node_slew[p],
                calc,
            );
            // Buffer delay at its output load, rising edge.
            let load = design.driver_load_ff(node.pin);
            let arc = lc
                .arcs()
                .iter()
                .find(|a| a.kind == ArcKind::Combinational)
                .ok_or(ClockModelError::MissingCombinationalArc { node: i })?;
            let d = arc.delay(Transition::Rise).lookup(in_slew, load);
            let s = arc.sigma_coeff * d;
            timing.node_mean[i] = timing.node_mean[p] + wire_delay + d;
            timing.node_sigma[i] = rss(timing.node_sigma[p], rss(wire_sigma, s));
            node_slew[i] = arc.trans(Transition::Rise).lookup(in_slew, load);
        }

        // Per-flop CK arrivals: leaf node arrival + leaf→CK wire.
        for ck in tree.ck_pins() {
            let leaf = tree
                .leaf_of_ck_pin(ck)
                .ok_or(ClockModelError::UnmappedCkPin { pin: ck })?;
            let (wire_delay, wire_sigma, ck_slew) = wire_step(
                design,
                tree.nodes()[leaf as usize].pin,
                ck,
                node_slew[leaf as usize],
                calc,
            );
            let cell = design
                .pin(ck)
                .cell
                .ok_or(ClockModelError::FloatingCkPin { pin: ck })?;
            timing.by_flop.insert(
                cell,
                FlopClock {
                    ck_pin: ck,
                    mean: timing.node_mean[leaf as usize] + wire_delay,
                    sigma: rss(timing.node_sigma[leaf as usize], wire_sigma),
                    slew: ck_slew,
                    leaf,
                },
            );
        }
        Ok(timing)
    }

    /// Clock data of a flop, if it is clocked.
    pub fn flop(&self, cell: CellId) -> Option<&FlopClock> {
        self.by_flop.get(&cell)
    }

    /// Number of clocked flops.
    pub fn num_flops(&self) -> usize {
        self.by_flop.len()
    }

    /// Late (launch) clock arrival at a flop's CK pin.
    pub fn launch_late(&self, cell: CellId) -> Option<f64> {
        self.flop(cell).map(|f| f.mean * self.derate_late)
    }

    /// Early (capture) clock arrival at a flop's CK pin.
    pub fn capture_early(&self, cell: CellId) -> Option<f64> {
        self.flop(cell).map(|f| f.mean * self.derate_early)
    }

    /// CPPR credit between two clock leaves: the late-minus-early pessimism
    /// accumulated on their common tree prefix.
    pub fn cppr_credit(&self, tree: &ClockTree, leaf_a: u32, leaf_b: u32) -> f64 {
        let lca = tree.lca(leaf_a, leaf_b);
        self.node_mean[lca as usize] * (self.derate_late - self.derate_early)
    }
}

#[inline]
fn rss(a: f64, b: f64) -> f64 {
    (a * a + b * b).sqrt()
}

/// Delay, sigma, and output slew of the wire step from `driver` to `sink`.
fn wire_step(
    design: &Design,
    driver: PinId,
    sink: PinId,
    in_slew: f64,
    calc: &DelayCalc,
) -> (f64, f64, f64) {
    let Some(net_id) = design.pin(driver).net else {
        return (0.0, 0.0, in_slew);
    };
    let net = design.net(net_id);
    let Some(pos) = net.sinks.iter().position(|&s| s == sink) else {
        return (0.0, 0.0, in_slew);
    };
    let wire = net.sink_wires[pos];
    let elmore = wire.res_kohm * (wire.cap_ff / 2.0 + design.pin_cap_ff(sink));
    let out_slew = (in_slew * in_slew + (2.197 * elmore) * (2.197 * elmore)).sqrt();
    (elmore, calc.net_sigma_coeff * elmore, out_slew)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_netlist::TimingGraph;

    fn timing_for(seed: u64) -> (insta_netlist::Design, TimingGraph, ClockTiming) {
        let d = generate_design(&GeneratorConfig::small("ct", seed));
        let g = TimingGraph::build(&d).expect("build");
        let ct = ClockTiming::compute(&d, g.clock_tree(), &DelayCalc::default(), 0.95, 1.05).expect("clock model");
        (d, g, ct)
    }

    #[test]
    fn every_flop_gets_a_clock_arrival() {
        let (d, _g, ct) = timing_for(3);
        assert_eq!(ct.num_flops(), d.flops().count());
        for f in d.flops() {
            let fc = ct.flop(f).expect("clocked flop");
            assert!(fc.mean > 0.0, "clock arrival must be positive");
            assert!(fc.sigma >= 0.0);
            assert!(fc.slew > 0.0);
        }
    }

    #[test]
    fn arrivals_increase_with_depth() {
        let d = generate_design(&GeneratorConfig::small("ct", 5));
        let g = TimingGraph::build(&d).expect("build");
        let tree = g.clock_tree();
        let ct = ClockTiming::compute(&d, tree, &DelayCalc::default(), 0.95, 1.05).expect("clock model");
        for (i, node) in tree.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                assert!(
                    ct.node_mean[i] > ct.node_mean[p as usize],
                    "child arrival must exceed parent"
                );
            }
        }
    }

    #[test]
    fn late_exceeds_early_exceeds_zero() {
        let (d, _g, ct) = timing_for(7);
        for f in d.flops() {
            let late = ct.launch_late(f).unwrap();
            let early = ct.capture_early(f).unwrap();
            assert!(late > early);
            assert!(early > 0.0);
        }
    }

    #[test]
    fn cppr_credit_is_positive_and_bounded_by_leaf_arrival() {
        let d = generate_design(&GeneratorConfig::small("ct", 9));
        let g = TimingGraph::build(&d).expect("build");
        let tree = g.clock_tree();
        let ct = ClockTiming::compute(&d, tree, &DelayCalc::default(), 0.95, 1.05).expect("clock model");
        let flops: Vec<CellId> = d.flops().collect();
        let la = ct.flop(flops[0]).unwrap().leaf;
        let lb = ct.flop(flops[flops.len() - 1]).unwrap().leaf;
        let credit = ct.cppr_credit(tree, la, lb);
        assert!(credit >= 0.0);
        // Credit for a leaf against itself covers the whole shared path and
        // therefore must be at least the cross credit.
        let self_credit = ct.cppr_credit(tree, la, la);
        assert!(self_credit >= credit);
    }

    #[test]
    fn clock_model_errors_name_the_offending_element() {
        let text = ClockModelError::MissingCell { node: 7 }.to_string();
        assert!(text.contains("node 7"), "{text}");
        let text = ClockModelError::MissingCombinationalArc { node: 2 }.to_string();
        assert!(text.contains("combinational"), "{text}");
        // The type participates in error chains.
        let boxed: Box<dyn std::error::Error> =
            Box::new(ClockModelError::MissingInputPin { node: 0 });
        assert!(boxed.to_string().contains("input pin"));
    }

    #[test]
    fn zero_derate_spread_means_zero_credit() {
        let d = generate_design(&GeneratorConfig::small("ct", 11));
        let g = TimingGraph::build(&d).expect("build");
        let tree = g.clock_tree();
        let ct = ClockTiming::compute(&d, tree, &DelayCalc::default(), 1.0, 1.0).expect("clock model");
        let flops: Vec<CellId> = d.flops().collect();
        let la = ct.flop(flops[0]).unwrap().leaf;
        assert_eq!(ct.cppr_credit(tree, la, la), 0.0);
    }
}
