//! The levelized data-path timing graph.
//!
//! Nodes are data pins (clock-network pins are excluded — the clock is
//! handled through startpoint/endpoint attributes, as in the paper's
//! initialization). Edges are *timing arcs*: net arcs (driver → sink) and
//! combinational cell arcs (input → output). [`TimingGraph::build`]
//! levelizes the graph with Kahn's algorithm, which is the parallelization
//! structure both the reference engine and the INSTA kernels iterate over.

use crate::clock::ClockTree;
use crate::design::{CellId, Design, NetId, PinId, PinRole};
use insta_liberty::{ArcKind, PinDirection};

/// Identifier of a node (a data pin) in a [`TimingGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of timing arc an edge is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingArcKind {
    /// Interconnect arc: net driver → one sink.
    Net {
        /// The net.
        net: NetId,
        /// Index of the sink within the net's sink list.
        sink_pos: u32,
    },
    /// Combinational cell arc: input pin → output pin.
    Cell {
        /// The cell instance.
        cell: CellId,
        /// Index of the arc within the library cell's arc list.
        lib_arc: u32,
    },
}

/// A timing-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingArc {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Arc kind.
    pub kind: TimingArcKind,
}

/// Error returned by [`TimingGraph::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildGraphError {
    /// The data graph contains a combinational loop; levelization is
    /// impossible. Carries the number of nodes left unlevelized.
    CombinationalLoop {
        /// Number of nodes trapped in cycles.
        unlevelized: usize,
    },
}

impl std::fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildGraphError::CombinationalLoop { unlevelized } => {
                write!(f, "combinational loop: {unlevelized} nodes could not be levelized")
            }
        }
    }
}

impl std::error::Error for BuildGraphError {}

const INVALID: u32 = u32::MAX;

/// The levelized data-path timing graph of a design.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// node → pin.
    node_pins: Vec<PinId>,
    /// pin → node (INVALID for non-data pins).
    pin_nodes: Vec<u32>,
    arcs: Vec<TimingArc>,
    /// CSR of incoming arc indices per node.
    fanin_start: Vec<u32>,
    fanin_arcs: Vec<u32>,
    /// CSR of outgoing arc indices per node.
    fanout_start: Vec<u32>,
    fanout_arcs: Vec<u32>,
    /// node → level.
    level_of: Vec<u32>,
    /// CSR over `order`: nodes of level `l` are
    /// `order[level_start[l]..level_start[l+1]]`.
    level_start: Vec<u32>,
    order: Vec<NodeId>,
    /// Source nodes (flop Q pins and primary inputs).
    sources: Vec<NodeId>,
    /// Endpoint nodes (flop D pins and primary outputs).
    endpoints: Vec<NodeId>,
    /// The clock tree extracted during the build.
    clock_tree: ClockTree,
}

impl TimingGraph {
    /// Builds and levelizes the data-path timing graph of `design`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError::CombinationalLoop`] if the combinational
    /// portion of the design is cyclic.
    pub fn build(design: &Design) -> Result<Self, BuildGraphError> {
        let clock_tree = ClockTree::extract(design);
        let mut is_clock_pin = vec![false; design.pins().len()];
        for &p in clock_tree.clock_pins() {
            is_clock_pin[p.index()] = true;
        }

        // ---- Node selection -------------------------------------------
        let mut pin_nodes = vec![INVALID; design.pins().len()];
        let mut node_pins = Vec::new();
        let push_node = |pin: PinId, pin_nodes: &mut Vec<u32>, node_pins: &mut Vec<PinId>| {
            let id = node_pins.len() as u32;
            pin_nodes[pin.index()] = id;
            node_pins.push(pin);
        };
        for (i, pin) in design.pins().iter().enumerate() {
            let pid = PinId(i as u32);
            match pin.role {
                PinRole::ClockSource => {}
                PinRole::PrimaryInput | PinRole::PrimaryOutput => {
                    push_node(pid, &mut pin_nodes, &mut node_pins);
                }
                PinRole::CellPin => {
                    if is_clock_pin[i] {
                        continue;
                    }
                    let cell = pin.cell.expect("cell pin has owner");
                    let lc = design.lib_cell_of(cell);
                    if lc.is_sequential() {
                        // D and Q participate; CK was excluded above.
                        let is_ck = pin
                            .lib_pin
                            .map(|lp| lc.pin(lp).is_clock)
                            .unwrap_or(false);
                        if !is_ck {
                            push_node(pid, &mut pin_nodes, &mut node_pins);
                        }
                    } else {
                        push_node(pid, &mut pin_nodes, &mut node_pins);
                    }
                }
            }
        }
        let n = node_pins.len();

        // ---- Arc construction ------------------------------------------
        let mut arcs = Vec::new();
        // Net arcs.
        for (ni, net) in design.nets().iter().enumerate() {
            let from = pin_nodes[net.driver.index()];
            if from == INVALID {
                continue;
            }
            for (si, &sink) in net.sinks.iter().enumerate() {
                let to = pin_nodes[sink.index()];
                if to == INVALID {
                    continue;
                }
                arcs.push(TimingArc {
                    from: NodeId(from),
                    to: NodeId(to),
                    kind: TimingArcKind::Net {
                        net: NetId(ni as u32),
                        sink_pos: si as u32,
                    },
                });
            }
        }
        // Combinational cell arcs.
        for (ci, cell) in design.cells().iter().enumerate() {
            let lc = design.library().cell(cell.lib_cell);
            if lc.is_sequential() {
                continue;
            }
            for (ai, arc) in lc.arcs().iter().enumerate() {
                if arc.kind != ArcKind::Combinational {
                    continue;
                }
                let from = pin_nodes[cell.pins[arc.from.index()].index()];
                let to = pin_nodes[cell.pins[arc.to.index()].index()];
                if from == INVALID || to == INVALID {
                    continue;
                }
                arcs.push(TimingArc {
                    from: NodeId(from),
                    to: NodeId(to),
                    kind: TimingArcKind::Cell {
                        cell: CellId(ci as u32),
                        lib_arc: ai as u32,
                    },
                });
            }
        }

        // ---- CSR adjacency ----------------------------------------------
        let (fanin_start, fanin_arcs) = csr(n, arcs.iter().map(|a| a.to.index()));
        let (fanout_start, fanout_arcs) = csr(n, arcs.iter().map(|a| a.from.index()));

        // ---- Kahn levelization ------------------------------------------
        let mut indeg: Vec<u32> = (0..n)
            .map(|v| fanin_start[v + 1] - fanin_start[v])
            .collect();
        let mut level_of = vec![0u32; n];
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut level_start = vec![0u32];
        let mut level = 0u32;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                level_of[v as usize] = level;
                order.push(NodeId(v));
                for &ai in fanout_slice(&fanout_start, &fanout_arcs, v as usize) {
                    let w = arcs[ai as usize].to.index();
                    indeg[w] -= 1;
                    if indeg[w] == 0 {
                        next.push(w as u32);
                    }
                }
            }
            level_start.push(order.len() as u32);
            frontier = next;
            level += 1;
        }
        if order.len() != n {
            return Err(BuildGraphError::CombinationalLoop {
                unlevelized: n - order.len(),
            });
        }

        // ---- Sources and endpoints --------------------------------------
        let mut sources = Vec::new();
        let mut endpoints = Vec::new();
        for (v, &pin) in node_pins.iter().enumerate() {
            let p = design.pin(pin);
            let is_seq_cell = p
                .cell
                .map(|c| design.lib_cell_of(c).is_sequential())
                .unwrap_or(false);
            match p.role {
                PinRole::PrimaryInput => sources.push(NodeId(v as u32)),
                PinRole::PrimaryOutput => endpoints.push(NodeId(v as u32)),
                PinRole::CellPin if is_seq_cell => {
                    if p.direction == PinDirection::Output {
                        sources.push(NodeId(v as u32));
                    } else {
                        endpoints.push(NodeId(v as u32));
                    }
                }
                _ => {}
            }
        }

        Ok(Self {
            node_pins,
            pin_nodes,
            arcs,
            fanin_start,
            fanin_arcs,
            fanout_start,
            fanout_arcs,
            level_of,
            level_start,
            order,
            sources,
            endpoints,
            clock_tree,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_pins.len()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.level_start.len() - 1
    }

    /// The pin a node represents.
    #[inline]
    pub fn pin_of(&self, node: NodeId) -> PinId {
        self.node_pins[node.index()]
    }

    /// The node representing a pin, if the pin is part of the data graph.
    #[inline]
    pub fn node_of(&self, pin: PinId) -> Option<NodeId> {
        match self.pin_nodes[pin.index()] {
            INVALID => None,
            v => Some(NodeId(v)),
        }
    }

    /// All arcs.
    pub fn arcs(&self) -> &[TimingArc] {
        &self.arcs
    }

    /// Arc by index.
    pub fn arc(&self, idx: u32) -> &TimingArc {
        &self.arcs[idx as usize]
    }

    /// Indices of arcs into `node`.
    pub fn fanin(&self, node: NodeId) -> &[u32] {
        fanout_slice(&self.fanin_start, &self.fanin_arcs, node.index())
    }

    /// Indices of arcs out of `node`.
    pub fn fanout(&self, node: NodeId) -> &[u32] {
        fanout_slice(&self.fanout_start, &self.fanout_arcs, node.index())
    }

    /// The level of a node.
    #[inline]
    pub fn level_of(&self, node: NodeId) -> u32 {
        self.level_of[node.index()]
    }

    /// Nodes of one level, in deterministic order.
    pub fn level(&self, level: usize) -> &[NodeId] {
        let a = self.level_start[level] as usize;
        let b = self.level_start[level + 1] as usize;
        &self.order[a..b]
    }

    /// Nodes in level-major order.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Source nodes (flop Q pins and primary inputs).
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Endpoint nodes (flop D pins and primary outputs).
    pub fn endpoints(&self) -> &[NodeId] {
        &self.endpoints
    }

    /// The clock tree extracted while building.
    pub fn clock_tree(&self) -> &ClockTree {
        &self.clock_tree
    }
}

/// Builds a CSR from `n` buckets and an iterator of bucket assignments
/// (item i goes to bucket `keys[i]`). Returns `(start, items)`.
fn csr(n: usize, keys: impl Iterator<Item = usize> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for k in keys.clone() {
        start[k + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut cursor = start.clone();
    let mut items = vec![0u32; start[n] as usize];
    for (i, k) in keys.enumerate() {
        items[cursor[k] as usize] = i as u32;
        cursor[k] += 1;
    }
    (start, items)
}

#[inline]
fn fanout_slice<'a>(start: &[u32], items: &'a [u32], v: usize) -> &'a [u32] {
    &items[start[v] as usize..start[v + 1] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use insta_liberty::{synth_library, SynthLibraryConfig};
    use std::sync::Arc;

    /// in ─┬─> NAND2 ──> INV ──> out
    ///      └───────────────────────┘ (second nand input from a flop Q)
    fn small_design() -> Design {
        let lib = Arc::new(synth_library(&SynthLibraryConfig::default()));
        let nand = lib.cell_id("NAND2_X1").expect("NAND2_X1");
        let inv = lib.cell_id("INV_X1").expect("INV_X1");
        let dff = lib.cell_id("DFF_X1").expect("DFF_X1");
        let clkbuf = lib.cell_id("CLKBUF_X2").expect("CLKBUF_X2");
        let mut d = Design::new("small", lib);
        let ck = d.add_clock_source("clk", 1000.0);
        let pi = d.add_input_port("in");
        let po = d.add_output_port("out");
        let cb = d.add_cell("cb", clkbuf);
        let f0 = d.add_cell("f0", dff);
        let g0 = d.add_cell("g0", nand);
        let g1 = d.add_cell("g1", inv);
        d.connect("clk0", ck, vec![d.cell_pin(cb, "A")]);
        d.connect("clk1", d.cell_pin(cb, "Y"), vec![d.cell_pin(f0, "CK")]);
        d.connect("n_in", pi, vec![d.cell_pin(g0, "A")]);
        d.connect("n_q", d.cell_pin(f0, "Q"), vec![d.cell_pin(g0, "B")]);
        d.connect("n_0", d.cell_pin(g0, "Y"), vec![d.cell_pin(g1, "A")]);
        d.connect("n_1", d.cell_pin(g1, "Y"), vec![po, d.cell_pin(f0, "D")]);
        d
    }

    #[test]
    fn excludes_clock_network_from_data_graph() {
        let d = small_design();
        let g = TimingGraph::build(&d).expect("build");
        // Data nodes: in, out, f0/D, f0/Q, g0{A,B,Y}, g1{A,Y} = 9.
        assert_eq!(g.num_nodes(), 9);
        // The clock buffer pins and CK pin must not be nodes.
        let cb_y = d.cell_pin(crate::design::CellId(0), "Y");
        assert!(g.node_of(cb_y).is_none());
    }

    #[test]
    fn sources_and_endpoints_are_identified() {
        let d = small_design();
        let g = TimingGraph::build(&d).expect("build");
        assert_eq!(g.sources().len(), 2); // in, f0/Q
        assert_eq!(g.endpoints().len(), 2); // out, f0/D
    }

    #[test]
    fn levels_respect_arc_direction() {
        let d = small_design();
        let g = TimingGraph::build(&d).expect("build");
        for arc in g.arcs() {
            assert!(
                g.level_of(arc.from) < g.level_of(arc.to),
                "arc {:?} does not increase level",
                arc
            );
        }
    }

    #[test]
    fn level_csr_partitions_all_nodes() {
        let d = small_design();
        let g = TimingGraph::build(&d).expect("build");
        let total: usize = (0..g.num_levels()).map(|l| g.level(l).len()).sum();
        assert_eq!(total, g.num_nodes());
    }

    #[test]
    fn fanin_fanout_are_consistent() {
        let d = small_design();
        let g = TimingGraph::build(&d).expect("build");
        for v in 0..g.num_nodes() {
            let v = NodeId(v as u32);
            for &ai in g.fanin(v) {
                assert_eq!(g.arc(ai).to, v);
            }
            for &ai in g.fanout(v) {
                assert_eq!(g.arc(ai).from, v);
            }
        }
        let fanin_total: usize = (0..g.num_nodes()).map(|v| g.fanin(NodeId(v as u32)).len()).sum();
        assert_eq!(fanin_total, g.num_arcs());
    }

    #[test]
    fn detects_combinational_loop() {
        let lib = Arc::new(synth_library(&SynthLibraryConfig::default()));
        let inv = lib.cell_id("INV_X1").expect("INV_X1");
        let mut d = Design::new("loop", lib);
        let g0 = d.add_cell("g0", inv);
        let g1 = d.add_cell("g1", inv);
        d.connect("a", d.cell_pin(g0, "Y"), vec![d.cell_pin(g1, "A")]);
        d.connect("b", d.cell_pin(g1, "Y"), vec![d.cell_pin(g0, "A")]);
        let err = TimingGraph::build(&d).unwrap_err();
        assert!(matches!(err, BuildGraphError::CombinationalLoop { unlevelized: 4 }));
    }
}
