//! The flat gate-level netlist: cells, pins, nets, ports, and the clock
//! domain.
//!
//! A [`Design`] owns its [`Library`] (via `Arc`) so downstream engines only
//! need a `&Design`. Construction goes through the builder-style methods
//! (`add_cell`, `add_input_port`, `connect`, …); [`Design::validate`]
//! checks structural invariants after construction.

use insta_liberty::{LibCell, LibCellId, LibPinId, Library, PinDirection};
use std::sync::Arc;

/// Identifier of a [`Cell`] within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

/// Identifier of a [`Pin`] within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PinId(pub u32);

/// Identifier of a [`Net`] within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl CellId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PinId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NetId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a pin is, in netlist terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinRole {
    /// A pin of an instantiated cell.
    CellPin,
    /// A primary input port (drives a net).
    PrimaryInput,
    /// A primary output port (sinks a net).
    PrimaryOutput,
    /// The clock source port (drives the clock network).
    ClockSource,
}

/// A netlist pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Flat hierarchical name, e.g. `"u42/A"` or `"in[3]"`.
    pub name: String,
    /// Owning cell, `None` for ports.
    pub cell: Option<CellId>,
    /// The pin's slot in the owning library cell, `None` for ports.
    pub lib_pin: Option<LibPinId>,
    /// Whether the pin drives or sinks its net.
    pub direction: PinDirection,
    /// Connected net, if any.
    pub net: Option<NetId>,
    /// Netlist role.
    pub role: PinRole,
}

impl Pin {
    /// Whether this pin drives its net (cell outputs and input ports).
    #[inline]
    pub fn is_driver(&self) -> bool {
        self.direction == PinDirection::Output
    }
}

/// A netlist cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// Library cell reference.
    pub lib_cell: LibCellId,
    /// Instance pins, aligned with the library cell's pin order.
    pub pins: Vec<PinId>,
}

/// Per-sink wire RC of a net branch.
///
/// `res_kohm * cap_ff` yields picoseconds under the workspace unit
/// convention. The Elmore delay of the branch seen by the sink is
/// `res * (cap / 2 + sink_pin_cap)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireRc {
    /// Branch resistance (kΩ).
    pub res_kohm: f64,
    /// Branch capacitance (fF).
    pub cap_ff: f64,
}

impl WireRc {
    /// A zero-RC (ideal) wire.
    pub const IDEAL: WireRc = WireRc {
        res_kohm: 0.0,
        cap_ff: 0.0,
    };

    /// Builds the RC of a wire of `length_um` microns using the given
    /// per-micron constants.
    pub fn from_length(length_um: f64, res_per_um: f64, cap_per_um: f64) -> Self {
        Self {
            res_kohm: length_um * res_per_um,
            cap_ff: length_um * cap_per_um,
        }
    }
}

/// A netlist net: one driver, zero or more sinks, per-sink wire RC.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Driving pin.
    pub driver: PinId,
    /// Sink pins.
    pub sinks: Vec<PinId>,
    /// Wire RC per sink, same order as `sinks`.
    pub sink_wires: Vec<WireRc>,
}

impl Net {
    /// Total wire capacitance of the net (fF).
    pub fn total_wire_cap_ff(&self) -> f64 {
        self.sink_wires.iter().map(|w| w.cap_ff).sum()
    }
}

/// The single clock domain of a design.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockDomain {
    /// Clock source pin (a [`PinRole::ClockSource`] port).
    pub source: PinId,
    /// Clock period (ps).
    pub period_ps: f64,
}

/// Error returned by [`Design::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateDesignError {
    /// A sink pin is listed in a net it does not reference, or vice versa.
    InconsistentConnection {
        /// The offending pin.
        pin: String,
    },
    /// A net's driver pin is not output-direction.
    NetDriverNotOutput {
        /// The offending net.
        net: String,
    },
    /// A cell's pin count does not match its library cell.
    CellPinMismatch {
        /// The offending cell instance.
        cell: String,
    },
}

impl std::fmt::Display for ValidateDesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateDesignError::InconsistentConnection { pin } => {
                write!(f, "pin `{pin}` and its net disagree about the connection")
            }
            ValidateDesignError::NetDriverNotOutput { net } => {
                write!(f, "net `{net}` is driven by a non-output pin")
            }
            ValidateDesignError::CellPinMismatch { cell } => {
                write!(f, "cell `{cell}` pin count does not match its library cell")
            }
        }
    }
}

impl std::error::Error for ValidateDesignError {}

/// A flat gate-level design.
#[derive(Debug, Clone)]
pub struct Design {
    /// Design name.
    pub name: String,
    library: Arc<Library>,
    cells: Vec<Cell>,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    primary_inputs: Vec<PinId>,
    primary_outputs: Vec<PinId>,
    clock: Option<ClockDomain>,
}

impl Design {
    /// Creates an empty design over the given library.
    pub fn new(name: impl Into<String>, library: Arc<Library>) -> Self {
        Self {
            name: name.into(),
            library,
            cells: Vec::new(),
            pins: Vec::new(),
            nets: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            clock: None,
        }
    }

    /// The design's library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Shared handle to the library.
    pub fn library_arc(&self) -> Arc<Library> {
        Arc::clone(&self.library)
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All pins.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Pin by id.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Primary input ports (excluding the clock source).
    pub fn primary_inputs(&self) -> &[PinId] {
        &self.primary_inputs
    }

    /// Primary output ports.
    pub fn primary_outputs(&self) -> &[PinId] {
        &self.primary_outputs
    }

    /// The clock domain, if defined.
    pub fn clock(&self) -> Option<&ClockDomain> {
        self.clock.as_ref()
    }

    /// The library cell of an instance.
    pub fn lib_cell_of(&self, cell: CellId) -> &LibCell {
        self.library.cell(self.cell(cell).lib_cell)
    }

    /// Input-pin capacitance of a pin (fF); 0 for outputs and ports.
    pub fn pin_cap_ff(&self, pin: PinId) -> f64 {
        let p = self.pin(pin);
        match (p.cell, p.lib_pin) {
            (Some(c), Some(lp)) => self.lib_cell_of(c).pin(lp).cap_ff,
            _ => 0.0,
        }
    }

    /// Adds a primary input port; returns its (driving) pin.
    pub fn add_input_port(&mut self, name: impl Into<String>) -> PinId {
        let id = PinId(self.pins.len() as u32);
        self.pins.push(Pin {
            name: name.into(),
            cell: None,
            lib_pin: None,
            direction: PinDirection::Output,
            net: None,
            role: PinRole::PrimaryInput,
        });
        self.primary_inputs.push(id);
        id
    }

    /// Adds a primary output port; returns its (sinking) pin.
    pub fn add_output_port(&mut self, name: impl Into<String>) -> PinId {
        let id = PinId(self.pins.len() as u32);
        self.pins.push(Pin {
            name: name.into(),
            cell: None,
            lib_pin: None,
            direction: PinDirection::Input,
            net: None,
            role: PinRole::PrimaryOutput,
        });
        self.primary_outputs.push(id);
        id
    }

    /// Defines the clock source port and period; returns the source pin.
    ///
    /// # Panics
    ///
    /// Panics if a clock domain is already defined.
    pub fn add_clock_source(&mut self, name: impl Into<String>, period_ps: f64) -> PinId {
        assert!(self.clock.is_none(), "clock domain already defined");
        let id = PinId(self.pins.len() as u32);
        self.pins.push(Pin {
            name: name.into(),
            cell: None,
            lib_pin: None,
            direction: PinDirection::Output,
            net: None,
            role: PinRole::ClockSource,
        });
        self.clock = Some(ClockDomain {
            source: id,
            period_ps,
        });
        id
    }

    /// Instantiates a library cell; creates one netlist pin per library pin.
    pub fn add_cell(&mut self, name: impl Into<String>, lib_cell: LibCellId) -> CellId {
        let name = name.into();
        let cell_id = CellId(self.cells.len() as u32);
        let lc = self.library.cell(lib_cell);
        let mut pins = Vec::with_capacity(lc.pins().len());
        // Collect pin descriptors first to avoid aliasing `self.library`.
        let descrs: Vec<(String, PinDirection)> = lc
            .pins()
            .iter()
            .map(|p| (p.name.clone(), p.direction))
            .collect();
        for (i, (pname, dir)) in descrs.into_iter().enumerate() {
            let pid = PinId(self.pins.len() as u32);
            self.pins.push(Pin {
                name: format!("{name}/{pname}"),
                cell: Some(cell_id),
                lib_pin: Some(LibPinId(i as u32)),
                direction: dir,
                net: None,
                role: PinRole::CellPin,
            });
            pins.push(pid);
        }
        self.cells.push(Cell {
            name,
            lib_cell,
            pins,
        });
        cell_id
    }

    /// The instance pin corresponding to library pin `lib_name` of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if the library cell has no pin of that name.
    pub fn cell_pin(&self, cell: CellId, lib_name: &str) -> PinId {
        let lc = self.lib_cell_of(cell);
        let lp = lc
            .pin_by_name(lib_name)
            .unwrap_or_else(|| panic!("cell {} has no pin {lib_name}", self.cell(cell).name));
        self.cell(cell).pins[lp.index()]
    }

    /// Connects a driver to sinks with ideal wires; returns the net.
    ///
    /// # Panics
    ///
    /// Panics if the driver is not output-direction or any pin is already
    /// connected.
    pub fn connect(
        &mut self,
        name: impl Into<String>,
        driver: PinId,
        sinks: Vec<PinId>,
    ) -> NetId {
        let wires = vec![WireRc::IDEAL; sinks.len()];
        self.connect_with_wires(name, driver, sinks, wires)
    }

    /// Connects a driver to sinks with explicit per-sink wire RC.
    ///
    /// # Panics
    ///
    /// Panics if the driver is not output-direction, any pin is already
    /// connected, or the wire count mismatches the sink count.
    pub fn connect_with_wires(
        &mut self,
        name: impl Into<String>,
        driver: PinId,
        sinks: Vec<PinId>,
        sink_wires: Vec<WireRc>,
    ) -> NetId {
        assert_eq!(sinks.len(), sink_wires.len(), "wire count mismatch");
        assert!(
            self.pin(driver).is_driver(),
            "net driver {} is not an output pin",
            self.pin(driver).name
        );
        let net_id = NetId(self.nets.len() as u32);
        assert!(
            self.pin(driver).net.is_none(),
            "driver {} already connected",
            self.pin(driver).name
        );
        self.pins[driver.index()].net = Some(net_id);
        for &s in &sinks {
            assert!(
                !self.pin(s).is_driver(),
                "net sink {} is a driver pin",
                self.pin(s).name
            );
            assert!(
                self.pin(s).net.is_none(),
                "sink {} already connected",
                self.pin(s).name
            );
            self.pins[s.index()].net = Some(net_id);
        }
        self.nets.push(Net {
            name: name.into(),
            driver,
            sinks,
            sink_wires,
        });
        net_id
    }

    /// Attaches an unconnected sink pin to an existing net with the given
    /// branch wire (buffering/rewiring surgery).
    ///
    /// # Panics
    ///
    /// Panics if the pin is a driver or already connected.
    pub fn attach_sink(&mut self, net: NetId, sink: PinId, wire: WireRc) {
        assert!(
            !self.pin(sink).is_driver(),
            "cannot attach driver pin {} as a sink",
            self.pin(sink).name
        );
        assert!(
            self.pin(sink).net.is_none(),
            "sink {} already connected",
            self.pin(sink).name
        );
        self.pins[sink.index()].net = Some(net);
        let n = &mut self.nets[net.index()];
        n.sinks.push(sink);
        n.sink_wires.push(wire);
    }

    /// Detaches a sink pin from its net (buffering/rewiring surgery); the
    /// pin becomes unconnected and can be re-connected to a new net.
    ///
    /// # Panics
    ///
    /// Panics if the pin is not a sink of the net.
    pub fn disconnect_sink(&mut self, net: NetId, sink: PinId) {
        let n = &mut self.nets[net.index()];
        let pos = n
            .sinks
            .iter()
            .position(|&s| s == sink)
            .unwrap_or_else(|| panic!("pin is not a sink of net {}", n.name));
        n.sinks.remove(pos);
        n.sink_wires.remove(pos);
        self.pins[sink.index()].net = None;
    }

    /// Replaces the wire RC of every sink of a net (used when placement
    /// changes update net parasitics).
    ///
    /// # Panics
    ///
    /// Panics if the wire count mismatches the sink count.
    pub fn set_net_wires(&mut self, net: NetId, sink_wires: Vec<WireRc>) {
        let n = &mut self.nets[net.index()];
        assert_eq!(n.sinks.len(), sink_wires.len(), "wire count mismatch");
        n.sink_wires = sink_wires;
    }

    /// Swaps the library cell of an instance to another member of the same
    /// gate-class family (gate sizing).
    ///
    /// # Panics
    ///
    /// Panics if the new cell's class or pin layout differs from the old
    /// one.
    pub fn resize_cell(&mut self, cell: CellId, new_lib_cell: LibCellId) {
        let old = self.cells[cell.index()].lib_cell;
        if old == new_lib_cell {
            return;
        }
        let (old_class, old_pins) = {
            let c = self.library.cell(old);
            (c.class, c.pins().len())
        };
        let (new_class, new_pins) = {
            let c = self.library.cell(new_lib_cell);
            (c.class, c.pins().len())
        };
        assert_eq!(old_class, new_class, "resize must stay within the family");
        assert_eq!(old_pins, new_pins, "resize must preserve pin layout");
        self.cells[cell.index()].lib_cell = new_lib_cell;
    }

    /// Total leakage of the design (library units).
    pub fn total_leakage(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.library.cell(c.lib_cell).leakage)
            .sum()
    }

    /// Effective load seen by a driver pin: wire cap plus sink pin caps
    /// (fF).
    pub fn driver_load_ff(&self, driver: PinId) -> f64 {
        match self.pin(driver).net {
            Some(nid) => {
                let net = self.net(nid);
                net.total_wire_cap_ff()
                    + net
                        .sinks
                        .iter()
                        .map(|&s| self.pin_cap_ff(s))
                        .sum::<f64>()
            }
            None => 0.0,
        }
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant found.
    pub fn validate(&self) -> Result<(), ValidateDesignError> {
        for cell in &self.cells {
            if cell.pins.len() != self.library.cell(cell.lib_cell).pins().len() {
                return Err(ValidateDesignError::CellPinMismatch {
                    cell: cell.name.clone(),
                });
            }
        }
        for (i, net) in self.nets.iter().enumerate() {
            if !self.pin(net.driver).is_driver() {
                return Err(ValidateDesignError::NetDriverNotOutput {
                    net: net.name.clone(),
                });
            }
            for &s in std::iter::once(&net.driver).chain(&net.sinks) {
                if self.pin(s).net != Some(NetId(i as u32)) {
                    return Err(ValidateDesignError::InconsistentConnection {
                        pin: self.pin(s).name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether a cell is sequential.
    pub fn is_sequential(&self, cell: CellId) -> bool {
        self.lib_cell_of(cell).is_sequential()
    }

    /// Iterates over sequential cell ids.
    pub fn flops(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len() as u32)
            .map(CellId)
            .filter(move |&c| self.is_sequential(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_liberty::{synth_library, SynthLibraryConfig};

    fn library() -> Arc<Library> {
        Arc::new(synth_library(&SynthLibraryConfig::default()))
    }

    /// in -> INV -> out
    fn tiny_design() -> Design {
        let lib = library();
        let inv = lib.cell_id("INV_X1").expect("INV_X1");
        let mut d = Design::new("tiny", lib);
        let pi = d.add_input_port("in");
        let po = d.add_output_port("out");
        let u1 = d.add_cell("u1", inv);
        let a = d.cell_pin(u1, "A");
        let y = d.cell_pin(u1, "Y");
        d.connect("n_in", pi, vec![a]);
        d.connect("n_out", y, vec![po]);
        d
    }

    #[test]
    fn builds_and_validates_tiny_design() {
        let d = tiny_design();
        assert_eq!(d.cells().len(), 1);
        assert_eq!(d.pins().len(), 4); // 2 ports + 2 cell pins
        assert_eq!(d.nets().len(), 2);
        d.validate().expect("valid");
    }

    #[test]
    fn driver_load_counts_wire_and_pin_caps() {
        let lib = library();
        let inv = lib.cell_id("INV_X1").expect("INV_X1");
        let inv_cap = lib
            .cell_by_name("INV_X1")
            .unwrap()
            .pin(lib.cell_by_name("INV_X1").unwrap().pin_by_name("A").unwrap())
            .cap_ff;
        let mut d = Design::new("loads", lib);
        let pi = d.add_input_port("in");
        let u1 = d.add_cell("u1", inv);
        let u2 = d.add_cell("u2", inv);
        let a1 = d.cell_pin(u1, "A");
        let a2 = d.cell_pin(u2, "A");
        d.connect_with_wires(
            "n0",
            pi,
            vec![a1, a2],
            vec![
                WireRc {
                    res_kohm: 0.1,
                    cap_ff: 2.0,
                },
                WireRc {
                    res_kohm: 0.2,
                    cap_ff: 3.0,
                },
            ],
        );
        let load = d.driver_load_ff(pi);
        assert!((load - (5.0 + 2.0 * inv_cap)).abs() < 1e-12);
    }

    #[test]
    fn resize_swaps_family_member() {
        let mut d = tiny_design();
        let lib = d.library_arc();
        let x4 = lib.cell_id("INV_X4").expect("INV_X4");
        d.resize_cell(CellId(0), x4);
        assert_eq!(d.lib_cell_of(CellId(0)).drive, 4);
        d.validate().expect("still valid");
    }

    #[test]
    #[should_panic(expected = "resize must stay within the family")]
    fn resize_across_classes_panics() {
        let mut d = tiny_design();
        let lib = d.library_arc();
        let buf = lib.cell_id("BUF_X1").expect("BUF_X1");
        d.resize_cell(CellId(0), buf);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connection_panics() {
        let lib = library();
        let inv = lib.cell_id("INV_X1").expect("INV_X1");
        let mut d = Design::new("dup", lib);
        let pi = d.add_input_port("in");
        let u1 = d.add_cell("u1", inv);
        let a = d.cell_pin(u1, "A");
        d.connect("n0", pi, vec![a]);
        let pi2 = d.add_input_port("in2");
        d.connect("n1", pi2, vec![a]);
    }

    #[test]
    fn clock_source_sets_domain() {
        let lib = library();
        let mut d = Design::new("clk", lib);
        let ck = d.add_clock_source("clk", 500.0);
        let dom = d.clock().expect("clock domain");
        assert_eq!(dom.source, ck);
        assert_eq!(dom.period_ps, 500.0);
        assert_eq!(d.pin(ck).role, PinRole::ClockSource);
    }

    #[test]
    fn flops_iterator_finds_sequentials() {
        let lib = library();
        let dff = lib.cell_id("DFF_X1").expect("DFF_X1");
        let inv = lib.cell_id("INV_X1").expect("INV_X1");
        let mut d = Design::new("seq", lib);
        d.add_cell("f0", dff);
        d.add_cell("g0", inv);
        d.add_cell("f1", dff);
        let flops: Vec<CellId> = d.flops().collect();
        assert_eq!(flops, vec![CellId(0), CellId(2)]);
    }

    #[test]
    fn total_leakage_sums_cells() {
        let d = tiny_design();
        assert!(d.total_leakage() > 0.0);
    }
}
