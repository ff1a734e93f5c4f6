//! Library cells, pins, and timing arcs.
//!
//! A [`Library`] owns a set of [`LibCell`]s. Each cell has [`LibPin`]s and
//! [`LibArc`]s. Arcs carry NLDM delay/transition tables per output
//! transition plus a POCV sigma coefficient: the statistical delay of an arc
//! evaluated at `(slew, load)` is a Gaussian with mean `delay` and standard
//! deviation `sigma_coeff * delay` (the proportional POCV model the paper's
//! reference flow derates with).

use crate::table::NldmTable;
use std::collections::HashMap;

/// Identifier of a [`LibCell`] within its [`Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LibCellId(pub u32);

/// Identifier of a [`LibPin`] within its owning [`LibCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LibPinId(pub u32);

impl LibCellId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LibPinId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Signal direction of a library pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDirection {
    /// Input pin.
    Input,
    /// Output pin.
    Output,
}

/// Signal transition edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transition {
    /// Rising edge.
    Rise,
    /// Falling edge.
    Fall,
}

impl Transition {
    /// Both transitions, in `[Rise, Fall]` order (the order used by the
    /// kernel's SoA layout).
    pub const BOTH: [Transition; 2] = [Transition::Rise, Transition::Fall];

    /// The opposite edge.
    #[inline]
    pub fn inverted(self) -> Transition {
        match self {
            Transition::Rise => Transition::Fall,
            Transition::Fall => Transition::Rise,
        }
    }

    /// Index into rise/fall-keyed arrays: rise = 0, fall = 1.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Transition::Rise => 0,
            Transition::Fall => 1,
        }
    }
}

/// Timing sense (unateness) of a combinational arc, as in Liberty
/// `timing_sense`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingSense {
    /// Output follows input edge (buffer, AND, OR).
    PositiveUnate,
    /// Output opposes input edge (inverter, NAND, NOR).
    NegativeUnate,
    /// Either input edge may cause either output edge (XOR, MUX select).
    NonUnate,
}

/// Kind of a library timing arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcKind {
    /// Combinational input→output arc.
    Combinational,
    /// Clock→output launch arc of a sequential cell (CK→Q).
    Launch,
    /// Setup check of a data pin against the clock pin (D vs CK).
    Setup,
    /// Hold check of a data pin against the clock pin (D vs CK).
    Hold,
}

/// A library pin.
#[derive(Debug, Clone, PartialEq)]
pub struct LibPin {
    /// Pin name, e.g. `"A"`, `"Y"`, `"CK"`.
    pub name: String,
    /// Signal direction.
    pub direction: PinDirection,
    /// Input capacitance in fF (0 for outputs).
    pub cap_ff: f64,
    /// Maximum load the pin may drive, fF (outputs only; `f64::INFINITY`
    /// when unconstrained).
    pub max_cap_ff: f64,
    /// Whether the pin is a clock input.
    pub is_clock: bool,
}

/// A library timing arc between two pins of the same cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LibArc {
    /// Source pin (input, or clock pin for launch/check arcs).
    pub from: LibPinId,
    /// Destination pin (output, or constrained data pin for check arcs).
    pub to: LibPinId,
    /// Arc kind.
    pub kind: ArcKind,
    /// Unateness (meaningful for combinational arcs; launch arcs are
    /// positive-unate from the active clock edge).
    pub sense: TimingSense,
    /// Delay table for a rising destination transition (ps).
    pub delay_rise: NldmTable,
    /// Delay table for a falling destination transition (ps).
    pub delay_fall: NldmTable,
    /// Output transition (slew) table for a rising destination (ps).
    pub trans_rise: NldmTable,
    /// Output transition (slew) table for a falling destination (ps).
    pub trans_fall: NldmTable,
    /// POCV proportional sigma coefficient: `sigma = sigma_coeff * delay`.
    pub sigma_coeff: f64,
}

impl LibArc {
    /// Delay table for the given destination transition.
    pub fn delay(&self, tr: Transition) -> &NldmTable {
        match tr {
            Transition::Rise => &self.delay_rise,
            Transition::Fall => &self.delay_fall,
        }
    }

    /// Output-slew table for the given destination transition.
    pub fn trans(&self, tr: Transition) -> &NldmTable {
        match tr {
            Transition::Rise => &self.trans_rise,
            Transition::Fall => &self.trans_fall,
        }
    }

    /// Source transitions that can produce destination transition `out`,
    /// given this arc's unateness.
    pub fn input_transitions_for(&self, out: Transition) -> &'static [Transition] {
        match self.sense {
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
}

/// Functional class of a library cell.
///
/// The class determines input arity and default unateness; drive strength is
/// carried separately on [`LibCell::drive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateClass {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// Clock buffer (used in the clock network).
    ClkBuf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR (non-unate).
    Xor2,
    /// AND-OR-invert 2-1.
    Aoi21,
    /// OR-AND-invert 2-1.
    Oai21,
    /// 2:1 multiplexer (non-unate select).
    Mux2,
    /// Positive-edge D flip-flop.
    Dff,
}

impl GateClass {
    /// All classes, handy for iteration in generators.
    pub const ALL: [GateClass; 14] = [
        GateClass::Inv,
        GateClass::Buf,
        GateClass::ClkBuf,
        GateClass::Nand2,
        GateClass::Nand3,
        GateClass::Nor2,
        GateClass::Nor3,
        GateClass::And2,
        GateClass::Or2,
        GateClass::Xor2,
        GateClass::Aoi21,
        GateClass::Oai21,
        GateClass::Mux2,
        GateClass::Dff,
    ];

    /// Number of signal inputs (excluding the clock pin for flops).
    pub fn input_count(self) -> usize {
        match self {
            GateClass::Inv | GateClass::Buf | GateClass::ClkBuf | GateClass::Dff => 1,
            GateClass::Nand2
            | GateClass::Nor2
            | GateClass::And2
            | GateClass::Or2
            | GateClass::Xor2 => 2,
            GateClass::Nand3 | GateClass::Nor3 | GateClass::Aoi21 | GateClass::Oai21 => 3,
            GateClass::Mux2 => 3,
        }
    }

    /// Whether the class is sequential.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateClass::Dff)
    }

    /// Default unateness of input `i` toward the output.
    pub fn input_sense(self, i: usize) -> TimingSense {
        match self {
            GateClass::Inv | GateClass::Nand2 | GateClass::Nand3 | GateClass::Nor2
            | GateClass::Nor3 => TimingSense::NegativeUnate,
            GateClass::Buf | GateClass::ClkBuf | GateClass::And2 | GateClass::Or2
            | GateClass::Dff => TimingSense::PositiveUnate,
            GateClass::Xor2 => TimingSense::NonUnate,
            GateClass::Aoi21 | GateClass::Oai21 => TimingSense::NegativeUnate,
            GateClass::Mux2 => {
                if i == 2 {
                    TimingSense::NonUnate // select input
                } else {
                    TimingSense::PositiveUnate
                }
            }
        }
    }

    /// Canonical short name used to build cell names (`NAND2_X4`).
    pub fn short_name(self) -> &'static str {
        match self {
            GateClass::Inv => "INV",
            GateClass::Buf => "BUF",
            GateClass::ClkBuf => "CLKBUF",
            GateClass::Nand2 => "NAND2",
            GateClass::Nand3 => "NAND3",
            GateClass::Nor2 => "NOR2",
            GateClass::Nor3 => "NOR3",
            GateClass::And2 => "AND2",
            GateClass::Or2 => "OR2",
            GateClass::Xor2 => "XOR2",
            GateClass::Aoi21 => "AOI21",
            GateClass::Oai21 => "OAI21",
            GateClass::Mux2 => "MUX2",
            GateClass::Dff => "DFF",
        }
    }

    /// Parses the canonical short name produced by [`short_name`].
    ///
    /// [`short_name`]: GateClass::short_name
    pub fn from_short_name(s: &str) -> Option<GateClass> {
        GateClass::ALL.iter().copied().find(|c| c.short_name() == s)
    }
}

impl std::fmt::Display for GateClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A library cell: pins, arcs, class, drive strength, and footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct LibCell {
    /// Cell name, e.g. `"NAND2_X4"`.
    pub name: String,
    /// Functional class.
    pub class: GateClass,
    /// Drive strength (1, 2, 4, 8, …).
    pub drive: u32,
    /// Leakage power in arbitrary units (scales with drive).
    pub leakage: f64,
    /// Cell width in placement units (height is one row).
    pub width: f64,
    pins: Vec<LibPin>,
    arcs: Vec<LibArc>,
}

impl LibCell {
    /// Creates a cell from parts.
    pub fn new(
        name: impl Into<String>,
        class: GateClass,
        drive: u32,
        leakage: f64,
        width: f64,
        pins: Vec<LibPin>,
        arcs: Vec<LibArc>,
    ) -> Self {
        Self {
            name: name.into(),
            class,
            drive,
            leakage,
            width,
            pins,
            arcs,
        }
    }

    /// The cell's pins.
    pub fn pins(&self) -> &[LibPin] {
        &self.pins
    }

    /// The cell's timing arcs.
    pub fn arcs(&self) -> &[LibArc] {
        &self.arcs
    }

    /// Pin by id.
    pub fn pin(&self, id: LibPinId) -> &LibPin {
        &self.pins[id.index()]
    }

    /// Finds a pin id by name.
    pub fn pin_by_name(&self, name: &str) -> Option<LibPinId> {
        self.pins
            .iter()
            .position(|p| p.name == name)
            .map(|i| LibPinId(i as u32))
    }

    /// Ids of input pins (including clock pins).
    pub fn input_pins(&self) -> impl Iterator<Item = LibPinId> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == PinDirection::Input)
            .map(|(i, _)| LibPinId(i as u32))
    }

    /// Ids of output pins.
    pub fn output_pins(&self) -> impl Iterator<Item = LibPinId> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == PinDirection::Output)
            .map(|(i, _)| LibPinId(i as u32))
    }

    /// The clock pin, if the cell is sequential.
    pub fn clock_pin(&self) -> Option<LibPinId> {
        self.pins
            .iter()
            .position(|p| p.is_clock)
            .map(|i| LibPinId(i as u32))
    }

    /// Whether the cell is sequential.
    pub fn is_sequential(&self) -> bool {
        self.class.is_sequential()
    }

    /// Arcs whose destination is `to` (useful for delay calculation at an
    /// output pin).
    pub fn arcs_to(&self, to: LibPinId) -> impl Iterator<Item = &LibArc> {
        self.arcs.iter().filter(move |a| a.to == to)
    }
}

/// A standard-cell library: a named set of cells with name and family
/// indexes.
///
/// A *family* groups cells of the same [`GateClass`] across drive strengths;
/// [`Library::family`] returns them sorted by drive, which is what the
/// sizers iterate over.
#[derive(Debug, Clone, Default)]
pub struct Library {
    /// Library name.
    pub name: String,
    cells: Vec<LibCell>,
    by_name: HashMap<String, LibCellId>,
    families: HashMap<GateClass, Vec<LibCellId>>,
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cells: Vec::new(),
            by_name: HashMap::new(),
            families: HashMap::new(),
        }
    }

    /// Adds a cell, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same name already exists.
    pub fn add_cell(&mut self, cell: LibCell) -> LibCellId {
        assert!(
            !self.by_name.contains_key(&cell.name),
            "duplicate library cell name {}",
            cell.name
        );
        let id = LibCellId(self.cells.len() as u32);
        self.by_name.insert(cell.name.clone(), id);
        let fam = self.families.entry(cell.class).or_default();
        // Keep the family sorted by drive strength.
        let pos = fam
            .iter()
            .position(|&c| self.cells[c.index()].drive > cell.drive)
            .unwrap_or(fam.len());
        fam.insert(pos, id);
        self.cells.push(cell);
        id
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell by id.
    pub fn cell(&self, id: LibCellId) -> &LibCell {
        &self.cells[id.index()]
    }

    /// All cells.
    pub fn cells(&self) -> &[LibCell] {
        &self.cells
    }

    /// Finds a cell id by name.
    pub fn cell_id(&self, name: &str) -> Option<LibCellId> {
        self.by_name.get(name).copied()
    }

    /// Finds a cell by name.
    pub fn cell_by_name(&self, name: &str) -> Option<&LibCell> {
        self.cell_id(name).map(|id| self.cell(id))
    }

    /// Cells of a class sorted by increasing drive strength.
    pub fn family(&self, class: GateClass) -> &[LibCellId] {
        self.families.get(&class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The family member with the given drive, if present.
    pub fn family_member(&self, class: GateClass, drive: u32) -> Option<LibCellId> {
        self.family(class)
            .iter()
            .copied()
            .find(|&id| self.cell(id).drive == drive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_pin(name: &str, dir: PinDirection) -> LibPin {
        LibPin {
            name: name.to_string(),
            direction: dir,
            cap_ff: if dir == PinDirection::Input { 1.0 } else { 0.0 },
            max_cap_ff: f64::INFINITY,
            is_clock: false,
        }
    }

    fn unit_arc(from: u32, to: u32, sense: TimingSense) -> LibArc {
        LibArc {
            from: LibPinId(from),
            to: LibPinId(to),
            kind: ArcKind::Combinational,
            sense,
            delay_rise: NldmTable::constant(5.0),
            delay_fall: NldmTable::constant(6.0),
            trans_rise: NldmTable::constant(10.0),
            trans_fall: NldmTable::constant(12.0),
            sigma_coeff: 0.05,
        }
    }

    fn inv_cell(name: &str, drive: u32) -> LibCell {
        LibCell::new(
            name,
            GateClass::Inv,
            drive,
            drive as f64,
            drive as f64 * 2.0,
            vec![
                unit_pin("A", PinDirection::Input),
                unit_pin("Y", PinDirection::Output),
            ],
            vec![unit_arc(0, 1, TimingSense::NegativeUnate)],
        )
    }

    #[test]
    fn library_lookup_by_name_and_family_order() {
        let mut lib = Library::new("test");
        lib.add_cell(inv_cell("INV_X4", 4));
        lib.add_cell(inv_cell("INV_X1", 1));
        lib.add_cell(inv_cell("INV_X2", 2));
        assert_eq!(lib.len(), 3);
        let fam: Vec<u32> = lib
            .family(GateClass::Inv)
            .iter()
            .map(|&id| lib.cell(id).drive)
            .collect();
        assert_eq!(fam, vec![1, 2, 4]);
        assert_eq!(lib.cell_by_name("INV_X2").map(|c| c.drive), Some(2));
        assert_eq!(lib.family_member(GateClass::Inv, 4), lib.cell_id("INV_X4"));
        assert!(lib.family_member(GateClass::Inv, 8).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate library cell name")]
    fn duplicate_cell_name_panics() {
        let mut lib = Library::new("test");
        lib.add_cell(inv_cell("INV_X1", 1));
        lib.add_cell(inv_cell("INV_X1", 1));
    }

    #[test]
    fn unateness_maps_input_transitions() {
        let arc = unit_arc(0, 1, TimingSense::NegativeUnate);
        assert_eq!(
            arc.input_transitions_for(Transition::Rise),
            &[Transition::Fall]
        );
        let pos = unit_arc(0, 1, TimingSense::PositiveUnate);
        assert_eq!(
            pos.input_transitions_for(Transition::Fall),
            &[Transition::Fall]
        );
        let non = unit_arc(0, 1, TimingSense::NonUnate);
        assert_eq!(non.input_transitions_for(Transition::Rise).len(), 2);
    }

    #[test]
    fn transition_inversion_and_index() {
        assert_eq!(Transition::Rise.inverted(), Transition::Fall);
        assert_eq!(Transition::Fall.inverted(), Transition::Rise);
        assert_eq!(Transition::Rise.index(), 0);
        assert_eq!(Transition::Fall.index(), 1);
    }

    #[test]
    fn gate_class_round_trips_short_name() {
        for class in GateClass::ALL {
            assert_eq!(GateClass::from_short_name(class.short_name()), Some(class));
        }
        assert_eq!(GateClass::from_short_name("BOGUS"), None);
    }

    #[test]
    fn cell_pin_queries() {
        let cell = inv_cell("INV_X1", 1);
        assert_eq!(cell.pin_by_name("A"), Some(LibPinId(0)));
        assert_eq!(cell.pin_by_name("Y"), Some(LibPinId(1)));
        assert_eq!(cell.pin_by_name("Z"), None);
        assert_eq!(cell.input_pins().count(), 1);
        assert_eq!(cell.output_pins().count(), 1);
        assert!(cell.clock_pin().is_none());
        assert_eq!(cell.arcs_to(LibPinId(1)).count(), 1);
    }
}
