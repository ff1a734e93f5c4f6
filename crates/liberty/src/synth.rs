//! Synthetic standard-cell library builder.
//!
//! Stands in for the commercial 3 nm and ASAP7 libraries used by the paper's
//! experiments (see DESIGN.md, substitution table). The builder produces a
//! deterministic library with every [`GateClass`] across a fixed set
//! of drive strengths. Delay/slew tables follow a first-order RC model
//!
//! ```text
//! delay(slew, load) = intrinsic + SLEW_FACTOR * slew + (r0 / drive) * load
//! ```
//!
//! tabulated on a 7×7 NLDM grid, so stronger drives trade input capacitance
//! (and leakage) for output resistance exactly like a real library — which is
//! what gives the sizers a realistic optimization surface.

use crate::cell::{
    ArcKind, GateClass, LibArc, LibCell, LibPin, Library, PinDirection, TimingSense,
};
use crate::table::NldmTable;

/// Configuration of the synthetic library.
#[derive(Debug, Clone)]
pub struct SynthLibraryConfig {
    /// POCV proportional sigma coefficient applied to every arc.
    pub sigma_coeff: f64,
}

impl Default for SynthLibraryConfig {
    fn default() -> Self {
        Self { sigma_coeff: 0.05 }
    }
}

/// Library name.
const LIBRARY_NAME: &str = "insta_synth7";
/// Drive strengths generated per gate class.
const DRIVES: [u32; 4] = [1, 2, 4, 8];
/// Input-slew table index (ps).
const SLEW_INDEX: [f64; 7] = [2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0];
/// Output-load table index (fF).
const LOAD_INDEX: [f64; 7] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Input capacitance of a drive-1 input pin (fF).
const UNIT_INPUT_CAP_FF: f64 = 0.8;
/// Maximum load a drive-1 output may drive (fF).
const UNIT_MAX_CAP_FF: f64 = 40.0;
/// Slew-dependence factor of delay (ps of delay per ps of input slew).
const SLEW_FACTOR: f64 = 0.12;

/// Intrinsic delay (ps) of a gate class at zero slew and zero load.
fn intrinsic_ps(class: GateClass) -> f64 {
    match class {
        GateClass::Inv => 4.0,
        GateClass::Buf => 7.0,
        GateClass::ClkBuf => 6.0,
        GateClass::Nand2 => 6.0,
        GateClass::Nand3 => 8.0,
        GateClass::Nor2 => 7.0,
        GateClass::Nor3 => 9.0,
        GateClass::And2 => 9.0,
        GateClass::Or2 => 10.0,
        GateClass::Xor2 => 12.0,
        GateClass::Aoi21 => 9.0,
        GateClass::Oai21 => 9.0,
        GateClass::Mux2 => 11.0,
        GateClass::Dff => 22.0, // CK→Q launch
    }
}

/// Unit (drive-1) output resistance (kΩ) of a gate class.
fn unit_resistance_kohm(class: GateClass) -> f64 {
    match class {
        GateClass::Inv => 1.2,
        GateClass::Buf => 1.4,
        GateClass::ClkBuf => 1.0,
        GateClass::Nand2 => 1.6,
        GateClass::Nand3 => 2.0,
        GateClass::Nor2 => 1.8,
        GateClass::Nor3 => 2.2,
        GateClass::And2 => 1.6,
        GateClass::Or2 => 1.7,
        GateClass::Xor2 => 2.4,
        GateClass::Aoi21 => 2.0,
        GateClass::Oai21 => 2.0,
        GateClass::Mux2 => 2.2,
        GateClass::Dff => 1.8,
    }
}

/// Setup margin (ps) of the synthetic flop.
pub const DFF_SETUP_PS: f64 = 12.0;
/// Hold margin (ps) of the synthetic flop.
pub const DFF_HOLD_PS: f64 = 3.0;

/// Input pin names per class, in arc order.
fn input_names(class: GateClass) -> Vec<&'static str> {
    match class.input_count() {
        1 => vec!["A"],
        2 => vec!["A", "B"],
        3 => {
            if class == GateClass::Mux2 {
                vec!["A", "B", "S"]
            } else {
                vec!["A", "B", "C"]
            }
        }
        n => unreachable!("unsupported input count {n}"),
    }
}

fn delay_table(intrinsic: f64, r_kohm: f64, edge_scale: f64) -> NldmTable {
    NldmTable::from_fn(SLEW_INDEX.to_vec(), LOAD_INDEX.to_vec(), |s, l| {
        (intrinsic + SLEW_FACTOR * s + r_kohm * l) * edge_scale
    })
}

fn trans_table(intrinsic: f64, r_kohm: f64, edge_scale: f64) -> NldmTable {
    NldmTable::from_fn(SLEW_INDEX.to_vec(), LOAD_INDEX.to_vec(), |s, l| {
        (0.6 * intrinsic + 0.05 * s + 1.8 * r_kohm * l) * edge_scale
    })
}

fn build_combinational(cfg: &SynthLibraryConfig, class: GateClass, drive: u32) -> LibCell {
    let names = input_names(class);
    let mut pins: Vec<LibPin> = names
        .iter()
        .map(|n| LibPin {
            name: (*n).to_string(),
            direction: PinDirection::Input,
            cap_ff: UNIT_INPUT_CAP_FF * drive as f64,
            max_cap_ff: f64::INFINITY,
            is_clock: false,
        })
        .collect();
    let out_idx = pins.len() as u32;
    pins.push(LibPin {
        name: "Y".to_string(),
        direction: PinDirection::Output,
        cap_ff: 0.0,
        max_cap_ff: UNIT_MAX_CAP_FF * drive as f64,
        is_clock: false,
    });

    let r = unit_resistance_kohm(class) / drive as f64;
    let d0 = intrinsic_ps(class);
    let mut arcs = Vec::new();
    for (i, _) in names.iter().enumerate() {
        // Later inputs are slightly slower, as in real libraries.
        let input_scale = 1.0 + 0.06 * i as f64;
        arcs.push(LibArc {
            from: crate::cell::LibPinId(i as u32),
            to: crate::cell::LibPinId(out_idx),
            kind: ArcKind::Combinational,
            sense: class.input_sense(i),
            delay_rise: delay_table(d0 * input_scale, r, 1.05),
            delay_fall: delay_table(d0 * input_scale, r, 0.95),
            trans_rise: trans_table(d0, r, 1.05),
            trans_fall: trans_table(d0, r, 0.95),
            sigma_coeff: cfg.sigma_coeff,
        });
    }

    LibCell::new(
        format!("{}_X{drive}", class.short_name()),
        class,
        drive,
        0.5 * drive as f64,
        (1.0 + 0.4 * names.len() as f64) * drive as f64,
        pins,
        arcs,
    )
}

fn build_dff(cfg: &SynthLibraryConfig, drive: u32) -> LibCell {
    let pins = vec![
        LibPin {
            name: "D".to_string(),
            direction: PinDirection::Input,
            cap_ff: UNIT_INPUT_CAP_FF * drive as f64,
            max_cap_ff: f64::INFINITY,
            is_clock: false,
        },
        LibPin {
            name: "CK".to_string(),
            direction: PinDirection::Input,
            cap_ff: UNIT_INPUT_CAP_FF * drive as f64 * 0.8,
            max_cap_ff: f64::INFINITY,
            is_clock: true,
        },
        LibPin {
            name: "Q".to_string(),
            direction: PinDirection::Output,
            cap_ff: 0.0,
            max_cap_ff: UNIT_MAX_CAP_FF * drive as f64,
            is_clock: false,
        },
    ];
    let r = unit_resistance_kohm(GateClass::Dff) / drive as f64;
    let d0 = intrinsic_ps(GateClass::Dff);
    let arcs = vec![
        LibArc {
            from: crate::cell::LibPinId(1), // CK
            to: crate::cell::LibPinId(2),   // Q
            kind: ArcKind::Launch,
            sense: TimingSense::PositiveUnate,
            delay_rise: delay_table(d0, r, 1.05),
            delay_fall: delay_table(d0, r, 0.95),
            trans_rise: trans_table(d0, r, 1.05),
            trans_fall: trans_table(d0, r, 0.95),
            sigma_coeff: cfg.sigma_coeff,
        },
        LibArc {
            from: crate::cell::LibPinId(1), // CK
            to: crate::cell::LibPinId(0),   // D
            kind: ArcKind::Setup,
            sense: TimingSense::PositiveUnate,
            delay_rise: NldmTable::constant(DFF_SETUP_PS),
            delay_fall: NldmTable::constant(DFF_SETUP_PS),
            trans_rise: NldmTable::constant(0.0),
            trans_fall: NldmTable::constant(0.0),
            sigma_coeff: 0.0,
        },
        LibArc {
            from: crate::cell::LibPinId(1),
            to: crate::cell::LibPinId(0),
            kind: ArcKind::Hold,
            sense: TimingSense::PositiveUnate,
            delay_rise: NldmTable::constant(DFF_HOLD_PS),
            delay_fall: NldmTable::constant(DFF_HOLD_PS),
            trans_rise: NldmTable::constant(0.0),
            trans_fall: NldmTable::constant(0.0),
            sigma_coeff: 0.0,
        },
    ];
    LibCell::new(
        format!("DFF_X{drive}"),
        GateClass::Dff,
        drive,
        1.2 * drive as f64,
        4.0 * drive as f64,
        pins,
        arcs,
    )
}

/// Builds the deterministic synthetic library described in the module docs.
///
/// # Examples
///
/// ```
/// use insta_liberty::synth::{synth_library, SynthLibraryConfig};
/// use insta_liberty::GateClass;
///
/// let lib = synth_library(&SynthLibraryConfig::default());
/// // Every class exists in every drive strength.
/// assert_eq!(lib.family(GateClass::Nand2).len(), 4);
/// ```
pub fn synth_library(cfg: &SynthLibraryConfig) -> Library {
    let mut lib = Library::new(LIBRARY_NAME);
    for class in GateClass::ALL {
        for drive in DRIVES {
            let cell = if class == GateClass::Dff {
                build_dff(cfg, drive)
            } else {
                build_combinational(cfg, class, drive)
            };
            lib.add_cell(cell);
        }
    }
    lib
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Transition;

    #[test]
    fn library_has_all_classes_and_drives() {
        let lib = synth_library(&SynthLibraryConfig::default());
        assert_eq!(lib.len(), GateClass::ALL.len() * DRIVES.len());
        for class in GateClass::ALL {
            let fam = lib.family(class);
            let drives: Vec<u32> = fam.iter().map(|&id| lib.cell(id).drive).collect();
            assert_eq!(drives, DRIVES, "family {class}");
        }
    }

    #[test]
    fn stronger_drive_is_faster_under_load() {
        let lib = synth_library(&SynthLibraryConfig::default());
        let x1 = lib.cell_by_name("INV_X1").expect("INV_X1");
        let x8 = lib.cell_by_name("INV_X8").expect("INV_X8");
        let load = 20.0;
        let slew = 15.0;
        let d1 = x1.arcs()[0].delay(Transition::Rise).lookup(slew, load);
        let d8 = x8.arcs()[0].delay(Transition::Rise).lookup(slew, load);
        assert!(d8 < d1, "X8 ({d8}) should beat X1 ({d1}) at {load} fF");
    }

    #[test]
    fn stronger_drive_has_larger_input_cap_and_leakage() {
        let lib = synth_library(&SynthLibraryConfig::default());
        let x1 = lib.cell_by_name("NAND2_X1").expect("NAND2_X1");
        let x4 = lib.cell_by_name("NAND2_X4").expect("NAND2_X4");
        assert!(x4.pin(x4.pin_by_name("A").unwrap()).cap_ff > x1.pin(x1.pin_by_name("A").unwrap()).cap_ff);
        assert!(x4.leakage > x1.leakage);
        assert!(x4.width > x1.width);
    }

    #[test]
    fn dff_has_launch_setup_hold_arcs() {
        let lib = synth_library(&SynthLibraryConfig::default());
        let dff = lib.cell_by_name("DFF_X2").expect("DFF_X2");
        assert!(dff.is_sequential());
        assert_eq!(dff.clock_pin(), dff.pin_by_name("CK"));
        let kinds: Vec<ArcKind> = dff.arcs().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&ArcKind::Launch));
        assert!(kinds.contains(&ArcKind::Setup));
        assert!(kinds.contains(&ArcKind::Hold));
        let setup = dff
            .arcs()
            .iter()
            .find(|a| a.kind == ArcKind::Setup)
            .expect("setup arc");
        assert_eq!(setup.delay(Transition::Rise).lookup(5.0, 1.0), DFF_SETUP_PS);
    }

    #[test]
    fn later_inputs_are_slower() {
        let lib = synth_library(&SynthLibraryConfig::default());
        let nand3 = lib.cell_by_name("NAND3_X2").expect("NAND3_X2");
        let arcs = nand3.arcs();
        let d_a = arcs[0].delay(Transition::Rise).lookup(10.0, 4.0);
        let d_c = arcs[2].delay(Transition::Rise).lookup(10.0, 4.0);
        assert!(d_c > d_a);
    }

    #[test]
    fn xor_is_non_unate_and_mux_select_is_non_unate() {
        let lib = synth_library(&SynthLibraryConfig::default());
        let xor = lib.cell_by_name("XOR2_X1").expect("XOR2_X1");
        assert!(xor
            .arcs()
            .iter()
            .all(|a| a.sense == TimingSense::NonUnate));
        let mux = lib.cell_by_name("MUX2_X1").expect("MUX2_X1");
        assert_eq!(mux.arcs()[2].sense, TimingSense::NonUnate);
        assert_eq!(mux.arcs()[0].sense, TimingSense::PositiveUnate);
    }

    #[test]
    fn determinism() {
        let a = synth_library(&SynthLibraryConfig::default());
        let b = synth_library(&SynthLibraryConfig::default());
        assert_eq!(a.len(), b.len());
        for (ca, cb) in a.cells().iter().zip(b.cells()) {
            assert_eq!(ca, cb);
        }
    }
}
