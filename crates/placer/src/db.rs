//! The placement database.
//!
//! Cells are placed by their centers in a rectangular region; ports sit at
//! fixed perimeter locations. Pin positions coincide with cell centers
//! (zero pin offsets — a standard global-placement simplification). The
//! database derives per-sink wire RC from Manhattan distances, which is
//! what couples placement to the timing engines.

use insta_netlist::{Design, PinId, WireRc};
use insta_support::Rng;
use std::collections::HashMap;

/// Wire resistance per micron used when deriving RC from placement
/// (kΩ/µm). Deliberately resistive: the paper's premise is that placement
/// drives timing, i.e. interconnect delay is commensurate with gate delay
/// (advanced-node wires), so the placement-facing RC constants are ~5x the
/// generator's synthetic-netlist defaults.
pub const RES_PER_UM: f64 = 0.05;
/// Wire capacitance per micron (fF/µm).
pub const CAP_PER_UM: f64 = 0.5;
/// Region utilization of a placement's initial random spread.
pub const UTILIZATION: f64 = 0.45;

/// A placement of one design.
#[derive(Debug, Clone)]
pub struct PlacementDb {
    /// Region width (µm).
    pub region_w: f64,
    /// Region height (µm).
    pub region_h: f64,
    /// Standard-row height (µm).
    pub row_height: f64,
    /// Cell center x per cell (µm).
    pub x: Vec<f64>,
    /// Cell center y per cell (µm).
    pub y: Vec<f64>,
    /// Cell widths (µm), taken from the library.
    pub widths: Vec<f64>,
    /// Fixed port positions.
    pub port_pos: HashMap<PinId, (f64, f64)>,
}

impl PlacementDb {
    /// Creates a random placement sized so cell area fills
    /// `target_utilization` of a square region; ports are distributed on
    /// the perimeter.
    ///
    /// # Panics
    ///
    /// Panics if `target_utilization` is not in `(0, 1]`.
    pub fn random(design: &Design, target_utilization: f64, seed: u64) -> Self {
        assert!(
            target_utilization > 0.0 && target_utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        let mut rng = Rng::seed_from_u64(seed);
        let row_height = 1.0;
        let widths: Vec<f64> = design
            .cells()
            .iter()
            .map(|c| design.library().cell(c.lib_cell).width)
            .collect();
        let cell_area: f64 = widths.iter().map(|w| w * row_height).sum();
        let side = (cell_area / target_utilization).sqrt().max(4.0);
        // Snap to whole rows.
        let region_h = (side / row_height).ceil() * row_height;
        let region_w = side;

        let n = design.cells().len();
        let x = (0..n).map(|_| rng.gen_range(0.0..region_w)).collect();
        let y = (0..n).map(|_| rng.gen_range(0.0..region_h)).collect();

        let mut port_pos = HashMap::new();
        let ports: Vec<PinId> = design
            .pins()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.cell.is_none())
            .map(|(i, _)| PinId(i as u32))
            .collect();
        let perimeter = 2.0 * (region_w + region_h);
        for (i, &p) in ports.iter().enumerate() {
            let t = perimeter * (i as f64 + 0.5) / ports.len() as f64;
            let pos = if t < region_w {
                (t, 0.0)
            } else if t < region_w + region_h {
                (region_w, t - region_w)
            } else if t < 2.0 * region_w + region_h {
                (2.0 * region_w + region_h - t, region_h)
            } else {
                (0.0, perimeter - t)
            };
            port_pos.insert(p, pos);
        }

        Self {
            region_w,
            region_h,
            row_height,
            x,
            y,
            widths,
            port_pos,
        }
    }

    /// Position of a pin: its cell center, or the fixed port location.
    ///
    /// # Panics
    ///
    /// Panics if a port pin has no registered position.
    pub fn pin_pos(&self, design: &Design, pin: PinId) -> (f64, f64) {
        match design.pin(pin).cell {
            Some(c) => (self.x[c.index()], self.y[c.index()]),
            None => *self
                .port_pos
                .get(&pin)
                .unwrap_or_else(|| panic!("port {pin:?} has no position")),
        }
    }

    /// Clamps every cell center into the region.
    pub fn clamp_to_region(&mut self) {
        for v in self.x.iter_mut() {
            *v = v.clamp(0.0, self.region_w);
        }
        for v in self.y.iter_mut() {
            *v = v.clamp(0.0, self.region_h);
        }
    }

    /// Exact total HPWL (µm) over all nets.
    pub fn hpwl(&self, design: &Design) -> f64 {
        let mut total = 0.0;
        for net in design.nets() {
            let mut min_x = f64::INFINITY;
            let mut max_x = f64::NEG_INFINITY;
            let mut min_y = f64::INFINITY;
            let mut max_y = f64::NEG_INFINITY;
            for &pin in std::iter::once(&net.driver).chain(&net.sinks) {
                let (px, py) = self.pin_pos(design, pin);
                min_x = min_x.min(px);
                max_x = max_x.max(px);
                min_y = min_y.min(py);
                max_y = max_y.max(py);
            }
            if max_x > min_x || max_y > min_y {
                total += (max_x - min_x) + (max_y - min_y);
            }
        }
        total
    }

    /// Rewrites every net's per-sink wire RC from the current placement
    /// (Manhattan distance × per-µm constants, 1 µm minimum).
    pub fn update_wires(&self, design: &mut Design) {
        for ni in 0..design.nets().len() {
            let (driver, sinks) = {
                let net = &design.nets()[ni];
                (net.driver, net.sinks.clone())
            };
            let (dx, dy) = self.pin_pos(design, driver);
            let wires: Vec<WireRc> = sinks
                .iter()
                .map(|&s| {
                    let (sx, sy) = self.pin_pos(design, s);
                    let dist = ((sx - dx).abs() + (sy - dy).abs()).max(1.0);
                    WireRc::from_length(dist, RES_PER_UM, CAP_PER_UM)
                })
                .collect();
            design.set_net_wires(insta_netlist::NetId(ni as u32), wires);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    #[test]
    fn random_placement_covers_region_and_ports() {
        let d = generate_design(&GeneratorConfig::small("db", 1));
        let db = PlacementDb::random(&d, 0.6, 7);
        assert!(db.region_w > 0.0 && db.region_h > 0.0);
        assert_eq!(db.x.len(), d.cells().len());
        for i in 0..db.x.len() {
            assert!(db.x[i] >= 0.0 && db.x[i] <= db.region_w);
            assert!(db.y[i] >= 0.0 && db.y[i] <= db.region_h);
        }
        // Every port got a perimeter position.
        let n_ports = d.pins().iter().filter(|p| p.cell.is_none()).count();
        assert_eq!(db.port_pos.len(), n_ports);
        for &(px, py) in db.port_pos.values() {
            let on_edge = px == 0.0 || py == 0.0 || (px - db.region_w).abs() < 1e-9
                || (py - db.region_h).abs() < 1e-9;
            assert!(on_edge, "port at ({px},{py}) not on perimeter");
        }
    }

    #[test]
    fn hpwl_is_positive_and_scales_with_spread() {
        let d = generate_design(&GeneratorConfig::small("db", 2));
        let db = PlacementDb::random(&d, 0.6, 3);
        let h1 = db.hpwl(&d);
        assert!(h1 > 0.0);
        // Collapse all cells to the center: HPWL must shrink.
        let mut tight = db.clone();
        for v in tight.x.iter_mut() {
            *v = tight.region_w / 2.0;
        }
        for v in tight.y.iter_mut() {
            *v = tight.region_h / 2.0;
        }
        assert!(tight.hpwl(&d) < h1);
    }

    #[test]
    fn update_wires_reflects_distances() {
        let mut d = generate_design(&GeneratorConfig::small("db", 3));
        let db = PlacementDb::random(&d, 0.6, 5);
        db.update_wires(&mut d);
        for net in d.nets() {
            let (dx, dy) = db.pin_pos(&d, net.driver);
            for (si, &s) in net.sinks.iter().enumerate() {
                let (sx, sy) = db.pin_pos(&d, s);
                let dist = ((sx - dx).abs() + (sy - dy).abs()).max(1.0);
                let w = net.sink_wires[si];
                assert!((w.res_kohm - dist * RES_PER_UM).abs() < 1e-12);
                assert!((w.cap_ff - dist * CAP_PER_UM).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn timing_responds_to_placement_changes() {
        use insta_refsta::{RefSta, StaConfig};
        let mut d = generate_design(&GeneratorConfig::small("db", 4));
        let db = PlacementDb::random(&d, 0.6, 9);
        db.update_wires(&mut d);
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        let spread = sta.full_update(&d);
        // Tighten placement: everything at the center → shorter wires →
        // strictly better (or equal) arrival-driven TNS.
        let mut tight = db.clone();
        for v in tight.x.iter_mut() {
            *v = tight.region_w / 2.0;
        }
        for v in tight.y.iter_mut() {
            *v = tight.region_h / 2.0;
        }
        tight.update_wires(&mut d);
        let packed = sta.full_update(&d);
        assert!(packed.tns_ps >= spread.tns_ps - 1e-9);
    }
}
