//! `estimate_eco` analogue: local delay-change estimation for a candidate
//! gate resize, without committing it.
//!
//! Mirrors the PrimeTime command the paper's sizers rely on: assuming the
//! *neighbourhood stays unchanged* (same input slews, same downstream
//! loads), estimate the new delays of (a) the resized cell's own arcs,
//! (b) the net arcs into the cell (its input capacitance changed), and
//! (c) the upstream drivers' cell arcs (their load changed). The estimate
//! is a list of per-arc replacement values that INSTA re-annotates with,
//! plus a scalar stage-delay delta the sizers use for ranking.

use crate::sta::RefSta;
use insta_liberty::{LibCellId, Transition};
use insta_netlist::{CellId, Design, TimingArcKind};
use insta_support::json::{obj, FromJson, Json, JsonError, ToJson};

/// Replacement delay annotation for one timing arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcDelta {
    /// Graph arc index.
    pub arc: u32,
    /// New mean delay per destination transition (ps).
    pub mean: [f64; 2],
    /// New sigma per destination transition (ps).
    pub sigma: [f64; 2],
}

/// The wire form `{"arc": N, "mean": [rise, fall], "sigma": [rise, fall]}`.
impl ToJson for ArcDelta {
    fn to_json(&self) -> Json {
        obj([
            ("arc", self.arc.to_json()),
            ("mean", self.mean.to_json()),
            ("sigma", self.sigma.to_json()),
        ])
    }
}

/// Refuses an arc id that does not fit `u32` (`2^32 + a valid id` must not
/// wrap onto it) and a `mean` or `sigma` that is not a two-element array;
/// every error names its field.
impl FromJson for ArcDelta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            arc: v.get("arc")?,
            mean: v.get("mean")?,
            sigma: v.get("sigma")?,
        })
    }
}

/// The result of a local resize estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoEstimate {
    /// The candidate cell.
    pub cell: CellId,
    /// The candidate replacement library cell.
    pub new_lib_cell: LibCellId,
    /// Per-arc replacement annotations.
    pub arc_deltas: Vec<ArcDelta>,
    /// Estimated worst-transition stage delay change (ps; negative is an
    /// improvement). Sum over all affected arcs of the worst-edge delta.
    pub stage_delta_ps: f64,
}

/// Estimates the local delay impact of resizing `cell` to `new_lib_cell`.
///
/// Requires a timed engine (delays/slews from the last update). The
/// estimate holds the neighbourhood fixed, exactly like the commercial
/// command: flop launch arcs upstream of the cell are *not* re-estimated
/// (the committed incremental update handles them exactly).
///
/// # Panics
///
/// Panics if `new_lib_cell` is not in the same gate-class family as the
/// cell's current library cell.
pub fn estimate_eco(
    design: &Design,
    sta: &RefSta,
    cell: CellId,
    new_lib_cell: LibCellId,
) -> EcoEstimate {
    let graph = sta.graph();
    let delays = sta.delays();
    let lib = design.library();
    let old_lc = design.lib_cell_of(cell);
    let new_lc = lib.cell(new_lib_cell);
    assert_eq!(
        old_lc.class, new_lc.class,
        "estimate_eco candidates must stay within the family"
    );

    let mut arc_deltas: Vec<ArcDelta> = Vec::new();
    let mut stage_delta = 0.0_f64;
    let push = |arc: u32, mean: [f64; 2], sigma: [f64; 2], deltas: &mut Vec<ArcDelta>| {
        let old = delays.mean[arc as usize];
        let worst_delta = (mean[0] - old[0]).max(mean[1] - old[1]);
        deltas.push(ArcDelta { arc, mean, sigma });
        worst_delta
    };

    // (a) The cell's own combinational arcs: same input slews and output
    // load, new tables.
    for &out_pin in &design.cell(cell).pins {
        if !design.pin(out_pin).is_driver() {
            continue;
        }
        let Some(out_node) = graph.node_of(out_pin) else {
            continue;
        };
        let load = design.driver_load_ff(out_pin);
        for &ai in graph.fanin(out_node) {
            let arc = graph.arc(ai);
            let TimingArcKind::Cell { lib_arc, .. } = arc.kind else {
                continue;
            };
            let la = &new_lc.arcs()[lib_arc as usize];
            let mut mean = [0.0; 2];
            let mut sigma = [0.0; 2];
            for tr in Transition::BOTH {
                let s_in = la
                    .input_transitions_for(tr)
                    .iter()
                    .map(|itr| delays.node_slew[arc.from.index()][itr.index()])
                    .fold(0.0_f64, f64::max);
                let d = la.delay(tr).lookup(s_in, load);
                mean[tr.index()] = d;
                sigma[tr.index()] = la.sigma_coeff * d;
            }
            stage_delta += push(ai, mean, sigma, &mut arc_deltas);
        }
    }

    // (b) Net arcs into the cell's input pins (sink caps changed) and
    // (c) upstream drivers' cell arcs (their load changed).
    for (pi, &in_pin) in design.cell(cell).pins.iter().enumerate() {
        let p = design.pin(in_pin);
        if p.is_driver() {
            continue;
        }
        let old_cap = old_lc.pin(insta_liberty::LibPinId(pi as u32)).cap_ff;
        let new_cap = new_lc.pin(insta_liberty::LibPinId(pi as u32)).cap_ff;
        let delta_cap = new_cap - old_cap;
        let Some(net_id) = p.net else { continue };
        let net = design.net(net_id);
        let Some(in_node) = graph.node_of(in_pin) else {
            continue;
        };

        // (b) Elmore of the branch into this pin with the new sink cap.
        for &ai in graph.fanin(in_node) {
            let arc = graph.arc(ai);
            let TimingArcKind::Net { net: nid, sink_pos } = arc.kind else {
                continue;
            };
            let wire = design.net(nid).sink_wires[sink_pos as usize];
            let elmore = wire.res_kohm * (wire.cap_ff / 2.0 + new_cap);
            let sig = crate::delay::NET_SIGMA_COEFF * elmore;
            stage_delta += push(ai, [elmore; 2], [sig; 2], &mut arc_deltas);
        }

        // (c) Driver cell arcs with the adjusted load.
        let drv_pin = net.driver;
        let Some(drv_node) = graph.node_of(drv_pin) else {
            continue;
        };
        let new_load = design.driver_load_ff(drv_pin) + delta_cap;
        for &ai in graph.fanin(drv_node) {
            let arc = graph.arc(ai);
            let TimingArcKind::Cell { cell: drv_cell, lib_arc } = arc.kind else {
                continue;
            };
            let la = &design.lib_cell_of(drv_cell).arcs()[lib_arc as usize];
            let mut mean = [0.0; 2];
            let mut sigma = [0.0; 2];
            for tr in Transition::BOTH {
                let s_in = la
                    .input_transitions_for(tr)
                    .iter()
                    .map(|itr| delays.node_slew[arc.from.index()][itr.index()])
                    .fold(0.0_f64, f64::max);
                let d = la.delay(tr).lookup(s_in, new_load);
                mean[tr.index()] = d;
                sigma[tr.index()] = la.sigma_coeff * d;
            }
            stage_delta += push(ai, mean, sigma, &mut arc_deltas);
        }
    }

    EcoEstimate {
        cell,
        new_lib_cell,
        arc_deltas,
        stage_delta_ps: stage_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::{RefSta, StaConfig};
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    fn timed() -> (insta_netlist::Design, RefSta) {
        let d = generate_design(&GeneratorConfig::small("eco", 17));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        (d, sta)
    }

    fn pick_comb(design: &insta_netlist::Design) -> CellId {
        (0..design.cells().len() as u32)
            .map(CellId)
            .find(|&c| {
                let lc = design.lib_cell_of(c);
                if lc.is_sequential()
                    || lc.class == insta_liberty::GateClass::ClkBuf
                    || lc.drive != 1
                {
                    return false;
                }
                // Require a loaded output: at zero load, upsizing does not
                // change the (intrinsic-dominated) delay.
                design
                    .cell(c)
                    .pins
                    .iter()
                    .any(|&p| design.pin(p).is_driver() && design.driver_load_ff(p) > 1.0)
            })
            .expect("loaded drive-1 comb cell")
    }

    #[test]
    fn upsizing_reduces_own_arc_delay() {
        let (d, sta) = timed();
        let cell = pick_comb(&d);
        let lib = d.library();
        let class = d.lib_cell_of(cell).class;
        let big = *lib.family(class).last().expect("family");
        let est = estimate_eco(&d, &sta, cell, big);
        assert!(!est.arc_deltas.is_empty());
        // Find the cell's own arc and verify it got faster.
        let graph = sta.graph();
        let own: Vec<&ArcDelta> = est
            .arc_deltas
            .iter()
            .filter(|ad| {
                matches!(
                    graph.arc(ad.arc).kind,
                    TimingArcKind::Cell { cell: c, .. } if c == cell
                )
            })
            .collect();
        assert!(!own.is_empty());
        for ad in own {
            let old = sta.delays().mean[ad.arc as usize];
            assert!(
                ad.mean[0] < old[0] && ad.mean[1] < old[1],
                "upsized cell arc should be faster: {:?} -> {:?}",
                old,
                ad.mean
            );
        }
    }

    #[test]
    fn upsizing_slows_upstream_drivers() {
        let (d, sta) = timed();
        let cell = pick_comb(&d);
        let lib = d.library();
        let class = d.lib_cell_of(cell).class;
        let big = *lib.family(class).last().expect("family");
        let est = estimate_eco(&d, &sta, cell, big);
        let graph = sta.graph();
        let upstream: Vec<&ArcDelta> = est
            .arc_deltas
            .iter()
            .filter(|ad| {
                matches!(
                    graph.arc(ad.arc).kind,
                    TimingArcKind::Cell { cell: c, .. } if c != cell
                )
            })
            .collect();
        for ad in &upstream {
            let old = sta.delays().mean[ad.arc as usize];
            assert!(
                ad.mean[0] >= old[0] - 1e-12,
                "bigger input cap cannot speed the upstream driver"
            );
        }
    }

    #[test]
    fn identity_resize_estimates_no_change() {
        let (d, sta) = timed();
        let cell = pick_comb(&d);
        let same = d.cell(cell).lib_cell;
        let est = estimate_eco(&d, &sta, cell, same);
        assert!(est.stage_delta_ps.abs() < 1e-9, "{}", est.stage_delta_ps);
        for ad in &est.arc_deltas {
            let old_m = sta.delays().mean[ad.arc as usize];
            assert!((ad.mean[0] - old_m[0]).abs() < 1e-9);
            assert!((ad.mean[1] - old_m[1]).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "within the family")]
    fn cross_family_estimate_panics() {
        let (d, sta) = timed();
        let cell = pick_comb(&d);
        let other = d
            .library()
            .cells()
            .iter()
            .position(|c| c.class != d.lib_cell_of(cell).class)
            .map(|i| LibCellId(i as u32))
            .expect("other class");
        estimate_eco(&d, &sta, cell, other);
    }

    #[test]
    fn a_delta_round_trips_its_wire_form_and_refuses_a_malformed_one() {
        let d = ArcDelta {
            arc: u32::MAX,
            mean: [12.5, -0.0],
            sigma: [1.25, f64::INFINITY],
        };
        let text = d.to_json().to_string();
        assert_eq!(
            text,
            r#"{"arc":4294967295.0,"mean":[12.5,-0.0],"sigma":[1.25,"inf"]}"#
        );
        let back = ArcDelta::from_json(&insta_support::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.arc, d.arc);
        assert_eq!(back.mean.map(f64::to_bits), d.mean.map(f64::to_bits));
        assert_eq!(back.sigma.map(f64::to_bits), d.sigma.map(f64::to_bits));

        for (bad, field) in [
            (r#"{"arc":4294967296,"mean":[1,1],"sigma":[1,1]}"#, "arc"),
            (r#"{"arc":3,"mean":[1],"sigma":[1,1]}"#, "mean"),
            (r#"{"arc":3,"mean":[1,1],"sigma":[1,1,1]}"#, "sigma"),
            (r#"{"arc":3,"mean":[1,1],"sigma":1}"#, "sigma"),
        ] {
            let err = ArcDelta::from_json(&insta_support::json::parse(bad).unwrap()).unwrap_err();
            assert!(
                err.msg.contains(&format!("field `{field}`")),
                "{bad}: {err}"
            );
        }
    }
}
