//! Hold (early/min) analysis — the mirror image of the setup engine.
//!
//! The paper's INSTA engine reproduces setup (max) propagation; a complete
//! reference signoff engine also checks hold: the *earliest* data arrival
//! at each flop D pin must not beat the *latest* capture clock edge plus
//! the hold margin, or the previous cycle's data is overwritten. Hold
//! analysis mirrors every setup mechanism with the polarities flipped:
//!
//! * launch clock uses the **early** derate, capture uses **late**,
//! * arrival corners are `mean − N_σ·σ` and merging keeps the **minimum**
//!   (the setup reduction run on the early corner),
//! * CPPR credit *reduces* the hold requirement on the shared clock prefix.

use crate::exceptions::{EpId, SpId};
use crate::sta::{EndpointReport, RefSta, Side, SpArrival, SpMap, StaReport};
use insta_liberty::{ArcKind, Transition};
use insta_netlist::Design;

impl RefSta {
    /// Runs hold analysis. Requires a prior [`RefSta::full_update`] (the
    /// delay annotation and clock timing are shared with setup).
    ///
    /// Returns the hold report; endpoints are the same set as setup (hold
    /// slack for primary outputs is unconstrained and reported as
    /// `INFINITY`).
    pub fn hold_update(&mut self, design: &Design) -> StaReport {
        let n = self.graph.num_nodes();
        let mut arrivals: Vec<[SpMap; 2]> = vec![[Vec::new(), Vec::new()]; n];

        // ---- Early launch initialization --------------------------------
        for (sp_idx, sp) in self.sp_infos.iter().enumerate() {
            let maps = &mut arrivals[sp.node.index()];
            match sp.flop {
                Some(flop) => {
                    let Some(fc) = self.clock.flop(flop).copied() else {
                        continue;
                    };
                    let lc = design.lib_cell_of(flop);
                    let Some(launch) = lc.arcs().iter().find(|a| a.kind == ArcKind::Launch)
                    else {
                        continue;
                    };
                    let load = design.driver_load_ff(sp.pin);
                    for tr in Transition::BOTH {
                        let d = launch.delay(tr).lookup(fc.slew, load);
                        let s = launch.sigma_coeff * d;
                        maps[tr.index()] = vec![SpArrival {
                            sp: sp_idx as u32,
                            mean: fc.mean * self.config.derate_early + d,
                            sigma: (fc.sigma * fc.sigma + s * s).sqrt(),
                        }];
                    }
                }
                None => {
                    for tr in Transition::BOTH {
                        maps[tr.index()] = vec![SpArrival {
                            sp: sp_idx as u32,
                            mean: self.config.input_delay_ps,
                            sigma: 0.0,
                        }];
                    }
                }
            }
        }

        // ---- Min propagation ---------------------------------------------
        let rule = self.prune_rule(Side::Early);
        for &node in self.graph.topo_order() {
            for tr in Transition::BOTH {
                let map = self.reducer.reduce_fanin(
                    &self.graph,
                    &self.delays,
                    &arrivals,
                    node,
                    tr,
                    &rule,
                );
                if let Some(map) = map {
                    arrivals[node.index()][tr.index()].extend_from_slice(map);
                }
            }
        }

        // ---- Hold checks ----------------------------------------------------
        let tree = self.graph.clock_tree();
        let mut endpoints = Vec::with_capacity(self.ep_infos.len());
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut viol = 0usize;
        for (ep_idx, ep) in self.ep_infos.iter().enumerate() {
            let ep_id = EpId(ep_idx as u32);
            let mut best = EndpointReport {
                ep: ep_id,
                pin: ep.pin,
                slack_ps: f64::INFINITY,
                arrival_ps: f64::INFINITY,
                required_ps: f64::NEG_INFINITY,
                worst_sp: None,
                transition: Transition::Rise,
            };
            // Hold constrains flop data pins only.
            if let Some(capture) = ep.capture {
                if let Some(fc) = self.clock.flop(capture).copied() {
                    let lc = design.lib_cell_of(capture);
                    let hold_margin = lc
                        .arcs()
                        .iter()
                        .find(|a| a.kind == ArcKind::Hold)
                        .map(|a| a.delay(Transition::Rise).lookup(fc.slew, 0.0))
                        .unwrap_or(0.0);
                    let capture_late = fc.mean * self.config.derate_late
                        + self.config.n_sigma * fc.sigma;
                    for tr in Transition::BOTH {
                        for e in &arrivals[ep.node.index()][tr.index()] {
                            let sp_id = SpId(e.sp);
                            if self.config.exceptions.is_false(sp_id, ep_id) {
                                continue;
                            }
                            let mut required = capture_late + hold_margin;
                            if self.config.cppr_enabled {
                                if let (Some(la), Some(lb)) =
                                    (self.sp_infos[e.sp as usize].leaf, ep.leaf)
                                {
                                    required -= self.clock.cppr_credit(tree, la, lb);
                                }
                            }
                            let arrival = e.mean - self.config.n_sigma * e.sigma;
                            let slack = arrival - required;
                            if slack < best.slack_ps {
                                best.slack_ps = slack;
                                best.arrival_ps = arrival;
                                best.required_ps = required;
                                best.worst_sp = Some(sp_id);
                                best.transition = tr;
                            }
                        }
                    }
                }
            }
            if best.slack_ps < 0.0 {
                tns += best.slack_ps;
                viol += 1;
            }
            wns = wns.min(best.slack_ps);
            endpoints.push(best);
        }
        StaReport {
            wns_ps: wns,
            tns_ps: tns,
            n_violations: viol,
            endpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sta::{RefSta, StaConfig};
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    #[test]
    fn hold_report_covers_flop_endpoints_only() {
        let d = generate_design(&GeneratorConfig::small("hold", 3));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let hold = sta.hold_update(&d);
        assert_eq!(hold.endpoints.len(), sta.ep_infos().len());
        for (i, info) in sta.ep_infos().iter().enumerate() {
            if info.capture.is_none() {
                assert_eq!(
                    hold.endpoints[i].slack_ps,
                    f64::INFINITY,
                    "primary outputs are hold-unconstrained"
                );
            } else {
                assert!(hold.endpoints[i].slack_ps.is_finite());
            }
        }
    }

    /// Most endpoints meet hold comfortably (deep min paths), but a
    /// synthetic clock tree's skew can create a handful of genuine hold
    /// violations — real flows fix those with delay buffers. The check:
    /// violations are few and shallow, never the majority.
    #[test]
    fn deep_paths_mostly_meet_hold() {
        let d = generate_design(&GeneratorConfig::medium("hold", 7));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let hold = sta.hold_update(&d);
        let constrained = sta.ep_infos().iter().filter(|e| e.capture.is_some()).count();
        assert!(
            hold.n_violations * 4 < constrained,
            "hold violations must be a small minority: {}/{constrained}",
            hold.n_violations
        );
        // Any violation is skew-scale, not path-scale.
        assert!(hold.wns_ps > -150.0, "hold WNS {} too deep", hold.wns_ps);
    }

    /// Hold slack is insensitive to the clock period (it is an edge-to-edge
    /// same-cycle race), unlike setup slack.
    #[test]
    fn hold_is_period_independent() {
        let mut cfg = GeneratorConfig::small("hold", 11);
        cfg.clock_period_ps = 500.0;
        let d1 = generate_design(&cfg);
        cfg.clock_period_ps = 5000.0;
        let d2 = generate_design(&cfg);
        let mut s1 = RefSta::new(&d1, StaConfig::default()).expect("build");
        let mut s2 = RefSta::new(&d2, StaConfig::default()).expect("build");
        s1.full_update(&d1);
        s2.full_update(&d2);
        let h1 = s1.hold_update(&d1);
        let h2 = s2.hold_update(&d2);
        assert!(
            (h1.wns_ps - h2.wns_ps).abs() < 1e-9,
            "hold WNS must not depend on the period: {} vs {}",
            h1.wns_ps,
            h2.wns_ps
        );
    }

    /// CPPR credit relaxes hold checks (same-leaf launch/capture pairs get
    /// the full shared-path credit).
    #[test]
    fn cppr_helps_hold_too() {
        let d = generate_design(&GeneratorConfig::small("hold", 13));
        let mut with = RefSta::new(&d, StaConfig::default()).expect("build");
        with.full_update(&d);
        let h_with = with.hold_update(&d);
        let mut cfg = StaConfig::default();
        cfg.cppr_enabled = false;
        let mut without = RefSta::new(&d, cfg).expect("build");
        without.full_update(&d);
        let h_without = without.hold_update(&d);
        for (a, b) in h_with.endpoints.iter().zip(&h_without.endpoints) {
            assert!(
                a.slack_ps >= b.slack_ps - 1e-9,
                "credit must not hurt hold slack"
            );
        }
        assert!(h_with.wns_ps >= h_without.wns_ps - 1e-9);
    }
}
