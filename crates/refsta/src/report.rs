//! `report_timing`-style critical-path reports.
//!
//! Signoff engines are consumed through path reports; this module
//! reconstructs the worst path of an endpoint through the arrival maps and
//! renders the familiar stage-by-stage table: pin, cell, incremental
//! delay, cumulative arrival, then the required-time summary with the
//! CPPR credit line.

use crate::exceptions::EpId;
use crate::sta::{input_transitions, RefSta, N_SIGMA};
use insta_liberty::Transition;
use insta_netlist::{Design, NodeId, TimingArcKind};
use std::fmt::Write as _;

/// One stage of a reconstructed critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStage {
    /// Pin reached by this stage.
    pub pin_name: String,
    /// Owning instance (`None` for ports).
    pub instance: Option<String>,
    /// Transition at the pin (0 = rise, 1 = fall).
    pub transition: Transition,
    /// Incremental corner delay of the arc into this pin (ps); 0 for the
    /// launch point.
    pub incr_ps: f64,
    /// Cumulative corner arrival at this pin (ps).
    pub arrival_ps: f64,
    /// Whether the stage is interconnect (`true`) or a cell arc.
    pub is_net: bool,
}

/// A reconstructed worst path of one endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct PathReport {
    /// The endpoint.
    pub ep: EpId,
    /// Stages from the startpoint to the endpoint (inclusive).
    pub stages: Vec<PathStage>,
    /// Worst slack of the endpoint (ps).
    pub slack_ps: f64,
    /// Required time used (ps), CPPR credit included.
    pub required_ps: f64,
    /// CPPR credit applied to this path (ps).
    pub cppr_credit_ps: f64,
}

impl PathReport {
    /// Renders the report as a fixed-width text table.
    pub fn to_text(&self, design_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Startpoint-to-endpoint path ({design_name})");
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>10} {:>10}  kind",
            "pin", "edge", "incr (ps)", "path (ps)"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>10.2} {:>10.2}  {}",
                s.pin_name,
                match s.transition {
                    Transition::Rise => "r",
                    Transition::Fall => "f",
                },
                s.incr_ps,
                s.arrival_ps,
                if s.is_net { "net" } else { "cell" }
            );
        }
        let _ = writeln!(out, "{:-<60}", "");
        let _ = writeln!(out, "{:<46} {:>10.2}", "required time (with CPPR credit)", self.required_ps);
        let _ = writeln!(out, "{:<46} {:>10.2}", "cppr credit", self.cppr_credit_ps);
        let _ = writeln!(out, "{:<46} {:>10.2}", "slack", self.slack_ps);
        out
    }
}

impl RefSta {
    /// Reconstructs the worst path of endpoint `ep` from the last update's
    /// arrival maps; `None` if the endpoint is unconstrained/unreached.
    pub fn report_path(&self, design: &Design, ep: EpId) -> Option<PathReport> {
        let rpt = self.report().endpoints.get(ep.index())?;
        if !rpt.slack_ps.is_finite() {
            return None;
        }
        let info = self.ep_infos()[ep.index()];

        // Walk backward from the endpoint, at each node picking the fanin
        // arc + parent entry whose contribution explains the node's worst
        // arrival for the tracked startpoint.
        let target_sp = rpt.worst_sp?;
        let mut rf = rpt.transition.index();
        let mut node = info.node;
        let mut rev: Vec<(NodeId, usize, f64, bool)> = Vec::new(); // node, rf, incr, is_net
        loop {
            let fanin = self.graph().fanin(node);
            if fanin.is_empty() {
                break;
            }
            let mut best: Option<(u32, usize, f64, f64)> = None; // arc, prf, score, incr
            for &ai in fanin {
                let arc = self.graph().arc(ai);
                let tr = if rf == 0 { Transition::Rise } else { Transition::Fall };
                let mean = self.delays().mean[ai as usize][rf];
                let sigma = self.delays().sigma[ai as usize][rf];
                for &ptr in input_transitions(self.delays().sense[ai as usize], tr) {
                    let Some(e) = self.arrivals(arc.from)[ptr.index()]
                        .iter()
                        .find(|e| e.sp == target_sp.0)
                    else {
                        continue;
                    };
                    // Corner of the composed distribution along this hop.
                    let comp_sigma = (e.sigma * e.sigma + sigma * sigma).sqrt();
                    let score = e.mean + mean + N_SIGMA * comp_sigma;
                    let incr = score - e.corner(N_SIGMA);
                    if best.map(|(_, _, s, _)| score > s).unwrap_or(true) {
                        best = Some((ai, ptr.index(), score, incr));
                    }
                }
            }
            let Some((ai, prf, _, incr)) = best else { break };
            let arc = self.graph().arc(ai);
            rev.push((
                node,
                rf,
                incr,
                matches!(arc.kind, TimingArcKind::Net { .. }),
            ));
            node = arc.from;
            rf = prf;
        }
        // Launch point.
        rev.push((node, rf, 0.0, false));
        rev.reverse();

        let mut stages = Vec::with_capacity(rev.len());
        let mut cum = self.arrivals(rev[0].0)[rev[0].1]
            .iter()
            .find(|e| e.sp == target_sp.0)
            .map(|e| e.corner(N_SIGMA))
            .unwrap_or(0.0);
        for (i, &(v, vrf, incr, is_net)) in rev.iter().enumerate() {
            if i > 0 {
                cum += incr;
            }
            let pin = self.graph().pin_of(v);
            let p = design.pin(pin);
            stages.push(PathStage {
                pin_name: p.name.clone(),
                instance: p.cell.map(|c| design.cell(c).name.clone()),
                transition: if vrf == 0 {
                    Transition::Rise
                } else {
                    Transition::Fall
                },
                incr_ps: incr,
                arrival_ps: cum,
                is_net,
            });
        }

        // Credit actually applied at the endpoint for this startpoint.
        let credit = match (
            self.sp_infos()[target_sp.index()].leaf,
            info.leaf,
            self.config().cppr_enabled,
        ) {
            (Some(a), Some(b), true) => {
                self.clock().cppr_credit(self.graph().clock_tree(), a, b)
            }
            _ => 0.0,
        };

        Some(PathReport {
            ep,
            stages,
            slack_ps: rpt.slack_ps,
            required_ps: rpt.required_ps,
            cppr_credit_ps: credit,
        })
    }

    /// Reports the `n` worst endpoints' paths, most critical first.
    pub fn report_worst_paths(&self, design: &Design, n: usize) -> Vec<PathReport> {
        let mut order: Vec<(f64, EpId)> = self
            .report()
            .endpoints
            .iter()
            .filter(|e| e.slack_ps.is_finite())
            .map(|e| (e.slack_ps, e.ep))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        order
            .into_iter()
            .take(n)
            .filter_map(|(_, ep)| self.report_path(design, ep))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::sta::{RefSta, StaConfig};
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    fn timed(seed: u64) -> (insta_netlist::Design, RefSta) {
        let mut cfg = GeneratorConfig::small("rpt", seed);
        cfg.clock_period_ps = 300.0;
        let d = generate_design(&cfg);
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        (d, sta)
    }

    #[test]
    fn path_arrival_reconstruction_matches_endpoint_arrival() {
        let (d, sta) = timed(3);
        for rpt in sta.report_worst_paths(&d, 5) {
            let last = rpt.stages.last().expect("stages");
            let ep_arrival = sta.report().endpoints[rpt.ep.index()].arrival_ps;
            assert!(
                (last.arrival_ps - ep_arrival).abs() < 1e-6,
                "reconstructed {} vs reported {}",
                last.arrival_ps,
                ep_arrival
            );
            // Path alternates plausibly and ends at an endpoint pin.
            assert!(rpt.stages.len() >= 2);
            assert_eq!(rpt.stages[0].incr_ps, 0.0);
            for s in &rpt.stages[1..] {
                assert!(s.incr_ps >= 0.0, "negative increment {}", s.incr_ps);
            }
        }
    }

    #[test]
    fn worst_paths_are_ordered_by_slack() {
        let (d, sta) = timed(5);
        let reports = sta.report_worst_paths(&d, 8);
        assert!(!reports.is_empty());
        for w in reports.windows(2) {
            assert!(w[0].slack_ps <= w[1].slack_ps + 1e-9);
        }
    }

    #[test]
    fn text_rendering_contains_summary_lines() {
        let (d, sta) = timed(7);
        let rpt = sta.report_worst_paths(&d, 1).remove(0);
        let text = rpt.to_text(&d.name);
        assert!(text.contains("slack"));
        assert!(text.contains("cppr credit"));
        assert!(text.lines().count() >= rpt.stages.len() + 4);
    }

    #[test]
    fn unreached_endpoint_yields_none() {
        let (d, sta) = timed(9);
        // An out-of-range endpoint id.
        assert!(sta
            .report_path(&d, crate::exceptions::EpId(9999))
            .is_none());
    }
}
