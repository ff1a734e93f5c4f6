//! The reference greedy sizer — Table II's baseline ("PrimeTime's default
//! timing optimization engine" role).
//!
//! Classic slack-driven recovery: per pass, take the worst violating
//! endpoints, backtrace each one's critical path through the arrival maps,
//! and try to upsize every combinational cell along the path (commit if
//! the local `estimate_eco` predicts improvement, verify with an exact
//! incremental update, roll back on TNS regression). Without gradient
//! targeting or neighbourhood blocking this touches many more cells than
//! INSTA-Size for comparable TNS — the contrast Table II reports.

use crate::insta_size::{SizeOutcome, SizeRun};
use insta_liberty::{GateClass, Transition};
use insta_netlist::{CellId, Design, NodeId, TimingArcKind};
use insta_refsta::sta::input_transitions;
use insta_refsta::{estimate_eco, RefSta};
use std::collections::HashSet;

/// Configuration of the reference sizer.
#[derive(Debug, Clone)]
pub struct ReferenceSizeConfig {
    /// Maximum optimization passes.
    pub max_passes: usize,
    /// Violating endpoints examined per pass.
    pub endpoints_per_pass: usize,
}

impl Default for ReferenceSizeConfig {
    fn default() -> Self {
        Self {
            max_passes: 4,
            endpoints_per_pass: 64,
        }
    }
}

/// Backtraces the critical path of an endpoint through the reference
/// engine's arrival maps, returning the combinational cells on it
/// (endpoint side first).
fn backtrace_cells(design: &Design, sta: &RefSta, ep_node: NodeId, mut rf: usize) -> Vec<CellId> {
    let graph = sta.graph();
    let delays = sta.delays();
    let n_sigma = sta.config().n_sigma;
    let mut cells = Vec::new();
    let mut node = ep_node;
    loop {
        let fanin = graph.fanin(node);
        if fanin.is_empty() {
            break;
        }
        // Pick the fanin arc whose parent contribution is largest — the
        // arc the worst arrival came through.
        let mut best: Option<(u32, usize, f64)> = None;
        for &ai in fanin {
            let arc = graph.arc(ai);
            let tr = if rf == 0 { Transition::Rise } else { Transition::Fall };
            for &ptr in input_transitions(delays.sense[ai as usize], tr) {
                let Some(top) = sta.arrivals(arc.from)[ptr.index()].first() else {
                    continue;
                };
                let score = top.corner(n_sigma) + delays.mean[ai as usize][rf];
                if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                    best = Some((ai, ptr.index(), score));
                }
            }
        }
        let Some((ai, prf, _)) = best else { break };
        let arc = graph.arc(ai);
        if let TimingArcKind::Cell { cell, .. } = arc.kind {
            let lc = design.lib_cell_of(cell);
            if !lc.is_sequential() && lc.class != GateClass::ClkBuf {
                cells.push(cell);
            }
        }
        node = arc.from;
        rf = prf;
    }
    cells
}

/// Runs the greedy reference sizer.
pub fn reference_size(
    design: &mut Design,
    sta: &mut RefSta,
    cfg: &ReferenceSizeConfig,
) -> SizeOutcome {
    let run = SizeRun::start(design, sta);
    let lib = design.library_arc();

    for _pass in 0..cfg.max_passes {
        let report = sta.report().clone();
        let mut violating: Vec<(f64, usize, u8)> = report
            .endpoints
            .iter()
            .enumerate()
            .filter(|(_, e)| e.slack_ps < 0.0)
            .map(|(i, e)| (e.slack_ps, i, e.transition.index() as u8))
            .collect();
        if violating.is_empty() {
            break;
        }
        violating.sort_by(|a, b| a.0.total_cmp(&b.0));
        violating.truncate(cfg.endpoints_per_pass);

        let mut tried: HashSet<CellId> = HashSet::new();
        let mut committed = 0usize;
        for &(_, ep_idx, rf) in &violating {
            let ep_node = sta.ep_infos()[ep_idx].node;
            for cell in backtrace_cells(design, sta, ep_node, rf as usize) {
                if !tried.insert(cell) {
                    continue;
                }
                let cur = design.cell(cell).lib_cell;
                let class = design.lib_cell_of(cell).class;
                let fam = lib.family(class);
                let pos = fam
                    .iter()
                    .position(|&id| id == cur)
                    .expect("cell in family");
                let Some(&bigger) = fam.get(pos + 1) else {
                    continue; // already at max drive
                };
                let est = estimate_eco(design, sta, cell, bigger);
                if est.stage_delta_ps >= 0.0 {
                    continue;
                }
                let tns_prev = sta.report().tns_ps;
                design.resize_cell(cell, bigger);
                let after = sta.incremental_update(design, &[cell]);
                if after.tns_ps < tns_prev {
                    design.resize_cell(cell, cur);
                    sta.incremental_update(design, &[cell]);
                } else {
                    committed += 1;
                }
            }
        }
        if committed == 0 {
            break;
        }
    }

    run.finish(design, sta, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::StaConfig;

    #[test]
    fn reference_sizer_improves_tns() {
        let mut cfg = GeneratorConfig::small("ref", 7);
        cfg.clock_period_ps = 170.0;
        let mut design = generate_design(&cfg);
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = sta.full_update(&design);
        assert!(before.n_violations > 0);
        let outcome = reference_size(&mut design, &mut sta, &ReferenceSizeConfig::default());
        assert!(outcome.tns_after_ps >= outcome.tns_before_ps);
        assert!(outcome.cells_sized > 0);
    }

    #[test]
    fn backtrace_walks_to_a_source() {
        let mut cfg = GeneratorConfig::small("ref", 9);
        cfg.clock_period_ps = 170.0;
        let design = generate_design(&cfg);
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let report = sta.full_update(&design);
        let (ep_idx, e) = report
            .endpoints
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.slack_ps.total_cmp(&b.1.slack_ps))
            .expect("endpoints");
        let cells = backtrace_cells(
            &design,
            &sta,
            sta.ep_infos()[ep_idx].node,
            e.transition.index(),
        );
        assert!(!cells.is_empty(), "critical path must contain comb cells");
        // All returned cells are combinational non-clock cells.
        for c in &cells {
            assert!(!design.lib_cell_of(*c).is_sequential());
        }
    }
}
