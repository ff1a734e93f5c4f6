//! INSTA-Size: gradient-based gate sizing (paper §III-H).
//!
//! One backward pass on INSTA's TNS yields every stage's timing gradient;
//! stages above a magnitude threshold are visited in descending order.
//! For each stage, every family member's `estimate_eco` what-if deltas are
//! scored in **one batched INSTA evaluation**
//! ([`InstaEngine::evaluate`](insta_engine::InstaEngine::evaluate)
//! — the paper's batched candidate scoring of §IV-B). The candidate with
//! the best true design TNS is tried as one [`Coupled::try_resize`]: the
//! reference re-times it exactly, the engine syncs what changed, and the
//! move is rolled back if TNS degrades. A committed stage blocks its 3-hop
//! neighbourhood for the rest of the round, matching the paper's
//! interference mitigation (`estimate_eco` assumes frozen neighbours).

use crate::coupled::Coupled;
use crate::stage::{cell_neighborhood, stage_gradients};
use insta_engine::{InstaConfig, PassOptions, Scenario};
use insta_liberty::LibCellId;
use insta_netlist::{CellId, Design};
use insta_refsta::{estimate_eco, RefSta, StaReport};
use std::collections::HashSet;
use std::time::Instant;

/// Gradient-magnitude threshold as a fraction of the round's largest stage
/// gradient.
const GRAD_THRESHOLD_FRAC: f64 = 0.005;
/// Maximum stages visited per round.
const MAX_STAGES_PER_ROUND: usize = 400;
/// Optimization rounds (gradient refresh between rounds).
const ROUNDS: usize = 12;
/// Neighbourhood blocking radius in cell hops (paper: 3).
const BLOCK_HOPS: usize = 3;

/// Configuration of INSTA-Size.
#[derive(Debug, Clone)]
pub struct InstaSizeConfig {
    /// INSTA engine settings (`lse_tau` is the paper's τ; 0.01 in §IV-C).
    pub engine: InstaConfig,
}

impl Default for InstaSizeConfig {
    fn default() -> Self {
        Self {
            engine: InstaConfig {
                lse_tau: 0.01,
                ..InstaConfig::default()
            },
        }
    }
}

/// Outcome of a sizing run (shared by both sizers; Table II's rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeOutcome {
    /// WNS before optimization (ps).
    pub wns_before_ps: f64,
    /// WNS after optimization (ps).
    pub wns_after_ps: f64,
    /// TNS before optimization (ps).
    pub tns_before_ps: f64,
    /// TNS after optimization (ps).
    pub tns_after_ps: f64,
    /// Violating endpoints before.
    pub violations_before: usize,
    /// Violating endpoints after.
    pub violations_after: usize,
    /// Number of cells whose size changed at the end.
    pub cells_sized: usize,
    /// Total wall-clock runtime (s).
    pub runtime_s: f64,
    /// Gradient runtime accumulated over the run (s) — the paper's `bRT`
    /// column: each round's one `backward_tns` call, its LSE pass
    /// included.
    pub backward_runtime_s: f64,
}

/// Where a sizing run starts: its clock, the signoff report of the design
/// and every cell's size.
pub(crate) struct SizeRun {
    t_start: Instant,
    pub(crate) before: StaReport,
    sizes: Vec<LibCellId>,
}

impl SizeRun {
    /// Times `design` in full and records where the run starts.
    pub(crate) fn start(design: &Design, golden: &mut RefSta) -> Self {
        Self {
            t_start: Instant::now(),
            before: golden.full_update(design),
            sizes: design.cells().iter().map(|c| c.lib_cell).collect(),
        }
    }

    /// Times the sized design in full: the run's outcome, counting each
    /// cell whose size differs from the start once.
    pub(crate) fn finish(
        self,
        design: &Design,
        golden: &mut RefSta,
        backward_s: f64,
    ) -> SizeOutcome {
        let after = golden.full_update(design);
        let cells = design.cells().iter().zip(&self.sizes);
        SizeOutcome {
            wns_before_ps: self.before.wns_ps,
            wns_after_ps: after.wns_ps,
            tns_before_ps: self.before.tns_ps,
            tns_after_ps: after.tns_ps,
            violations_before: self.before.n_violations,
            violations_after: after.n_violations,
            cells_sized: cells.filter(|(c, &size)| c.lib_cell != size).count(),
            runtime_s: self.t_start.elapsed().as_secs_f64(),
            backward_runtime_s: backward_s,
        }
    }
}

/// Runs INSTA-Size on `design`, using `golden` for `estimate_eco` and
/// exact delay refresh. Returns the outcome evaluated by the golden engine
/// (the signoff view of Table II).
pub fn insta_size(design: &mut Design, golden: &mut RefSta, cfg: &InstaSizeConfig) -> SizeOutcome {
    let run = SizeRun::start(design, golden);
    let mut timer = Coupled::new(design, golden, cfg.engine.clone());
    let mut backward_s = 0.0;
    let lib = timer.design().library_arc();

    for _round in 0..ROUNDS {
        // The report is current here (`Coupled` keeps it so), and the
        // call runs the stale LSE pass before the backward sweep.
        let t_b = Instant::now();
        timer.engine_mut().backward_tns();
        backward_s += t_b.elapsed().as_secs_f64();

        let stages = stage_gradients(timer.design(), timer.golden().graph(), timer.engine());
        let Some(max_mag) = stages.first().map(|s| s.magnitude) else {
            break; // no gradient flow → nothing to fix
        };
        let threshold = max_mag * GRAD_THRESHOLD_FRAC;
        let mut blocked: HashSet<CellId> = HashSet::new();
        let mut committed_this_round = 0usize;

        for stage in stages.iter().take(MAX_STAGES_PER_ROUND) {
            if stage.magnitude < threshold {
                break;
            }
            if blocked.contains(&stage.cell) {
                continue;
            }
            let (design, golden) = (timer.design(), timer.golden());
            let cur_lib = design.cell(stage.cell).lib_cell;
            let class = design.lib_cell_of(stage.cell).class;
            // Score every family member's estimated what-if deltas in one
            // batched INSTA evaluation: the winner is the candidate with
            // the best *true design TNS*, not the best local stage delay.
            let candidates: Vec<_> = lib
                .family(class)
                .iter()
                .copied()
                .filter(|&cand| cand != cur_lib)
                .map(|cand| (cand, estimate_eco(design, golden, stage.cell, cand)))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let engine = timer.engine_mut();
            let tns_prev = engine.report().tns_ps;
            // One lane per candidate; the best TNS wins, the later
            // candidate on a tie, and a quarantined lane (a poisoned
            // estimate) drops its candidate.
            let scenarios: Vec<Scenario> = candidates
                .iter()
                .map(|(_, est)| Scenario::from(est.arc_deltas.clone()))
                .collect();
            let reports = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
            let best = reports
                .iter()
                .enumerate()
                .filter_map(|(k, r)| r.outcome.as_ref().ok().map(|rep| (k, rep.tns_ps)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            let Some((pick, batch_tns)) = best else {
                continue;
            };
            if batch_tns <= tns_prev {
                continue; // no candidate improves the design TNS
            }
            // Commit the winner at exact golden delays; a move that
            // degrades TNS (paper §III-H) or poisons the engine is undone.
            let cell = stage.cell;
            if timer.try_resize(cell, candidates[pick].0, |r| r.tns_ps >= tns_prev) {
                committed_this_round += 1;
                blocked.extend(cell_neighborhood(timer.design(), cell, BLOCK_HOPS));
            }
        }
        if committed_this_round == 0 {
            break;
        }
    }

    run.finish(design, golden, backward_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::StaConfig;

    fn violating_design(seed: u64) -> Design {
        let mut cfg = GeneratorConfig::small("isz", seed);
        cfg.clock_period_ps = 170.0;
        generate_design(&cfg)
    }

    #[test]
    fn insta_size_improves_tns_with_few_cells() {
        let mut design = violating_design(7);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = golden.full_update(&design);
        assert!(before.n_violations > 0, "need violations to fix");
        let outcome = insta_size(&mut design, &mut golden, &InstaSizeConfig::default());
        assert!(
            outcome.tns_after_ps > outcome.tns_before_ps,
            "TNS must improve: {} -> {}",
            outcome.tns_before_ps,
            outcome.tns_after_ps
        );
        assert!(outcome.cells_sized > 0);
        assert!(
            outcome.cells_sized < design.cells().len() / 4,
            "gradient targeting must touch few cells"
        );
        assert!(outcome.backward_runtime_s > 0.0);
    }

    #[test]
    fn committed_design_matches_outcome_metrics() {
        let mut design = violating_design(9);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let outcome = insta_size(&mut design, &mut golden, &InstaSizeConfig::default());
        // Re-verify from scratch: the outcome metrics must be reproducible
        // from the committed design alone.
        let mut fresh = RefSta::new(&design, StaConfig::default()).expect("build");
        let report = fresh.full_update(&design);
        assert!((report.tns_ps - outcome.tns_after_ps).abs() < 1e-6);
        assert!((report.wns_ps - outcome.wns_after_ps).abs() < 1e-6);
    }

    #[test]
    fn clean_design_is_left_untouched() {
        let mut cfg = GeneratorConfig::small("isz", 11);
        cfg.clock_period_ps = 50_000.0;
        let mut design = generate_design(&cfg);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = golden.full_update(&design);
        assert_eq!(before.n_violations, 0);
        let outcome = insta_size(&mut design, &mut golden, &InstaSizeConfig::default());
        assert_eq!(outcome.cells_sized, 0);
        assert_eq!(outcome.tns_after_ps, 0.0);
    }
}
