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
//!
//! A run's spans (DESIGN.md, "Observability") come back in its outcome's
//! `trace`.

use crate::coupled::Coupled;
use crate::stage::{cell_neighborhood, stage_gradients};
use insta_engine::{InstaConfig, PassOptions, Scenario};
use insta_liberty::LibCellId;
use insta_netlist::{CellId, Design};
use insta_refsta::{estimate_eco, RefSta, StaReport};
use insta_support::obs::Recorder;
use std::collections::HashSet;

/// Gradient-magnitude threshold as a fraction of the round's largest stage
/// gradient.
const GRAD_THRESHOLD_FRAC: f64 = 0.005;
/// Maximum stages visited per round.
const MAX_STAGES_PER_ROUND: usize = 400;
/// Optimization rounds (gradient refresh between rounds).
const ROUNDS: usize = 12;
/// Neighbourhood blocking radius in cell hops (paper: 3).
const BLOCK_HOPS: usize = 3;
/// Journal bound of a sizing run: room for every span of the largest one
/// (power recovery: ≈ 10 800 spans over 3 600 moves), so a reader of the
/// journal splits all its moves by route.
const JOURNAL_CAPACITY: usize = 1 << 15;

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
#[derive(Debug, Clone)]
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
    /// The run's spans (module docs), rooted at `size.run`.
    pub trace: Recorder,
}

/// Where a sizing run starts: its open `size.run` span, the signoff report
/// of the design and every cell's size.
pub(crate) struct SizeRun {
    pub(crate) obs: Recorder,
    pub(crate) before: StaReport,
    sizes: Vec<LibCellId>,
}

impl SizeRun {
    /// Opens the run's root span, times `design` in full and records where
    /// the run starts.
    pub(crate) fn start(design: &Design, golden: &mut RefSta) -> Self {
        let mut obs = Recorder::with_capacity(JOURNAL_CAPACITY);
        obs.begin("size.run");
        obs.begin("size.signoff");
        let before = golden.full_update(design);
        obs.end();
        Self {
            obs,
            before,
            sizes: design.cells().iter().map(|c| c.lib_cell).collect(),
        }
    }

    /// Times the sized design in full and closes the root span: the run's
    /// outcome, counting each cell whose size differs from the start once.
    pub(crate) fn finish(mut self, design: &Design, golden: &mut RefSta) -> SizeOutcome {
        self.obs.begin("size.signoff");
        let after = golden.full_update(design);
        self.obs.end();
        self.obs.end();
        let cells = design.cells().iter().zip(&self.sizes);
        SizeOutcome {
            wns_before_ps: self.before.wns_ps,
            wns_after_ps: after.wns_ps,
            tns_before_ps: self.before.tns_ps,
            tns_after_ps: after.tns_ps,
            violations_before: self.before.n_violations,
            violations_after: after.n_violations,
            cells_sized: cells.filter(|(c, &size)| c.lib_cell != size).count(),
            trace: self.obs,
        }
    }
}

/// Runs INSTA-Size on `design`, using `golden` for `estimate_eco` and
/// exact delay refresh. Returns the outcome evaluated by the golden engine
/// (the signoff view of Table II).
pub fn insta_size(design: &mut Design, golden: &mut RefSta, cfg: &InstaSizeConfig) -> SizeOutcome {
    let mut run = SizeRun::start(design, golden);
    let obs = &mut run.obs;
    let mut timer = Coupled::new(design, golden, cfg.engine.clone());
    let lib = timer.design().library_arc();

    for _round in 0..ROUNDS {
        obs.begin("size.round");
        // The report is current here (`Coupled` keeps it so), and the
        // call runs the stale LSE pass before the backward sweep.
        obs.begin("size.gradient");
        timer.engine_mut().backward_tns();
        obs.end();

        // No gradient flow leaves no stage to visit and ends the run.
        let stages = stage_gradients(timer.design(), timer.golden().graph(), timer.engine());
        let threshold = stages.first().map_or(0.0, |s| s.magnitude) * GRAD_THRESHOLD_FRAC;
        let mut blocked: HashSet<CellId> = HashSet::new();
        let mut committed_this_round = 0usize;

        for stage in stages.iter().take(MAX_STAGES_PER_ROUND) {
            if stage.magnitude < threshold {
                break;
            }
            if blocked.contains(&stage.cell) {
                continue;
            }
            // Score every family member's estimated what-if deltas in one
            // batched INSTA evaluation: the winner is the candidate with
            // the best *true design TNS*, not the best local stage delay.
            obs.begin("size.score");
            let best = 'score: {
                let (design, golden) = (timer.design(), timer.golden());
                let cur_lib = design.cell(stage.cell).lib_cell;
                let candidates: Vec<_> = lib
                    .family(design.lib_cell_of(stage.cell).class)
                    .iter()
                    .copied()
                    .filter(|&cand| cand != cur_lib)
                    .map(|cand| (cand, estimate_eco(design, golden, stage.cell, cand)))
                    .collect();
                if candidates.is_empty() {
                    break 'score None;
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
                reports
                    .iter()
                    .enumerate()
                    .filter_map(|(k, r)| r.outcome.as_ref().ok().map(|rep| (k, rep.tns_ps)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    // The winner only if it improves the design TNS.
                    .filter(|&(_, batch_tns)| batch_tns > tns_prev)
                    .map(|(pick, _)| (candidates[pick].0, tns_prev))
            };
            obs.end();
            // Commit the winner at exact golden delays; a move that
            // degrades TNS (paper §III-H) or poisons the engine is undone.
            let Some((to, tns_prev)) = best else {
                continue;
            };
            let cell = stage.cell;
            if timer.try_resize(obs, cell, to, |r| r.tns_ps >= tns_prev) {
                committed_this_round += 1;
                blocked.extend(cell_neighborhood(timer.design(), cell, BLOCK_HOPS));
            }
        }
        obs.end_with(&[("committed", committed_this_round as f64)]);
        if committed_this_round == 0 {
            break;
        }
    }

    run.finish(design, golden)
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
        let trace = &outcome.trace;
        let (run, gradient) = (trace.sum("size.run"), trace.sum("size.gradient"));
        assert_eq!(run.count, 1);
        assert!(gradient.count > 0 && gradient.ns > 0);
        assert!(trace.sum("size.round").ns <= run.ns);
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
