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
use insta_engine::{CornerTransform, InstaConfig, PassOptions, Scenario};
use insta_liberty::LibCellId;
use insta_netlist::{CellId, Design};
use insta_refsta::{estimate_eco, RefSta, StaReport};
use insta_support::obs::Recorder;
use std::collections::HashSet;
use std::time::Instant;

/// Configuration of INSTA-Size.
#[derive(Debug, Clone)]
pub struct InstaSizeConfig {
    /// Gradient-magnitude threshold as a fraction of the round's largest
    /// stage gradient.
    pub grad_threshold_frac: f64,
    /// Maximum stages visited per round.
    pub max_stages_per_round: usize,
    /// Optimization rounds (gradient refresh between rounds).
    pub rounds: usize,
    /// Neighbourhood blocking radius in cell hops (paper: 3).
    pub block_hops: usize,
    /// INSTA engine settings (`lse_tau` is the paper's τ; 0.01 in §IV-C).
    pub engine: InstaConfig,
    /// Extra analysis corners the candidate scorer sweeps. Empty (the
    /// default) scores each candidate at the annotated corner only;
    /// non-empty adds one MCMM lane per transform to every candidate and
    /// ranks candidates by their **worst-corner** TNS, so a move that
    /// helps nominally but regresses a pessimistic corner loses the race.
    pub corners: Vec<CornerTransform>,
}

impl Default for InstaSizeConfig {
    fn default() -> Self {
        Self {
            grad_threshold_frac: 0.005,
            max_stages_per_round: 400,
            rounds: 12,
            block_hops: 3,
            engine: InstaConfig {
                lse_tau: 0.01,
                ..InstaConfig::default()
            },
            corners: Vec::new(),
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
    /// Backward-kernel runtime accumulated over the run (s) — the paper's
    /// `bRT` column.
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
pub fn insta_size(
    design: &mut Design,
    golden: &mut RefSta,
    cfg: &InstaSizeConfig,
) -> SizeOutcome {
    insta_size_with(design, golden, cfg, None)
}

/// [`insta_size`] with a span recorder: the run is journaled as one
/// `sizer.run` span containing a `sizer.round` span per optimization round
/// (fields: commits, TNS) — the same taxonomy the engine's own trace sink
/// uses.
pub fn insta_size_traced(
    design: &mut Design,
    golden: &mut RefSta,
    cfg: &InstaSizeConfig,
    recorder: &mut Recorder,
) -> SizeOutcome {
    insta_size_with(design, golden, cfg, Some(recorder))
}

fn insta_size_with(
    design: &mut Design,
    golden: &mut RefSta,
    cfg: &InstaSizeConfig,
    mut rec: Option<&mut Recorder>,
) -> SizeOutcome {
    if let Some(r) = rec.as_deref_mut() {
        r.begin("sizer.run");
    }
    let run = SizeRun::start(design, golden);
    let mut timer = Coupled::new(design, golden, cfg.engine.clone());
    let mut backward_s = 0.0;
    let lib = timer.design().library_arc();

    for _round in 0..cfg.rounds {
        if let Some(r) = rec.as_deref_mut() {
            r.begin("sizer.round");
        }
        let engine = timer.engine_mut();
        engine.propagate();
        engine.forward_lse();
        let t_b = Instant::now();
        engine.backward_tns();
        backward_s += t_b.elapsed().as_secs_f64();

        let stages = stage_gradients(timer.design(), timer.golden().graph(), timer.engine());
        let Some(max_mag) = stages.first().map(|s| s.magnitude) else {
            if let Some(r) = rec.as_deref_mut() {
                r.end_with(&[("committed", 0.0), ("stalled", 1.0)]);
            }
            break; // no gradient flow → nothing to fix
        };
        let threshold = max_mag * cfg.grad_threshold_frac;
        let mut blocked: HashSet<CellId> = HashSet::new();
        let mut committed_this_round = 0usize;

        for stage in stages.iter().take(cfg.max_stages_per_round) {
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
            // Each candidate gets an identity lane plus one lane per
            // configured corner, and the race is ranked by worst-corner
            // TNS, the later candidate winning a tie: a move that helps
            // nominally but regresses a pessimistic corner loses. The
            // commit gate below still compares the identity-lane TNS with
            // `tns_prev`, so corner pessimism never loosens the bar.
            let lanes = 1 + cfg.corners.len();
            let mut scenarios = Vec::with_capacity(candidates.len() * lanes);
            for (_, est) in &candidates {
                let identity = Scenario::from(est.arc_deltas.clone());
                scenarios.push(identity.clone());
                scenarios.extend(cfg.corners.iter().map(|&c| identity.clone().with_corner(c)));
            }
            let reports = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
            let best = reports.chunks(lanes).enumerate().filter_map(|(k, group)| {
                let tns = group.iter().map(|r| r.outcome.as_ref().ok().map(|rep| rep.tns_ps));
                // A quarantined lane (poisoned estimate) drops the candidate.
                let tns: Vec<f64> = tns.collect::<Option<_>>()?;
                Some((k, tns.iter().copied().fold(f64::INFINITY, f64::min), tns[0]))
            });
            let best = best.max_by(|a, b| a.1.total_cmp(&b.1));
            let Some((pick, _, batch_tns)) = best else { continue };
            if batch_tns <= tns_prev {
                continue; // no candidate improves the design TNS
            }
            // Commit the winner at exact golden delays; a move that
            // degrades TNS (paper §III-H) or poisons the engine is undone.
            let cell = stage.cell;
            if timer.try_resize(cell, candidates[pick].0, |r| r.tns_ps >= tns_prev) {
                committed_this_round += 1;
                blocked.extend(cell_neighborhood(timer.design(), cell, cfg.block_hops));
            }
        }
        if let Some(r) = rec.as_deref_mut() {
            r.end_with(&[
                ("committed", committed_this_round as f64),
                ("tns_ps", timer.engine().report().tns_ps),
            ]);
        }
        if committed_this_round == 0 {
            break;
        }
    }

    let outcome = run.finish(design, golden, backward_s);
    if let Some(r) = rec {
        r.end_with(&[
            ("cells_sized", outcome.cells_sized as f64),
            ("tns_after_ps", outcome.tns_after_ps),
            ("backward_s", backward_s),
        ]);
    }
    outcome
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
    fn traced_sizing_journals_rounds_and_the_run() {
        let mut design = violating_design(7);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let mut rec = Recorder::new();
        let outcome =
            insta_size_traced(&mut design, &mut golden, &InstaSizeConfig::default(), &mut rec);
        assert!(outcome.cells_sized > 0);
        assert_eq!(rec.open_depth(), 0, "all spans closed");
        let rounds: Vec<_> = rec.events().filter(|e| e.name == "sizer.round").collect();
        assert!(!rounds.is_empty());
        assert!(rounds.iter().all(|e| e.depth == 1), "rounds nest in the run");
        assert!(rounds.iter().any(|e| e.field("committed").unwrap_or(0.0) > 0.0));
        let run = rec.events().last().expect("journal non-empty");
        assert_eq!(run.name, "sizer.run");
        assert_eq!(run.field("cells_sized"), Some(outcome.cells_sized as f64));
        assert!(run.field("backward_s").is_some_and(|s| s > 0.0));
    }

    #[test]
    fn corner_swept_sizing_improves_tns_under_pessimism() {
        let mut design = violating_design(7);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = golden.full_update(&design);
        assert!(before.n_violations > 0, "need violations to fix");
        let cfg = InstaSizeConfig {
            corners: vec![
                CornerTransform::scale(1.06, 1.15),
                CornerTransform {
                    mean_scale: 0.94,
                    mean_offset_ps: 2.0,
                    sigma_scale: 1.05,
                    sigma_offset_ps: 0.0,
                },
            ],
            ..InstaSizeConfig::default()
        };
        let outcome = insta_size(&mut design, &mut golden, &cfg);
        assert!(
            outcome.tns_after_ps > outcome.tns_before_ps,
            "worst-corner ranked sizing must still improve nominal TNS: {} -> {}",
            outcome.tns_before_ps,
            outcome.tns_after_ps
        );
        assert!(outcome.cells_sized > 0);
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
