//! INSTA-Size: gradient-based gate sizing (paper §III-H).
//!
//! One backward pass on INSTA's TNS yields every stage's timing gradient;
//! stages above a magnitude threshold are visited in descending order.
//! For each stage, every family member's `estimate_eco` what-if deltas are
//! scored in **one batched INSTA evaluation** ([`InstaEngine::evaluate_batch`]
//! — the paper's batched candidate scoring of §IV-B): the candidate with
//! the best true design TNS wins, is committed, and the commit is verified
//! against exact golden delays inside a transactional session, rolling
//! back if TNS degrades. A committed stage blocks its 3-hop neighbourhood
//! for the rest of the round, matching the paper's interference mitigation
//! (`estimate_eco` assumes frozen neighbours).

use crate::stage::{cell_neighborhood, stage_gradients};
use insta_engine::{CornerTransform, DeltaSet, InstaConfig, InstaEngine, Scenario};
use insta_netlist::{CellId, Design, TimingArcKind};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{estimate_eco, RefSta};
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

/// Reads exact replacement annotations for the given graph arcs from the
/// reference engine's current state (used to sync INSTA after rollbacks).
fn deltas_from_golden(golden: &RefSta, arcs: impl Iterator<Item = u32>) -> Vec<ArcDelta> {
    let delays = golden.delays();
    arcs.map(|a| ArcDelta {
        arc: a,
        mean: delays.mean[a as usize],
        sigma: delays.sigma[a as usize],
    })
    .collect()
}

/// The graph arcs belonging to a cell's stage (its cell arcs plus the net
/// arcs it drives) — re-synced from the golden engine after commits.
fn stage_arcs(design: &Design, golden: &RefSta, cell: CellId) -> Vec<u32> {
    let graph = golden.graph();
    let mut arcs = Vec::new();
    for &pin in &design.cell(cell).pins {
        let Some(node) = graph.node_of(pin) else { continue };
        for &ai in graph.fanin(node) {
            arcs.push(ai);
        }
        if design.pin(pin).is_driver() {
            for &ai in graph.fanout(node) {
                if matches!(graph.arc(ai).kind, TimingArcKind::Net { .. }) {
                    arcs.push(ai);
                }
            }
        }
    }
    arcs
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
/// (fields: commits, TNS) and a `sizer.resync` span per drift-triggered
/// golden resync — the same taxonomy the engine's own trace sink uses.
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
    let t_start = Instant::now();
    if let Some(r) = rec.as_deref_mut() {
        r.begin("sizer.run");
    }
    let before = golden.full_update(design);
    let original: Vec<insta_liberty::LibCellId> =
        design.cells().iter().map(|c| c.lib_cell).collect();

    let mut engine = InstaEngine::new(golden.export_insta_init(), cfg.engine.clone()).expect("valid snapshot");
    let mut backward_s = 0.0;
    let lib = design.library_arc();

    for _round in 0..cfg.rounds {
        if let Some(r) = rec.as_deref_mut() {
            r.begin("sizer.round");
        }
        if engine.drift_exceeded() {
            // The incremental annotations have drifted past the configured
            // budget: resync every arc from the golden engine's exact
            // delays and reset the odometer.
            if let Some(r) = rec.as_deref_mut() {
                r.begin("sizer.resync");
            }
            let n_arcs = golden.delays().mean.len() as u32;
            let resync = deltas_from_golden(golden, 0..n_arcs);
            engine.reannotate(&resync).expect("golden arcs are in range");
            engine.reset_drift();
            if let Some(r) = rec.as_deref_mut() {
                r.end_with(&[("arcs", f64::from(n_arcs))]);
            }
        }
        engine.propagate();
        engine.forward_lse();
        let t_b = Instant::now();
        engine.backward_tns();
        backward_s += t_b.elapsed().as_secs_f64();

        let stages = stage_gradients(design, golden.graph(), &engine);
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
            let cur_lib = design.cell(stage.cell).lib_cell;
            let class = design.lib_cell_of(stage.cell).class;
            // Score every family member's estimated what-if deltas in one
            // batched INSTA evaluation: each candidate is a scenario, and
            // the winner is the one with the best *true design TNS* — not
            // the local stage-delay heuristic. A quarantined candidate
            // (poisoned estimate) simply drops out of the race.
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
            let tns_prev = engine.report().tns_ps;
            // With corners configured, each candidate gets an identity lane
            // plus one lane per corner transform, and the race is ranked by
            // worst-corner TNS — a move that helps nominally but regresses a
            // pessimistic corner loses. The commit gate below still compares
            // the identity-lane TNS against `tns_prev`, so corner pessimism
            // never loosens the acceptance bar.
            let best: Option<(usize, f64)> = if cfg.corners.is_empty() {
                let scenarios: Vec<DeltaSet> = candidates
                    .iter()
                    .map(|(_, est)| DeltaSet::from(est.arc_deltas.clone()))
                    .collect();
                engine
                    .evaluate_batch(&scenarios)
                    .iter()
                    .filter_map(|r| r.outcome.as_ref().ok().map(|rep| (r.scenario, rep.tns_ps)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
            } else {
                let lanes_per = 1 + cfg.corners.len();
                let mut scenarios = Vec::with_capacity(candidates.len() * lanes_per);
                for (_, est) in &candidates {
                    scenarios.push(Scenario::from(est.arc_deltas.clone()));
                    for &c in &cfg.corners {
                        scenarios.push(Scenario::from(est.arc_deltas.clone()).with_corner(c));
                    }
                }
                let mcmm = engine.evaluate_mcmm(&scenarios);
                let mut ranked: Option<(usize, f64, f64)> = None; // (pick, worst, identity)
                for k in 0..candidates.len() {
                    let group = &mcmm.scenarios[k * lanes_per..(k + 1) * lanes_per];
                    let Some(tns) = group
                        .iter()
                        .map(|lr| lr.outcome.as_ref().ok().map(|rep| rep.tns_ps))
                        .collect::<Option<Vec<f64>>>()
                    else {
                        continue; // a quarantined lane drops the candidate
                    };
                    let worst = tns.iter().copied().fold(f64::INFINITY, f64::min);
                    if ranked.map_or(true, |r| worst > r.1) {
                        ranked = Some((k, worst, tns[0]));
                    }
                }
                ranked.map(|(k, _, identity)| (k, identity))
            };
            let Some((pick, batch_tns)) = best else { continue };
            if batch_tns <= tns_prev {
                continue; // no candidate improves the design TNS
            }
            let cand = candidates[pick].0;
            design.resize_cell(stage.cell, cand);
            golden.incremental_update(design, &[stage.cell]);
            // Sync INSTA from the (now exact) golden annotation of the
            // whole stage — tighter than the raw estimate — inside a
            // transactional session: a rejected or poisoned move rolls the
            // engine back bit-identically instead of replaying inverse
            // deltas through a second update.
            let sync = deltas_from_golden(golden, stage_arcs(design, golden, stage.cell).into_iter());
            let mut session = engine.begin_session();
            let accept =
                matches!(session.update_timing(&sync), Ok(report) if report.tns_ps >= tns_prev);
            if accept {
                session.commit().expect("session is open");
                committed_this_round += 1;
                blocked.extend(cell_neighborhood(design, stage.cell, cfg.block_hops));
            } else {
                // TNS degraded (paper §III-H) or the update poisoned the
                // engine (already auto-rolled-back; rollback() is then a
                // no-op).
                session.rollback();
                design.resize_cell(stage.cell, cur_lib);
                golden.incremental_update(design, &[stage.cell]);
                continue;
            }
        }
        if let Some(r) = rec.as_deref_mut() {
            r.end_with(&[
                ("committed", committed_this_round as f64),
                ("tns_ps", engine.report().tns_ps),
            ]);
        }
        if committed_this_round == 0 {
            break;
        }
    }

    let after = golden.full_update(design);
    let cells_sized = design
        .cells()
        .iter()
        .zip(&original)
        .filter(|(c, &orig)| c.lib_cell != orig)
        .count();
    if let Some(r) = rec.as_deref_mut() {
        r.end_with(&[
            ("cells_sized", cells_sized as f64),
            ("tns_after_ps", after.tns_ps),
            ("backward_s", backward_s),
        ]);
    }
    SizeOutcome {
        wns_before_ps: before.wns_ps,
        wns_after_ps: after.wns_ps,
        tns_before_ps: before.tns_ps,
        tns_after_ps: after.tns_ps,
        violations_before: before.n_violations,
        violations_after: after.n_violations,
        cells_sized,
        runtime_s: t_start.elapsed().as_secs_f64(),
        backward_runtime_s: backward_s,
    }
}

/// Convenience: the per-endpoint slack vector of the golden engine (used
/// by flows comparing sizers on identical metrics).
pub fn golden_slacks(golden: &RefSta) -> Vec<f64> {
    golden
        .report()
        .endpoints
        .iter()
        .map(|e| e.slack_ps)
        .collect()
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

        // A small drift budget: the run resyncs every arc from the golden
        // engine between rounds, and still improves TNS.
        let mut design = violating_design(7);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let n_arcs = golden.delays().mean.len() as f64;
        let cfg = InstaSizeConfig {
            engine: InstaConfig {
                drift_policy: insta_engine::DriftPolicy {
                    max_updates: 2,
                    max_touched_mass: 0.0,
                },
                ..InstaSizeConfig::default().engine
            },
            ..InstaSizeConfig::default()
        };
        let mut rec = Recorder::new();
        let outcome = insta_size_traced(&mut design, &mut golden, &cfg, &mut rec);
        let resyncs: Vec<_> = rec.events().filter(|e| e.name == "sizer.resync").collect();
        assert!(!resyncs.is_empty(), "the budget must run out");
        assert!(resyncs.iter().all(|e| e.field("arcs") == Some(n_arcs)));
        assert!(
            outcome.tns_after_ps > outcome.tns_before_ps,
            "TNS {} -> {}",
            outcome.tns_before_ps,
            outcome.tns_after_ps
        );
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
