//! Application 1: INSTA as the timing evaluator of a commercial-style
//! sizing flow (paper §IV-B, Figs. 7–8).
//!
//! A shared changelist is replayed while three evaluators time each
//! iteration:
//!
//! * **full** — the reference engine's from-scratch `full_update` (the
//!   commercial-tool role of Fig. 7),
//! * **incremental** — the reference engine's `incremental_update`, which
//!   re-runs delay calculation only on the resized cells' nodes and those
//!   whose fanin slews moved, and re-reduces only the arrival maps a moved
//!   delay or map reaches (the "in-house, highly-optimized CPU STA" role),
//! * **INSTA** — `estimate_eco` re-annotation plus INSTA's update, which
//!   re-propagates the changed fanout cone and lands on the full-graph
//!   pass's bits (re-annotation time *included*, as in the paper).
//!
//! The flow also reports endpoint-slack correlation between INSTA and the
//! exact engine before and after the whole changelist (Fig. 8): INSTA's
//! annotations drift because `estimate_eco` freezes the neighbourhood, and
//! the paper deliberately skips re-synchronization to measure that drift.

use crate::changelist::ResizeOp;
use insta_engine::{InstaConfig, InstaEngine, MismatchStats};
use insta_netlist::Design;
use insta_refsta::{estimate_eco, RefSta, StaConfig};
use std::time::Instant;

/// Per-iteration evaluator timings (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// Index of the replayed changelist operation.
    pub op_index: usize,
    /// Reference full-update runtime.
    pub full_s: f64,
    /// Reference incremental-update runtime.
    pub incremental_s: f64,
    /// INSTA runtime (estimate_eco + re-annotation + propagation).
    pub insta_s: f64,
}

/// Result of the evaluator flow.
#[derive(Debug, Clone)]
pub struct EvaluatorFlowResult {
    /// Per-iteration timings.
    pub iterations: Vec<IterationTiming>,
    /// INSTA vs exact correlation before any resize.
    pub corr_before: MismatchStats,
    /// INSTA vs exact correlation after the full changelist (with the
    /// accumulated estimate_eco drift).
    pub corr_after: MismatchStats,
    /// Mean speedup of INSTA over the full update.
    pub speedup_vs_full: f64,
    /// Mean speedup of INSTA over the incremental update.
    pub speedup_vs_incremental: f64,
}

/// Replays `ops` on `design`, timing all three evaluators per iteration.
///
/// `insta_cfg` controls the INSTA engine (Top-K etc.).
pub fn run_evaluator_flow(
    design: &mut Design,
    ops: &[ResizeOp],
    sta_cfg: StaConfig,
    insta_cfg: InstaConfig,
) -> EvaluatorFlowResult {
    // Two independent reference engines so full/incremental timings don't
    // share caches, plus one whose export seeds INSTA.
    let mut sta_full = RefSta::new(design, sta_cfg.clone()).expect("acyclic design");
    let mut sta_incr = RefSta::new(design, sta_cfg).expect("acyclic design");
    sta_full.full_update(design);
    sta_incr.full_update(design);
    let mut engine = InstaEngine::new(sta_incr.export_insta_init(), insta_cfg).expect("valid snapshot");
    let report0 = engine.propagate().clone();
    let exact0: Vec<f64> = sta_incr
        .report()
        .endpoints
        .iter()
        .map(|e| e.slack_ps)
        .collect();
    let corr_before = MismatchStats::compute(&report0.slacks, &exact0);

    let mut iterations = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        // INSTA path: estimate (pre-commit state) → re-annotate →
        // propagate. The estimate must run against the pre-commit design,
        // exactly like `estimate_eco` in PrimeTime.
        let t0 = Instant::now();
        let est = estimate_eco(design, &sta_incr, op.cell, op.to);
        design.resize_cell(op.cell, op.to);
        engine
            .update_timing(&est.arc_deltas)
            .expect("estimate_eco deltas reference snapshot arcs");
        let insta_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        sta_incr.incremental_update(design, &[op.cell]);
        let incremental_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        sta_full.full_update(design);
        let full_s = t2.elapsed().as_secs_f64();

        iterations.push(IterationTiming {
            op_index: i,
            full_s,
            incremental_s,
            insta_s,
        });
    }

    let final_insta = engine
        .try_report()
        .expect("at least one propagation ran")
        .clone();
    let exact_after: Vec<f64> = sta_incr
        .report()
        .endpoints
        .iter()
        .map(|e| e.slack_ps)
        .collect();
    let corr_after = if ops.is_empty() {
        corr_before
    } else {
        MismatchStats::compute(&final_insta.slacks, &exact_after)
    };

    let mean = |f: fn(&IterationTiming) -> f64, xs: &[IterationTiming]| -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().map(f).sum::<f64>() / xs.len() as f64
        }
    };
    let m_full = mean(|x| x.full_s, &iterations);
    let m_incr = mean(|x| x.incremental_s, &iterations);
    let m_insta = mean(|x| x.insta_s, &iterations).max(1e-12);
    EvaluatorFlowResult {
        iterations,
        corr_before,
        corr_after,
        speedup_vs_full: m_full / m_insta,
        speedup_vs_incremental: m_incr / m_insta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changelist::random_changelist;
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    #[test]
    fn flow_reports_high_correlation_and_complete_timings() {
        let mut design = generate_design(&GeneratorConfig::small("flow", 41));
        let ops = random_changelist(&design, 8, 3);
        let result = run_evaluator_flow(
            &mut design,
            &ops,
            StaConfig::default(),
            InstaConfig::default(),
        );
        assert_eq!(result.iterations.len(), 8);
        assert!(result.corr_before.correlation > 0.99999);
        assert!(
            result.corr_after.correlation > 0.95,
            "post-flow correlation degraded too far: {}",
            result.corr_after.correlation
        );
        for it in &result.iterations {
            assert!(it.full_s > 0.0 && it.incremental_s > 0.0 && it.insta_s > 0.0);
        }
    }

    #[test]
    fn empty_changelist_is_consistent() {
        let mut design = generate_design(&GeneratorConfig::small("flow", 43));
        let result = run_evaluator_flow(
            &mut design,
            &[],
            StaConfig::default(),
            InstaConfig::default(),
        );
        assert!(result.iterations.is_empty());
        assert_eq!(
            result.corr_before.correlation,
            result.corr_after.correlation
        );
    }
}
