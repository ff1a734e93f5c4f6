//! Batch-throughput bench: S=16 what-if scenarios evaluated in one
//! `evaluate_batch` call vs S sequential transactional sessions.
//!
//! Both arms now recompute only each scenario's dirty fanout cone: the
//! sequential arm is S *cone* sessions (update + rollback re-sweep), no
//! longer S full-graph passes, so the old ≥ 5× gate — which was really
//! "cone vs full pass" — has nothing left to protect. What remains is the
//! batch's amortization (one overlay build and one level walk for S
//! lanes, against S report copies and S re-sweeps), reported for the
//! record: one machine-readable JSON line after the human table, no gate.
//! Drift auditing is disabled so neither path degrades to the other.

use insta_bench::block_specs;
use insta_engine::{DeltaSet, DriftPolicy, InstaConfig, InstaEngine};
use insta_refsta::{estimate_eco, RefSta, StaConfig};
use insta_sizer::random_changelist;
use insta_support::json::{obj, Json};
use insta_support::timer::{black_box, Harness};

const SCENARIOS: usize = 16;

fn main() {
    let spec = &block_specs()[4]; // block-5
    let design = spec.build();
    let ops = random_changelist(&design, SCENARIOS, 9);
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(
        sta.export_insta_init(),
        InstaConfig {
            top_k: 8,
            drift_policy: DriftPolicy::unlimited(),
            ..InstaConfig::default()
        },
    )
    .expect("valid snapshot");
    engine.propagate();

    // Each scenario is one cell-resize what-if: the estimated ECO deltas
    // for a different random resize, evaluated without touching the
    // design (exactly the sizer's candidate-scoring pattern).
    let scenarios: Vec<DeltaSet> = ops
        .iter()
        .map(|op| DeltaSet::from(estimate_eco(&design, &sta, op.cell, op.to).arc_deltas))
        .collect();

    let mut h = Harness::new("batch_throughput");
    h.bench("sequential_cone_sessions", || {
        let mut tns = 0.0;
        for set in &scenarios {
            let mut session = engine.begin_session();
            tns += session.update_timing(&set.deltas).expect("valid batch").tns_ps;
            session.rollback();
        }
        black_box(tns)
    });
    h.bench("evaluate_batch", || {
        let tns: f64 = engine
            .evaluate_batch(&scenarios)
            .iter()
            .map(|r| r.outcome.as_ref().expect("valid batch").tns_ps)
            .sum();
        black_box(tns)
    });
    let results = h.finish();

    let mean_ns = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.mean.as_secs_f64() * 1e9)
    };
    let sequential = mean_ns("sequential_cone_sessions");
    let batch = mean_ns("evaluate_batch");
    let speedup = if batch > 0.0 { sequential / batch } else { 0.0 };
    println!(
        "{}",
        obj([
            ("suite", Json::Str("batch_throughput".into())),
            ("block", Json::Str(spec.name.into())),
            ("scenarios", Json::Num(SCENARIOS as f64)),
            ("sequential_cone_sessions_ns", Json::Num(sequential)),
            ("batch_ns", Json::Num(batch)),
            ("speedup_x", Json::Num(speedup)),
        ])
    );
}
