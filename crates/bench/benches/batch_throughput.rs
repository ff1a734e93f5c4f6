//! Batch-throughput gate: S=16 what-if scenarios evaluated in one
//! `evaluate_batch` call vs S sequential transactional sessions.
//!
//! Both arms are the same work: each scenario's changed fanout cone is
//! swept once and taken back by copying the cone's undo log — a session
//! rollback and a batched lane share that log. (Until a session rolled
//! back by the log it re-swept its cone, and the batch won 1.45–1.75×; the
//! gate then was ≥ 1.0×.) What is left between the arms is a session's
//! checkpoint against a lane's routing, so the gate is parity: ten
//! alternating runs read 0.97–1.04× here (sessions 1.11–1.41 ms, batch
//! 1.13–1.36 ms), and a gate at 1.0× would flake. `evaluate_batch` must
//! stay ≥ 0.9× the sequential sessions — what still catches a per-call
//! O(nodes) cost creeping back into the batch — judged on the minimum of
//! interleaved iterations with the other gates' noise policy: a failing
//! round keeps its minima and samples another round, up to three. One
//! machine-readable JSON line after the human lines; exits non-zero on a
//! breach. Drift auditing is disabled so neither path degrades.

use insta_bench::block_specs;
use insta_engine::{DeltaSet, DriftPolicy, InstaConfig, InstaEngine};
use insta_refsta::{estimate_eco, RefSta, StaConfig};
use insta_sizer::random_changelist;
use insta_support::json::{obj, Json};
use insta_support::timer::{black_box, fmt_duration};
use std::time::{Duration, Instant};

const SCENARIOS: usize = 16;
/// Minimum accepted batch-vs-sequential speedup.
const GATE_MIN_SPEEDUP: f64 = 0.9;
const ATTEMPTS: usize = 3;

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

    let sequential = |engine: &mut InstaEngine| {
        let t = Instant::now();
        let mut tns = 0.0;
        for set in &scenarios {
            let mut session = engine.begin_session();
            tns += session.update_timing(&set.deltas).expect("valid batch").tns_ps;
            session.rollback();
        }
        black_box(tns);
        t.elapsed()
    };
    let batched = |engine: &mut InstaEngine| {
        let t = Instant::now();
        let tns: f64 = engine
            .evaluate_batch(&scenarios)
            .iter()
            .map(|r| r.outcome.as_ref().expect("valid batch").tns_ps)
            .sum();
        black_box(tns);
        t.elapsed()
    };

    // Warm both arms (scratch capacities, caches) before measuring either.
    for _ in 0..2 {
        sequential(&mut engine);
        batched(&mut engine);
    }
    let fast = std::env::var_os("INSTA_BENCH_FAST").is_some();
    let iters = if fast { 15 } else { 100 };
    let (mut seq_min, mut batch_min) = (Duration::MAX, Duration::MAX);
    let mut speedup = 0.0;
    for _ in 0..ATTEMPTS {
        for _ in 0..iters {
            seq_min = seq_min.min(sequential(&mut engine));
            batch_min = batch_min.min(batched(&mut engine));
        }
        speedup = seq_min.as_secs_f64() / batch_min.as_secs_f64().max(f64::MIN_POSITIVE);
        if speedup >= GATE_MIN_SPEEDUP {
            break;
        }
    }
    let pass = speedup >= GATE_MIN_SPEEDUP;
    println!(
        "batch_throughput ({}, S={SCENARIOS}, rounds of {iters} interleaved iterations, min):",
        spec.name
    );
    println!("  sequential cone sessions {}", fmt_duration(seq_min));
    println!("  evaluate_batch           {}", fmt_duration(batch_min));
    println!(
        "  speedup                  {speedup:.2}x (gate \u{2265} {GATE_MIN_SPEEDUP}x) {}",
        if pass { "OK" } else { "FAIL" }
    );
    println!(
        "{}",
        obj([
            ("suite", Json::Str("batch_throughput".into())),
            ("block", Json::Str(spec.name.into())),
            ("scenarios", Json::Num(SCENARIOS as f64)),
            (
                "sequential_cone_sessions_ns",
                Json::Num(seq_min.as_secs_f64() * 1e9)
            ),
            ("batch_ns", Json::Num(batch_min.as_secs_f64() * 1e9)),
            ("speedup_x", Json::Num(speedup)),
            ("gate_min_speedup_x", Json::Num(GATE_MIN_SPEEDUP)),
            ("pass", Json::Bool(pass)),
        ])
    );
    if !pass {
        eprintln!("batch_throughput: speedup {speedup:.2}x below the {GATE_MIN_SPEEDUP}x gate");
        std::process::exit(1);
    }
}
