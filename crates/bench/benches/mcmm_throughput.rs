//! MCMM-throughput bench: a C-corner × M-mode sweep evaluated in one
//! `evaluate_mcmm` call vs C × M sequential per-corner sessions.
//!
//! The MCMM path runs one full pass per distinct *corner* (modes are
//! report-time masks over that corner's report, the identity corner is the
//! engine's own synced report), while the sequential arm re-annotates,
//! propagates, masks, and rolls back — two full passes — once per (corner,
//! mode) pair, so the sweep should win by a wide margin. Emits one
//! machine-readable JSON line after the human table and exits non-zero
//! when the speedup falls below the gate (acceptance: ≥ 3×). Drift
//! auditing is disabled so neither path degrades to the other.
//!
//! Under `INSTA_BENCH_FAST` each arm is the best of three iterations: the
//! harness's fast budget is a single iteration of either arm, and a single
//! iteration is whatever the box was doing at that moment (194 ms against
//! 44 ms standalone, seen in CI).

use insta_bench::block_specs;
use insta_engine::{
    CornerTransform, DriftPolicy, InstaConfig, InstaEngine, ModeMask, Scenario,
};
use insta_refsta::{RefSta, StaConfig};
use insta_support::json::{obj, Json};
use insta_support::timer::{black_box, Harness};
use std::time::{Duration, Instant};

const MODES: usize = 6;

/// Minimum accepted sweep-vs-sequential speedup. Two corner base passes
/// vs 3 × 6 full session round-trips measures well above 10×; 3× catches a
/// regression that re-propagates per mode.
const GATE_MIN_SPEEDUP: f64 = 3.0;

/// Measures one arm: the harness's budgeted mean, or — in fast mode — the
/// best of three iterations.
fn measure<R>(h: &mut Harness, fast: bool, name: &str, mut f: impl FnMut() -> R) {
    if !fast {
        return h.bench(name, f);
    }
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO);
    h.record(name, best);
}

fn main() {
    let spec = &block_specs()[2]; // block-3
    let design = spec.build();
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
    let n_eps = engine.report().slacks.len();

    let corners = [
        CornerTransform::IDENTITY,
        CornerTransform::scale(1.06, 1.15),
        CornerTransform {
            mean_scale: 0.94,
            mean_offset_ps: 2.0,
            sigma_scale: 1.05,
            sigma_offset_ps: 0.0,
        },
    ];
    // Disjoint endpoint partitions standing in for functional modes.
    let modes: Vec<ModeMask> = (0..MODES)
        .map(|m| ModeMask::disabling((0..n_eps).filter(|ep| ep % MODES == m)))
        .collect();
    let scenarios: Vec<Scenario> = corners
        .iter()
        .flat_map(|&c| {
            modes
                .iter()
                .map(move |m| Scenario::default().with_corner(c).with_mode(m.clone()))
        })
        .collect();
    // The sequential arm's per-scenario pre-scaled annotation lists,
    // prepared outside the timed region (a real per-corner flow would
    // load per-corner tables once, not derive them per query).
    let twins: Vec<_> = scenarios
        .iter()
        .map(|sc| engine.scenario_twin_deltas(sc))
        .collect();

    let fast = std::env::var_os("INSTA_BENCH_FAST").is_some();
    let mut h = Harness::new("mcmm_throughput");
    measure(&mut h, fast, "sequential_corner_sessions", || {
        let mut tns = 0.0;
        for (sc, twin) in scenarios.iter().zip(&twins) {
            let mut session = engine.begin_session();
            let report = session.update_timing(twin).expect("valid corner");
            tns += match &sc.mode {
                Some(m) => report.masked(m).tns_ps,
                None => report.tns_ps,
            };
            session.rollback();
        }
        black_box(tns)
    });
    engine.propagate(); // resync the base before the swept path
    measure(&mut h, fast, "evaluate_mcmm", || {
        let mcmm = engine.evaluate_mcmm(&scenarios);
        let tns: f64 = mcmm
            .scenarios
            .iter()
            .map(|r| r.outcome.as_ref().expect("valid scenario").tns_ps)
            .sum();
        black_box(tns + mcmm.merged_tns_ps)
    });
    let results = h.finish();

    let mean_ns = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.mean.as_secs_f64() * 1e9)
    };
    let sequential = mean_ns("sequential_corner_sessions");
    let sweep = mean_ns("evaluate_mcmm");
    let speedup = if sweep > 0.0 { sequential / sweep } else { 0.0 };
    println!(
        "{}",
        obj([
            ("suite", Json::Str("mcmm_throughput".into())),
            ("block", Json::Str(spec.name.into())),
            ("corners", Json::Num(corners.len() as f64)),
            ("modes", Json::Num(MODES as f64)),
            ("scenarios", Json::Num(scenarios.len() as f64)),
            ("sequential_ns", Json::Num(sequential)),
            ("mcmm_ns", Json::Num(sweep)),
            ("speedup_x", Json::Num(speedup)),
            ("gate_min_speedup_x", Json::Num(GATE_MIN_SPEEDUP)),
        ])
    );
    if speedup < GATE_MIN_SPEEDUP {
        eprintln!("mcmm_throughput: speedup {speedup:.2}x below the {GATE_MIN_SPEEDUP}x gate");
        std::process::exit(1);
    }
}
