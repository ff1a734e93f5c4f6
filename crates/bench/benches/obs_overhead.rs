//! Observability-overhead gate: a full `propagate_fused` pass with tracing
//! enabled must cost at most 3 % over the untraced pass (the trace layer's
//! pay-for-what-you-use contract: two timestamp reads per pass and two per
//! level per kernel). The gate is anchored on the full pass, which visits
//! every level of both forward kernels; a cone update is a fraction of a
//! millisecond and its handful of timestamp reads is not what this
//! protects.
//!
//! The two arms are measured **interleaved** (untraced, traced, untraced,
//! traced, …) and compared by min-of-iterations: alternation cancels the
//! slow machine-load drift that poisons back-to-back arm comparisons, and
//! the min is the most noise-robust point estimate available. Emits one
//! machine-readable JSON line last and exits non-zero when the gate
//! fails, so `scripts/ci.sh` can tee the line into `BENCH_obs.json` and
//! fail the pipeline on a regression.

use insta_bench::block_specs;
use insta_engine::{InstaConfig, InstaEngine};
use insta_refsta::{RefSta, StaConfig};
use insta_support::json::{obj, Json};
use insta_support::timer::{black_box, fmt_duration};
use std::time::{Duration, Instant};

const MAX_OVERHEAD_PCT: f64 = 3.0;
const ATTEMPTS: usize = 3;

fn main() {
    let fast = std::env::var_os("INSTA_BENCH_FAST").is_some();
    let spec = &block_specs()[4]; // block-5
    let design = spec.build();
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(
        sta.export_insta_init(),
        InstaConfig {
            top_k: 8,
            ..InstaConfig::default()
        },
    )
    .expect("valid snapshot");

    let run = |eng: &mut InstaEngine| {
        let t0 = Instant::now();
        black_box(eng.propagate_fused().tns_ps);
        t0.elapsed()
    };

    // Warm caches and the thread pool before measuring either arm.
    for _ in 0..2 {
        run(&mut engine);
    }
    let iters = if fast { 15 } else { 60 };
    let mut plain_min = Duration::MAX;
    let mut traced_min = Duration::MAX;
    let (mut plain, mut traced, mut overhead_pct) = (0.0, 0.0, 0.0);
    // Noise retries, same policy as the other gates: a failing round keeps
    // its minima and samples another `iters` pairs — both arms can only
    // move toward their floors.
    for _ in 0..ATTEMPTS {
        for _ in 0..iters {
            engine.disable_tracing();
            plain_min = plain_min.min(run(&mut engine));
            // Re-enabling per iteration also resets the journal/profiles,
            // so the traced arm never pays for an ever-growing report.
            engine.enable_tracing();
            traced_min = traced_min.min(run(&mut engine));
        }
        plain = plain_min.as_secs_f64() * 1e9;
        traced = traced_min.as_secs_f64() * 1e9;
        overhead_pct = if plain > 0.0 {
            (traced - plain) / plain * 100.0
        } else {
            0.0
        };
        if overhead_pct <= MAX_OVERHEAD_PCT {
            break;
        }
    }
    engine.disable_tracing();
    let pass = overhead_pct <= MAX_OVERHEAD_PCT;
    println!(
        "obs_overhead ({}, rounds of {iters} interleaved iterations, min):",
        spec.name
    );
    println!("  untraced propagate_fused {}", fmt_duration(plain_min));
    println!("  traced   propagate_fused {}", fmt_duration(traced_min));
    println!(
        "  overhead                 {overhead_pct:+.2}% (gate \u{2264} {MAX_OVERHEAD_PCT}%) {}",
        if pass { "OK" } else { "FAIL" }
    );
    println!(
        "{}",
        obj([
            ("suite", Json::Str("obs_overhead".into())),
            ("block", Json::Str(spec.name.into())),
            ("untraced_pass_ns", Json::Num(plain)),
            ("traced_pass_ns", Json::Num(traced)),
            ("overhead_pct", Json::Num(overhead_pct)),
            ("max_overhead_pct", Json::Num(MAX_OVERHEAD_PCT)),
            ("pass", Json::Bool(pass)),
        ])
    );
    if !pass {
        std::process::exit(1);
    }
}
