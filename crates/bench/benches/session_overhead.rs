//! Session-overhead bench: the transactional update (commit and rollback
//! paths) vs the plain incremental update.
//!
//! The plain and commit arms alternate between two delta sets — the
//! estimated deltas of a resize and of its undo — because change pruning
//! turns a re-applied identical set into a no-op after the first
//! iteration; the rollback arm restores the baseline itself. Emits one
//! machine-readable JSON line after the human table (report-only: an
//! update is a cone sweep of tens of microseconds now, so the checkpoint's
//! report copy is no longer a few percent of it).

use insta_bench::block_specs;
use insta_engine::{InstaConfig, InstaEngine};
use insta_refsta::{estimate_eco, RefSta, StaConfig};
use insta_sizer::random_changelist;
use insta_support::json::{obj, Json};
use insta_support::timer::{black_box, Harness};

fn main() {
    let spec = &block_specs()[4]; // block-5
    let design = spec.build();
    let op = random_changelist(&design, 1, 9)[0];
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
    engine.propagate();
    let from = design.cell(op.cell).lib_cell;
    let resize = estimate_eco(&design, &sta, op.cell, op.to).arc_deltas;
    let undo = estimate_eco(&design, &sta, op.cell, from).arc_deltas;
    let sets = [resize, undo];
    let mut turn = 0usize;
    let mut next = || {
        turn += 1;
        &sets[turn % 2]
    };

    let mut h = Harness::new("session_overhead");
    h.bench("plain_update_timing", || {
        black_box(engine.update_timing(next()).expect("valid batch").tns_ps)
    });
    h.bench("session_update_commit", || {
        let mut session = engine.begin_session();
        let tns = session.update_timing(next()).expect("valid batch").tns_ps;
        session.commit().expect("session is open");
        black_box(tns)
    });
    engine.update_timing(&sets[1]).expect("valid batch"); // back to the baseline
    h.bench("session_update_rollback", || {
        let mut session = engine.begin_session();
        let tns = session.update_timing(&sets[0]).expect("valid batch").tns_ps;
        session.rollback();
        black_box(tns)
    });
    let results = h.finish();

    let mean_ns = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.mean.as_secs_f64() * 1e9)
    };
    let plain = mean_ns("plain_update_timing");
    let commit = mean_ns("session_update_commit");
    let rollback = mean_ns("session_update_rollback");
    let overhead_pct = if plain > 0.0 {
        (commit - plain) / plain * 100.0
    } else {
        0.0
    };
    println!(
        "{}",
        obj([
            ("suite", Json::Str("session_overhead".into())),
            ("block", Json::Str(spec.name.into())),
            ("plain_update_ns", Json::Num(plain)),
            ("session_commit_ns", Json::Num(commit)),
            ("session_rollback_ns", Json::Num(rollback)),
            ("commit_overhead_pct", Json::Num(overhead_pct)),
        ])
    );
}
