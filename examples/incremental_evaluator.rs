//! Application 1: INSTA as a fast timing evaluator in a commercial-style
//! gate sizing flow (paper §IV-B, Figs. 7–8).
//!
//! Replays a shared changelist through three evaluators and prints the
//! per-iteration runtimes plus the before/after endpoint-slack
//! correlation. Run with
//! `cargo run --release --example incremental_evaluator`.

use insta_sta::engine::InstaConfig;
use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::refsta::StaConfig;
use insta_sta::sizer::{random_changelist, run_evaluator_flow};

fn main() {
    let mut gen = GeneratorConfig::medium("evaluator", 7);
    gen.clock_period_ps = 560.0;
    let mut design = generate_design(&gen);
    let ops = random_changelist(&design, 20, 11);
    println!(
        "replaying {} resizes on {} cells...",
        ops.len(),
        design.cells().len()
    );

    let result = run_evaluator_flow(
        &mut design,
        &ops,
        StaConfig::default(),
        InstaConfig::default(),
    );

    // One span per evaluator per operation, in changelist order.
    let trace = &result.trace;
    let ms = |name: &'static str| {
        let spans = trace.events().filter(move |e| e.name == name);
        spans.map(|e| e.dur_ns as f64 * 1e-6)
    };
    println!("\niter |  full (ms) | incremental (ms) | INSTA (ms)");
    println!("-----+------------+------------------+-----------");
    let rows = ms("flow.full").zip(ms("flow.incremental")).zip(ms("flow.insta"));
    for (i, ((full, incremental), insta)) in rows.enumerate() {
        println!("{i:4} | {full:10.2} | {incremental:16.2} | {insta:9.2}");
    }
    let insta = trace.sum("flow.insta").secs();
    println!(
        "\nmean speedup: {:.1}x vs full update, {:.1}x vs incremental update",
        trace.sum("flow.full").secs() / insta,
        trace.sum("flow.incremental").secs() / insta
    );
    println!("correlation before flow: {}", result.corr_before);
    println!("correlation after  flow: {}", result.corr_after);
    println!(
        "(the paper's Fig. 8 drift: estimate_eco freezes neighbourhoods, so\n\
         correlation degrades slightly over the flow but stays high enough\n\
         to drive optimization; a 10-minute re-sync restores it exactly)"
    );
}
