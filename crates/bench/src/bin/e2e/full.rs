//! `full_block1_k32`: one signoff pass over the whole graph —
//! `propagate_fused` → `backward_tns` → `arc_gradients` →
//! `propagate_hold`. The levelized kernels do all the work. The timed
//! engine is single-threaded; the traced run also times a two-thread twin,
//! the only place where `parallel.rs` engages.

use crate::rep::{self, RepArgs, RepOut, Timed};
use crate::stats::median;
use crate::trace::Tracer;
use insta_engine::{hold_attributes, HoldAttributes, InstaConfig, InstaEngine, MismatchStats};
use std::time::Instant;

/// Passes of the two-thread twin that `parallel.speedup_2t` compares the
/// workload's single-thread engine with (after one warm-up pass).
const TWIN_PASSES: usize = 5;

/// Slack-bit folds of one pass: (setup, hold).
type PassBits = (u64, u64);

fn one_pass(
    engine: &mut InstaEngine,
    attrs: &HoldAttributes,
    tr: &mut Tracer,
    index: usize,
    slow_us: f64,
) -> (f64, PassBits, Vec<f64>) {
    let t = Instant::now();
    tr.begin_op(index);
    tr.span("forward.propagate_fused", || {
        engine.propagate_fused();
    });
    tr.span("backward.backward_tns", || engine.backward_tns());
    let grads = tr.span("backward.arc_gradients", || engine.arc_gradients());
    let hold = tr.span("hold.propagate_hold", || engine.propagate_hold(attrs));
    rep::busy_wait_us(slow_us);
    tr.end_op();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&grads);
    let bits = (
        rep::fold_bits(&engine.report().slacks),
        rep::fold_bits(&hold.slacks),
    );
    (ms, bits, hold.slacks)
}

pub fn run(args: &RepArgs, tr: &mut Tracer, out: &mut RepOut) {
    let mut b = rep::build(args, tr, out);
    out.setup_s = b.setup_s;
    let attrs = hold_attributes(&b.design, &b.sta);
    let engine = &mut b.engine;
    if args.trace {
        // The engine's own per-level profile: an existing public surface,
        // read per pass in the traced run only.
        engine.enable_tracing();
    }

    for i in 0..args.warmup {
        one_pass(engine, &attrs, tr, i, args.slow_us);
    }
    tr.clear();

    let mut kernel_ms: [Vec<f64>; 3] = Default::default();
    let mut first: Option<PassBits> = None;
    let mut hold_slacks = Vec::new();
    let timed = Timed::start();
    for _ in 0..args.ops {
        let before = args.trace.then(|| engine.perf_report().totals_ns());
        let (ms, bits, hold) = one_pass(engine, &attrs, tr, out.op_ms.len(), args.slow_us);
        out.op_ms.push(ms);
        if let Some((f0, l0, b0)) = before {
            let (f1, l1, b1) = engine.perf_report().totals_ns();
            for (slot, ns) in kernel_ms.iter_mut().zip([f1 - f0, l1 - l0, b1 - b0]) {
                slot.push(ns as f64 / 1e6);
            }
        }
        // Output check: the report repeats bit for bit across passes.
        let (same, pass) = (*first.get_or_insert(bits) == bits, out.op_ms.len());
        out.check(same, || format!("pass {pass} changed the report bits"));
        hold_slacks = hold;
    }
    timed.finish(out);

    // Output checks against the reference engine.
    let setup_slacks = engine.report().slacks.clone();
    let golden: Vec<f64> = b
        .sta
        .report()
        .endpoints
        .iter()
        .map(|e| e.slack_ps)
        .collect();
    let mm = MismatchStats::compute(&setup_slacks, &golden);
    out.check(mm.worst_abs_ps <= 1e-6, || {
        format!("setup slack mismatch vs RefSta {} ps", mm.worst_abs_ps)
    });
    let golden_hold = b.sta.hold_update(&b.design);
    let worst_hold = golden_hold
        .endpoints
        .iter()
        .zip(&hold_slacks)
        .filter(|(g, _)| g.slack_ps.is_finite())
        .map(|(g, s)| (g.slack_ps - s).abs())
        .fold(0.0_f64, f64::max);
    out.check(worst_hold <= 1e-9, || {
        format!("hold slack mismatch vs RefSta {worst_hold} ps")
    });
    out.result_hash = rep::crc_bits(setup_slacks.iter().chain(&hold_slacks));

    if tr.is_on() {
        rep::span_medians(
            tr,
            out,
            &[
                ("forward.propagate_fused", "forward.propagate_fused_ms", 1.0),
                ("backward.backward_tns", "backward.backward_tns_ms", 1.0),
                ("backward.arc_gradients", "backward.arc_gradients_ms", 1.0),
                ("hold.propagate_hold", "hold.propagate_hold_ms", 1.0),
            ],
        );
        for (name, v) in ["forward.kernel_ms", "lse.kernel_ms", "backward.kernel_ms"]
            .iter()
            .zip(&kernel_ms)
        {
            out.set(name, median(v));
        }
        let fused_ms = median(&tr.durations_ms("forward.propagate_fused"));
        if fused_ms > 0.0 {
            out.set(
                "forward.mnodes_per_s",
                engine.num_nodes() as f64 / (fused_ms / 1e3) / 1e6,
            );
            // What two threads buy over the plain single-thread baseline:
            // the same fused pass on a twin engine with `n_threads = 2`.
            let mut twin = rep::twin_engine(
                &b.sta,
                InstaConfig {
                    n_threads: 2,
                    ..rep::engine_config(args.workload)
                },
            );
            twin.propagate_fused();
            let twin_ms: Vec<f64> = (0..TWIN_PASSES)
                .map(|_| {
                    let t = Instant::now();
                    twin.propagate_fused();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            out.set("parallel.speedup_2t", fused_ms / median(&twin_ms));
        }
    }
    rep::export_trace(args, &[tr], out);
}
