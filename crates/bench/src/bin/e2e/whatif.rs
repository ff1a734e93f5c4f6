//! `whatif_block3_k8`: one candidate-scoring round — `evaluate_batch`
//! over 64 sparse single-resize delta sets (one full chunk of dirty-cone
//! lanes), then `evaluate_mcmm` over 3 corners × 6 mode masks (18
//! scenarios that dedup to 3 all-dirty corner lanes). The merge kernel as
//! a multi-lane sweep, half cone lanes and half all-dirty lanes.

use crate::eco::changelist;
use crate::rep::{self, RepArgs, RepOut, Timed};
use crate::trace::Tracer;
use insta_engine::{
    CornerTransform, DeltaSet, InstaEngine, McmmReport, ModeMask, Scenario, ScenarioReport,
};
use insta_refsta::estimate_eco;
use insta_support::Rng;
use std::time::Instant;

/// Lanes of one `evaluate_batch` call: one full ≤64-lane chunk.
const LANES: usize = 64;
/// Distinct candidate rounds the ops cycle through, so consecutive ops
/// score different cones.
const ROUNDS: usize = 8;
const MODES: usize = 6;

fn corners() -> [CornerTransform; 3] {
    [
        CornerTransform::IDENTITY,
        CornerTransform::scale(1.06, 1.15),
        CornerTransform {
            mean_scale: 0.94,
            mean_offset_ps: 2.0,
            sigma_scale: 1.05,
            sigma_offset_ps: 0.0,
        },
    ]
}

fn one_op(
    engine: &mut InstaEngine,
    round: &[DeltaSet],
    scenarios: &[Scenario],
    tr: &mut Tracer,
    index: usize,
    slow_us: f64,
) -> (f64, Vec<ScenarioReport>, McmmReport) {
    let t = Instant::now();
    tr.begin_op(index);
    let lanes = tr.span("batch.evaluate_batch", || engine.evaluate_batch(round));
    let mcmm = tr.span("batch.evaluate_mcmm", || engine.evaluate_mcmm(scenarios));
    rep::busy_wait_us(slow_us);
    tr.end_op();
    (t.elapsed().as_secs_f64() * 1e3, lanes, mcmm)
}

pub fn run(args: &RepArgs, tr: &mut Tracer, out: &mut RepOut) {
    let mut b = rep::build(args, tr, out);
    out.setup_s = b.setup_s;
    let engine = &mut b.engine;

    // Inputs: candidate resizes scored against the unchanged design.
    let (lanes, rounds) = if args.tiny { (8, 1) } else { (LANES, ROUNDS) };
    let rounds: Vec<Vec<DeltaSet>> = changelist(&b.design, lanes * rounds, args.seed)
        .chunks(lanes)
        .map(|ops| {
            ops.iter()
                .map(|op| {
                    DeltaSet::from(estimate_eco(&b.design, &b.sta, op.cell, op.to).arc_deltas)
                })
                .collect()
        })
        .collect();
    let n_eps = engine.num_endpoints();
    let modes: Vec<ModeMask> = (0..MODES)
        .map(|m| ModeMask::disabling((0..n_eps).filter(|ep| ep % MODES == m)))
        .collect();
    let scenarios: Vec<Scenario> = corners()
        .iter()
        .flat_map(|&c| {
            modes
                .iter()
                .map(move |m| Scenario::default().with_corner(c).with_mode(m.clone()))
        })
        .collect();

    for i in 0..args.warmup {
        one_op(
            engine,
            &rounds[i % rounds.len()],
            &scenarios,
            tr,
            i,
            args.slow_us,
        );
    }
    tr.clear();

    let counters_before = engine.counters();
    let timed = Timed::start();
    for index in 0..args.ops {
        let round = &rounds[(args.warmup + index) % rounds.len()];
        let (ms, lane_reports, mcmm) = one_op(engine, round, &scenarios, tr, index, args.slow_us);
        out.op_ms.push(ms);
        // Output check: no lane of either sweep was quarantined.
        let clean = lane_reports
            .iter()
            .chain(&mcmm.scenarios)
            .all(|r| r.outcome.is_ok());
        out.check(clean, || format!("op {index}: a lane was quarantined"));
    }
    timed.finish(out);
    let c0 = counters_before;
    let c1 = engine.counters();
    let ops = out.op_ms.len().max(1) as f64;
    let scenarios_per_op = (c1.batch_scenarios - c0.batch_scenarios) as f64 / ops;
    out.set("batch.scenarios", scenarios_per_op);
    out.set(
        "batch.corner_lanes",
        (c1.mcmm_corner_lanes - c0.mcmm_corner_lanes) as f64 / ops,
    );
    out.set(
        "batch.mcmm_deduped",
        (c1.mcmm_deduped - c0.mcmm_deduped) as f64 / ops,
    );
    out.set(
        "batch.quarantined",
        (c1.batch_quarantined - c0.batch_quarantined) as f64,
    );
    out.set(
        "batch.scenarios_per_s",
        scenarios_per_op * ops / out.timed_wall_s,
    );

    // The printed hash covers round 0 and the merged MCMM slacks, taken
    // outside the timed phase so it does not depend on the op count.
    let (_, lane_reports, mcmm) = one_op(
        engine,
        &rounds[0],
        &scenarios,
        &mut Tracer::new(false, 0),
        0,
        0.0,
    );
    out.result_hash = rep::crc_bits(
        lane_reports
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .flat_map(|r| &r.slacks)
            .chain(&mcmm.merged_slacks),
    );

    // Output check: one sampled cone lane and one sampled MCMM scenario
    // are bit-equal to their serial session twins.
    let mut pick = Rng::seed_from_u64(0x3A7 ^ args.seed ^ u64::from(args.rep));
    let lane = pick.gen_range(0..rounds[0].len());
    let twin = {
        let mut session = engine.begin_session();
        let r = session.update_timing(&rounds[0][lane].deltas);
        session.rollback();
        r
    };
    let same = match (&twin, &lane_reports[lane].outcome) {
        (Ok(t), Ok(l)) => rep::same_bits(&t.slacks, &l.slacks),
        _ => false,
    };
    out.check(same, || {
        format!("cone lane {lane} differs from its serial session twin")
    });
    let sc = pick.gen_range(0..scenarios.len());
    let twin_deltas = engine.scenario_twin_deltas(&scenarios[sc]);
    let twin = {
        let mut session = engine.begin_session();
        let r = session.update_timing(&twin_deltas);
        session.rollback();
        r
    };
    let same = match (&twin, &mcmm.scenarios[sc].outcome, &scenarios[sc].mode) {
        (Ok(t), Ok(l), Some(mode)) => {
            let t = t.masked(mode);
            rep::same_bits(&t.slacks, &l.slacks) && t.tns_ps.to_bits() == l.tns_ps.to_bits()
        }
        _ => false,
    };
    out.check(same, || {
        format!("MCMM scenario {sc} differs from its serial session twin")
    });

    rep::span_medians(
        tr,
        out,
        &[
            ("batch.evaluate_batch", "batch.evaluate_batch_ms", 1.0),
            ("batch.evaluate_mcmm", "batch.evaluate_mcmm_ms", 1.0),
            (
                "batch.evaluate_batch",
                "batch.cone_lane_us",
                1e3 / lanes as f64,
            ),
            (
                "batch.evaluate_mcmm",
                "batch.corner_lane_ms",
                1.0 / corners().len() as f64,
            ),
        ],
    );
    rep::export_trace(args, &[tr], out);
}
