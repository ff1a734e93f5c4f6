//! Cross-crate integration tests for the paper's three applications:
//! the evaluator flow (App 1), gate sizing (App 2), and timing-driven
//! placement (App 3).

use insta_sta::engine::InstaConfig;
use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::placer::{place, PlacerConfig, PlacerMode};
use insta_sta::refsta::{RefSta, StaConfig};
use insta_sta::sizer::{
    insta_size, random_changelist, reference_size, run_evaluator_flow, InstaSizeConfig,
    ReferenceSizeConfig,
};

/// App 1 end to end: the evaluator flow keeps INSTA within driving
/// accuracy of the exact engine across a whole changelist.
#[test]
fn evaluator_flow_stays_correlated_across_changelist() {
    let mut cfg = GeneratorConfig::medium("app1", 91);
    cfg.clock_period_ps = 560.0;
    let mut design = generate_design(&cfg);
    let ops = random_changelist(&design, 15, 7);
    let result = run_evaluator_flow(
        &mut design,
        &ops,
        StaConfig::default(),
        InstaConfig {
            top_k: 8,
            ..InstaConfig::default()
        },
    );
    assert_eq!(result.iterations.len(), 15);
    assert!(result.corr_before.correlation > 0.99999);
    assert!(
        result.corr_after.correlation > 0.99,
        "drifted too far: {}",
        result.corr_after.correlation
    );
    // The drift is bounded: the average mismatch stays below a gate delay.
    assert!(result.corr_after.avg_abs_ps < 5.0);
}

/// App 2 end to end on one IWLS-scale circuit: both sizers improve TNS;
/// INSTA-Size touches a small fraction of the baseline's cell count
/// (Table II's headline).
#[test]
fn sizers_improve_timing_with_different_cell_budgets() {
    let mut cfg = GeneratorConfig::with_target_pins("app2", 95, 8_000);
    cfg.clock_period_ps = 800.0;

    let mut d_ref = generate_design(&cfg);
    let mut sta_ref = RefSta::new(&d_ref, StaConfig::default()).expect("build");
    let before = sta_ref.full_update(&d_ref);
    assert!(before.n_violations > 0, "need initial violations");
    let r = reference_size(&mut d_ref, &mut sta_ref, &ReferenceSizeConfig::default());

    let mut d_ins = generate_design(&cfg);
    let mut sta_ins = RefSta::new(&d_ins, StaConfig::default()).expect("build");
    let i = insta_size(&mut d_ins, &mut sta_ins, &InstaSizeConfig::default());

    assert!(r.tns_after_ps > r.tns_before_ps, "reference must improve TNS");
    assert!(i.tns_after_ps > i.tns_before_ps, "INSTA-Size must improve TNS");
    assert!(r.cells_sized > 0 && i.cells_sized > 0);
    assert!(
        i.cells_sized * 2 < r.cells_sized,
        "gradient targeting must use far fewer cells: {} vs {}",
        i.cells_sized,
        r.cells_sized
    );
    // Comparable final quality: INSTA-Size within 25% of the TNS the
    // grind-everything baseline recovers.
    let ref_gain = r.tns_after_ps - r.tns_before_ps;
    let ins_gain = i.tns_after_ps - i.tns_before_ps;
    assert!(
        ins_gain > 0.75 * ref_gain,
        "INSTA-Size gain {ins_gain} too far below reference gain {ref_gain}"
    );
}

/// App 3 end to end on a small instance: timing-driven modes improve TNS
/// over the plain wirelength placer; every mode produces a legal
/// placement.
#[test]
fn timing_driven_placement_improves_tns_over_plain() {
    let mut cfg = GeneratorConfig::medium("app3", 99);
    cfg.uniform_endpoint_taps = true;
    cfg.hub_fraction = 0.04;
    cfg.hub_pick_prob = 0.35;
    cfg.clock_period_ps = 4200.0;

    let run = |mode: PlacerMode| {
        let mut design = generate_design(&cfg);
        let pcfg = PlacerConfig {
            iterations: 160,
            seed: 11,
            mode,
            ..PlacerConfig::default()
        };
        place(&mut design, &pcfg)
    };
    let dp = run(PlacerMode::Wirelength);
    let nw = run(PlacerMode::NetWeighting {
        alpha: 1.0,
        beta: 0.5,
    });
    let ip = run(PlacerMode::InstaPlace { lambda_rc: 0.01 });

    for r in [&dp, &nw, &ip] {
        assert!(insta_sta::placer::legalize::is_legal(&r.db));
        assert!(r.hpwl_legal > 0.0 && r.hpwl_legal.is_finite());
        assert!(r.hpwl_global < r.hpwl_init, "global placement must help");
    }
    // INSTA-Place records its refresh breakdowns (Fig. 9 data).
    assert!(!ip.refreshes.is_empty());
    assert!(ip.refreshes.iter().all(|b| b.insta_grad_s > 0.0));
    // Timing feedback must not be catastrophically worse than DP, and at
    // least one timing mode must beat DP when DP violates.
    if dp.tns_legal_ps < -100.0 {
        let best = nw.tns_legal_ps.max(ip.tns_legal_ps);
        assert!(
            best > dp.tns_legal_ps,
            "some timing mode must improve on DP: dp={} nw={} ip={}",
            dp.tns_legal_ps,
            nw.tns_legal_ps,
            ip.tns_legal_ps
        );
    }
}
