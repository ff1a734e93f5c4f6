//! Cross-crate integration test: hold analysis parity between the INSTA
//! engine and the reference engine at medium scale.

use insta_sta::engine::{hold_attributes, InstaConfig, InstaEngine};
use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::refsta::{RefSta, StaConfig};

#[test]
fn insta_hold_matches_reference_on_medium_design() {
    let mut cfg = GeneratorConfig::medium("hold_ix", 41);
    cfg.clock_period_ps = 700.0;
    let design = generate_design(&cfg);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let golden_hold = golden.hold_update(&design);

    let attrs = hold_attributes(&design, &golden);
    let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default()).expect("valid snapshot");
    let report = engine.propagate_hold(&attrs);

    assert_eq!(report.slacks.len(), golden_hold.endpoints.len());
    let mut finite = 0usize;
    for (i, g) in golden_hold.endpoints.iter().enumerate() {
        if g.slack_ps.is_finite() {
            finite += 1;
            assert!(
                (report.slacks[i] - g.slack_ps).abs() < 1e-9,
                "ep {i}: insta {} vs golden {}",
                report.slacks[i],
                g.slack_ps
            );
        }
    }
    assert!(finite > 50, "medium design must constrain many flop endpoints");
    assert!((report.wns_ps - golden_hold.wns_ps).abs() < 1e-9);
    assert!((report.tns_ps - golden_hold.tns_ps).abs() < 1e-9);

    // Setup analysis still works on the same engine afterwards.
    let setup = engine.propagate().clone();
    assert_eq!(setup.slacks.len(), report.slacks.len());
}

/// Batched setup scenarios and hold analysis interleave without bleeding
/// into each other on a fixed-seed design: every batched scenario is
/// bit-identical before and after a hold pass (which desyncs the shared
/// Top-K base), and hold slacks keep matching the reference afterwards.
#[test]
fn batched_scenarios_and_hold_interleave_bit_stably() {
    use insta_sta::engine::DeltaSet;
    use insta_sta::refsta::eco::ArcDelta;

    let design = generate_design(&GeneratorConfig::small("hold_ix", 43));
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let golden_hold = golden.hold_update(&design);
    let attrs = hold_attributes(&design, &golden);
    let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");
    engine.propagate();

    let delays = golden.delays();
    let scenarios: Vec<DeltaSet> = (0..4)
        .map(|i| {
            let arc = (i * delays.mean.len() / 4) as u32;
            let mean = delays.mean[arc as usize];
            DeltaSet::from(vec![ArcDelta {
                arc,
                mean: [mean[0] + 10.0 * (i + 1) as f64, mean[1] + 10.0 * (i + 1) as f64],
                sigma: delays.sigma[arc as usize],
            }])
        })
        .collect();
    let bits = |reports: &[insta_sta::engine::ScenarioReport]| -> Vec<u64> {
        reports
            .iter()
            .flat_map(|r| {
                r.outcome
                    .as_ref()
                    .expect("clean scenario")
                    .slacks
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    let before = bits(&engine.evaluate_batch(&scenarios));
    let hold = engine.propagate_hold(&attrs);
    let after = bits(&engine.evaluate_batch(&scenarios));
    assert_eq!(before, after, "hold pass leaked into batched setup results");

    // Hold still matches the reference after the batched evaluations.
    let hold_again = engine.propagate_hold(&attrs);
    assert_eq!(hold.slacks, hold_again.slacks);
    for (i, g) in golden_hold.endpoints.iter().enumerate() {
        if g.slack_ps.is_finite() {
            assert!(
                (hold_again.slacks[i] - g.slack_ps).abs() < 1e-9,
                "ep {i}: insta {} vs golden {}",
                hold_again.slacks[i],
                g.slack_ps
            );
            assert!(
                (hold_again.arrivals[i] - g.arrival_ps).abs() < 1e-9,
                "ep {i}: min arrival {} vs golden {}",
                hold_again.arrivals[i],
                g.arrival_ps
            );
        }
    }
}

/// Regression (ISSUE 15): the hold pass writes negated early corners into
/// the Top-K arrays it shares with setup. Point reads and snapshots must
/// answer only from arrays that are in sync with the setup report — after
/// `propagate_hold` no node may report a value other than its setup
/// arrival, and the next setup pass serves the recorded bits again.
#[test]
fn point_reads_do_not_serve_hold_corners_as_setup_arrivals() {
    let design = generate_design(&GeneratorConfig::small("hold_ix", 47));
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let attrs = hold_attributes(&design, &golden);
    let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");

    type Reads = Vec<(Option<u64>, Option<(u64, u64)>, Option<u64>)>;
    let reads = |engine: &InstaEngine| -> Reads {
        let snap = engine.snapshot();
        (0..engine.num_nodes() as u32)
            .flat_map(|v| [(v, 0), (v, 1)])
            .map(|(v, rf)| {
                (
                    engine.arrival_at(v, rf).map(f64::to_bits),
                    engine
                        .distribution_at(v, rf)
                        .map(|(m, s)| (m.to_bits(), s.to_bits())),
                    snap.arrival_at(v, rf).map(f64::to_bits),
                )
            })
            .collect()
    };

    engine.propagate();
    let setup = reads(&engine);
    assert!(
        setup.iter().filter(|r| r.0.is_some()).count() > engine.num_nodes(),
        "most nodes are reached"
    );

    engine.propagate_hold(&attrs);
    for (i, (got, want)) in reads(&engine).iter().zip(&setup).enumerate() {
        let (node, rf) = (i / 2, i % 2);
        assert!(
            got.0.is_none() || got.0 == want.0,
            "arrival_at({node}, {rf}) after hold: {:?}, setup arrival {:?}",
            got.0.map(f64::from_bits),
            want.0.map(f64::from_bits),
        );
        assert!(got.1.is_none() || got.1 == want.1, "distribution_at({node}, {rf}) after hold");
        assert!(got.2.is_none() || got.2 == want.2, "snapshot arrival_at({node}, {rf}) after hold");
    }

    engine.propagate();
    assert!(reads(&engine) == setup, "the next setup pass serves the same bits");
}
