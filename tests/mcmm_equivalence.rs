//! MCMM scenario-lane equivalence suite (ISSUE 10): a lane carrying a
//! corner transform `C` and mode mask `M` must be **bit-identical** to a
//! serial session whose annotations were pre-scaled by `C`
//! ([`InstaEngine::scenario_twin_deltas`]) and whose report was masked by
//! `M` ([`InstaReport::masked`]) — at any batch width (S > 64 included), with quarantine, cancellation,
//! dedup, and the merged worst-corner view all behaving per-lane exactly
//! like the serial twins.

use insta_engine::{
    CancelToken, CornerTransform, InstaConfig, InstaEngine, InstaError, InstaReport, ModeMask,
    PassOptions, Scenario, ScenarioReport,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{RefSta, StaConfig};
use insta_sta::support::prop::{for_all, Config};
use insta_support::rng::Rng;

const SUITE_SEED: u64 = 0x3CC1_70AE_5;

fn build(seed: u64, cfg: InstaConfig) -> (RefSta, InstaEngine) {
    let design = generate_design(&GeneratorConfig::small("mcmm_eq", seed));
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let engine = InstaEngine::new(golden.export_insta_init(), cfg).expect("valid snapshot");
    (golden, engine)
}

/// Every bit of the public report, for exact comparisons.
fn report_bits(r: &InstaReport) -> Vec<u64> {
    let mut bits = vec![r.wns_ps.to_bits(), r.tns_ps.to_bits(), r.n_violations as u64];
    bits.extend(r.slacks.iter().map(|v| v.to_bits()));
    bits.extend(r.arrivals.iter().map(|v| v.to_bits()));
    bits.extend(r.requireds.iter().map(|v| v.to_bits()));
    bits.extend(r.worst_sp.iter().map(|&v| v as u64));
    bits.extend(r.worst_rf.iter().map(|&v| v as u64));
    bits
}

/// Random valid delta lists, jittered off the golden delays.
fn random_deltas(golden: &RefSta, rng: &mut Rng) -> Vec<ArcDelta> {
    let delays = golden.delays();
    let n_arcs = delays.mean.len() as u64;
    let len = rng.bounded_u64(6) as usize;
    (0..len)
        .map(|_| {
            let arc = rng.bounded_u64(n_arcs) as u32;
            let mean = delays.mean[arc as usize];
            let sigma = delays.sigma[arc as usize];
            ArcDelta {
                arc,
                mean: [
                    mean[0] + rng.next_f64() * 20.0 - 10.0,
                    mean[1] + rng.next_f64() * 20.0 - 10.0,
                ],
                sigma: [
                    sigma[0] * (1.0 + rng.next_f64()),
                    sigma[1] * (1.0 + rng.next_f64()),
                ],
            }
        })
        .collect()
}

/// A random corner: identity about a third of the time, otherwise a mix
/// of scale (around 1) and offset (a few ps) on both axes.
fn random_corner(rng: &mut Rng) -> Option<CornerTransform> {
    match rng.bounded_u64(3) {
        0 => None,
        1 => Some(CornerTransform::scale(
            0.85 + rng.next_f64() * 0.4,
            0.8 + rng.next_f64() * 0.6,
        )),
        _ => Some(CornerTransform {
            mean_scale: 0.9 + rng.next_f64() * 0.25,
            mean_offset_ps: rng.next_f64() * 6.0 - 3.0,
            sigma_scale: 0.9 + rng.next_f64() * 0.3,
            sigma_offset_ps: rng.next_f64() * 0.5,
        }),
    }
}

/// A random mode: no mask about half the time, otherwise up to three
/// random endpoints disabled.
fn random_mode(n_eps: usize, rng: &mut Rng) -> Option<ModeMask> {
    if n_eps == 0 || rng.bounded_u64(2) == 0 {
        return None;
    }
    let k = 1 + rng.bounded_u64(3) as usize;
    Some(ModeMask::disabling(
        (0..k).map(|_| rng.bounded_u64(n_eps as u64) as usize),
    ))
}

/// Random full MCMM scenarios: deltas × corner × mode.
fn random_scenarios(golden: &RefSta, n_eps: usize, rng: &mut Rng, s: usize) -> Vec<Scenario> {
    (0..s)
        .map(|_| {
            let mut sc = Scenario::from(random_deltas(golden, rng));
            if let Some(c) = random_corner(rng) {
                sc = sc.with_corner(c);
            }
            if let Some(m) = random_mode(n_eps, rng) {
                sc = sc.with_mode(m);
            }
            sc
        })
        .collect()
}

/// The serial twin reference: per scenario, one checkpoint/rollback
/// session on a clone of the engine, re-annotated with the pre-scaled
/// twin deltas and masked by the scenario's mode.
fn serial_twin_reference(
    engine: &InstaEngine,
    scenarios: &[Scenario],
) -> Vec<Result<InstaReport, String>> {
    let mut clone = engine.clone();
    scenarios
        .iter()
        .map(|sc| {
            let twin = clone.scenario_twin_deltas(sc);
            let mut session = clone.begin_session();
            let outcome = session.update_timing(&twin);
            session.rollback();
            outcome
                .map(|r| match &sc.mode {
                    Some(m) if m.disables_any() => r.masked(m),
                    _ => r,
                })
                .map_err(|e| e.category().to_string())
        })
        .collect()
}

fn assert_lanes_match(
    got: &[ScenarioReport],
    want: &[Result<InstaReport, String>],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} reports for {} scenarios", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.scenario != i {
            return Err(format!("scenario index {} at position {i}", g.scenario));
        }
        match (&g.outcome, w) {
            (Ok(gr), Ok(wr)) => {
                if report_bits(gr) != report_bits(wr) {
                    return Err(format!("scenario {i}: report differs from serial twin"));
                }
            }
            (Err(ge), Err(we)) => {
                if ge.category() != we {
                    return Err(format!(
                        "scenario {i}: error category {} vs twin {we}",
                        ge.category()
                    ));
                }
            }
            (Ok(_), Err(we)) => return Err(format!("scenario {i}: Ok, twin failed with {we}")),
            (Err(ge), Ok(_)) => {
                return Err(format!("scenario {i}: {}, twin succeeded", ge.category()))
            }
        }
    }
    Ok(())
}

/// The tentpole identity contract: across generated designs, corner and
/// mode mixes, and serial-vs-parallel runners, every lane of `evaluate` is bit-identical to
/// its pre-scaled, masked serial-session twin — and the sweep leaves the
/// engine's own report untouched.
#[test]
fn mcmm_lanes_match_prescaled_masked_serial_twins() {
    for_all(
        Config::cases(10).seed(SUITE_SEED),
        |rng| {
            (
                rng.bounded_u64(64),         // design seed
                rng.next_u64(),              // scenario stream
                rng.bounded_u64(2) as usize, // thread pick
            )
        },
        |&(dseed, stream, threads_idx)| {
            let cfg = InstaConfig {
                n_threads: [1usize, 4][threads_idx],
                ..InstaConfig::default()
            };
            let (golden, mut engine) = build(dseed, cfg);
            engine.propagate();
            let base_bits = report_bits(engine.report());
            let n_eps = engine.report().slacks.len();

            let mut rng = Rng::seed_from_u64(stream);
            let scenarios = random_scenarios(&golden, n_eps, &mut rng, 7);
            let want = serial_twin_reference(&engine, &scenarios);
            let got = engine
                .evaluate(&scenarios, &PassOptions::default())
                .scenarios;
            assert_lanes_match(&got, &want)?;

            if report_bits(engine.report()) != base_bits {
                return Err("MCMM sweep mutated the engine's own report".into());
            }
            Ok(())
        },
    );
}

/// Lane index integrity (satellite): lanes run grouped by corner, not in
/// submission order, and results are written back by lane index. With
/// S ∈ {64, 65, 128} — the widths that straddled the old sweep's 64-lane
/// chunks — `ScenarioReport::scenario` must equal the submission index
/// everywhere, a quarantined scenario late in the batch must land at its
/// own index, and every healthy lane must still match its serial twin.
#[test]
fn chunk_boundaries_preserve_scenario_indices() {
    for (s, bad) in [(64usize, 63usize), (65, 64), (128, 70)] {
        let (golden, mut engine) = build(19, InstaConfig::default());
        engine.propagate();
        let n_eps = engine.report().slacks.len();
        let mut rng = Rng::seed_from_u64(SUITE_SEED ^ (s as u64));
        let mut scenarios = random_scenarios(&golden, n_eps, &mut rng, s);
        // Sprinkle one more corner over the batch, so its group's lanes sit
        // far apart in submission order.
        for (i, sc) in scenarios.iter_mut().enumerate() {
            if i % 17 == 0 {
                sc.corner = Some(CornerTransform::scale(1.03, 1.1));
            }
        }
        // One invalid scenario (out-of-range arc) late in the batch.
        scenarios[bad] = Scenario::from(vec![ArcDelta {
            arc: u32::MAX - 1,
            mean: [1.0, 1.0],
            sigma: [0.1, 0.1],
        }]);
        let want = serial_twin_reference(&engine, &scenarios);
        let got = engine
            .evaluate(&scenarios, &PassOptions::default())
            .scenarios;
        assert_eq!(got.len(), s);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.scenario, i, "S={s}: index drift at position {i}");
        }
        assert!(got[bad].outcome.is_err(), "S={s}: bad lane must quarantine");
        assert_lanes_match(&got, &want).unwrap_or_else(|e| panic!("S={s}: {e}"));
    }
}

/// Merged worst-corner semantics (satellite): on a seeded random DAG the
/// merged slack per endpoint equals the elementwise serial minimum over
/// the per-corner twin reports, `merged_scenario` names the first lane
/// attaining it, and the merged aggregates follow the merged slacks.
#[test]
fn merged_slack_is_the_per_corner_serial_minimum() {
    let (_, mut engine) = build(29, InstaConfig::default());
    engine.propagate();
    let corners = [
        CornerTransform::IDENTITY,
        CornerTransform::scale(1.08, 1.2),
        CornerTransform {
            mean_scale: 0.93,
            mean_offset_ps: 2.5,
            sigma_scale: 1.05,
            sigma_offset_ps: 0.1,
        },
    ];
    let scenarios: Vec<Scenario> = corners
        .iter()
        .map(|&c| Scenario::default().with_corner(c))
        .collect();
    let want = serial_twin_reference(&engine, &scenarios);
    let mcmm = engine.evaluate_mcmm(&scenarios);
    assert_lanes_match(&mcmm.scenarios, &want).expect("per-lane equivalence");

    let reports: Vec<&InstaReport> =
        want.iter().map(|w| w.as_ref().expect("valid corner")).collect();
    let n_eps = reports[0].slacks.len();
    let mut wns = f64::INFINITY;
    let mut tns = 0.0;
    let mut violations = 0usize;
    for ep in 0..n_eps {
        let (mut min, mut who) = (f64::INFINITY, u32::MAX);
        for (i, r) in reports.iter().enumerate() {
            if r.slacks[ep] < min {
                min = r.slacks[ep];
                who = i as u32;
            }
        }
        assert_eq!(
            mcmm.merged_slacks[ep].to_bits(),
            min.to_bits(),
            "endpoint {ep}: merged slack is not the serial minimum"
        );
        assert_eq!(mcmm.merged_scenario[ep], who, "endpoint {ep}: wrong lane");
        if min < 0.0 {
            tns += min;
            violations += 1;
        }
        wns = wns.min(min);
    }
    assert_eq!(mcmm.merged_wns_ps.to_bits(), wns.to_bits());
    assert_eq!(mcmm.merged_tns_ps.to_bits(), tns.to_bits());
    assert_eq!(mcmm.merged_violations, violations);
    // A pessimistic corner must actually bite somewhere for this test
    // to mean anything — the identity lane cannot own every endpoint.
    assert!(mcmm.merged_scenario.iter().any(|&w| w != 0));
}

/// Mode masking (satellite): a disabled endpoint contributes neither WNS
/// nor TNS nor a violation, but its slack stays readable in the lane's
/// report — and the merged view excludes it from that lane only.
#[test]
fn masked_endpoints_leave_aggregates_but_keep_slacks() {
    let (_, mut engine) = build(37, InstaConfig::default());
    engine.propagate();
    let base = engine.report().clone();
    let n_eps = base.slacks.len();
    assert!(n_eps > 1);
    // Mask the worst endpoint so WNS must move.
    let worst = (0..n_eps)
        .min_by(|&a, &b| base.slacks[a].total_cmp(&base.slacks[b]))
        .expect("endpoints exist");
    let mask = ModeMask::disabling([worst]);
    let scenarios = [Scenario::default().with_mode(mask.clone())];
    let got = engine
        .evaluate(&scenarios, &PassOptions::default())
        .scenarios;
    let masked = got[0].outcome.as_ref().expect("valid scenario");

    // The slack is still present and bit-identical to the unmasked base…
    assert_eq!(masked.slacks.len(), n_eps);
    assert_eq!(masked.slacks[worst].to_bits(), base.slacks[worst].to_bits());
    // …but the aggregates exclude it, exactly like `masked()` on the base.
    let twin = base.masked(&mask);
    assert_eq!(report_bits(masked), report_bits(&twin));
    if base.slacks[worst] < 0.0 {
        assert!(masked.tns_ps > base.tns_ps, "TNS must shed the masked endpoint");
        assert_eq!(masked.n_violations + 1, base.n_violations);
    }
    assert!(masked.wns_ps >= base.wns_ps);

    // Merged view: the masked lane cannot cover the endpoint, an
    // unmasked lane can.
    let sweep = [
        Scenario::default().with_mode(mask),
        Scenario::default().with_corner(CornerTransform::scale(1.05, 1.0)),
    ];
    let mcmm = engine.evaluate_mcmm(&sweep);
    assert_eq!(mcmm.merged_scenario[worst], 1, "only lane 1 covers the endpoint");
}

/// Cancellation (satellite): a pre-fired token cancels every lane that
/// has a level to sweep, with the same per-lane `Cancelled` error — at the
/// same level — a serial session under that token raises: a corner lane at
/// level 1 (its base pass, like its twin's full pass, polls every level),
/// an identity lane at its own first dirty level (at level 0 when its
/// arcs all lead into nodes no endpoint sees). A lane with neither a
/// corner nor deltas has no level to poll and is the base report, as its
/// twin is. The engine stays healthy and untouched, and so does the twins'
/// engine after a cancelled cone session: it is taken back to the
/// pre-session bits, in sync. Only a corner twin's *full pass*, cut at
/// level 1, leaves the arrays marked stale (a rollback never pays for a
/// second full pass), so that twin alone re-syncs by hand. (About 900
/// nodes, so that no lane crosses the cone's seed switch: a lane replayed
/// as a session would, cut in its full pass, leave the shared base stale
/// for the others.)
#[test]
fn prefired_cancel_cancels_every_corner_lane() {
    let design = generate_design(&GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        ..GeneratorConfig::small("mcmm_eq", 41)
    });
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");
    engine.propagate();
    let base_bits = report_bits(engine.report());
    let n_eps = engine.report().slacks.len();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xCA9C);
    let mut scenarios = random_scenarios(&golden, n_eps, &mut rng, 5);
    scenarios.push(Scenario::default());
    let token = CancelToken::new();
    token.cancel();
    // The twins: one session per scenario under the same fired token.
    let mut clone = engine.clone();
    let image = clone.undo_image();
    let want: Vec<Result<InstaReport, usize>> = scenarios
        .iter()
        .map(|sc| {
            let twin = clone.scenario_twin_deltas(sc);
            let mut session = clone.begin_session().with_options(PassOptions {
                cancel: Some(token.clone()),
                ..PassOptions::default()
            });
            let outcome = session.update_timing(&twin);
            drop(session);
            if sc.corner.is_some_and(|c| !c.is_identity()) {
                clone.propagate();
            }
            assert!(
                clone.undo_image() == image,
                "a cancelled session left a trace"
            );
            outcome.map_err(|e| match e {
                InstaError::Cancelled { level, .. } => level,
                other => panic!("twin failed with {other}"),
            })
        })
        .collect();
    let got = engine
        .evaluate(
            &scenarios,
            &PassOptions {
                cancel: Some(token),
                ..PassOptions::default()
            },
        )
        .scenarios;
    assert_eq!(got.len(), 6);
    let mut cancelled = 0;
    for (r, (sc, w)) in got.iter().zip(scenarios.iter().zip(&want)) {
        match (&r.outcome, w) {
            (Err(InstaError::Cancelled { level, .. }), Err(twin_level)) => {
                assert_eq!(level, twin_level, "lane {} cancel level", r.scenario);
                if sc.corner.is_some_and(|c| !c.is_identity()) {
                    assert_eq!(
                        *level, 1,
                        "corner lane {} is cut in its base pass",
                        r.scenario
                    );
                }
                cancelled += 1;
            }
            (Ok(report), Ok(_)) => {
                assert!(
                    sc.deltas.is_empty(),
                    "only a lane with no level to sweep survives"
                );
                let masked = match &sc.mode {
                    Some(m) => engine.report().masked(m),
                    None => engine.report().clone(),
                };
                assert_eq!(report_bits(report), report_bits(&masked));
            }
            (g, w) => panic!("lane {}: {g:?}, its twin {w:?}", r.scenario),
        }
    }
    assert!(cancelled >= 3, "the batch must hold lanes with work");
    assert!(got[5].outcome.is_ok());
    engine
        .health_check()
        .expect("engine healthy after cancelled sweep");
    assert_eq!(report_bits(engine.report()), base_bits);
}

/// Dedup (satellite): a C-corner × M-mode sweep propagates C lanes. The
/// per-scenario reports are bit-identical to one serial twin session per
/// scenario, and the counters record the sharing.
#[test]
fn mode_sweeps_dedup_to_corner_lanes_with_identical_reports() {
    let (_, mut engine) = build(53, InstaConfig::default());
    engine.propagate();
    let n_eps = engine.report().slacks.len();
    let corners = [CornerTransform::IDENTITY, CornerTransform::scale(1.07, 1.15)];
    let modes: Vec<ModeMask> = (0..3)
        .map(|m| ModeMask::disabling([(m * 2) % n_eps, (m * 2 + 1) % n_eps]))
        .collect();
    // C×M sweep, corner-major.
    let sweep: Vec<Scenario> = corners
        .iter()
        .flat_map(|&c| {
            modes
                .iter()
                .map(move |m| Scenario::default().with_corner(c).with_mode(m.clone()))
        })
        .collect();

    let want = serial_twin_reference(&engine, &sweep);
    let before = engine.counters();
    let mcmm = engine.evaluate_mcmm(&sweep);
    let after = engine.counters();

    assert_eq!(mcmm.scenarios.len(), 6);
    assert_lanes_match(&mcmm.scenarios, &want).expect("dedup keeps every lane's twin bits");
    assert_eq!(after.batches, before.batches + 1);
    // 2 corners propagate, 4 of 6 submissions share a lane.
    assert_eq!(after.mcmm_deduped, before.mcmm_deduped + 4);
    assert_eq!(after.batch_scenarios, before.batch_scenarios + 6);
    assert_eq!(after.mcmm_corner_lanes, before.mcmm_corner_lanes + 1);
}

/// Zero-width corners (satellite): `sigma_scale = 0` collapses every
/// arc distribution to zero width. The lane must stay finite and
/// bit-identical to its serial twin, whose arrival distributions report
/// σ = 0 exactly.
#[test]
fn zero_sigma_corners_stay_finite() {
    for_all(
        Config::cases(6).seed(SUITE_SEED ^ 0x5160),
        |rng| (rng.bounded_u64(64), rng.next_u64()),
        |&(dseed, stream)| {
            let (golden, mut engine) = build(dseed, InstaConfig::default());
            engine.propagate();
            let mut rng = Rng::seed_from_u64(stream);
            let zero = CornerTransform {
                mean_scale: 1.0,
                mean_offset_ps: 0.0,
                sigma_scale: 0.0,
                sigma_offset_ps: 0.0,
            };
            let scenarios = [Scenario::from(random_deltas(&golden, &mut rng)).with_corner(zero)];
            let want = serial_twin_reference(&engine, &scenarios);
            let got = engine
                .evaluate(&scenarios, &PassOptions::default())
                .scenarios;
            assert_lanes_match(&got, &want)?;

            let r = got[0].outcome.as_ref().map_err(|e| e.to_string())?;
            if !r.slacks.iter().chain(&r.arrivals).all(|v| v.is_finite()) {
                return Err("zero-width lane produced a non-finite value".into());
            }
            // The twin's propagated distributions must come out
            // finite with a non-negative σ: every arc's σ is scaled
            // to exactly 0 (launch seeds stay corner-invariant).
            let mut twin = engine.clone();
            twin.reannotate(&twin.scenario_twin_deltas(&scenarios[0]).clone())
                .map_err(|e| e.to_string())?;
            twin.propagate();
            let mut seen = 0usize;
            for node in 0..64u32 {
                for rf in 0..2 {
                    if let Some((m, s)) = twin.distribution_at(node, rf) {
                        seen += 1;
                        if !m.is_finite() || !s.is_finite() || s < 0.0 {
                            return Err(format!(
                                "node {node}/{rf}: ({m}, {s}) not a finite distribution"
                            ));
                        }
                    }
                }
            }
            if seen == 0 {
                return Err("no propagated distributions sampled".into());
            }
            Ok(())
        },
    );
}
