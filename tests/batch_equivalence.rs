//! Batched-evaluation equivalence suite: `evaluate([d0..dS])`
//! must be **bit-identical**, per scenario, to S independent serial
//! `update_timing` sessions run from the same engine state — across
//! generated designs, batch sizes {1, 2, 7, 16}, serial and parallel
//! runners, CPPR on/off, duplicate-arc delta sets and empty scenarios. The
//! batch must also leave the engine's own state (annotations, report)
//! untouched, like S rolled-back sessions. A lane returns
//! a report and no gradients: the engine's own backward pass is the one
//! gradient producer.

use insta_engine::{
    Deadline, InstaConfig, InstaEngine, InstaError, InstaReport, PassOptions, Scenario,
    ScenarioReport,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{RefSta, StaConfig};
use insta_sta::support::prop::{for_all, Config};
use insta_support::rng::Rng;

const SUITE_SEED: u64 = 0x8A7C_4E01_1;
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 16];

fn build(seed: u64, cfg: InstaConfig) -> (RefSta, InstaEngine) {
    let design = generate_design(&GeneratorConfig::small("batch_eq", seed));
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

/// Random valid scenarios: in-range arcs, finite means, non-negative
/// sigmas, jittered off the golden delays. Lengths vary and include 0
/// (the base scenario).
fn random_scenarios(golden: &RefSta, rng: &mut Rng, s: usize) -> Vec<Scenario> {
    let delays = golden.delays();
    let n_arcs = delays.mean.len() as u64;
    (0..s)
        .map(|_| {
            let len = rng.bounded_u64(6) as usize;
            let deltas: Vec<ArcDelta> = (0..len)
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
                .collect();
            Scenario::from(deltas)
        })
        .collect()
}

/// The serial reference: one checkpoint/rollback session per scenario, in
/// order, on a clone of the engine.
fn serial_reference(
    engine: &InstaEngine,
    scenarios: &[Scenario],
) -> Vec<Result<InstaReport, String>> {
    let mut clone = engine.clone();
    scenarios
        .iter()
        .map(|sc| {
            let mut session = clone.begin_session();
            let outcome = session.update_timing(&sc.deltas);
            session.rollback();
            outcome.map_err(|e: InstaError| e.category().to_string())
        })
        .collect()
}

fn assert_batch_matches(
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
                    return Err(format!("scenario {i}: report differs from serial run"));
                }
            }
            (Err(ge), Err(we)) => {
                if ge.category() != we {
                    return Err(format!(
                        "scenario {i}: error category {} vs serial {we}",
                        ge.category()
                    ));
                }
            }
            (Ok(_), Err(we)) => return Err(format!("scenario {i}: Ok, serial failed with {we}")),
            (Err(ge), Ok(_)) => {
                return Err(format!("scenario {i}: {}, serial succeeded", ge.category()))
            }
        }
    }
    Ok(())
}

/// The load-bearing property: across generated designs, batch sizes
/// {1, 2, 7, 16}, and serial-vs-parallel runners, every scenario of a
/// batch is bit-identical to its own serial session — and the batch
/// leaves the engine's state bit-untouched.
#[test]
fn batch_is_bit_identical_to_serial_sessions() {
    for_all(
        Config::cases(12).seed(SUITE_SEED),
        |rng| {
            (
                rng.bounded_u64(64),     // design seed
                rng.next_u64(),          // scenario stream
                rng.bounded_u64(4) as usize, // batch-size pick
                rng.bounded_u64(2) as usize, // thread pick
            )
        },
        |&(dseed, stream, size_idx, threads_idx)| {
            let s = BATCH_SIZES[size_idx];
            let n_threads = [1usize, 4][threads_idx];
            let cfg = InstaConfig {
                n_threads,
                ..InstaConfig::default()
            };
            let (golden, mut engine) = build(dseed, cfg);
            engine.propagate();
            let base_bits = report_bits(engine.report());

            let mut rng = Rng::seed_from_u64(stream);
            let scenarios = random_scenarios(&golden, &mut rng, s);
            let want = serial_reference(&engine, &scenarios);
            let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
            assert_batch_matches(&got, &want)?;

            // The batch behaves like S rolled-back sessions: the engine's
            // own report is bit-untouched.
            if report_bits(engine.report()) != base_bits {
                return Err("batch mutated the engine's own report".into());
            }
            Ok(())
        },
    );
}

/// Duplicate-arc delta sets (last write wins, like `reannotate`) and the
/// empty delta set (the base scenario) both match their serial runs.
#[test]
fn duplicate_arcs_and_empty_scenarios_match_serial() {
    let (golden, mut engine) = build(33, InstaConfig::default());
    engine.propagate();
    let delays = golden.delays();
    let arc = (delays.mean.len() / 2) as u32;
    let mean = delays.mean[arc as usize];
    let sigma = delays.sigma[arc as usize];
    let scenarios = vec![
        Scenario::default(),
        Scenario::from(vec![
            ArcDelta {
                arc,
                mean: [mean[0] + 40.0, mean[1] + 40.0],
                sigma,
            },
            // Second delta to the same arc must win, exactly like two
            // sequential re-annotations.
            ArcDelta {
                arc,
                mean: [mean[0] + 3.0, mean[1] + 5.0],
                sigma: [sigma[0] * 2.0, sigma[1] * 2.0],
            },
        ]),
    ];
    let want = serial_reference(&engine, &scenarios);
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    assert_batch_matches(&got, &want).expect("duplicate/empty equivalence");
    // The empty scenario reproduces the base report exactly.
    let base = report_bits(engine.report());
    let empty = report_bits(got[0].outcome.as_ref().expect("base scenario"));
    assert_eq!(empty, base);
}

/// CPPR off must flow through the batched path the same way it flows
/// through the serial one.
#[test]
fn batch_matches_serial_with_cppr_disabled() {
    let cfg = InstaConfig {
        cppr: false,
        ..InstaConfig::default()
    };
    let (golden, mut engine) = build(45, cfg);
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x3355);
    let scenarios = random_scenarios(&golden, &mut rng, 7);
    let want = serial_reference(&engine, &scenarios);
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    assert_batch_matches(&got, &want).expect("no-CPPR equivalence");
}

/// A batch has no width limit: 70 scenarios (more than the 64-lane chunks
/// of the old shared sweep) still match scenario-for-scenario.
#[test]
fn batches_wider_than_a_lane_chunk_match_serial() {
    let (golden, mut engine) = build(57, InstaConfig::default());
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x7070);
    let scenarios = random_scenarios(&golden, &mut rng, 70);
    let want = serial_reference(&engine, &scenarios);
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    assert_batch_matches(&got, &want).expect("chunked equivalence");
}

/// A scenario that re-annotates every other graph arc: far more distinct
/// seeds than the cone's full-pass switch allows, so its lane (and its
/// serial twin) is one full pass. Jittered, so two such scenarios are two
/// lanes.
fn past_the_switch(golden: &RefSta, rng: &mut Rng) -> Scenario {
    let delays = golden.delays();
    let wide: Vec<ArcDelta> = (0..delays.mean.len())
        .step_by(2)
        .map(|arc| ArcDelta {
            arc: arc as u32,
            mean: [
                delays.mean[arc][0] + rng.next_f64() * 10.0,
                delays.mean[arc][1] + rng.next_f64() * 10.0,
            ],
            sigma: delays.sigma[arc],
        })
        .collect();
    Scenario::from(wide)
}

/// The one `batch.sweep` span of the last call's trace (tracing cleared
/// before the call), as (lanes, cone lanes).
fn sweep_lanes(engine: &InstaEngine) -> (f64, f64) {
    let journal = engine.trace_journal().expect("tracing on");
    let mut spans = journal.events().filter(|e| e.name == "batch.sweep");
    let span = spans.next().expect("one batch.sweep span");
    assert!(spans.next().is_none(), "one batch.sweep span per call");
    let field = |name| span.field(name).expect("batch.sweep field");
    (field("lanes"), field("cone_lanes"))
}

/// After a committed update an engine's small lanes are cone lanes: the
/// call's `batch.sweep` span counts every lane as one, and each still
/// equals its serial twin.
#[test]
fn after_an_update_every_small_lane_is_a_cone_lane() {
    let design = generate_design(&GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        ..GeneratorConfig::small("batch_eq", 67)
    });
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xC04E);
    let warm = random_scenarios(&golden, &mut rng, 1);
    engine
        .update_timing(&warm[0].deltas)
        .expect("valid warm-up deltas");

    let scenarios: Vec<Scenario> = random_scenarios(&golden, &mut rng, 16)
        .into_iter()
        .filter(|s| !s.deltas.is_empty())
        .take(4)
        .collect();
    let want = serial_reference(&engine, &scenarios);
    engine.enable_tracing();
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    assert_batch_matches(&got, &want).expect("cone lanes equal their twins");
    assert_eq!(
        sweep_lanes(&engine),
        (4.0, 4.0),
        "every lane is a cone lane"
    );
}

/// Counter accounting on the full-pass batch path: every lane past the
/// cone's full-pass switch must bump `incremental_updates` exactly once,
/// as its serial session does.
#[test]
fn full_pass_batch_accounting_is_exact() {
    let (golden, mut engine) = build(77, InstaConfig::default());
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x5EED);
    let warm = random_scenarios(&golden, &mut rng, 1);
    engine
        .update_timing(&warm[0].deltas)
        .expect("valid warm-up deltas");
    assert_eq!(engine.counters().incremental_updates, 1);

    let scenarios: Vec<Scenario> = (0..3).map(|_| past_the_switch(&golden, &mut rng)).collect();
    let before = engine.counters();
    engine.enable_tracing();
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    let after = engine.counters();
    assert_eq!(
        sweep_lanes(&engine),
        (3.0, 0.0),
        "every lane is a full pass"
    );
    let succeeded = got.iter().filter(|r| r.outcome.is_ok()).count() as u64;
    assert_eq!(succeeded, 3, "all full-pass scenarios should evaluate");
    // Exactly one incremental update per scenario — no double-counting
    // from the session wrapper.
    assert_eq!(after.incremental_updates, before.incremental_updates + 3);
}

/// Regression: `PassOptions::deadline` is one wall-clock budget
/// for the whole call. It used to be re-armed for the base sync, for the
/// lane sweep and for *each* full-pass lane, so N such lanes with budget D
/// could run for (N + 2)·D. With twenty lanes past the cone's full-pass
/// switch and a budget of three measured lanes, the tail must be cut and
/// the call must return near its budget.
#[test]
fn a_batch_deadline_is_one_budget_for_the_whole_call() {
    // A medium design, so that one full-pass lane is milliseconds, far
    // above timer and scheduler noise.
    let design = generate_design(&GeneratorConfig::medium("batch_deadline", 5));
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xDEAD);
    let scenarios: Vec<Scenario> = (0..20)
        .map(|_| past_the_switch(&golden, &mut rng))
        .collect();

    // One serial lane, measured: the median of three single-lane calls.
    let mut lane_times: Vec<std::time::Duration> = (0..3)
        .map(|i| {
            let t = std::time::Instant::now();
            let got = engine.evaluate(&scenarios[i..i + 1], &PassOptions::default()).scenarios;
            assert!(got[0].outcome.is_ok());
            t.elapsed()
        })
        .collect();
    lane_times.sort();
    let budget = 3 * lane_times[1];

    let updates = engine.counters().incremental_updates;
    let t = std::time::Instant::now();
    let got = engine
        .evaluate(
            &scenarios,
            &PassOptions {
                deadline: Some(Deadline::after(budget)),
                ..PassOptions::default()
            },
        )
        .scenarios;
    let elapsed = t.elapsed();
    assert_eq!(
        engine.counters().incremental_updates,
        updates + 20,
        "every lane is a full pass"
    );
    let done = got.iter().take_while(|r| r.outcome.is_ok()).count();
    assert!(
        done < 10,
        "{done} lanes finished inside a three-lane budget"
    );
    for r in &got[done..] {
        assert!(
            matches!(r.outcome, Err(insta_engine::InstaError::Cancelled { .. })),
            "lane {} after the deadline must be cancelled, got {:?}",
            r.scenario,
            r.outcome.as_ref().map(|r| r.tns_ps)
        );
    }
    assert!(
        elapsed < 3 * budget,
        "the call took {elapsed:?} on a {budget:?} budget"
    );
}

/// Batch counters are monotonic and quarantine-aware.
#[test]
fn batch_counters_account_for_every_scenario() {
    let (golden, mut engine) = build(71, InstaConfig::default());
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xC0C0);
    let mut scenarios = random_scenarios(&golden, &mut rng, 5);
    // One invalid scenario: out-of-range arc id → validation quarantine.
    scenarios[2] = Scenario::from(vec![ArcDelta {
        arc: u32::MAX - 1,
        mean: [1.0, 1.0],
        sigma: [0.1, 0.1],
    }]);
    let before = engine.counters();
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    let after = engine.counters();
    assert_eq!(after.batches, before.batches + 1);
    assert_eq!(after.batch_scenarios, before.batch_scenarios + 5);
    assert_eq!(after.batch_quarantined, before.batch_quarantined + 1);
    assert!(got[2].outcome.is_err());
    assert_eq!(got.iter().filter(|r| r.outcome.is_ok()).count(), 4);
}

/// No `evaluate` call opens a session: not for lanes whose deltas seed
/// more than `n / 64` nodes (past the cone's full-pass switch), alone or
/// beside a cone lane, not when a pre-fired token cancels the base sync.
/// Every lane still equals its serial-session twin, and a full-pass lane
/// still counts one incremental update.
#[test]
fn no_evaluate_call_opens_a_session() {
    let sessions = |e: &InstaEngine| {
        let c = e.counters();
        (c.sessions_begun, c.sessions_rolled_back)
    };
    // Lanes past the switch; the last scenario repeats the first, so four
    // scenarios are three lanes.
    let (golden, mut engine) = build(81, InstaConfig::default());
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x5E55);
    let warm = random_scenarios(&golden, &mut rng, 1);
    engine
        .reannotate(&warm[0].deltas)
        .expect("valid warm-up deltas");
    engine.propagate();
    let mut scenarios: Vec<Scenario> = (0..3).map(|_| past_the_switch(&golden, &mut rng)).collect();
    scenarios.push(scenarios[0].clone());
    let want = serial_reference(&engine, &scenarios);
    let before = engine.counters();
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    let after = engine.counters();
    assert_batch_matches(&got, &want).expect("full-pass lanes equal their twins");
    assert_eq!(
        sessions(&engine),
        (before.sessions_begun, before.sessions_rolled_back)
    );
    assert_eq!(after.incremental_updates, before.incremental_updates + 3);

    // A lane past the seed switch beside a cone lane.
    let (golden, mut engine) = build(83, InstaConfig::default());
    engine.propagate();
    let wide = past_the_switch(&golden, &mut rng);
    assert!(
        wide.deltas.len() > engine.num_nodes() / 64,
        "fixture: past the switch"
    );
    let mut scenarios = random_scenarios(&golden, &mut rng, 2);
    scenarios.push(wide);
    let want = serial_reference(&engine, &scenarios);
    let before = engine.counters();
    let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
    assert_batch_matches(&got, &want).expect("the wide lane equals its twin");
    assert_eq!(
        sessions(&engine),
        (before.sessions_begun, before.sessions_rolled_back)
    );

    // A stale base whose sync a pre-fired token cancels: every lane reports
    // the cancel its twin's full pass raises, at the same level.
    let token = insta_engine::CancelToken::new();
    token.cancel();
    engine
        .reannotate(&scenarios[0].deltas)
        .expect("valid deltas");
    let mut twin = engine.clone();
    let before = sessions(&engine);
    let cancel = PassOptions {
        cancel: Some(token.clone()),
        ..PassOptions::default()
    };
    let got = engine.evaluate(&scenarios, &cancel).scenarios;
    assert_eq!(sessions(&engine), before);
    for (g, sc) in got.iter().zip(&scenarios) {
        let mut session = twin.begin_session().with_options(PassOptions {
            cancel: Some(token.clone()),
            ..PassOptions::default()
        });
        let w = session.update_timing(&sc.deltas);
        drop(session);
        match (&g.outcome, &w) {
            (
                Err(insta_engine::InstaError::Cancelled { level: a, .. }),
                Err(insta_engine::InstaError::Cancelled { level: b, .. }),
            ) => assert_eq!(a, b, "lane {}", g.scenario),
            other => panic!("lane {}: {other:?}", g.scenario),
        }
    }
}
