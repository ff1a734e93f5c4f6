//! Batched-evaluation equivalence suite (ISSUE 4): `evaluate_batch([d0..dS])`
//! must be **bit-identical**, per scenario, to S independent serial
//! `update_timing` sessions run from the same engine state — across
//! generated designs, batch sizes {1, 2, 7, 16}, serial and parallel
//! runners, CPPR on/off, duplicate-arc delta sets, empty scenarios, and
//! the gradient passes. The batch must also leave the engine's own state
//! (annotations, report, drift odometer) untouched, like S rolled-back
//! sessions.

use insta_engine::{
    BatchOptions, DeltaSet, InstaConfig, InstaEngine, InstaReport, ScenarioReport,
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
fn random_scenarios(golden: &RefSta, rng: &mut Rng, s: usize) -> Vec<DeltaSet> {
    let delays = golden.delays();
    let n_arcs = delays.mean.len() as u64;
    (0..s)
        .map(|_| {
            let len = rng.bounded_u64(6) as usize;
            let deltas = (0..len)
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
            DeltaSet { deltas }
        })
        .collect()
}

/// The serial reference: one checkpoint/rollback session per scenario, in
/// order, on a clone of the engine.
fn serial_reference(
    engine: &InstaEngine,
    scenarios: &[DeltaSet],
    gradients: bool,
) -> Vec<(Result<InstaReport, String>, Option<Vec<f64>>)> {
    let mut clone = engine.clone();
    scenarios
        .iter()
        .map(|sc| {
            let mut session = clone.begin_session();
            let mut grads = None;
            let outcome = session.update_timing(&sc.deltas).and_then(|report| {
                if gradients {
                    session.forward_lse()?;
                    session.backward_tns()?;
                    grads = Some(session.engine().arc_gradients());
                }
                Ok(report)
            });
            session.rollback();
            (outcome.map_err(|e| e.category().to_string()), grads)
        })
        .collect()
}

fn assert_batch_matches(
    got: &[ScenarioReport],
    want: &[(Result<InstaReport, String>, Option<Vec<f64>>)],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} reports for {} scenarios", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.scenario != i {
            return Err(format!("scenario index {} at position {i}", g.scenario));
        }
        match (&g.outcome, &w.0) {
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
        match (&g.gradients, &w.1) {
            (Some(gg), Some(wg)) => {
                let gb: Vec<u64> = gg.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u64> = wg.iter().map(|v| v.to_bits()).collect();
                if gb != wb {
                    return Err(format!("scenario {i}: gradients differ from serial run"));
                }
            }
            (None, None) => {}
            _ => return Err(format!("scenario {i}: gradient presence differs")),
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
            let want = serial_reference(&engine, &scenarios, false);
            let got = engine.evaluate_batch(&scenarios);
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

/// Gradient equivalence: `evaluate_batch_with(gradients: true)` returns,
/// per scenario, the exact ∂TNS/∂delay vector a serial session's
/// `forward_lse` + `backward_tns` + `arc_gradients` produces.
#[test]
fn batch_gradients_match_serial_sessions() {
    for &n_threads in &[1usize, 4] {
        let cfg = InstaConfig {
            n_threads,
            ..InstaConfig::default()
        };
        let (golden, mut engine) = build(21, cfg);
        engine.propagate();
        let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x66AD);
        let scenarios = random_scenarios(&golden, &mut rng, 7);
        let want = serial_reference(&engine, &scenarios, true);
        let got = engine.evaluate_batch_with(
            &scenarios,
            &BatchOptions {
                gradients: true,
                ..BatchOptions::default()
            },
        );
        assert_batch_matches(&got, &want).expect("gradient equivalence");
        assert!(got.iter().all(|r| r.gradients.is_some()));
    }
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
        DeltaSet::default(),
        DeltaSet::from(vec![
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
    let want = serial_reference(&engine, &scenarios, false);
    let got = engine.evaluate_batch(&scenarios);
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
    let want = serial_reference(&engine, &scenarios, false);
    let got = engine.evaluate_batch(&scenarios);
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
    let want = serial_reference(&engine, &scenarios, false);
    let got = engine.evaluate_batch(&scenarios);
    assert_batch_matches(&got, &want).expect("chunked equivalence");
}

/// A batch on a drift-exhausted engine routes scenarios through the
/// degraded serial path and still matches the serial reference.
#[test]
fn drift_exhausted_batches_match_serial() {
    let cfg = InstaConfig {
        drift_policy: insta_engine::DriftPolicy {
            max_updates: 1,
            ..insta_engine::DriftPolicy::default()
        },
        ..InstaConfig::default()
    };
    let (golden, mut engine) = build(63, cfg);
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xD21F);
    // Exhaust the drift budget so every scenario would degrade serially.
    let warm = random_scenarios(&golden, &mut rng, 1);
    engine.reannotate(&warm[0].deltas).expect("valid warm-up deltas");
    engine.propagate();
    assert!(engine.drift_exceeded() || engine.counters().drift_updates >= 1);

    let scenarios = random_scenarios(&golden, &mut rng, 4);
    let want = serial_reference(&engine, &scenarios, false);
    let got = engine.evaluate_batch(&scenarios);
    assert_batch_matches(&got, &want).expect("degraded-path equivalence");
}

/// Counter accounting on the degraded batch path (ISSUE 5 satellite):
/// a batch on a drift-exhausted engine routes its scenarios through real
/// checkpoint/rollback sessions, and each such session must bump
/// `incremental_updates` and `degraded_passes` exactly once per scenario
/// while the drift odometer (`drift_updates` / `drift_mass`) is restored
/// by the rollback — the batch as a whole leaves it bit-untouched.
#[test]
fn degraded_batch_accounting_is_exact_and_drift_neutral() {
    let cfg = InstaConfig {
        drift_policy: insta_engine::DriftPolicy {
            max_updates: 1,
            ..insta_engine::DriftPolicy::default()
        },
        ..InstaConfig::default()
    };
    let (golden, mut engine) = build(77, cfg);
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x5EED);
    // Exhaust the drift budget so every batch scenario degrades.
    let warm = random_scenarios(&golden, &mut rng, 1);
    engine.reannotate(&warm[0].deltas).expect("valid warm-up deltas");
    engine.propagate();
    assert!(engine.drift_exceeded());

    let scenarios = random_scenarios(&golden, &mut rng, 3);
    let before = engine.counters();
    let got = engine.evaluate_batch(&scenarios);
    let after = engine.counters();
    let succeeded = got.iter().filter(|r| r.outcome.is_ok()).count() as u64;
    assert_eq!(succeeded, 3, "all degraded scenarios should evaluate");
    // Exactly one degraded pass and one incremental update per scenario —
    // no double-counting from the session wrapper or the health gate.
    assert_eq!(after.degraded_passes, before.degraded_passes + 3);
    assert_eq!(after.incremental_updates, before.incremental_updates + 3);
    // The drift odometer is checkpointed state: the rolled-back sessions
    // restore it bit-exactly, so the batch is drift-neutral.
    assert_eq!(after.drift_updates, before.drift_updates);
    assert_eq!(after.drift_mass.to_bits(), before.drift_mass.to_bits());
    // And the engine still reports the pre-existing exhaustion.
    assert!(engine.drift_exceeded());
}

/// Regression (ISSUE 14): `BatchOptions::deadline` is one wall-clock budget
/// for the whole call. It used to be re-armed for the base sync, for the
/// lane sweep and for *each* serially replayed lane, so N drift-degraded
/// lanes with budget D could run for (N + 2)·D. With a drift policy that
/// degrades every lane, a budget of three measured lanes and twenty lanes,
/// the tail must be cut and the call must return near its budget.
#[test]
fn a_batch_deadline_is_one_budget_for_the_whole_call() {
    let cfg = InstaConfig {
        drift_policy: insta_engine::DriftPolicy {
            max_updates: 1,
            ..insta_engine::DriftPolicy::default()
        },
        ..InstaConfig::default()
    };
    // A medium design, so that one degraded lane (a fused full pass plus
    // a health check) is milliseconds, far above timer and scheduler noise.
    let design = generate_design(&GeneratorConfig::medium("batch_deadline", 5));
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut engine = InstaEngine::new(golden.export_insta_init(), cfg).expect("valid snapshot");
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xDEAD);
    let mut nonempty = |n: usize| -> Vec<DeltaSet> {
        let mut out = Vec::new();
        while out.len() < n {
            out.extend(
                random_scenarios(&golden, &mut rng, n)
                    .into_iter()
                    .filter(|s| !s.deltas.is_empty()),
            );
        }
        out.truncate(n);
        out
    };
    let warm = nonempty(1);
    engine
        .reannotate(&warm[0].deltas)
        .expect("valid warm-up deltas");
    engine.propagate();
    assert!(engine.drift_exceeded());
    let scenarios = nonempty(20);

    // One serial lane, measured: the median of three single-lane calls.
    let mut lane_times: Vec<std::time::Duration> = (0..3)
        .map(|i| {
            let t = std::time::Instant::now();
            let got = engine.evaluate_batch(&scenarios[i..i + 1]);
            assert!(got[0].outcome.is_ok());
            t.elapsed()
        })
        .collect();
    lane_times.sort();
    let budget = 3 * lane_times[1];

    let degraded = engine.counters().degraded_passes;
    let t = std::time::Instant::now();
    let got = engine.evaluate_batch_with(
        &scenarios,
        &BatchOptions {
            deadline: Some(budget),
            ..BatchOptions::default()
        },
    );
    let elapsed = t.elapsed();
    assert_eq!(
        engine.counters().degraded_passes,
        degraded + 20,
        "every lane degrades"
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
    scenarios[2] = DeltaSet::from(vec![ArcDelta {
        arc: u32::MAX - 1,
        mean: [1.0, 1.0],
        sigma: [0.1, 0.1],
    }]);
    let before = engine.counters();
    let got = engine.evaluate_batch(&scenarios);
    let after = engine.counters();
    assert_eq!(after.batches, before.batches + 1);
    assert_eq!(after.batch_scenarios, before.batch_scenarios + 5);
    assert_eq!(after.batch_quarantined, before.batch_quarantined + 1);
    assert!(got[2].outcome.is_err());
    assert_eq!(got.iter().filter(|r| r.outcome.is_ok()).count(), 4);
}
