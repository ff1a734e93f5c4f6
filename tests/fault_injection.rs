//! Umbrella fault-injection suite: every corruption class the harness
//! knows about, driven through the full ingest pipeline under a fixed
//! seed, with a single contract — **a corrupted snapshot surfaces as a
//! typed error or a finite result, never as a panic**.
//!
//! The pipeline under attack is the real one: snapshot text → JSON parse
//! (`insta_support::json`) → `InstaInit` decode → validation
//! (`InstaEngine::new`) → propagation → `health_check`. Each stage is
//! allowed to reject with its typed error; whatever survives all of them
//! must produce NaN-free slacks and gradients.

use insta_sta::engine::{InstaConfig, InstaEngine, PassOptions};
use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::refsta::export::InstaInit;
use insta_sta::refsta::{RefSta, StaConfig};
use insta_sta::support::json::parse;
use insta_sta::support::{Fault, FaultPlan, FromJson, ToJson};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Fixed suite seed: every corruption in this file derives from it.
const SUITE_SEED: u64 = 0x1257_FA01_7;
/// Corruptions tried per fault class.
const CASES_PER_FAULT: u64 = 12;

/// The clean snapshot every corruption starts from (built once).
fn clean_init() -> &'static InstaInit {
    static INIT: OnceLock<InstaInit> = OnceLock::new();
    INIT.get_or_init(|| {
        let d = generate_design(&GeneratorConfig::small("fault-inject", 17));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        sta.export_insta_init()
    })
}

/// Where in the pipeline a case ended up. Only used for the sanity
/// assertions that both rejection and acceptance actually occur — the
/// real assertion is that `drive_*` returns at all.
type Outcome = &'static str;

/// Drives corrupted snapshot *bytes* through the full ingest pipeline.
fn drive_bytes(bytes: &[u8]) -> Result<Outcome, String> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return Ok("rejected:utf8");
    };
    let v = match parse(text) {
        Err(e) => {
            // Satellite contract: parse errors carry a source position.
            if e.line > 0 && e.offset > text.len() {
                return Err(format!("parse error offset {} beyond input", e.offset));
            }
            return Ok("rejected:parse");
        }
        Ok(v) => v,
    };
    match InstaInit::from_json(&v) {
        Err(_) => Ok("rejected:decode"),
        Ok(init) => drive_init(init),
    }
}

/// Drives a (possibly corrupted) in-memory snapshot through build,
/// propagation, gradients, and the poison scan.
fn drive_init(init: InstaInit) -> Result<Outcome, String> {
    let mut eng = match InstaEngine::new(init, InstaConfig::default()) {
        Err(_) => return Ok("rejected:validate"),
        Ok(e) => e,
    };
    if eng.try_propagate(&PassOptions::default()).is_err() {
        return Ok("rejected:runtime");
    }
    for (i, s) in eng.report().slacks.iter().enumerate() {
        if s.is_nan() {
            return Err(format!("NaN slack at endpoint {i}"));
        }
    }
    if eng.try_forward_lse(&PassOptions::default()).is_err()
        || eng.try_backward_tns(&PassOptions::default()).is_err()
    {
        return Ok("rejected:runtime");
    }
    if eng.health_check().is_err() {
        return Ok("rejected:poison");
    }
    if let Some(g) = eng.arc_gradients().iter().find(|g| g.is_nan()) {
        return Err(format!("NaN gradient {g}"));
    }
    Ok("accepted")
}

/// Runs one case with panics converted into test failures that name the
/// fault class and case index (the reproduction key).
fn no_panic(
    fault: Fault,
    case: u64,
    tag: &str,
    f: impl FnOnce() -> Result<Outcome, String>,
) -> Outcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(msg)) => panic!("{fault:?} case {case} ({tag}): contract violated: {msg}"),
        Err(_) => panic!("{fault:?} case {case} ({tag}): PANICKED (seed {SUITE_SEED:#x})"),
    }
}

#[test]
fn textual_corruption_never_panics_and_is_mostly_rejected() {
    let plan = FaultPlan::new(SUITE_SEED);
    let text = clean_init().to_json().to_string();
    let mut outcomes: BTreeMap<Outcome, usize> = BTreeMap::new();
    for fault in Fault::ALL.into_iter().filter(|f| f.is_textual()) {
        for case in 0..CASES_PER_FAULT {
            let bytes = plan.corrupt_text(case, fault, &text);
            let o = no_panic(fault, case, "strict", || {
                drive_bytes(&bytes)
            });
            *outcomes.entry(o).or_default() += 1;
        }
    }
    // Truncation almost always breaks the parse; a single bit flip can
    // land in a float mantissa and survive every check. Both rejection
    // and full traversal must be exercised, or the sweep proved nothing.
    let rejected: usize = outcomes
        .iter()
        .filter(|(k, _)| k.starts_with("rejected"))
        .map(|(_, n)| n)
        .sum();
    assert!(rejected > 0, "no textual corruption was rejected: {outcomes:?}");
    assert!(
        rejected + outcomes.get("accepted").copied().unwrap_or(0)
            == 2 * CASES_PER_FAULT as usize,
        "unaccounted outcomes: {outcomes:?}"
    );
}

#[test]
fn tree_corruption_never_panics_in_strict_mode() {
    let plan = FaultPlan::new(SUITE_SEED);
    let clean = clean_init().to_json();
    let mut strict_rejects = 0usize;
    for fault in Fault::ALL.into_iter().filter(|f| !f.is_textual()) {
        for case in 0..CASES_PER_FAULT {
            let mut v = clean.clone();
            if !plan.corrupt_json(case, fault, &mut v) {
                continue;
            }
            // Decode straight off the corrupted tree; round-tripping
            // through text is the textual test's job.
            let init = match InstaInit::from_json(&v) {
                Err(_) => continue, // typed decode rejection — fine
                Ok(init) => init,
            };
            let strict = no_panic(fault, case, "strict", || {
                drive_init(init)
            });
            if strict == "rejected:validate" {
                strict_rejects += 1;
            }
        }
    }
    assert!(
        strict_rejects > 0,
        "no tree corruption tripped strict validation — the sweep is toothless"
    );
}

/// Direct struct-level corruption, property-tested: the six ISSUE
/// corruption classes applied to the decoded `InstaInit` (bypassing the
/// JSON layer entirely, as a hostile or buggy producer would).
#[test]
fn struct_level_corruption_never_panics() {
    use insta_sta::support::prop::{for_all, Config};
    for_all(
        Config::cases(96).seed(SUITE_SEED),
        |rng| (rng.bounded_u64(6) as u8, rng.next_u64()),
        |&(class, pick)| {
            let mut init = clean_init().clone();
            corrupt_struct(&mut init, class, pick);
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                drive_init(init)
            })) {
                Ok(r) => r?,
                Err(_) => return Err(format!("class {class} pick {pick:#x} panicked")),
            };
            // Classes 0..=4 poison real data; strict must not accept the
            // snapshot unchanged *and* then produce poisoned output —
            // drive_init already turns that into Err. Any typed outcome
            // is a pass.
            let _ = outcome;
            Ok(())
        },
    );
}

/// Applies one of six deterministic struct-level corruption classes.
fn corrupt_struct(init: &mut InstaInit, class: u8, pick: u64) {
    let at = |len: usize| (pick as usize) % len.max(1);
    match class {
        // NaN / Inf arc delay mean.
        0 => {
            if !init.fanin.is_empty() {
                let i = at(init.fanin.len());
                init.fanin[i].mean[(pick >> 32) as usize % 2] =
                    if pick & 1 == 0 { f64::NAN } else { f64::INFINITY };
            }
        }
        // Negative sigma.
        1 => {
            if !init.fanin.is_empty() {
                let i = at(init.fanin.len());
                init.fanin[i].sigma[(pick >> 32) as usize % 2] = -1.5;
            }
        }
        // Out-of-range arc parent index.
        2 => {
            if !init.fanin.is_empty() {
                let i = at(init.fanin.len());
                init.fanin[i].parent = init.n_nodes as u32 + (pick >> 8) as u32 % 1000;
            }
        }
        // Level inversion: swap two entries of the level-major order.
        3 => {
            if init.order.len() >= 2 {
                let i = at(init.order.len());
                let j = (i + 1 + (pick >> 16) as usize % (init.order.len() - 1))
                    % init.order.len();
                init.order.swap(i, j);
            }
        }
        // Out-of-range source node.
        4 => {
            if !init.sources.is_empty() {
                let i = at(init.sources.len());
                init.sources[i].node = u32::MAX - 7;
            }
        }
        // NaN endpoint required time.
        _ => {
            if !init.endpoints.is_empty() {
                let i = at(init.endpoints.len());
                init.endpoints[i].required_base = f64::NAN;
            }
        }
    }
}

/// Mid-session corruption: every [`SessionFault`] class applied to an
/// otherwise-valid update batch, driven through a transactional session.
/// The contract is the session-layer extension of this suite's theme —
/// no case may panic, every case must end in a typed rejection or an
/// explicit abandon, and after the rollback the engine's report is
/// bit-identical to the pre-session baseline.
#[test]
fn mid_session_corruption_rolls_back_bit_identically() {
    use insta_sta::refsta::eco::ArcDelta;
    use insta_sta::support::rng::Rng;
    use insta_sta::support::SessionFault;

    let d = generate_design(&GeneratorConfig::small("fault-inject", 17));
    let mut golden = RefSta::new(&d, StaConfig::default()).expect("build");
    golden.full_update(&d);
    let mut engine = InstaEngine::new(clean_init().clone(), InstaConfig::default())
        .expect("clean snapshot");
    let baseline: Vec<u64> = engine
        .propagate()
        .slacks
        .iter()
        .map(|s| s.to_bits())
        .collect();

    let plan = FaultPlan::new(SUITE_SEED);
    let delays = golden.delays();
    let id_limit = delays.mean.len() as u32;
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x5E55);
    let mut rejected = 0usize;

    for &fault in SessionFault::ALL.iter() {
        for case in 0..CASES_PER_FAULT {
            // A small valid batch of exact golden re-annotations, then one
            // seeded corruption on its flat form (stride 4: means, sigmas).
            let mut ids: Vec<u32> = (0..1 + case as usize % 5)
                .map(|_| rng.bounded_u64(id_limit as u64) as u32)
                .collect();
            let mut values: Vec<f64> = ids
                .iter()
                .flat_map(|&a| {
                    let (m, s) = (delays.mean[a as usize], delays.sigma[a as usize]);
                    [m[0], m[1], s[0], s[1]]
                })
                .collect();
            assert!(plan.corrupt_batch(case, fault, &mut ids, &mut values, 4, id_limit));
            let batch: Vec<ArcDelta> = ids
                .iter()
                .enumerate()
                .map(|(i, &arc)| ArcDelta {
                    arc,
                    mean: [values[i * 4], values[i * 4 + 1]],
                    sigma: [values[i * 4 + 2], values[i * 4 + 3]],
                })
                .collect();

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut session = engine.begin_session();
                match session.update_timing(&batch) {
                    Err(e) => {
                        session.rollback(); // no-op after an auto-rollback
                        format!("rejected:{}", e.category())
                    }
                    Ok(_) => {
                        session.rollback();
                        "abandoned".to_string()
                    }
                }
            }));
            let outcome = match outcome {
                Ok(o) => o,
                Err(_) => panic!("{fault:?} case {case}: PANICKED (seed {SUITE_SEED:#x})"),
            };
            if outcome.starts_with("rejected") {
                rejected += 1;
            }
            if fault.rejected_at_validation() {
                assert_eq!(
                    outcome, "rejected:validate",
                    "{fault:?} case {case}: must be rejected before mutation"
                );
            }

            let after: Vec<u64> = engine
                .propagate()
                .slacks
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(
                baseline, after,
                "{fault:?} case {case}: rollback not bit-identical (seed {SUITE_SEED:#x})"
            );
        }
    }
    assert!(rejected > 0, "no corruption was ever rejected");
    let counters = engine.counters();
    assert_eq!(
        counters.sessions_begun,
        SessionFault::ALL.len() as u64 * CASES_PER_FAULT
    );
    assert_eq!(counters.sessions_committed, 0);
}

/// Batched-evaluation corruption: every [`BatchFault`] class damages
/// exactly one scenario of an S-scenario batch. The quarantine contract
/// (ISSUE 4): only that scenario fails — with the same typed `Validate`
/// error a serial session would raise — while every sibling returns
/// results bit-identical to a clean batch run, the engine's own report
/// stays bit-untouched, and no poison enters the engine state.
#[test]
fn batched_corruption_quarantines_only_the_damaged_scenario() {
    use insta_sta::engine::Scenario;
    use insta_sta::refsta::eco::ArcDelta;
    use insta_sta::support::rng::Rng;
    use insta_sta::support::BatchFault;

    const SCENARIOS: usize = 6;

    // About 900 nodes: a scenario's (at most four) deltas stay under the
    // cone's seed switch, so every valid lane is an in-place cone lane.
    let d = generate_design(&GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        ..GeneratorConfig::small("fault-inject", 17)
    });
    let mut golden = RefSta::new(&d, StaConfig::default()).expect("build");
    golden.full_update(&d);
    let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("clean snapshot");
    let baseline: Vec<u64> = engine
        .propagate()
        .slacks
        .iter()
        .map(|s| s.to_bits())
        .collect();

    let plan = FaultPlan::new(SUITE_SEED);
    let delays = golden.delays();
    let id_limit = delays.mean.len() as u32;
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xBA7C);

    let rebuild = |ids: &[Vec<u32>], values: &[Vec<f64>]| -> Vec<Scenario> {
        ids.iter()
            .zip(values)
            .map(|(ids, vals)| {
                Scenario::from(
                    ids.iter()
                        .enumerate()
                        .map(|(i, &arc)| ArcDelta {
                            arc,
                            mean: [vals[i * 4], vals[i * 4 + 1]],
                            sigma: [vals[i * 4 + 2], vals[i * 4 + 3]],
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };

    for &fault in BatchFault::ALL.iter() {
        for case in 0..CASES_PER_FAULT {
            // S valid scenarios of exact golden re-annotations in the
            // harness's flat form (stride 4: means, then sigmas) ...
            let mut ids: Vec<Vec<u32>> = (0..SCENARIOS)
                .map(|s| {
                    (0..1 + (case as usize + s) % 4)
                        .map(|_| rng.bounded_u64(id_limit as u64) as u32)
                        .collect()
                })
                .collect();
            let mut values: Vec<Vec<f64>> = ids
                .iter()
                .map(|ids| {
                    ids.iter()
                        .flat_map(|&a| {
                            let (m, s) = (delays.mean[a as usize], delays.sigma[a as usize]);
                            [m[0], m[1], s[0], s[1]]
                        })
                        .collect()
                })
                .collect();
            // ... a clean reference run of the whole batch ...
            let clean = engine
                .evaluate(&rebuild(&ids, &values), &PassOptions::default())
                .scenarios;
            // ... then one seeded corruption of exactly one scenario.
            let damaged = plan
                .corrupt_one_scenario(case, fault, &mut ids, &mut values, 4, id_limit)
                .expect("non-empty batch");

            let got = match catch_unwind(AssertUnwindSafe(|| {
                engine.evaluate(&rebuild(&ids, &values), &PassOptions::default()).scenarios
            })) {
                Ok(got) => got,
                Err(_) => panic!("{fault:?} case {case}: PANICKED (seed {SUITE_SEED:#x})"),
            };

            assert_eq!(got.len(), SCENARIOS);
            for (s, (g, c)) in got.iter().zip(&clean).enumerate() {
                if s == damaged {
                    // The damaged scenario fails exactly where a serial
                    // session would: up-front validation.
                    assert!(fault.rejected_at_validation());
                    let err = g.outcome.as_ref().expect_err("damaged scenario must fail");
                    assert_eq!(
                        err.category(),
                        "validate",
                        "{fault:?} case {case}: wrong rejection {err}"
                    );
                } else {
                    // Siblings are bit-identical to the clean run.
                    let (gr, cr) = (
                        g.outcome.as_ref().expect("sibling quarantined"),
                        c.outcome.as_ref().expect("clean run failed"),
                    );
                    let gb: Vec<u64> = gr.slacks.iter().map(|v| v.to_bits()).collect();
                    let cb: Vec<u64> = cr.slacks.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        gb, cb,
                        "{fault:?} case {case}: scenario {s} drifted from clean run"
                    );
                    assert_eq!(gr.tns_ps.to_bits(), cr.tns_ps.to_bits());
                }
            }

            // The engine itself is untouched and unpoisoned.
            let after: Vec<u64> = engine
                .propagate()
                .slacks
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(
                baseline, after,
                "{fault:?} case {case}: batch mutated the engine (seed {SUITE_SEED:#x})"
            );
            engine.health_check().expect("no poison may enter the engine");
        }
    }

    let counters = engine.counters();
    let batches = 2 * BatchFault::ALL.len() as u64 * CASES_PER_FAULT;
    assert_eq!(counters.batches, batches);
    assert_eq!(counters.batch_scenarios, batches * SCENARIOS as u64);
    // Exactly one quarantine per *corrupted* batch (half of all batches).
    assert_eq!(counters.batch_quarantined, batches / 2);
    assert_eq!(counters.sessions_begun, 0, "in-place lanes must not open sessions");
}
