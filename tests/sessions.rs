//! Transactional-session suite: bit-identical rollback under every seeded
//! mid-session corruption class, bounded cooperative cancellation, and the
//! session lifecycle contract.
//!
//! The load-bearing property (ISSUE 3): *checkpoint → corrupt/abort →
//! rollback → propagate* must reproduce, bit for bit, the report of an
//! engine that never saw the session — across [`SessionFault`] classes,
//! injected worker panics, and random delta batches.

use insta_engine::parallel::chaos;
use insta_engine::{
    CancelToken, Deadline, InstaConfig, InstaEngine, InstaError, InstaReport, Kernel, PassOptions,
    Scenario, SessionStatus,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{RefSta, StaConfig};
use insta_support::fault::{FaultPlan, SessionFault};
use insta_support::rng::Rng;
use std::sync::Mutex;
use std::time::Duration;

const SUITE_SEED: u64 = 0x5E55_10F0_3;
const CASES_PER_FAULT: u64 = 8;

/// The chaos hook is process-global and fires in every dirty level of a
/// cone update, so a test that arms it must not overlap *any* test that
/// updates timing: every test of this file runs under this lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn build(seed: u64) -> (RefSta, InstaEngine) {
    build_from(&GeneratorConfig::small("sess", seed))
}

/// About 900 nodes: a handful of deltas stays under the cone's seed switch,
/// where the small design sends every batch through the full pass.
fn build_mid(seed: u64) -> (RefSta, InstaEngine) {
    build_from(&GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        ..GeneratorConfig::small("sess", seed)
    })
}

fn build_from(gen: &GeneratorConfig) -> (RefSta, InstaEngine) {
    let design = generate_design(gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");
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

/// A random, *valid* delta batch: in-range arcs with finite means and
/// non-negative sigmas derived from the golden engine's exact delays.
fn random_valid_batch(golden: &RefSta, rng: &mut Rng, len: usize) -> Vec<ArcDelta> {
    let delays = golden.delays();
    let n_arcs = delays.mean.len() as u64;
    (0..len)
        .map(|_| {
            let arc = rng.bounded_u64(n_arcs) as u32;
            let jitter = [rng.next_f64() * 10.0 - 5.0, rng.next_f64() * 10.0 - 5.0];
            let mean = delays.mean[arc as usize];
            let sigma = delays.sigma[arc as usize];
            ArcDelta {
                arc,
                mean: [mean[0] + jitter[0], mean[1] + jitter[1]],
                sigma: [sigma[0] * (1.0 + rng.next_f64()), sigma[1] * (1.0 + rng.next_f64())],
            }
        })
        .collect()
}

/// [`random_valid_batch`] with at least one arc into a node that reads as
/// timed on the propagated `engine`. No pass computes a node no endpoint
/// sees, so a batch of arcs into such nodes recomputes no level: it has no
/// dirty level to arm a panic at and no level body to panic in.
fn random_timed_batch(
    golden: &RefSta,
    engine: &InstaEngine,
    rng: &mut Rng,
    len: usize,
) -> Vec<ArcDelta> {
    let init = golden.export_insta_init();
    let mut child = vec![0u32; golden.delays().mean.len()];
    for v in 0..init.n_nodes {
        let fanin = init.fanin_start[v] as usize..init.fanin_start[v + 1] as usize;
        for a in &init.fanin[fanin] {
            child[a.source_arc as usize] = v as u32;
        }
    }
    let timed =
        |d: &ArcDelta| (0..2).any(|rf| engine.arrival_at(child[d.arc as usize], rf).is_some());
    loop {
        let batch = random_valid_batch(golden, rng, len);
        if batch.iter().any(timed) {
            return batch;
        }
    }
}

/// Flattens a batch into the harness's parallel arrays, corrupts it, and
/// rebuilds (stride 4: rise/fall mean then rise/fall sigma).
fn corrupted_batch(
    plan: &FaultPlan,
    case: u64,
    fault: SessionFault,
    batch: &[ArcDelta],
    id_limit: u32,
) -> Vec<ArcDelta> {
    let mut ids: Vec<u32> = batch.iter().map(|d| d.arc).collect();
    let mut values: Vec<f64> = batch
        .iter()
        .flat_map(|d| [d.mean[0], d.mean[1], d.sigma[0], d.sigma[1]])
        .collect();
    assert!(plan.corrupt_batch(case, fault, &mut ids, &mut values, 4, id_limit));
    ids.iter()
        .enumerate()
        .map(|(i, &arc)| ArcDelta {
            arc,
            mean: [values[i * 4], values[i * 4 + 1]],
            sigma: [values[i * 4 + 2], values[i * 4 + 3]],
        })
        .collect()
}

/// The tentpole property: every corruption class, driven through a
/// session and rolled back (automatically on poison, explicitly
/// otherwise), leaves the engine bit-identical to one that never saw the
/// corrupted batch.
#[test]
fn rollback_is_bit_identical_across_all_session_fault_classes() {
    let _serial = serial();
    let (golden, mut engine) = build(101);
    let baseline = engine.propagate().clone();
    let baseline_bits = report_bits(&baseline);
    let id_limit = golden.delays().mean.len() as u32;
    let plan = FaultPlan::new(SUITE_SEED);
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xBA7C);

    for &fault in SessionFault::ALL.iter() {
        for case in 0..CASES_PER_FAULT {
            let valid = random_valid_batch(&golden, &mut rng, 1 + (case as usize % 7));
            let bad = corrupted_batch(&plan, case, fault, &valid, id_limit);

            let mut session = engine.begin_session();
            match session.update_timing(&bad) {
                Err(e) if e.category() == "validate" => {
                    // Up-front rejection: nothing was mutated and the
                    // session stays open for a corrected batch.
                    assert!(session.is_open(), "{fault:?}/{case}");
                    let _ = e;
                    session.rollback();
                }
                Err(e) => {
                    // Poison caught mid-session: already rolled back.
                    assert!(e.poisons_state(), "{fault:?}/{case}: {e}");
                    assert_eq!(session.status(), SessionStatus::RolledBack);
                    drop(session);
                }
                Ok(_) => {
                    // The corruption survived the engine (e.g. a negated
                    // mean or a duplicated entry); abandon the move.
                    assert!(
                        !fault.rejected_at_validation(),
                        "{fault:?}/{case}: engine accepted a must-reject batch"
                    );
                    session.rollback();
                }
            }

            let after = engine.propagate().clone();
            assert_eq!(
                baseline_bits,
                report_bits(&after),
                "{fault:?} case {case}: rollback not bit-identical"
            );
        }
    }

    let c = engine.counters();
    assert_eq!(c.sessions_begun, (SessionFault::ALL.len() as u64) * CASES_PER_FAULT);
    assert_eq!(c.sessions_rolled_back, c.sessions_begun);
    assert_eq!(c.sessions_committed, 0);
    assert_eq!(c.epoch, 0);
}

/// Commit promotes exactly the applied batch: the committed engine matches
/// a fresh engine that applied the same batch directly.
#[test]
fn commit_matches_direct_update_bit_identically() {
    let _serial = serial();
    let (golden, mut engine) = build(103);
    engine.propagate();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xC0117);
    let batch = random_valid_batch(&golden, &mut rng, 5);

    let mut session = engine.begin_session();
    let report = session.update_timing(&batch).expect("valid batch");
    let epoch = session.commit().expect("open session");
    assert_eq!(epoch, 1);

    let mut direct = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");
    direct.propagate();
    let direct_report = direct.update_timing(&batch).expect("valid batch");
    assert_eq!(report_bits(&report), report_bits(&direct_report));

    let c = engine.counters();
    assert_eq!((c.sessions_committed, c.epoch), (1, 1));
    assert_eq!(c.incremental_updates, 1);
}

/// Every bit of the Top-K arrays.
fn topk_bits(e: &InstaEngine) -> Vec<u64> {
    let (a, m, s, sp) = e.topk_snapshot();
    let mut bits: Vec<u64> = a.iter().chain(&m).chain(&s).map(|v| v.to_bits()).collect();
    bits.extend(sp.iter().map(|&v| u64::from(v)));
    bits
}

/// The first level a session update of `batch` would recompute: a
/// pre-fired token is cancelled at exactly that level's poll.
fn first_dirty_level(engine: &mut InstaEngine, batch: &[ArcDelta]) -> usize {
    let token = CancelToken::new();
    token.cancel();
    let mut session = engine.begin_session().with_options(PassOptions {
        cancel: Some(token),
        ..PassOptions::default()
    });
    match session.update_timing(batch) {
        Err(InstaError::Cancelled { level, .. }) => level,
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// An injected persistent worker panic in a dirty level is a fatal Runtime
/// error; the session auto-rolls-back bit-identically.
#[test]
fn worker_panic_mid_session_rolls_back_bit_identically() {
    let _serial = serial();
    let mut gen = GeneratorConfig::medium("sess-chaos", 9);
    gen.gates_per_level = 600;
    gen.logic_levels = 6;
    gen.clock_period_ps = 360.0;
    let design = generate_design(&gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut engine = InstaEngine::new(
        golden.export_insta_init(),
        InstaConfig {
            n_threads: 4,
            ..InstaConfig::default()
        },
    )
    .expect("valid snapshot");
    let baseline_bits = report_bits(&engine.propagate().clone());
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xCA05);
    let batch = random_timed_batch(&golden, &engine, &mut rng, 4);
    // The cancelled probe is taken back whole, so the armed update starts
    // from a synced engine and takes the cone path.
    let dirty_level = first_dirty_level(&mut engine, &batch);
    let image = engine.undo_image();

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm(Kernel::Forward, dirty_level, true);
    let mut session = engine.begin_session();
    let result = session.update_timing(&batch);
    chaos::disarm();
    std::panic::set_hook(prev);

    let err = result.expect_err("persistent panic is fatal");
    assert_eq!(err.category(), "runtime");
    assert_eq!(session.status(), SessionStatus::RolledBack);
    drop(session);

    // The half-swept level went back with the rest: same bits, in sync.
    assert!(image == engine.undo_image(), "the rollback left a trace");
    engine.health_check().expect("rolled-back state is healthy");
    assert_eq!(baseline_bits, report_bits(&engine.propagate().clone()));
    assert!(engine.incident_log().total() > 0, "fatal incident recorded");
}

/// A pre-fired token cancels at the *first* poll — the first dirty
/// level's, before any of its work — auto-rolls-back, and leaves a
/// healthy engine.
#[test]
fn prefired_cancel_token_stops_at_the_first_level_poll() {
    let _serial = serial();
    let (golden, mut engine) = build(107);
    let baseline_bits = report_bits(&engine.propagate().clone());
    let topk_before = topk_bits(&engine);
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x70C);
    let batch = random_valid_batch(&golden, &mut rng, 3);

    let token = CancelToken::new();
    token.cancel();
    let mut session = engine.begin_session().with_options(PassOptions {
        cancel: Some(token.clone()),
        ..PassOptions::default()
    });
    let err = session.update_timing(&batch).expect_err("token already fired");
    let InstaError::Cancelled { kernel, level, elapsed } = &err else {
        panic!("expected Cancelled, got {err}");
    };
    assert_eq!(*kernel, Kernel::Forward);
    assert!(*level >= 1, "level 0 is never recomputed");
    assert!(*elapsed < Duration::from_secs(5));
    assert_eq!(session.status(), SessionStatus::Cancelled);
    drop(session);
    // It was the first poll: no level's work ran before it.
    assert_eq!(topk_before, topk_bits(&engine));

    engine.health_check().expect("rolled-back state is healthy");
    assert_eq!(baseline_bits, report_bits(&engine.propagate().clone()));
    let c = engine.counters();
    assert_eq!((c.sessions_cancelled, c.sessions_rolled_back), (1, 0));
}

/// Regression: a rolled-back session used to restore the report but leave
/// the rolled-back pass's Top-K arrays in place, where `arrival_at` /
/// `distribution_at` / `snapshot()` read them. Right after `rollback()` —
/// no `propagate()` in between — every read is back at its pre-session
/// bits, and the engine still takes the cone path. The rollback itself
/// cannot fail: it is a copy, so a token that fired and a persistent
/// injected panic armed at a level the update recomputed change nothing.
#[test]
fn reads_after_rollback_see_the_committed_arrays() {
    let _serial = serial();
    let (golden, mut engine) = build_mid(117);
    let baseline_bits = report_bits(&engine.propagate().clone());
    let topk_before = topk_bits(&engine);
    let arrivals = |e: &InstaEngine| -> Vec<Option<u64>> {
        (0..e.num_nodes() as u32)
            .flat_map(|orig| [e.arrival_at(orig, 0), e.arrival_at(orig, 1)])
            .map(|a| a.map(f64::to_bits))
            .collect()
    };
    let arrivals_before = arrivals(&engine);
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x4EAD);
    let batch = random_valid_batch(&golden, &mut rng, 4);
    let dirty_level = first_dirty_level(&mut engine, &batch);
    let image = engine.undo_image();

    engine.enable_tracing();
    let token = CancelToken::new();
    let mut session = engine.begin_session().with_options(PassOptions {
        cancel: Some(token.clone()),
        ..PassOptions::default()
    });
    session.update_timing(&batch).expect("valid batch");
    assert_ne!(
        arrivals_before,
        arrivals(session.engine()),
        "the batch must move some arrival"
    );
    token.cancel();
    chaos::arm(Kernel::Forward, dirty_level, true);
    session.rollback();
    chaos::disarm();

    assert!(image == engine.undo_image(), "the rollback left a trace");
    assert_eq!(engine.counters().sessions_rolled_back, 1);
    let journal = engine.trace_journal().expect("tracing on");
    let count = |name: &str| journal.events().filter(|e| e.name == name).count();
    assert_eq!(
        (count("forward.cone"), count("forward"), count("session.rollback")),
        (1, 0, 1),
        "a cone update, taken back without a pass"
    );
    engine.disable_tracing();
    assert_eq!(arrivals_before, arrivals(&engine));
    assert_eq!(topk_before, topk_bits(&engine));
    assert_eq!(baseline_bits, report_bits(engine.report()));
    // Still synced: the next update recomputes a cone and matches a twin
    // that never saw the session.
    let (_, mut twin) = build_mid(117);
    twin.propagate();
    let next = random_valid_batch(&golden, &mut rng, 3);
    let got = engine.update_timing(&next).expect("valid batch");
    let want = twin.update_timing(&next).expect("valid batch");
    assert_eq!(report_bits(&want), report_bits(&got));
    assert_eq!(topk_bits(&twin), topk_bits(&engine));
}

/// An already-expired deadline behaves exactly like a fired token.
#[test]
fn zero_deadline_cancels_and_rolls_back() {
    let _serial = serial();
    let (golden, mut engine) = build(109);
    let baseline_bits = report_bits(&engine.propagate().clone());
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xDEAD);
    let batch = random_valid_batch(&golden, &mut rng, 3);

    let mut session = engine.begin_session().with_options(PassOptions {
        deadline: Some(Deadline::after(Duration::ZERO)),
        ..PassOptions::default()
    });
    let err = session.update_timing(&batch).expect_err("deadline expired");
    assert_eq!(err.category(), "cancelled");
    assert_eq!(session.status(), SessionStatus::Cancelled);
    session.rollback(); // no-op on a closed session

    assert_eq!(baseline_bits, report_bits(&engine.propagate().clone()));
    assert_eq!(engine.counters().sessions_cancelled, 1);
}

/// The deadline of a `PassOptions` is an instant, not a budget that
/// restarts per call: one value whose deadline has passed cancels every
/// entry point it is handed to — a pass, the gradient call, a batch and a
/// session — however long after it was built.
#[test]
fn one_expired_deadline_cancels_every_entry_point() {
    let _serial = serial();
    let (golden, mut engine) = build(113);
    let baseline_bits = report_bits(&engine.propagate().clone());
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xE4D);
    let batch = random_valid_batch(&golden, &mut rng, 3);
    let opts = PassOptions {
        deadline: Some(Deadline::after(Duration::from_millis(1))),
        ..PassOptions::default()
    };
    std::thread::sleep(Duration::from_millis(5));
    let cancelled = |what: &str, err: Option<&InstaError>| {
        assert!(
            matches!(err, Some(InstaError::Cancelled { .. })),
            "{what}: expected Cancelled, got {err:?}"
        );
    };

    cancelled("try_propagate", engine.try_propagate(&opts).err().as_ref());
    cancelled(
        "try_backward_tns",
        engine.try_backward_tns(&opts).err().as_ref(),
    );
    let scenarios = [Scenario::from(batch.clone()), Scenario::default()];
    for r in engine.evaluate(&scenarios, &opts).scenarios {
        cancelled("evaluate", r.outcome.as_ref().err());
    }
    let mut session = engine.begin_session().with_options(opts.clone());
    cancelled("session", session.update_timing(&batch).err().as_ref());
    assert_eq!(session.status(), SessionStatus::Cancelled);
    drop(session);

    assert_eq!(baseline_bits, report_bits(&engine.propagate().clone()));
}

/// A closed session refuses further work with a typed error instead of
/// silently mutating, and a dropped-while-open session rolls back.
#[test]
fn session_lifecycle_contract() {
    let _serial = serial();
    let (golden, mut engine) = build(111);
    let baseline_bits = report_bits(&engine.propagate().clone());
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x11FE);
    let batch = random_valid_batch(&golden, &mut rng, 2);

    // Cancelled session refuses new work.
    let mut session = engine.begin_session().with_options(PassOptions {
        deadline: Some(Deadline::after(Duration::ZERO)),
        ..PassOptions::default()
    });
    session.update_timing(&batch).expect_err("deadline expired");
    let err = session.update_timing(&batch).expect_err("session closed");
    assert_eq!(err.category(), "validate");
    assert!(err.to_string().contains("closed"), "{err}");
    assert!(session.commit().is_err(), "cannot commit a closed session");
    // `commit` consumed the session; the engine is back at baseline.
    assert_eq!(baseline_bits, report_bits(&engine.propagate().clone()));

    // Drop-while-open rolls back.
    {
        let mut session = engine.begin_session();
        session.update_timing(&batch).expect("valid batch");
        assert!(session.checkpoint_bytes() > 0);
    }
    assert_eq!(baseline_bits, report_bits(&engine.propagate().clone()));
    let c = engine.counters();
    // The deadline session counts as cancelled, the dropped one as rolled
    // back.
    assert_eq!(c.sessions_rolled_back, 1);
    assert_eq!(c.sessions_cancelled, 1);
    assert_eq!(c.epoch, 0);
}

/// Gradients are the engine's, not a session's: a session's update and
/// its rollback leave the `arc_gradients()` bits untouched, and a backward
/// pass after the rollback — on the restored report and LSE buffers —
/// reproduces them.
#[test]
fn rollback_restores_differentiable_state() {
    let _serial = serial();
    let (golden, mut engine) = build(115);
    engine.propagate();
    engine.forward_lse();
    engine.backward_tns();
    let bits = |g: Vec<f64>| g.iter().map(|g| g.to_bits()).collect::<Vec<u64>>();
    let grads_before = bits(engine.arc_gradients());
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x6AD);
    let batch = random_valid_batch(&golden, &mut rng, 6);

    let mut session = engine.begin_session();
    session.update_timing(&batch).expect("valid batch");
    assert_eq!(
        bits(session.engine().arc_gradients()),
        grads_before,
        "an update writes no gradient"
    );
    session.rollback();
    assert_eq!(bits(engine.arc_gradients()), grads_before);

    engine.backward_tns();
    assert_eq!(bits(engine.arc_gradients()), grads_before);
}
