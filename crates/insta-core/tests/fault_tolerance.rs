//! Worker-panic isolation: a panicking data-parallel chunk must never
//! take the process down, and the serial re-execution fallback must
//! reproduce an undisturbed run bit-for-bit.
//!
//! The chaos hook (`insta_engine::parallel::chaos`) arms a deterministic
//! panic inside a specific kernel's workers at a specific timing level.
//! These tests share that global hook, so they serialize on a mutex.

use insta_engine::parallel::chaos;
use insta_engine::{InstaConfig, InstaEngine, InstaError, Kernel, PassOptions};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::{RefSta, StaConfig};
use std::sync::Mutex;

/// Serializes the chaos-armed tests (the hook is process-global).
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// A design whose levels are wide enough to cross the engine's parallel
/// dispatch threshold, with a clock tight enough for gradients to flow.
fn wide_init() -> insta_refsta::export::InstaInit {
    wide_design().1.export_insta_init()
}

/// The design behind [`wide_init`] with its timed reference engine.
fn wide_design() -> (insta_netlist::Design, RefSta) {
    let mut cfg = GeneratorConfig::medium("fault", 9);
    cfg.gates_per_level = 600;
    cfg.logic_levels = 6;
    cfg.clock_period_ps = 360.0;
    let d = generate_design(&cfg);
    let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
    sta.full_update(&d);
    (d, sta)
}

fn engine(init: insta_refsta::export::InstaInit) -> InstaEngine {
    InstaEngine::new(
        init,
        InstaConfig {
            n_threads: 4,
            lse_tau: 0.5,
            ..InstaConfig::default()
        },
    )
    .expect("valid snapshot")
}

/// Runs `f` with the default panic hook silenced (worker panics are
/// expected here; their backtraces would drown the test output).
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

#[test]
fn forward_worker_panic_is_recovered_bit_identically() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let init = wide_init();
    let mut healthy = engine(init.clone());
    let healthy_report = healthy.propagate().clone();
    assert!(healthy.last_incident().is_none());

    let mut faulty = engine(init);
    let level = 3; // a wide (parallel-dispatched) level
    with_quiet_panics(|| {
        chaos::arm(Kernel::Forward, level, false);
        let report = faulty.try_propagate().expect("recovered").clone();
        chaos::disarm();
        for (i, (a, b)) in healthy_report.slacks.iter().zip(&report.slacks).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slack {i}: {a} vs {b}");
        }
        assert_eq!(healthy_report.tns_ps.to_bits(), report.tns_ps.to_bits());
    });
    let incident = faulty.last_incident().expect("incident recorded").clone();
    assert_eq!(incident.kernel, Kernel::Forward);
    assert_eq!(incident.level, level);
    assert!(!incident.serial_retry_failed);
    assert!(incident.message.contains("chaos"), "{}", incident.message);
    assert!(!incident.chunk.is_empty());

    // Arrivals too, not just the endpoint aggregation.
    for v in 0..healthy.num_nodes() as u32 {
        for rf in 0..2 {
            assert_eq!(
                healthy.arrival_at(v, rf).map(f64::to_bits),
                faulty.arrival_at(v, rf).map(f64::to_bits),
                "arrival at node {v} rf {rf}"
            );
        }
    }

    // The next undisturbed pass clears the incident.
    faulty.propagate();
    assert!(faulty.last_incident().is_none());
}

/// The hold pass shares the full-pass driver, and with it the containment:
/// a one-shot worker panic in a hold level is retried serially, recorded
/// as an incident, and leaves the bits of an undisturbed hold pass.
#[test]
fn hold_worker_panic_is_recovered_bit_identically() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (design, sta) = wide_design();
    let attrs = insta_engine::hold_attributes(&design, &sta);
    let init = sta.export_insta_init();
    let mut healthy = engine(init.clone());
    let healthy_report = healthy.propagate_hold(&attrs);
    assert!(healthy.last_incident().is_none());

    let mut faulty = engine(init);
    let level = 3;
    let report = with_quiet_panics(|| {
        chaos::arm(Kernel::Forward, level, false);
        let report = faulty.propagate_hold(&attrs);
        chaos::disarm();
        report
    });
    let incident = faulty.last_incident().expect("incident recorded").clone();
    assert_eq!(incident.kernel, Kernel::Forward);
    assert_eq!(incident.level, level);
    assert!(!incident.serial_retry_failed);
    assert_eq!(faulty.incident_log().total(), 1);

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&healthy_report.slacks), bits(&report.slacks));
    assert_eq!(bits(&healthy_report.arrivals), bits(&report.arrivals));
    let (h, f) = (healthy.topk_snapshot(), faulty.topk_snapshot());
    assert_eq!(bits(&h.0), bits(&f.0), "arrivals");
    assert_eq!(bits(&h.1), bits(&f.1), "means");
    assert_eq!(bits(&h.2), bits(&f.2), "sigmas");
    assert_eq!(h.3, f.3, "startpoints");

    // The next undisturbed hold pass clears the incident.
    faulty.propagate_hold(&attrs);
    assert!(faulty.last_incident().is_none());
}

#[test]
fn lse_and_backward_worker_panics_are_recovered_bit_identically() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let init = wide_init();
    let mut healthy = engine(init.clone());
    healthy.propagate();
    healthy.forward_lse();
    healthy.backward_tns();
    let healthy_grads = healthy.arc_gradients();

    let mut faulty = engine(init);
    faulty.propagate();
    with_quiet_panics(|| {
        chaos::arm(Kernel::ForwardLse, 2, false);
        faulty.try_forward_lse().expect("lse recovered");
        chaos::disarm();
    });
    let incident = faulty.last_incident().expect("lse incident").clone();
    assert_eq!(incident.kernel, Kernel::ForwardLse);
    assert_eq!(incident.level, 2);

    with_quiet_panics(|| {
        chaos::arm(Kernel::Backward, 2, false);
        faulty
            .try_backward_tns(&PassOptions::default())
            .expect("backward recovered");
        chaos::disarm();
    });
    let incident = faulty.last_incident().expect("backward incident").clone();
    assert_eq!(incident.kernel, Kernel::Backward);
    assert_eq!(incident.level, 2);

    let faulty_grads = faulty.arc_gradients();
    assert_eq!(healthy_grads.len(), faulty_grads.len());
    let mut nonzero = 0usize;
    for (i, (a, b)) in healthy_grads.iter().zip(&faulty_grads).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "gradient {i}: {a} vs {b}");
        if *a != 0.0 {
            nonzero += 1;
        }
    }
    assert!(nonzero > 0, "gradients must flow in this comparison");
}

/// One containment contract, inline path included: on one thread every
/// level runs inline, and a one-shot panic in each kernel is still a
/// recorded incident and a bit-identical result — it used to unwind out of
/// the `try_*` call.
#[test]
fn single_threaded_level_panics_are_recovered_bit_identically() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let single = |init| {
        InstaEngine::new(
            init,
            InstaConfig {
                n_threads: 1,
                lse_tau: 0.5,
                ..InstaConfig::default()
            },
        )
        .expect("valid snapshot")
    };
    let init = wide_init();
    let mut healthy = single(init.clone());
    healthy.propagate();
    healthy.forward_lse();
    healthy.backward_tns();

    let mut faulty = single(init);
    let mut armed_pass = |kernel: Kernel, level: usize| {
        with_quiet_panics(|| {
            chaos::arm(kernel, level, false);
            let ran = match kernel {
                Kernel::Forward => faulty.try_propagate().map(|_| ()),
                Kernel::ForwardLse => faulty.try_forward_lse(),
                Kernel::Backward => faulty.try_backward_tns(&PassOptions::default()),
            };
            chaos::disarm();
            ran.unwrap_or_else(|e| panic!("{kernel} panic not recovered: {e}"));
        });
        let incident = faulty.last_incident().expect("incident recorded");
        assert_eq!((incident.kernel, incident.level), (kernel, level));
        assert!(!incident.serial_retry_failed);
        assert!(incident.message.contains("chaos"), "{}", incident.message);
        assert!(!incident.chunk.is_empty());
    };
    armed_pass(Kernel::Forward, 3);
    armed_pass(Kernel::ForwardLse, 2);
    armed_pass(Kernel::Backward, 2);
    assert_eq!(faulty.incident_log().total(), 3);

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&healthy.report().slacks),
        bits(&faulty.report().slacks)
    );
    let (h, f) = (healthy.topk_snapshot(), faulty.topk_snapshot());
    assert_eq!(
        (bits(&h.0), bits(&h.1), bits(&h.2), h.3),
        (bits(&f.0), bits(&f.1), bits(&f.2), f.3)
    );
    let grads = healthy.arc_gradients();
    assert!(
        grads.iter().any(|&g| g != 0.0),
        "gradients must flow in this comparison"
    );
    assert_eq!(bits(&grads), bits(&faulty.arc_gradients()));
}

#[test]
fn persistent_panic_fails_the_serial_retry_with_a_typed_error() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut eng = engine(wide_init());
    let err = with_quiet_panics(|| {
        chaos::arm(Kernel::Forward, 3, true);
        let err = eng.try_propagate().expect_err("retry must fail too");
        chaos::disarm();
        err
    });
    match err {
        InstaError::Runtime(incident) => {
            assert_eq!(incident.kernel, Kernel::Forward);
            assert_eq!(incident.level, 3);
            assert!(incident.serial_retry_failed);
            assert!(incident.to_string().contains("also failed"));
        }
        other => panic!("expected Runtime, got {other}"),
    }
    // The engine recovers on the next clean pass.
    let report = eng.try_propagate().expect("clean pass").clone();
    assert!(!report.slacks.is_empty());
    assert!(eng.last_incident().is_none());
}

/// The bounded incident ring is lifetime history, unlike the per-pass
/// `last_incident`: recovered and fatal incidents accumulate, a clean pass
/// clears `last_incident` but not the ring, and past the ring capacity
/// evictions are counted rather than lost.
#[test]
fn incident_ring_outlives_passes_and_counts_evictions() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut eng = engine(wide_init());
    eng.propagate();
    assert_eq!(eng.incident_log().total(), 0);

    // One recovered incident, then a clean pass: last_incident resets,
    // the ring keeps the history.
    with_quiet_panics(|| {
        chaos::arm(Kernel::Forward, 3, false);
        eng.try_propagate().expect("recovered");
        chaos::disarm();
    });
    eng.propagate();
    assert!(eng.last_incident().is_none());
    assert_eq!(eng.incident_log().total(), 1);
    assert!(!eng.incident_log().is_empty());
    assert_eq!(eng.incident_log().last().expect("kept").kernel, Kernel::Forward);

    // A fatal (persistent) incident is recorded too.
    with_quiet_panics(|| {
        chaos::arm(Kernel::Forward, 3, true);
        eng.try_propagate().expect_err("retry must fail too");
        chaos::disarm();
    });
    assert_eq!(eng.incident_log().total(), 2);
    assert!(eng.incident_log().last().expect("kept").serial_retry_failed);

    // Drive the ring past capacity: totals keep counting, length caps,
    // evictions are visible.
    let capacity = insta_engine::IncidentLog::CAPACITY as u64;
    with_quiet_panics(|| {
        for _ in 0..capacity {
            chaos::arm(Kernel::Forward, 3, false);
            eng.try_propagate().expect("recovered");
            chaos::disarm();
        }
    });
    let log = eng.incident_log();
    assert_eq!(log.total(), 2 + capacity);
    assert_eq!(log.len(), insta_engine::IncidentLog::CAPACITY);
    assert_eq!(log.dropped(), 2);
    assert!(log.iter().all(|i| i.kernel == Kernel::Forward));
}

/// Incident unification (ISSUE 5): with tracing enabled, every
/// `RuntimeIncident` the engine records is mirrored into the trace
/// journal as an `"incident"` event whose kernel/level payload matches
/// the incident ring entry, and the totals agree.
#[test]
fn incidents_are_mirrored_into_the_trace_journal() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut eng = engine(wide_init());
    eng.enable_tracing();
    eng.propagate();

    with_quiet_panics(|| {
        chaos::arm(Kernel::Forward, 3, false);
        eng.try_propagate().expect("recovered");
        chaos::disarm();
        chaos::arm(Kernel::ForwardLse, 2, false);
        eng.try_forward_lse().expect("recovered");
        chaos::disarm();
        chaos::arm(Kernel::Backward, 2, false);
        eng.try_backward_tns(&PassOptions::default())
            .expect("recovered");
        chaos::disarm();
    });

    let log = eng.incident_log();
    assert_eq!(log.total(), 3);
    let journal = eng.trace_journal().expect("tracing enabled");
    let mirrored: Vec<_> = journal.events().filter(|e| e.name == "incident").collect();
    assert_eq!(mirrored.len() as u64, log.total(), "one event per incident");
    for (ev, inc) in mirrored.iter().zip(log.iter()) {
        assert_eq!(ev.field("level"), Some(inc.level as f64));
        assert_eq!(
            ev.field("serial_retry_failed"),
            Some(if inc.serial_retry_failed { 1.0 } else { 0.0 })
        );
        assert!(ev.instant);
    }
    // Kernel codes follow the forward(0) / lse(1) / backward(2) taxonomy.
    assert_eq!(mirrored[0].field("kernel"), Some(0.0));
    assert_eq!(mirrored[1].field("kernel"), Some(1.0));
    assert_eq!(mirrored[2].field("kernel"), Some(2.0));
    // Each mirrored incident sits inside its kernel-pass span: the spans
    // are journaled too (parents close after children, so the events
    // precede their spans in the ring).
    let names: Vec<&str> = journal.events().map(|e| e.name).collect();
    for pass in ["forward", "forward_lse", "backward"] {
        assert!(names.contains(&pass), "missing {pass} span in {names:?}");
    }
    // And the JSON-lines export carries them through.
    let jsonl = eng.export_trace_jsonl().expect("tracing enabled");
    assert_eq!(
        jsonl.lines().filter(|l| l.contains("\"incident\"")).count(),
        3
    );
}
