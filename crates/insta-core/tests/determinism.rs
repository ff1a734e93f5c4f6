//! Serial vs multi-threaded determinism.
//!
//! The scoped-thread kernels split each level's output slice into disjoint
//! chunks whose per-node computations read only the immutable `done`
//! prefix, so thread count must never change a single bit of the results.
//! These tests pin that contract on a design wide enough
//! (`gates_per_level` > `PAR_THRESHOLD`) to actually exercise the
//! multi-threaded path.

use insta_engine::{InstaConfig, InstaEngine};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::{RefSta, StaConfig};

/// A design whose levels are wide enough to cross the engine's parallel
/// dispatch threshold (512 nodes per level).
fn wide_init() -> insta_refsta::export::InstaInit {
    wide_design().1.export_insta_init()
}

/// The design behind [`wide_init`] with its timed reference engine.
fn wide_design() -> (insta_netlist::Design, RefSta) {
    let mut cfg = GeneratorConfig::medium("det", 3);
    cfg.gates_per_level = 600;
    cfg.logic_levels = 6;
    // Tight enough that several endpoints violate, so backward_tns has a
    // nonzero gradient field to compare.
    cfg.clock_period_ps = 360.0;
    let d = generate_design(&cfg);
    let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
    sta.full_update(&d);
    (d, sta)
}

fn engine(init: insta_refsta::export::InstaInit, n_threads: usize) -> InstaEngine {
    InstaEngine::new(
        init,
        InstaConfig {
            n_threads,
            lse_tau: 0.5,
            ..InstaConfig::default()
        },
    ).expect("valid snapshot")
}

#[test]
fn forward_backward_results_are_bit_identical_across_thread_counts() {
    let init = wide_init();
    let mut serial = engine(init.clone(), 1);
    let mut parallel = engine(init, 4);

    // Evaluation forward pass: arrivals and endpoint slacks.
    let rs = serial.propagate().clone();
    let rp = parallel.propagate().clone();
    assert_eq!(rs.slacks.len(), rp.slacks.len());
    assert!(!rs.slacks.is_empty());
    for (i, (a, b)) in rs.slacks.iter().zip(&rp.slacks).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "slack {i}: {a} vs {b}");
    }
    assert_eq!(rs.wns_ps.to_bits(), rp.wns_ps.to_bits());
    assert_eq!(rs.tns_ps.to_bits(), rp.tns_ps.to_bits());
    assert_eq!(rs.n_violations, rp.n_violations);
    for v in 0..serial.num_nodes() as u32 {
        for rf in 0..2 {
            let a = serial.arrival_at(v, rf);
            let b = parallel.arrival_at(v, rf);
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "arrival at node {v} rf {rf}: {a:?} vs {b:?}"
            );
        }
    }

    // Differentiable forward + backward: gradients.
    serial.forward_lse();
    parallel.forward_lse();
    serial.backward_tns();
    parallel.backward_tns();
    let gs = serial.arc_gradients();
    let gp = parallel.arc_gradients();
    assert_eq!(gs.len(), gp.len());
    let mut nonzero = 0usize;
    for (i, (a, b)) in gs.iter().zip(&gp).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "gradient {i}: {a} vs {b}");
        if *a != 0.0 {
            nonzero += 1;
        }
    }
    assert!(nonzero > 0, "backward pass must produce gradients");
}

/// Tracing is observation-only: every numeric result — arrivals, slacks,
/// gradients — must be bit-identical with the span recorder on and off
/// (ISSUE 5 overhead contract).
#[test]
fn tracing_on_and_off_are_bit_identical() {
    let init = wide_init();
    let mut plain = engine(init.clone(), 4);
    let mut traced = engine(init, 4);
    traced.enable_tracing();

    let rp = plain.propagate().clone();
    let rt = traced.propagate().clone();
    for (i, (a, b)) in rp.slacks.iter().zip(&rt.slacks).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "slack {i}: {a} vs {b}");
    }
    assert_eq!(rp.wns_ps.to_bits(), rt.wns_ps.to_bits());
    assert_eq!(rp.tns_ps.to_bits(), rt.tns_ps.to_bits());
    for v in 0..plain.num_nodes() as u32 {
        for rf in 0..2 {
            assert_eq!(
                plain.arrival_at(v, rf).map(f64::to_bits),
                traced.arrival_at(v, rf).map(f64::to_bits),
                "arrival at node {v} rf {rf}"
            );
        }
    }

    plain.forward_lse();
    traced.forward_lse();
    plain.backward_tns();
    traced.backward_tns();
    let gp = plain.arc_gradients();
    let gt = traced.arc_gradients();
    for (i, (a, b)) in gp.iter().zip(&gt).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "gradient {i}: {a} vs {b}");
    }

    // The traced engine actually observed the passes it ran.
    let report = traced.perf_report();
    assert!(!report.is_empty());
    assert_eq!(report.forward_passes, 1);
    assert_eq!(report.lse_passes, 1);
    assert_eq!(report.backward_passes, 1);
    assert!(traced.trace_journal().is_some_and(|j| j.len() >= 3));
    assert!(plain.trace_journal().is_none());
}

#[test]
fn thread_count_zero_matches_explicit_counts() {
    let init = wide_init();
    let mut auto = engine(init.clone(), 0); // all cores
    let mut two = engine(init, 2);
    let ra = auto.propagate().clone();
    let rb = two.propagate().clone();
    for (a, b) in ra.slacks.iter().zip(&rb.slacks) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The hold pass runs the same chunked level launch as setup (it shares
/// the full-pass driver), so its thread count must not change a bit
/// either: report and raw Top-K arrays, one thread against two.
#[test]
fn hold_results_are_bit_identical_across_thread_counts() {
    let (design, sta) = wide_design();
    let attrs = insta_engine::hold_attributes(&design, &sta);
    let init = sta.export_insta_init();
    let mut serial = engine(init.clone(), 1);
    let mut parallel = engine(init, 2);
    let rs = serial.propagate_hold(&attrs);
    let rp = parallel.propagate_hold(&attrs);
    assert!(rs.slacks.iter().any(|s| s.is_finite()), "hold must constrain endpoints");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&rs.slacks), bits(&rp.slacks));
    assert_eq!(bits(&rs.arrivals), bits(&rp.arrivals));
    assert_eq!(rs.worst_sp, rp.worst_sp);
    assert_eq!(rs.tns_ps.to_bits(), rp.tns_ps.to_bits());
    let (s, p) = (serial.topk_snapshot(), parallel.topk_snapshot());
    assert_eq!(bits(&s.0), bits(&p.0), "arrivals");
    assert_eq!(bits(&s.1), bits(&p.1), "means");
    assert_eq!(bits(&s.2), bits(&p.2), "sigmas");
    assert_eq!(s.3, p.3, "startpoints");
}
