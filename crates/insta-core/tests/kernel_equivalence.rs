//! Differential kernel-equivalence suite: the rewritten forward kernels
//! (gather-then-merge SoA arenas, compare-exchange restore networks,
//! within-level CSR reordering, the fused evaluation + LSE sweep) must be
//! **bit-identical** to the frozen pre-overhaul scalar kernels retained in
//! `insta_engine::scalar_ref` — across Top-K capacities, thread counts
//! {1, 2, 8}, batch lanes {1, 16, 64}, tracing on/off, hold's min-merge,
//! and the gradient pipeline.
//!
//! Every comparison is on raw `f64::to_bits` — no tolerances anywhere.
//! A failure here means the production kernel changed the floats it
//! produces, which is a semantic regression by definition (see the
//! `scalar_ref` module docs).

use insta_engine::{hold_attributes, DeltaSet, InstaConfig, InstaEngine, InstaReport};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_netlist::Design;
use insta_refsta::eco::ArcDelta;
use insta_refsta::{RefSta, StaConfig};
use insta_support::rng::Rng;

const SUITE_SEED: u64 = 0x5CA1_A4EF;

fn build(gen: &GeneratorConfig, cfg: InstaConfig) -> (Design, RefSta, InstaEngine) {
    let design = generate_design(gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let engine = InstaEngine::new(golden.export_insta_init(), cfg).expect("valid snapshot");
    (design, golden, engine)
}

/// A design wide enough that at least one level crosses the engine's
/// parallel threshold (512 nodes), so thread counts > 1 exercise the real
/// chunk-carving path rather than falling back to the serial branch.
fn wide_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_flops: 64,
        logic_levels: 3,
        gates_per_level: 900,
        ..GeneratorConfig::small("keq_wide", seed)
    }
}

fn topk_bits(e: &InstaEngine) -> Vec<u64> {
    let (a, m, s, sp) = e.topk_snapshot();
    let mut bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
    bits.extend(m.iter().map(|v| v.to_bits()));
    bits.extend(s.iter().map(|v| v.to_bits()));
    bits.extend(sp.iter().map(|&v| u64::from(v)));
    bits
}

fn lse_bits(e: &InstaEngine) -> Vec<u64> {
    let (a, w) = e.lse_snapshot();
    let mut bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
    bits.extend(w.iter().flat_map(|p| [p[0].to_bits(), p[1].to_bits()]));
    bits
}

fn grad_bits(e: &InstaEngine) -> Vec<u64> {
    let (ga, gc) = e.grad_snapshot();
    let mut bits: Vec<u64> = ga.iter().map(|v| v.to_bits()).collect();
    bits.extend(gc.iter().flat_map(|p| [p[0].to_bits(), p[1].to_bits()]));
    bits
}

fn report_bits(r: &InstaReport) -> Vec<u64> {
    let mut bits = vec![r.wns_ps.to_bits(), r.tns_ps.to_bits(), r.n_violations as u64];
    bits.extend(r.slacks.iter().map(|v| v.to_bits()));
    bits.extend(r.arrivals.iter().map(|v| v.to_bits()));
    bits.extend(r.requireds.iter().map(|v| v.to_bits()));
    bits.extend(r.worst_sp.iter().map(|&v| u64::from(v)));
    bits.extend(r.worst_rf.iter().map(|&v| v as u64));
    bits
}

/// The core pin: across Top-K capacities (including the compare-exchange
/// network sizes 2/4/8 and the insertion-restore sizes around them), the
/// production forward pass and the frozen scalar reference produce the
/// same Top-K arrays and the same endpoint report, bit for bit.
#[test]
fn forward_is_bit_identical_to_scalar_reference_across_k() {
    let gens = [
        GeneratorConfig::small("keq_small", 3),
        GeneratorConfig::small("keq_small", 11),
        GeneratorConfig::medium("keq_medium", 7),
    ];
    for gen in &gens {
        for k in [1usize, 2, 3, 4, 5, 8, 16] {
            let cfg = InstaConfig {
                top_k: k,
                ..InstaConfig::default()
            };
            let (_, _, mut fast) = build(gen, cfg.clone());
            let (_, _, mut reference) = build(gen, cfg);
            let got = report_bits(fast.propagate());
            let want = report_bits(reference.forward_scalar_reference());
            assert_eq!(got, want, "report differs (design {}, k={k})", gen.name);
            assert_eq!(
                topk_bits(&fast),
                topk_bits(&reference),
                "Top-K arrays differ (design {}, k={k})",
                gen.name
            );
        }
    }
}

/// Thread counts {1, 2, 8} over a design whose widest level crosses the
/// parallel threshold: chunk carving must not change a single bit.
#[test]
fn forward_is_bit_identical_across_thread_counts() {
    let gen = wide_config(5);
    let (_, _, mut reference) = build(&gen, InstaConfig::default());
    reference.forward_scalar_reference();
    let want = topk_bits(&reference);

    for n_threads in [1usize, 2, 8] {
        let cfg = InstaConfig {
            n_threads,
            ..InstaConfig::default()
        };
        let (_, _, mut fast) = build(&gen, cfg);
        fast.enable_tracing();
        fast.propagate();
        assert_eq!(
            topk_bits(&fast),
            want,
            "Top-K arrays differ at n_threads={n_threads}"
        );
        // Self-check the fixture: the design must actually exercise the
        // parallel path, or this test silently degrades to the serial one.
        let widest = fast
            .perf_report()
            .rows
            .iter()
            .map(|r| r.nodes)
            .max()
            .unwrap_or(0);
        assert!(
            widest >= 512,
            "fixture too narrow to exercise the parallel path ({widest} nodes)"
        );
    }
}

/// The fused evaluation + LSE sweep leaves exactly the state of
/// `propagate` followed by `forward_lse` — and both match the frozen
/// scalar references.
#[test]
fn fused_sweep_matches_separate_passes_and_scalar_reference() {
    for (gen, tau) in [
        (GeneratorConfig::small("keq_fused", 19), 8.0),
        (GeneratorConfig::medium("keq_fused_m", 23), 3.0),
    ] {
        let cfg = InstaConfig {
            lse_tau: tau,
            ..InstaConfig::default()
        };
        let (_, _, mut fused) = build(&gen, cfg.clone());
        let (_, _, mut separate) = build(&gen, cfg.clone());
        let (_, _, mut reference) = build(&gen, cfg);

        let fused_report = report_bits(fused.propagate_fused());
        let separate_report = report_bits(separate.propagate());
        separate.forward_lse();
        let reference_report = report_bits(reference.forward_scalar_reference());
        reference.forward_lse_scalar_reference();

        assert_eq!(fused_report, separate_report, "{}: fused report", gen.name);
        assert_eq!(separate_report, reference_report, "{}: report", gen.name);
        assert_eq!(topk_bits(&fused), topk_bits(&separate), "{}: fused topk", gen.name);
        assert_eq!(topk_bits(&separate), topk_bits(&reference), "{}: topk", gen.name);
        assert_eq!(lse_bits(&fused), lse_bits(&separate), "{}: fused lse", gen.name);
        assert_eq!(lse_bits(&separate), lse_bits(&reference), "{}: lse", gen.name);
    }
}

/// Tracing instruments the kernels (span records, per-level timestamp
/// reads); it must not perturb one bit of what they compute.
#[test]
fn tracing_does_not_perturb_the_kernels() {
    let gen = GeneratorConfig::medium("keq_trace", 29);
    let (_, _, mut traced) = build(&gen, InstaConfig::default());
    let (_, _, mut plain) = build(&gen, InstaConfig::default());
    traced.enable_tracing();
    let got = report_bits(traced.propagate_fused());
    let want = report_bits(plain.propagate_fused());
    assert_eq!(got, want, "tracing changed the report");
    assert_eq!(topk_bits(&traced), topk_bits(&plain), "tracing changed topk");
    assert_eq!(lse_bits(&traced), lse_bits(&plain), "tracing changed lse");
}

/// Hold's min-merge rides the same rewritten kernel through corner
/// negation; it must match the frozen pre-overhaul `min_level_chunk`.
#[test]
fn hold_min_merge_is_bit_identical_to_scalar_reference() {
    for seed in [13u64, 37] {
        let gen = GeneratorConfig::small("keq_hold", seed);
        let (design, golden, mut fast) = build(&gen, InstaConfig::default());
        let (_, _, mut reference) = build(&gen, InstaConfig::default());
        let attrs = hold_attributes(&design, &golden);
        let got = report_bits(&fast.propagate_hold(&attrs));
        let want = report_bits(&reference.hold_scalar_reference(&attrs));
        assert_eq!(got, want, "hold report differs (seed {seed})");
        assert_eq!(
            topk_bits(&fast),
            topk_bits(&reference),
            "min-mode Top-K arrays differ (seed {seed})"
        );
    }
}

/// The gradient pipeline consumes the LSE buffers: running the backward
/// kernel on top of the production LSE pass and on top of the scalar
/// reference LSE pass must produce identical gradients.
#[test]
fn gradients_are_bit_identical_through_the_scalar_reference() {
    let gen = GeneratorConfig::medium("keq_grad", 41);
    let (_, _, mut fast) = build(&gen, InstaConfig::default());
    let (_, _, mut reference) = build(&gen, InstaConfig::default());

    fast.propagate();
    fast.forward_lse();
    fast.backward_tns();

    reference.forward_scalar_reference();
    reference.forward_lse_scalar_reference();
    reference.backward_tns();

    assert_eq!(grad_bits(&fast), grad_bits(&reference), "gradients differ");
    assert_eq!(
        fast.arc_gradients()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        reference
            .arc_gradients()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "accumulated arc gradients differ"
    );
}

/// Random valid delta sets jittered off the golden delays (duplicates and
/// empty sets included), as in the batch-equivalence suite.
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

/// Batch lanes {1, 16, 64}: every scenario of a batched call must match
/// re-annotating a clone and running the frozen scalar forward pass —
/// pinning the lanes to the reference kernel without a production full
/// pass in between. On the small design part of the lanes cross the cone's
/// seed switch and are replayed as sessions; on the ~900-node one every
/// lane is an in-place cone sweep with an undo log (no session is opened).
#[test]
fn batch_lanes_are_bit_identical_to_the_scalar_reference() {
    let mid = GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        ..GeneratorConfig::small("keq_batch_mid", 47)
    };
    for (lanes, gen) in [1usize, 16, 64].into_iter().flat_map(|l| {
        [
            (l, GeneratorConfig::small("keq_batch", 47)),
            (l, mid.clone()),
        ]
    }) {
        let in_place = gen.gates_per_level == mid.gates_per_level;
        let (_, golden, mut engine) = build(&gen, InstaConfig::default());
        engine.propagate();
        let mut rng = Rng::seed_from_u64(SUITE_SEED ^ lanes as u64);
        let scenarios = random_scenarios(&golden, &mut rng, lanes);

        let got = engine.evaluate_batch(&scenarios);
        assert_eq!(got.len(), lanes);
        for (i, sc) in scenarios.iter().enumerate() {
            let mut reference = engine.clone();
            reference.reannotate(&sc.deltas).expect("valid deltas");
            let want = report_bits(reference.forward_scalar_reference());
            let report = got[i].outcome.as_ref().expect("valid scenario");
            assert_eq!(
                report_bits(report),
                want,
                "scenario {i} of {lanes} differs from the scalar reference"
            );
        }
        if in_place {
            assert_eq!(
                engine.counters().sessions_begun,
                0,
                "every lane ran in place"
            );
        }
    }
}

/// Incremental re-annotation feeds the same kernels: after an ECO-style
/// delta, the production pass and the scalar reference still agree.
#[test]
fn reannotated_forward_matches_scalar_reference() {
    let gen = GeneratorConfig::small("keq_eco", 53);
    let (_, golden, mut fast) = build(&gen, InstaConfig::default());
    let (_, _, mut reference) = build(&gen, InstaConfig::default());
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xEC0);
    let deltas = random_scenarios(&golden, &mut rng, 1).remove(0).deltas;

    fast.reannotate(&deltas).expect("valid deltas");
    reference.reannotate(&deltas).expect("valid deltas");
    let got = report_bits(fast.propagate());
    let want = report_bits(reference.forward_scalar_reference());
    assert_eq!(got, want, "post-reannotation report differs");
    assert_eq!(topk_bits(&fast), topk_bits(&reference));
}
