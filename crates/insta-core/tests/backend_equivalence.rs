//! Cross-backend differential + convergence suite (the multi-backend
//! statistics lockdown).
//!
//! Two contracts, one file:
//!
//! 1. **Gaussian identity.** The kernels now reach their numerics through
//!    the [`StatModel`] trait. Selecting the Gaussian POCV backend must
//!    compile to *exactly* the pre-refactor code: every test here pins the
//!    trait-generic path against the frozen pre-overhaul scalar kernels
//!    (`insta_engine::scalar_ref`) on raw `f64::to_bits` — across Top-K
//!    capacities {2, 4, 8}, thread counts {1, 2, 8}, fused vs separate
//!    sweeps, batch lanes {1, 16, 64}, the gradient pipeline, and hold.
//!    No tolerances: a single differing bit is a regression.
//!
//! 2. **Histogram convergence.** The fixed-bin histogram backend run on
//!    Gaussian inputs must *converge to POCV as bins grow*: per-endpoint
//!    arrival CDF distance and WNS/TNS error shrink monotonically over
//!    {16, 64, 256} bins, on fixed designs and on seeded random DAGs.
//!
//! Satellite edge cases ride along: a degenerate histogram config is a
//! typed validation error (never a panic), zero-sigma inputs are exact
//! under both backends, support-range clipping clamps, and NaN poison is
//! localized by `health_check()` under the histogram backend exactly as
//! under the Gaussian one.

use insta_engine::stat::normal_cdf;
use insta_engine::{
    hold_attributes, DeltaSet, FixedBinHistogram, InstaConfig, InstaEngine, InstaReport,
    StatBackendKind, StatModelConfig, ValidationMode,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_netlist::Design;
use insta_refsta::eco::ArcDelta;
use insta_refsta::export::InstaInit;
use insta_refsta::{RefSta, StaConfig};
use insta_support::prop::{for_all, Config};
use insta_support::rng::Rng;
use insta_support::prop_assert;

const SUITE_SEED: u64 = 0xBAC_E9D5;

/// The gated bin ladder: each step quarters the bin width, so the O(h²)
/// per-operation error drops ~16× per step — far above any plausible
/// noise, which is what makes the monotonicity assertions robust.
const BIN_LADDER: [u32; 3] = [16, 64, 256];

fn gaussian_cfg() -> InstaConfig {
    InstaConfig {
        // Explicitly selected (not defaulted): this suite pins the
        // *selector* path, not just the Default impl.
        stat_model: StatModelConfig::GaussianPocv,
        ..InstaConfig::default()
    }
}

fn histogram_cfg(bins: u32) -> InstaConfig {
    InstaConfig {
        stat_model: StatModelConfig::FixedBinHistogram {
            bins,
            support_sigmas: FixedBinHistogram::DEFAULT_SUPPORT_SIGMAS,
        },
        ..InstaConfig::default()
    }
}

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
        ..GeneratorConfig::small("beq_wide", seed)
    }
}

fn dense_bits((a, m, s, sp): (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>)) -> Vec<u64> {
    let mut bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
    bits.extend(m.iter().map(|v| v.to_bits()));
    bits.extend(s.iter().map(|v| v.to_bits()));
    bits.extend(sp.iter().map(|&v| u64::from(v)));
    bits
}

/// The engine's queues in the canonical dense form (virtual nodes
/// materialised).
fn topk_bits(e: &InstaEngine) -> Vec<u64> {
    dense_bits(e.topk_snapshot())
}

/// The frozen kernels' own dense arrays of `e`'s last reference pass.
fn scalar_bits(e: &InstaEngine) -> Vec<u64> {
    dense_bits(e.scalar_topk_snapshot())
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

// ---------------------------------------------------------------------
// Part 1: the trait-generic Gaussian path is the pre-refactor kernel.
// ---------------------------------------------------------------------

/// Top-K capacities {2, 4, 8} (the compare-exchange network sizes): the
/// trait-generic forward pass equals the frozen scalar reference bit for
/// bit — Top-K arrays and endpoint report.
#[test]
fn generic_gaussian_forward_matches_scalar_reference_across_k() {
    let gens = [
        GeneratorConfig::small("beq_small", 3),
        GeneratorConfig::medium("beq_medium", 7),
    ];
    for gen in &gens {
        for k in [2usize, 4, 8] {
            let cfg = InstaConfig {
                top_k: k,
                ..gaussian_cfg()
            };
            let (_, _, mut fast) = build(gen, cfg.clone());
            let (_, _, mut reference) = build(gen, cfg);
            let got = report_bits(fast.propagate());
            let want = report_bits(reference.forward_scalar_reference());
            assert_eq!(got, want, "report differs (design {}, k={k})", gen.name);
            assert_eq!(
                topk_bits(&fast),
                scalar_bits(&reference),
                "Top-K arrays differ (design {}, k={k})",
                gen.name
            );
        }
    }
}

/// Thread counts {1, 2, 8} over a level wide enough to cross the parallel
/// threshold: the model reference handed to every worker thread must not
/// change a bit.
#[test]
fn generic_gaussian_forward_matches_across_thread_counts() {
    let gen = wide_config(5);
    let (_, _, mut reference) = build(&gen, gaussian_cfg());
    reference.forward_scalar_reference();
    let want = scalar_bits(&reference);

    for n_threads in [1usize, 2, 8] {
        let cfg = InstaConfig {
            n_threads,
            ..gaussian_cfg()
        };
        let (_, _, mut fast) = build(&gen, cfg);
        fast.enable_tracing();
        fast.propagate();
        assert_eq!(
            topk_bits(&fast),
            want,
            "Top-K arrays differ at n_threads={n_threads}"
        );
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

/// Fused evaluation + LSE vs separate passes vs the scalar reference,
/// under the trait-generic Gaussian path.
#[test]
fn generic_gaussian_fused_matches_separate_and_scalar_reference() {
    let gen = GeneratorConfig::medium("beq_fused", 23);
    let cfg = InstaConfig {
        lse_tau: 5.0,
        ..gaussian_cfg()
    };
    let (_, _, mut fused) = build(&gen, cfg.clone());
    let (_, _, mut separate) = build(&gen, cfg.clone());
    let (_, _, mut reference) = build(&gen, cfg);

    let fused_report = report_bits(fused.propagate_fused());
    let separate_report = report_bits(separate.propagate());
    separate.forward_lse();
    let reference_report = report_bits(reference.forward_scalar_reference());
    reference.forward_lse_scalar_reference();

    assert_eq!(fused_report, separate_report, "fused report");
    assert_eq!(separate_report, reference_report, "report");
    assert_eq!(topk_bits(&fused), topk_bits(&separate), "fused topk");
    assert_eq!(topk_bits(&separate), scalar_bits(&reference), "topk");
    assert_eq!(lse_bits(&fused), lse_bits(&separate), "fused lse");
    assert_eq!(lse_bits(&separate), lse_bits(&reference), "lse");
}

/// The gradient pipeline (LSE forward + backward TNS pull) through the
/// trait seam: gradients on top of the generic LSE pass equal gradients
/// on top of the frozen scalar LSE pass.
#[test]
fn generic_gaussian_gradients_match_scalar_reference() {
    let gen = GeneratorConfig::medium("beq_grad", 41);
    let (_, _, mut fast) = build(&gen, gaussian_cfg());
    let (_, _, mut reference) = build(&gen, gaussian_cfg());

    fast.propagate();
    fast.forward_lse();
    fast.backward_tns();

    reference.forward_scalar_reference();
    reference.forward_lse_scalar_reference();
    reference.backward_tns();

    assert_eq!(grad_bits(&fast), grad_bits(&reference), "gradients differ");
    assert_eq!(
        fast.arc_gradients().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        reference
            .arc_gradients()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "accumulated arc gradients differ"
    );
}

/// Hold's min-merge reaches `corner_min` / `hold_slack` through the
/// trait; it must still match the frozen pre-overhaul min kernel.
#[test]
fn generic_gaussian_hold_matches_scalar_reference() {
    for seed in [13u64, 37] {
        let gen = GeneratorConfig::small("beq_hold", seed);
        let (design, golden, mut fast) = build(&gen, gaussian_cfg());
        let (_, _, mut reference) = build(&gen, gaussian_cfg());
        let attrs = hold_attributes(&design, &golden);
        let got = report_bits(&fast.propagate_hold(&attrs));
        let want = report_bits(&reference.hold_scalar_reference(&attrs));
        assert_eq!(got, want, "hold report differs (seed {seed})");
        assert_eq!(
            topk_bits(&fast),
            scalar_bits(&reference),
            "min-mode Top-K arrays differ (seed {seed})"
        );
    }
}

/// Random valid delta sets jittered off the golden delays.
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

/// About 900 nodes: a handful of deltas stays under the cone's seed switch,
/// so every batched lane is an in-place cone lane.
fn mid_config(name: &str, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        ..GeneratorConfig::small(name, seed)
    }
}

/// Batch lanes {1, 16, 64} under the trait-generic Gaussian path (with
/// per-lane gradients, which route through the model-threaded scratch
/// passes): every lane equals re-annotating a clone and running the
/// frozen scalar forward pass. The small design mixes in-place cone lanes
/// with lanes past the cone's seed switch (replayed as sessions); on the
/// ~900-node one every lane runs in place.
#[test]
fn generic_gaussian_batch_lanes_match_scalar_reference() {
    for (lanes, gen) in [1usize, 16, 64].into_iter().flat_map(|l| {
        [
            (l, GeneratorConfig::small("beq_batch", 47)),
            (l, mid_config("beq_batch_mid", 47)),
        ]
    }) {
        let in_place = gen.gates_per_level == 36;
        let (_, golden, mut engine) = build(&gen, gaussian_cfg());
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

// ---------------------------------------------------------------------
// Part 2: the histogram backend converges to POCV on Gaussian inputs.
// ---------------------------------------------------------------------

/// One design's convergence measurements at a given bin count, against a
/// Gaussian-backend run of the same snapshot: the worst per-endpoint
/// Kolmogorov distance between the backends' modeled arrival CDFs, and
/// the absolute WNS / TNS errors.
fn convergence_errors(
    init: &InstaInit,
    gaussian: &InstaEngine,
    g_report: &InstaReport,
    bins: u32,
) -> (f64, f64, f64) {
    let mut hist = InstaEngine::new(init.clone(), histogram_cfg(bins)).expect("valid snapshot");
    let h_report = hist.propagate().clone();
    assert_eq!(hist.stat_backend(), StatBackendKind::FixedBinHistogram);
    assert_eq!(hist.stat_bins(), bins);

    let shape = FixedBinHistogram::new(bins, FixedBinHistogram::DEFAULT_SUPPORT_SIGMAS)
        .expect("valid shape");
    let mut worst_cdf_dist = 0.0f64;
    for (i, ep) in init.endpoints.iter().enumerate() {
        let rf = g_report.worst_rf[i] as usize;
        let Some((gm, gs)) = gaussian.distribution_at(ep.node, rf) else {
            continue;
        };
        let Some((hm, hs)) = hist.distribution_at(ep.node, rf) else {
            panic!("endpoint reached under Gaussian but not histogram");
        };
        // Kolmogorov distance on a grid spanning both distributions.
        let spread = gs.max(hs).max(1e-3);
        let (lo, hi) = (gm.min(hm) - 8.0 * spread, gm.max(hm) + 8.0 * spread);
        let mut d = 0.0f64;
        for step in 0..=200 {
            let x = lo + (hi - lo) * step as f64 / 200.0;
            let exact = if gs > 0.0 {
                normal_cdf((x - gm) / gs)
            } else if x < gm {
                0.0
            } else {
                1.0
            };
            d = d.max((shape.cdf(hm, hs, x) - exact).abs());
        }
        worst_cdf_dist = worst_cdf_dist.max(d);
    }
    (
        worst_cdf_dist,
        (h_report.wns_ps - g_report.wns_ps).abs(),
        (h_report.tns_ps - g_report.tns_ps).abs(),
    )
}

/// The headline convergence pin: on fixed designs, per-endpoint arrival
/// CDF distance and WNS/TNS error all shrink monotonically over the
/// {16, 64, 256} bin ladder.
#[test]
fn histogram_converges_to_pocv_monotonically_in_bins() {
    for gen in [
        // Tight clocks so both fixtures carry real violations: TNS is a
        // sum of negative slacks, and a violation-free design would make
        // the TNS-error ladder trivially all-zero.
        GeneratorConfig {
            clock_period_ps: 220.0,
            ..GeneratorConfig::small("beq_conv", 11)
        },
        GeneratorConfig {
            clock_period_ps: 330.0,
            ..GeneratorConfig::medium("beq_conv_m", 19)
        },
    ] {
        let design = generate_design(&gen);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let init = golden.export_insta_init();

        let mut gaussian =
            InstaEngine::new(init.clone(), gaussian_cfg()).expect("valid snapshot");
        let g_report = gaussian.propagate().clone();
        assert!(g_report.n_violations > 0, "{}: fixture must violate", gen.name);

        let errs: Vec<(f64, f64, f64)> = BIN_LADDER
            .iter()
            .map(|&b| convergence_errors(&init, &gaussian, &g_report, b))
            .collect();
        let (cdf, wns, tns): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            errs.iter().map(|e| e.0).collect(),
            errs.iter().map(|e| e.1).collect(),
            errs.iter().map(|e| e.2).collect(),
        );
        assert!(
            cdf[0] > cdf[1] && cdf[1] > cdf[2],
            "{}: CDF distance not monotone over bins {BIN_LADDER:?}: {cdf:?}",
            gen.name
        );
        assert!(
            wns[0] > wns[1] && wns[1] > wns[2],
            "{}: WNS error not monotone over bins {BIN_LADDER:?}: {wns:?}",
            gen.name
        );
        assert!(
            tns[0] > tns[1] && tns[1] > tns[2],
            "{}: TNS error not monotone over bins {BIN_LADDER:?}: {tns:?}",
            gen.name
        );
        // And B=256 is genuinely close: the discretization error at
        // h = 12/256 is far below a picosecond on these designs.
        assert!(wns[2] < 1.0, "{}: WNS error at 256 bins: {}", gen.name, wns[2]);
    }
}

/// Seeded property test: the same monotone convergence holds over random
/// DAG shapes, not just the two fixtures above.
#[test]
fn histogram_convergence_holds_over_random_dags() {
    for_all(
        Config::cases(6).seed(SUITE_SEED ^ 0xDA6),
        |rng| {
            (
                1 + rng.bounded_u64(4) as usize,
                1 + rng.bounded_u64(3) as usize,
                rng.next_u64(),
            )
        },
        |&(levels, gates, seed)| {
            let gen = GeneratorConfig {
                logic_levels: levels,
                gates_per_level: gates * 24,
                ..GeneratorConfig::small("beq_prop", seed)
            };
            let design = generate_design(&gen);
            let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
            golden.full_update(&design);
            let init = golden.export_insta_init();
            let mut gaussian =
                InstaEngine::new(init.clone(), gaussian_cfg()).expect("valid snapshot");
            let g_report = gaussian.propagate().clone();

            let errs: Vec<(f64, f64, f64)> = BIN_LADDER
                .iter()
                .map(|&b| convergence_errors(&init, &gaussian, &g_report, b))
                .collect();
            // Random shapes may park the worst path on a near-zero-sigma
            // cone where an error is already ~0; require non-strict
            // monotonicity per step plus strict end-to-end shrinkage.
            for w in [0usize, 1, 2] {
                let series = [errs[0], errs[1], errs[2]].map(|e| match w {
                    0 => e.0,
                    1 => e.1,
                    _ => e.2,
                });
                prop_assert!(
                    series[0] >= series[1] && series[1] >= series[2],
                    "metric {w} not monotone: {series:?}"
                );
            }
            prop_assert!(
                errs[0].0 > errs[2].0,
                "CDF distance did not shrink end-to-end: {} -> {}",
                errs[0].0,
                errs[2].0
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Part 3: histogram edge cases — typed errors, never panics.
// ---------------------------------------------------------------------

/// A degenerate histogram config (single bin, zero bins, bad support) is
/// the same *typed* `InstaError::Validate` an invalid `top_k` would be —
/// reported through `InstaEngine::new`, never a panic.
#[test]
fn degenerate_histogram_configs_are_typed_validation_errors() {
    let gen = GeneratorConfig::small("beq_badcfg", 2);
    let design = generate_design(&gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let init = golden.export_insta_init();

    for bins in [0u32, 1] {
        let cfg = InstaConfig {
            stat_model: StatModelConfig::FixedBinHistogram {
                bins,
                support_sigmas: 6.0,
            },
            ..InstaConfig::default()
        };
        let err = InstaEngine::new(init.clone(), cfg).expect_err("must reject");
        assert_eq!(err.category(), "validate", "bins={bins}");
    }
    for support in [0.0f64, -2.0, f64::NAN, f64::INFINITY] {
        let cfg = InstaConfig {
            stat_model: StatModelConfig::FixedBinHistogram {
                bins: 64,
                support_sigmas: support,
            },
            ..InstaConfig::default()
        };
        let err = InstaEngine::new(init.clone(), cfg).expect_err("must reject");
        assert_eq!(err.category(), "validate", "support={support}");
    }
}

/// Zero-sigma inputs are *exact* under the histogram backend: with every
/// launch and arc sigma zeroed, a histogram run at the coarsest gated bin
/// count is bit-identical to the Gaussian run (every measurement of
/// `mean + 0·Z` is `mean` under both models).
#[test]
fn zero_sigma_inputs_are_exact_under_the_histogram_backend() {
    let gen = GeneratorConfig::small("beq_zsig", 31);
    let design = generate_design(&gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut init = golden.export_insta_init();
    for arc in &mut init.fanin {
        arc.sigma = [0.0, 0.0];
    }
    for src in &mut init.sources {
        src.sigma = [0.0, 0.0];
    }

    let mut gaussian =
        InstaEngine::new(init.clone(), gaussian_cfg()).expect("valid snapshot");
    let mut hist = InstaEngine::new(init, histogram_cfg(16)).expect("valid snapshot");
    let want = report_bits(gaussian.propagate());
    let got = report_bits(hist.propagate());
    assert_eq!(got, want, "zero-sigma reports differ between backends");
    assert_eq!(
        topk_bits(&hist),
        topk_bits(&gaussian),
        "zero-sigma Top-K arrays differ between backends"
    );
}

/// Support-range clipping: with a support far narrower than `n_sigma`,
/// the quantile saturates at the grid edge — corners clamp to
/// `mean + S·sigma`, health stays green, and nothing panics or NaNs.
#[test]
fn narrow_support_clips_instead_of_extrapolating() {
    let gen = GeneratorConfig::small("beq_clip", 43);
    let design = generate_design(&gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let init = golden.export_insta_init();
    let support = 0.5f64;
    let cfg = InstaConfig {
        stat_model: StatModelConfig::FixedBinHistogram {
            bins: 32,
            support_sigmas: support,
        },
        ..InstaConfig::default()
    };
    let mut eng = InstaEngine::new(init.clone(), cfg).expect("valid snapshot");
    let report = eng.propagate().clone();
    eng.health_check().expect("clipped run must stay healthy");
    assert!(report.wns_ps.is_finite(), "clipped WNS must be finite");

    // Every reached endpoint's corner sits at most S sigmas above its
    // mean (the clamped quantile), never at the Gaussian n_sigma corner.
    for ep in &init.endpoints {
        for rf in 0..2 {
            let (Some(arr), Some((mean, sigma))) =
                (eng.arrival_at(ep.node, rf), eng.distribution_at(ep.node, rf))
            else {
                continue;
            };
            assert!(
                arr <= mean + support * sigma + 1e-9,
                "corner {arr} exceeds the clipped support (mean {mean}, sigma {sigma})"
            );
        }
    }
}

/// NaN poison injected past validation (Trust mode) is localized by
/// `health_check()` as a typed `InstaError::Numeric` under the histogram
/// backend — the no-NaN-escapes contract is backend-independent.
#[test]
fn histogram_nan_poison_is_localized_by_health_check() {
    let gen = GeneratorConfig::small("beq_nan", 53);
    let design = generate_design(&gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut init = golden.export_insta_init();
    init.fanin[0].mean[0] = f64::NAN;

    let cfg = InstaConfig {
        validation: ValidationMode::Trust,
        ..histogram_cfg(64)
    };
    let mut eng = InstaEngine::new(init, cfg).expect("trust skips validation");
    // NaN never wins a max-compare, so propagation completes (in release
    // builds) and the poison surfaces in the explicit state scan.
    let completed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        eng.propagate();
    }));
    if completed.is_ok() {
        if let Err(err) = eng.health_check() {
            assert_eq!(err.category(), "numeric");
            let text = err.to_string();
            assert!(text.contains("level"), "{text}");
        }
    }
}

// ---------------------------------------------------------------------
// Part 4: the machinery is backend-agnostic.
// ---------------------------------------------------------------------

/// Fused and separate sweeps agree with each other *under the histogram
/// backend* too — backend choice changes the numbers, not the sweep
/// contract.
#[test]
fn histogram_fused_matches_separate_passes() {
    let gen = GeneratorConfig::small("beq_hfused", 59);
    let (_, _, mut fused) = build(&gen, histogram_cfg(64));
    let (_, _, mut separate) = build(&gen, histogram_cfg(64));
    let got = report_bits(fused.propagate_fused());
    let want = report_bits(separate.propagate());
    separate.forward_lse();
    assert_eq!(got, want, "fused vs separate report under histogram");
    assert_eq!(topk_bits(&fused), topk_bits(&separate), "topk");
    assert_eq!(lse_bits(&fused), lse_bits(&separate), "lse");
}

/// Batched evaluation under the histogram backend is bit-identical to
/// serial re-annotate + propagate of each scenario — the batch lanes
/// read their numerics through the same model.
#[test]
fn histogram_batch_lanes_match_serial_runs() {
    for gen in [
        GeneratorConfig::small("beq_hbatch", 61),
        mid_config("beq_hbatch_mid", 61),
    ] {
        let (_, golden, mut engine) = build(&gen, histogram_cfg(32));
        engine.propagate();
        let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xB47C);
        let scenarios = random_scenarios(&golden, &mut rng, 16);

        let got = engine.evaluate_batch(&scenarios);
        for (i, sc) in scenarios.iter().enumerate() {
            let mut serial = engine.clone();
            serial.reannotate(&sc.deltas).expect("valid deltas");
            let want = report_bits(serial.propagate());
            let report = got[i].outcome.as_ref().expect("valid scenario");
            assert_eq!(
                report_bits(report),
                want,
                "scenario {i} differs from serial"
            );
        }
    }
}

/// The backend identity is visible on every observability surface:
/// `counters()`, `perf_report()` (tracing on or off), and their names.
#[test]
fn backend_identity_is_reported_on_observability_surfaces() {
    let gen = GeneratorConfig::small("beq_obs", 67);
    let (_, _, mut g) = build(&gen, gaussian_cfg());
    assert_eq!(g.counters().stat_backend, StatBackendKind::GaussianPocv);
    assert_eq!(g.counters().stat_bins, 0);
    assert_eq!(g.counters().stat_backend.name(), "gaussian_pocv");
    // Tracing disabled: the perf report is empty but still names the
    // backend.
    assert_eq!(g.perf_report().stat_backend, StatBackendKind::GaussianPocv);

    let (_, _, mut h) = build(&gen, histogram_cfg(128));
    assert_eq!(h.counters().stat_backend, StatBackendKind::FixedBinHistogram);
    assert_eq!(h.counters().stat_bins, 128);
    assert_eq!(h.counters().stat_backend.name(), "fixed_bin_histogram");
    h.enable_tracing();
    h.propagate();
    let perf = h.perf_report();
    assert_eq!(perf.stat_backend, StatBackendKind::FixedBinHistogram);
    assert_eq!(perf.stat_bins, 128);
    let rendered = perf.to_string();
    assert!(
        rendered.contains("fixed_bin_histogram") && rendered.contains("128 bins"),
        "{rendered}"
    );
    g.propagate();
    let _ = g;
}
