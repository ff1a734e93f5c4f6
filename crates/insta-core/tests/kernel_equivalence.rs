//! Differential kernel-equivalence suite: the production forward kernels
//! (gather-then-merge SoA arenas, compare-exchange restore networks,
//! within-level CSR reordering, the fused evaluation + LSE sweep) must be
//! **bit-identical** to the reference in `insta_engine::scalar_ref` —
//! Algorithm 2 (`TopKQueue::push`) folded over every queue's push sequence
//! *P*, in level order — across Top-K capacities, thread counts
//! {1, 2, 8}, batch lanes {1, 16, 64}, tracing on/off, hold's min-merge,
//! and the gradient pipeline.
//!
//! Every comparison is on raw `f64::to_bits` — no tolerances anywhere.
//! A failure here means the production kernel changed the floats it
//! produces, which is a semantic regression by definition (see the
//! `scalar_ref` module docs).
//!
//! **One dense view.** The engine stores Top-K rows for merge nodes only
//! (a *virtual* node — one fanin arc, one fanout arc, neither startpoint
//! nor endpoint — has its queue computed where it is read), while the
//! reference keeps one dense K-slot queue per node.
//! `topk_snapshot()` expands the engine's rows into that same canonical
//! dense form (virtual queues materialised, corners recomputed, tails
//! empty) and `scalar_topk_snapshot()` returns the reference's own arrays,
//! so every Top-K compare below covers every node, stored or not.

use insta_engine::{
    hold_attributes, CornerTransform, HoldAttributes, InstaConfig, InstaEngine, InstaReport,
    PassOptions, Scenario,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_netlist::Design;
use insta_refsta::eco::ArcDelta;
use insta_refsta::export::{EndpointInit, ExportedArc, InstaInit, SourceInit, NO_LEAF};
use insta_refsta::{RefSta, StaConfig};
use insta_support::prop::{for_all, Config};
use insta_support::rng::Rng;
use insta_support::{prop_assert, prop_assert_eq};

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

type Dense = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>);

fn dense_bits((a, m, s, sp): Dense) -> Vec<u64> {
    let mut bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
    bits.extend(m.iter().map(|v| v.to_bits()));
    bits.extend(s.iter().map(|v| v.to_bits()));
    bits.extend(sp.iter().map(|&v| u64::from(v)));
    bits
}

/// The engine's queues in the canonical dense form.
fn topk_bits(e: &InstaEngine) -> Vec<u64> {
    dense_bits(e.topk_snapshot())
}

/// The reference fold's own dense arrays, as `e`'s last reference pass
/// left them.
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

/// The core pin: across Top-K capacities (including the compare-exchange
/// network sizes 2/4/8 and the insertion-restore sizes around them), the
/// production passes — setup, then hold's min pass — and the scalar
/// reference produce the same dense Top-K arrays and the same endpoint
/// report, bit for bit.
#[test]
fn forward_is_bit_identical_to_scalar_reference_across_k() {
    let gens = [
        GeneratorConfig::small("keq_small", 3),
        GeneratorConfig::small("keq_small", 11),
        GeneratorConfig::medium("keq_medium", 7),
    ];
    for gen in &gens {
        for k in [1usize, 2, 3, 4, 5, 8, 16, 32] {
            let cfg = InstaConfig {
                top_k: k,
                ..InstaConfig::default()
            };
            let (design, golden, mut fast) = build(gen, cfg.clone());
            let (_, _, mut reference) = build(gen, cfg);
            assert!(fast.num_rows() < fast.num_nodes(), "fixture: no virtual node");
            let got = report_bits(fast.propagate());
            let want = report_bits(reference.forward_scalar_reference());
            assert_eq!(got, want, "report differs (design {}, k={k})", gen.name);
            assert_eq!(
                topk_bits(&fast),
                scalar_bits(&reference),
                "Top-K arrays differ (design {}, k={k})",
                gen.name
            );
            // What the reference engine goes on from is its stored rows.
            assert_eq!(topk_bits(&reference), scalar_bits(&reference));

            let attrs = hold_attributes(&design, &golden);
            let got = report_bits(&fast.propagate_hold(&attrs));
            let want = report_bits(&reference.hold_scalar_reference(&attrs));
            assert_eq!(got, want, "hold report differs (design {}, k={k})", gen.name);
            assert_eq!(
                topk_bits(&fast),
                scalar_bits(&reference),
                "min-mode Top-K arrays differ (design {}, k={k})",
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
    let want = scalar_bits(&reference);

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
/// `propagate` followed by `forward_lse` — and both match the scalar
/// references.
#[test]
fn fused_sweep_matches_separate_passes_and_scalar_reference() {
    for (gen, tau) in [
        (GeneratorConfig::small("keq_fused", 19), 8.0),
        (GeneratorConfig::medium("keq_fused_m", 23), 3.0),
        (GeneratorConfig::medium("keq_fused_m", 23), 5.0),
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
        assert_eq!(topk_bits(&separate), scalar_bits(&reference), "{}: topk", gen.name);
        assert_eq!(lse_bits(&fused), lse_bits(&separate), "{}: fused lse", gen.name);
        assert_eq!(lse_bits(&separate), lse_bits(&reference), "{}: lse", gen.name);
    }
}

/// The LSE pass alone against its reference, which seeds and keeps only
/// the nodes its own endpoint-fanin sweep finds: every smooth arrival and
/// softmax weight on raw bits, whatever the Top-K passes did.
#[test]
fn lse_pass_is_bit_identical_to_the_scalar_reference() {
    for gen in [
        GeneratorConfig::small("keq_lse", 19),
        GeneratorConfig::medium("keq_lse_m", 23),
    ] {
        let (_, _, mut fast) = build(&gen, InstaConfig::default());
        let (_, _, mut reference) = build(&gen, InstaConfig::default());
        fast.forward_lse();
        reference.forward_lse_scalar_reference();
        assert_eq!(lse_bits(&fast), lse_bits(&reference), "{}: lse", gen.name);
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
/// negation; it must match the reference fold in min order.
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
            scalar_bits(&reference),
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

/// Batch lanes {1, 16, 64}: every scenario of a batched call must match
/// re-annotating a clone and running the scalar reference pass —
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

        let got = engine.evaluate(&scenarios, &PassOptions::default()).scenarios;
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
    assert_eq!(topk_bits(&fast), scalar_bits(&reference));
}

/// Quantised statistics, so exact corner ties across arcs and slots are
/// the common case.
fn stat(rng: &mut Rng) -> (f64, f64) {
    (
        10.0 + rng.bounded_u64(5) as f64 * 10.0,
        [0.0, 0.0, 3.0, 4.0][rng.bounded_u64(4) as usize],
    )
}

/// A generated graph built around the virtual rule, level-major in
/// creation order: buffer / inverter chains one to four nodes long (virtual
/// depth ≥ 2, negative-unate flips), a single-fanin pin read by two merge
/// nodes (it stays stored), a startpoint on a merge node and on a chain
/// node (a startpoint with fanin stays stored), and endpoints in and at
/// the cut-off end of a chain (a single-fanin endpoint stays stored). Returns the graph, the
/// chain nodes that must come out virtual, and how often each case came
/// up: a chain node behind a chain node, a two-reader pin, a startpoint
/// with fanin, a chain node that is an endpoint.
fn chain_graph(seed: u64, levels: usize, width: usize) -> (InstaInit, Vec<u32>, [usize; 4]) {
    let mut rng = Rng::seed_from_u64(seed);
    let (levels, width) = (levels.max(3), width.max(2));
    let mut fanin: Vec<Vec<(u32, bool)>> = Vec::new();
    let mut level_start = vec![0u32];
    // Nodes any later merge may read; nodes the next merges must read
    // (each entry once); chains under way as (tail, nodes still to add).
    let mut pool: Vec<u32> = Vec::new();
    let mut must: Vec<u32> = Vec::new();
    let mut chains: Vec<(u32, usize)> = Vec::new();
    let (mut interior, mut seeded, mut cut) = (Vec::new(), Vec::new(), Vec::new());
    let mut pins = 0;
    for _ in 0..width + 2 {
        pool.push(fanin.len() as u32);
        fanin.push(Vec::new());
    }
    let n_launch = fanin.len();
    level_start.push(fanin.len() as u32);
    for level in 1..=levels {
        let last = level == levels;
        for (tail, left) in std::mem::take(&mut chains) {
            if left > 0 && !last {
                let v = fanin.len() as u32;
                fanin.push(vec![(tail, rng.gen_bool(0.5))]);
                if rng.gen_bool(0.1) {
                    // An endpoint in mid-chain is stored.
                    cut.push(v);
                } else {
                    interior.push(v);
                }
                chains.push((v, left - 1));
            } else if left > 0 {
                // The level budget ran out: the chain ends in an endpoint.
                interior.retain(|&v| v != tail);
                cut.push(tail);
            } else {
                must.push(tail);
            }
        }
        // Readable from the next level on.
        let (mut new_pool, mut new_must) = (Vec::new(), Vec::new());
        for _ in 0..width {
            let v = fanin.len() as u32;
            match rng.bounded_u64(if last { 1 } else { 4 }) {
                // A merge: what must be read first, then random pool nodes.
                0 | 1 => {
                    let mut arcs: Vec<(u32, bool)> = Vec::new();
                    let n = 2 + rng.bounded_u64(2) as usize;
                    while arcs.len() < n {
                        let taken = |p: u32| arcs.iter().any(|a| a.0 == p);
                        let p = match must.iter().position(|&p| !taken(p)) {
                            Some(i) => must.swap_remove(i),
                            None => pool[rng.bounded_u64(pool.len() as u64) as usize],
                        };
                        arcs.push((p, rng.gen_bool(0.4)));
                    }
                    fanin.push(arcs);
                    new_pool.push(v);
                    if rng.gen_bool(0.15) {
                        seeded.push(v);
                    }
                }
                // A chain start: read by its successor only.
                2 => {
                    let p = pool[rng.bounded_u64(pool.len() as u64) as usize];
                    fanin.push(vec![(p, rng.gen_bool(0.5))]);
                    interior.push(v);
                    chains.push((v, rng.bounded_u64(4) as usize));
                    if rng.gen_bool(0.15) {
                        // A startpoint with fanin is stored.
                        interior.retain(|&u| u != v);
                        seeded.push(v);
                    }
                }
                // A single-fanin pin with two readers is stored.
                _ => {
                    let p = pool[rng.bounded_u64(pool.len() as u64) as usize];
                    fanin.push(vec![(p, rng.gen_bool(0.5))]);
                    new_must.extend([v, v]);
                    pins += 1;
                }
            }
        }
        pool.extend(new_pool);
        must.extend(new_must);
        level_start.push(fanin.len() as u32);
    }
    // One last level of merges reads whatever is still owed a reader.
    for (tail, _) in chains {
        must.push(tail);
    }
    while !must.is_empty() {
        let mut arcs: Vec<(u32, bool)> = Vec::new();
        while arcs.len() < 2 {
            let taken = |p: u32| arcs.iter().any(|a| a.0 == p);
            let p = match must.iter().position(|&p| !taken(p)) {
                Some(i) => must.swap_remove(i),
                None => pool[rng.bounded_u64(pool.len() as u64) as usize],
            };
            if !taken(p) {
                arcs.push((p, rng.gen_bool(0.4)));
            }
        }
        fanin.push(arcs);
    }
    level_start.push(fanin.len() as u32);

    let n = fanin.len();
    let mut fanout = vec![0usize; n];
    let mut arcs = Vec::new();
    let mut fanin_start = vec![0u32];
    for node in &fanin {
        for &(parent, negative_unate) in node {
            fanout[parent as usize] += 1;
            let (rise, fall) = (stat(&mut rng), stat(&mut rng));
            arcs.push(ExportedArc {
                parent,
                mean: [rise.0, fall.0],
                sigma: [rise.1, fall.1],
                negative_unate,
                source_arc: arcs.len() as u32,
            });
        }
        fanin_start.push(arcs.len() as u32);
    }
    let launches = (0..n_launch as u32).chain(seeded);
    let sources: Vec<SourceInit> = launches
        .enumerate()
        .map(|(sp, node)| {
            let (rise, fall) = (stat(&mut rng), stat(&mut rng));
            SourceInit {
                node,
                sp: sp as u32,
                mean: [rise.0, fall.0],
                sigma: [rise.1, fall.1],
            }
        })
        .collect();
    let sinks = (0..n as u32).filter(|&v| fanout[v as usize] == 0);
    let endpoints: Vec<EndpointInit> = sinks
        .chain(cut)
        .enumerate()
        .map(|(ep, node)| EndpointInit {
            node,
            ep: ep as u32,
            required_base: 150.0 + 10.0 * ep as f64,
            leaf: NO_LEAF,
        })
        .collect();
    let init = unclocked_init(level_start, fanin_start, arcs, sources, endpoints);
    let behind = |v: &&u32| interior.contains(&init.fanin[init.fanin_start[**v as usize] as usize].parent);
    let seen = [
        interior.iter().filter(behind).count(),
        pins,
        init.sources.len() - n_launch,
        init.endpoints.iter().filter(|e| fanin[e.node as usize].len() == 1).count(),
    ];
    (init, interior, seen)
}

/// A snapshot numbered in creation order (level-major already), with no
/// clock tree, no exceptions and `n_sigma` = 3.
fn unclocked_init(
    level_start: Vec<u32>,
    fanin_start: Vec<u32>,
    fanin: Vec<ExportedArc>,
    sources: Vec<SourceInit>,
    endpoints: Vec<EndpointInit>,
) -> InstaInit {
    let n = fanin_start.len() - 1;
    InstaInit {
        n_nodes: n,
        level_start,
        order: (0..n as u32).collect(),
        fanin_start,
        fanin,
        sp_leaf: vec![NO_LEAF; sources.len()],
        sources,
        endpoints,
        clock_parent: Vec::new(),
        clock_depth: Vec::new(),
        clock_credit: Vec::new(),
        n_sigma: 3.0,
        period_ps: 1000.0,
        exceptions: Default::default(),
    }
}

/// `init` with an endpoint on every node: no node is virtual, so every
/// queue is a stored row the level body wrote — what a virtual node's
/// materialised queue must equal — while no queue depends on where the
/// endpoints are.
fn all_stored(init: &InstaInit) -> InstaInit {
    let mut twin = init.clone();
    for node in 0..init.n_nodes as u32 {
        twin.endpoints.push(EndpointInit {
            node,
            ep: twin.endpoints.len() as u32,
            required_base: 500.0,
            leaf: NO_LEAF,
        });
    }
    twin
}

/// Generated virtual chains against two oracles, for K ∈ {1, 2, 4, 8, 32},
/// setup and hold: the twin with every node stored and the scalar
/// reference's own dense arrays. Dense view, and every node's `arrival_at` /
/// `distribution_at` / snapshot row, on `to_bits`.
#[test]
fn virtual_chains_read_exactly_like_stored_queues() {
    let seen = std::cell::Cell::new([0usize; 4]);
    for_all(
        Config::cases(40).seed(SUITE_SEED ^ 0xC4A1),
        |rng| (rng.next_u64(), 3 + rng.bounded_u64(7), 2 + rng.bounded_u64(4)),
        |&(seed, levels, width)| {
            let (init, interior, cases) = chain_graph(seed, levels as usize, width as usize);
            let so_far = seen.get();
            seen.set(std::array::from_fn(|i| so_far[i] + cases[i]));
            let twin_init = all_stored(&init);
            let mut rng = Rng::seed_from_u64(seed ^ 0x401D);
            let early = |rng: &mut Rng, n: usize| -> Vec<[f64; 2]> {
                (0..n).map(|_| [stat(rng).0 * 0.5, stat(rng).0 * 0.5]).collect()
            };
            let mut attrs = HoldAttributes {
                source_mean: early(&mut rng, init.sources.len()),
                source_sigma: vec![[1.0, 2.0]; init.sources.len()],
                required_base: vec![20.0; init.endpoints.len()],
            };
            let twin_attrs = HoldAttributes {
                required_base: vec![20.0; twin_init.endpoints.len()],
                ..attrs.clone()
            };
            attrs.required_base[0] = f64::NEG_INFINITY;
            for top_k in [1usize, 2, 4, 8, 32] {
                let cfg = InstaConfig {
                    top_k,
                    ..InstaConfig::default()
                };
                let what = format!("K={top_k}");
                let mut a = InstaEngine::new(init.clone(), cfg.clone()).map_err(|e| e.to_string())?;
                let mut twin = InstaEngine::new(twin_init.clone(), cfg.clone()).expect("valid twin");
                for &v in &interior {
                    prop_assert!(a.is_virtual(v), "{what}: chain node {v} is stored");
                }
                prop_assert_eq!(a.num_rows() + interior.len(), a.num_nodes());
                prop_assert_eq!(twin.num_rows(), twin.num_nodes());
                let mut r = InstaEngine::new(init.clone(), cfg).expect("valid");

                let report = report_bits(a.propagate());
                twin.propagate();
                prop_assert!(
                    topk_bits(&a) == topk_bits(&twin),
                    "{what}: dense view vs stored twin"
                );
                prop_assert!(
                    report == report_bits(r.forward_scalar_reference()),
                    "{what}: report"
                );
                prop_assert!(
                    topk_bits(&a) == scalar_bits(&r),
                    "{what}: dense view vs scalar reference"
                );
                let (sa, st) = (a.snapshot(), twin.snapshot());
                let bits = |x: Option<f64>| x.map(f64::to_bits);
                for v in 0..init.n_nodes as u32 {
                    for rf in 0..2 {
                        let got = a.arrival_at(v, rf);
                        prop_assert!(bits(got) == bits(twin.arrival_at(v, rf)), "{what}: arrival_at({v}, {rf})");
                        prop_assert!(bits(got) == bits(sa.arrival_at(v, rf)), "{what}: snapshot row ({v}, {rf})");
                        prop_assert!(bits(got) == bits(st.arrival_at(v, rf)), "{what}: twin's row ({v}, {rf})");
                        let pair = |d: Option<(f64, f64)>| d.map(|(m, s)| (m.to_bits(), s.to_bits()));
                        prop_assert!(
                            pair(a.distribution_at(v, rf)) == pair(twin.distribution_at(v, rf)),
                            "{what}: distribution_at({v}, {rf})"
                        );
                    }
                }

                let hold = report_bits(&a.propagate_hold(&attrs));
                twin.propagate_hold(&twin_attrs);
                prop_assert!(
                    topk_bits(&a) == topk_bits(&twin),
                    "{what}: min-mode dense view vs stored twin"
                );
                prop_assert!(
                    hold == report_bits(&r.hold_scalar_reference(&attrs)),
                    "{what}: hold report"
                );
                prop_assert!(
                    topk_bits(&a) == scalar_bits(&r),
                    "{what}: min-mode dense view vs scalar reference"
                );
            }
            Ok(())
        },
    );
    assert!(
        seen.get().iter().all(|&n| n >= 10),
        "deep chain nodes / pins / startpoints with fanin / single-fanin endpoints: {:?}",
        seen.get()
    );
}

/// A startpoint with exactly one fanin arc keeps its launch seed: the
/// queue is the merge of the seed and the arc's run, as at any other seeded
/// node. `L → S → E` with `S` also a startpoint, every arrival computed by
/// hand. The seed of `S` decides `E`'s worst setup entry (late corner 126
/// against 44 through `L`) and, launched earlier, its hold entry (early
/// corner 22 against 26). The reference agrees on every array.
#[test]
fn a_startpoint_with_one_fanin_arc_keeps_its_launch_seed() {
    let arc = |parent: u32, mean: f64, sigma: f64| ExportedArc {
        parent,
        mean: [mean; 2],
        sigma: [sigma; 2],
        negative_unate: false,
        source_arc: parent,
    };
    let source = |node: u32, mean: [f64; 2], sigma: [f64; 2]| SourceInit {
        node,
        sp: node,
        mean,
        sigma,
    };
    let init = unclocked_init(
        vec![0, 1, 2, 3],
        vec![0, 0, 1, 2],
        vec![arc(0, 5.0, 3.0), arc(1, 20.0, 0.0)],
        vec![
            source(0, [10.0; 2], [0.0; 2]),
            source(1, [100.0, 90.0], [2.0, 4.0]),
        ],
        vec![EndpointInit {
            node: 2,
            ep: 0,
            required_base: 200.0,
            leaf: NO_LEAF,
        }],
    );
    let attrs = HoldAttributes {
        source_mean: vec![[10.0; 2], [5.0; 2]],
        source_sigma: vec![[0.0; 2], [1.0; 2]],
        required_base: vec![10.0],
    };
    for top_k in [1usize, 2, 32] {
        let cfg = InstaConfig {
            top_k,
            ..InstaConfig::default()
        };
        let mut fast = InstaEngine::new(init.clone(), cfg.clone()).expect("valid");
        let mut reference = InstaEngine::new(init.clone(), cfg).expect("valid");
        let what = format!("K={top_k}");

        // Setup. S: seed (100, 2) ahead of L's (10 + 5, 3); E adds (20, 0).
        let setup = fast.propagate().clone();
        assert_eq!(
            fast.distribution_at(2, 0),
            Some((120.0, 2.0)),
            "{what}: rise"
        );
        assert_eq!(
            fast.distribution_at(2, 1),
            Some((110.0, 4.0)),
            "{what}: fall"
        );
        assert_eq!(fast.arrival_at(2, 0), Some(126.0), "{what}: rise corner");
        assert_eq!(fast.arrival_at(1, 0), Some(106.0), "{what}: the seed at S");
        assert_eq!(
            (setup.slacks[0], setup.worst_sp[0]),
            (74.0, 1),
            "{what}: setup slack"
        );
        let want = report_bits(reference.forward_scalar_reference());
        assert_eq!(report_bits(&setup), want, "{what}: reference setup report");
        assert_eq!(
            topk_bits(&fast),
            scalar_bits(&reference),
            "{what}: reference setup arrays"
        );

        // Hold. S: seed (5, 1) launches at early corner 2, L's path reaches S
        // at 15 − 9 = 6; E adds (20, 0): early corners 22 and 26.
        let hold = fast.propagate_hold(&attrs);
        assert_eq!(
            (hold.arrivals[0], hold.slacks[0], hold.worst_sp[0]),
            (22.0, 12.0, 1),
            "{what}: hold"
        );
        let want = report_bits(&reference.hold_scalar_reference(&attrs));
        assert_eq!(report_bits(&hold), want, "{what}: reference hold report");
        assert_eq!(
            topk_bits(&fast),
            scalar_bits(&reference),
            "{what}: reference hold arrays"
        );
    }
}

/// A virtual hop that reorders its parent's queue, by hand. `A`, `B`, `C`
/// launch; `M` merges `A` and `B`; `H` is the one-in/one-out hop from `M`
/// to the endpoint `E`, which merges `H` (run 0) and `C` (run 1). Setup:
/// `M` holds `Y` (sp 1, 90 ± 4, late corner 102) ahead of `X` (sp 0,
/// 100 ± 0, corner 100). A hop of σ 3 takes `X` to 109 and `Y` to 105, so
/// it reorders: `E`'s gather falls back to materialising `H`, where `X` is
/// slot 0. `C` launches `Z` (sp 2) at exactly 109, slot 0 of run 1, and the
/// corner tie goes to the lower slot, then the earlier run: `X` — at its
/// ancestor's rank, slot 1, it would lose to `Z`. Hold launches `X` at
/// 100 ± 4 and `Y` at 90 ± 0 and has the same shape, `Y` against `Z` at
/// early corner 81. A σ-0 hop reorders nothing, nothing falls back, and
/// `Z` leads. The reference agrees on every array, every pass span
/// counts the fallbacks, and so does the `batch.sweep` span of a lane that
/// turns the σ-0 hop into the σ-3 one.
#[test]
fn a_reordering_hop_falls_back_and_its_rank_breaks_a_corner_tie() {
    let arc = |parent: u32, sigma: f64, source_arc: u32| ExportedArc {
        parent,
        mean: [0.0; 2],
        sigma: [sigma; 2],
        negative_unate: false,
        source_arc,
    };
    let source = |node: u32, mean: f64, sigma: f64| SourceInit {
        node,
        sp: node,
        mean: [mean; 2],
        sigma: [sigma; 2],
    };
    // A B C | M | H | E, and the hop is graph arc 2.
    let init = |hop_sigma: f64| {
        unclocked_init(
            vec![0, 3, 4, 5, 6],
            vec![0, 0, 0, 0, 2, 3, 5],
            vec![
                arc(0, 0.0, 0),
                arc(1, 0.0, 1),
                arc(3, hop_sigma, 2),
                arc(4, 0.0, 3),
                arc(2, 0.0, 4),
            ],
            vec![
                source(0, 100.0, 0.0),
                source(1, 90.0, 4.0),
                source(2, 109.0, 0.0),
            ],
            vec![EndpointInit {
                node: 5,
                ep: 0,
                required_base: 200.0,
                leaf: NO_LEAF,
            }],
        )
    };
    let attrs = HoldAttributes {
        source_mean: vec![[100.0; 2], [90.0; 2], [81.0; 2]],
        source_sigma: vec![[4.0; 2], [0.0; 2], [0.0; 2]],
        required_base: vec![10.0],
    };
    let fallbacks = |e: &InstaEngine, span: &str| {
        let journal = e.trace_journal().expect("tracing on");
        let last = journal.events().filter(|ev| ev.name == span).last();
        last.and_then(|ev| ev.field("fallbacks"))
            .expect("span with a fallback count")
    };
    // σ of the hop, then E's worst setup entry, its startpoint, hold's
    // worst startpoint, and the fallbacks of every pass.
    let cases = [
        (3.0, (100.0, 3.0), 0, 1, 2.0),
        (0.0, (109.0, 0.0), 2, 2, 0.0),
    ];
    for top_k in [2usize, 3, 32] {
        let cfg = InstaConfig {
            top_k,
            ..InstaConfig::default()
        };
        let mut setups = Vec::new();
        for (hop_sigma, first, setup_sp, hold_sp, fell_back) in cases {
            let what = format!("K={top_k}, hop σ {hop_sigma}");
            let mut fast = InstaEngine::new(init(hop_sigma), cfg.clone()).expect("valid");
            let mut reference = InstaEngine::new(init(hop_sigma), cfg.clone()).expect("valid");
            assert!(
                fast.is_virtual(4) && fast.num_rows() == 5,
                "{what}: H is the only virtual node"
            );
            fast.enable_tracing();

            let setup = fast.propagate().clone();
            assert_eq!(
                fast.distribution_at(5, 0),
                Some(first),
                "{what}: E's worst entry"
            );
            assert_eq!(fast.arrival_at(5, 1), Some(109.0), "{what}: E's corner");
            assert_eq!(setup.worst_sp[0], setup_sp, "{what}: setup tie");
            assert_eq!(
                fallbacks(&fast, "forward"),
                fell_back,
                "{what}: forward span"
            );
            let want = report_bits(reference.forward_scalar_reference());
            assert_eq!(report_bits(&setup), want, "{what}: reference setup report");
            assert_eq!(
                topk_bits(&fast),
                scalar_bits(&reference),
                "{what}: reference setup arrays"
            );
            fast.propagate_fused();
            assert_eq!(
                topk_bits(&fast),
                scalar_bits(&reference),
                "{what}: fused arrays"
            );
            assert_eq!(
                fallbacks(&fast, "forward_fused"),
                fell_back,
                "{what}: fused span"
            );
            setups.push(report_bits(&setup));

            let hold = fast.propagate_hold(&attrs);
            assert_eq!(
                (hold.arrivals[0], hold.worst_sp[0]),
                (81.0, hold_sp),
                "{what}: hold tie"
            );
            assert_eq!(fallbacks(&fast, "hold"), fell_back, "{what}: hold span");
            let want = report_bits(&reference.hold_scalar_reference(&attrs));
            assert_eq!(report_bits(&hold), want, "{what}: reference hold report");
            assert_eq!(
                topk_bits(&fast),
                scalar_bits(&reference),
                "{what}: reference hold arrays"
            );
        }

        // A lane that turns the σ-0 hop into the σ-3 one is the σ-3 engine.
        let mut plain = InstaEngine::new(init(0.0), cfg).expect("valid");
        plain.propagate();
        plain.enable_tracing();
        let lane = Scenario::from(vec![ArcDelta {
            arc: 2,
            mean: [0.0; 2],
            sigma: [3.0; 2],
        }]);
        let got = plain.evaluate(&[lane], &PassOptions::default()).scenarios;
        let report = got[0].outcome.as_ref().expect("valid lane");
        assert_eq!(report_bits(report), setups[0], "K={top_k}: lane");
        assert_eq!(
            fallbacks(&plain, "batch.sweep"),
            2.0,
            "K={top_k}: batch.sweep span"
        );
    }
}

/// Truth that shares no arithmetic with the kernels: on a merge-free chain
/// (one launch, 1–60 arcs, random unateness) the Gaussian model is exact,
/// so the endpoint's distribution is the launch plus every arc on the
/// transitions the chain selects — means summed, variances summed. The
/// test tracks the rise/fall flips itself and sums each sorted list of
/// terms, an order the kernels never use. A model that inflates variance
/// per arc sum fails at once.
#[test]
fn merge_free_chains_sum_means_and_variances_exactly() {
    for_all(
        Config::cases(64).seed(SUITE_SEED ^ 0x7247),
        |rng| (rng.bounded_u64(60) as usize, rng.next_u64()),
        |&(extra, seed)| {
            // A shrunk case keeps at least one arc.
            let n_arcs = 1 + extra;
            let mut rng = Rng::seed_from_u64(seed);
            let draw = |rng: &mut Rng| [1.0 + 49.0 * rng.next_f64(), 10.0 * rng.next_f64()];
            let (rise, fall) = (draw(&mut rng), draw(&mut rng));
            let launch = SourceInit {
                node: 0,
                sp: 0,
                mean: [rise[0], fall[0]],
                sigma: [rise[1], fall[1]],
            };
            let arcs: Vec<ExportedArc> = (0..n_arcs)
                .map(|a| {
                    let (rise, fall) = (draw(&mut rng), draw(&mut rng));
                    ExportedArc {
                        parent: a as u32,
                        mean: [rise[0], fall[0]],
                        sigma: [rise[1], fall[1]],
                        negative_unate: rng.gen_bool(0.5),
                        source_arc: a as u32,
                    }
                })
                .collect();
            let n = n_arcs + 1;
            let init = unclocked_init(
                (0..=n as u32).collect(),
                std::iter::once(0).chain(0..n as u32).collect(),
                arcs.clone(),
                vec![launch],
                vec![EndpointInit {
                    node: n_arcs as u32,
                    ep: 0,
                    required_base: 0.0,
                    leaf: NO_LEAF,
                }],
            );
            for rf_end in 0..2 {
                // Walk back from the endpoint: an arc into a node on
                // transition `rf` reads its parent on the flipped one when
                // it is negative-unate.
                let (mut means, mut vars) = (Vec::new(), Vec::new());
                let mut rf = rf_end;
                for arc in arcs.iter().rev() {
                    means.push(arc.mean[rf]);
                    vars.push(arc.sigma[rf] * arc.sigma[rf]);
                    if arc.negative_unate {
                        rf = 1 - rf;
                    }
                }
                means.push(launch.mean[rf]);
                vars.push(launch.sigma[rf] * launch.sigma[rf]);
                let sorted_sum = |mut v: Vec<f64>| {
                    v.sort_by(f64::total_cmp);
                    v.into_iter().sum::<f64>()
                };
                let mean = sorted_sum(means);
                let sigma = sorted_sum(vars).sqrt();
                let corner = mean + 3.0 * sigma;
                let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs();
                for top_k in [1usize, 32] {
                    let cfg = InstaConfig {
                        top_k,
                        ..InstaConfig::default()
                    };
                    let mut engine =
                        InstaEngine::new(init.clone(), cfg).map_err(|e| e.to_string())?;
                    engine.propagate();
                    let what = format!("{n_arcs} arcs, rf {rf_end}, K={top_k}");
                    let (m, s) = engine
                        .distribution_at(n_arcs as u32, rf_end)
                        .ok_or_else(|| format!("{what}: endpoint unreached"))?;
                    prop_assert!(close(m, mean), "{what}: mean {m}, truth {mean}");
                    prop_assert!(close(s, sigma), "{what}: sigma {s}, truth {sigma}");
                    let a = engine.arrival_at(n_arcs as u32, rf_end).expect("reached");
                    prop_assert!(close(a, corner), "{what}: corner {a}, truth {corner}");
                }
            }
            Ok(())
        },
    );
}

/// The capacity referee: per node, the startpoint ids whose launch reaches
/// it, found by walking its fan-in cone with a set. It shares no code with
/// the engine's capacity pass. A node with several sources launches the
/// last one's id.
fn reaching_ids(init: &InstaInit) -> Vec<std::collections::HashSet<u32>> {
    let mut launch = vec![None; init.n_nodes];
    for s in &init.sources {
        launch[s.node as usize] = Some(s.sp);
    }
    (0..init.n_nodes)
        .map(|v| {
            let mut ids = std::collections::HashSet::new();
            let (mut seen, mut stack) = (vec![false; init.n_nodes], vec![v]);
            seen[v] = true;
            while let Some(u) = stack.pop() {
                ids.extend(launch[u]);
                let fanin = init.fanin_start[u] as usize..init.fanin_start[u + 1] as usize;
                for e in &init.fanin[fanin] {
                    if !std::mem::replace(&mut seen[e.parent as usize], true) {
                        stack.push(e.parent as usize);
                    }
                }
            }
            ids
        })
        .collect()
}

/// Every queue of `e` holds `min(K, ids reaching its node)` entries.
fn counts_match(e: &InstaEngine, reach: &[std::collections::HashSet<u32>], what: &str) -> Result<(), String> {
    for (v, ids) in reach.iter().enumerate() {
        for rf in 0..2 {
            let (got, want) = (e.queue_len(v as u32, rf), ids.len().min(e.top_k()));
            prop_assert!(got == want, "{what}: node {v} rf {rf} holds {got}, {want} ids reach it");
        }
    }
    Ok(())
}

/// The capacity contract on generated graphs — virtual chains, startpoints
/// with one fanin arc, negative-unate arcs, reconvergent startpoint ids,
/// and a node with two sources, whose last one launches — for K ∈ {1, 2, 4,
/// 8, 32}: after setup, hold and a cone update every queue, stored or
/// virtual, holds as many entries as the fan-in-cone referee says. A batch
/// lane and a window pass are read back through their reports (each must
/// complete: the level body fills every row it writes exactly to its
/// capacity or fails the pass), the lane against its serial twin. A snapshot
/// whose two sources share one sp id is rejected before any row exists.
#[test]
fn every_queue_holds_the_startpoints_its_cone_can_reach() {
    for_all(
        Config::cases(12).seed(SUITE_SEED ^ 0xCA9),
        |rng| (rng.next_u64(), rng.bounded_u64(4), rng.bounded_u64(5)),
        |&(seed, levels, width)| {
            // At least 64 nodes, whatever the shrinker tries.
            let (levels, width) = (8 + levels as usize, 10 + width as usize);
            let (mut init, _, _) = chain_graph(seed, levels, width);
            let mut rng = Rng::seed_from_u64(seed ^ 0xCA9);
            let shared = rng.bounded_u64(init.sources.len() as u64) as usize;
            let node = init.sources[shared].node;
            init.sources.push(SourceInit {
                node,
                sp: init.sources.len() as u32,
                mean: [5.0, 7.0],
                sigma: [1.0, 0.0],
            });
            init.sp_leaf.push(NO_LEAF);
            let mut twin_ids = init.clone();
            twin_ids.sources[1].sp = twin_ids.sources[0].sp;
            let err = InstaEngine::new(twin_ids, InstaConfig::default()).err();
            prop_assert!(err.is_some_and(|e| e.category() == "validate"), "a shared sp id");

            let reach = reaching_ids(&init);
            prop_assert!(init.n_nodes >= 64, "fixture: a one-seed update takes the cone");
            let attrs = HoldAttributes {
                source_mean: vec![[2.0, 3.0]; init.sources.len()],
                source_sigma: vec![[1.0, 0.5]; init.sources.len()],
                required_base: vec![20.0; init.endpoints.len()],
            };
            let arc = rng.bounded_u64(init.fanin.len() as u64) as u32;
            let delta = [ArcDelta {
                arc,
                mean: [90.0, 15.0],
                sigma: [6.0, 0.0],
            }];
            for top_k in [1usize, 2, 4, 8, 32] {
                let what = format!("K={top_k}");
                let cfg = InstaConfig {
                    top_k,
                    ..InstaConfig::default()
                };
                let mut e = InstaEngine::new(init.clone(), cfg).map_err(|e| e.to_string())?;
                e.propagate();
                counts_match(&e, &reach, &format!("{what} setup"))?;
                e.propagate_hold(&attrs);
                counts_match(&e, &reach, &format!("{what} hold"))?;

                e.propagate();
                let mut twin = e.clone();
                let lane = [Scenario::from(delta.to_vec())];
                let lanes = e.evaluate(&lane, &PassOptions::default()).scenarios;
                let lane = lanes[0].outcome.as_ref().map_err(|err| format!("{what}: lane {err}"))?;
                let serial = twin.update_timing(&delta).map_err(|err| err.to_string())?;
                prop_assert!(report_bits(lane) == report_bits(&serial), "{what}: lane vs serial");

                e.enable_tracing();
                e.update_timing(&delta).map_err(|err| err.to_string())?;
                let journal = e.trace_journal().expect("tracing on");
                let cones: Vec<_> = journal.events().filter(|ev| ev.name == "forward.cone").collect();
                prop_assert!(cones.len() == 1, "{what}: the update took the cone");
                // The span reads in full-pass units: every recompute has a
                // fanin arc, and pass-throughs are counted apart.
                let (nodes, arcs) = (cones[0].field("nodes"), cones[0].field("arcs"));
                let passed = cones[0].field("passed");
                prop_assert!(nodes >= Some(1.0) && arcs >= nodes && passed.is_some(), "{what}: {:?}", cones[0]);
                counts_match(&e, &reach, &format!("{what} cone"))?;

                let corner = Scenario::default().with_corner(CornerTransform::scale(1.05, 1.1));
                let window = e.evaluate(&[corner], &PassOptions::default());
                prop_assert!(window.scenarios[0].outcome.is_ok(), "{what}: window pass");
                let journal = e.trace_journal().expect("tracing on");
                let sweep = journal.events().filter(|ev| ev.name == "batch.sweep").last();
                let passes = sweep.and_then(|ev| ev.field("window_passes"));
                prop_assert!(passes == Some(1.0), "{what}: a window pass ran");
            }
            Ok(())
        },
    );
}

/// `init` with logic no endpoint sees spliced in, above its last level: a
/// startpoint at level 0 whose only reader is a chain of two virtual
/// nodes, which ends in a merge that reads nothing else live and feeds
/// nothing; a merge of a live node that already fans out and an
/// endpoint, feeding that last merge; a virtual node off that live node,
/// feeding the last merge too; and a dangling gate. Returns the new
/// snapshot and its graph arcs into dead nodes, by child: the merge's from
/// the endpoint, the chain's first, the dangling gate's.
fn with_dead_logic(init: &InstaInit, rng: &mut Rng) -> (InstaInit, [u32; 3]) {
    let mut init = init.clone();
    let n = init.n_nodes;
    let mut fanout = vec![0usize; n];
    for a in &init.fanin {
        fanout[a.parent as usize] += 1;
    }
    let is_endpoint = |init: &InstaInit, v: u32| init.endpoints.iter().any(|e| e.node == v);
    let live_fanout = (0..n as u32)
        .rev()
        .find(|&v| fanout[v as usize] >= 1 && !is_endpoint(&init, v))
        .expect("a node that fans out");
    let endpoint = init.endpoints[rng.bounded_u64(init.endpoints.len() as u64) as usize].node;
    let gate_parent = rng.bounded_u64(n as u64) as u32;
    let mut graph_arc = init.fanin.iter().map(|a| a.source_arc + 1).max().unwrap_or(0);
    // A node on level `l` reading `parents`; levels past the last are
    // opened as they are asked for.
    let mut add = |init: &mut InstaInit, l: usize, parents: &[u32]| -> (u32, u32) {
        let v = init.n_nodes as u32;
        init.n_nodes += 1;
        let first = graph_arc;
        for &parent in parents {
            let (rise, fall) = (stat(rng), stat(rng));
            init.fanin.push(ExportedArc {
                parent,
                mean: [rise.0, fall.0],
                sigma: [rise.1, fall.1],
                negative_unate: rng.gen_bool(0.4),
                source_arc: graph_arc,
            });
            graph_arc += 1;
        }
        init.fanin_start.push(init.fanin.len() as u32);
        if l + 1 == init.level_start.len() {
            init.level_start.push(init.order.len() as u32);
        }
        let at = init.level_start[l + 1] as usize;
        init.order.insert(at, v);
        for s in &mut init.level_start[l + 1..] {
            *s += 1;
        }
        (v, first)
    };
    let last = init.level_start.len() - 2;
    let (start, _) = add(&mut init, 0, &[]);
    let (merge, into_merge) = add(&mut init, last + 1, &[endpoint, live_fanout]);
    let (chain, into_chain) = add(&mut init, last + 1, &[start]);
    let (_, into_gate) = add(&mut init, last + 1, &[gate_parent]);
    let (chain2, _) = add(&mut init, last + 2, &[chain]);
    let (tap, _) = add(&mut init, last + 1, &[live_fanout]);
    add(&mut init, last + 3, &[chain2, merge, tap]);
    let (rise, fall) = (stat(rng), stat(rng));
    init.sources.push(SourceInit {
        node: start,
        sp: init.sources.len() as u32,
        mean: [rise.0, fall.0],
        sigma: [rise.1, fall.1],
    });
    init.sp_leaf.push(NO_LEAF);
    (init, [into_merge, into_chain, into_gate])
}

/// The last `name` span's `field`.
fn span_field(e: &InstaEngine, name: &str, field: &str) -> Option<f64> {
    let journal = e.trace_journal().expect("tracing on");
    let last = journal.events().filter(|ev| ev.name == name).last();
    last.and_then(|ev| ev.field(field))
}

/// Which *original* nodes reach an endpoint, from the snapshot alone: a
/// sweep against the creation order, children before parents.
fn seen_by_an_endpoint(init: &InstaInit) -> Vec<bool> {
    let mut seen = vec![false; init.n_nodes];
    for e in &init.endpoints {
        seen[e.node as usize] = true;
    }
    for &v in init.order.iter().rev() {
        if seen[v as usize] {
            let fanin =
                init.fanin_start[v as usize] as usize..init.fanin_start[v as usize + 1] as usize;
            for a in &init.fanin[fanin] {
                seen[a.parent as usize] = true;
            }
        }
    }
    seen
}

/// No pass times what no endpoint can see, and nothing a pass reports
/// moves. On generated chain graphs with dead logic spliced in
/// (`with_dead_logic`), for K ∈ {1, 2, 8, 32} on one and two threads: a
/// pin no endpoint sees is not timed — `None` from `arrival_at`,
/// `distribution_at` and the snapshot — and every queue equals the
/// reference's after setup and after hold, whose spans skip the three dead
/// merges and only they; delta-free corner lanes and full-pass lanes equal
/// their rolled-back serial twins; a lane whose deltas all sit on dead
/// arcs is its base report and recomputes nothing; and an `evaluate` call
/// moves no queue.
#[test]
fn no_pass_times_dead_logic_and_every_report_keeps_its_bits() {
    let (corner, derate) = (CornerTransform::scale(1.08, 1.25), CornerTransform::scale(0.9, 1.1));
    for_all(
        Config::cases(10).seed(SUITE_SEED ^ 0xDEAD),
        |rng| (rng.next_u64(), 4 + rng.bounded_u64(3), 24 + rng.bounded_u64(24)),
        |&(seed, levels, width)| {
            let (init, _, _) = chain_graph(seed, levels as usize, width as usize);
            let mut rng = Rng::seed_from_u64(seed ^ 0xDEAD);
            let (init, [into_merge, into_chain, into_gate]) = with_dead_logic(&init, &mut rng);
            let seen = seen_by_an_endpoint(&init);
            prop_assert_eq!(seen.iter().filter(|&&s| !s).count(), 7);
            let attrs = HoldAttributes {
                source_mean: (0..init.sources.len()).map(|_| [stat(&mut rng).0 * 0.5; 2]).collect(),
                source_sigma: vec![[1.0, 2.0]; init.sources.len()],
                required_base: vec![20.0; init.endpoints.len()],
            };
            let shifted = |arc: u32| {
                let a = init.fanin.iter().find(|a| a.source_arc == arc).expect("an arc");
                ArcDelta {
                    arc,
                    mean: [a.mean[0] + 40.0, a.mean[1] + 35.0],
                    sigma: [a.sigma[0] + 2.0, a.sigma[1]],
                }
            };
            let dead_lane = Scenario::from(vec![shifted(into_merge), shifted(into_chain)]);
            let full_lane = Scenario::from(
                (0..into_merge).filter(|g| g % 2 == 0).map(shifted).collect::<Vec<_>>(),
            );
            let corner_lane = Scenario::default().with_corner(corner);
            let gate_lane = Scenario::from(vec![shifted(into_gate)]).with_corner(derate);
            for (top_k, n_threads) in [1usize, 2, 8, 32].into_iter().flat_map(|k| [(k, 1), (k, 2)]) {
                let what = format!("seed {seed:#x}, K={top_k}, {n_threads} threads");
                let cfg = InstaConfig {
                    top_k,
                    n_threads,
                    ..InstaConfig::default()
                };
                let mut a = InstaEngine::new(init.clone(), cfg.clone()).map_err(|e| e.to_string())?;
                let mut r = InstaEngine::new(init.clone(), cfg).expect("valid");
                a.enable_tracing();

                // Setup: every queue is the reference's, and a dead pin
                // reads unreached wherever it is read.
                a.propagate();
                r.forward_scalar_reference();
                prop_assert!(topk_bits(&a) == scalar_bits(&r), "{what}: setup queues");
                prop_assert_eq!(span_field(&a, "forward", "dead"), Some(3.0));
                let snap = a.snapshot();
                for v in (0..init.n_nodes as u32).filter(|&v| !seen[v as usize]) {
                    for rf in 0..2 {
                        prop_assert!(a.arrival_at(v, rf).is_none(), "{what}: arrival_at({v}, {rf})");
                        prop_assert!(a.distribution_at(v, rf).is_none(), "{what}: distribution_at({v}, {rf})");
                        prop_assert!(snap.arrival_at(v, rf).is_none(), "{what}: snapshot row ({v}, {rf})");
                    }
                }

                // Hold: the three dead merges are skipped, and only they.
                let hold = report_bits(&a.propagate_hold(&attrs));
                prop_assert!(hold == report_bits(&r.hold_scalar_reference(&attrs)), "{what}: hold report");
                prop_assert!(topk_bits(&a) == scalar_bits(&r), "{what}: hold's queues");
                prop_assert_eq!(span_field(&a, "hold", "dead"), Some(3.0));

                // A lane on dead arcs only: its base, no recompute.
                let base = report_bits(a.propagate());
                let queues = topk_bits(&a);
                let got = a.evaluate(&[dead_lane.clone()], &PassOptions::default());
                let lane = got.scenarios[0].outcome.as_ref().map_err(|e| e.to_string())?;
                prop_assert!(report_bits(lane) == base, "{what}: the dead lane is its base");
                prop_assert_eq!(span_field(&a, "batch.sweep", "cone_lanes"), Some(1.0));
                prop_assert_eq!(span_field(&a, "batch.sweep", "nodes"), Some(0.0));
                prop_assert!(span_field(&a, "batch.sweep", "dead") >= Some(1.0), "{what}");

                // Window lanes (a delta-free corner, a lane past the seed
                // switch) and a corner lane over a base pass.
                let scs = [corner_lane.clone(), full_lane.clone(), gate_lane.clone()];
                let got = a.evaluate(&scs, &PassOptions::default());
                prop_assert_eq!(span_field(&a, "batch.sweep", "window_passes"), Some(2.0));
                prop_assert_eq!(span_field(&a, "batch.sweep", "base_passes"), Some(1.0));
                prop_assert!(report_bits(a.report()) == base, "{what}: the call moved the report");
                prop_assert!(topk_bits(&a) == queues, "{what}: evaluate moved a queue");
                for (i, sc) in scs.iter().enumerate() {
                    let lane = got.scenarios[i].outcome.as_ref().map_err(|e| e.to_string())?;
                    let deltas = a.scenario_twin_deltas(sc);
                    let mut session = a.begin_session();
                    let twin = session.update_timing(&deltas).map_err(|e| e.to_string())?;
                    session.rollback();
                    prop_assert!(report_bits(lane) == report_bits(&twin), "{what}: lane {i}");
                }
            }
            Ok(())
        },
    );
}

/// The gradient of an arc or a node no endpoint sees is exactly `+0.0` —
/// no pass writes its LSE arrival or its gradient, and an unwritten LSE
/// arrival must not leak a NaN — after a fused pass and a backward pass,
/// after a committed session cone and after a rolled-back one. On chain
/// graphs with dead logic spliced in (every endpoint violating) and on
/// block-5 under a clock tight enough that gradients flow.
#[test]
fn gradients_of_logic_no_endpoint_sees_are_exactly_zero() {
    let mut inits = Vec::new();
    for seed in [3u64, 17] {
        let (init, _, _) = chain_graph(seed, 5, 30);
        let (mut init, _) = with_dead_logic(&init, &mut Rng::seed_from_u64(seed));
        for e in &mut init.endpoints {
            e.required_base = -2000.0;
        }
        inits.push((format!("dead-logic chain graph {seed}"), init));
    }
    let mut block5 = GeneratorConfig::block("block-5", 105, 0.40);
    block5.clock_period_ps = 500.0;
    let (_, golden, _) = build(&block5, InstaConfig::default());
    inits.push(("block-5".into(), golden.export_insta_init()));
    for (name, init) in inits {
        let seen = seen_by_an_endpoint(&init);
        let n_arcs = init.fanin.iter().map(|a| a.source_arc as usize + 1).max().unwrap_or(0);
        let mut arc_seen = vec![true; n_arcs];
        for v in (0..init.n_nodes).filter(|&v| !seen[v]) {
            let fanin = init.fanin_start[v] as usize..init.fanin_start[v + 1] as usize;
            for a in &init.fanin[fanin] {
                arc_seen[a.source_arc as usize] = false;
            }
        }
        let dead_arc = arc_seen.iter().position(|&s| !s).expect("fixture: a dead arc") as u32;
        let live_arc = arc_seen.iter().position(|&s| s).expect("fixture: a live arc") as u32;
        let cfg = InstaConfig {
            top_k: 8,
            lse_tau: 2.0,
            ..InstaConfig::default()
        };
        let mut e = InstaEngine::new(init.clone(), cfg).expect("valid snapshot");
        let zero = (0.0f64).to_bits();
        let check = |e: &mut InstaEngine, step: &str| {
            e.backward_tns();
            let grads = e.arc_gradients();
            assert!(grads.iter().any(|&g| g != 0.0), "{name} {step}: no gradient flows");
            for (g, _) in arc_seen.iter().enumerate().filter(|(_, &s)| !s) {
                assert_eq!(grads[g].to_bits(), zero, "{name} {step}: arc {g}");
            }
            for v in (0..init.n_nodes as u32).filter(|&v| !seen[v as usize]) {
                for rf in 0..2 {
                    let got = e.node_gradient(v, rf).map(f64::to_bits);
                    assert_eq!(got, Some(zero), "{name} {step}: node {v} rf {rf}");
                }
            }
        };
        e.propagate_fused();
        check(&mut e, "after a fused pass");
        let deltas = [dead_arc, live_arc].map(|arc| {
            let a = init.fanin.iter().find(|a| a.source_arc == arc).expect("an arc");
            ArcDelta {
                arc,
                mean: [a.mean[0] + 30.0, a.mean[1] + 25.0],
                sigma: [a.sigma[0] + 1.0, a.sigma[1]],
            }
        });
        let mut session = e.begin_session();
        session.update_timing(&deltas).expect("valid deltas");
        session.commit().expect("commit");
        check(&mut e, "after a committed cone");
        let mut session = e.begin_session();
        session
            .update_timing(&deltas.map(|d| ArcDelta {
                mean: [d.mean[0] + 9.0, d.mean[1]],
                ..d
            }))
            .expect("valid deltas");
        session.rollback();
        check(&mut e, "after a rollback");
    }
}
