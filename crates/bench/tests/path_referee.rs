//! An independent referee for the setup report: the worst slack of every
//! endpoint over *every* launch → capture path of a small generated
//! design, enumerated one path at a time from the exported snapshot.
//!
//! The referee reads nothing but the [`InstaInit`] a reference timer
//! exports and shares no arithmetic with the engine: a path's arrival is
//! its own `Σμ` and `√Σσ²` (the engine's merge takes a square root at
//! every hop), its transitions follow each arc's unateness, and its CPPR
//! credit comes from its own common-path walk over the clock tree.
//!
//! The engine's merge is greedy: per node and startpoint it keeps the
//! distribution with the larger corner, which can drop the path that is
//! worst at the endpoint once later sigmas add in quadrature (Mishagli et
//! al., *Gate-Level Statistical Timing Analysis: Exact Solutions,
//! Approximations and Algorithms*). Every corner it keeps is still the
//! corner of a real path, so at a Top-K that covers every startpoint its
//! slack can only be at or above the referee's, never below. That is
//! asserted on three generated designs, with how often and by how much it is
//! above printed (EXPERIMENTS.md "Greedy merge vs path-based POCV"); a
//! hand-built graph pins one miss of the merge to the path it kept. The
//! reference timer's setup slacks are held to the same bound: its reducer
//! merges the same greedy way.

use insta_engine::engine::{InstaConfig, InstaEngine};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::export::{EndpointInit, ExportedArc, InstaInit, SourceInit, NO_LEAF};
use insta_refsta::{RefSta, StaConfig};

/// The most paths the referee enumerates.
const MAX_PATHS: u64 = 100_000;

/// Relative tolerance of a compare: the referee sums in another order.
const REL_TOL: f64 = 1e-9;

/// CPPR credit between a launch and a capture clock leaf: the credit at
/// their lowest common clock-tree node, 0 when either side has no leaf.
fn common_path_credit(init: &InstaInit, launch: u32, capture: u32) -> f64 {
    if launch == NO_LEAF || capture == NO_LEAF {
        return 0.0;
    }
    let depth = |n: u32| init.clock_depth[n as usize];
    let (mut a, mut b) = (launch, capture);
    while a != b {
        if depth(a) >= depth(b) {
            a = init.clock_parent[a as usize];
        } else {
            b = init.clock_parent[b as usize];
        }
    }
    init.clock_credit[a as usize]
}

/// The fanin arcs of node `v`.
fn fanin(init: &InstaInit, v: usize) -> &[ExportedArc] {
    &init.fanin[init.fanin_start[v] as usize..init.fanin_start[v + 1] as usize]
}

/// Per endpoint (in `init.endpoints` order) the worst setup slack over
/// every launch → capture path, `INFINITY` where none arrives, and the
/// number of paths. A path runs backward from the endpoint through fanin
/// arcs — an arc into transition `rf` reads its parent on `rf`, flipped
/// when it is negative-unate — and ends at each startpoint launching on
/// the node it reaches.
fn path_slacks(init: &InstaInit, cppr: bool) -> (Vec<f64>, u64) {
    let mut launches = vec![Vec::new(); init.n_nodes];
    for s in &init.sources {
        launches[s.node as usize].push(s);
    }
    // Count first, in level order, so a design past the budget fails fast.
    let mut count = vec![[0u64; 2]; init.n_nodes];
    for &v in &init.order {
        let v = v as usize;
        for rf in 0..2 {
            let through: u64 = fanin(init, v)
                .iter()
                .map(|a| count[a.parent as usize][rf ^ usize::from(a.negative_unate)])
                .sum();
            count[v][rf] = launches[v].len() as u64 + through;
        }
    }
    let total: u64 = init
        .endpoints
        .iter()
        .map(|e| count[e.node as usize].iter().sum::<u64>())
        .sum();
    assert!(
        total <= MAX_PATHS,
        "{total} paths, past the referee's {MAX_PATHS}"
    );

    let mut paths = 0;
    let slacks = init
        .endpoints
        .iter()
        .map(|ep| {
            let mut worst = f64::INFINITY;
            // (node, transition, Σμ, Σσ²) of a path's tail.
            let mut stack = vec![
                (ep.node as usize, 0, 0.0, 0.0),
                (ep.node as usize, 1, 0.0, 0.0),
            ];
            while let Some((v, rf, mean, var)) = stack.pop() {
                for s in &launches[v] {
                    let (mean, var) = (mean + s.mean[rf], var + s.sigma[rf] * s.sigma[rf]);
                    let arrival = mean + init.n_sigma * var.sqrt();
                    let credit = if cppr {
                        common_path_credit(init, init.sp_leaf[s.sp as usize], ep.leaf)
                    } else {
                        0.0
                    };
                    worst = worst.min(ep.required_base + credit - arrival);
                    paths += 1;
                }
                for a in fanin(init, v) {
                    let prf = rf ^ usize::from(a.negative_unate);
                    let var = var + a.sigma[rf] * a.sigma[rf];
                    stack.push((a.parent as usize, prf, mean + a.mean[rf], var));
                }
            }
            worst
        })
        .collect();
    assert_eq!(paths, total, "every counted path is enumerated");
    (slacks, paths)
}

/// INSTA's setup slacks at a Top-K that covers every startpoint.
fn insta_slacks(init: &InstaInit) -> (Vec<f64>, bool) {
    let cfg = InstaConfig {
        top_k: init.sources.len(),
        ..InstaConfig::default()
    };
    let cppr = cfg.cppr;
    let mut engine = InstaEngine::new(init.clone(), cfg).expect("valid snapshot");
    (engine.propagate().slacks.clone(), cppr)
}

/// Per endpoint, asserts `timer` is at or above the referee's worst path
/// (equal where no path arrives) and returns how many endpoints sit above
/// it and the largest gap `timer - referee`.
fn above_the_worst_path(timer: &str, got: &[f64], referee: &[f64]) -> (usize, f64) {
    let (mut differ, mut worst_gap) = (0, 0.0f64);
    for (ep, (&got, &want)) in got.iter().zip(referee).enumerate() {
        if want == f64::INFINITY {
            assert_eq!(got, want, "endpoint {ep}: reached by {timer} only");
            continue;
        }
        let tol = REL_TOL * got.abs().max(want.abs()).max(1.0);
        assert!(
            got >= want - tol,
            "endpoint {ep}: {timer} {got} below the worst path's {want}"
        );
        if got - want > tol {
            differ += 1;
        }
        if (got - want).abs() > worst_gap.abs() {
            worst_gap = got - want;
        }
    }
    (differ, worst_gap)
}

/// Three generated shapes, every launch → capture path of each enumerated:
/// a 14-level design with reconvergence at every level (9 786 paths); a
/// wider one whose gate inputs pick a fanout hub six times in ten (1 288);
/// and a deep, narrow one whose inputs reach six levels back (5 800).
/// INSTA at a covering Top-K and refsta are each compared with the
/// worst path per endpoint, and one line per design is printed
/// (EXPERIMENTS.md "Greedy merge vs path-based POCV").
#[test]
fn greedy_setup_slack_is_never_below_the_worst_path() {
    let designs = [
        GeneratorConfig {
            logic_levels: 14,
            ..GeneratorConfig::small("referee", 7)
        },
        GeneratorConfig {
            logic_levels: 10,
            gates_per_level: 20,
            max_reach_back: 4,
            hub_fraction: 0.1,
            hub_pick_prob: 0.6,
            ..GeneratorConfig::small("referee-hubs", 11)
        },
        GeneratorConfig {
            n_flops: 8,
            logic_levels: 20,
            gates_per_level: 6,
            max_reach_back: 6,
            ..GeneratorConfig::small("referee-deep", 13)
        },
    ];
    for cfg in designs {
        let design = generate_design(&cfg);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let init = golden.export_insta_init();
        assert!(
            init.exceptions.is_empty(),
            "no exceptions: every path counts"
        );
        let (insta, cppr) = insta_slacks(&init);
        let refsta: Vec<f64> = init
            .endpoints
            .iter()
            .map(|e| golden.report().endpoints[e.ep as usize].slack_ps)
            .collect();
        let (referee, paths) = path_slacks(&init, cppr);
        let n = referee.len();
        let share = |differ: usize| 100.0 * differ as f64 / n as f64;
        let (insta_differ, insta_gap) = above_the_worst_path("INSTA", &insta, &referee);
        let (refsta_differ, refsta_gap) = above_the_worst_path("refsta", &refsta, &referee);
        eprintln!(
            "path referee, {}: {paths} paths, {n} endpoints | INSTA: {insta_differ} differ \
             ({:.1} %), worst gap {insta_gap:+.3e} ps | refsta: {refsta_differ} differ \
             ({:.1} %), worst gap {refsta_gap:+.3e} ps",
            cfg.name,
            share(insta_differ),
            share(refsta_differ),
        );
    }
}

/// The miss the greedy merge can make, built by hand: one startpoint
/// reaches a merge through A (μ 100, σ 0, corner 100) and B (μ 99, σ 1,
/// corner 102), so the merge keeps B. A last arc of σ 10 makes A the worst
/// path (100 + 3·10 = 130 against 99 + 3·√101 ≈ 129.15): INSTA's slack is
/// above the referee's by ≈ 0.85 ps, the corner of the path it kept.
#[test]
fn the_referee_finds_the_worst_path_a_greedy_merge_drops() {
    let arc = |parent: u32, mean: f64, sigma: f64| ExportedArc {
        parent,
        mean: [mean; 2],
        sigma: [sigma; 2],
        negative_unate: false,
        source_arc: 0,
    };
    // 0 launches; 1 is A and 2 is B; 3 merges them; 4 is the endpoint.
    let init = InstaInit {
        n_nodes: 5,
        level_start: vec![0, 1, 3, 4, 5],
        order: vec![0, 1, 2, 3, 4],
        fanin_start: vec![0, 0, 1, 2, 4, 5],
        fanin: vec![
            arc(0, 100.0, 0.0),
            arc(0, 99.0, 1.0),
            arc(1, 0.0, 0.0),
            arc(2, 0.0, 0.0),
            arc(3, 0.0, 10.0),
        ],
        sources: vec![SourceInit {
            node: 0,
            sp: 0,
            mean: [0.0; 2],
            sigma: [0.0; 2],
        }],
        endpoints: vec![EndpointInit {
            node: 4,
            ep: 0,
            required_base: 200.0,
            leaf: NO_LEAF,
        }],
        sp_leaf: vec![NO_LEAF],
        clock_parent: Vec::new(),
        clock_depth: Vec::new(),
        clock_credit: Vec::new(),
        n_sigma: 3.0,
        period_ps: 1000.0,
        exceptions: Default::default(),
    };
    let (insta, cppr) = insta_slacks(&init);
    let (referee, paths) = path_slacks(&init, cppr);
    assert_eq!(paths, 4, "two paths per transition");
    assert!(
        (referee[0] - 70.0).abs() < 1e-12,
        "worst path: A, corner 130"
    );
    let kept = 200.0 - (99.0 + 3.0 * 101f64.sqrt());
    assert!(
        (insta[0] - kept).abs() < 1e-12,
        "INSTA {} keeps B",
        insta[0]
    );
}
