//! Window route ≡ serial twin: the report-only passes of `evaluate`.
//!
//! A corner group whose lanes carry no deltas, and every lane past the
//! cone's full-pass switch, run the *window pass*: the full pass's driver
//! and level body, each level written into a small buffer and a row kept
//! in a shared slot only until the last level that reads it. Its report
//! must be the full pass's on raw `to_bits`: every lane is compared with
//! its serial twin — `scenario_twin_deltas` applied in a session that is
//! then rolled back — over several generated designs, K ∈ {1, 2, 3, 8, 32}
//! and one or two threads (plus one design wide enough for two cuts).
//!
//! Each design is spliced so the slot plan meets every shape it must
//! keep: a startpoint above level 0 (seeded into the level buffer), an
//! endpoint with fanout (read from the buffer at its own level *and* from
//! a slot later), and a chain of virtual nodes longer than the gather's
//! hop limit (its consumer materialises the chain from the stored
//! ancestor's slot). A worker panic injected into a window pass is
//! contained like any level's.

use insta_engine::parallel::chaos;
use insta_engine::{
    CornerTransform, InstaConfig, InstaEngine, InstaError, InstaReport, Kernel, ModeMask,
    PassOptions, Scenario,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::export::{EndpointInit, ExportedArc, InstaInit, SourceInit, NO_LEAF};
use insta_refsta::{RefSta, StaConfig};
use std::sync::RwLock;

/// The chaos hook is process-global: the test that arms it takes this lock
/// for writing, every other test for reading.
static CHAOS: RwLock<()> = RwLock::new(());

/// Virtual nodes spliced into one chain: more than the gather walks
/// through before it materialises (three hops).
const CHAIN: usize = 5;

const CORNER: CornerTransform = CornerTransform {
    mean_scale: 1.07,
    mean_offset_ps: 1.5,
    sigma_scale: 1.2,
    sigma_offset_ps: 0.0,
};

/// A corner only a full-pass lane carries: its group runs no base pass.
const SLOW: CornerTransform = CornerTransform {
    mean_scale: 1.2,
    mean_offset_ps: 0.0,
    sigma_scale: 1.0,
    sigma_offset_ps: 0.5,
};

/// Level of every node of `init`.
fn levels(init: &InstaInit) -> Vec<usize> {
    let mut level = vec![0; init.n_nodes];
    for l in 0..init.level_start.len() - 1 {
        for &v in &init.order[init.level_start[l] as usize..init.level_start[l + 1] as usize] {
            level[v as usize] = l;
        }
    }
    level
}

/// A generated design's export, spliced as the module docs say.
fn fixture(gen: &GeneratorConfig) -> InstaInit {
    let design = generate_design(gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut init = golden.export_insta_init();
    let level = levels(&init);
    let fanin =
        |init: &InstaInit, v: usize| init.fanin_start[v] as usize..init.fanin_start[v + 1] as usize;
    let mut fanout = vec![0usize; init.n_nodes];
    for a in &init.fanin {
        fanout[a.parent as usize] += 1;
    }
    let is_endpoint =
        |init: &InstaInit, v: usize| init.endpoints.iter().any(|e| e.node as usize == v);
    let mid = (init.level_start.len() - 1) / 2;
    let interior = |init: &InstaInit, v: usize| {
        level[v] >= mid && fanin(init, v).len() >= 2 && fanout[v] >= 1 && !is_endpoint(init, v)
    };

    // A startpoint above level 0: a merging node keeps its seed in play.
    let sp_node = (0..init.n_nodes)
        .find(|&v| interior(&init, v))
        .expect("a merging node");
    init.sources.push(SourceInit {
        node: sp_node as u32,
        sp: init.sources.len() as u32,
        mean: [35.0, 38.0],
        sigma: [2.0, 2.5],
    });
    init.sp_leaf.push(NO_LEAF);

    // An endpoint whose node fans out.
    let ep_node = (0..init.n_nodes)
        .find(|&v| v != sp_node && interior(&init, v))
        .expect("a second merging node");
    let required_base = init.endpoints[0].required_base;
    init.endpoints.push(EndpointInit {
        node: ep_node as u32,
        ep: init.endpoints.len() as u32,
        required_base,
        leaf: NO_LEAF,
    });

    // A chain of CHAIN virtual nodes spliced into one arc of a merging
    // node, parent → x1 → … → x_CHAIN → child, each on a level of its own
    // inserted below the parent's (later levels shift down together).
    let child = (0..init.n_nodes)
        .rev()
        .find(|&v| interior(&init, v))
        .expect("a merging node");
    let arc = init.fanin_start[child] as usize;
    let (parent, lp) = (
        init.fanin[arc].parent,
        level[init.fanin[arc].parent as usize],
    );
    let first_arc = init.fanin.iter().map(|a| a.source_arc).max().unwrap_or(0) + 1;
    for (i, graph_arc) in (0..CHAIN).zip(first_arc..) {
        let x = init.n_nodes as u32;
        init.n_nodes += 1;
        init.fanin.push(ExportedArc {
            parent: if i == 0 { parent } else { x - 1 },
            mean: [4.0 + i as f64, 5.0],
            sigma: [0.5, 0.75 + i as f64 / 4.0],
            negative_unate: i % 2 == 1,
            source_arc: graph_arc,
        });
        init.fanin_start.push(init.fanin.len() as u32);
        let l = lp + 1 + i;
        let at = init.level_start[l];
        init.order.insert(at as usize, x);
        init.level_start.insert(l, at);
        for s in &mut init.level_start[l + 1..] {
            *s += 1;
        }
    }
    init.fanin[arc].parent = init.n_nodes as u32 - 1;
    init
}

fn engine(init: &InstaInit, k: usize, n_threads: usize) -> InstaEngine {
    let cfg = InstaConfig {
        top_k: k,
        n_threads,
        ..InstaConfig::default()
    };
    let mut eng = InstaEngine::new(init.clone(), cfg).expect("valid snapshot");
    eng.propagate();
    eng
}

/// Every bit of a report.
fn bits(r: &InstaReport) -> Vec<u64> {
    let mut out = vec![
        r.wns_ps.to_bits(),
        r.tns_ps.to_bits(),
        r.n_violations as u64,
    ];
    for i in 0..r.slacks.len() {
        out.extend([r.slacks[i], r.arrivals[i], r.requireds[i]].map(f64::to_bits));
        out.extend([u64::from(r.worst_sp[i]), u64::from(r.worst_rf[i])]);
    }
    out
}

/// The scenario's serial twin: its twin deltas in a rolled-back session,
/// masked by its mode.
fn twin(eng: &mut InstaEngine, sc: &Scenario) -> InstaReport {
    let deltas = eng.scenario_twin_deltas(sc);
    let mut session = eng.begin_session();
    let report = session.update_timing(&deltas).expect("a clean twin");
    session.rollback();
    match &sc.mode {
        Some(mode) => report.masked(mode),
        None => report,
    }
}

/// A re-annotation of every third graph arc: far past the cone's
/// full-pass switch.
fn oversized(init: &InstaInit) -> Vec<ArcDelta> {
    let mut seen = std::collections::BTreeMap::new();
    for a in &init.fanin {
        seen.entry(a.source_arc).or_insert((a.mean, a.sigma));
    }
    seen.into_iter()
        .filter(|(g, _)| g % 3 == 0)
        .map(|(arc, (mean, sigma))| ArcDelta {
            arc,
            mean: [mean[0] * 1.1 + 2.0, mean[1] + 3.5],
            sigma: [sigma[0] + 0.25, sigma[1] * 0.9],
        })
        .collect()
}

/// The window-routed scenarios of a call: two delta-free corner lanes
/// (one under a mode), a full-pass lane, and a full-pass lane under the
/// corner; an identity cone lane rides along.
fn scenarios(init: &InstaInit, n_eps: usize) -> Vec<Scenario> {
    let big = oversized(init);
    vec![
        Scenario::default().with_corner(CORNER),
        Scenario::default()
            .with_corner(CORNER)
            .with_mode(ModeMask::disabling((0..n_eps).step_by(3))),
        Scenario::from(big.clone()),
        Scenario::from(big).with_corner(SLOW),
        Scenario::from(vec![ArcDelta {
            arc: 0,
            mean: [9.0, 11.0],
            sigma: [1.0, 1.0],
        }]),
    ]
}

/// A field of the call's `batch.sweep` span.
fn sweep(eng: &InstaEngine, field: &str) -> f64 {
    let journal = eng.trace_journal().expect("tracing on");
    let span = journal.events().filter(|e| e.name == "batch.sweep").last();
    span.and_then(|e| e.field(field))
        .expect("a batch.sweep span")
}

fn assert_lanes_equal_twins(eng: &mut InstaEngine, scs: &[Scenario], what: &str) {
    eng.enable_tracing();
    let got = eng.evaluate(scs, &PassOptions::default()).scenarios;
    // The corner's base and the two full-pass lanes; every one of them
    // materialises the spliced chain's consumer.
    assert_eq!(sweep(eng, "window_passes"), 3.0, "{what}");
    assert_eq!(sweep(eng, "base_passes"), 0.0, "{what}");
    assert!(
        sweep(eng, "fallbacks") >= 6.0,
        "{what}: the chain was gathered through"
    );
    for (i, sc) in scs.iter().enumerate() {
        let lane = got[i]
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: lane {i}: {e}"));
        assert!(
            bits(lane) == bits(&twin(eng, sc)),
            "{what}: lane {i} differs from its twin"
        );
    }
}

#[test]
fn window_lanes_equal_their_serial_twins() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    for seed in [3, 8, 21] {
        let init = fixture(&GeneratorConfig::small("window", seed));
        for k in [1, 2, 3, 8, 32] {
            for n_threads in [1, 2] {
                let mut eng = engine(&init, k, n_threads);
                let scs = scenarios(&init, eng.num_endpoints());
                let what = format!("seed {seed}, K={k}, {n_threads} threads");
                assert_lanes_equal_twins(&mut eng, &scs, &what);
            }
        }
    }
}

/// Levels wider than the parallel threshold: two threads carve the level
/// buffer into two cuts.
#[test]
fn two_cuts_of_the_level_buffer_equal_the_serial_twins() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let init = fixture(&GeneratorConfig {
        gates_per_level: 600,
        logic_levels: 4,
        ..GeneratorConfig::medium("window_wide", 5)
    });
    let mut eng = engine(&init, 8, 2);
    let scs = scenarios(&init, eng.num_endpoints());
    assert_lanes_equal_twins(&mut eng, &scs, "wide, K=8, 2 threads");
}

#[test]
fn a_worker_panic_in_a_window_pass_is_contained() {
    let _exclusive = CHAOS.write().unwrap_or_else(|p| p.into_inner());
    let init = fixture(&GeneratorConfig::small("window_chaos", 13));
    let mut eng = engine(&init, 8, 1);
    let corner = [Scenario::default().with_corner(CORNER)];
    let want = twin(&mut eng, &corner[0]);

    // One cut panics; the level's serial retry lands on the same bits.
    chaos::arm(Kernel::Forward, 2, false);
    let got = eng.evaluate(&corner, &PassOptions::default()).scenarios;
    chaos::disarm();
    let lane = got[0].outcome.as_ref().expect("contained");
    assert!(
        bits(lane) == bits(&want),
        "a recovered window pass moved a bit"
    );
    let incident = eng.last_incident().expect("the panic is booked");
    assert_eq!((incident.kernel, incident.level), (Kernel::Forward, 2));

    // The retry panics too: the lane is typed, the engine untouched.
    chaos::arm(Kernel::Forward, 2, true);
    let got = eng.evaluate(&corner, &PassOptions::default()).scenarios;
    chaos::disarm();
    assert!(
        matches!(&got[0].outcome, Err(InstaError::Runtime(inc)) if inc.serial_retry_failed),
        "{:?}",
        got[0].outcome
    );
    let fresh = engine(&init, 8, 1);
    assert!(bits(eng.propagate()) == bits(fresh.report()));
}
