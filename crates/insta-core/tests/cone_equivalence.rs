//! Cone ≡ full pass: the differential gate of the cone-bounded
//! `update_timing`.
//!
//! Two engines are built from one snapshot. **A** is driven the way
//! clients drive it — transactional sessions, whose updates re-propagate
//! only the changed fanout cone and whose rollbacks copy its undo log
//! back. **B**
//! applies the same annotations with `reannotate` + `propagate()`, the
//! full pass. After *every* step of a seeded sequence the complete Top-K
//! arrays (stale mean/sigma tails included) and every bit of the report
//! must be equal, and a third engine runs the scalar reference (Algorithm
//! 2 folded over every queue's push sequence) beside them.
//!
//! The sequence mixes what sessions see in practice and what could break
//! the cone: single- and multi-arc batches, an arc repeated inside a batch
//! and across steps, identity deltas, empty batches, arcs feeding a node
//! that is also a startpoint (two launch seeds, last one wins), batches
//! large enough to cross the full-pass switch, commit / rollback /
//! drop-while-open by coin, sessions that stack several updates — over the
//! same nodes, or with a full pass in the middle — before rolling back, a
//! snapshot held across a rollback, and an interleaved `propagate_hold`
//! that clobbers the arrays. The deep session, whose log outgrows its
//! budget, takes a capture before and after its rollback: each equals a
//! clone's after a fresh full pass.
//!
//! The second half of the file is the **undo-exactness suite** of the
//! batched entry point: a what-if lane is the same cone sweep run in place
//! with an undo log, so after any `evaluate` call — clean, quarantined,
//! cancelled, panicked — the engine must hold its pre-call bits and its
//! next update must still be a cone update.
//!
//! Every comparison is on raw `to_bits` — no tolerances anywhere.

use insta_engine::parallel::chaos;
use insta_engine::{
    hold_attributes, CancelToken, CornerTransform, HoldAttributes, InstaConfig, InstaEngine,
    InstaError, InstaReport, Kernel, ModeMask, PassOptions, Scenario, ScenarioReport,
    SessionStatus,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::export::{InstaInit, SourceInit, NO_LEAF};
use insta_refsta::{RefSta, StaConfig};
use insta_support::rng::Rng;
use std::sync::RwLock;

const SUITE_SEED: u64 = 0xC0_4E5E_ED;
const STEPS: usize = 200;

/// The chaos hook is process-global and fires in every dirty level of a
/// cone update: tests that arm it take this lock for writing, every other
/// test for reading.
static CHAOS: RwLock<()> = RwLock::new(());

struct Fixture {
    init: InstaInit,
    /// Current annotation of every graph arc (both expansions of a
    /// non-unate arc carry the same values).
    ann: Vec<([f64; 2], [f64; 2])>,
    /// Graph arcs whose child is the node that is also a startpoint.
    feeding: Vec<u32>,
    /// One fanin arc into each of as many nodes of level 1, spread over
    /// the level, as a session sweeps as a cone: one node in 64.
    shallow: Vec<u32>,
    hold: HoldAttributes,
}

/// A design with about 900 nodes: large enough that a sizing-sized batch
/// stays under the full-pass switch, small enough for a debug-build sweep.
fn mid_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        ..GeneratorConfig::small("cone", seed)
    }
}

/// At least one level wider than the 512-node parallel threshold, so two
/// threads run the chunk-carved full pass on B (and on A's fallbacks).
fn wide_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_flops: 32,
        logic_levels: 3,
        gates_per_level: 170,
        ..GeneratorConfig::small("cone_wide", seed)
    }
}

fn fixture(gen: &GeneratorConfig) -> Fixture {
    let design = generate_design(gen);
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let mut init = golden.export_insta_init();
    let mut hold = hold_attributes(&design, &golden);

    // Make a mid-level node a startpoint as well — twice, so the re-seed
    // must pick the last source like the full pass's in-order seeding
    // does. The node merges several fanin arcs: the single-fanin fast path
    // overwrites the queue, launch seed included, so only a merging node
    // keeps its seed in play.
    let mid = init.level_start.len() / 2;
    let fanin_of =
        |v: u32| init.fanin_start[v as usize] as usize..init.fanin_start[v as usize + 1] as usize;
    let node = init.order[init.level_start[mid] as usize..]
        .iter()
        .copied()
        .find(|&v| fanin_of(v).len() >= 2)
        .expect("a merging node past the middle level");
    let fanin = fanin_of(node);
    let mut feeding: Vec<u32> = init.fanin[fanin].iter().map(|a| a.source_arc).collect();
    feeding.dedup();
    for launch in [40.0, 95.0] {
        init.sources.push(SourceInit {
            node,
            sp: init.sources.len() as u32,
            mean: [launch, launch + 3.0],
            sigma: [2.0, 2.5],
        });
        init.sp_leaf.push(NO_LEAF);
        hold.source_mean.push([launch * 0.5, launch * 0.5 + 1.0]);
        hold.source_sigma.push([1.0, 1.5]);
    }

    let level_1 = &init.order[init.level_start[1] as usize..init.level_start[2] as usize];
    let seeds = (init.order.len() / 64).min(level_1.len());
    let shallow = level_1
        .iter()
        .step_by(level_1.len() / seeds)
        .take(seeds)
        .map(|&v| init.fanin[init.fanin_start[v as usize] as usize].source_arc)
        .collect();

    let n_graph_arcs = init
        .fanin
        .iter()
        .map(|a| a.source_arc as usize + 1)
        .max()
        .unwrap_or(0);
    let mut ann = vec![([0.0; 2], [0.0; 2]); n_graph_arcs];
    for a in &init.fanin {
        ann[a.source_arc as usize] = (a.mean, a.sigma);
    }
    Fixture {
        init,
        ann,
        feeding,
        shallow,
        hold,
    }
}

fn config(k: usize, cppr: bool, n_threads: usize) -> InstaConfig {
    InstaConfig {
        top_k: k,
        cppr,
        n_threads,
        ..InstaConfig::default()
    }
}

fn engine(fx: &Fixture, cfg: &InstaConfig) -> InstaEngine {
    InstaEngine::new(fx.init.clone(), cfg.clone()).expect("valid snapshot")
}

type Dense = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>);

/// Whether two complete sets of Top-K queues (canonical dense form: every
/// node's, a virtual node's materialised) are equal bit for bit.
fn same_topk(a: &Dense, b: &Dense) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.iter()
            .map(|v| v.to_bits())
            .eq(y.iter().map(|v| v.to_bits()))
    };
    same(&a.0, &b.0) && same(&a.1, &b.1) && same(&a.2, &b.2) && a.3 == b.3
}

fn report_bits(r: &InstaReport) -> Vec<u64> {
    let mut bits = vec![
        r.wns_ps.to_bits(),
        r.tns_ps.to_bits(),
        r.n_violations as u64,
    ];
    bits.extend(r.slacks.iter().map(|v| v.to_bits()));
    bits.extend(r.arrivals.iter().map(|v| v.to_bits()));
    bits.extend(r.requireds.iter().map(|v| v.to_bits()));
    bits.extend(r.worst_sp.iter().map(|&v| u64::from(v)));
    bits.extend(r.worst_rf.iter().map(|&v| u64::from(v)));
    bits
}

/// Every queue and the full report of `a` against the full-pass twin and,
/// when there is one, the scalar-reference twin — the reference fold's own
/// dense arrays, not what the twin's engine stores of them.
fn assert_same(a: &InstaEngine, b: &InstaEngine, c: Option<&InstaEngine>, what: &str) {
    let queues = a.topk_snapshot();
    let twins = [
        ("full pass", Some(b), Some(b.topk_snapshot())),
        ("scalar reference", c, c.map(InstaEngine::scalar_topk_snapshot)),
    ];
    for (name, t, want) in twins {
        let (Some(t), Some(want)) = (t, want) else { continue };
        assert_eq!(
            report_bits(a.report()),
            report_bits(t.report()),
            "{what}: report differs from the {name} twin"
        );
        assert!(
            same_topk(&queues, &want),
            "{what}: Top-K arrays differ from the {name} twin"
        );
    }
}

/// The twins' side of a step: re-annotate, then the whole forward pass.
fn full_pass(b: &mut InstaEngine, c: Option<&mut InstaEngine>, deltas: &[ArcDelta]) {
    b.reannotate(deltas).expect("valid batch");
    b.propagate();
    if let Some(c) = c {
        c.reannotate(deltas).expect("valid batch");
        c.forward_scalar_reference();
    }
}

fn jittered(rng: &mut Rng, arc: u32, base: ([f64; 2], [f64; 2])) -> ArcDelta {
    let mut d = ArcDelta {
        arc,
        mean: base.0,
        sigma: base.1,
    };
    for rf in 0..2 {
        d.mean[rf] = base.0[rf] * (0.8 + 0.45 * rng.next_f64()) + rng.next_f64();
        d.sigma[rf] = base.1[rf] * (0.5 + rng.next_f64()) + 0.25 * rng.next_f64();
    }
    d
}

type Annotations = [([f64; 2], [f64; 2])];

/// A fresh delta on a random graph arc.
fn random_delta(rng: &mut Rng, ann: &Annotations) -> ArcDelta {
    let arc = rng.bounded_u64(ann.len() as u64) as u32;
    jittered(rng, arc, ann[arc as usize])
}

/// One step's batch. `prev` is the previous step's batch (for the
/// repeated-across-steps kind).
fn batch(
    rng: &mut Rng,
    fx: &Fixture,
    ann: &Annotations,
    prev: &[ArcDelta],
    step: usize,
) -> Vec<ArcDelta> {
    // The rare kinds are pinned to step numbers so every run has them;
    // the rest is drawn.
    match step % 40 {
        7 => Vec::new(),
        // Crosses the full-pass switch: a quarter of all graph arcs.
        13 | 33 => (0..ann.len() / 4).map(|_| random_delta(rng, ann)).collect(),
        17 | 29 => fx
            .feeding
            .iter()
            .map(|&a| jittered(rng, a, ann[a as usize]))
            .collect(),
        _ => match rng.bounded_u64(6) {
            0 => vec![random_delta(rng, ann)],
            1 | 2 => (0..2 + rng.bounded_u64(7))
                .map(|_| random_delta(rng, ann))
                .collect(),
            3 => {
                // The same arc twice in one batch: the later delta wins.
                let first = random_delta(rng, ann);
                let again = jittered(rng, first.arc, ann[first.arc as usize]);
                vec![first, random_delta(rng, ann), again]
            }
            4 if !prev.is_empty() => prev
                .iter()
                .map(|d| jittered(rng, d.arc, ann[d.arc as usize]))
                .collect(),
            // Identity: the arcs' current annotations, bit for bit.
            _ => (0..1 + rng.bounded_u64(3))
                .map(|_| rng.bounded_u64(ann.len() as u64) as usize)
                .map(|a| ArcDelta {
                    arc: a as u32,
                    mean: ann[a].0,
                    sigma: ann[a].1,
                })
                .collect(),
        },
    }
}

/// How many `name` spans or events a traced engine's journal holds.
fn span_count(a: &InstaEngine, name: &str) -> usize {
    let journal = a.trace_journal().expect("tracing on");
    journal.events().filter(|e| e.name == name).count()
}

/// How many updates the deep session may stack: its log outgrows the
/// budget after 50 to 891 (K = 2 on the wide design) of them.
const DEEP_STACK: usize = 1024;

/// A capture of `eng` equals one a clone takes after a fresh full pass.
/// Both sides untraced: a pass moves the profile a capture carries.
fn assert_capture_is_fresh(eng: &InstaEngine, what: &str) {
    let untraced = || {
        let mut e = eng.clone();
        e.disable_tracing();
        e
    };
    let mut fresh = untraced();
    fresh.propagate();
    assert!(
        untraced().snapshot() == fresh.snapshot(),
        "{what}: the capture differs from a re-propagated clone's"
    );
}

/// Drives A through sessions and the twins through full passes for
/// [`STEPS`] steps, comparing everything after every step.
fn run_sequence(fx: &Fixture, cfg: &InstaConfig, seed: u64) {
    let tag = format!(
        "k={} cppr={} threads={}",
        cfg.top_k, cfg.cppr, cfg.n_threads
    );
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ seed);
    let mut ann = fx.ann.clone();
    let mut a = engine(fx, cfg);
    let mut b = engine(fx, cfg);
    a.propagate();
    b.propagate();
    // A is traced, the twins are not: the journal says which path each
    // update took, and tracing must not move a bit.
    a.enable_tracing_with_capacity(16 * STEPS);
    let mut c = engine(fx, cfg);
    c.forward_scalar_reference();
    assert_same(&a, &b, Some(&c), &format!("{tag} initial"));

    let mut prev: Vec<ArcDelta> = Vec::new();
    let (mut commits, mut rollbacks, mut drops, mut rows_checked, mut outgrown) = (0, 0, 0, 0, 0);
    for step in 0..STEPS {
        if step % 50 == 23 {
            // The min pass clobbers the arrays on every engine; A's next
            // update must notice and run the full pass.
            let ra = a.propagate_hold(&fx.hold);
            let rb = b.propagate_hold(&fx.hold);
            assert_eq!(
                report_bits(&ra),
                report_bits(&rb),
                "{tag} step {step}: hold report"
            );
            let rc = c.hold_scalar_reference(&fx.hold);
            assert_eq!(
                report_bits(&ra),
                report_bits(&rc),
                "{tag} step {step}: hold reference"
            );
            let what = format!("{tag} step {step} after hold");
            assert_same(&a, &b, Some(&c), &what);
            continue;
        }
        // One update per session is the traffic; the pinned kinds stack
        // more, and those sessions are rolled back.
        let mut updates = vec![batch(&mut rng, fx, &ann, &prev, step)];
        match step % 40 {
            // Three stacked updates that revisit the same nodes: the undo
            // log holds them three times, the first copy must win.
            3 | 26 => {
                for _ in 0..2 {
                    let again = updates[0]
                        .iter()
                        .map(|d| jittered(&mut rng, d.arc, ann[d.arc as usize]))
                        .collect();
                    updates.push(again);
                }
            }
            // The second update crosses the full-pass switch: a pass inside
            // the session that the log does not cover.
            9 => updates.push(
                (0..ann.len() / 4)
                    .map(|_| random_delta(&mut rng, &ann))
                    .collect(),
            ),
            _ => {}
        }
        // The shallow arcs shifted and put back in turn, stacked until the
        // undo log outgrows its budget: the log is given up mid-session,
        // and the rollback re-syncs by a full pass.
        let deep = step % 100 == 37;
        if deep {
            updates = (0..DEEP_STACK)
                .map(|i| {
                    let shift = if i % 2 == 0 { 150.0 } else { 0.0 };
                    let arcs = fx.shallow.iter().map(|&g| (g, ann[g as usize]));
                    arcs.map(|(arc, (mean, sigma))| ArcDelta {
                        arc,
                        mean: mean.map(|m| m + shift),
                        sigma,
                    })
                    .collect()
                })
                .collect();
        }
        // A capture taken mid-session fills the engine's row store; the
        // rollback must put the session's begin-time chunks back.
        let pinned = updates.len() > 1 || step % 40 == 21;
        // What takes the twins back if A abandons the step.
        let mut undo: Vec<ArcDelta> = Vec::new();
        for d in updates.iter().flatten() {
            if !undo.iter().any(|u| u.arc == d.arc) {
                undo.push(ArcDelta {
                    arc: d.arc,
                    mean: ann[d.arc as usize].0,
                    sigma: ann[d.arc as usize].1,
                });
            }
        }

        let full_before_session = span_count(&a, "forward");
        let mut session = a.begin_session();
        let mut logged = 0;
        for (i, deltas) in updates.iter().enumerate() {
            let ra = session.update_timing(deltas).expect("valid batch");
            // A log that shrank was given up: the deep session stacks no
            // further. Its updates all write the same arcs, so the twins
            // take its last one only.
            let given_up = session.checkpoint_bytes() < logged;
            logged = session.checkpoint_bytes();
            if deep && !given_up && i + 1 < updates.len() {
                continue;
            }
            full_pass(&mut b, Some(&mut c), deltas);
            assert_eq!(
                report_bits(&ra),
                report_bits(b.report()),
                "{tag} step {step}.{i}: returned report"
            );
            assert_same(
                session.engine(),
                &b,
                Some(&c),
                &format!("{tag} step {step}.{i} in session"),
            );
            if deep {
                break;
            }
        }
        let held = pinned.then(|| session.engine().snapshot());
        if deep {
            assert_capture_is_fresh(session.engine(), &format!("{tag} step {step} in session"));
        }
        let full_before_close = span_count(session.engine(), "forward");
        let all_cones = full_before_close == full_before_session;

        match if pinned { 1 } else { rng.bounded_u64(3) } {
            0 => {
                session.commit().expect("open session");
                for d in &updates[0] {
                    ann[d.arc as usize] = (d.mean, d.sigma);
                }
                commits += 1;
            }
            coin => {
                if coin == 1 {
                    session.rollback();
                    rollbacks += 1;
                } else {
                    drop(session);
                    drops += 1;
                }
                full_pass(&mut b, Some(&mut c), &undo);
            }
        }
        assert_same(&a, &b, Some(&c), &format!("{tag} step {step} after close"));
        if deep {
            assert_capture_is_fresh(&a, &format!("{tag} step {step} after close"));
        }
        // A session of cone sweeps only is taken back by copy — unless its
        // log outgrew the budget, which costs the rollback a full pass.
        if all_cones && span_count(&a, "forward") > full_before_close {
            outgrown += 1;
        }
        if held.is_some() {
            // The rows a capture serves came back with the rollback
            // (`snapshot()` itself debug-asserts the chunks against the
            // arrays). A session begun out of sync ends out of sync and
            // answers nothing.
            let (sa, sb) = (a.snapshot(), b.snapshot());
            for orig in 0..a.num_nodes() as u32 {
                for rf in 0..2 {
                    if let Some(got) = sa.arrival_at(orig, rf) {
                        let want = sb.arrival_at(orig, rf).map(f64::to_bits);
                        assert_eq!(Some(got.to_bits()), want, "{tag} step {step}: row");
                        rows_checked += 1;
                    }
                }
            }
        }
        prev = updates.swap_remove(0);
    }
    assert!(rows_checked > 0, "{tag}: no capture was compared");
    // The deep sessions log a megabyte on every design, K and thread count.
    assert!(outgrown > 0, "{tag}: no session outgrew its log");
    assert!(
        commits > 20 && rollbacks > 20 && drops > 20,
        "{tag}: {commits}/{rollbacks}/{drops}"
    );
    let journal = a.trace_journal().expect("tracing on");
    assert_eq!(journal.dropped(), 0, "journal sized for the run");
    let (cone, full, undone) = (
        span_count(&a, "forward.cone"),
        span_count(&a, "forward"),
        span_count(&a, "session.rollback"),
    );
    // Ten pinned large batches (and their rollbacks), plus the updates that
    // follow a hold, run the full pass; everything else is a cone sweep,
    // taken back by copy.
    assert!(
        cone + undone > STEPS && full >= 10,
        "{tag}: {cone} cone sweeps, {undone} rollbacks, {full} full passes"
    );
}

/// Every Top-K capacity of the sweep — up to 256, twice the paper's Fig. 6
/// setting — and both CPPR settings. CPPR only enters at endpoint evaluation
/// — the sweep itself never reads it — so it is crossed with the
/// restore-network capacity (8) and otherwise alternated rather than
/// doubling every run of a debug-build suite.
const K_CPPR_SWEEP: [(usize, bool); 6] = [(1, true), (2, false), (8, true), (8, false), (32, true), (256, true)];

#[test]
fn gaussian_cone_equals_full_pass_and_scalar_reference() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(3));
    for (k, cppr) in K_CPPR_SWEEP {
        run_sequence(&fx, &config(k, cppr, 1), k as u64 * 2 + u64::from(cppr));
    }
}

#[test]
fn two_threads_cone_equals_full_pass_on_a_wide_design() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&wide_config(7));
    for k in [2usize, 8] {
        run_sequence(&fx, &config(k, true, 2), 200 + k as u64);
    }
}

/// A multi-arc batch on a synced engine and the first level its cone
/// update recomputes (a pre-fired token is cancelled at exactly that
/// level's poll).
fn probe(fx: &Fixture, a: &mut InstaEngine, seed: u64) -> (Vec<ArcDelta>, usize) {
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ seed);
    let deltas: Vec<ArcDelta> = (0..6).map(|_| random_delta(&mut rng, &fx.ann)).collect();
    let before = a.undo_image();
    let token = CancelToken::new();
    token.cancel();
    let mut session = a.begin_session().with_options(PassOptions {
        cancel: Some(token),
        ..PassOptions::default()
    });
    let level = match session.update_timing(&deltas) {
        Err(InstaError::Cancelled {
            kernel: Kernel::Forward,
            level,
            ..
        }) => level,
        other => panic!("expected a forward cancel, got {other:?}"),
    };
    assert_eq!(session.status(), SessionStatus::Cancelled);
    drop(session);
    // The cancelled session is taken back whole: same bits, still in sync.
    assert_untouched(&before, a, "cancelled probe");
    (deltas, level)
}

/// The levels a cone update of `deltas` recomputes, from a traced twin.
fn dirty_levels(fx: &Fixture, cfg: &InstaConfig, deltas: &[ArcDelta]) -> Vec<usize> {
    let mut t = engine(fx, cfg);
    t.propagate();
    t.enable_tracing();
    t.update_timing(deltas).expect("valid batch");
    t.perf_report()
        .rows
        .iter()
        .filter(|r| r.forward_ns > 0)
        .map(|r| r.level)
        .collect()
}

/// A token fired *between* two dirty levels: the sweep stops at the next
/// dirty level's poll with the typed error, the session is `Cancelled`,
/// and the engine recovers to the twin's bits on its next update.
#[test]
fn cancel_mid_cone_stops_at_the_next_dirty_level() {
    let _exclusive = CHAOS.write().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(11));
    let cfg = config(8, true, 1);
    let mut a = engine(&fx, &cfg);
    let mut b = engine(&fx, &cfg);
    a.propagate();
    b.propagate();
    let (deltas, first) = probe(&fx, &mut a, 1);
    let dirty = dirty_levels(&fx, &cfg, &deltas);
    assert_eq!(
        dirty.first(),
        Some(&first),
        "the pre-fired poll is the first dirty level's"
    );
    assert!(
        dirty.len() >= 2,
        "the probe batch must dirty more than one level"
    );

    // A one-shot injected panic in the first dirty level is recovered by
    // the retry; the panic hook is where the token fires, so the next
    // dirty level's poll is the first to see it.
    let before = a.undo_image();
    let token = CancelToken::new();
    let fire = token.clone();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| fire.cancel()));
    chaos::arm(Kernel::Forward, first, false);
    let mut session = a.begin_session().with_options(PassOptions {
        cancel: Some(token),
        ..PassOptions::default()
    });
    let result = session.update_timing(&deltas);
    chaos::disarm();
    std::panic::set_hook(prev_hook);

    match result {
        Err(InstaError::Cancelled {
            kernel: Kernel::Forward,
            level,
            ..
        }) => assert_eq!(level, dirty[1], "stopped at the next dirty level"),
        other => panic!("expected a forward cancel, got {other:?}"),
    }
    assert_eq!(session.status(), SessionStatus::Cancelled);
    drop(session);
    assert_eq!(
        report_bits(a.report()),
        report_bits(b.report()),
        "report restored"
    );
    // A level recomputed twice (the retry) and a level cut short: both are
    // in the log, and the first copies win.
    assert_untouched(&before, &a, "cancelled between two dirty levels");

    let mut s = a.begin_session();
    s.update_timing(&deltas).expect("valid batch");
    s.commit().expect("open session");
    b.reannotate(&deltas).expect("valid batch");
    b.propagate();
    assert_same(&a, &b, None, "update after a cancelled cone");
}

/// A panic that also kills the retry of a dirty level is a typed `Runtime`
/// error with a recorded incident; the session rolls back to its
/// pre-session bits and the engine continues on the cone path.
#[test]
fn persistent_panic_in_a_dirty_level_is_typed_and_rolls_back() {
    let _exclusive = CHAOS.write().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(13));
    let cfg = config(8, true, 1);
    let mut a = engine(&fx, &cfg);
    let mut b = engine(&fx, &cfg);
    a.propagate();
    b.propagate();
    let (deltas, first) = probe(&fx, &mut a, 2);
    let incidents_before = a.incident_log().total();
    let before = a.undo_image();

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm(Kernel::Forward, first, true);
    let mut session = a.begin_session();
    let result = session.update_timing(&deltas);
    chaos::disarm();
    std::panic::set_hook(prev_hook);

    match result {
        Err(InstaError::Runtime(inc)) => {
            assert_eq!((inc.kernel, inc.level), (Kernel::Forward, first));
            assert!(inc.serial_retry_failed);
        }
        other => panic!("expected Runtime, got {other:?}"),
    }
    assert_eq!(session.status(), SessionStatus::RolledBack);
    drop(session);
    assert!(
        a.incident_log().total() > incidents_before,
        "incident recorded"
    );
    assert_eq!(
        report_bits(a.report()),
        report_bits(b.report()),
        "report restored"
    );

    // The half-swept level is taken back like any other: the arrays hold
    // their pre-session bits, in sync, and the next update is a cone.
    assert_untouched(&before, &a, "fatal cone");
    a.health_check().expect("healthy after rollback");
    assert_same(&a, &b, None, "after a fatal cone");
    assert_next_update_is_a_cone(&mut a, &fx, "after a fatal cone");
    let ra = a.update_timing(&deltas).expect("valid batch");
    b.reannotate(&deltas).expect("valid batch");
    assert_eq!(report_bits(&ra), report_bits(b.propagate()));
    assert_same(&a, &b, None, "update after a fatal cone");
}

/// One `forward.cone` span per cone update, carrying the sweep's size, and
/// one `session.rollback` event per rollback, carrying what the undo log
/// put back; a batch past the switch runs `forward`.
#[test]
fn cone_updates_and_rollbacks_are_traced() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(17));
    let mut a = engine(&fx, &config(8, true, 1));
    a.propagate();
    a.enable_tracing();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 3);
    let d = jittered(&mut rng, fx.feeding[0], fx.ann[fx.feeding[0] as usize]);

    let mut s = a.begin_session();
    s.update_timing(&[d]).expect("valid batch");
    s.rollback();
    let named = |name: &str| -> Vec<_> {
        let journal = a.trace_journal().expect("tracing on");
        journal.events().filter(|e| e.name == name).collect()
    };
    let spans = named("forward.cone");
    assert_eq!(spans.len(), 1, "the update sweeps, the rollback copies");
    let span = &spans[0];
    assert_eq!(span.field("seeds"), Some(1.0));
    let (levels, nodes, pruned) = (
        span.field("levels"),
        span.field("nodes"),
        span.field("pruned"),
    );
    assert!(
        levels >= Some(1.0) && nodes >= levels && pruned <= nodes,
        "{span:?}"
    );
    let undone = named("session.rollback");
    assert_eq!(undone.len(), 1);
    // The undo puts back exactly what the sweep recomputed, and the arc's
    // expansions.
    assert_eq!(undone[0].field("nodes"), nodes);
    assert!(undone[0].field("arcs") >= Some(1.0), "{:?}", undone[0]);
    assert_eq!(undone[0].field("cancelled"), Some(0.0));

    let large: Vec<ArcDelta> = (0..fx.ann.len() as u32)
        .map(|arc| jittered(&mut rng, arc, fx.ann[arc as usize]))
        .collect();
    a.update_timing(&large).expect("valid batch");
    assert_eq!(span_count(&a, "forward.cone"), 1);
    assert_eq!(span_count(&a, "forward"), 1);
}

/// The cone through virtual nodes: a delta on an arc whose
/// child is virtual, and one on an arc in mid-chain (virtual parent and
/// virtual child). The nodes have no row, so nothing of theirs is
/// recomputed, compared or logged — the sweep passes through to the one
/// consumer — yet every queue (dense view, theirs materialised), the
/// report and the snapshot rows land on the bits of a twin's `reannotate`
/// + full pass, in the session, after a commit and after a rollback.
#[test]
fn the_cone_passes_through_virtual_nodes() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(19));
    let fanin_of = |v: usize| {
        &fx.init.fanin[fx.init.fanin_start[v] as usize..fx.init.fanin_start[v + 1] as usize]
    };
    let rows_match = |a: &InstaEngine, b: &InstaEngine, what: &str| {
        let (sa, sb) = (a.snapshot(), b.snapshot());
        for orig in 0..a.num_nodes() as u32 {
            for rf in 0..2 {
                assert_eq!(
                    sa.arrival_at(orig, rf).map(f64::to_bits),
                    sb.arrival_at(orig, rf).map(f64::to_bits),
                    "{what}: snapshot row ({orig}, {rf})"
                );
            }
        }
    };
    let cfg = config(8, true, 1);
    let (mut a, mut b) = (engine(&fx, &cfg), engine(&fx, &cfg));
    a.propagate();
    b.propagate();
    a.enable_tracing();
    // From the first capture on, the row chunks follow the sweeps.
    rows_match(&a, &b, "initial");
    // Virtual nodes an endpoint sees: no pass times the others.
    let into_virtual = (0..fx.init.n_nodes)
        .filter(|&v| a.is_virtual(v as u32) && a.arrival_at(v as u32, 0).is_some())
        .map(|v| &fanin_of(v)[0]);
    let (mut head, mut mid) = (None, None);
    for arc in into_virtual {
        let slot = if a.is_virtual(arc.parent) {
            &mut mid
        } else {
            &mut head
        };
        slot.get_or_insert(arc.source_arc);
    }
    let cases = [
        ("into a virtual node", head.expect("fixture: a chain")),
        ("mid-chain", mid.expect("fixture: a chain two deep")),
    ];
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 19);
    for (name, arc) in cases {
        for commit in [false, true] {
            let what = format!("{name} commit={commit}");
            let before = fx.ann[arc as usize];
            let delta = jittered(&mut rng, arc, before);
            let cones = span_count(&a, "forward.cone");
            let mut session = a.begin_session();
            session.update_timing(&[delta]).expect("valid batch");
            full_pass(&mut b, None, &[delta]);
            let eng = session.engine();
            assert_eq!(span_count(eng, "forward.cone"), cones + 1, "{what}: a cone");
            assert_same(eng, &b, None, &format!("{what}: in session"));
            rows_match(eng, &b, &format!("{what}: in session"));
            let logged = eng.undo_log_nodes();
            assert!(!logged.is_empty(), "{what}: the delta moved nothing");
            assert!(
                logged.iter().all(|&v| !eng.is_virtual(v)),
                "{what}: the undo log holds a virtual node"
            );
            if commit {
                session.commit().expect("open session");
            } else {
                session.rollback();
                let undo = ArcDelta {
                    arc,
                    mean: before.0,
                    sigma: before.1,
                };
                full_pass(&mut b, None, &[undo]);
            }
            assert_same(&a, &b, None, &format!("{what}: after close"));
            rows_match(&a, &b, &format!("{what}: after close"));
            // The committed delta stays for the next case on both sides.
        }
    }
}

// ---------------------------------------------------------------------
// Undo exactness of the batched entry points
// ---------------------------------------------------------------------

/// Every part of the pre-call image is still there, bit for bit.
fn assert_untouched(before: &[(&'static str, Vec<u64>)], eng: &InstaEngine, what: &str) {
    for ((name, want), (_, got)) in before.iter().zip(eng.undo_image()) {
        assert!(
            *want == got,
            "{what}: {name} differs from its pre-call bits"
        );
    }
}

/// What a lane must equal: a rolled-back session on a clone, re-annotated
/// with the scenario's pre-scaled twin deltas and masked by its mode.
fn serial_twin(eng: &InstaEngine, sc: &Scenario) -> Result<InstaReport, String> {
    let mut t = eng.clone();
    let deltas = t.scenario_twin_deltas(sc);
    let mut session = t.begin_session();
    let r = session.update_timing(&deltas);
    session.rollback();
    r.map(|r| match &sc.mode {
        Some(m) => r.masked(m),
        None => r,
    })
    .map_err(|e| e.category().to_string())
}

fn assert_lanes_equal_twins(
    got: &[ScenarioReport],
    eng: &InstaEngine,
    scs: &[Scenario],
    what: &str,
) {
    assert_eq!(got.len(), scs.len(), "{what}: one report per scenario");
    for (i, (g, sc)) in got.iter().zip(scs).enumerate() {
        assert_eq!(g.scenario, i, "{what}: index");
        match (&g.outcome, serial_twin(eng, sc)) {
            (Ok(g), Ok(w)) => {
                assert!(
                    report_bits(g) == report_bits(&w),
                    "{what}: lane {i} differs from its twin"
                )
            }
            (Err(g), Err(w)) => assert_eq!(g.category(), w, "{what}: lane {i} error category"),
            (g, w) => panic!("{what}: lane {i} is {g:?}, its twin {w:?}"),
        }
    }
}

/// The engine's next session update is a cone sweep and its rollback a
/// copy: no call, however it ended, may push the engine onto a full pass.
fn assert_next_update_is_a_cone(a: &mut InstaEngine, fx: &Fixture, what: &str) {
    a.enable_tracing();
    let arc = fx.feeding[0];
    let mut d = ArcDelta {
        arc,
        mean: fx.ann[arc as usize].0,
        sigma: fx.ann[arc as usize].1,
    };
    d.mean[0] += 1.5;
    let mut session = a.begin_session();
    session.update_timing(&[d]).expect("valid batch");
    session.rollback();
    let count = |name: &str| span_count(a, name);
    assert_eq!(
        (count("forward.cone"), count("session.rollback"), count("forward")),
        (1, 1, 0),
        "{what}: the update after the call"
    );
    a.disable_tracing();
}

/// The call's one `batch.sweep` span.
fn sweep_span(a: &InstaEngine, field: &str) -> f64 {
    let journal = a.trace_journal().expect("tracing on");
    let spans: Vec<_> = journal
        .events()
        .filter(|e| e.name == "batch.sweep")
        .collect();
    assert_eq!(spans.len(), 1, "one batch.sweep span per call");
    assert_eq!(
        journal
            .events()
            .filter(|e| e.name == "forward.cone")
            .count(),
        0,
        "lanes emit no forward.cone spans"
    );
    spans[0].field(field).expect("span field")
}

fn few_deltas(rng: &mut Rng, fx: &Fixture) -> Vec<ArcDelta> {
    (0..1 + rng.bounded_u64(4))
        .map(|_| random_delta(rng, &fx.ann))
        .collect()
}

const CORNERS: [CornerTransform; 2] = [
    CornerTransform {
        mean_scale: 1.06,
        mean_offset_ps: 0.0,
        sigma_scale: 1.15,
        sigma_offset_ps: 0.0,
    },
    CornerTransform {
        mean_scale: 0.94,
        mean_offset_ps: 2.0,
        sigma_scale: 1.05,
        sigma_offset_ps: 0.25,
    },
];

/// The sizer's corner-ranking batch: every candidate once per corner,
/// identity first. Every third scenario also carries a mode mask.
fn candidates_by_corners(
    rng: &mut Rng,
    fx: &Fixture,
    candidates: usize,
    n_eps: usize,
) -> Vec<Scenario> {
    let mut out = Vec::new();
    for _ in 0..candidates {
        let deltas = few_deltas(rng, fx);
        out.push(Scenario::from(deltas.clone()));
        for c in CORNERS {
            out.push(Scenario::from(deltas.clone()).with_corner(c));
        }
    }
    for (i, sc) in out.iter_mut().enumerate() {
        if i % 3 == 1 {
            sc.mode = Some(ModeMask::disabling([i % n_eps, (7 * i + 1) % n_eps]));
        }
    }
    out
}

/// Clean calls of all three entry points, K ∈ {1, 8, 32}: every lane
/// equals its serial twin, the engine
/// holds its pre-call bits — LSE tag included — and stays on the cone path.
#[test]
fn batched_calls_leave_no_trace() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(19));
    for k in [1usize, 8, 32] {
        let what = format!("k={k}");
        let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xBA7C ^ k as u64);
        let mut a = engine(&fx, &config(k, true, 1));
        a.propagate();
        a.forward_lse(); // a live LSE tag the calls must not clear
        let n_eps = a.report().slacks.len();
        let before = a.undo_image();

        // plain lanes: sparse sets, the base scenario, a repeated arc.
        let mut sets: Vec<Vec<ArcDelta>> = (0..6).map(|_| few_deltas(&mut rng, &fx)).collect();
        sets.push(Vec::new());
        let first = random_delta(&mut rng, &fx.ann);
        let again = jittered(&mut rng, first.arc, fx.ann[first.arc as usize]);
        sets.push(vec![first, random_delta(&mut rng, &fx.ann), again]);
        let plain: Vec<Scenario> = sets.into_iter().map(Scenario::from).collect();
        let got = a.evaluate(&plain, &PassOptions::default()).scenarios;
        assert_lanes_equal_twins(&got, &a, &plain, &format!("{what} plain lanes"));
        assert_untouched(&before, &a, &format!("{what} plain lanes"));

        // evaluate: candidates × (identity + corners), modes mixed in.
        let scs = candidates_by_corners(&mut rng, &fx, 4, n_eps);
        let got = a.evaluate(&scs, &PassOptions::default()).scenarios;
        assert_lanes_equal_twins(&got, &a, &scs, &format!("{what} evaluate"));
        assert_untouched(&before, &a, &format!("{what} evaluate"));

        // MCMM lanes: the same batch plus mode-only variants that dedup.
        let mut sweep = scs.clone();
        for sc in &scs[..4] {
            let mut dup = sc.clone();
            dup.mode = Some(ModeMask::disabling([0, n_eps - 1]));
            sweep.push(dup);
        }
        let deduped = a.counters().mcmm_deduped;
        let got = a.evaluate(&sweep, &PassOptions::default());
        assert!(a.counters().mcmm_deduped >= deduped + 4, "{what}: dedup");
        assert_lanes_equal_twins(&got.scenarios, &a, &sweep, &format!("{what} MCMM lanes"));
        assert_untouched(&before, &a, &format!("{what} MCMM lanes"));

        assert_next_update_is_a_cone(&mut a, &fx, &what);
        assert_untouched(&before, &a, &format!("{what} after the cone update"));
    }
}

/// The sizer's loop: score candidates in a batch, commit one of them in a
/// session, score the next batch. The cone scratch and its undo log are
/// shared between the session sweeps and the lanes — a lane that follows a
/// committed session update must take back exactly its own cone.
#[test]
fn batches_interleaved_with_committed_sessions_leave_no_trace() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(31));
    let what = String::from("K=8");
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x512E);
    let mut a = engine(&fx, &config(8, true, 1));
    a.propagate();
    for round in 0..12 {
        let scs: Vec<Scenario> = (0..4)
            .map(|i| {
                let sc = Scenario::from(few_deltas(&mut rng, &fx));
                if i == 3 {
                    sc.with_corner(CORNERS[round % 2])
                } else {
                    sc
                }
            })
            .collect();
        let before = a.undo_image();
        let got = a.evaluate(&scs, &PassOptions::default()).scenarios;
        assert_lanes_equal_twins(&got, &a, &scs, &format!("{what} round {round}"));
        assert_untouched(&before, &a, &format!("{what} round {round}"));
        let mut session = a.begin_session();
        session
            .update_timing(&scs[round % 3].deltas)
            .expect("valid batch");
        if round % 4 == 3 {
            session.rollback();
        } else {
            session.commit().expect("open session");
        }
    }
}

/// The `batch.sweep` span: one base pass per *distinct* corner however many
/// lanes carry it, one cone per lane with deltas, none for a lane without.
#[test]
fn one_base_pass_per_distinct_corner() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(23));
    let mut a = engine(&fx, &config(8, true, 1));
    a.propagate();
    let n_eps = a.report().slacks.len();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xC0A7);
    // 5 candidates × (identity + 2 corners), then three bare corner lanes.
    let mut scs = candidates_by_corners(&mut rng, &fx, 5, n_eps);
    scs.push(Scenario::default().with_corner(CORNERS[0]));
    scs.push(Scenario::default().with_corner(CORNERS[1]));
    scs.push(Scenario::default().with_corner(CornerTransform::IDENTITY));
    a.enable_tracing();
    let got = a.evaluate(&scs, &PassOptions::default()).scenarios;
    assert!(got.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(sweep_span(&a, "lanes"), 18.0);
    assert_eq!(sweep_span(&a, "base_passes"), 2.0);
    assert_eq!(sweep_span(&a, "corner_lanes"), 12.0);
    assert_eq!(sweep_span(&a, "cone_lanes"), 15.0);
    assert_eq!(sweep_span(&a, "masked_lanes"), 5.0);
    assert_eq!(sweep_span(&a, "ok"), 1.0);
    assert!(sweep_span(&a, "nodes") >= 15.0 && sweep_span(&a, "pruned") <= sweep_span(&a, "nodes"));
    assert_eq!(a.counters().sessions_begun, 0, "no lane ran as a session");

    // A sweep without corners runs no base pass at all.
    a.enable_tracing();
    let scs = [Scenario::from(few_deltas(&mut rng, &fx)), Scenario::default()];
    a.evaluate(&scs, &PassOptions::default());
    assert_eq!(sweep_span(&a, "base_passes"), 0.0);
    assert_eq!(sweep_span(&a, "cone_lanes"), 1.0);
}

/// Quarantined lanes (a bad arc id, a corner that drives annotations
/// non-finite) and a lane past the cone's seed switch (a full pass of its
/// own, a window pass, no session) beside healthy ones.
#[test]
fn quarantined_and_oversized_lanes_leave_no_trace() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(29));
    let what = String::from("K=8");
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x0DD);
    let mut a = engine(&fx, &config(8, true, 1));
    a.propagate();
    a.forward_lse();
    let before = a.undo_image();
    let oversized: Vec<ArcDelta> = (0..fx.ann.len() / 4)
        .map(|_| random_delta(&mut rng, &fx.ann))
        .collect();
    let scs = vec![
        Scenario::from(few_deltas(&mut rng, &fx)),
        Scenario::from(vec![ArcDelta {
            arc: u32::MAX - 1,
            mean: [1.0; 2],
            sigma: [0.1; 2],
        }]),
        Scenario::from(few_deltas(&mut rng, &fx)).with_corner(CORNERS[0]),
        Scenario::from(few_deltas(&mut rng, &fx))
            .with_corner(CornerTransform::scale(f64::INFINITY, 1.0)),
        Scenario::from(oversized.clone()),
        Scenario::from(oversized).with_corner(CORNERS[1]),
        Scenario::from(few_deltas(&mut rng, &fx)).with_corner(CORNERS[1]),
    ];
    let sessions = a.counters().sessions_begun;
    let got = a.evaluate(&scs, &PassOptions::default()).scenarios;
    for bad in [1, 3] {
        assert!(
            matches!(got[bad].outcome, Err(InstaError::Validate(_))),
            "{what}: lane {bad} must be quarantined"
        );
    }
    assert_lanes_equal_twins(&got, &a, &scs, &what);
    assert_eq!(
        a.counters().sessions_begun,
        sessions,
        "{what}: no lane ran as a session"
    );
    assert_untouched(&before, &a, &what);
    assert_next_update_is_a_cone(&mut a, &fx, &what);
}

/// The level a pre-fired token cancels a single-lane call at — the lane's
/// first dirty level (a lane cut there has written nothing but its
/// annotations, and those are back) — or 0 when every delta sits on an arc
/// no endpoint sees: the lane's cone queues no level, and the sweep's one
/// up-front poll cancels it.
fn first_dirty_level(a: &mut InstaEngine, deltas: &[ArcDelta]) -> usize {
    let token = CancelToken::new();
    token.cancel();
    let opts = PassOptions {
        cancel: Some(token),
        ..PassOptions::default()
    };
    let got = a
        .evaluate(&[Scenario::from(deltas.to_vec())], &opts)
        .scenarios;
    match &got[0].outcome {
        Err(InstaError::Cancelled {
            kernel: Kernel::Forward,
            level,
            ..
        }) => *level,
        other => panic!("expected a forward cancel, got {other:?}"),
    }
}

/// A token that fires *between* two dirty levels of the first lane (from
/// the panic hook of a one-shot injected panic, which the forced retry
/// recovers from): that lane stops at its next dirty level, every later
/// lane at its own first dirty level, the corner group's base pass at
/// level 1 — and all of it is taken back.
#[test]
fn a_lane_cancelled_between_dirty_levels_leaves_no_trace() {
    let _exclusive = CHAOS.write().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(11));
    let what = String::from("K=8");
    let cfg = config(8, true, 1);
    let mut a = engine(&fx, &cfg);
    a.propagate();
    let (deltas, first) = probe(&fx, &mut a, 1);
    let dirty = dirty_levels(&fx, &cfg, &deltas);
    assert!(dirty.len() >= 2 && dirty[0] == first);
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xCA9C);
    let others: Vec<Vec<ArcDelta>> = (0..3).map(|_| few_deltas(&mut rng, &fx)).collect();
    let firsts: Vec<usize> = others
        .iter()
        .map(|d| first_dirty_level(&mut a, d))
        .collect();
    let before = a.undo_image();
    let incidents = a.incident_log().total();

    let mut scs = vec![Scenario::from(deltas)];
    scs.extend(others.iter().cloned().map(Scenario::from));
    scs.push(Scenario::from(others[0].clone()).with_corner(CORNERS[0]));
    scs.push(Scenario::default());
    let token = CancelToken::new();
    let fire = token.clone();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| fire.cancel()));
    chaos::arm(Kernel::Forward, first, false);
    let got = a
        .evaluate(
            &scs,
            &PassOptions {
                cancel: Some(token),
                ..PassOptions::default()
            },
        )
        .scenarios;
    chaos::disarm();
    std::panic::set_hook(prev_hook);

    let mut want = vec![dirty[1]];
    want.extend(&firsts);
    want.push(1); // the corner's base pass polls every level
    for (i, level) in want.into_iter().enumerate() {
        match &got[i].outcome {
            Err(InstaError::Cancelled {
                kernel: Kernel::Forward,
                level: got,
                ..
            }) => assert_eq!(*got, level, "{what}: lane {i} cancel level"),
            other => panic!("{what}: lane {i}: expected a forward cancel, got {other:?}"),
        }
    }
    // No deltas, no sweep: the base scenario is still its twin.
    let base = got[5]
        .outcome
        .as_ref()
        .expect("an empty lane has nothing to cancel");
    assert!(report_bits(base) == report_bits(a.report()));
    // A sweep that ends cancelled reports only the cancel, like the
    // session path: the panic it recovered from on the way is dropped.
    assert_eq!(a.incident_log().total(), incidents, "{what}");
    assert_untouched(&before, &a, &what);
    assert_next_update_is_a_cone(&mut a, &fx, &what);
}

/// A one-shot injected panic in a lane's dirty level (identity and corner
/// lane alike): the forced retry recomputes the level, the lane still
/// equals its twin, the incident is booked once for the call, and the undo
/// gives everything back.
#[test]
fn a_recovered_panic_in_a_lane_leaves_no_trace() {
    let _exclusive = CHAOS.write().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(13));
    let what = String::from("K=8");
    let mut a = engine(&fx, &config(8, true, 1));
    a.propagate();
    let (deltas, first) = probe(&fx, &mut a, 2);
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0x1507);
    let scs = vec![
        Scenario::from(deltas.clone()),
        Scenario::from(few_deltas(&mut rng, &fx)),
        Scenario::from(deltas).with_corner(CORNERS[1]),
    ];
    let before = a.undo_image();
    let incidents = a.incident_log().total();

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm(Kernel::Forward, first, false);
    let got = a.evaluate(&scs, &PassOptions::default()).scenarios;
    chaos::disarm();
    std::panic::set_hook(prev_hook);

    assert_lanes_equal_twins(&got, &a, &scs, &what);
    assert_eq!(
        a.incident_log().total(),
        incidents + 1,
        "{what}: booked once"
    );
    let inc = a.last_incident().expect("recovered incident");
    assert_eq!(
        (inc.kernel, inc.level, inc.serial_retry_failed),
        (Kernel::Forward, first, false)
    );
    assert_untouched(&before, &a, &what);
    assert_next_update_is_a_cone(&mut a, &fx, &what);
}

/// A panic that also kills the retry: the lane whose cone holds the armed
/// level reports a typed `Runtime`, its siblings — whose cones start above
/// that level — complete as their twins, and the half-swept lane is taken
/// back like any other, so the engine is *not* left on the full-pass path.
#[test]
fn a_fatal_panic_in_a_lane_is_typed_and_leaves_no_trace() {
    let _exclusive = CHAOS.write().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(13));
    let what = String::from("K=8");
    let mut a = engine(&fx, &config(8, true, 1));
    a.propagate();
    // Single-arc lanes by first dirty level; the victim is the one
    // unique shallowest, armed at its first level.
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 0xFA7A);
    // A lane on an arc no endpoint sees has no dirty level to arm.
    let mut lanes: Vec<(usize, Vec<ArcDelta>)> = (0..12)
        .map(|_| vec![random_delta(&mut rng, &fx.ann)])
        .map(|d| (first_dirty_level(&mut a, &d), d))
        .filter(|&(level, _)| level > 0)
        .collect();
    lanes.sort_by_key(|(level, _)| *level);
    let armed = lanes[0].0;
    let victim = lanes[0].1.clone();
    let siblings: Vec<Vec<ArcDelta>> = lanes
        .into_iter()
        .filter(|(level, _)| *level > armed)
        .map(|(_, d)| d)
        .take(4)
        .collect();
    assert!(siblings.len() >= 2, "{what}: fixture needs deeper lanes");
    let mut scs = vec![Scenario::from(siblings[0].clone()), Scenario::from(victim)];
    scs.extend(siblings[1..].iter().cloned().map(Scenario::from));
    let before = a.undo_image();
    let incidents = a.incident_log().total();
    let quarantined = a.counters().batch_quarantined;

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm(Kernel::Forward, armed, true);
    let got = a.evaluate(&scs, &PassOptions::default()).scenarios;
    chaos::disarm();
    std::panic::set_hook(prev_hook);

    match &got[1].outcome {
        Err(InstaError::Runtime(inc)) => {
            assert_eq!((inc.kernel, inc.level), (Kernel::Forward, armed));
            assert!(inc.serial_retry_failed);
        }
        other => panic!("{what}: expected Runtime, got {other:?}"),
    }
    for i in (0..scs.len()).filter(|&i| i != 1) {
        let w = serial_twin(&a, &scs[i]).expect("healthy twin");
        let g = got[i].outcome.as_ref().expect("sibling completes");
        assert!(report_bits(g) == report_bits(&w), "{what}: sibling {i}");
    }
    assert_eq!(
        a.incident_log().total(),
        incidents + 1,
        "{what}: booked once"
    );
    assert_eq!(
        a.counters().batch_quarantined,
        quarantined + 1,
        "{what}: one quarantined lane"
    );
    assert_untouched(&before, &a, &what);
    a.health_check().expect("healthy after the call");
    assert_next_update_is_a_cone(&mut a, &fx, &what);
}
