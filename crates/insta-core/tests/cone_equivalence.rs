//! Cone ≡ full pass: the differential gate of the cone-bounded
//! `update_timing`.
//!
//! Two engines are built from one snapshot. **A** is driven the way
//! clients drive it — transactional sessions, whose updates re-propagate
//! only the changed fanout cone and whose rollbacks re-sweep it. **B**
//! applies the same annotations with `reannotate` + `propagate()`, the
//! full pass. After *every* step of a seeded sequence the complete Top-K
//! arrays (stale mean/sigma tails included) and every bit of the report
//! must be equal; under the Gaussian backend a third engine runs the
//! frozen scalar reference kernel beside them.
//!
//! The sequence mixes what sessions see in practice and what could break
//! the cone: single- and multi-arc batches, an arc repeated inside a batch
//! and across steps, identity deltas, empty batches, arcs feeding a node
//! that is also a startpoint (two launch seeds, last one wins), batches
//! large enough to cross the full-pass switch, commit / rollback /
//! drop-while-open by coin, and an interleaved `propagate_hold` that
//! clobbers the arrays.
//!
//! Every comparison is on raw `to_bits` — no tolerances anywhere.

use insta_engine::parallel::chaos;
use insta_engine::{
    hold_attributes, CancelToken, DriftPolicy, FixedBinHistogram, HoldAttributes, InstaConfig,
    InstaEngine, InstaError, InstaReport, Kernel, SessionStatus, StatModelConfig,
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
        hold,
    }
}

fn config(k: usize, cppr: bool, n_threads: usize, histogram: bool) -> InstaConfig {
    InstaConfig {
        top_k: k,
        cppr,
        n_threads,
        // B re-annotates on every revert as well; neither side may drift
        // into the degraded path the other does not take.
        drift_policy: DriftPolicy::unlimited(),
        stat_model: if histogram {
            StatModelConfig::FixedBinHistogram {
                bins: 64,
                support_sigmas: FixedBinHistogram::DEFAULT_SUPPORT_SIGMAS,
            }
        } else {
            StatModelConfig::GaussianPocv
        },
        ..InstaConfig::default()
    }
}

fn engine(fx: &Fixture, cfg: &InstaConfig) -> InstaEngine {
    InstaEngine::new(fx.init.clone(), cfg.clone()).expect("valid snapshot")
}

/// Whether two engines' complete Top-K arrays are equal bit for bit.
fn same_topk(a: &InstaEngine, b: &InstaEngine) -> bool {
    let (a, b) = (a.topk_snapshot(), b.topk_snapshot());
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

/// Full arrays and full report of `a` against the full-pass twin and, when
/// there is one, the scalar-reference twin.
fn assert_same(a: &InstaEngine, b: &InstaEngine, c: Option<&InstaEngine>, what: &str) {
    for (name, t) in [("full pass", Some(b)), ("scalar reference", c)] {
        let Some(t) = t else { continue };
        assert_eq!(
            report_bits(a.report()),
            report_bits(t.report()),
            "{what}: report differs from the {name} twin"
        );
        assert!(
            same_topk(a, t),
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

/// Drives A through sessions and the twins through full passes for
/// [`STEPS`] steps, comparing everything after every step.
fn run_sequence(fx: &Fixture, cfg: &InstaConfig, seed: u64) {
    let tag = format!(
        "k={} cppr={} threads={} {:?}",
        cfg.top_k, cfg.cppr, cfg.n_threads, cfg.stat_model
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
    // The frozen scalar kernel is Gaussian arithmetic.
    let mut c = matches!(cfg.stat_model, StatModelConfig::GaussianPocv).then(|| {
        let mut c = engine(fx, cfg);
        c.forward_scalar_reference();
        c
    });
    assert_same(&a, &b, c.as_ref(), &format!("{tag} initial"));

    let mut prev: Vec<ArcDelta> = Vec::new();
    let (mut commits, mut rollbacks, mut drops) = (0, 0, 0);
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
            if let Some(c) = &mut c {
                let rc = c.hold_scalar_reference(&fx.hold);
                assert_eq!(
                    report_bits(&ra),
                    report_bits(&rc),
                    "{tag} step {step}: hold reference"
                );
            }
            assert_same(&a, &b, c.as_ref(), &format!("{tag} step {step} after hold"));
            continue;
        }
        let deltas = batch(&mut rng, fx, &ann, &prev, step);
        // What takes the twins back if A abandons the step.
        let mut undo: Vec<ArcDelta> = Vec::new();
        for d in &deltas {
            if !undo.iter().any(|u| u.arc == d.arc) {
                undo.push(ArcDelta {
                    arc: d.arc,
                    mean: ann[d.arc as usize].0,
                    sigma: ann[d.arc as usize].1,
                });
            }
        }

        let mut session = a.begin_session();
        let ra = session.update_timing(&deltas).expect("valid batch");
        full_pass(&mut b, c.as_mut(), &deltas);
        assert_eq!(
            report_bits(&ra),
            report_bits(b.report()),
            "{tag} step {step}: returned report"
        );
        assert_same(
            session.engine(),
            &b,
            c.as_ref(),
            &format!("{tag} step {step} in session"),
        );

        match rng.bounded_u64(3) {
            0 => {
                session.commit().expect("open session");
                for d in &deltas {
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
                full_pass(&mut b, c.as_mut(), &undo);
            }
        }
        assert_same(
            &a,
            &b,
            c.as_ref(),
            &format!("{tag} step {step} after close"),
        );
        prev = deltas;
    }
    assert!(
        commits > 20 && rollbacks > 20 && drops > 20,
        "{tag}: {commits}/{rollbacks}/{drops}"
    );
    let spans = |name: &str| {
        let journal = a.trace_journal().expect("tracing on");
        assert_eq!(journal.dropped(), 0, "journal sized for the run");
        journal.events().filter(|e| e.name == name).count()
    };
    let (cone, full) = (spans("forward.cone"), spans("forward"));
    // Ten pinned large batches (and their rollbacks), plus the updates that
    // follow a hold, run the full pass; everything else is a cone sweep.
    assert!(
        cone > STEPS && full >= 10,
        "{tag}: {cone} cone sweeps, {full} full passes"
    );
}

/// Every Top-K capacity of the sweep, and both CPPR settings. CPPR only
/// enters at endpoint evaluation — the sweep itself never reads it — so it
/// is crossed with the restore-network capacity (8) and otherwise
/// alternated rather than doubling every run of a debug-build suite.
const K_CPPR_SWEEP: [(usize, bool); 5] = [(1, true), (2, false), (8, true), (8, false), (32, true)];

#[test]
fn gaussian_cone_equals_full_pass_and_scalar_reference() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(3));
    for (k, cppr) in K_CPPR_SWEEP {
        run_sequence(
            &fx,
            &config(k, cppr, 1, false),
            k as u64 * 2 + u64::from(cppr),
        );
    }
}

#[test]
fn histogram_cone_equals_full_pass() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(5));
    for (k, cppr) in K_CPPR_SWEEP {
        run_sequence(
            &fx,
            &config(k, cppr, 1, true),
            100 + k as u64 * 2 + u64::from(cppr),
        );
    }
}

#[test]
fn two_threads_cone_equals_full_pass_on_a_wide_design() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&wide_config(7));
    for (k, histogram) in [(2usize, false), (8, true)] {
        run_sequence(&fx, &config(k, true, 2, histogram), 200 + k as u64);
    }
}

/// A multi-arc batch on a synced engine and the first level its cone
/// update recomputes (a pre-fired token is cancelled at exactly that
/// level's poll).
fn probe(fx: &Fixture, a: &mut InstaEngine, seed: u64) -> (Vec<ArcDelta>, usize) {
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ seed);
    let deltas: Vec<ArcDelta> = (0..6).map(|_| random_delta(&mut rng, &fx.ann)).collect();
    let token = CancelToken::new();
    token.cancel();
    let mut session = a.begin_session().with_cancel(token);
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
    // The cancelled session left the arrays marked stale.
    a.propagate();
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
    let cfg = config(8, true, 1, false);
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
    let token = CancelToken::new();
    let fire = token.clone();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| fire.cancel()));
    chaos::arm(Kernel::Forward, first, false);
    let mut session = a.begin_session().with_cancel(token);
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

    let mut s = a.begin_session();
    s.update_timing(&deltas).expect("valid batch");
    s.commit().expect("open session");
    b.reannotate(&deltas).expect("valid batch");
    b.propagate();
    assert_same(&a, &b, None, "update after a cancelled cone");
}

/// A panic that also kills the retry of a dirty level is a typed `Runtime`
/// error with a recorded incident; the session rolls back to a healthy
/// engine that continues bit-identically.
#[test]
fn persistent_panic_in_a_dirty_level_is_typed_and_rolls_back() {
    let _exclusive = CHAOS.write().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(13));
    let cfg = config(8, true, 1, false);
    let mut a = engine(&fx, &cfg);
    let mut b = engine(&fx, &cfg);
    a.propagate();
    b.propagate();
    let (deltas, first) = probe(&fx, &mut a, 2);
    let incidents_before = a.incident_log().total();

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

    // The arrays were left half-swept and marked stale: the next pass is
    // a full one and lands on the twin's bits.
    a.propagate();
    a.health_check().expect("healthy after rollback");
    assert_same(&a, &b, None, "propagate after a fatal cone");
    let ra = a.update_timing(&deltas).expect("valid batch");
    b.reannotate(&deltas).expect("valid batch");
    assert_eq!(report_bits(&ra), report_bits(b.propagate()));
    assert_same(&a, &b, None, "update after a fatal cone");
}

/// One `forward.cone` span per cone update and per rollback re-sweep,
/// carrying the sweep's size; a batch past the switch runs `forward`.
#[test]
fn cone_updates_and_rollbacks_are_traced() {
    let _shared = CHAOS.read().unwrap_or_else(|p| p.into_inner());
    let fx = fixture(&mid_config(17));
    let mut a = engine(&fx, &config(8, true, 1, false));
    a.propagate();
    a.enable_tracing();
    let mut rng = Rng::seed_from_u64(SUITE_SEED ^ 3);
    let d = jittered(&mut rng, fx.feeding[0], fx.ann[fx.feeding[0] as usize]);

    let mut s = a.begin_session();
    s.update_timing(&[d]).expect("valid batch");
    s.rollback();
    let spans: Vec<_> = a
        .trace_journal()
        .expect("tracing on")
        .events()
        .filter(|e| e.name == "forward.cone")
        .collect();
    assert_eq!(spans.len(), 2, "one for the update, one for the re-sweep");
    for span in &spans {
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
    }
    // The re-sweep retraces the update's cone.
    assert_eq!(spans[0].field("nodes"), spans[1].field("nodes"));

    let large: Vec<ArcDelta> = (0..fx.ann.len() as u32)
        .map(|arc| jittered(&mut rng, arc, fx.ann[arc as usize]))
        .collect();
    a.update_timing(&large).expect("valid batch");
    let journal = a.trace_journal().expect("tracing on");
    assert_eq!(
        journal
            .events()
            .filter(|e| e.name == "forward.cone")
            .count(),
        2
    );
    assert_eq!(journal.events().filter(|e| e.name == "forward").count(), 1);
}
