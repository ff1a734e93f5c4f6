//! The referee of the validity ledger: a generated state machine over the
//! public API.
//!
//! Random sequences of every call that writes annotations or a derived
//! product — `reannotate`, `update_timing`, the full / fused / hold / LSE /
//! backward passes, `evaluate_batch`, `snapshot()`, and
//! sessions that commit, roll back, are cancelled by a pre-fired token or a
//! zero deadline, or lose a worker to an injected panic — run against a
//! model that knows one thing: the committed annotation table. After every
//! step each read either answers `None` or agrees on `to_bits` with a twin
//! rebuilt from scratch over the model's table; reads answer `Some` where
//! the rules of [`insta_engine`]'s ledger say the arrays are current; and
//! an update on current arrays is a cone update — after a rollback too,
//! unless the session ran a pass its undo log does not cover. Every
//! session takes a capture while open, and after it closes on current
//! arrays a capture equals a clone's after a fresh full pass: the kept
//! snapshot rows followed the commit or came back with the rollback.
//!
//! The pinned tests are the bug the ledger's report row exposed (a backward
//! pass after a bare `reannotate` differentiated the old report), the pass
//! count of the `e2e` signoff sequence, and the one failure the generated
//! sequences never reach: a worker panic inside a session update past the
//! cone's full-pass switch (their armed update is a single arc).

use insta_engine::parallel::chaos;
use insta_engine::{
    hold_attributes, CancelToken, Deadline, DeltaSet, DriftPolicy, EngineDurableState,
    HoldAttributes, InstaConfig, InstaEngine, InstaError, InstaReport, Kernel, PassOptions,
    SessionStatus, TimingSession,
};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::export::InstaInit;
use insta_refsta::{RefSta, StaConfig};
use insta_support::prop::{for_all, Config, Shrink};
use insta_support::rng::Rng;
use insta_support::{prop_assert, prop_assert_eq};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The chaos hook and the panic hook are process-global.
static SERIAL: Mutex<()> = Mutex::new(());

/// What the generated cases may take (debug build).
const TIME_BOX: Duration = Duration::from_secs(8);

/// The LSE temperatures a case's engine may be built with, one per case
/// (τ is construction-time config).
const TAUS: [f64; 3] = [8.0, 2.0, 20.0];

type Table = Vec<([f64; 2], [f64; 2])>;

struct Fixture {
    init: InstaInit,
    /// The snapshot's annotation of every graph arc.
    table: Table,
    /// Lowest timing level holding a child an endpoint sees of each graph
    /// arc: the first level an update of that arc recomputes (`usize::MAX`
    /// when it recomputes none).
    arc_level: Vec<usize>,
    hold: HoldAttributes,
}

/// About 900 nodes: a three-arc batch stays far below the cone's full-pass
/// switch, and a from-scratch twin is a few milliseconds in a debug build.
/// A third of the endpoints violate, so the gradients are not all zero.
fn fixture() -> Fixture {
    let design = generate_design(&GeneratorConfig {
        n_flops: 32,
        logic_levels: 6,
        gates_per_level: 36,
        clock_period_ps: 200.0,
        ..GeneratorConfig::small("validity", 23)
    });
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let init = golden.export_insta_init();
    let n_graph_arcs = init
        .fanin
        .iter()
        .map(|a| a.source_arc as usize + 1)
        .max()
        .unwrap_or(0);
    let fanin =
        |v: usize| &init.fanin[init.fanin_start[v] as usize..init.fanin_start[v + 1] as usize];
    // No pass recomputes a node no endpoint sees.
    let mut seen = vec![false; init.n_nodes];
    for e in &init.endpoints {
        seen[e.node as usize] = true;
    }
    for &v in init.order.iter().rev() {
        if seen[v as usize] {
            fanin(v as usize)
                .iter()
                .for_each(|a| seen[a.parent as usize] = true);
        }
    }
    let mut table = vec![([0.0; 2], [0.0; 2]); n_graph_arcs];
    let mut arc_level = vec![usize::MAX; n_graph_arcs];
    for level in 0..init.level_start.len() - 1 {
        for pos in init.level_start[level]..init.level_start[level + 1] {
            let v = init.order[pos as usize] as usize;
            for a in fanin(v) {
                table[a.source_arc as usize] = (a.mean, a.sigma);
                if seen[v] {
                    let first = &mut arc_level[a.source_arc as usize];
                    *first = (*first).min(level);
                }
            }
        }
    }
    Fixture {
        hold: hold_attributes(&design, &golden),
        init,
        table,
        arc_level,
    }
}

fn config(tau: f64) -> InstaConfig {
    InstaConfig {
        top_k: 4,
        n_threads: 1,
        lse_tau: tau,
        // The model has no drift odometer.
        drift_policy: DriftPolicy::unlimited(),
        ..InstaConfig::default()
    }
}

// ---------------------------------------------------------------------
// The generated sequence
// ---------------------------------------------------------------------

/// One annotation write: graph arc and which of six fixed scalings of its
/// snapshot value it gets (kind 2 is the identity).
#[derive(Debug, Clone, Copy, PartialEq)]
struct D(u32, u8);

/// An annotation batch: a few arcs — a cone update on current arrays — or
/// every fourth arc, far past the cone's full-pass switch.
#[derive(Debug, Clone)]
enum Batch {
    Few(Vec<D>),
    Flood(u8),
}

#[derive(Debug, Clone)]
enum Op {
    Update(Batch),
    Propagate,
}

/// How a session ends. Everything but `Commit` leaves the model untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Commit,
    Rollback,
    /// Opened with a token that has already fired.
    Cancel,
    /// Opened with a zero deadline.
    Deadline,
    /// After its ops, one more update with a persistent worker panic armed
    /// at the first level that update recomputes.
    Panic(D),
}

#[derive(Debug, Clone)]
enum Step {
    Reannotate(Batch),
    Update(Batch),
    /// `EngineDurableState::restore` of a table one batch away.
    Restore(Batch),
    Propagate,
    Fused,
    Hold,
    ForwardLse,
    Backward,
    Lanes(Vec<Vec<D>>),
    /// The first capture: from here on every step reads a snapshot too.
    Snapshot,
    Session {
        ops: Vec<Op>,
        end: End,
    },
}

impl Shrink for Op {}

impl Shrink for Step {
    fn shrink(&self) -> Vec<Self> {
        match self {
            Step::Session { ops, end } => ops
                .shrink()
                .into_iter()
                .map(|ops| Step::Session { ops, end: *end })
                .collect(),
            _ => Vec::new(),
        }
    }
}

fn gen_few(rng: &mut Rng, n_arcs: usize) -> Vec<D> {
    (0..rng.bounded_u64(4))
        .map(|_| {
            D(
                rng.bounded_u64(n_arcs as u64) as u32,
                rng.bounded_u64(6) as u8,
            )
        })
        .collect()
}

fn gen_batch(rng: &mut Rng, n_arcs: usize) -> Batch {
    match rng.bounded_u64(8) {
        0 => Batch::Flood(rng.bounded_u64(6) as u8),
        _ => Batch::Few(gen_few(rng, n_arcs)),
    }
}

fn gen_step(rng: &mut Rng, n_arcs: usize) -> Step {
    match rng.bounded_u64(17) {
        0 => Step::Reannotate(gen_batch(rng, n_arcs)),
        1..=3 => Step::Update(gen_batch(rng, n_arcs)),
        4 => Step::Restore(gen_batch(rng, n_arcs)),
        5 => Step::Propagate,
        6 => Step::Fused,
        7 => Step::Hold,
        8 => Step::ForwardLse,
        9 => Step::Backward,
        10 => Step::Lanes(
            (0..1 + rng.bounded_u64(3))
                .map(|_| gen_few(rng, n_arcs))
                .collect(),
        ),
        11 => Step::Snapshot,
        _ => Step::Session {
            ops: (0..rng.bounded_u64(4))
                .map(|_| match rng.bounded_u64(4) {
                    0 => Op::Propagate,
                    _ => Op::Update(gen_batch(rng, n_arcs)),
                })
                .collect(),
            end: match rng.bounded_u64(6) {
                0 | 1 => End::Commit,
                2 => End::Rollback,
                3 => End::Cancel,
                4 => End::Deadline,
                _ => End::Panic(D(rng.bounded_u64(n_arcs as u64) as u32, 5)),
            },
        },
    }
}

// ---------------------------------------------------------------------
// The model and its twin
// ---------------------------------------------------------------------

/// The fixture under test.
struct Ctx<'f> {
    fx: &'f Fixture,
}

impl Ctx<'_> {
    fn delta(&self, D(arc, kind): D) -> ArcDelta {
        let (mean, sigma) = self.fx.table[arc as usize];
        let (fm, fs) = (0.7 + 0.15 * f64::from(kind), 0.8 + 0.1 * f64::from(kind));
        ArcDelta {
            arc,
            mean: mean.map(|m| m * fm),
            sigma: sigma.map(|s| s * fs),
        }
    }

    fn few(&self, ds: &[D]) -> Vec<ArcDelta> {
        ds.iter().map(|&d| self.delta(d)).collect()
    }

    fn deltas(&self, batch: &Batch) -> Vec<ArcDelta> {
        match batch {
            Batch::Few(ds) => self.few(ds),
            Batch::Flood(kind) => (0..self.fx.table.len() as u32)
                .step_by(4)
                .map(|arc| self.delta(D(arc, *kind)))
                .collect(),
        }
    }

    /// An engine built from scratch over `table`, propagated.
    fn twin(&self, tau: f64, table: &Table) -> InstaEngine {
        let mut t = InstaEngine::new(self.fx.init.clone(), config(tau)).expect("valid snapshot");
        let all: Vec<ArcDelta> = table
            .iter()
            .enumerate()
            .map(|(arc, &(mean, sigma))| ArcDelta {
                arc: arc as u32,
                mean,
                sigma,
            })
            .collect();
        t.reannotate(&all).expect("the model's table is valid");
        t.propagate();
        t
    }

    /// The twin's gradients: the same table, every differentiable pass
    /// afresh.
    fn twin_gradients(&self, tau: f64, table: &Table) -> Vec<u64> {
        let mut t = self.twin(tau, table);
        t.forward_lse();
        t.backward_tns();
        bits(&t.arc_gradients())
    }
}

fn apply(table: &mut Table, ds: &[ArcDelta]) {
    for d in ds {
        table[d.arc as usize] = (d.mean, d.sigma);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn report_bits(r: &InstaReport) -> Vec<u64> {
    let mut out = vec![
        r.wns_ps.to_bits(),
        r.tns_ps.to_bits(),
        r.n_violations as u64,
    ];
    out.extend(
        r.slacks
            .iter()
            .chain(&r.arrivals)
            .chain(&r.requireds)
            .map(|v| v.to_bits()),
    );
    out.extend(r.worst_sp.iter().map(|&v| u64::from(v)));
    out.extend(r.worst_rf.iter().map(|&v| u64::from(v)));
    out
}

fn spans(e: &InstaEngine, name: &str) -> usize {
    let journal = e.trace_journal().expect("tracing on");
    journal.events().filter(|ev| ev.name == name).count()
}

/// (cone sweeps, whole-array passes over the Top-K arrays) so far; the
/// second are the writes no undo log covers.
fn passes(e: &InstaEngine) -> (usize, usize) {
    (
        spans(e, "forward.cone"),
        spans(e, "forward") + spans(e, "forward_fused") + spans(e, "hold"),
    )
}

/// What the harness knows besides the table — only what it needs to say
/// where a read *must* answer.
struct Model {
    table: Table,
    tau: f64,
    /// The last Top-K-writing step was a completed setup pass, a cone
    /// update or a rollback to arrays that were current.
    synced: bool,
    /// The last report-writing step came after the last annotation write.
    report_fresh: bool,
    /// A snapshot has been taken: read one after every step.
    capturing: bool,
}

impl Model {
    /// Books a completed `update_timing` of `batch` that moved the pass
    /// counters from `before` to `now`: on arrays the model calls current,
    /// a few arcs must have been a cone update.
    fn updated(
        &mut self,
        batch: &Batch,
        before: (usize, usize),
        now: (usize, usize),
    ) -> Result<(), String> {
        if self.synced && matches!(batch, Batch::Few(_)) {
            prop_assert!(
                (now.0 - before.0, now.1 - before.1) == (1, 0),
                "an update on current arrays must be a cone update, ran {before:?} -> {now:?}"
            );
        }
        (self.synced, self.report_fresh) = (true, true);
        Ok(())
    }

    /// Books a completed backward pass: a report that was not current was
    /// recomputed first, by a full pass.
    fn differentiated(&mut self) {
        self.synced |= !self.report_fresh;
        self.report_fresh = true;
    }
}

/// Every read of `a` against a twin rebuilt from the model's table.
fn check_reads(cx: &Ctx, m: &Model, a: &InstaEngine, what: &str) -> Result<(), String> {
    let t = cx.twin(m.tau, &m.table);
    let snap = m.capturing.then(|| a.snapshot());
    for orig in 0..a.num_nodes() as u32 {
        for rf in 0..2 {
            let dist_bits = |d: Option<(f64, f64)>| d.map(|(m, s)| (m.to_bits(), s.to_bits()));
            let want = t.arrival_at(orig, rf).map(f64::to_bits);
            let want_dist = dist_bits(t.distribution_at(orig, rf));
            let got = a.arrival_at(orig, rf).map(f64::to_bits);
            let got_dist = dist_bits(a.distribution_at(orig, rf));
            if m.synced {
                prop_assert!(
                    got == want && got_dist == want_dist,
                    "{what}: on current arrays arrival_at({orig}, {rf}) answers {got:?}, \
                     the twin {want:?}"
                );
            } else {
                prop_assert!(
                    (got.is_none() || got == want) && (got_dist.is_none() || got_dist == want_dist),
                    "{what}: arrival_at({orig}, {rf}) answers {got:?}, the twin {want:?}"
                );
            }
            if let Some(snap) = &snap {
                prop_assert!(
                    snap.arrival_at(orig, rf).map(f64::to_bits) == got,
                    "{what}: snapshot().arrival_at({orig}, {rf}) beside the engine's {got:?}"
                );
            }
        }
    }
    if m.report_fresh {
        let got = a.try_report().map(report_bits);
        prop_assert!(
            got == Some(report_bits(t.report())),
            "{what}: report() differs from the twin's"
        );
        if let Some(snap) = &snap {
            prop_assert!(
                snap.report().map(report_bits) == got,
                "{what}: snapshot().report()"
            );
        }
    }
    Ok(())
}

/// On arrays the model calls current, a capture of `a` equals one a clone
/// takes after a fresh full pass. Both sides untraced: a pass moves the
/// profile a capture carries.
fn capture_is_fresh(m: &Model, a: &InstaEngine, what: &str) -> Result<(), String> {
    if !m.synced {
        return Ok(());
    }
    let untraced = || {
        let mut e = a.clone();
        e.disable_tracing();
        e
    };
    let mut fresh = untraced();
    fresh.propagate();
    prop_assert!(
        untraced().snapshot() == fresh.snapshot(),
        "{what}: the capture differs from a re-propagated clone's"
    );
    Ok(())
}

/// Runs one session op and books it if it succeeded. `pending` is the
/// table as the session sees it.
fn session_op(
    cx: &Ctx,
    m: &mut Model,
    pending: &mut Table,
    s: &mut TimingSession<'_>,
    op: &Op,
) -> Result<Result<(), InstaError>, String> {
    let r = match op {
        Op::Update(batch) => {
            let ds = cx.deltas(batch);
            let before = passes(s.engine());
            let r = s.update_timing(&ds).map(|_| ());
            if r.is_ok() {
                m.updated(batch, before, passes(s.engine()))?;
                apply(pending, &ds);
            }
            r
        }
        Op::Propagate => {
            let r = s.propagate().map(|_| ());
            if r.is_ok() {
                (m.synced, m.report_fresh) = (true, true);
            }
            r
        }
    };
    Ok(r)
}

fn run_session(
    cx: &Ctx,
    m: &mut Model,
    a: &mut InstaEngine,
    ops: &[Op],
    end: End,
) -> Result<(), String> {
    let begin = (m.synced, m.report_fresh);
    let grads_before = bits(&a.arc_gradients());
    let uncovered_before = passes(a).1;
    let mut pending = m.table.clone();
    let mut s = a.begin_session();
    match end {
        End::Cancel => {
            let token = CancelToken::new();
            token.cancel();
            s = s.with_options(PassOptions {
                cancel: Some(token),
                ..PassOptions::default()
            });
        }
        End::Deadline => {
            s = s.with_options(PassOptions {
                deadline: Some(Deadline::after(Duration::ZERO)),
                ..PassOptions::default()
            })
        }
        _ => {}
    }
    let mut all_ok = true;
    for op in ops {
        if !s.is_open() {
            break;
        }
        match (session_op(cx, m, &mut pending, &mut s, op)?, end) {
            (Ok(()), _) => {}
            (Err(InstaError::Cancelled { .. }), End::Cancel | End::Deadline) => {
                all_ok = false;
                prop_assert_eq!(s.status(), SessionStatus::Cancelled);
            }
            (Err(e), _) => return Err(format!("{op:?} failed: {e}")),
        }
    }
    if let (End::Panic(D(drawn, kind)), true) = (end, s.is_open()) {
        // An arc into nodes no endpoint sees recomputes no level: the next
        // arc that does is armed.
        let n = cx.fx.arc_level.len() as u32;
        let arc = (0..n)
            .map(|i| (drawn + i) % n)
            .find(|&a| cx.fx.arc_level[a as usize] != usize::MAX);
        let d = D(arc.expect("fixture: an arc an endpoint sees"), kind);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        chaos::arm(Kernel::Forward, cx.fx.arc_level[d.0 as usize], true);
        let r = s.update_timing(&[cx.delta(d)]);
        chaos::disarm();
        std::panic::set_hook(prev);
        all_ok = false;
        prop_assert!(
            matches!(r, Err(InstaError::Runtime(_))),
            "the armed update must be fatal, got {r:?}"
        );
        prop_assert_eq!(s.status(), SessionStatus::RolledBack);
    }
    // The first capture of the engine fills its row store inside the
    // session; the rollback must put the begin-time store back.
    let _ = s.engine().snapshot();
    if end == End::Commit {
        s.commit().map_err(|e| format!("commit failed: {e}"))?;
        m.table = pending;
        return capture_is_fresh(m, a, "after the commit");
    }
    s.rollback();
    // The ledger's rollback rule, restated by the referee: covered ⇒ the
    // log is the whole way back; uncovered ⇒ a full pass re-syncs if the
    // session's passes all completed (else nothing is promised); either
    // way Top-K is current only if it was at begin.
    let uncovered = passes(a).1 > uncovered_before;
    (m.synced, m.report_fresh) = (begin.0 && (!uncovered || all_ok), begin.1);
    prop_assert!(
        bits(&a.arc_gradients()) == grads_before,
        "the rollback left other gradients"
    );
    capture_is_fresh(m, a, "after the rollback")
}

fn run_step(cx: &Ctx, m: &mut Model, a: &mut InstaEngine, step: &Step) -> Result<(), String> {
    match step {
        Step::Reannotate(batch) => {
            let ds = cx.deltas(batch);
            a.reannotate(&ds).expect("valid batch");
            apply(&mut m.table, &ds);
            (m.synced, m.report_fresh) = (false, false);
        }
        Step::Update(batch) => {
            let ds = cx.deltas(batch);
            let before = passes(a);
            a.update_timing(&ds).expect("valid batch");
            m.updated(batch, before, passes(a))?;
            apply(&mut m.table, &ds);
        }
        Step::Restore(batch) => {
            apply(&mut m.table, &cx.deltas(batch));
            EngineDurableState::capture(&cx.twin(m.tau, &m.table))
                .restore(a)
                .expect("same design");
            (m.synced, m.report_fresh) = (false, false);
        }
        Step::Propagate => {
            a.propagate();
            (m.synced, m.report_fresh) = (true, true);
        }
        Step::Fused => {
            a.propagate_fused();
            (m.synced, m.report_fresh) = (true, true);
        }
        Step::Hold => {
            a.propagate_hold(&cx.fx.hold);
            m.synced = false;
        }
        Step::ForwardLse => a.forward_lse(),
        Step::Backward => {
            a.backward_tns();
            m.differentiated();
            prop_assert!(
                bits(&a.arc_gradients()) == cx.twin_gradients(m.tau, &m.table),
                "arc_gradients() differs from the twin's"
            );
        }
        Step::Lanes(sets) => {
            let lanes: Vec<DeltaSet> = sets.iter().map(|ds| cx.few(ds).into()).collect();
            let got = a.evaluate_batch(&lanes);
            // The lanes diverge from a base the call synced if it had to.
            (m.synced, m.report_fresh) = (true, true);
            for lane in &got {
                prop_assert!(
                    lane.outcome.is_ok(),
                    "a valid lane failed: {:?}",
                    lane.outcome
                );
            }
        }
        Step::Snapshot => m.capturing = true,
        Step::Session { ops, end } => run_session(cx, m, a, ops, *end)?,
    }
    Ok(())
}

fn run_case(cx: &Ctx, tau: f64, steps: &[Step]) -> Result<(), String> {
    let mut a = InstaEngine::new(cx.fx.init.clone(), config(tau)).expect("valid snapshot");
    a.enable_tracing_with_capacity(1 << 14);
    let mut m = Model {
        table: cx.fx.table.clone(),
        tau,
        synced: false,
        report_fresh: false,
        capturing: false,
    };
    for (i, step) in steps.iter().enumerate() {
        run_step(cx, &mut m, &mut a, step)?;
        check_reads(cx, &m, &a, &format!("after step {i} ({step:?})"))?;
    }
    Ok(())
}

fn run_model(seed: u64) {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let fx = fixture();
    let cx = Ctx { fx: &fx };
    let n_arcs = fx.table.len();
    // The box ends the run, not a shrink: the first failure lifts it.
    let deadline = Cell::new(Some(Instant::now() + TIME_BOX));
    let ran = Cell::new(0u32);
    for_all(
        Config::cases(1000).seed(seed),
        |rng| -> (usize, Vec<Step>) {
            let tau = rng.bounded_u64(TAUS.len() as u64) as usize;
            let steps = (0..4 + rng.bounded_u64(10))
                .map(|_| gen_step(rng, n_arcs))
                .collect();
            (tau, steps)
        },
        |(tau, steps)| {
            if deadline.get().is_some_and(|d| Instant::now() > d) {
                return Ok(());
            }
            ran.set(ran.get() + 1);
            run_case(&cx, TAUS[*tau], steps).inspect_err(|_| deadline.set(None))
        },
    );
    println!("{} cases in the time box", ran.get());
    assert!(ran.get() >= 20, "only {} cases fit the time box", ran.get());
}

#[test]
fn every_read_is_none_or_the_from_scratch_twins() {
    run_model(0x1ED6_E201);
}

/// Regression: `backward_tns` after a bare `reannotate` refreshed the stale
/// LSE buffers but differentiated the *pre-annotation* report — the one
/// product that had no staleness flag. It now runs the forward pass first,
/// and the whole gradient state equals a from-scratch twin's.
#[test]
fn backward_after_a_bare_reannotate_differentiates_the_current_report() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let fx = fixture();
    let cx = Ctx { fx: &fx };
    let slowed: Vec<ArcDelta> = (0..fx.table.len() as u32)
        .step_by(3)
        .map(|arc| cx.delta(D(arc, 5)))
        .collect();
    let mut table = fx.table.clone();
    apply(&mut table, &slowed);
    let mut a = InstaEngine::new(fx.init.clone(), config(TAUS[0])).expect("valid snapshot");
    a.propagate();
    a.forward_lse();
    a.backward_tns();
    a.reannotate(&slowed).expect("valid batch");
    a.backward_tns();

    let mut t = cx.twin(TAUS[0], &table);
    t.forward_lse();
    t.backward_tns();
    let state = |e: &InstaEngine| {
        let (arrival, arc) = e.grad_snapshot();
        (bits(&arrival), bits(arc.as_flattened()))
    };
    assert!(state(&a) == state(&t), "gradients of a stale report");
    assert!(
        bits(&a.arc_gradients()).iter().any(|&g| g != 0),
        "the fixture must violate"
    );
}

/// An update past the cone's full-pass switch is the one whole-array pass
/// a session runs over *new* annotations without being asked to — no undo
/// log covers it. Cut by a worker panic one level above the re-annotated
/// arcs, it leaves the Top-K rows half-rewritten: the rollback must not
/// call them current, and every read must still agree with the twin.
#[test]
fn a_failed_past_the_switch_update_is_taken_back() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let fx = fixture();
    let cx = Ctx { fx: &fx };
    let mut a = InstaEngine::new(fx.init.clone(), config(TAUS[0])).expect("valid snapshot");
    a.enable_tracing();
    a.propagate_fused();
    let flood = cx.deltas(&Batch::Flood(5));
    assert!(
        flood.iter().any(|d| fx.arc_level[d.arc as usize] == 1),
        "fixture: the flood re-annotates level 1"
    );

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm(Kernel::Forward, 2, true);
    let mut s = a.begin_session();
    let r = s.update_timing(&flood);
    chaos::disarm();
    std::panic::set_hook(prev);
    assert!(matches!(r, Err(InstaError::Runtime(_))), "{r:?}");
    assert_eq!(s.status(), SessionStatus::RolledBack);
    drop(s);
    // The fused setup pass, then the flood's full pass: no cone.
    assert_eq!(passes(&a), (0, 2), "the flood is past the switch");

    let m = Model {
        table: fx.table.clone(),
        tau: TAUS[0],
        synced: false,
        report_fresh: true,
        capturing: true,
    };
    check_reads(&cx, &m, &a, "after the failed refresh").unwrap();
    a.backward_tns();
    assert!(bits(&a.arc_gradients()) == cx.twin_gradients(TAUS[0], &fx.table));
}

/// The `e2e` signoff sequence gains no pass: after `propagate_hold` only
/// the Top-K row is cleared, the report is still current, so a backward
/// pass behind it runs no forward pass.
#[test]
fn a_hold_pass_leaves_the_report_current() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let fx = fixture();
    let mut a = InstaEngine::new(fx.init.clone(), config(TAUS[0])).expect("valid snapshot");
    a.enable_tracing();
    a.propagate_fused();
    a.backward_tns();
    a.propagate_hold(&fx.hold);
    a.backward_tns();
    // Nor is a completed LSE pass run again.
    a.forward_lse();
    a.backward_tns();
    let count = |name| spans(&a, name);
    assert_eq!(
        (
            count("forward_fused"),
            count("forward"),
            count("forward_lse"),
            count("backward"),
            count("hold")
        ),
        (1, 0, 1, 3, 1)
    );
    assert!(
        a.arrival_at(0, 0).is_none(),
        "the arrays hold early corners"
    );
}
