//! The forward kernel — paper Algorithm 1.
//!
//! Per timing level, every pin is processed independently ("each pin on the
//! same timing level is mapped to a CUDA thread", Fig. 3). For each
//! rise/fall condition the kernel reads the parents' Top-K entries (with
//! the parent transition flipped on negative-unate arcs), adds the cloned
//! arc delay distribution (mean-additive, sigma in quadrature, Eqs. 1–3),
//! and keeps the K worst corners over unique startpoints — what pushing
//! every candidate through Algorithm 2 leaves, computed by
//! `merge_node_queue` as one selection that writes the queue once.
//!
//! **Rows, not nodes.** The Top-K lanes are indexed by *row*
//! (`Static::row_base`): a node owns one unless it is *virtual* — exactly
//! one fanin arc, exactly one fanout arc, neither startpoint nor endpoint.
//! A virtual node's queue is a pure function of its parent's, read by one
//! consumer, so it is not stored. The level body does not materialise it
//! either: its consumer gathers straight from the nearest stored ancestor
//! through the hops (`gather_fanin`), bit-identically, and falls back to
//! materialising only where a hop would reorder the queue or the chain is
//! longer than `MAX_HOPS`; the pass's trace span counts those
//! `fallbacks` (block-1 at K=32: 61 of the 59 238 reads through a virtual
//! parent in a setup pass, 27 of them reorders; 87 in hold, 53 reorders).
//! Every other reader — point reads, snapshot rows, `health_check`, hold's
//! and the report's endpoint scan, the dense test view — gets the queue
//! from `queue_of`, which computes it by the code that used to store it.
//! Every stored bit is what it would be with every node stored. A row is
//! `(sp, mean, sigma)` entries, as many per queue as the row's static
//! capacity (`Static::slot_base`: the startpoints that can reach the node,
//! capped at K); a corner is computed from the two values beside it
//! (`corner`) and is never stored.
//!
//! Because the engine renumbered nodes level-major and rows follow node
//! order, the level's state is a contiguous window of rows: the level body
//! reads an immutable `done` view (every earlier level — where every parent
//! and every ancestor of a virtual parent lives) and writes a mutable
//! window, carved into disjoint chunks for the level runner
//! ([`crate::parallel`]), which owns launch, panic containment and retry.
//!
//! **Who writes what.** There is no pass-wide reset and nothing is ever
//! cleared: a queue's extent is its row's capacity, which every pass fills
//! exactly — the merge emits each distinct startpoint until it has K,
//! whatever the values — so no slot is dead and no count is stored. The
//! level body (`level_chunk`) owns every queue of a stored node with fanin
//! that the pass computes and writes all of its entries, checking that the
//! merge filled the capacity. The driver (`forward`, shared by setup,
//! hold, the window pass and, level by level, the fused sweep) writes only
//! the launch entries: before each level's body runs — on every attempt,
//! the retry after a contained panic included — the level's startpoints
//! the pass computes get their one launch entry (`seed_level`), which is
//! every entry level 0 has (DESIGN.md "Kernel architecture").
//!
//! **What a pass computes.** Every pass — setup, hold, the fused sweep, a
//! window pass, a session's or a what-if lane's cone — computes the nodes
//! that reach an endpoint (`Static::live`) and nothing else: a node no
//! endpoint can see moves no slack, TNS or ∂TNS, so it is never seeded,
//! merged, queued or stored. Its row has capacity 0 and every reader
//! (`queue_of`) sees it empty, as unreached. Every parent of a live node
//! is live, so a live node never reads a node no pass computes. The span
//! of a pass counts the rows it merged (`live`) and skipped (`dead`);
//! block-1 at K=32 skips a quarter.
//!
//! **Two row stores.** Where the rows live is the driver's parameter
//! (`PassRows`). The *in-place* store is the engine's `State`: every level
//! is written where it is kept, the `done` view is the rows ahead of the
//! window (the identity plan), and nothing is copied. A *window pass*
//! (`window_pass`) answers a report and keeps no row set: each level is
//! written into a level buffer the size of the widest level's rows (laid
//! out as they are in place), its endpoints are evaluated from the buffer,
//! and a row some later level reads is copied into a slot of `2 * K`
//! entries it shares with rows whose readers are done (`SlotPlan`). Every
//! read of a stored row goes through `Lanes::row`, which serves both
//! layouts, so the level body, `gather_fanin` and `queue_of` are the
//! in-place pass's, and the report has `metrics::evaluate`'s bits. On
//! block-3 at K=8 the plan keeps 1 840 of 16 065 rows (11.5 %): 0.56 MiB
//! of slots where a row set is 4.0 MiB.

use crate::engine::{InstaEngine, Lanes, Queue, RowsMut, State, Static};
use crate::error::{InstaError, Kernel, RuntimeIncident};
use crate::metrics::InstaReport;
use crate::parallel::{carve, MergeArena, Pass, PassOptions, QueueBuf, VirtualQueue};
use crate::stat;
use crate::topk::restore_topk_desc;
use crate::trace::LevelProfile;

impl InstaEngine {
    /// Runs the evaluation forward pass (Algorithm 1) over every level and
    /// refreshes the endpoint report.
    ///
    /// # Panics
    ///
    /// Panics if a worker panic could not be contained (see
    /// [`try_propagate`](InstaEngine::try_propagate) for the fallible
    /// variant).
    pub fn propagate(&mut self) -> &InstaReport {
        if let Err(e) = self.try_propagate(&PassOptions::default()) {
            panic!("propagate failed: {e}");
        }
        self.state.report.as_ref().expect("just set")
    }

    /// Fallible [`propagate`](InstaEngine::propagate): a panic in a level
    /// body — inline or on a worker thread — is contained, the level is
    /// re-executed serially (bit-identical — level windows are pure
    /// functions of earlier levels), and the incident is recorded in
    /// [`last_incident`](InstaEngine::last_incident). Only when the serial
    /// re-execution *also* fails does this return
    /// [`InstaError::Runtime`]; the engine state is then unusable until
    /// the next successful pass. A fired `opts` returns
    /// [`InstaError::Cancelled`] at the next level boundary.
    pub fn try_propagate(&mut self, opts: &PassOptions) -> Result<&InstaReport, InstaError> {
        self.last_incident = None;
        self.validity.begin_full_pass();
        self.trace.begin("forward");
        let mut tally = Tally::default();
        let res = forward::<false>(
            &self.st,
            &mut self.state,
            self.cfg.n_threads,
            opts,
            self.trace.profile_mut(Kernel::Forward),
            &source_launch(&self.st),
            &mut tally,
        );
        self.trace.end_with(&pass_fields(&res, &tally));
        self.settle(res)?;
        Ok(self.setup_pass_done())
    }

    /// Books a completed setup pass: its report is evaluated, the ledger
    /// stamps arrays and report, and a kept snapshot row store is gathered
    /// afresh (`crate::snapshot`, "One rule").
    pub(crate) fn setup_pass_done(&mut self) -> &InstaReport {
        let report = crate::metrics::evaluate(&self.st, &self.state, self.cfg.cppr);
        self.state.report = Some(report);
        self.validity.setup_done();
        self.rows.gather(&self.st, &self.state);
        self.state.report.as_ref().expect("just set")
    }

    /// Books a kernel pass's outcome: a recovered worker panic becomes
    /// [`last_incident`](InstaEngine::last_incident), a fatal one is
    /// recorded before the error is passed through.
    pub(crate) fn settle(
        &mut self,
        res: Result<Option<RuntimeIncident>, InstaError>,
    ) -> Result<(), InstaError> {
        match res {
            Ok(None) => {}
            Ok(Some(inc)) => {
                self.record_incident(&inc);
                self.last_incident = Some(inc);
            }
            Err(e) => {
                if let InstaError::Runtime(inc) = &e {
                    self.record_incident(inc);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Runs the fused evaluation + differentiable forward sweep: one pass
    /// over the levels computes both the Top-K queues and the smooth
    /// (LSE) arrivals, leaving the engine in the same state as
    /// [`propagate`](InstaEngine::propagate) followed by
    /// [`forward_lse`](InstaEngine::forward_lse) — bit-identically —
    /// while touching each level's working set once.
    ///
    /// # Panics
    ///
    /// Panics if a worker panic could not be contained (see
    /// [`try_propagate_fused`](InstaEngine::try_propagate_fused)).
    pub fn propagate_fused(&mut self) -> &InstaReport {
        if let Err(e) = self.try_propagate_fused(&PassOptions::default()) {
            panic!("propagate_fused failed: {e}");
        }
        self.state.report.as_ref().expect("just set")
    }

    /// Fallible [`propagate_fused`](InstaEngine::propagate_fused) with the
    /// same worker-panic containment contract as
    /// [`try_propagate`](InstaEngine::try_propagate). Per-level kernel
    /// profiles keep attributing evaluation time to the forward profile
    /// and LSE time to the LSE profile — fusion interleaves the two level
    /// bodies, it does not blur them.
    pub fn try_propagate_fused(&mut self, opts: &PassOptions) -> Result<&InstaReport, InstaError> {
        self.last_incident = None;
        // Both output families are rewritten whether the pass succeeds or
        // not; only a completed pass stamps them.
        self.validity.begin_full_pass();
        self.validity.begin_lse();
        self.trace.begin("forward_fused");
        let (prof_fwd, prof_lse) = self.trace.profiles_fused();
        let mut tally = Tally::default();
        let res = forward_fused(
            &self.st,
            &mut self.state,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            opts,
            prof_fwd,
            prof_lse,
            &mut tally,
        );
        self.trace.end_with(&pass_fields(&res, &tally));
        self.settle(res)?;
        self.validity.lse_done();
        Ok(self.setup_pass_done())
    }
}

/// What a pass's level bodies did, summed over its merge arenas: the
/// payload of its trace span beside `ok` ([`pass_fields`]). A failed
/// pass's levels so far count, a retried level twice.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    /// Virtual parents materialised instead of gathered through
    /// ([`gather_fanin`]; a design on which the hops stop paying shows
    /// here).
    pub fallbacks: u64,
    /// Rows merged.
    pub live: u64,
    /// Rows skipped because no endpoint sees them ([`Static::live`]).
    pub dead: u64,
}

impl Tally {
    fn add(&mut self, arenas: &[MergeArena]) {
        for a in arenas {
            self.fallbacks += a.fallbacks;
            self.live += a.merged;
            self.dead += a.skipped;
        }
    }
}

/// The payload of a full evaluation pass's span: whether it completed,
/// and its [`Tally`].
pub(crate) fn pass_fields<T>(
    res: &Result<T, InstaError>,
    tally: &Tally,
) -> [(&'static str, f64); 4] {
    [
        ("ok", if res.is_ok() { 1.0 } else { 0.0 }),
        ("fallbacks", tally.fallbacks as f64),
        ("live", tally.live as f64),
        ("dead", tally.dead as f64),
    ]
}

/// The snapshot's launch arrival of source `i`, `(mean, sigma)` per
/// transition: the launches of a setup pass. Hold passes its own early
/// ones ([`crate::hold`]).
pub(crate) fn source_launch(st: &Static) -> impl Fn(usize) -> ([f64; 2], [f64; 2]) + '_ {
    |i| (st.sources[i].mean, st.sources[i].sigma)
}

/// Makes both queues of every startpoint node in `nodes` that an endpoint
/// sees its one launch entry `(sp, launches(source))`: the pre-pass state
/// of the only queues the level body does not own. A node with several
/// sources takes the last one's ([`Static::source_of`]).
pub(crate) fn seed_level(
    st: &Static,
    rows: &mut RowsMut<'_>,
    nodes: std::ops::Range<usize>,
    launches: &impl Fn(usize) -> ([f64; 2], [f64; 2]),
) {
    for v in nodes {
        if !st.live[v] {
            continue;
        }
        let i = st.source_of[v] as usize;
        let Some(s) = st.sources.get(i) else { continue };
        let (mean, sigma) = launches(i);
        let row = st.row_of(v).expect("a startpoint is never virtual");
        for rf in 0..2 {
            let at = st.queue_slots(row, rf).start - rows.origin;
            rows.mean[at] = mean[rf];
            rows.sigma[at] = sigma[rf];
            rows.sp[at] = s.sp;
        }
    }
}

/// Where a full pass keeps its rows (module docs, "Two row stores"): the
/// engine's [`State`] in place, or a window pass's level buffer and slots
/// ([`Window`]). The driver ([`forward`]) and the level body are the same
/// for both.
pub(crate) trait PassRows {
    /// Opens a pass: `early` is whether it is hold's min pass.
    fn begin(&mut self, early: bool);
    /// Level `l`'s rows as a write view, beside a read view holding every
    /// row a level-`l` body reads.
    fn level<'a>(&'a mut self, st: &'a Static, l: usize) -> (Lanes<'a>, RowsMut<'a>);
    /// Level `l` is final.
    fn retire(&mut self, st: &Static, l: usize);
}

/// The in-place store: the identity plan, every level written where it is
/// kept, no buffer and no copy.
impl PassRows for State {
    fn begin(&mut self, early: bool) {
        self.early = early;
    }

    fn level<'a>(&'a mut self, st: &'a Static, l: usize) -> (Lanes<'a>, RowsMut<'a>) {
        self.split_at_row(st, st.rows(st.level_range(l)).start)
    }

    fn retire(&mut self, _: &Static, _: usize) {}
}

/// The full evaluation pass over the nodes an endpoint sees: `MIN = false`
/// is setup (the K worst late corners), `MIN = true` is hold's min pass
/// over negated early corners ([`crate::hold`]). `launches(source)` is a
/// startpoint's launch arrival. Adds the pass's level bodies to `tally`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward<const MIN: bool>(
    st: &Static,
    rows: &mut impl PassRows,
    n_threads: usize,
    opts: &PassOptions,
    prof: Option<&mut LevelProfile>,
    launches: &impl Fn(usize) -> ([f64; 2], [f64; 2]),
    tally: &mut Tally,
) -> Result<Option<RuntimeIncident>, InstaError> {
    begin_pass(st, rows, MIN, launches);
    let mut pass = Pass::begin(Kernel::Forward, n_threads, opts, prof);
    // One merge arena per worker, reused across every level of the pass.
    let mut arenas = MergeArena::bank(pass.threads());
    let swept = (1..st.num_levels())
        .try_for_each(|l| forward_level::<MIN>(st, rows, &mut pass, &mut arenas, l, launches));
    tally.add(&arenas);
    swept.map(|()| pass.finish())
}

/// Level 0 of a full pass, which the level body never runs (no node of it
/// has a fanin arc): its launches seeded, which is every entry it has.
fn begin_pass(
    st: &Static,
    rows: &mut impl PassRows,
    early: bool,
    launches: &impl Fn(usize) -> ([f64; 2], [f64; 2]),
) {
    rows.begin(early);
    if st.num_levels() == 0 {
        return;
    }
    let (_, mut level0) = rows.level(st, 0);
    seed_level(st, &mut level0, st.level_range(0), launches);
    rows.retire(st, 0);
}

/// One level of the evaluation forward pass, run through the level runner
/// ([`Pass::level`]). Shared verbatim by [`forward`] (setup, hold and the
/// window pass) and the fused sweep ([`forward_fused`]) — fusion
/// interleaves *whole level bodies*, so the state either kernel reads is
/// exactly what the unfused pass would have produced, and bit-identity of
/// the fused sweep is by construction.
pub(crate) fn forward_level<const MIN: bool>(
    st: &Static,
    rows: &mut impl PassRows,
    pass: &mut Pass<'_>,
    arenas: &mut [MergeArena],
    l: usize,
    launches: &impl Fn(usize) -> ([f64; 2], [f64; 2]),
) -> Result<(), InstaError> {
    let nodes = st.level_range(l);
    pass.level(
        l,
        nodes.clone(),
        &mut (&mut *rows, arenas),
        |(rows, arenas), launch| {
            // The launches landing in the window, on every attempt: the
            // body rewrites every other queue of it whole.
            let (done, mut window) = rows.level(st, l);
            seed_level(st, &mut window, nodes.clone(), launches);
            // The level's rows are carved along the node cuts, one arena
            // per cut.
            let RowsMut {
                mean, sigma, sp, ..
            } = window;
            let mut rest = (mean, sigma, sp, &mut arenas[..]);
            let windows = launch.cuts().map(|cut| {
                let slots = st.slots(st.rows(cut)).len();
                (
                    carve(&mut rest.0, slots),
                    carve(&mut rest.1, slots),
                    carve(&mut rest.2, slots),
                    carve(&mut rest.3, 1),
                )
            });
            launch.run(windows, |cut, (mean, sigma, sp, arena)| {
                level_chunk::<MIN>(st, done, cut, mean, sigma, sp, &mut arena[0]);
            })
        },
        |_| {},
    )?;
    #[cfg(debug_assertions)]
    {
        let (_, written) = rows.level(st, l);
        crate::health::debug_assert_topk_level_clean(st, &written, nodes, l);
    }
    rows.retire(st, l);
    Ok(())
}

/// No slot: the row is read by no level after its own.
const NO_SLOT: u32 = u32::MAX;

/// Where a window pass keeps each stored row from the level that writes it
/// to the last level that reads it (module docs, "Two row stores").
///
/// A row's *last reader* is the highest level of a live stored node that
/// reads it: a child that gathers it, or the consumer at the end of a chain
/// of virtual nodes below it, which gathers or materialises from it
/// ([`gather_fanin`], [`materialise`]). No pass computes a node no endpoint
/// sees ([`Static::live`]), so a row only such nodes read gets no slot. An
/// endpoint row is read at its own level, from the level buffer. Slots are
/// handed out greedily, level by level: the rows whose last reader is this
/// level give theirs back (their reads are done), then the level's rows
/// with a later reader take free ones. For intervals the greedy is
/// optimal: the slot count is the peak number of rows live across a level
/// boundary. O(rows + arcs) to build, 4 bytes a row to keep.
#[derive(Debug)]
pub(crate) struct SlotPlan {
    /// Slot of each stored row; [`NO_SLOT`] when no later level reads it.
    slot: Vec<u32>,
    /// Endpoint indices in node order: the order their levels finish in.
    endpoints: Vec<u32>,
    /// Slots handed out, each `2 * K` entries: any row fits any slot.
    pub slots: usize,
    /// Queue entries of the widest level: the level buffer.
    widest: usize,
}

impl SlotPlan {
    pub(crate) fn new(st: &Static) -> Self {
        let n_levels = st.num_levels();
        let mut last = vec![0u32; st.n_rows()];
        let mut widest = 0;
        for l in 0..n_levels {
            let nodes = st.level_range(l);
            widest = widest.max(st.slots(st.rows(nodes.clone())).len());
            for v in nodes.filter(|&v| st.live[v]) {
                let Some(row) = st.row_of(v) else { continue };
                last[row] = l as u32;
                for ai in st.fanin_range(v) {
                    // Up a virtual chain to the stored ancestor it reads.
                    let mut p = st.arc_parent[ai] as usize;
                    let read = loop {
                        match st.row_of(p) {
                            Some(read) => break read,
                            None => p = st.arc_parent[st.fanin_start[p] as usize] as usize,
                        }
                    };
                    last[read] = last[read].max(l as u32);
                }
            }
        }
        let (done_at, by_last) = crate::engine::csr(n_levels, last.iter().map(|&l| l as usize));
        let mut slot = vec![NO_SLOT; last.len()];
        let (mut free, mut slots) = (Vec::new(), 0);
        for l in 0..n_levels {
            let done = &by_last[done_at[l] as usize..done_at[l + 1] as usize];
            free.extend(
                done.iter()
                    .map(|&r| slot[r as usize])
                    .filter(|&s| s != NO_SLOT),
            );
            for row in st.rows(st.level_range(l)) {
                if last[row] as usize > l {
                    slot[row] = free.pop().unwrap_or_else(|| {
                        slots += 1;
                        slots as u32 - 1
                    });
                }
            }
        }
        let mut endpoints: Vec<u32> = (0..st.endpoints.len() as u32).collect();
        endpoints.sort_by_key(|&i| st.endpoints[i as usize].node);
        SlotPlan {
            slot,
            endpoints,
            slots,
            widest,
        }
    }
}

/// What a window pass keeps between calls: its [`SlotPlan`], the slot rows
/// (a `2 * K` stride, so a slot holds whichever row the plan hands it) and
/// the level buffer (compact, as the level's rows are in place).
#[derive(Debug)]
pub(crate) struct Window {
    pub plan: SlotPlan,
    slots: State,
    level: State,
}

impl Window {
    pub(crate) fn new(st: &Static, k: usize) -> Self {
        let plan = SlotPlan::new(st);
        Window {
            slots: State::with_slots(plan.slots * 2 * k, k),
            level: State::with_slots(plan.widest, k),
            plan,
        }
    }
}

/// One window pass's rows: each level is written into the level buffer,
/// read from through the plan, and retired into the report and the slots.
struct Windowed<'a> {
    window: &'a mut Window,
    report: InstaReport,
    cppr: bool,
    /// The next endpoint of the plan's order to evaluate.
    next_ep: usize,
}

impl PassRows for Windowed<'_> {
    fn begin(&mut self, early: bool) {
        debug_assert!(!early, "a window pass evaluates setup endpoints");
    }

    fn level<'a>(&'a mut self, st: &'a Static, l: usize) -> (Lanes<'a>, RowsMut<'a>) {
        let Window { plan, slots, level } = &mut *self.window;
        let done = Lanes {
            slot: Some(&plan.slot),
            ..slots.lanes(st)
        };
        let (_, buffer) = level.split_at_row(st, 0);
        let origin = st.slots(st.rows(st.level_range(l))).start;
        (done, RowsMut { origin, ..buffer })
    }

    /// Evaluates the level's endpoints from the buffer, as
    /// [`crate::metrics::refresh`] does from the rows, then copies the
    /// entries of every row a later level reads into its slot.
    fn retire(&mut self, st: &Static, l: usize) {
        let (nodes, rows) = (st.level_range(l), st.rows(st.level_range(l)));
        let Window { plan, slots, level } = &mut *self.window;
        let origin = st.slots(rows.clone()).start;
        let written = Lanes {
            origin,
            ..level.lanes(st)
        };
        while let Some(&i) = plan.endpoints.get(self.next_ep) {
            let v = st.endpoints[i as usize].node as usize;
            if v >= nodes.end {
                break;
            }
            let row = st.row_of(v).expect("an endpoint is never virtual");
            let queues = [written.row(row, 0), written.row(row, 1)];
            self.report.set_endpoint(st, i as usize, queues, self.cppr);
            self.next_ep += 1;
        }
        let k = level.k;
        for row in rows {
            let s = plan.slot[row];
            if s == NO_SLOT {
                continue;
            }
            for rf in 0..2 {
                let src = st.queue_slots(row, rf);
                let src = src.start - origin..src.end - origin;
                let to = (s as usize * 2 + rf) * k;
                let dst = to..to + src.len();
                slots.topk_mean[dst.clone()].copy_from_slice(&level.topk_mean[src.clone()]);
                slots.topk_sigma[dst.clone()].copy_from_slice(&level.topk_sigma[src.clone()]);
                slots.topk_sp[dst].copy_from_slice(&level.topk_sp[src]);
            }
        }
    }
}

/// A report-only setup pass (module docs, "Two row stores"): [`forward`]
/// into `window` and the report of its endpoints, on
/// `metrics::evaluate`'s bits. The engine's own rows are not read or
/// written; the report is whole only when the pass is `Ok`.
pub(crate) fn window_pass(
    st: &Static,
    window: &mut Window,
    n_threads: usize,
    opts: &PassOptions,
    cppr: bool,
    tally: &mut Tally,
) -> (InstaReport, Result<Option<RuntimeIncident>, InstaError>) {
    let mut rows = Windowed {
        window,
        report: InstaReport::blank(st.endpoints.len()),
        cppr,
        next_ep: 0,
    };
    let launches = source_launch(st);
    let passed = forward::<false>(st, &mut rows, n_threads, opts, None, &launches, tally);
    // The aggregates in endpoint order, as every report sums them.
    rows.report.reduce(None);
    (rows.report, passed)
}

/// The fused forward + LSE sweep: one loop over the timing levels runs
/// the evaluation level body ([`forward_level`]) and the differentiable
/// level body ([`crate::lse::lse_level`]) back to back for each level.
///
/// **Bit-identity.** Level `l` of the evaluation kernel reads only
/// earlier levels' Top-K queues; level `l` of the LSE kernel reads only
/// earlier levels' smooth arrivals. The two kernels share no output
/// arrays, so interleaving whole level bodies leaves every read seeing
/// exactly the state the unfused `forward` + `forward_lse` sequence would
/// have produced. What fusion buys is locality: the level's fanin CSR
/// rows, arc annotations, and parent indices are hot in cache for the LSE
/// body instead of being re-fetched a full pass later.
///
/// Each kernel is a [`Pass`] of its own, so a level is polled once per
/// kernel and cancels, incidents and profile rows carry the same `Kernel`
/// attribution as the unfused passes. `tally` as in [`forward`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_fused(
    st: &Static,
    state: &mut State,
    tau: f64,
    n_threads: usize,
    opts: &PassOptions,
    prof_fwd: Option<&mut LevelProfile>,
    prof_lse: Option<&mut LevelProfile>,
    tally: &mut Tally,
) -> Result<Option<RuntimeIncident>, InstaError> {
    // Pre-sweep state of both kernels, exactly as the unfused passes.
    let launches = source_launch(st);
    begin_pass(st, state, false, &launches);
    crate::lse::lse_reset_seed(st, state);

    let mut fwd = Pass::begin(Kernel::Forward, n_threads, opts, prof_fwd);
    let mut lse = Pass::begin(Kernel::ForwardLse, n_threads, opts, prof_lse);
    let mut arenas = MergeArena::bank(fwd.threads());
    let swept = (1..st.num_levels()).try_for_each(|l| {
        forward_level::<false>(st, state, &mut fwd, &mut arenas, l, &launches)?;
        crate::lse::lse_level(st, state, &mut lse, tau, l)
    });
    tally.add(&arenas);
    swept?;
    // The sweep's first incident: the lower level, the evaluation kernel
    // (which runs first within a level) on a tie.
    Ok([fwd.finish(), lse.finish()]
        .into_iter()
        .flatten()
        .min_by_key(|incident| incident.level))
}

/// The ordering corner of a candidate: the late corner for the setup
/// kernel, the *negated early* corner in min (hold) mode — the ordering
/// trick that lets the max-queue of Algorithm 2 keep the smallest early
/// arrivals (see [`crate::hold`]).
#[inline(always)]
pub(crate) fn corner<const MIN: bool>(mean: f64, sigma: f64, n_sigma: f64) -> f64 {
    if MIN {
        stat::corner_min(mean, sigma, n_sigma)
    } else {
        stat::corner_late(mean, sigma, n_sigma)
    }
}

/// Gathers one fanin arc: the parent's entries plus the arc distribution
/// (mean-additive, sigma in quadrature, Eqs. 1–3) into the first `live`
/// slots of four destination k-slices, and returns `live`.
///
/// A queue view is exactly its live entries, so there is nothing to scan
/// for: the transform is a straight-line loop with no early exit (one
/// `sqrt` per candidate, vectorization-friendly).
#[inline(always)]
fn gather_arc<const MIN: bool>(
    n_sigma: f64,
    parent: Queue<'_>,
    (a_mean, a_sigma): (f64, f64),
    arrival: &mut [f64],
    mean: &mut [f64],
    sigma: &mut [f64],
    sp: &mut [u32],
) -> usize {
    let live = parent.sp.len();
    let out = arrival[..live]
        .iter_mut()
        .zip(&mut mean[..live])
        .zip(&mut sigma[..live]);
    for ((&pm, &ps), ((a, m), s)) in parent.mean.iter().zip(parent.sigma).zip(out) {
        (*m, *s) = stat::arc_sum(pm, ps, a_mean, a_sigma);
        *a = corner::<MIN>(*m, *s, n_sigma);
    }
    sp[..live].copy_from_slice(parent.sp);
    live
}

/// The parent fanin arc `ai` reads into a queue on transition `rf`, and
/// the transition it reads it on (flipped by a negative-unate arc).
#[inline(always)]
fn parent_of(st: &Static, ai: usize, rf: usize) -> (usize, usize) {
    let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
    (st.arc_parent[ai] as usize, prf)
}

/// The most hops [`gather_fanin`] walks through, with one arm per count. A
/// virtual parent further from its stored ancestor is materialised
/// (block-1: 28 of 41 388 chains).
const MAX_HOPS: usize = 3;

/// Gathers fanin arc `ai` of a transition-`rf` queue — [`gather_arc`] of
/// its parent's queue — into the first `live` slots of the four `dest`
/// slices, and returns `live`.
///
/// A virtual parent is not materialised: the loop starts at its nearest
/// stored ancestor and, per entry, runs `arc_sum` and the corner of every
/// hop down to the parent, then `arc_sum` and the corner of `ai` — the
/// float expressions [`queue_of`] would evaluate, in the same order. What
/// `queue_of` adds is each hop's stable restore, which moves nothing unless
/// some entry's hop corner beats the one before it; the loop checks that
/// per hop (`prev < corner`), so the parent's order is its ancestor's and
/// every output bit is what gathering from the materialised queue gives.
/// When a hop would reorder, or the parent is more than [`MAX_HOPS`] hops
/// from its ancestor, the parent is materialised after all into `virt` and
/// gathered from, and `fallbacks` counts it.
#[inline(always)]
fn gather_fanin<const MIN: bool>(
    st: &Static,
    done: Lanes<'_>,
    (ai, rf): (usize, usize),
    virt: &mut VirtualQueue,
    fallbacks: &mut u64,
    (key, mean, sigma, sp): (&mut [f64], &mut [f64], &mut [f64], &mut [u32]),
) -> usize {
    let n_sigma = st.n_sigma;
    let arc = (st.arc_mean[ai][rf], st.arc_sigma[ai][rf]);
    let parent = parent_of(st, ai, rf);
    // The hops up to the stored ancestor, parent first.
    let mut chain = [[0.0; 2]; MAX_HOPS];
    let (mut depth, (mut p, mut prf)) = (0, parent);
    let row = loop {
        match st.row_of(p) {
            Some(row) => break Some(row),
            None if depth == MAX_HOPS => break None,
            None => {
                let hi = st.fanin_start[p] as usize;
                chain[depth] = [st.arc_mean[hi][prf], st.arc_sigma[hi][prf]];
                depth += 1;
                (p, prf) = parent_of(st, hi, prf);
            }
        }
    };
    if let Some(row) = row {
        let from = done.row(row, prf);
        let dest = (&mut *key, &mut *mean, &mut *sigma, &mut *sp);
        let ordered = match depth {
            0 => return gather_arc::<MIN>(n_sigma, from, arc, key, mean, sigma, sp),
            1 => gather_through::<MIN, 1>(n_sigma, from, &chain, arc, dest),
            2 => gather_through::<MIN, 2>(n_sigma, from, &chain, arc, dest),
            3 => gather_through::<MIN, 3>(n_sigma, from, &chain, arc, dest),
            _ => unreachable!("the walk stops at MAX_HOPS"),
        };
        if ordered {
            return from.sp.len();
        }
    }
    *fallbacks += 1;
    let queue = materialise::<MIN>(st, done, parent.0, parent.1, virt);
    gather_arc::<MIN>(n_sigma, queue, arc, key, mean, sigma, sp)
}

/// [`gather_fanin`]'s walk: the stored ancestor's entries `from` through
/// the first `N` hops of `chain` (parent first), then the arc, into `dest`.
/// Returns whether no hop reordered; `dest` is garbage when one did. No
/// early exit and the hop count fixed: the loop vectorizes like
/// [`gather_arc`]'s.
#[inline(always)]
fn gather_through<const MIN: bool, const N: usize>(
    n_sigma: f64,
    from: Queue<'_>,
    chain: &[[f64; 2]; MAX_HOPS],
    (a_mean, a_sigma): (f64, f64),
    (key, mean, sigma, sp): (&mut [f64], &mut [f64], &mut [f64], &mut [u32]),
) -> bool {
    let mut prev = [f64::INFINITY; N];
    let mut ordered = true;
    let out = key.iter_mut().zip(mean.iter_mut()).zip(sigma.iter_mut());
    for ((&pm, &ps), ((a, m_out), s_out)) in from.mean.iter().zip(from.sigma).zip(out) {
        let (mut m, mut s) = (pm, ps);
        for h in (0..N).rev() {
            (m, s) = stat::arc_sum(m, s, chain[h][0], chain[h][1]);
            let c = corner::<MIN>(m, s, n_sigma);
            // The restore's own test for moving an entry, NaN included.
            let moves = prev[h] < c;
            ordered &= !moves;
            prev[h] = c;
        }
        (*m_out, *s_out) = stat::arc_sum(m, s, a_mean, a_sigma);
        *a = corner::<MIN>(*m_out, *s_out, n_sigma);
    }
    sp[..from.sp.len()].copy_from_slice(from.sp);
    ordered
}

/// The queue of `(v, rf)` as every reader sees it: a stored node's row of
/// `lanes`, or — for a virtual node, which has no row — what the level body
/// would have stored, computed here by the code that used to store it.
///
/// A virtual node has one fanin arc, so its queue is the single-fanin
/// transform of its parent's: [`gather_arc`], then one stable restore of
/// corner order ([`restore_topk_desc`]). That is applied from the nearest
/// stored ancestor down the chain of virtual nodes to `v`, into `scratch`,
/// and the reader reads the result exactly as a stored row — the same
/// float expressions in the same order, the intermediate stable order kept
/// as the tie-break, so no stored bit depends on which nodes are virtual.
/// The level body does not come here: it gathers through a virtual parent
/// ([`gather_fanin`]) and materialises only when a hop reorders. `lanes`
/// must hold every ancestor of `v` (the rows ahead of a level's window do:
/// ancestors sit in earlier levels). `MIN` is the order the rows are in.
/// A node no endpoint sees reads empty, as its row holds nothing: a
/// virtual one is not materialised from its parent.
#[inline(always)]
pub(crate) fn queue_of<'a, const MIN: bool>(
    st: &Static,
    lanes: Lanes<'a>,
    v: usize,
    rf: usize,
    scratch: &'a mut VirtualQueue,
) -> Queue<'a> {
    match st.row_of(v) {
        Some(row) => lanes.row(row, rf),
        None if !st.live[v] => Queue {
            sp: &[],
            mean: &[],
            sigma: &[],
        },
        None => materialise::<MIN>(st, lanes, v, rf, scratch),
    }
}

/// [`queue_of`] for a virtual node. `scratch` must already
/// [`fit`](VirtualQueue::fit) the lanes' K: sizing is the caller's, once,
/// not the per-queue path's.
#[inline]
fn materialise<'a, const MIN: bool>(
    st: &Static,
    lanes: Lanes<'a>,
    v: usize,
    rf: usize,
    scratch: &'a mut VirtualQueue,
) -> Queue<'a> {
    let [to, via] = &mut scratch.0;
    let live = materialise_into::<MIN>(st, lanes, v, rf, to, via);
    to.queue(live)
}

/// Writes the queue of virtual node `(v, rf)` into `to` and returns its
/// entry count. A parent that is virtual too (one virtual node in twenty)
/// is materialised first, into `via`, with the two buffers swapped: down a
/// chain each step gathers the queue above it out of the other buffer.
fn materialise_into<const MIN: bool>(
    st: &Static,
    lanes: Lanes<'_>,
    v: usize,
    rf: usize,
    to: &mut QueueBuf,
    via: &mut QueueBuf,
) -> usize {
    let k = lanes.k;
    let ai = st.fanin_start[v] as usize;
    let (p, prf) = parent_of(st, ai, rf);
    let parent = match st.row_of(p) {
        Some(row) => lanes.row(row, prf),
        None => {
            let live = materialise_into::<MIN>(st, lanes, p, prf, via, to);
            via.queue(live)
        }
    };
    let (da, dm) = (&mut to.arrival[..k], &mut to.mean[..k]);
    let (ds, dsp) = (&mut to.sigma[..k], &mut to.sp[..k]);
    let annotation = (st.arc_mean[ai][rf], st.arc_sigma[ai][rf]);
    let live = gather_arc::<MIN>(st.n_sigma, parent, annotation, da, dm, ds, dsp);
    restore_topk_desc(da, dm, ds, dsp, live);
    live
}

/// Computes one `(node, transition)` Top-K queue from its parents — the
/// shared inner body of Algorithm 1 — writes it **once**, and returns its
/// entry count.
///
/// **What a queue is.** Let the push sequence *P* be the launch seed
/// sitting in slot 0 (only when `seeded`), then for `j = 0..K`, for each
/// fanin arc in CSR order, candidate `(arc, j)` if `j` is below that
/// parent's entry count. Algorithm 2 fed *P* leaves, per startpoint, the
/// candidate with the largest corner (the earliest in *P* among equals:
/// replace is strict `>`), those winners ordered by (corner descending,
/// position in *P* ascending), truncated to K (DESIGN.md "Kernel
/// architecture" has the induction). That is a plain selection:
///
/// 1. **Gather** ([`gather_fanin`]) every arc's candidates into the arena,
///    arc-major, one run per arc; the seed is a run of one ahead of them.
///    A virtual parent is gathered straight from its stored ancestor,
///    bit-identically to gathering from its materialised queue.
/// 2. **Order** each run by corner descending with a *stable* insertion
///    pass over `(corner, original slot j)` pairs. A parent queue is
///    already sorted and RSS sigma composition perturbs it only slightly,
///    so this is ~O(live).
/// 3. **Select**: repeatedly take the best head over the runs under
///    (corner desc, slot `j` asc, run order asc) — which walks all
///    candidates in (corner desc, position in *P* asc) order — skip it if
///    its startpoint was already emitted (the arena's stamp table, O(1)),
///    otherwise write it to the next output slot. Stop at K outputs or
///    when the runs are dry. Two runs (most merges) compare their two
///    heads directly, without a branch, instead of scanning for the best.
///
/// The queue slices are exactly the row's capacity ([`Static::slot_base`])
/// long, and the returned count must fill them: [`level_chunk`] checks it,
/// and a queue that would hold more panics on its slice's bound.
///
/// A single-fanin node without a seed (paper §III-D: no merge needed) is
/// the gather straight into the queue, then one stable restore of corner
/// order. A seeded one is a merge of two runs, the seed's and the arc's.
///
/// [`level_chunk`] is the one caller — the body the full pass, hold, the
/// session's cone sweep and (through that sweep) every batched what-if
/// lane run, which is why a lane is bit-identical to its serial twin *by
/// construction*: there is no second kernel. `done` holds the parents'
/// rows; `MIN` selects the hold kernel's negated-early-corner ordering.
#[inline]
#[allow(clippy::too_many_arguments)]
fn merge_node_queue<const MIN: bool>(
    st: &Static,
    fanin: std::ops::Range<usize>,
    rf: usize,
    seeded: bool,
    done: Lanes<'_>,
    arena: &mut MergeArena,
    qm: &mut [f64],
    qs: &mut [f64],
    qsp: &mut [u32],
) -> usize {
    let k = done.k;
    if fanin.len() == 1 && !seeded {
        // The corners are sort keys only: they live in the arena.
        let key = &mut arena.arrival[..k];
        let dest = (&mut *key, &mut *qm, &mut *qs, &mut *qsp);
        let (virt, fallbacks) = (&mut arena.virt, &mut arena.fallbacks);
        let live = gather_fanin::<MIN>(st, done, (fanin.start, rf), virt, fallbacks, dest);
        restore_topk_desc(key, qm, qs, qsp, live);
        return live;
    }
    // Gather + order: run `r` occupies arena slots `r * k ..`; the seed,
    // first in P, is run 0 when there is one.
    let first = usize::from(seeded);
    let n_runs = first + fanin.len();
    arena.reserve(n_runs, k, st.sources.len());
    if seeded {
        arena.arrival[0] = corner::<MIN>(qm[0], qs[0], st.n_sigma);
        arena.mean[0] = qm[0];
        arena.sigma[0] = qs[0];
        arena.sp[0] = qsp[0];
        arena.slot[0] = 0;
        arena.live[0] = 1;
    }
    for (r, ai) in (first..).zip(fanin) {
        let o = r * k..(r + 1) * k;
        let dest = (
            &mut arena.arrival[o.clone()],
            &mut arena.mean[o.clone()],
            &mut arena.sigma[o.clone()],
            &mut arena.sp[o.clone()],
        );
        let (virt, fallbacks) = (&mut arena.virt, &mut arena.fallbacks);
        let live = gather_fanin::<MIN>(st, done, (ai, rf), virt, fallbacks, dest);
        // Mean / sigma / sp stay in slot order; only the keys move.
        let (key, slot) = (&mut arena.arrival[o.clone()][..live], &mut arena.slot[o][..live]);
        for j in 0..live {
            slot[j] = j as u32;
            let mut i = j;
            while i > 0 && key[i - 1] < key[i] {
                key.swap(i - 1, i);
                slot.swap(i - 1, i);
                i -= 1;
            }
        }
        arena.live[r] = live as u32;
    }
    // Select.
    arena.open_queue();
    let mut out = 0;
    let mut emit = |arena: &mut MergeArena, at: usize, out: &mut usize| {
        let sp = arena.sp[at];
        if arena.first_emit(sp) {
            qm[*out] = arena.mean[at];
            qs[*out] = arena.sigma[at];
            qsp[*out] = sp;
            *out += 1;
        }
    };
    if n_runs == 2 {
        // The scan below with its two candidates written out: run 1's head
        // is taken when run 0 is dry or it beats run 0's head outright.
        // Without a data-dependent branch: a dry run's head is read at a
        // clamped slot and masked out, and the heads advance by the verdict.
        let (l0, l1) = (arena.live[0] as usize, arena.live[1] as usize);
        let (mut h0, mut h1) = (0, 0);
        while out < k && (h0 < l0 || h1 < l1) {
            let (i0, i1) = (h0.min(k - 1), k + h1.min(k - 1));
            let (c0, j0) = (arena.arrival[i0], arena.slot[i0]);
            let (c1, j1) = (arena.arrival[i1], arena.slot[i1]);
            let beats = (c1 > c0) | ((c1 == c0) & (j1 < j0));
            let second = (h0 == l0) | ((h1 < l1) & beats);
            let (base, head) = if second { (k, i1) } else { (0, i0) };
            h0 += usize::from(!second);
            h1 += usize::from(second);
            emit(arena, base + arena.slot[head] as usize, &mut out);
        }
        return out;
    }
    arena.head[..n_runs].fill(0);
    while out < k {
        let mut best: Option<(usize, f64, u32)> = None;
        for r in 0..n_runs {
            let h = arena.head[r];
            if h < arena.live[r] {
                let at = r * k + h as usize;
                let (c, j) = (arena.arrival[at], arena.slot[at]);
                if best.is_none_or(|(_, bc, bj)| c > bc || (c == bc && j < bj)) {
                    best = Some((r, c, j));
                }
            }
        }
        let Some((r, _, j)) = best else { break };
        arena.head[r] += 1;
        emit(arena, r * k + j as usize, &mut out);
    }
    out
}

/// Processes a chunk of one level's nodes — the per-thread body of
/// Algorithm 1. `MIN` selects hold's min-merge ordering; the hold pass
/// ([`crate::hold`]) runs this exact body rather than its own copy.
///
/// `done` is every row ahead of the level's; the three `*_cur` slices are
/// the compact slots of the rows of `nodes`. A virtual node has no row and
/// is skipped: its queue is computed by whoever reads it ([`queue_of`]).
/// So is a node no endpoint sees, whose row holds nothing. The body
/// leaves every other queue of the chunk fully determined except a
/// startpoint node's, whose pre-state (the launch seed) the caller
/// provides: see the module docs for who writes what. The arena counts
/// the rows merged and skipped.
///
/// # Panics
///
/// Panics when a merge does not fill its row's capacity exactly: the
/// capacities no longer describe the graph (the level runner contains it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn level_chunk<const MIN: bool>(
    st: &Static,
    done: Lanes<'_>,
    nodes: std::ops::Range<usize>,
    mean_cur: &mut [f64],
    sigma_cur: &mut [f64],
    sp_cur: &mut [u32],
    arena: &mut MergeArena,
) {
    // All scratch sizing happens here, not per queue.
    arena.fit(done.k);
    let origin = st.slots(st.rows(nodes.clone())).start;
    for v in nodes {
        let Some(row) = st.row_of(v) else { continue };
        let fanin = st.fanin_range(v);
        // No driver: the queues are the launch seed, or hold nothing.
        if fanin.is_empty() {
            continue;
        }
        if !st.live[v] {
            arena.skipped += 1;
            continue;
        }
        arena.merged += 1;
        let seeded = st.source_of[v] != u32::MAX;
        for rf in 0..2 {
            let w = st.queue_slots(row, rf);
            let w = w.start - origin..w.end - origin;
            let live = merge_node_queue::<MIN>(
                st,
                fanin.clone(),
                rf,
                seeded,
                done,
                arena,
                &mut mean_cur[w.clone()],
                &mut sigma_cur[w.clone()],
                &mut sp_cur[w.clone()],
            );
            assert!(
                live == w.len(),
                "node {v}: a queue of {live} entries in a row of capacity {}",
                w.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{InstaConfig, InstaEngine};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::{RefSta, StaConfig};

    fn pair(seed: u64, k: usize) -> (RefSta, InstaEngine) {
        let d = generate_design(&GeneratorConfig::small("fwd", seed));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let eng = InstaEngine::new(
            sta.export_insta_init(),
            InstaConfig {
                top_k: k,
                ..InstaConfig::default()
            },
        ).expect("valid snapshot");
        (sta, eng)
    }

    /// With K at least the number of startpoints, INSTA's endpoint slacks
    /// must match the golden engine bit-for-bit in structure (tiny float
    /// noise allowed): this is the paper's tool-accuracy claim in the
    /// regime where truncation cannot bite.
    #[test]
    fn matches_reference_exactly_when_k_covers_all_startpoints() {
        let (sta, mut eng) = pair(11, 32);
        let golden = sta.report().clone();
        let report = eng.propagate().clone();
        assert_eq!(report.slacks.len(), golden.endpoints.len());
        for (i, g) in golden.endpoints.iter().enumerate() {
            let diff = (report.slacks[i] - g.slack_ps).abs();
            assert!(
                diff < 1e-9,
                "endpoint {i}: insta {} vs golden {} (diff {diff})",
                report.slacks[i],
                g.slack_ps
            );
        }
        assert!((report.wns_ps - golden.wns_ps).abs() < 1e-9);
        assert!((report.tns_ps - golden.tns_ps).abs() < 1e-9);
    }

    /// Top-K=1 without CPPR credit is uniformly pessimistic relative to
    /// the exact analysis (Fig. 6's left-vs-right contrast).
    #[test]
    fn k1_without_cppr_is_pessimistic() {
        let d = generate_design(&GeneratorConfig::small("fwd", 13));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let golden = sta.report().clone();
        let mut eng = InstaEngine::new(
            sta.export_insta_init(),
            InstaConfig {
                top_k: 1,
                cppr: false,
                ..InstaConfig::default()
            },
        ).expect("valid snapshot");
        let report = eng.propagate().clone();
        for (i, g) in golden.endpoints.iter().enumerate() {
            assert!(
                report.slacks[i] <= g.slack_ps + 1e-9,
                "no-CPPR slack must not exceed exact slack at ep {i}"
            );
        }
        assert!(report.tns_ps <= golden.tns_ps + 1e-9);
    }

    /// Increasing K monotonically tightens slacks toward the exact values.
    #[test]
    fn larger_k_improves_accuracy() {
        let d = generate_design(&GeneratorConfig::small("fwd", 17));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        let golden = sta.report().clone();
        let init = sta.export_insta_init();
        let mut errs = Vec::new();
        for k in [1usize, 2, 8, 32] {
            let mut eng = InstaEngine::new(
                init.clone(),
                InstaConfig {
                    top_k: k,
                    ..InstaConfig::default()
                },
            ).expect("valid snapshot");
            let r = eng.propagate().clone();
            let err: f64 = golden
                .endpoints
                .iter()
                .enumerate()
                .map(|(i, g)| (r.slacks[i] - g.slack_ps).abs())
                .sum();
            errs.push(err);
        }
        for w in errs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "error must not grow with K: {errs:?}"
            );
        }
        assert!(errs[errs.len() - 1] < 1e-9, "K=32 must be exact here");
    }

    /// Across random designs, INSTA at covering K reproduces the
    /// golden endpoint slacks exactly (the paper's tool-accuracy claim
    /// as a property).
    #[test]
    fn random_designs_match_reference_exactly() {
        use insta_support::prop::{for_all, Config};
        use insta_support::prop_assert;
        for_all(
            Config::cases(6).seed(0xF0_54D1),
            |rng| rng.gen_range(0u64..500),
            |&seed| {
                let d = generate_design(&GeneratorConfig::small("prop_fwd", seed));
                let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
                let golden = sta.full_update(&d);
                let mut eng = InstaEngine::new(
                    sta.export_insta_init(),
                    InstaConfig {
                        top_k: 64,
                        ..InstaConfig::default()
                    },
                ).expect("valid snapshot");
                let report = eng.propagate().clone();
                for (i, g) in golden.endpoints.iter().enumerate() {
                    if g.slack_ps.is_finite() {
                        prop_assert!(
                            (report.slacks[i] - g.slack_ps).abs() < 1e-9,
                            "ep {i}: {} vs {}",
                            report.slacks[i],
                            g.slack_ps
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// The forward pass is idempotent: re-propagating without changes
    /// reproduces the same state.
    #[test]
    fn propagate_is_idempotent() {
        let (_sta, mut eng) = pair(19, 8);
        let r1 = eng.propagate().clone();
        let r2 = eng.propagate().clone();
        assert_eq!(r1.slacks, r2.slacks);
        assert_eq!(r1.wns_ps, r2.wns_ps);
    }
}

/// The merge against its oracle, queue by queue, and the no-reset
/// invariant at engine level.
#[cfg(test)]
mod merge_tests {
    use super::{corner, level_chunk};
    use crate::engine::{InstaConfig, InstaEngine, Lanes};
    use crate::hold::hold_attributes;
    use crate::parallel::MergeArena;
    use crate::scalar_ref::push_sequence;
    use crate::topk::{Candidate, TopKQueue};
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::export::{EndpointInit, ExportedArc, InstaInit, SourceInit, NO_LEAF};
    use insta_refsta::{RefSta, StaConfig};
    use insta_support::prop::{for_all, Config};
    use insta_support::rng::Rng;
    use insta_support::prop_assert;

    /// Stale payload a recompute must overwrite.
    const STALE: (f64, f64) = (-7.25, -3.5);
    const STALE_SP: u32 = 1;

    /// Quantised statistics: exact corner ties across arcs and slots are
    /// the common case (sigma 0 half the time, 3-4-5 triangles otherwise).
    fn stat(rng: &mut Rng) -> (f64, f64) {
        (
            rng.bounded_u64(5) as f64 * 10.0,
            [0.0, 0.0, 3.0, 4.0][rng.bounded_u64(4) as usize],
        )
    }

    /// One node's two queues through [`level_chunk`] against the literal
    /// Algorithm 2 ([`TopKQueue::push`]) fed the push sequence *P*
    /// ([`push_sequence`]): the same count for rise and fall (the row's
    /// capacity, which the body must fill exactly) and the three lanes on
    /// raw bits. A fanin arc may reach its stored parent through a chain of
    /// zero to four one-in/one-out hops (virtual nodes, each queue the same
    /// fold of its one arc's run), so the body gathers through hops that
    /// keep the parent's order, and falls back where one reorders or the
    /// chain is too long. Returns the reads through a virtual parent and
    /// how many of them fell back.
    fn queue_matches_oracle<const MIN: bool>(k: usize, seed: u64) -> Result<(u64, u64), String> {
        let mut rng = Rng::seed_from_u64(seed);
        let n_parents = 1 + rng.bounded_u64(3) as usize;
        let n_arcs = 1 + rng.bounded_u64(4) as usize;
        // Few startpoints: the same one arrives through several parents.
        // Many: full parent queues at every K.
        let n_sp = if rng.gen_bool(0.5) { 3 } else { 2 * k + 2 };
        let seeded = rng.gen_bool(0.3);
        let arc = |rng: &mut Rng, parent: usize| {
            let (rise, fall) = (stat(rng), stat(rng));
            (
                parent as u32,
                [rise.0, fall.0],
                [rise.1, fall.1],
                rng.gen_bool(0.5),
            )
        };
        // Level 0 is the parents; level `h` holds the `h`-th hop of every
        // chain at least `h` long; the child comes last, alone on its level.
        let mut fanin: Vec<Vec<_>> = vec![Vec::new(); n_parents];
        let mut level_start = vec![0, n_parents as u32];
        let depth: Vec<usize> = (0..n_arcs)
            .map(|_| [0, 0, 1, 1, 2, 3, 4][rng.bounded_u64(7) as usize])
            .collect();
        let mut tail: Vec<usize> = (0..n_arcs)
            .map(|_| rng.bounded_u64(n_parents as u64) as usize)
            .collect();
        for h in 1..=depth.iter().copied().max().unwrap_or(0) {
            for a in (0..n_arcs).filter(|&a| depth[a] >= h) {
                fanin.push(vec![arc(&mut rng, tail[a])]);
                tail[a] = fanin.len() - 1;
            }
            level_start.push(fanin.len() as u32);
        }
        let child = fanin.len();
        fanin.push(tail.iter().map(|&p| arc(&mut rng, p)).collect());
        level_start.push(fanin.len() as u32);
        let mut fanin_start = vec![0u32];
        let mut arcs = Vec::new();
        for node in fanin {
            for (parent, mean, sigma, negative_unate) in node {
                let source_arc = arcs.len() as u32;
                arcs.push(ExportedArc {
                    parent,
                    mean,
                    sigma,
                    negative_unate,
                    source_arc,
                });
            }
            fanin_start.push(arcs.len() as u32);
        }
        let launch = stat(&mut rng);
        let sources: Vec<SourceInit> = (0..n_sp)
            .map(|i| SourceInit {
                node: if seeded && i + 1 == n_sp {
                    child as u32
                } else {
                    (i % n_parents) as u32
                },
                sp: i as u32,
                mean: [launch.0; 2],
                sigma: [launch.1; 2],
            })
            .collect();
        let init = InstaInit {
            n_nodes: child + 1,
            level_start,
            order: (0..=child as u32).collect(),
            fanin_start,
            fanin: arcs,
            sources,
            // The child is seen, so every node the pass reads is computed.
            endpoints: vec![EndpointInit {
                node: child as u32,
                ep: 0,
                required_base: 0.0,
                leaf: NO_LEAF,
            }],
            sp_leaf: vec![NO_LEAF; n_sp],
            clock_parent: Vec::new(),
            clock_depth: Vec::new(),
            clock_credit: Vec::new(),
            n_sigma: 3.0,
            period_ps: 1000.0,
            exceptions: Default::default(),
        };
        let cfg = InstaConfig {
            top_k: k,
            ..InstaConfig::default()
        };
        let eng = InstaEngine::new(init, cfg).expect("a valid snapshot");
        let mut st = eng.st.clone();

        // Parent queues, written directly: 0 / 1 / < K / K entries, unique
        // startpoints — the same set for rise and fall, as a row's two
        // queues always hold — not necessarily in corner order (a run the
        // stable insertion pass has real work on, a hop a reorder). The
        // parents are rows 0.., every hop is virtual, the child is stored.
        // The rows' capacities are the counts drawn here, not the graph's.
        assert_eq!(st.n_rows(), n_parents + 1);
        assert_eq!(st.row_of(child), Some(n_parents));
        let mut p_base = vec![0u32];
        let (mut p_mean, mut p_sigma, mut p_sp) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n_parents {
            let cap = k.min(n_sp);
            let live = match rng.bounded_u64(4) {
                0 => 0,
                1 => 1,
                2 => rng.bounded_u64(cap as u64) as usize,
                _ => cap,
            };
            p_base.push(p_base[p_base.len() - 1] + live as u32);
            let mut sps: Vec<u32> = (0..n_sp as u32).collect();
            rng.shuffle(&mut sps);
            sps.truncate(live);
            for _ in 0..2 {
                rng.shuffle(&mut sps);
                let mut entries: Vec<(f64, f64, u32)> = sps
                    .iter()
                    .map(|&sp| {
                        let (m, s) = stat(&mut rng);
                        (m, s, sp)
                    })
                    .collect();
                if rng.gen_bool(0.7) {
                    entries.sort_by(|x, y| y.0.total_cmp(&x.0));
                }
                for (m, s, sp) in entries {
                    p_mean.push(m);
                    p_sigma.push(s);
                    p_sp.push(sp);
                }
            }
        }
        let parents = Lanes {
            k,
            base: &p_base,
            slot: None,
            origin: 0,
            sp: &p_sp,
            mean: &p_mean,
            sigma: &p_sigma,
        };

        // Every queue up to the child's, in id order (parents first): a
        // stored parent's row as written, every other queue the literal
        // Algorithm 2 fed its push sequence P — a virtual hop's is its one
        // arc's run, and a single fanin is no exception to the seed being
        // pushed first.
        let mut queues: Vec<[Vec<(u32, f64, f64)>; 2]> = Vec::new();
        for v in 0..=child {
            let queue = |rf| {
                if v < n_parents {
                    return parents.row(v, rf).entries().collect();
                }
                let seed = (seeded && v == child).then(|| Candidate {
                    arrival: corner::<MIN>(launch.0, launch.1, st.n_sigma),
                    mean: launch.0,
                    sigma: launch.1,
                    sp: n_sp as u32 - 1,
                });
                let entry = |p: usize, prf: usize, j: usize| queues[p][prf].get(j).copied();
                let mut oracle = TopKQueue::new(k);
                push_sequence::<MIN>(&st, (v, rf), seed, entry, &mut oracle);
                oracle.entries().map(|c| (c.sp, c.mean, c.sigma)).collect()
            };
            let both = [queue(0), queue(1)];
            queues.push(both);
        }
        let want = queues.pop().expect("the child's queues");
        // The capacity contract: both transitions reach the same ids.
        let cap = want[0].len();
        prop_assert!(want[1].len() == cap, "rise {cap}, fall {}", want[1].len());
        st.slot_base = p_base.clone();
        st.slot_base.push(p_base[n_parents] + cap as u32);

        // The child's rows as a pass leaves them before the body runs:
        // live-looking garbage (nothing resets a plain node), or the one
        // launch entry when it is a startpoint.
        let (mut qm, mut qs) = (vec![STALE.0; 2 * cap], vec![STALE.1; 2 * cap]);
        let mut qsp = vec![STALE_SP; 2 * cap];
        if seeded {
            for rf in 0..2 {
                qm[rf * cap] = launch.0;
                qs[rf * cap] = launch.1;
                qsp[rf * cap] = n_sp as u32 - 1;
            }
        }
        let mut arena = MergeArena::default();
        let (w_mean, w_sigma, w_sp) = (&mut qm[..], &mut qs[..], &mut qsp[..]);
        let nodes = child..child + 1;
        level_chunk::<MIN>(&st, parents, nodes, w_mean, w_sigma, w_sp, &mut arena);

        for (rf, want) in want.iter().enumerate() {
            for (j, &(sp, mean, sigma)) in want.iter().enumerate() {
                let at = rf * cap + j;
                let got = (qm[at], qs[at], qsp[at]);
                let bits = |q: (f64, f64, u32)| (q.0.to_bits(), q.1.to_bits(), q.2);
                prop_assert!(
                    bits(got) == bits((mean, sigma, sp)),
                    "rf {rf} slot {j}: got {got:?}, want {:?}",
                    (mean, sigma, sp)
                );
            }
        }
        let through_hops = depth.iter().filter(|&&d| d > 0).count() as u64 * 2;
        Ok((through_hops, arena.fallbacks))
    }

    #[test]
    fn merged_queue_equals_algorithm_2_over_the_push_sequence() {
        let reads = std::cell::Cell::new((0, 0));
        for_all(
            Config::cases(400).seed(0xF0_54D2),
            |rng| (rng.bounded_u64(5), rng.next_u64()),
            |&(ki, seed)| {
                let k = [1, 2, 3, 8, 32][ki as usize % 5];
                for (through, fell_back) in [
                    queue_matches_oracle::<false>(k, seed)?,
                    queue_matches_oracle::<true>(k, seed)?,
                ] {
                    let (t, f) = reads.get();
                    reads.set((t + through, f + fell_back));
                }
                Ok(())
            },
        );
        // Both sides of the order check ran, many times over.
        let (through, fell_back) = reads.get();
        assert!(
            fell_back >= 100 && through - fell_back >= 100,
            "{fell_back} of {through} reads fell back"
        );
    }

    /// Nothing depends on a pass-wide reset: with every lane overwritten
    /// by live-looking garbage, every full pass — hold included — lands on
    /// the queues of a fresh twin (dense view: every live entry, virtual
    /// nodes included).
    #[test]
    fn full_passes_do_not_depend_on_what_the_arrays_held() {
        // Levels wide enough for the two-thread launch.
        let design = generate_design(&GeneratorConfig {
            gates_per_level: 600,
            logic_levels: 4,
            ..GeneratorConfig::medium("poison", 5)
        });
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        sta.full_update(&design);
        let attrs = hold_attributes(&design, &sta);
        let init = sta.export_insta_init();
        for (top_k, n_threads) in [1, 8, 32].into_iter().flat_map(|k| [1, 2].map(|t| (k, t))) {
            let cfg = InstaConfig {
                top_k,
                n_threads,
                ..InstaConfig::default()
            };
            let mut fresh = InstaEngine::new(init.clone(), cfg.clone()).expect("valid");
            let mut dirty = InstaEngine::new(init.clone(), cfg).expect("valid");
            type Pass<'a> = &'a dyn Fn(&mut InstaEngine) -> Vec<u64>;
            let bits = |r: &crate::metrics::InstaReport| -> Vec<u64> {
                r.slacks.iter().map(|s| s.to_bits()).collect()
            };
            let passes: [(&str, Pass); 3] = [
                ("propagate", &|e| bits(e.propagate())),
                ("propagate_fused", &|e| bits(e.propagate_fused())),
                ("propagate_hold", &|e| bits(&e.propagate_hold(&attrs))),
            ];
            for (name, pass) in passes {
                let n_sp = dirty.st.sources.len();
                for (i, sp) in dirty.state.topk_sp.iter_mut().enumerate() {
                    *sp = (i % n_sp) as u32;
                }
                for (i, m) in dirty.state.topk_mean.iter_mut().enumerate() {
                    *m = 1e6 + i as f64;
                }
                let what = format!("{name}, K={top_k}, {n_threads} threads");
                assert_eq!(pass(&mut dirty), pass(&mut fresh), "{what}: report");
                let (d, f) = (dirty.topk_snapshot(), fresh.topk_snapshot());
                let same = |x: &[f64], y: &[f64]| {
                    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
                };
                assert!(d.3 == f.3, "{what}: startpoints");
                assert!(same(&d.0, &f.0), "{what}: arrivals");
                assert!(same(&d.1, &f.1) && same(&d.2, &f.2), "{what}: mean / sigma");
            }
        }
    }
}
