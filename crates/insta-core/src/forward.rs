//! The forward kernel — paper Algorithm 1.
//!
//! Per timing level, every pin is processed independently ("each pin on the
//! same timing level is mapped to a CUDA thread", Fig. 3). For each
//! rise/fall condition the kernel reads the parents' Top-K entries (with
//! the parent transition flipped on negative-unate arcs), adds the cloned
//! arc delay distribution (mean-additive, sigma in quadrature, Eqs. 1–3),
//! and keeps the K worst corners over unique startpoints — what pushing
//! every candidate through Algorithm 2 leaves, computed by
//! [`merge_node_queue`] as one selection that writes the queue once.
//!
//! Because the engine renumbered nodes level-major, the level's state is a
//! contiguous window: the arrays split into an immutable `done` prefix
//! (all earlier levels — where every parent lives) and a mutable `current`
//! window, carved into disjoint chunks for the level runner
//! ([`crate::parallel`]), which owns launch, panic containment and retry.
//!
//! **Who clears what.** There is no pass-wide reset. The level body
//! ([`level_chunk`]) owns every queue of a node with fanin that is not a
//! startpoint: it writes the live prefix of all four lanes and clears the
//! arrival / startpoint tail. A pass ([`forward`], the fused sweep, hold)
//! only puts the queues the body does *not* fully own into their pre-pass
//! state ([`reset_and_seed`]): the level-0 window and the startpoint nodes
//! of later levels are emptied, then the launch arrivals are seeded.
//! Mean / sigma slots past a queue's live count are never written by
//! anyone (DESIGN.md "Kernel architecture").

use crate::engine::{InstaEngine, State, Static};
use crate::error::{InstaError, Kernel, RuntimeIncident};
use crate::parallel::{carve, Interrupt, MergeArena, Pass};
use crate::stat::{with_model, StatModel};
use crate::topk::{restore_topk_desc, NO_SP};
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
    pub fn propagate(&mut self) -> &crate::metrics::InstaReport {
        if let Err(e) = self.try_propagate() {
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
    /// the next successful pass.
    pub fn try_propagate(&mut self) -> Result<&crate::metrics::InstaReport, InstaError> {
        self.last_incident = None;
        self.validity.begin_full_pass();
        self.trace.begin("forward");
        let res = with_model!(&self.backend, m => forward::<_, false>(
            &self.st,
            &mut self.state,
            self.cfg.n_threads,
            self.interrupt.as_ref(),
            self.trace.profile_mut(Kernel::Forward),
            m,
            &|state, range| seed_sources(&self.st, state, range, m),
        ));
        self.trace
            .end_with(&[("ok", if res.is_ok() { 1.0 } else { 0.0 })]);
        self.settle(res)?;
        let report = with_model!(&self.backend, m =>
            crate::metrics::evaluate(&self.st, &self.state, self.cfg.cppr, m));
        self.state.report = Some(report);
        self.validity.setup_done();
        Ok(self.state.report.as_ref().expect("just set"))
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
    pub fn propagate_fused(&mut self) -> &crate::metrics::InstaReport {
        if let Err(e) = self.try_propagate_fused() {
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
    pub fn try_propagate_fused(&mut self) -> Result<&crate::metrics::InstaReport, InstaError> {
        self.last_incident = None;
        // Both output families are rewritten whether the pass succeeds or
        // not; only a completed pass stamps them.
        self.validity.begin_full_pass();
        self.validity.begin_lse();
        self.trace.begin("forward_fused");
        let (prof_fwd, prof_lse) = self.trace.profiles_fused();
        let res = with_model!(&self.backend, m => forward_fused(
            &self.st,
            &mut self.state,
            self.cfg.lse_tau,
            self.cfg.n_threads,
            self.interrupt.as_ref(),
            prof_fwd,
            prof_lse,
            m,
        ));
        self.trace
            .end_with(&[("ok", if res.is_ok() { 1.0 } else { 0.0 })]);
        self.settle(res)?;
        self.validity.lse_done(self.cfg.lse_tau);
        let report = with_model!(&self.backend, m =>
            crate::metrics::evaluate(&self.st, &self.state, self.cfg.cppr, m));
        self.state.report = Some(report);
        self.validity.setup_done();
        Ok(self.state.report.as_ref().expect("just set"))
    }
}

/// Applies the startpoint launch arrivals (cloned from the reference tool)
/// for sources whose node lies in `range`.
pub(crate) fn seed_sources<M: StatModel>(
    st: &Static,
    state: &mut State,
    range: std::ops::Range<usize>,
    model: &M,
) {
    for s in &st.sources {
        if range.contains(&(s.node as usize)) {
            seed_source(st, state, s, model);
        }
    }
}

/// Writes one startpoint's launch arrival into slot 0 of its node's queues.
pub(crate) fn seed_source<M: StatModel>(
    st: &Static,
    state: &mut State,
    s: &insta_refsta::export::SourceInit,
    model: &M,
) {
    for rf in 0..2 {
        let idx = (s.node as usize * 2 + rf) * state.k;
        state.topk_mean[idx] = s.mean[rf];
        state.topk_sigma[idx] = s.sigma[rf];
        state.topk_arrival[idx] = model.corner_late(s.mean[rf], s.sigma[rf], st.n_sigma);
        state.topk_sp[idx] = s.sp;
    }
}

/// Marks queue slots empty: `-INF` arrival, no startpoint. Mean / sigma
/// of an empty slot are dead and keep whatever they held.
#[inline(always)]
fn clear_slots(arrival: &mut [f64], sp: &mut [u32]) {
    arrival.fill(f64::NEG_INFINITY);
    sp.fill(NO_SP);
}

/// Empties the queues of the nodes in `nodes`.
pub(crate) fn clear_nodes(state: &mut State, nodes: std::ops::Range<usize>) {
    let stride = 2 * state.k;
    let w = nodes.start * stride..nodes.end * stride;
    clear_slots(&mut state.topk_arrival[w.clone()], &mut state.topk_sp[w]);
}

/// The pre-pass state of the queues the level body does not fully own:
/// the level-0 window and every startpoint node of a later level emptied,
/// then the launch arrivals seeded by `seed(state, nodes)`. O(level 0 +
/// startpoints) slots, where a pass-wide reset wrote all `2·K·nodes`.
fn reset_and_seed(
    st: &Static,
    state: &mut State,
    seed: &impl Fn(&mut State, std::ops::Range<usize>),
) {
    let level0 = st.level_start.get(1).map_or(st.n, |&end| end as usize);
    clear_nodes(state, 0..level0);
    for s in &st.sources {
        let v = s.node as usize;
        if v >= level0 {
            clear_nodes(state, v..v + 1);
        }
    }
    seed(state, 0..st.n);
}

/// The full evaluation pass: `MIN = false` is setup (the K worst late
/// corners), `MIN = true` is hold's min pass over negated early corners
/// ([`crate::hold`]). `seed(state, nodes)` writes the caller's launch
/// arrivals for the startpoints whose node lies in `nodes`.
pub(crate) fn forward<M: StatModel, const MIN: bool>(
    st: &Static,
    state: &mut State,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    prof: Option<&mut LevelProfile>,
    model: &M,
    seed: &impl Fn(&mut State, std::ops::Range<usize>),
) -> Result<Option<RuntimeIncident>, InstaError> {
    reset_and_seed(st, state, seed);
    let mut pass = Pass::begin(Kernel::Forward, n_threads, interrupt, prof);
    // One merge arena per worker, reused across every level of the pass.
    let mut arenas = MergeArena::bank(pass.threads());
    for l in 1..st.num_levels() {
        forward_level::<M, MIN>(st, state, &mut pass, &mut arenas, l, model, seed)?;
    }
    Ok(pass.finish())
}

/// One level of the evaluation forward pass, run through the level runner
/// ([`Pass::level`]). Shared verbatim by [`forward`] (setup and hold) and
/// the fused sweep ([`forward_fused`]) — fusion interleaves *whole level
/// bodies*, so the state either kernel reads is exactly what the unfused
/// pass would have produced, and bit-identity of the fused sweep is by
/// construction.
pub(crate) fn forward_level<M: StatModel, const MIN: bool>(
    st: &Static,
    state: &mut State,
    pass: &mut Pass<'_>,
    arenas: &mut [MergeArena],
    l: usize,
    model: &M,
    seed: &impl Fn(&mut State, std::ops::Range<usize>),
) -> Result<(), InstaError> {
    let k = state.k;
    let stride = 2 * k;
    let nodes = st.level_range(l);
    pass.level(
        l,
        nodes.clone(),
        &mut (&mut *state, arenas),
        |(state, arenas), launch| {
            // Everything before the level is the immutable `done` prefix
            // (corner arrivals are recomputed from mean / sigma, so theirs
            // is not read); the level's window is carved node-granular
            // along the cuts, one arena per cut.
            let window = nodes.start * stride..nodes.end * stride;
            let (mean_done, mean) = state.topk_mean.split_at_mut(window.start);
            let (sigma_done, sigma) = state.topk_sigma.split_at_mut(window.start);
            let (sp_done, sp) = state.topk_sp.split_at_mut(window.start);
            let mut rest = (
                &mut state.topk_arrival[window.clone()],
                &mut mean[..window.len()],
                &mut sigma[..window.len()],
                &mut sp[..window.len()],
                &mut arenas[..],
            );
            let windows = launch.cuts().map(|cut| {
                let take = cut.len() * stride;
                (
                    carve(&mut rest.0, take),
                    carve(&mut rest.1, take),
                    carve(&mut rest.2, take),
                    carve(&mut rest.3, take),
                    carve(&mut rest.4, 1),
                )
            });
            launch.run(windows, |cut, (arr, mean, sigma, sp, arena)| {
                level_chunk::<M, MIN>(
                    st,
                    k,
                    cut.start,
                    mean_done,
                    sigma_done,
                    sp_done,
                    arr,
                    mean,
                    sigma,
                    sp,
                    &mut arena[0],
                    model,
                );
            })
        },
        // Empty the window (the partial writes become invisible; a cold
        // path, so the whole window rather than its startpoint nodes) and
        // re-apply the launch seeds landing inside it.
        |(state, _)| {
            clear_nodes(state, nodes.clone());
            seed(state, nodes.clone());
        },
    )?;
    #[cfg(debug_assertions)]
    crate::health::debug_assert_topk_level_clean(st, state, l);
    Ok(())
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
/// attribution as the unfused passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_fused<M: StatModel>(
    st: &Static,
    state: &mut State,
    tau: f64,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    prof_fwd: Option<&mut LevelProfile>,
    prof_lse: Option<&mut LevelProfile>,
    model: &M,
) -> Result<Option<RuntimeIncident>, InstaError> {
    // Pre-sweep state of both kernels, exactly as the unfused passes.
    let seed = |state: &mut State, nodes| seed_sources(st, state, nodes, model);
    reset_and_seed(st, state, &seed);
    crate::lse::lse_reset_seed(st, state, model);

    let mut fwd = Pass::begin(Kernel::Forward, n_threads, interrupt, prof_fwd);
    let mut lse = Pass::begin(Kernel::ForwardLse, n_threads, interrupt, prof_lse);
    let mut arenas = MergeArena::bank(fwd.threads());
    for l in 1..st.num_levels() {
        forward_level::<M, false>(st, state, &mut fwd, &mut arenas, l, model, &seed)?;
        crate::lse::lse_level(st, state, &mut lse, tau, l, model)?;
    }
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
/// arrivals (see [`crate::hold`]). Both corners are the backend's own
/// quantile measurements ([`StatModel::corner_late`] /
/// [`StatModel::corner_min`]).
#[inline(always)]
fn corner<M: StatModel, const MIN: bool>(model: &M, mean: f64, sigma: f64, n_sigma: f64) -> f64 {
    if MIN {
        model.corner_min(mean, sigma, n_sigma)
    } else {
        model.corner_late(mean, sigma, n_sigma)
    }
}

/// Gathers one fanin arc: the parent's live entries plus the arc
/// distribution (mean-additive, sigma in quadrature, Eqs. 1–3) into the
/// first `live` slots of four destination k-slices, and returns `live`.
///
/// Queues are dense from the front, so the live count is one scan of the
/// parent's startpoint slice; the transform is then a straight-line loop
/// over `[..live]` slices with no early exit (one `sqrt` per candidate,
/// vectorization-friendly).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gather_arc<M: StatModel, const MIN: bool>(
    n_sigma: f64,
    (p_sp, p_mean, p_sigma): (&[u32], &[f64], &[f64]),
    (a_mean, a_sigma): (f64, f64),
    arrival: &mut [f64],
    mean: &mut [f64],
    sigma: &mut [f64],
    sp: &mut [u32],
    model: &M,
) -> usize {
    let live = p_sp.iter().position(|&s| s == NO_SP).unwrap_or(p_sp.len());
    let parent = p_mean[..live].iter().zip(&p_sigma[..live]);
    let out = arrival[..live]
        .iter_mut()
        .zip(&mut mean[..live])
        .zip(&mut sigma[..live]);
    for ((&pm, &ps), ((a, m), s)) in parent.zip(out) {
        (*m, *s) = model.arc_sum(pm, ps, a_mean, a_sigma);
        *a = corner::<M, MIN>(model, *m, *s, n_sigma);
    }
    sp[..live].copy_from_slice(&p_sp[..live]);
    live
}

/// Computes one `(node, transition)` Top-K queue from its parents — the
/// shared inner body of Algorithm 1 — and writes it **once**.
///
/// **What a queue is.** Let the push sequence *P* be the launch seed
/// sitting in slot 0 (only when `seeded`), then for `j = 0..K`, for each
/// fanin arc in CSR order, candidate `(arc, j)` if `j` is below that
/// parent's live count. Algorithm 2 fed *P* leaves, per startpoint, the
/// candidate with the largest corner (the earliest in *P* among equals:
/// replace is strict `>`), those winners ordered by (corner descending,
/// position in *P* ascending), truncated to K (DESIGN.md "Kernel
/// architecture" has the induction). That is a plain selection:
///
/// 1. **Gather** ([`gather_arc`]) every arc's candidates into the arena,
///    arc-major, one run per arc; the seed is a run of one ahead of them.
/// 2. **Order** each run by corner descending with a *stable* insertion
///    pass over `(corner, original slot j)` pairs. A parent queue is
///    already sorted and RSS sigma composition perturbs it only slightly,
///    so this is ~O(live).
/// 3. **Select**: repeatedly take the best head over the runs under
///    (corner desc, slot `j` asc, run order asc) — which walks all
///    candidates in (corner desc, position in *P* asc) order — skip it if
///    its startpoint was already emitted (the arena's stamp table, O(1)),
///    otherwise write it to the next output slot. Stop at K outputs or
///    when the runs are dry.
/// 4. **Clear** the arrival / startpoint tail past the last output.
///    Mean / sigma are never touched at or past it.
///
/// A single-fanin node (paper §III-D: no merge needed) is the gather
/// straight into the queue, the tail clear, then one stable restore of
/// corner order; as ever it overwrites a seed unless the parent is empty.
///
/// Parent-queue and arc-annotation reads go through closures supplied by
/// the one caller, [`level_chunk`] — the body the full pass, hold, the
/// session's cone sweep and (through that sweep) every batched what-if
/// lane run, which is why a lane is bit-identical to its serial twin *by
/// construction*: there is no second kernel. `parent(p, prf)` returns the
/// parent queue's `(sp, mean, sigma)` k-slices; `arc(ai)` returns the
/// arc's `(mean, sigma)` for the destination transition being computed.
/// `MIN` selects the hold kernel's negated-early-corner ordering.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_node_queue<'a, M: StatModel, const MIN: bool>(
    st: &Static,
    fanin: std::ops::Range<usize>,
    rf: usize,
    k: usize,
    seeded: bool,
    parent: &impl Fn(usize, usize) -> (&'a [u32], &'a [f64], &'a [f64]),
    arc: &impl Fn(usize) -> (f64, f64),
    arena: &mut MergeArena,
    qa: &mut [f64],
    qm: &mut [f64],
    qs: &mut [f64],
    qsp: &mut [u32],
    model: &M,
) {
    let parent_of = |ai: usize| {
        let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
        parent(st.arc_parent[ai] as usize, prf)
    };
    if fanin.len() == 1 {
        let ai = fanin.start;
        let live = gather_arc::<M, MIN>(st.n_sigma, parent_of(ai), arc(ai), qa, qm, qs, qsp, model);
        // An empty parent leaves a launch seed where it sits.
        let out = if live == 0 && seeded { 1 } else { live };
        clear_slots(&mut qa[out..], &mut qsp[out..]);
        // The K ∈ {2, 4, 8} networks sort all K slots and rely on the
        // `-INF` tail just written.
        restore_topk_desc(qa, qm, qs, qsp, live);
        return;
    }
    // Gather + order: run `r` occupies arena slots `r * k ..`; the seed,
    // first in P, is run 0 when there is one.
    let first = usize::from(seeded);
    let n_runs = first + fanin.len();
    arena.reserve(n_runs, k, st.sources.len());
    if seeded {
        arena.arrival[0] = qa[0];
        arena.mean[0] = qm[0];
        arena.sigma[0] = qs[0];
        arena.sp[0] = qsp[0];
        arena.slot[0] = 0;
        arena.live[0] = 1;
    }
    for (r, ai) in (first..).zip(fanin) {
        let o = r * k..(r + 1) * k;
        let live = gather_arc::<M, MIN>(
            st.n_sigma,
            parent_of(ai),
            arc(ai),
            &mut arena.arrival[o.clone()],
            &mut arena.mean[o.clone()],
            &mut arena.sigma[o.clone()],
            &mut arena.sp[o.clone()],
            model,
        );
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
    arena.head[..n_runs].fill(0);
    let mut out = 0;
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
        let Some((r, corner, j)) = best else { break };
        arena.head[r] += 1;
        let at = r * k + j as usize;
        let sp = arena.sp[at];
        if !arena.first_emit(sp) {
            continue;
        }
        qa[out] = corner;
        qm[out] = arena.mean[at];
        qs[out] = arena.sigma[at];
        qsp[out] = sp;
        out += 1;
    }
    clear_slots(&mut qa[out..], &mut qsp[out..]);
}

/// Processes a chunk of one level's nodes — the per-thread body of
/// Algorithm 1. `MIN` selects hold's min-merge ordering; the hold pass
/// ([`crate::hold`]) runs this exact body rather than its own copy.
///
/// The body leaves every queue of the chunk fully determined except a
/// startpoint node's, whose pre-state (emptied and seeded) the caller
/// provides: see the module docs for who clears what.
#[allow(clippy::too_many_arguments)]
pub(crate) fn level_chunk<M: StatModel, const MIN: bool>(
    st: &Static,
    k: usize,
    chunk_base: usize,
    mean_done: &[f64],
    sigma_done: &[f64],
    sp_done: &[u32],
    arr_cur: &mut [f64],
    mean_cur: &mut [f64],
    sigma_cur: &mut [f64],
    sp_cur: &mut [u32],
    arena: &mut MergeArena,
    model: &M,
) {
    let stride = 2 * k;
    let n_local = arr_cur.len() / stride;
    let parent = |p: usize, prf: usize| {
        let q = (p * 2 + prf) * k..(p * 2 + prf + 1) * k;
        (&sp_done[q.clone()], &mean_done[q.clone()], &sigma_done[q])
    };
    for li in 0..n_local {
        let v = chunk_base + li;
        let fanin = st.fanin_range(v);
        let seeded = st.source_of[v] != u32::MAX;
        if fanin.is_empty() {
            // No driver: the queues are the launch seed, or empty.
            if !seeded {
                let w = li * stride..(li + 1) * stride;
                clear_slots(&mut arr_cur[w.clone()], &mut sp_cur[w]);
            }
            continue;
        }
        for rf in 0..2 {
            let off = li * stride + rf * k;
            let (qa, qm, qs, qsp) = (
                &mut arr_cur[off..off + k],
                &mut mean_cur[off..off + k],
                &mut sigma_cur[off..off + k],
                &mut sp_cur[off..off + k],
            );
            let arc = |ai: usize| (st.arc_mean[ai][rf], st.arc_sigma[ai][rf]);
            merge_node_queue::<M, MIN>(
                st,
                fanin.clone(),
                rf,
                k,
                seeded,
                &parent,
                &arc,
                arena,
                qa,
                qm,
                qs,
                qsp,
                model,
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
    use crate::engine::{InstaConfig, InstaEngine};
    use crate::hold::hold_attributes;
    use crate::parallel::MergeArena;
    use crate::stat::{FixedBinHistogram, GaussianPocv, StatModel, StatModelConfig};
    use crate::topk::{Candidate, TopKQueue, NO_SP};
    use crate::validate::ValidationMode;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::export::{ExportedArc, InstaInit, SourceInit, NO_LEAF};
    use insta_refsta::{RefSta, StaConfig};
    use insta_support::prop::{for_all, Config};
    use insta_support::rng::Rng;
    use insta_support::prop_assert;

    /// Stale payload a recompute must leave alone past its live count.
    const STALE: (f64, f64) = (-7.25, -3.5);

    /// Quantised statistics: exact corner ties across arcs and slots are
    /// the common case (sigma 0 half the time, 3-4-5 triangles otherwise).
    fn stat(rng: &mut Rng) -> (f64, f64) {
        (
            rng.bounded_u64(5) as f64 * 10.0,
            [0.0, 0.0, 3.0, 4.0][rng.bounded_u64(4) as usize],
        )
    }

    /// One `(node, transition)` queue through [`level_chunk`] against the
    /// literal Algorithm 2 ([`TopKQueue::push`]) fed the push sequence *P*:
    /// all four lanes on raw bits, the cleared arrival / startpoint tail
    /// and the untouched mean / sigma tail.
    fn queue_matches_oracle<M: StatModel, const MIN: bool>(
        model: &M,
        k: usize,
        seed: u64,
    ) -> Result<(), String> {
        let mut rng = Rng::seed_from_u64(seed);
        let n_parents = 1 + rng.bounded_u64(3) as usize;
        let n_arcs = 1 + rng.bounded_u64(4) as usize;
        // Few startpoints: the same one arrives through several parents.
        // Many: full parent queues at every K.
        let n_sp = if rng.gen_bool(0.5) { 3 } else { 2 * k + 2 };
        let seeded = rng.gen_bool(0.3);
        let child = n_parents;
        let arcs: Vec<ExportedArc> = (0..n_arcs)
            .map(|a| {
                let (rise, fall) = (stat(&mut rng), stat(&mut rng));
                ExportedArc {
                    parent: rng.bounded_u64(n_parents as u64) as u32,
                    mean: [rise.0, fall.0],
                    sigma: [rise.1, fall.1],
                    negative_unate: rng.gen_bool(0.5),
                    source_arc: a as u32,
                }
            })
            .collect();
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
        let mut fanin_start = vec![0u32; child + 2];
        fanin_start[child + 1] = n_arcs as u32;
        let init = InstaInit {
            n_nodes: child + 1,
            level_start: vec![0, child as u32, child as u32 + 1],
            order: (0..=child as u32).collect(),
            fanin_start,
            fanin: arcs,
            sources,
            endpoints: Vec::new(),
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
            validation: ValidationMode::Trust,
            ..InstaConfig::default()
        };
        let eng = InstaEngine::new(init, cfg).expect("trust accepts");
        let st = &eng.st;

        // Parent queues, written directly: 0 / 1 / < K / K live entries,
        // unique startpoints, not necessarily in corner order (a run the
        // stable insertion pass has real work on).
        let done = n_parents * 2 * k;
        let (mut p_mean, mut p_sigma) = (vec![STALE.0; done], vec![STALE.1; done]);
        let mut p_sp = vec![NO_SP; done];
        for q in 0..n_parents * 2 {
            let cap = k.min(n_sp);
            let live = match rng.bounded_u64(4) {
                0 => 0,
                1 => 1,
                2 => rng.bounded_u64(cap as u64) as usize,
                _ => cap,
            };
            let mut sps: Vec<u32> = (0..n_sp as u32).collect();
            rng.shuffle(&mut sps);
            let mut entries: Vec<(f64, f64, u32)> = (0..live)
                .map(|j| {
                    let (m, s) = stat(&mut rng);
                    (m, s, sps[j])
                })
                .collect();
            if rng.gen_bool(0.7) {
                entries.sort_by(|x, y| y.0.total_cmp(&x.0));
            }
            for (j, (m, s, sp)) in entries.into_iter().enumerate() {
                p_mean[q * k + j] = m;
                p_sigma[q * k + j] = s;
                p_sp[q * k + j] = sp;
            }
        }

        // The child's window as a pass leaves it before the body runs:
        // live-looking garbage (nothing resets a plain node any more), or
        // emptied and seeded when it is a startpoint.
        let (mut qa, mut qsp) = (vec![55.5; 2 * k], vec![1u32; 2 * k]);
        let (mut qm, mut qs) = (vec![STALE.0; 2 * k], vec![STALE.1; 2 * k]);
        if seeded {
            qa.fill(f64::NEG_INFINITY);
            qsp.fill(NO_SP);
            for rf in 0..2 {
                qm[rf * k] = launch.0;
                qs[rf * k] = launch.1;
                qa[rf * k] = corner::<M, MIN>(model, launch.0, launch.1, st.n_sigma);
                qsp[rf * k] = n_sp as u32 - 1;
            }
        }
        let pre = (qa.clone(), qm.clone(), qs.clone(), qsp.clone());
        level_chunk::<M, MIN>(
            st,
            k,
            child,
            &p_mean,
            &p_sigma,
            &p_sp,
            &mut qa,
            &mut qm,
            &mut qs,
            &mut qsp,
            &mut MergeArena::default(),
            model,
        );

        for rf in 0..2 {
            // P, arc by arc: (corner, mean, sigma, sp) of every live slot.
            let runs: Vec<Vec<Candidate>> = st
                .fanin_range(child)
                .map(|ai| {
                    let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
                    let q = (st.arc_parent[ai] as usize * 2 + prf) * k;
                    (0..k)
                        .take_while(|&j| p_sp[q + j] != NO_SP)
                        .map(|j| {
                            let (mean, sigma) = model.arc_sum(
                                p_mean[q + j],
                                p_sigma[q + j],
                                st.arc_mean[ai][rf],
                                st.arc_sigma[ai][rf],
                            );
                            Candidate {
                                arrival: corner::<M, MIN>(model, mean, sigma, st.n_sigma),
                                mean,
                                sigma,
                                sp: p_sp[q + j],
                            }
                        })
                        .collect()
                })
                .collect();
            let seed = Candidate {
                arrival: pre.0[rf * k],
                mean: pre.1[rf * k],
                sigma: pre.2[rf * k],
                sp: pre.3[rf * k],
            };
            let want: Vec<Candidate> = if let [run] = &runs[..] {
                // Single fanin: the transformed parent queue in stable
                // corner order; it overwrites a seed unless it is empty.
                let mut run = run.clone();
                run.sort_by(|x, y| y.arrival.partial_cmp(&x.arrival).expect("finite"));
                if run.is_empty() && seeded {
                    run.push(seed);
                }
                run
            } else {
                let mut oracle = TopKQueue::new(k);
                if seeded {
                    oracle.push(seed);
                }
                for j in 0..k {
                    for run in &runs {
                        if let Some(&c) = run.get(j) {
                            oracle.push(c);
                        }
                    }
                }
                oracle.entries().collect()
            };
            for j in 0..k {
                let at = rf * k + j;
                // Past the oracle's live count: arrival / startpoint
                // cleared, mean / sigma exactly as they were.
                let want = want.get(j).map_or(
                    (f64::NEG_INFINITY, pre.1[at], pre.2[at], NO_SP),
                    |c| (c.arrival, c.mean, c.sigma, c.sp),
                );
                let got = (qa[at], qm[at], qs[at], qsp[at]);
                let bits = |q: (f64, f64, f64, u32)| (q.0.to_bits(), q.1.to_bits(), q.2.to_bits(), q.3);
                prop_assert!(
                    bits(got) == bits(want),
                    "rf {rf} slot {j}: got {got:?}, want {want:?}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn merged_queue_equals_algorithm_2_over_the_push_sequence() {
        let histogram = FixedBinHistogram::new(32, 4.0).expect("valid grid");
        for_all(
            Config::cases(400).seed(0xF0_54D2),
            |rng| (rng.bounded_u64(5), rng.next_u64()),
            |&(ki, seed)| {
                let k = [1, 2, 3, 8, 32][ki as usize % 5];
                queue_matches_oracle::<_, false>(&GaussianPocv, k, seed)?;
                queue_matches_oracle::<_, true>(&GaussianPocv, k, seed)?;
                queue_matches_oracle::<_, false>(&histogram, k, seed)?;
                queue_matches_oracle::<_, true>(&histogram, k, seed)
            },
        );
    }

    /// Nothing depends on a pass-wide reset: with the arrival and
    /// startpoint arrays overwritten by live-looking garbage, every full
    /// pass lands on the bits of a fresh twin — both arrays whole, and
    /// mean / sigma wherever a slot is live.
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
        let backends = [
            StatModelConfig::GaussianPocv,
            StatModelConfig::FixedBinHistogram {
                bins: 32,
                support_sigmas: 4.0,
            },
        ];
        for (stat_model, top_k, n_threads) in backends
            .into_iter()
            .flat_map(|b| [1, 8, 32].map(|k| (b, k)))
            .flat_map(|(b, k)| [1, 2].map(|t| (b, k, t)))
        {
            let cfg = InstaConfig {
                top_k,
                n_threads,
                stat_model,
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
                for (i, a) in dirty.state.topk_arrival.iter_mut().enumerate() {
                    *a = 1e6 + i as f64;
                }
                for (i, sp) in dirty.state.topk_sp.iter_mut().enumerate() {
                    *sp = (i % n_sp) as u32;
                }
                let what = format!("{name}, {stat_model:?}, K={top_k}, {n_threads} threads");
                assert_eq!(pass(&mut dirty), pass(&mut fresh), "{what}: report");
                let (d, f) = (&dirty.state, &fresh.state);
                assert!(d.topk_sp == f.topk_sp, "{what}: startpoints");
                let same = |x: &[f64], y: &[f64]| {
                    x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
                };
                assert!(same(&d.topk_arrival, &f.topk_arrival), "{what}: arrivals");
                for (i, &sp) in f.topk_sp.iter().enumerate() {
                    if sp != NO_SP {
                        assert_eq!(d.topk_mean[i].to_bits(), f.topk_mean[i].to_bits(), "{what}");
                        assert_eq!(d.topk_sigma[i].to_bits(), f.topk_sigma[i].to_bits(), "{what}");
                    }
                }
            }
        }
    }
}
