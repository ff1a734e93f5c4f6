//! The forward kernel — paper Algorithm 1.
//!
//! Per timing level, every pin is processed independently ("each pin on the
//! same timing level is mapped to a CUDA thread", Fig. 3). For each
//! rise/fall condition and each slot `k`, the kernel reads the parents'
//! k-th Top-K entries (with the parent transition flipped on
//! negative-unate arcs), adds the cloned arc delay distribution
//! (mean-additive, sigma in quadrature, Eqs. 1–3), and pushes the candidate
//! through the unique-startpoint priority-queue update (Algorithm 2).
//!
//! Because the engine renumbered nodes level-major, the level's state is a
//! contiguous window: the arrays split into an immutable `done` prefix
//! (all earlier levels — where every parent lives) and a mutable `current`
//! window that scoped worker threads process in disjoint chunks.

use crate::engine::{InstaEngine, State, Static};
use crate::error::{InstaError, Kernel, RuntimeIncident};
use crate::parallel::{chaos, resolve_threads, Interrupt, MergeArena, PanicCell, PAR_THRESHOLD};
use crate::stat::{with_model, StatModel};
use crate::topk::{restore_topk_desc, update_topk_slices, Candidate, NO_SP};
use crate::trace::LevelProfile;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

    /// Fallible [`propagate`](InstaEngine::propagate): a data-parallel
    /// worker panic is contained, the level is re-executed serially
    /// (bit-identical — level windows are pure functions of earlier
    /// levels), and the incident is recorded in
    /// [`last_incident`](InstaEngine::last_incident). Only when the serial
    /// re-execution *also* fails does this return
    /// [`InstaError::Runtime`]; the engine state is then unusable until
    /// the next successful pass.
    pub fn try_propagate(&mut self) -> Result<&crate::metrics::InstaReport, InstaError> {
        self.last_incident = None;
        // The pass rewrites the Top-K arrays whether it succeeds or not;
        // only a completed pass leaves them in sync with the annotations.
        self.topk_synced = false;
        self.trace.begin("forward");
        let res = with_model!(&self.backend, m => forward(
            &self.st,
            &mut self.state,
            self.cfg.n_threads,
            self.interrupt.as_ref(),
            self.trace.profile_mut(Kernel::Forward),
            m,
        ));
        self.trace
            .end_with(&[("ok", if res.is_ok() { 1.0 } else { 0.0 })]);
        self.settle(res)?;
        let report = with_model!(&self.backend, m =>
            crate::metrics::evaluate(&self.st, &self.state, self.cfg.cppr, m));
        self.state.report = Some(report);
        self.topk_synced = true;
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
        // not; only a completed pass leaves them in sync.
        self.topk_synced = false;
        self.lse_writes += 1;
        self.state.lse_tau_used = None;
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
        self.state.lse_tau_used = Some(self.cfg.lse_tau);
        let report = with_model!(&self.backend, m =>
            crate::metrics::evaluate(&self.st, &self.state, self.cfg.cppr, m));
        self.state.report = Some(report);
        self.topk_synced = true;
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

pub(crate) fn forward<M: StatModel>(
    st: &Static,
    state: &mut State,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    mut prof: Option<&mut LevelProfile>,
    model: &M,
) -> Result<Option<RuntimeIncident>, InstaError> {
    // Restart the interrupt's reporting clock at pass entry: a token or
    // deadline reused across passes must report elapsed-in-*this*-pass.
    let restarted = interrupt.map(Interrupt::restarted);
    let interrupt = restarted.as_ref();

    // Reset the final Top-K structures (pre-kernel initialization).
    state.topk_arrival.fill(f64::NEG_INFINITY);
    state.topk_sp.fill(NO_SP);
    seed_sources(st, state, 0..st.n, model);

    let nt = resolve_threads(n_threads);
    // One merge arena per worker, reused across every level of the pass.
    let mut arenas = MergeArena::bank(nt);
    let mut recovered: Option<RuntimeIncident> = None;
    if let Some(p) = prof.as_deref_mut() {
        p.passes += 1;
    }
    for l in 1..st.num_levels() {
        // Cooperative cancellation: one poll per level bounds the latency
        // between a cancel/deadline firing and this return by one level's
        // work. Levels before `l` are fully written, `l` and later are
        // untouched — the session layer rolls the mix back.
        if let Some(e) = interrupt.and_then(|i| i.check(Kernel::Forward, l)) {
            return Err(e);
        }
        if let Some(inc) = forward_level(st, state, nt, &mut arenas, l, prof.as_deref_mut(), model)?
        {
            recovered.get_or_insert(inc);
        }
    }
    Ok(recovered)
}

/// One level of the evaluation forward pass: the parallel launch, panic
/// containment + serial retry, and per-level profiling for level `l`.
/// Shared verbatim by [`forward`] and the fused sweep
/// ([`forward_fused`]) — fusion interleaves *whole level bodies*, so the
/// state either kernel reads is exactly what the unfused pass would have
/// produced, and bit-identity of the fused sweep is by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_level<M: StatModel>(
    st: &Static,
    state: &mut State,
    nt: usize,
    arenas: &mut [MergeArena],
    l: usize,
    mut prof: Option<&mut LevelProfile>,
    model: &M,
) -> Result<Option<RuntimeIncident>, InstaError> {
    let k = state.k;
    let stride = 2 * k;
    let mut recovered: Option<RuntimeIncident> = None;
    {
        let r = st.level_range(l);
        let (base, len) = (r.start, r.len());
        if len == 0 {
            return Ok(None);
        }
        // Two timestamp reads per level, only when a profile is attached.
        let t_level = prof.is_some().then(std::time::Instant::now);
        let panicked = {
            let split = base * stride;
            let (arr_done, arr_cur) = state.topk_arrival.split_at_mut(split);
            let (mean_done, mean_cur) = state.topk_mean.split_at_mut(split);
            let (sigma_done, sigma_cur) = state.topk_sigma.split_at_mut(split);
            let (sp_done, sp_cur) = state.topk_sp.split_at_mut(split);
            let arr_cur = &mut arr_cur[..len * stride];
            let mean_cur = &mut mean_cur[..len * stride];
            let sigma_cur = &mut sigma_cur[..len * stride];
            let sp_cur = &mut sp_cur[..len * stride];

            let _ = arr_done; // corner arrivals are recomputed from mean/sigma
            if nt <= 1 || len < PAR_THRESHOLD {
                level_chunk::<M, false>(
                    st, k, base, mean_done, sigma_done, sp_done, arr_cur, mean_cur, sigma_cur,
                    sp_cur, &mut arenas[0], model,
                );
                None
            } else {
                // Carve the current window into per-thread chunks (node
                // granular). A panicking chunk is contained by the cell;
                // its siblings finish normally and the scope joins clean.
                let chunk_nodes = len.div_ceil(nt);
                let chunk_elems = chunk_nodes * stride;
                let cell = PanicCell::new();
                std::thread::scope(|scope| {
                    let mut rest = (arr_cur, mean_cur, sigma_cur, sp_cur);
                    let mut rest_arenas = &mut arenas[..];
                    let mut cbase = base;
                    loop {
                        let take = chunk_elems.min(rest.0.len());
                        if take == 0 {
                            break;
                        }
                        let (a, ra) = rest.0.split_at_mut(take);
                        let (m, rm) = rest.1.split_at_mut(take);
                        let (sg, rs) = rest.2.split_at_mut(take);
                        let (sp, rsp) = rest.3.split_at_mut(take);
                        rest = (ra, rm, rs, rsp);
                        let (ar, rar) = rest_arenas.split_at_mut(1);
                        rest_arenas = rar;
                        let arena = &mut ar[0];
                        let (md, sd, spd) = (&*mean_done, &*sigma_done, &*sp_done);
                        let cell = &cell;
                        scope.spawn(move || {
                            cell.run(cbase..cbase + take / stride, || {
                                chaos::maybe_panic(Kernel::Forward, l);
                                level_chunk::<M, false>(
                                    st, k, cbase, md, sd, spd, a, m, sg, sp, arena, model,
                                );
                            });
                        });
                        cbase += take / stride;
                    }
                });
                cell.take()
            }
        };
        if let Some((chunk, message)) = panicked {
            let incident = RuntimeIncident {
                kernel: Kernel::Forward,
                level: l,
                chunk,
                message,
                serial_retry_failed: false,
            };
            // Serial re-execution: reset the window to its post-global-
            // reset state (the partial chunk writes become invisible),
            // re-apply launch seeds landing inside it, and recompute from
            // the untouched earlier levels.
            let retry = catch_unwind(AssertUnwindSafe(|| {
                let w = base * stride..(base + len) * stride;
                state.topk_arrival[w.clone()].fill(f64::NEG_INFINITY);
                state.topk_sp[w].fill(NO_SP);
                seed_sources(st, state, base..base + len, model);
                chaos::maybe_panic(Kernel::Forward, l);
                let split = base * stride;
                let (_, arr_cur) = state.topk_arrival.split_at_mut(split);
                let (mean_done, mean_cur) = state.topk_mean.split_at_mut(split);
                let (sigma_done, sigma_cur) = state.topk_sigma.split_at_mut(split);
                let (sp_done, sp_cur) = state.topk_sp.split_at_mut(split);
                level_chunk::<M, false>(
                    st,
                    k,
                    base,
                    mean_done,
                    sigma_done,
                    sp_done,
                    &mut arr_cur[..len * stride],
                    &mut mean_cur[..len * stride],
                    &mut sigma_cur[..len * stride],
                    &mut sp_cur[..len * stride],
                    &mut arenas[0],
                    model,
                );
            }));
            match retry {
                Ok(()) => {
                    recovered.get_or_insert(incident);
                }
                Err(_) => {
                    return Err(InstaError::Runtime(RuntimeIncident {
                        serial_retry_failed: true,
                        ..incident
                    }))
                }
            }
        }
        if let (Some(p), Some(t0)) = (prof.as_deref_mut(), t_level) {
            p.record_level(l, t0.elapsed().as_nanos() as u64, len as u64);
        }
    }
    #[cfg(debug_assertions)]
    crate::health::debug_assert_topk_level_clean(st, state, l);
    Ok(recovered)
}

/// The fused forward + LSE sweep: one loop over the timing levels runs
/// the evaluation level body ([`forward_level`]) and the differentiable
/// level body ([`crate::lse::lse_level`]) back to back for each level.
///
/// **Bit-identity.** Level `l` of the evaluation kernel reads only
/// earlier levels' Top-K queues; level `l` of the LSE kernel reads only
/// earlier levels' smooth arrivals. The two kernels share no output
/// arrays, so interleaving whole level bodies leaves every read seeing
/// exactly the state the unfused `forward` + `forward_lse_with`
/// sequence would have produced. What fusion buys is locality: the
/// level's fanin CSR rows, arc annotations, and parent indices are hot
/// in cache for the LSE body instead of being re-fetched a full pass
/// later.
///
/// Cancellation polls once per kernel per level, so incidents and
/// cancels carry the same `Kernel` attribution as the unfused passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_fused<M: StatModel>(
    st: &Static,
    state: &mut State,
    tau: f64,
    n_threads: usize,
    interrupt: Option<&Interrupt>,
    mut prof_fwd: Option<&mut LevelProfile>,
    mut prof_lse: Option<&mut LevelProfile>,
    model: &M,
) -> Result<Option<RuntimeIncident>, InstaError> {
    let restarted = interrupt.map(Interrupt::restarted);
    let interrupt = restarted.as_ref();

    // Pre-sweep state of both kernels, exactly as the unfused passes.
    state.topk_arrival.fill(f64::NEG_INFINITY);
    state.topk_sp.fill(NO_SP);
    seed_sources(st, state, 0..st.n, model);
    crate::lse::lse_reset_seed(st, state, model);

    let nt = resolve_threads(n_threads);
    let mut arenas = MergeArena::bank(nt);
    let mut recovered: Option<RuntimeIncident> = None;
    if let Some(p) = prof_fwd.as_deref_mut() {
        p.passes += 1;
    }
    if let Some(p) = prof_lse.as_deref_mut() {
        p.passes += 1;
    }
    let ann = |ai: usize, rf: usize| (st.arc_mean[ai][rf], st.arc_sigma[ai][rf]);
    for l in 1..st.num_levels() {
        if let Some(e) = interrupt.and_then(|i| i.check(Kernel::Forward, l)) {
            return Err(e);
        }
        if let Some(inc) =
            forward_level(st, state, nt, &mut arenas, l, prof_fwd.as_deref_mut(), model)?
        {
            recovered.get_or_insert(inc);
        }
        if let Some(e) = interrupt.and_then(|i| i.check(Kernel::ForwardLse, l)) {
            return Err(e);
        }
        if let Some(inc) =
            crate::lse::lse_level(st, state, tau, nt, l, &ann, prof_lse.as_deref_mut(), model)?
        {
            recovered.get_or_insert(inc);
        }
    }
    Ok(recovered)
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

/// Computes one `(node, transition)` Top-K queue from its parents — the
/// shared inner body of Algorithm 1, in a gather-then-merge shape:
///
/// 1. **Gather.** Every candidate — parent entry plus arc distribution
///    (mean-additive, sigma in quadrature, Eqs. 1–3) — is computed into
///    the arena's SoA buffers by straight-line loops over the parent
///    queues' contiguous k-slices (the float-heavy part: one sqrt per
///    candidate, vectorization-friendly, no queue branching).
/// 2. **Merge.** Candidates are pushed through the unique-startpoint
///    queue update (Algorithm 2) in exactly the old j-major order —
///    slot-j candidates of every arc before slot j+1 — so the final
///    queue is bit-identical to the interleaved original; most pushes on
///    deep levels die in `update_topk_slices`' O(1) floor rejection.
///
/// Parent-queue and arc-annotation reads go through closures supplied by
/// the one caller, [`level_chunk`] — the body the full pass, hold, the
/// session's cone sweep and (through that sweep) every batched what-if
/// lane run, which is why a lane is bit-identical to its serial twin *by
/// construction*: there is no second kernel. `parent(p, prf, j)` returns the parent's
/// j-th `(sp, mean, sigma)` entry; `arc(ai)` returns the arc's
/// `(mean, sigma)` for the destination transition being computed. `MIN`
/// selects the hold kernel's negated-early-corner ordering
/// ([`crate::hold`] shares this body instead of keeping its own merge).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_node_queue<M: StatModel, const MIN: bool>(
    st: &Static,
    fanin: std::ops::Range<usize>,
    rf: usize,
    k: usize,
    parent: &impl Fn(usize, usize, usize) -> (u32, f64, f64),
    arc: &impl Fn(usize) -> (f64, f64),
    arena: &mut MergeArena,
    qa: &mut [f64],
    qm: &mut [f64],
    qs: &mut [f64],
    qsp: &mut [u32],
    model: &M,
) {
    // Paper §III-D: input pins have a single parent in modern
    // designs, so no merge is needed — a vectorized transform of
    // the parent queue suffices (copy, add the arc distribution,
    // then restore corner order — which RSS sigma composition can
    // perturb — with one stable sort over the live prefix).
    if fanin.len() == 1 {
        let ai = fanin.start;
        let p = st.arc_parent[ai] as usize;
        let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
        let (a_mean, s_arc) = arc(ai);
        let mut live = 0;
        for j in 0..k {
            let (sp, p_mean, s_par) = parent(p, prf, j);
            if sp == NO_SP {
                break;
            }
            let (mean, sigma) = model.arc_sum(p_mean, s_par, a_mean, s_arc);
            qm[j] = mean;
            qs[j] = sigma;
            qa[j] = corner::<M, MIN>(model, mean, sigma, st.n_sigma);
            qsp[j] = sp;
            live = j + 1;
        }
        restore_topk_desc(qa, qm, qs, qsp, live);
        return;
    }
    // Gather: all candidates, arc-major, reading each parent's k-slice
    // sequentially. Queues are dense from the front, so the per-arc live
    // count is the parent's occupancy.
    let n_arcs = fanin.len();
    arena.reserve(n_arcs, k);
    let mut max_live = 0usize;
    for (a_idx, ai) in fanin.clone().enumerate() {
        let p = st.arc_parent[ai] as usize;
        let prf = if st.arc_neg[ai] { 1 - rf } else { rf };
        let (a_mean, s_arc) = arc(ai);
        let o = a_idx * k;
        let mut live = 0usize;
        for j in 0..k {
            let (sp, p_mean, s_par) = parent(p, prf, j);
            if sp == NO_SP {
                break;
            }
            let (mean, sigma) = model.arc_sum(p_mean, s_par, a_mean, s_arc);
            arena.mean[o + j] = mean;
            arena.sigma[o + j] = sigma;
            arena.arrival[o + j] = corner::<M, MIN>(model, mean, sigma, st.n_sigma);
            arena.sp[o + j] = sp;
            live = j + 1;
        }
        arena.live[a_idx] = live as u32;
        max_live = max_live.max(live);
    }
    // Merge: paper Algorithm 1 — for each k, push every parent's k-th
    // unique-startpoint arrival, in the same j-major / arc-minor order
    // (and with the same skip/stop conditions) as the interleaved
    // original, so the queue evolution is bit-identical.
    for j in 0..max_live {
        for a_idx in 0..n_arcs {
            if (j as u32) < arena.live[a_idx] {
                let o = a_idx * k + j;
                update_topk_slices(
                    qa,
                    qm,
                    qs,
                    qsp,
                    Candidate {
                        arrival: arena.arrival[o],
                        mean: arena.mean[o],
                        sigma: arena.sigma[o],
                        sp: arena.sp[o],
                    },
                );
            }
        }
    }
}

/// Processes a chunk of one level's nodes — the per-thread body of
/// Algorithm 1. `MIN` selects hold's min-merge ordering; the hold pass
/// ([`crate::hold`]) runs this exact body rather than its own copy.
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
    for li in 0..n_local {
        let v = chunk_base + li;
        let fanin = st.fanin_range(v);
        if fanin.is_empty() {
            continue; // level-0 stragglers with no driver stay empty
        }
        for rf in 0..2 {
            let off = li * stride + rf * k;
            let (qa, qm, qs, qsp) = (
                &mut arr_cur[off..off + k],
                &mut mean_cur[off..off + k],
                &mut sigma_cur[off..off + k],
                &mut sp_cur[off..off + k],
            );
            let parent = |p: usize, prf: usize, j: usize| {
                let pidx = (p * 2 + prf) * k + j;
                (sp_done[pidx], mean_done[pidx], sigma_done[pidx])
            };
            let arc = |ai: usize| (st.arc_mean[ai][rf], st.arc_sigma[ai][rf]);
            merge_node_queue::<M, MIN>(
                st,
                fanin.clone(),
                rf,
                k,
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
