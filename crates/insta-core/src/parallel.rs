//! The CPU "kernel launcher" standing in for CUDA grid launches, and the
//! one place a timing level is executed.
//!
//! Each INSTA kernel processes one timing level: every node of the level is
//! independent (the paper maps one pin to one CUDA thread). Because the
//! engine renumbers nodes in level-major order, a level's state is a
//! contiguous slice, so a kernel can hand disjoint windows of it to scoped
//! threads with zero unsafe code.
//!
//! # The level runner
//!
//! A kernel pass opens a `Pass` and calls `Pass::level` once per level;
//! the evaluation forward pass (setup, hold, the fused sweep), the LSE
//! forward pass, the backward sweep and the session's cone sweep all run
//! their levels through it. The runner owns the whole protocol:
//!
//! 1. **Poll** the pass's [`PassOptions`] once — cancellation latency is one
//!    level's work and a cut pass stops on a level boundary.
//! 2. **Cut** the level's work items: one cut when a single thread was
//!    asked for or the level is narrower than [`PAR_THRESHOLD`] (thread
//!    spawn overhead dominates there), otherwise even `div_ceil` cuts, one
//!    per thread.
//! 3. **Launch** (`Launch::run`): a single cut runs inline, several run
//!    on fresh scoped threads. Either way every cut's body runs under
//!    `catch_unwind`, behind the [`chaos`] hook.
//! 4. **Contain and retry.** The first panicking cut becomes a
//!    [`RuntimeIncident`] naming its item range. The kernel's `reset` puts
//!    the level's output window back to its pre-level state and the level
//!    is re-executed once, as one inline cut. A level's outputs are a pure
//!    function of already-final levels, so the retry is bit-identical to
//!    an undisturbed run: the pass goes on and reports the incident. A
//!    retry that fails too ends the pass with
//!    [`InstaError::Runtime`] (`serial_retry_failed`).
//! 5. **Profile**: one `(level, ns, items)` row when a profile is attached.
//!
//! A kernel supplies only what is its own: how to carve *its* output window
//! along the cuts, the body of one cut, and the reset.

use crate::engine::Queue;
use crate::error::{InstaError, Kernel, RuntimeIncident};
use crate::trace::LevelProfile;
use insta_support::timer::{CancelToken, Deadline};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// The cancel/deadline contract of every fallible pass and of a session
/// ([`TimingSession::with_options`](crate::TimingSession::with_options)):
/// a cancel token and an absolute deadline, polled once per timing level
/// (never inside the data-parallel chunk bodies). At most one level's work
/// runs after either fires, and the pass returns [`InstaError::Cancelled`]
/// cut at a level boundary — earlier levels fully written, later levels
/// untouched. The partially refreshed state is still inconsistent *as a
/// whole*, which is why the session layer treats a cancellation as
/// poisoning (rollback).
///
/// The deadline is an instant, not a budget, so one value spans every pass
/// of a call or a session; `Cancelled { elapsed }` counts from the start of
/// the pass that stopped.
#[derive(Debug, Clone, Default)]
pub struct PassOptions {
    /// Cooperative cancel token.
    pub cancel: Option<CancelToken>,
    /// The instant after which no further level runs.
    pub deadline: Option<Deadline>,
}

impl PassOptions {
    /// Whether either trigger has fired.
    pub(crate) fn fired(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
            || self.deadline.is_some_and(|d| d.expired())
    }
}

/// Number of worker threads a launch uses (`0` = all available cores).
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Minimum per-level work items before a launch goes parallel; below this,
/// thread spawn overhead dominates and the level runs inline.
pub const PAR_THRESHOLD: usize = 512;

/// A panicking cut: its work-item range and the panic message.
pub(crate) type Panicked = (Range<usize>, String);

/// One kernel pass as the level runner sees it (see the [module
/// docs](self)): which kernel polls and books, on how many threads, into
/// which profile — and the first incident the pass recovered from.
pub(crate) struct Pass<'a> {
    kernel: Kernel,
    nt: usize,
    opts: &'a PassOptions,
    started: Instant,
    prof: Option<&'a mut LevelProfile>,
    recovered: Option<RuntimeIncident>,
}

impl<'a> Pass<'a> {
    /// Opens a pass. Its cancellation clock starts here, so options reused
    /// across passes report `Cancelled { elapsed }` relative to the pass
    /// they cut; the profile counts the pass.
    pub(crate) fn begin(
        kernel: Kernel,
        n_threads: usize,
        opts: &'a PassOptions,
        mut prof: Option<&'a mut LevelProfile>,
    ) -> Self {
        if let Some(p) = prof.as_deref_mut() {
            p.passes += 1;
        }
        Pass {
            kernel,
            nt: resolve_threads(n_threads),
            opts,
            started: Instant::now(),
            prof,
            recovered: None,
        }
    }

    /// The most cuts a level of this pass is split into.
    pub(crate) fn threads(&self) -> usize {
        self.nt
    }

    /// Runs one level: `items` are its work items — the level's node ids
    /// for a full pass, worklist positions for the cone sweep.
    ///
    /// `attempt(state, launch)` executes the level once: it carves the
    /// kernel's output window along [`Launch::cuts`] and hands the windows
    /// and the cut body to [`Launch::run`], whose verdict it returns.
    /// `reset(state)` runs only between a contained panic and the retry.
    /// Levels before this one are final and later ones untouched when this
    /// returns `Err`.
    pub(crate) fn level<S>(
        &mut self,
        level: usize,
        items: Range<usize>,
        state: &mut S,
        attempt: impl Fn(&mut S, &Launch) -> Option<Panicked>,
        reset: impl FnOnce(&mut S),
    ) -> Result<(), InstaError> {
        if self.opts.fired() {
            return Err(InstaError::Cancelled {
                kernel: self.kernel,
                level,
                elapsed: self.started.elapsed(),
            });
        }
        let len = items.len();
        if len == 0 {
            return Ok(());
        }
        // Two timestamp reads per level, only when a profile is attached.
        let t0 = self.prof.is_some().then(Instant::now);
        let per_cut = if self.nt <= 1 || len < PAR_THRESHOLD {
            len
        } else {
            len.div_ceil(self.nt)
        };
        let mut launch = Launch {
            kernel: self.kernel,
            level,
            items,
            per_cut,
            retry: false,
        };
        if let Some((chunk, message)) = attempt(state, &launch) {
            let incident = RuntimeIncident {
                kernel: self.kernel,
                level,
                chunk,
                message,
                serial_retry_failed: false,
            };
            launch.per_cut = len;
            launch.retry = true;
            let retried = catch_unwind(AssertUnwindSafe(|| {
                reset(state);
                attempt(state, &launch)
            }));
            if !matches!(retried, Ok(None)) {
                return Err(InstaError::Runtime(RuntimeIncident {
                    serial_retry_failed: true,
                    ..incident
                }));
            }
            self.recovered.get_or_insert(incident);
        }
        if let (Some(p), Some(t0)) = (self.prof.as_deref_mut(), t0) {
            p.record_level(level, t0.elapsed().as_nanos() as u64, len as u64);
        }
        Ok(())
    }

    /// Closes the pass: the first panic it contained, if any.
    pub(crate) fn finish(self) -> Option<RuntimeIncident> {
        self.recovered
    }
}

/// Splits the first `n` elements off the front of `rest`: how a kernel
/// carves its window cut by cut.
pub(crate) fn carve<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    rest.split_off_mut(..n)
        .expect("the cuts tile the level window")
}

/// One execution of a level, handed to the kernel's `attempt`.
pub(crate) struct Launch {
    kernel: Kernel,
    level: usize,
    items: Range<usize>,
    /// Items per cut; the whole level when it runs inline.
    per_cut: usize,
    /// Whether this is the serial re-execution after a contained panic.
    pub(crate) retry: bool,
}

impl Launch {
    /// The cuts of this launch, in order: they tile the level's items.
    pub(crate) fn cuts(&self) -> impl Iterator<Item = Range<usize>> {
        let (end, per_cut) = (self.items.end, self.per_cut);
        self.items
            .clone()
            .step_by(per_cut)
            .map(move |start| start..(start + per_cut).min(end))
    }

    /// Runs `body(cut, window)` for every cut, `windows` being the kernel's
    /// output window carved along [`cuts`](Self::cuts) in the same order,
    /// and returns the first cut that panicked. Siblings of a panicking
    /// cut finish normally.
    pub(crate) fn run<W: Send>(
        &self,
        windows: impl IntoIterator<Item = W>,
        body: impl Fn(Range<usize>, W) + Sync,
    ) -> Option<Panicked> {
        let work = |cut: Range<usize>, window: W| {
            chaos::maybe_panic(self.kernel, self.level);
            body(cut, window);
        };
        let mut chunks = self.cuts().zip(windows);
        if self.per_cut == self.items.len() {
            let (cut, window) = chunks.next()?;
            return catch_unwind(AssertUnwindSafe(|| work(cut.clone(), window)))
                .err()
                .map(|payload| (cut, payload_message(payload)));
        }
        let cell = PanicCell::new();
        std::thread::scope(|scope| {
            for (cut, window) in chunks {
                let (cell, work) = (&cell, &work);
                scope.spawn(move || cell.run(cut.clone(), || work(cut, window)));
            }
        });
        cell.take()
    }
}

/// One queue's worth of scratch lanes, corner arrivals included.
#[derive(Debug, Default, Clone)]
pub(crate) struct QueueBuf {
    pub arrival: Vec<f64>,
    pub mean: Vec<f64>,
    pub sigma: Vec<f64>,
    pub sp: Vec<u32>,
}

impl QueueBuf {
    /// The first `live` entries as a queue view.
    #[inline(always)]
    pub(crate) fn queue(&self, live: usize) -> Queue<'_> {
        Queue {
            sp: &self.sp[..live],
            mean: &self.mean[..live],
            sigma: &self.sigma[..live],
        }
    }
}

/// Where a virtual node's queue is materialised
/// ([`queue_of`](crate::forward::queue_of)): two queues of `k` slots, so a
/// chain of virtual nodes is walked by gathering one into the other.
/// Contents are scratch, valid until the next materialisation.
#[derive(Debug, Default, Clone)]
pub(crate) struct VirtualQueue(pub [QueueBuf; 2]);

impl VirtualQueue {
    /// A scratch for queues of `k` slots.
    pub(crate) fn new(k: usize) -> Self {
        let mut scratch = VirtualQueue::default();
        scratch.fit(k);
        scratch
    }

    /// Ensures room for two queues of `k` slots.
    #[inline]
    pub(crate) fn fit(&mut self, k: usize) {
        if self.0[0].sp.len() < k {
            for buf in &mut self.0 {
                buf.arrival.resize(k, 0.0);
                buf.mean.resize(k, 0.0);
                buf.sigma.resize(k, 0.0);
                buf.sp.resize(k, 0);
            }
        }
    }
}

/// Reusable per-thread scratch of the forward merge
/// (`forward::merge_node_queue`).
///
/// The multi-fanin merge gathers every candidate of a `(node, transition)`
/// queue into SoA buffers — one run of `k` slots per fanin arc, a launch
/// seed as a run of its own ahead of them — so the float pipeline (parent
/// reads, mean add, RSS sigma, corner) runs as straight-line loops over
/// contiguous slices; then it orders each run's keys and selects the
/// queue from the run heads. One arena per worker thread is allocated per
/// kernel pass and reused across every node and level that thread
/// processes; the merge itself never allocates once the buffers have grown
/// to the widest fanin. Contents are scratch: each use rewrites slots
/// `0..live` per run and gates reads by `live`, so nothing is cleared
/// between nodes — the stamp table included, which a generation counter
/// invalidates in O(1).
#[derive(Debug, Default, Clone)]
pub(crate) struct MergeArena {
    /// Candidate corner arrivals, run-major (`run * k + i`), each run in
    /// corner-descending order once the merge has ordered it.
    pub arrival: Vec<f64>,
    /// The parent slot `j` the corner at the same index came from: where
    /// its mean / sigma / startpoint sit in the run.
    pub slot: Vec<u32>,
    /// Candidate means, run-major in parent slot order (`run * k + j`).
    pub mean: Vec<f64>,
    /// Candidate sigmas, in parent slot order.
    pub sigma: Vec<f64>,
    /// Candidate startpoints, in parent slot order.
    pub sp: Vec<u32>,
    /// Live candidate count per run (parent queues are dense, so this is
    /// the parent's occupancy).
    pub live: Vec<u32>,
    /// Next unread position per run during the selection.
    pub head: Vec<u32>,
    /// `stamp[sp] == generation` ⇔ startpoint `sp` was already emitted
    /// into the queue being selected. O(startpoints) per arena.
    stamp: Vec<u32>,
    generation: u32,
    /// Where the merge materialises a virtual parent it cannot gather
    /// through (`forward::gather_fanin`).
    pub virt: VirtualQueue,
    /// Virtual parents materialised since the arena was made (the cone
    /// sweep's arena: since its sweep began).
    pub fallbacks: u64,
}

impl MergeArena {
    /// Ensures capacity for `n_runs` runs of `k` candidates each and a
    /// stamp per startpoint. Grows geometrically and never shrinks, so
    /// across a pass this settles at the widest fanin and stops touching
    /// the allocator.
    #[inline]
    pub(crate) fn reserve(&mut self, n_runs: usize, k: usize, n_startpoints: usize) {
        let need = n_runs * k;
        if self.arrival.len() < need {
            let cap = need.next_power_of_two();
            self.arrival.resize(cap, 0.0);
            self.slot.resize(cap, 0);
            self.mean.resize(cap, 0.0);
            self.sigma.resize(cap, 0.0);
            self.sp.resize(cap, 0);
        }
        if self.live.len() < n_runs {
            let cap = n_runs.next_power_of_two();
            self.live.resize(cap, 0);
            self.head.resize(cap, 0);
        }
        if self.stamp.len() < n_startpoints {
            self.stamp.resize(n_startpoints, 0);
        }
    }

    /// Sizes the scratch no queue should have to size for itself: one run
    /// (the single-fanin transform's sort keys) and the virtual queues.
    /// Called once per chunk of nodes, ahead of the per-queue path.
    #[inline]
    pub(crate) fn fit(&mut self, k: usize) {
        self.reserve(1, k, 0);
        self.virt.fit(k);
    }

    /// Opens a new queue's selection: every stamp of earlier queues goes
    /// stale at once. The table is zeroed only when the counter wraps.
    #[inline]
    pub(crate) fn open_queue(&mut self) {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Whether startpoint `sp` has not been emitted into the open queue
    /// yet; marks it emitted. Validated startpoint ids index the table;
    /// an id past it is simply never deduplicated.
    #[inline]
    pub(crate) fn first_emit(&mut self, sp: u32) -> bool {
        match self.stamp.get_mut(sp as usize) {
            Some(stamp) if *stamp == self.generation => false,
            Some(stamp) => {
                *stamp = self.generation;
                true
            }
            None => true,
        }
    }

    /// A bank of `n` arenas, one per worker thread of a kernel pass.
    pub(crate) fn bank(n: usize) -> Vec<MergeArena> {
        (0..n.max(1)).map(|_| MergeArena::default()).collect()
    }
}

/// Extracts a human-readable message from a panic payload.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Collects the first worker panic of a spawned launch.
///
/// Every spawned cut wraps its body in [`PanicCell::run`]; a panicking cut
/// records its item range and payload here (first writer wins) and the
/// thread exits cleanly, so `thread::scope` joins without re-raising.
struct PanicCell {
    slot: Mutex<Option<Panicked>>,
}

impl PanicCell {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }

    /// Runs `f`, converting a panic into a recorded incident for the item
    /// range `chunk`.
    fn run<F: FnOnce()>(&self, chunk: Range<usize>, f: F) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some((chunk, payload_message(payload)));
            }
        }
    }

    /// The first recorded panic, if any.
    fn take(&self) -> Option<Panicked> {
        self.slot.lock().unwrap_or_else(|p| p.into_inner()).take()
    }
}

/// Deterministic worker-panic injection for the fault-tolerance suites.
///
/// Hidden from docs: this is test machinery, kept in the library (instead
/// of `#[cfg(test)]`) so integration tests can arm it. The cost on the hot
/// path is one relaxed atomic load per dispatched cut, inline ones included.
#[doc(hidden)]
pub mod chaos {
    use crate::error::Kernel;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU8, Ordering};

    static ARMED_KERNEL: AtomicU8 = AtomicU8::new(0);
    static ARMED_LEVEL: AtomicI64 = AtomicI64::new(-1);
    static PERSISTENT: AtomicBool = AtomicBool::new(false);

    fn tag(kernel: Kernel) -> u8 {
        match kernel {
            Kernel::Forward => 1,
            Kernel::ForwardLse => 2,
            Kernel::Backward => 3,
        }
    }

    /// Arms a panic in `kernel` workers at timing level `level`. With
    /// `persistent = false` exactly one chunk panics (the serial retry
    /// succeeds); with `persistent = true` every execution of the level
    /// panics, including the retry.
    pub fn arm(kernel: Kernel, level: usize, persistent: bool) {
        PERSISTENT.store(persistent, Ordering::SeqCst);
        ARMED_LEVEL.store(level as i64, Ordering::SeqCst);
        ARMED_KERNEL.store(tag(kernel), Ordering::SeqCst);
    }

    /// Disarms any pending injection.
    pub fn disarm() {
        ARMED_KERNEL.store(0, Ordering::SeqCst);
        ARMED_LEVEL.store(-1, Ordering::SeqCst);
        PERSISTENT.store(false, Ordering::SeqCst);
    }

    /// Called by [`Launch::run`](super::Launch::run) ahead of every cut's
    /// body; panics when armed for this site.
    pub(super) fn maybe_panic(kernel: Kernel, level: usize) {
        if ARMED_KERNEL.load(Ordering::Relaxed) != tag(kernel) {
            return;
        }
        if PERSISTENT.load(Ordering::SeqCst) {
            if ARMED_LEVEL.load(Ordering::SeqCst) == level as i64 {
                panic!("chaos: injected worker panic in {kernel} at level {level}");
            }
            return;
        }
        // Fire-once: the swap guarantees exactly one chunk panics even
        // when several workers of the level race through here.
        if ARMED_LEVEL
            .compare_exchange(level as i64, -1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            ARMED_KERNEL.store(0, Ordering::SeqCst);
            panic!("chaos: injected worker panic in {kernel} at level {level}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// What one toy level left behind.
    struct ToyRun {
        data: Vec<u64>,
        outcome: Result<Option<RuntimeIncident>, InstaError>,
        /// The cuts of every attempt, in launch order.
        cuts: Vec<Range<usize>>,
        resets: usize,
        prof: LevelProfile,
    }

    const LEVEL: usize = 7;

    /// Runs level [`LEVEL`] over items `base..base + len` of a zeroed
    /// `Vec<u64>` "state" on `nt` threads. The body *adds* `item + 1` to
    /// every slot of its cut — a slot visited twice without a reset in
    /// between shows — and panics in the cut holding `panic_at`, `panics`
    /// times over.
    fn toy_level(nt: usize, base: usize, len: usize, panic_at: usize, panics: usize) -> ToyRun {
        let mut data = vec![0u64; base + len + 3];
        let mut prof = LevelProfile::default();
        let (left, resets) = (AtomicUsize::new(panics), AtomicUsize::new(0));
        let cuts = Mutex::new(Vec::new());
        let opts = PassOptions::default();
        let mut pass = Pass::begin(Kernel::Forward, nt, &opts, Some(&mut prof));
        let ran = pass.level(
            LEVEL,
            base..base + len,
            &mut data,
            |data, launch| {
                cuts.lock().unwrap().extend(launch.cuts());
                let mut rest = &mut data[base..base + len];
                let windows = launch.cuts().map(|cut| carve(&mut rest, cut.len()));
                launch.run(windows, |cut, window| {
                    let armed = cut.contains(&panic_at)
                        && left
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                            .is_ok();
                    for (item, slot) in cut.zip(window) {
                        *slot += item as u64 + 1;
                        assert!(!(armed && item == panic_at), "toy panic at item {item}");
                    }
                })
            },
            |data| {
                resets.fetch_add(1, Ordering::SeqCst);
                data[base..base + len].fill(0);
            },
        );
        let outcome = ran.map(|()| pass.finish());
        ToyRun {
            data,
            outcome,
            cuts: cuts.into_inner().unwrap(),
            resets: resets.into_inner(),
            prof,
        }
    }

    #[test]
    fn cuts_cover_the_level_exactly_once_with_global_indices() {
        // (threads, base, len): lengths that do and do not divide by the
        // thread count, below and above the parallel threshold.
        for (nt, base, len) in [
            (4, 100, 2000),
            (3, 7, 2000),
            (8, 3, PAR_THRESHOLD),
            (8, 0, PAR_THRESHOLD - 1),
            (4, 5, 10),
            (1, 9, 4096),
        ] {
            let run = toy_level(nt, base, len, usize::MAX, 0);
            assert!(matches!(run.outcome, Ok(None)), "{nt} {base} {len}");
            for (i, &v) in run.data.iter().enumerate() {
                let want = if (base..base + len).contains(&i) {
                    i as u64 + 1
                } else {
                    0
                };
                assert_eq!(v, want, "slot {i} of ({nt}, {base}, {len})");
            }
            let inline = nt <= 1 || len < PAR_THRESHOLD;
            let n_cuts = if inline {
                1
            } else {
                len.div_ceil(len.div_ceil(nt))
            };
            assert_eq!(run.cuts.len(), n_cuts, "({nt}, {base}, {len})");
            assert_eq!(run.cuts[0].start, base);
            assert_eq!(run.cuts[n_cuts - 1].end, base + len);
            assert!(run.cuts.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!(run.resets, 0);
            // The profile row is (level, _, items).
            assert_eq!(run.prof.passes, 1);
            assert_eq!(run.prof.level_nodes.len(), LEVEL + 1);
            assert_eq!(run.prof.level_nodes[LEVEL], len as u64);
            assert_eq!(run.prof.level_nodes.iter().sum::<u64>(), len as u64);
        }
    }

    #[test]
    fn a_one_shot_panic_is_reset_once_and_retried_to_undisturbed_output() {
        // Spawned (the third of four cuts panics) and inline.
        for (nt, base, len, panic_at) in [
            (4, 100, 2000, 1100 + 17),
            (4, 100, 50, 120),
            (1, 0, 600, 599),
        ] {
            let clean = toy_level(nt, base, len, usize::MAX, 0);
            let run = toy_level(nt, base, len, panic_at, 1);
            let incident = run.outcome.expect("recovered").expect("incident reported");
            assert_eq!(incident.kernel, Kernel::Forward);
            assert_eq!(incident.level, LEVEL);
            assert!(!incident.serial_retry_failed);
            assert!(
                incident.message.contains("toy panic"),
                "{}",
                incident.message
            );
            // The incident names the panicking cut of the first attempt;
            // the retry is one cut over the whole level.
            let (first, retry) = run.cuts.split_at(run.cuts.len() - 1);
            assert!(
                first.contains(&incident.chunk),
                "{:?} in {first:?}",
                incident.chunk
            );
            assert!(incident.chunk.contains(&panic_at));
            assert_eq!(retry.len(), 1);
            assert_eq!(retry[0], base..base + len);
            // The body accumulates, so equal output means the reset ran
            // before the retry; it ran exactly once.
            assert_eq!(run.resets, 1);
            assert_eq!(run.data, clean.data);
            assert_eq!(run.prof.level_nodes[LEVEL], len as u64);
        }
    }

    #[test]
    fn a_persistent_panic_is_a_typed_serial_retry_failure() {
        for (nt, len) in [(4, 2000), (1, 2000), (4, 20)] {
            let run = toy_level(nt, 0, len, len / 2, usize::MAX);
            let Err(InstaError::Runtime(incident)) = run.outcome else {
                panic!("expected Runtime, got {:?}", run.outcome);
            };
            assert!(incident.serial_retry_failed);
            assert_eq!((incident.kernel, incident.level), (Kernel::Forward, LEVEL));
            assert!(incident.chunk.contains(&(len / 2)));
            assert_eq!(run.resets, 1);
        }
    }

    #[test]
    fn an_empty_level_is_polled_but_neither_run_nor_profiled() {
        let mut prof = LevelProfile::default();
        let opts = PassOptions::default();
        let mut pass = Pass::begin(Kernel::Backward, 2, &opts, Some(&mut prof));
        let attempt = |_: &mut (), _: &Launch| -> Option<Panicked> { panic!("nothing to run") };
        pass.level(3, 40..40, &mut (), attempt, |_| {})
            .expect("no work");
        let tok = CancelToken::new();
        tok.cancel();
        let fired = PassOptions {
            cancel: Some(tok),
            deadline: None,
        };
        let mut pass = Pass::begin(Kernel::Backward, 2, &fired, None);
        let err = pass
            .level(3, 40..40, &mut (), attempt, |_| {})
            .expect_err("polled first");
        assert!(matches!(
            err,
            InstaError::Cancelled {
                kernel: Kernel::Backward,
                level: 3,
                ..
            }
        ));
        assert!(prof.level_nodes.is_empty());
    }

    #[test]
    fn resolve_threads_defaults_to_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
