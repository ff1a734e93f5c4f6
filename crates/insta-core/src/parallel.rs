//! The CPU "kernel launcher" standing in for CUDA grid launches.
//!
//! Each INSTA kernel processes one timing level: every node of the level is
//! independent (the paper maps one pin to one CUDA thread). Because the
//! engine renumbers nodes in level-major order, a level's state is a
//! contiguous slice, so the launcher can hand disjoint chunks to scoped
//! threads with zero unsafe code.
//!
//! Worker panics are **isolated**: each chunk body runs under
//! [`PanicCell::run`], which catches the unwind instead of letting
//! `thread::scope` re-raise it in the launcher. The kernel then resets the
//! level's output window and re-executes it serially (level windows are
//! pure functions of the already-finalized earlier levels, so the retry is
//! bit-identical to an undisturbed run), reporting the incident as
//! [`InstaError::Runtime`](crate::error::InstaError::Runtime).

use crate::error::{InstaError, Kernel};
use insta_support::timer::{CancelToken, Deadline};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// A cooperative interruption request threaded through the level loops.
///
/// Kernels poll [`Interrupt::check`] once per timing level (never inside
/// the data-parallel chunk bodies), so cancellation latency is bounded by
/// one level's work and an interrupted pass is cut at a level boundary —
/// earlier levels are fully written, later levels untouched. The partially
/// refreshed state is still inconsistent *as a whole*, which is why the
/// session layer treats [`InstaError::Cancelled`] as poisoning (rollback).
#[derive(Debug, Clone)]
pub struct Interrupt {
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    started: Instant,
}

impl Interrupt {
    /// An interrupt armed with a token and/or a deadline.
    pub fn new(cancel: Option<CancelToken>, deadline: Option<Deadline>) -> Self {
        Self {
            cancel,
            deadline,
            started: Instant::now(),
        }
    }

    /// A copy of this interrupt with the elapsed clock restarted at *now*.
    ///
    /// Kernel passes call this at entry so a token or deadline reused
    /// across several passes reports `Cancelled { elapsed }` relative to
    /// the pass it actually interrupted, not to when the interrupt was
    /// first armed. The deadline itself is an absolute instant and is
    /// carried over unchanged — only the reporting clock resets.
    pub(crate) fn restarted(&self) -> Interrupt {
        Interrupt {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            started: Instant::now(),
        }
    }

    /// Whether either trigger has fired.
    pub fn fired(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
            || self.deadline.is_some_and(|d| d.expired())
    }

    /// Per-level poll: `Some(InstaError::Cancelled)` when a trigger fired.
    #[inline]
    pub(crate) fn check(&self, kernel: Kernel, level: usize) -> Option<InstaError> {
        if self.fired() {
            Some(InstaError::Cancelled {
                kernel,
                level,
                elapsed: self.started.elapsed(),
            })
        } else {
            None
        }
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
/// thread spawn overhead dominates and the launcher runs inline.
pub const PAR_THRESHOLD: usize = 512;

/// Runs `f(global_index, item)` for every item of `items`, splitting the
/// slice into `n_threads` chunks executed by scoped threads. `base` is
/// added to each local index to recover the global index.
///
/// Falls back to an inline loop when the slice is small or one thread was
/// requested.
pub fn launch<T: Send, F>(n_threads: usize, base: usize, items: &mut [T], f: F)
where
    F: Fn(usize, &mut T) + Sync,
{
    let nt = resolve_threads(n_threads);
    if nt <= 1 || items.len() < PAR_THRESHOLD {
        for (i, item) in items.iter_mut().enumerate() {
            f(base + i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(nt);
    std::thread::scope(|s| {
        for (ci, chunk_items) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, item) in chunk_items.iter_mut().enumerate() {
                    f(base + ci * chunk + i, item);
                }
            });
        }
    });
}

/// Like [`launch`] but over ranges instead of slices: calls
/// `f(start..end)` on each thread's sub-range of `base..base + len`. The
/// caller is responsible for making the per-range work disjoint.
pub fn launch_ranges<F>(n_threads: usize, base: usize, len: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let nt = resolve_threads(n_threads);
    if nt <= 1 || len < PAR_THRESHOLD {
        f(base..base + len);
        return;
    }
    let chunk = len.div_ceil(nt);
    std::thread::scope(|s| {
        let mut start = base;
        let end = base + len;
        while start < end {
            let stop = (start + chunk).min(end);
            let f = &f;
            s.spawn(move || f(start..stop));
            start = stop;
        }
    });
}

/// Reusable per-thread scratch of the forward merge
/// ([`merge_node_queue`](crate::forward::merge_node_queue)).
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
    /// anything else (a Trust-mode snapshot) is simply never deduplicated.
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
pub(crate) fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Collects the first worker panic of a kernel launch.
///
/// Every spawned chunk wraps its body in [`PanicCell::run`]; a panicking
/// chunk records its node range and payload here (first writer wins) and
/// the thread exits cleanly, so `thread::scope` joins without re-raising.
pub(crate) struct PanicCell {
    slot: Mutex<Option<(std::ops::Range<usize>, String)>>,
}

impl PanicCell {
    pub(crate) fn new() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }

    /// Runs `f`, converting a panic into a recorded incident for the node
    /// range `chunk`.
    pub(crate) fn run<F: FnOnce()>(&self, chunk: std::ops::Range<usize>, f: F) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some((chunk, payload_message(payload)));
            }
        }
    }

    /// The first recorded panic, if any.
    pub(crate) fn take(&self) -> Option<(std::ops::Range<usize>, String)> {
        self.slot.lock().unwrap_or_else(|p| p.into_inner()).take()
    }
}

/// Deterministic worker-panic injection for the fault-tolerance suites.
///
/// Hidden from docs: this is test machinery, kept in the library (instead
/// of `#[cfg(test)]`) so integration tests can arm it. The cost on the hot
/// path is one relaxed atomic load per dispatched chunk.
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

    /// Called by kernel chunk bodies; panics when armed for this site.
    pub(crate) fn maybe_panic(kernel: Kernel, level: usize) {
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

    #[test]
    fn launch_visits_every_item_once_with_global_indices() {
        let mut data = vec![0usize; 2000];
        launch(4, 100, &mut data, |gi, item| {
            *item = gi;
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 100 + i);
        }
    }

    #[test]
    fn launch_small_runs_inline() {
        let mut data = vec![0u32; 10];
        launch(8, 0, &mut data, |_gi, item| *item += 1);
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn launch_ranges_covers_exactly_once() {
        let hits = AtomicUsize::new(0);
        launch_ranges(4, 7, 4096, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
            assert!(r.start >= 7 && r.end <= 7 + 4096);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4096);
    }

    #[test]
    fn resolve_threads_defaults_to_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn restarted_resets_the_reporting_clock_but_keeps_the_triggers() {
        let tok = insta_support::timer::CancelToken::new();
        let armed = Interrupt::new(Some(tok.clone()), None);
        std::thread::sleep(std::time::Duration::from_millis(25));
        tok.cancel();
        let stale = armed.check(Kernel::Forward, 3).expect("token fired");
        let fresh = armed
            .restarted()
            .check(Kernel::Forward, 3)
            .expect("restart must keep the cancelled token");
        let InstaError::Cancelled { elapsed: aged, .. } = stale else {
            panic!("expected Cancelled");
        };
        let InstaError::Cancelled { elapsed: reset, .. } = fresh else {
            panic!("expected Cancelled");
        };
        assert!(aged >= std::time::Duration::from_millis(25), "{aged:?}");
        assert!(reset < std::time::Duration::from_millis(25), "{reset:?}");
    }
}
