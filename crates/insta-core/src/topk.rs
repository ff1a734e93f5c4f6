//! Fixed-size Top-K priority queue with unique startpoints — paper
//! Algorithm 2.
//!
//! The paper's §III-E explains why these are flat sorted lists rather than
//! heaps: each GPU thread owns its own K-entry list, and the O(K²)
//! comparison/shift pattern beats heap maintenance on massively parallel
//! hardware. On one CPU core that pattern was the bill, so the kernels no
//! longer push: a queue is a *function* of its candidates — per startpoint
//! the largest corner, the K best of those in (corner descending, push
//! order ascending) order — and `forward::merge_node_queue` computes
//! that selection directly over the SoA array slices, writing each queue
//! once.
//!
//! What the kernels use from here: the [`NO_SP`] sentinel and
//! `restore_topk_desc`, the stable corner-order restore of the
//! single-fanin transform. [`TopKQueue`] is the owned queue for callers
//! outside the kernels, and its [`push`](TopKQueue::push) is the literal
//! Algorithm 2 — the oracle the merge's differential property test
//! compares against, candidate by candidate.

/// Sentinel startpoint id for an empty queue slot.
pub const NO_SP: u32 = u32::MAX;

/// One candidate arrival distribution tagged with its startpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Corner arrival value used for ordering (`mean + N_sigma * sigma`).
    pub arrival: f64,
    /// Mean of the arrival distribution.
    pub mean: f64,
    /// Standard deviation of the arrival distribution.
    pub sigma: f64,
    /// Startpoint id.
    pub sp: u32,
}

impl Candidate {
    /// Builds a candidate from an arrival distribution, deriving the
    /// ordering corner by the late-corner rule the kernels use, so
    /// hand-built queues order exactly like kernel-built ones.
    pub fn from_distribution(mean: f64, sigma: f64, n_sigma: f64, sp: u32) -> Self {
        Self {
            arrival: crate::stat::corner_late(mean, sigma, n_sigma),
            mean,
            sigma,
            sp,
        }
    }
}

/// One adjacent compare-exchange of the sorting network: swaps slots
/// `i`/`i+1` of all four lanes when the arrival order is strictly
/// ascending there. The strict compare makes every pass stable (equal
/// keys never swap), which is what keeps the network bit-identical to the
/// insertion restore.
#[inline(always)]
fn cmp_exchange(
    arrivals: &mut [f64],
    means: &mut [f64],
    sigmas: &mut [f64],
    sps: &mut [u32],
    i: usize,
) {
    if arrivals[i] < arrivals[i + 1] {
        arrivals.swap(i, i + 1);
        means.swap(i, i + 1);
        sigmas.swap(i, i + 1);
        sps.swap(i, i + 1);
    }
}

/// Fixed-K odd-even transposition network: K rounds of alternating
/// adjacent compare-exchanges, fully unrolled by the const parameter.
/// Sorts all K slots into descending arrival order.
///
/// Stability (strict compares only) makes the output identical to a
/// stable insertion sort, which is what gives bit-identity with
/// [`restore_topk_desc`]'s scalar path.
#[inline]
pub(crate) fn sort_network_desc<const K: usize>(
    arrivals: &mut [f64],
    means: &mut [f64],
    sigmas: &mut [f64],
    sps: &mut [u32],
) {
    debug_assert!(arrivals.len() == K);
    for round in 0..K {
        let mut i = round & 1;
        while i + 1 < K {
            cmp_exchange(arrivals, means, sigmas, sps, i);
            i += 2;
        }
    }
}

/// Restores descending arrival order over the first `live` slots of a
/// queue whose entries were written by a bulk SoA transform (the
/// single-fanin fast path): a *full* queue of a common K dispatches to the
/// unrolled compare-exchange network, everything else to a stable insertion
/// restore over the live prefix. Both are stable descending sorts, so the
/// result is bit-identical to the old interleaved per-entry insertion — and
/// identical between the two paths. Slots at or past `live` are dead and
/// never read.
#[inline]
pub(crate) fn restore_topk_desc(
    arrivals: &mut [f64],
    means: &mut [f64],
    sigmas: &mut [f64],
    sps: &mut [u32],
    live: usize,
) {
    match (arrivals.len(), live) {
        (2, 2) => return sort_network_desc::<2>(arrivals, means, sigmas, sps),
        (4, 4) => return sort_network_desc::<4>(arrivals, means, sigmas, sps),
        (8, 8) => return sort_network_desc::<8>(arrivals, means, sigmas, sps),
        _ => {}
    }
    for j in 1..live {
        let mut i = j;
        while i > 0 && arrivals[i - 1] < arrivals[i] {
            arrivals.swap(i - 1, i);
            means.swap(i - 1, i);
            sigmas.swap(i - 1, i);
            sps.swap(i - 1, i);
            i -= 1;
        }
    }
}

/// An owned Top-K queue over [`Candidate`]s, updated one push at a time
/// by the literal Algorithm 2. The kernels compute the same queue as one
/// selection; this is what they are tested against.
///
/// # Examples
///
/// ```
/// use insta_engine::topk::{Candidate, TopKQueue};
///
/// // The ordering corner is the Gaussian POCV late corner,
/// // `mean + n_sigma * sigma` (here n_sigma = 3).
/// let mut q = TopKQueue::new(2);
/// q.push(Candidate::from_distribution(5.0, 0.0, 3.0, 1));
/// q.push(Candidate::from_distribution(8.5, 0.5, 3.0, 2)); // corner 10.0
/// q.push(Candidate::from_distribution(7.0, 0.0, 3.0, 3)); // evicts sp 1
/// q.push(Candidate::from_distribution(6.0, 0.0, 3.0, 2)); // ignored: smaller
/// let sps: Vec<u32> = q.entries().map(|c| c.sp).collect();
/// assert_eq!(sps, vec![2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopKQueue {
    arrivals: Vec<f64>,
    means: Vec<f64>,
    sigmas: Vec<f64>,
    sps: Vec<u32>,
}

impl TopKQueue {
    /// Creates an empty queue of capacity `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "Top-K capacity must be positive");
        Self {
            arrivals: vec![f64::NEG_INFINITY; k],
            means: vec![0.0; k],
            sigmas: vec![0.0; k],
            sps: vec![NO_SP; k],
        }
    }

    /// The queue capacity K.
    pub fn capacity(&self) -> usize {
        self.arrivals.len()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.sps.iter().filter(|&&s| s != NO_SP).count()
    }

    /// Whether no candidate has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.sps[0] == NO_SP
    }

    /// Pushes a candidate — a literal transcription of paper Algorithm 2,
    /// maintaining descending `arrival` order and startpoint uniqueness:
    ///
    /// 1. if `sp` already exists, replace its entry when the new arrival
    ///    is strictly larger (then bubble it toward the front, stopping
    ///    behind equal keys);
    /// 2. otherwise insert at the sorted position (behind equal keys),
    ///    shifting smaller entries down and dropping the last one.
    ///
    /// Empty slots hold `arrival = -INF` and `sp = NO_SP`.
    pub fn push(&mut self, cand: Candidate) {
        let k = self.capacity();
        // Step 1: startpoint uniqueness. Occupied slots are dense from the
        // front, so the scan stops at the first empty slot — where a new
        // startpoint is inserted.
        let found = (0..k).find(|&j| self.sps[j] == NO_SP || self.sps[j] == cand.sp);
        let pos = match found {
            Some(j) if self.sps[j] != NO_SP && cand.arrival <= self.arrivals[j] => return,
            Some(j) => j,
            // Step 2: a full queue takes a new startpoint only above its
            // floor, in place of the last entry.
            None if cand.arrival <= self.arrivals[k - 1] => return,
            None => k - 1,
        };
        self.arrivals[pos] = cand.arrival;
        self.means[pos] = cand.mean;
        self.sigmas[pos] = cand.sigma;
        self.sps[pos] = cand.sp;
        // Bubble up: the entry may outrank predecessors.
        let mut i = pos;
        while i > 0 && self.arrivals[i - 1] < self.arrivals[i] {
            self.arrivals.swap(i - 1, i);
            self.means.swap(i - 1, i);
            self.sigmas.swap(i - 1, i);
            self.sps.swap(i - 1, i);
            i -= 1;
        }
    }

    /// Iterates occupied entries in descending arrival order.
    pub fn entries(&self) -> impl Iterator<Item = Candidate> + '_ {
        (0..self.capacity())
            .filter(|&i| self.sps[i] != NO_SP)
            .map(|i| Candidate {
                arrival: self.arrivals[i],
                mean: self.means[i],
                sigma: self.sigmas[i],
                sp: self.sps[i],
            })
    }

    /// The most critical entry, if any.
    pub fn top(&self) -> Option<Candidate> {
        self.entries().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_support::prop::{for_all, Config};
    use insta_support::prop_assert_eq;

    fn cand(arrival: f64, sp: u32) -> Candidate {
        Candidate {
            arrival,
            mean: arrival,
            sigma: 0.0,
            sp,
        }
    }

    #[test]
    fn keeps_descending_order() {
        let mut q = TopKQueue::new(4);
        for (a, sp) in [(3.0, 0), (9.0, 1), (1.0, 2), (7.0, 3)] {
            q.push(cand(a, sp));
        }
        let arr: Vec<f64> = q.entries().map(|c| c.arrival).collect();
        assert_eq!(arr, vec![9.0, 7.0, 3.0, 1.0]);
    }

    #[test]
    fn evicts_smallest_when_full() {
        let mut q = TopKQueue::new(2);
        q.push(cand(3.0, 0));
        q.push(cand(9.0, 1));
        q.push(cand(7.0, 2));
        let sps: Vec<u32> = q.entries().map(|c| c.sp).collect();
        assert_eq!(sps, vec![1, 2]);
    }

    #[test]
    fn duplicate_sp_keeps_larger_arrival() {
        let mut q = TopKQueue::new(3);
        q.push(cand(5.0, 7));
        q.push(cand(3.0, 7)); // smaller, ignored
        assert_eq!(q.len(), 1);
        assert_eq!(q.top().unwrap().arrival, 5.0);
        q.push(cand(8.0, 7)); // larger, replaces
        assert_eq!(q.len(), 1);
        assert_eq!(q.top().unwrap().arrival, 8.0);
    }

    #[test]
    fn updated_sp_bubbles_to_correct_rank() {
        let mut q = TopKQueue::new(3);
        q.push(cand(9.0, 0));
        q.push(cand(5.0, 1));
        q.push(cand(4.0, 2));
        // sp 2 jumps from rank 2 to rank 0.
        q.push(cand(11.0, 2));
        let order: Vec<u32> = q.entries().map(|c| c.sp).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn rejects_candidate_below_floor() {
        let mut q = TopKQueue::new(2);
        q.push(cand(9.0, 0));
        q.push(cand(8.0, 1));
        q.push(cand(1.0, 2));
        let sps: Vec<u32> = q.entries().map(|c| c.sp).collect();
        assert_eq!(sps, vec![0, 1]);
    }

    #[test]
    fn k_equals_one_degenerates_to_worst_arrival() {
        let mut q = TopKQueue::new(1);
        for (a, sp) in [(2.0, 0), (8.0, 1), (5.0, 2)] {
            q.push(cand(a, sp));
        }
        assert_eq!(q.top().unwrap().arrival, 8.0);
        assert_eq!(q.top().unwrap().sp, 1);
    }

    /// The queue must always hold the K largest arrivals over unique
    /// startpoints, in descending order — compared against a brute-force
    /// oracle.
    #[test]
    fn matches_brute_force_oracle() {
        for_all(
            Config::cases(64).seed(0x70_9C01),
            |rng| {
                let n = rng.gen_range(1usize..60);
                let cands: Vec<(u32, f64)> = (0..n)
                    .map(|_| (rng.gen_range(0u32..12), rng.gen_range(0.0f64..100.0)))
                    .collect();
                (cands, rng.gen_range(1usize..8))
            },
            |(cands, k)| {
                let k = (*k).max(1);
                let mut q = TopKQueue::new(k);
                for &(sp, a) in cands {
                    q.push(cand(a, sp));
                }
                // Oracle: max arrival per sp, then top-k desc.
                let mut best: std::collections::HashMap<u32, f64> = Default::default();
                for &(sp, a) in cands {
                    let e = best.entry(sp).or_insert(f64::NEG_INFINITY);
                    if a > *e {
                        *e = a;
                    }
                }
                let mut want: Vec<(f64, u32)> = best.into_iter().map(|(sp, a)| (a, sp)).collect();
                want.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
                want.truncate(k);
                let got: Vec<f64> = q.entries().map(|c| c.arrival).collect();
                let want_arr: Vec<f64> = want.iter().map(|&(a, _)| a).collect();
                prop_assert_eq!(got, want_arr);
                Ok(())
            },
        );
    }

    /// The fixed-K odd-even transposition network is a *stable* descending
    /// sort: against a library stable sort over `(arrival, payload)`
    /// tuples — with quantized arrivals forcing plenty of equal keys — the
    /// network must agree on every lane, bit for bit. Stability is what
    /// makes the network interchangeable with the insertion restore (and
    /// hence with Algorithm 2 fed a single-fanin push sequence).
    #[test]
    fn network_matches_a_stable_descending_sort_with_ties() {
        fn run<const K: usize>(entries: &[(f64, u32)]) -> Result<(), String> {
            let mut qa: Vec<f64> = entries.iter().map(|e| e.0).collect();
            // Payloads tag the original position so stability is visible
            // through equal arrival keys.
            let mut qm: Vec<f64> = (0..K).map(|i| i as f64).collect();
            let mut qs: Vec<f64> = (0..K).map(|i| 100.0 + i as f64).collect();
            let mut qsp: Vec<u32> = entries.iter().map(|e| e.1).collect();

            let mut want: Vec<(f64, f64, f64, u32)> =
                (0..K).map(|i| (qa[i], qm[i], qs[i], qsp[i])).collect();
            want.sort_by(|x, y| y.0.total_cmp(&x.0)); // stable, descending

            sort_network_desc::<K>(&mut qa, &mut qm, &mut qs, &mut qsp);
            for i in 0..K {
                prop_assert_eq!(qa[i].to_bits(), want[i].0.to_bits());
                prop_assert_eq!(qm[i].to_bits(), want[i].1.to_bits());
                prop_assert_eq!(qs[i].to_bits(), want[i].2.to_bits());
                prop_assert_eq!(qsp[i], want[i].3);
            }
            Ok(())
        }
        for_all(
            Config::cases(128).seed(0x70_9C06),
            |rng| {
                (0..8)
                    .map(|_| {
                        // Quantized keys: equal arrivals are common, and a
                        // sprinkle of -INF exercises the empty-tail slots.
                        let a = if rng.bounded_u64(5) == 0 {
                            f64::NEG_INFINITY
                        } else {
                            rng.bounded_u64(4) as f64
                        };
                        (a, rng.gen_range(0u32..100))
                    })
                    .collect::<Vec<(f64, u32)>>()
            },
            |entries| {
                run::<2>(&entries[..2])?;
                run::<4>(&entries[..4])?;
                run::<8>(entries)
            },
        );
    }

    /// [`restore_topk_desc`] — network dispatch for a full queue of
    /// K ∈ {2, 4, 8}, insertion restore otherwise — must equal a stable
    /// descending sort of the live prefix for *every* K, and must never
    /// read or disturb the dead tail, whatever it holds (here keys that
    /// would outrank every live entry).
    #[test]
    fn restore_is_a_stable_sort_of_the_live_prefix_for_every_k() {
        for_all(
            Config::cases(96).seed(0x70_9C07),
            |rng| {
                let k = rng.gen_range(1usize..11);
                let live = rng.gen_range(0usize..=k);
                let arrivals: Vec<f64> = (0..live).map(|_| rng.bounded_u64(5) as f64).collect();
                (k, arrivals)
            },
            |(k, live_arrivals)| {
                let (k, live) = (*k, live_arrivals.len());
                let mut qa = vec![1e9; k];
                let mut qm = vec![0.0f64; k];
                let mut qs = vec![0.0f64; k];
                let mut qsp = vec![7u32; k];
                for (j, &a) in live_arrivals.iter().enumerate() {
                    qa[j] = a;
                    qm[j] = j as f64; // position tags, as above
                    qs[j] = 100.0 + j as f64;
                    qsp[j] = j as u32;
                }
                // Stale garbage in the dead tail: the restore must leave
                // every one of these bits alone.
                for j in live..k {
                    qm[j] = -7.25;
                    qs[j] = -3.5;
                }
                let mut want: Vec<(f64, f64, f64, u32)> =
                    (0..live).map(|j| (qa[j], qm[j], qs[j], qsp[j])).collect();
                want.sort_by(|x, y| y.0.total_cmp(&x.0));

                restore_topk_desc(&mut qa, &mut qm, &mut qs, &mut qsp, live);
                for j in 0..live {
                    prop_assert_eq!(qa[j].to_bits(), want[j].0.to_bits());
                    prop_assert_eq!(qm[j].to_bits(), want[j].1.to_bits());
                    prop_assert_eq!(qs[j].to_bits(), want[j].2.to_bits());
                    prop_assert_eq!(qsp[j], want[j].3);
                }
                for j in live..k {
                    prop_assert_eq!(qa[j], 1e9);
                    prop_assert_eq!(qm[j].to_bits(), (-7.25f64).to_bits());
                    prop_assert_eq!(qs[j].to_bits(), (-3.5f64).to_bits());
                    prop_assert_eq!(qsp[j], 7);
                }
                Ok(())
            },
        );
    }

    /// [`TopKQueue::push`] against its definition (`forward.rs`, "What a
    /// queue is"), after every push: per startpoint the pushed candidate
    /// with the largest corner, the earliest pushed among equals; those
    /// ordered by corner descending, then push position ascending;
    /// truncated to K. The definition is a sort-based selection: every
    /// pushed candidate in that order, the first of each startpoint kept.
    /// Small sp and arrival domains make duplicate startpoints, equal keys,
    /// floor rejections and empty-tail inserts the common case, and the
    /// sigma lane carries the push position, so a wrong pick among equal
    /// keys shows.
    #[test]
    fn push_equals_its_definition_after_every_push() {
        for_all(
            Config::cases(192).seed(0x70_9C08),
            |rng| {
                let k = rng.gen_range(1usize..7);
                let n = rng.gen_range(1usize..50);
                let pushes: Vec<(u32, f64)> = (0..n)
                    .map(|_| (rng.gen_range(0u32..6), rng.bounded_u64(6) as f64))
                    .collect();
                (k, pushes)
            },
            |(k, pushes)| {
                let as_candidate = |i: usize| Candidate {
                    arrival: pushes[i].1,
                    mean: pushes[i].1 - 0.5,
                    sigma: i as f64,
                    sp: pushes[i].0,
                };
                let bits = |c: Candidate| {
                    (
                        c.arrival.to_bits(),
                        c.mean.to_bits(),
                        c.sigma.to_bits(),
                        c.sp,
                    )
                };
                let mut queue = TopKQueue::new(*k);
                for i in 0..pushes.len() {
                    queue.push(as_candidate(i));
                    let mut order: Vec<usize> = (0..=i).collect();
                    order.sort_by(|&x, &y| pushes[y].1.total_cmp(&pushes[x].1).then(x.cmp(&y)));
                    let mut seen = std::collections::HashSet::new();
                    let want: Vec<_> = order
                        .into_iter()
                        .filter(|&at| seen.insert(pushes[at].0))
                        .take(*k)
                        .map(|at| bits(as_candidate(at)))
                        .collect();
                    let got: Vec<_> = queue.entries().map(bits).collect();
                    prop_assert_eq!(got, want);
                }
                Ok(())
            },
        );
    }

    /// Startpoints in the queue are always unique.
    #[test]
    fn startpoints_stay_unique() {
        for_all(
            Config::cases(64).seed(0x70_9C02),
            |rng| {
                let n = rng.gen_range(1usize..40);
                (0..n)
                    .map(|_| (rng.gen_range(0u32..6), rng.gen_range(0.0f64..50.0)))
                    .collect::<Vec<(u32, f64)>>()
            },
            |cands| {
                let mut q = TopKQueue::new(4);
                for &(sp, a) in cands {
                    q.push(cand(a, sp));
                }
                let sps: Vec<u32> = q.entries().map(|c| c.sp).collect();
                let uniq: std::collections::HashSet<u32> = sps.iter().copied().collect();
                prop_assert_eq!(sps.len(), uniq.len());
                Ok(())
            },
        );
    }
}

/// Top-K invariants of a *batched* lane (ISSUE 4, restated for ISSUE 14's
/// lane procedure): every queue a lane's in-place cone sweep recomputes
/// must satisfy the same Algorithm-2 invariants as the full pass —
/// descending order, unique startpoints — and the undo must give every
/// bit back; a lane's report must
/// not depend on its neighbours or its position in the batch; and it must
/// agree with the dense `metrics::evaluate` on a re-annotated twin.
#[cfg(test)]
mod batched_tests {
    use crate::batch::Scenario;
    use crate::engine::{InstaConfig, InstaEngine};
    use crate::incremental::Txn;
    use crate::parallel::PassOptions;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::eco::ArcDelta;
    use insta_refsta::{RefSta, StaConfig};
    use insta_support::prop::{for_all, Config};
    use insta_support::prop_assert;
    use insta_support::rng::Rng;

    /// About 900 nodes, so a few deltas stay under the cone's seed switch
    /// and every lane is an in-place cone lane.
    fn build(seed: u64, cppr: bool) -> (RefSta, InstaEngine) {
        let design = generate_design(&GeneratorConfig {
            n_flops: 32,
            logic_levels: 6,
            gates_per_level: 36,
            ..GeneratorConfig::small("topk_batch", seed)
        });
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let cfg = InstaConfig {
            cppr,
            ..InstaConfig::default()
        };
        let mut engine = InstaEngine::new(golden.export_insta_init(), cfg).expect("valid snapshot");
        engine.propagate();
        (golden, engine)
    }

    fn scenarios(golden: &RefSta, rng: &mut Rng, s: usize) -> Vec<Scenario> {
        let delays = golden.delays();
        let n_arcs = delays.mean.len() as u64;
        (0..s)
            .map(|_| {
                let len = 1 + rng.bounded_u64(4) as usize;
                Scenario::from(
                    (0..len)
                        .map(|_| {
                            let arc = rng.bounded_u64(n_arcs) as u32;
                            let mean = delays.mean[arc as usize];
                            let sigma = delays.sigma[arc as usize];
                            ArcDelta {
                                arc,
                                mean: [
                                    mean[0] + rng.next_f64() * 30.0,
                                    mean[1] + rng.next_f64() * 30.0,
                                ],
                                sigma: [sigma[0] * 1.5, sigma[1] * 1.5],
                            }
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn report_bits(r: &crate::metrics::InstaReport) -> Vec<u64> {
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

    /// Everything a lane may move: both bases' Top-K queues (dense view:
    /// every live entry, a virtual node's included) and the annotations.
    fn image(engine: &InstaEngine, scratch: &crate::engine::State) -> Vec<u64> {
        let mut bits = Vec::new();
        for s in [&engine.state, scratch] {
            bits.extend(crate::scalar_ref::dense_view::<false>(&engine.st, s).bits());
        }
        let ann = engine.st.arc_mean.iter().chain(&engine.st.arc_sigma);
        bits.extend(ann.flatten().map(|v| v.to_bits()));
        bits
    }

    /// Queue invariants per recomputed stored node, read off the swept
    /// rows *before* the undo: descending corner arrivals and unique
    /// startpoints over the live entries. Lanes run alternately on the
    /// engine's live arrays and on a scratch copy standing in for them (a
    /// corner group's base); dropping the lane's transaction gives every
    /// queue and annotation bit back.
    #[test]
    fn batched_lane_queues_keep_algorithm2_invariants() {
        for_all(
            Config::cases(8).seed(0x70_9C03),
            |rng| (rng.bounded_u64(32), rng.next_u64()),
            |&(dseed, stream)| {
                let (golden, mut engine) = build(dseed, true);
                let mut rng = Rng::seed_from_u64(stream);
                let sets = scenarios(&golden, &mut rng, 7);
                let mut scratch = engine.state.clone();
                let before = image(&engine, &scratch);
                let k = engine.state.k;
                let mut recomputed = 0usize;
                for (lane_no, set) in sets.iter().enumerate() {
                    let on_scratch = lane_no % 2 == 1;
                    if on_scratch {
                        std::mem::swap(&mut engine.state, &mut scratch);
                    }
                    let mut txn = Txn::begin(&mut engine);
                    let swept = txn.sweep(&set.deltas, &crate::PassOptions::default());
                    prop_assert!(matches!(swept, Ok(None)), "clean sweep");
                    let lane = &*txn.eng;
                    for v in 0..lane.st.n {
                        let Some(row) = lane.st.row_of(v) else {
                            continue;
                        };
                        if !lane.cone.recomputed(v as u32) {
                            continue;
                        }
                        recomputed += 1;
                        for rf in 0..2 {
                            let q = lane.state.lanes(&lane.st).row(row, rf);
                            prop_assert!(q.sp.len() <= k, "live count past K");
                            let mut seen = std::collections::HashSet::new();
                            let mut last = f64::INFINITY;
                            for j in 0..q.sp.len() {
                                prop_assert!(seen.insert(q.sp[j]), "duplicate startpoint");
                                let corner = q.mean[j] + lane.st.n_sigma * q.sigma[j];
                                prop_assert!(last >= corner, "order violated");
                                last = corner;
                            }
                        }
                    }
                    drop(txn);
                    if on_scratch {
                        std::mem::swap(&mut engine.state, &mut scratch);
                    }
                    prop_assert!(
                        image(&engine, &scratch) == before,
                        "lane {lane_no}: the undo left a trace"
                    );
                }
                prop_assert!(recomputed > 0, "deltas produced no cone");
                Ok(())
            },
        );
    }

    /// No cross-scenario aliasing: a lane's report is the same alone, in
    /// the batch, and in the reversed batch.
    #[test]
    fn batched_lanes_do_not_alias() {
        for_all(
            Config::cases(8).seed(0x70_9C04),
            |rng| (rng.bounded_u64(32), rng.next_u64()),
            |&(dseed, stream)| {
                let (golden, mut engine) = build(dseed, true);
                let mut rng = Rng::seed_from_u64(stream);
                let sets = scenarios(&golden, &mut rng, 4);
                let reversed: Vec<Scenario> = sets.iter().rev().cloned().collect();
                let all = engine.evaluate(&sets, &PassOptions::default()).scenarios;
                let rev = engine
                    .evaluate(&reversed, &PassOptions::default())
                    .scenarios;
                for (lane, set) in sets.iter().enumerate() {
                    let solo = engine
                        .evaluate(std::slice::from_ref(set), &PassOptions::default())
                        .scenarios;
                    let want = report_bits(solo[0].outcome.as_ref().expect("valid lane"));
                    for got in [&all[lane], &rev[sets.len() - 1 - lane]] {
                        prop_assert!(
                            report_bits(got.outcome.as_ref().expect("valid lane")) == want,
                            "lane {lane} depends on its batch"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// A lane's report — including the CPPR credit path — agrees
    /// bit-for-bit with the dense `metrics::evaluate` on a twin that was
    /// re-annotated with the lane's deltas and fully propagated.
    #[test]
    fn batched_cppr_evaluation_matches_dense_metrics() {
        for_all(
            Config::cases(6).seed(0x70_9C05),
            |rng| (rng.bounded_u64(32), rng.next_u64(), rng.bounded_u64(2) == 0),
            |&(dseed, stream, cppr)| {
                let (golden, mut engine) = build(dseed, cppr);
                let mut rng = Rng::seed_from_u64(stream);
                let sets = scenarios(&golden, &mut rng, 3);
                let got = engine.evaluate(&sets, &PassOptions::default()).scenarios;
                for (lane, set) in sets.iter().enumerate() {
                    let mut twin = engine.clone();
                    twin.reannotate(&set.deltas).expect("valid deltas");
                    let st = &twin.st;
                    crate::forward::forward::<false>(
                        st,
                        &mut twin.state,
                        1,
                        &crate::PassOptions::default(),
                        None,
                        &crate::forward::source_launch(st),
                        &mut Default::default(),
                    )
                    .expect("clean pass");
                    let want = crate::metrics::evaluate(&twin.st, &twin.state, cppr);
                    let got = got[lane].outcome.as_ref().expect("valid lane");
                    prop_assert!(
                        report_bits(got) == report_bits(&want),
                        "lane {lane} differs from the dense evaluation"
                    );
                }
                Ok(())
            },
        );
    }
}
