//! Hierarchical span recorder with a bounded journal and JSON-lines
//! export (replaces `tracing` + `tracing-subscriber` in the hermetic
//! workspace).
//!
//! A [`Recorder`] keeps a LIFO stack of *open* spans and a bounded ring of
//! *closed* [`SpanEvent`]s. Timestamps are nanoseconds relative to the
//! recorder's construction instant (monotonic — `Instant`, never wall
//! clock), so journals from one process are directly comparable and the
//! export contains no absolute time.
//!
//! Design points, in order of importance:
//!
//! * **Pay for what you use.** A span is two `Instant::now()` calls, a
//!   `Vec` push and a scan of the per-name sums; there is no locking, no
//!   thread-local registry, and no formatting until
//!   [`Recorder::export_jsonl`] is called. Callers that trace hot loops
//!   gate the recorder behind an `Option` so the disabled path is a branch
//!   on a `None`.
//! * **Bounded memory.** The journal is a ring of at most `capacity`
//!   events; older events are evicted (counted by [`Recorder::dropped`])
//!   rather than growing without bound inside a long optimization loop.
//! * **Close-time ordering.** Events are journaled when a span *closes*,
//!   so a parent appears after its children. Consumers that want start
//!   order sort by `start_ns` (ties broken by `seq`, which is assigned at
//!   open time and strictly increasing).
//!
//! Numeric payloads ride on spans as `(&'static str, f64)` fields — enough
//! for counters, durations, and occupancies without dragging in a dynamic
//! value model. Every closed span also adds to its name's exact [`SpanSum`]
//! ([`Recorder::sum`]), which eviction never touches.
//!
//! Beside the journal, a [`LatencyHistogram`] keeps a whole distribution
//! in relaxed atomics, for a path too hot or too shared to journal every
//! sample: the daemon's WAL `fdatasync` and its per-op request times.

use crate::json::{Json, ToJson};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A latency distribution in log2 buckets of microseconds: bucket `b`
/// counts samples in `[2^(b-1), 2^b)` µs (bucket 0: under 1 µs), the last
/// one everything from ~4 s up. Lock-free; a quantile reads as the upper
/// edge of its bucket.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 24],
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Adds one sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros() as u64;
        let b = (64 - us.leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The bucket edge (µs) below which a `q` share of the samples fall;
    /// 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let rank = (total as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (b, n) in counts.iter().enumerate() {
            seen += n;
            if total > 0 && seen >= rank.max(1) {
                return 1 << b;
            }
        }
        0
    }

    /// The largest sample (µs), exact.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }
}

/// Default bound on the journaled event ring.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One closed span or instantaneous event in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (static: names come from the instrumentation sites).
    pub name: &'static str,
    /// Open timestamp, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; `0` for instantaneous events.
    pub dur_ns: u64,
    /// Nesting depth at open time (root spans are depth 0).
    pub depth: u32,
    /// Open-order sequence number (strictly increasing per recorder).
    pub seq: u64,
    /// `true` for instantaneous [`Recorder::event`]s, `false` for spans.
    pub instant: bool,
    /// Numeric payload attached at close time.
    pub fields: Vec<(&'static str, f64)>,
}

impl SpanEvent {
    /// Close timestamp (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Looks up a payload field by name.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

impl ToJson for SpanEvent {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("start_ns".to_string(), (self.start_ns as f64).to_json()),
            ("dur_ns".to_string(), (self.dur_ns as f64).to_json()),
            ("depth".to_string(), (self.depth as f64).to_json()),
            ("seq".to_string(), (self.seq as f64).to_json()),
            ("instant".to_string(), Json::Bool(self.instant)),
        ];
        if !self.fields.is_empty() {
            let fields: Vec<(String, Json)> = self
                .fields
                .iter()
                .map(|&(n, v)| (n.to_string(), v.to_json()))
                .collect();
            pairs.push(("fields".to_string(), Json::Obj(fields)));
        }
        Json::Obj(pairs)
    }
}

/// Every span of one name a recorder has closed: how many, and their
/// summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSum {
    /// Spans closed.
    pub count: u64,
    /// Their summed duration (ns).
    pub ns: u64,
}

impl SpanSum {
    /// The summed duration in seconds.
    pub fn secs(self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// An open span on the recorder's stack.
#[derive(Debug, Clone)]
struct OpenSpan {
    name: &'static str,
    start: Instant,
    start_ns: u64,
    seq: u64,
}

/// Hierarchical span recorder with a bounded event ring.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    stack: Vec<OpenSpan>,
    ring: VecDeque<SpanEvent>,
    capacity: usize,
    next_seq: u64,
    total: u64,
    dropped: u64,
    sums: Vec<(&'static str, SpanSum)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with the [`DEFAULT_CAPACITY`] journal bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder journaling at most `capacity` events (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            stack: Vec::new(),
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            total: 0,
            dropped: 0,
            sums: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. Must be matched by [`end`](Self::end) /
    /// [`end_with`](Self::end_with); spans close LIFO.
    pub fn begin(&mut self, name: &'static str) {
        let start = Instant::now();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stack.push(OpenSpan {
            name,
            start,
            start_ns,
            seq,
        });
    }

    /// Closes the innermost open span with no payload.
    pub fn end(&mut self) {
        self.end_with(&[]);
    }

    /// Closes the innermost open span, attaching a numeric payload.
    ///
    /// Closing with an empty stack is a no-op (debug-asserted): an
    /// instrumentation site that unwinds past its `end` must not corrupt
    /// the journal.
    pub fn end_with(&mut self, fields: &[(&'static str, f64)]) {
        debug_assert!(!self.stack.is_empty(), "Recorder::end without begin");
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let depth = self.stack.len() as u32;
        match self.sums.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, sum)) => {
                sum.count += 1;
                sum.ns += dur_ns;
            }
            None => self.sums.push((open.name, SpanSum { count: 1, ns: dur_ns })),
        }
        self.push(SpanEvent {
            name: open.name,
            start_ns: open.start_ns,
            dur_ns,
            depth,
            seq: open.seq,
            instant: false,
            fields: fields.to_vec(),
        });
    }

    /// Journals an instantaneous event at the current depth.
    pub fn event(&mut self, name: &'static str, fields: &[(&'static str, f64)]) {
        let start_ns = self.now_ns();
        let seq = self.next_seq;
        self.next_seq += 1;
        let depth = self.stack.len() as u32;
        self.push(SpanEvent {
            name,
            start_ns,
            dur_ns: 0,
            depth,
            seq,
            instant: true,
            fields: fields.to_vec(),
        });
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
        self.total += 1;
    }

    /// The journaled events, oldest first (close order).
    pub fn events(&self) -> impl Iterator<Item = &SpanEvent> {
        self.ring.iter()
    }

    /// Events journaled and still retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Spans currently open (unbalanced `begin`s).
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Events ever journaled, including evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted from the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every span named `name` closed so far, evicted ones included.
    pub fn sum(&self, name: &str) -> SpanSum {
        let found = self.sums.iter().find(|(n, _)| *n == name);
        found.map_or_else(SpanSum::default, |&(_, sum)| sum)
    }

    /// Drops all journaled events (open spans, counters and sums are kept).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// The journal as JSON lines: one compact object per retained event,
    /// oldest first. Open spans are not exported.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.ring {
            out.push_str(&ev.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_order() {
        let mut r = Recorder::new();
        r.begin("outer");
        r.begin("inner");
        r.end_with(&[("n", 3.0)]);
        r.event("tick", &[]);
        r.end();
        let evs: Vec<_> = r.events().cloned().collect();
        assert_eq!(evs.len(), 3);
        // Close order: inner, tick, outer.
        let (inner, tick, outer) = (&evs[0], &evs[1], &evs[2]);
        assert_eq!(inner.name, "inner");
        assert_eq!(tick.name, "tick");
        assert_eq!(outer.name, "outer");
        // Nesting: child opens after and closes before its parent, one
        // level deeper.
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(tick.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        // Open-order sequence: outer < inner < tick.
        assert!(outer.seq < inner.seq);
        assert!(inner.seq < tick.seq);
        assert!(tick.instant && !inner.instant);
        assert_eq!(inner.field("n"), Some(3.0));
        assert_eq!(r.open_depth(), 0);
    }

    #[test]
    fn timestamps_are_monotonic_in_seq_order() {
        let mut r = Recorder::new();
        for _ in 0..8 {
            r.begin("a");
            r.event("e", &[]);
            r.end();
        }
        let mut evs: Vec<_> = r.events().cloned().collect();
        evs.sort_by_key(|e| e.seq);
        for w in evs.windows(2) {
            assert!(w[1].start_ns >= w[0].start_ns, "monotonic open times");
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut r = Recorder::with_capacity(4);
        for _ in 0..10 {
            r.event("e", &[]);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 10);
        assert_eq!(r.dropped(), 6);
        // The survivors are the newest four.
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn sums_stay_exact_past_eviction() {
        let mut r = Recorder::with_capacity(4);
        let mut seen = 0;
        for _ in 0..10 {
            r.begin("span");
            r.end();
            seen += r.events().last().expect("the span just closed").dur_ns;
        }
        r.event("tick", &[]);
        assert_eq!((r.len(), r.dropped()), (4, 7));
        assert_eq!(r.sum("span"), SpanSum { count: 10, ns: seen });
        // Instant events and unknown names add nothing.
        assert_eq!(r.sum("tick"), SpanSum::default());
        assert_eq!(r.sum("nothing"), SpanSum::default());
    }

    #[test]
    fn end_on_empty_stack_is_a_nop_in_release() {
        let mut r = Recorder::new();
        r.begin("a");
        r.end();
        r.event("only", &[]);
        let before = (r.export_jsonl(), r.sum("a"), r.total());
        let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.end()));
        assert_eq!(ended.is_err(), cfg!(debug_assertions), "debug-asserted in debug only");
        assert_eq!((r.export_jsonl(), r.sum("a"), r.total()), before);
        assert_eq!(r.open_depth(), 0);
    }

    #[test]
    fn latency_quantiles_read_as_bucket_edges() {
        let h = LatencyHistogram::default();
        assert_eq!((h.quantile_us(0.5), h.max_us()), (0, 0));
        for us in [0, 3, 3, 5, 900] {
            h.record(Duration::from_micros(us));
        }
        // Buckets: [<1], [2,4) x2, [4,8), [512,1024).
        assert_eq!(h.quantile_us(0.2), 1);
        assert_eq!(h.quantile_us(0.5), 4);
        assert_eq!(h.quantile_us(0.8), 8);
        assert_eq!(h.quantile_us(0.99), 1024);
        assert_eq!(h.max_us(), 900);
    }

    #[test]
    fn jsonl_round_trips_through_support_json() {
        let mut r = Recorder::new();
        r.begin("pass");
        r.event("incident", &[("kernel", 1.0), ("level", 4.0)]);
        r.end_with(&[("levels", 7.0)]);
        let text = r.export_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, ev) in lines.iter().zip(r.events()) {
            let parsed = json::parse(line).expect("valid JSON line");
            // Write → parse → write is a fixed point.
            assert_eq!(parsed, ev.to_json());
            assert_eq!(parsed.to_string(), *line);
            let obj = match &parsed {
                Json::Obj(pairs) => pairs,
                other => panic!("expected object, got {other:?}"),
            };
            let get = |k: &str| {
                obj.iter()
                    .find(|(n, _)| n == k)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| panic!("missing key {k}"))
            };
            assert_eq!(get("name"), Json::Str(ev.name.to_string()));
            assert_eq!(get("seq").as_f64().ok(), Some(ev.seq as f64));
            assert_eq!(get("start_ns").as_f64().ok(), Some(ev.start_ns as f64));
        }
    }
}
