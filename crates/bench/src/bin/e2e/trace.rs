//! Bench-side tracing: a span around each call into a layer's public
//! function, recorded with `insta_support::obs::Recorder` and kept in
//! memory until the repetition ends. Off, a span is the call itself.

use insta_support::obs::{Recorder, SpanEvent};
use std::time::Instant;

/// Room for every span of the longest traced repetition.
const CAPACITY: usize = 1 << 21;

/// Name of the root span of one op; the layer spans are its children.
pub const OP_SPAN: &str = "op";

/// Records spans when on; transparent when off.
#[derive(Debug)]
pub struct Tracer {
    rec: Option<Recorder>,
    /// Index of the op in flight, attached to every span as field `op` so
    /// the spans of one op share an id.
    op: f64,
    /// Which thread of the benchmark recorded the span (field `thread`):
    /// 0 the main caller or the writer, 1 the reader.
    thread: f64,
}

impl Tracer {
    pub fn new(on: bool, thread: u32) -> Self {
        Tracer {
            rec: on.then(|| Recorder::with_capacity(CAPACITY)),
            op: -1.0,
            thread: f64::from(thread),
        }
    }

    pub fn is_on(&self) -> bool {
        self.rec.is_some()
    }

    /// Runs `f` inside a span named after the layer call it wraps.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.rec {
            None => f(),
            Some(rec) => {
                rec.begin(name);
                let r = f();
                rec.end_with(&[("op", self.op), ("thread", self.thread)]);
                r
            }
        }
    }

    /// Like [`span`](Self::span), and also returns the call's wall time in
    /// ms whether tracing is on or not (set-up stages are always timed).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.span(name, || {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_secs_f64() * 1e3)
        })
    }

    /// Opens the root span of op `index`.
    #[inline]
    pub fn begin_op(&mut self, index: usize) {
        self.op = index as f64;
        if let Some(rec) = &mut self.rec {
            rec.begin(OP_SPAN);
        }
    }

    #[inline]
    pub fn end_op(&mut self) {
        if let Some(rec) = &mut self.rec {
            rec.end_with(&[("op", self.op), ("thread", self.thread)]);
        }
        self.op = -1.0;
    }

    /// Forgets what was recorded so far (the warm-up ops).
    pub fn clear(&mut self) {
        if let Some(rec) = &mut self.rec {
            rec.clear();
        }
    }

    pub fn events(&self) -> impl Iterator<Item = &SpanEvent> {
        self.rec.iter().flat_map(|r| r.events())
    }

    /// Durations in ms of every recorded span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.events()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Per op, the share of the root span covered by its child spans: the
    /// root's self time is what no layer span accounts for.
    pub fn coverage(&self) -> Vec<f64> {
        let mut covered: std::collections::BTreeMap<u64, (f64, f64)> = Default::default();
        for e in self.events() {
            let Some(op) = e.field("op").filter(|&op| op >= 0.0) else {
                continue;
            };
            let slot = covered.entry(op as u64).or_default();
            if e.name == OP_SPAN {
                slot.1 += e.dur_ns as f64;
            } else if e.depth == 1 {
                slot.0 += e.dur_ns as f64;
            }
        }
        covered
            .values()
            .filter(|(_, root)| *root > 0.0)
            .map(|(kids, root)| kids / root)
            .collect()
    }

    /// The journal as JSON lines, oldest first.
    pub fn export_jsonl(&self) -> String {
        self.rec
            .as_ref()
            .map_or_else(String::new, Recorder::export_jsonl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_carry_the_op_index_and_cover_their_root() {
        let mut tr = Tracer::new(true, 0);
        for i in 0..3 {
            tr.begin_op(i);
            tr.span("a.call", || std::hint::black_box(1 + 1));
            tr.span("b.call", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            tr.end_op();
        }
        assert_eq!(tr.durations_ms("b.call").len(), 3);
        assert!(tr.durations_ms("b.call").iter().all(|&d| d >= 2.0));
        let ops: Vec<f64> = tr
            .events()
            .filter(|e| e.name == "a.call")
            .map(|e| e.field("op").expect("op field"))
            .collect();
        assert_eq!(ops, vec![0.0, 1.0, 2.0]);
        let cov = tr.coverage();
        assert_eq!(cov.len(), 3);
        assert!(cov.iter().all(|&c| c > 0.9 && c <= 1.0), "{cov:?}");
        assert_eq!(tr.export_jsonl().lines().count(), 9);
        tr.clear();
        assert_eq!(tr.events().count(), 0);
    }

    #[test]
    fn off_tracer_is_transparent() {
        let mut tr = Tracer::new(false, 0);
        tr.begin_op(0);
        let (v, ms) = tr.timed("x", || 7);
        tr.end_op();
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(!tr.is_on());
        assert!(tr.export_jsonl().is_empty());
    }
}
