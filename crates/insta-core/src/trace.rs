//! The engine's observability layer: kernel spans, per-level profiles,
//! and the unified runtime journal.
//!
//! The paper's runtime-breakdown analysis (Fig. 9) splits propagation cost
//! into forward / LSE / backward per timing level; this module is the
//! instrumentation that produces the same split from a live engine instead
//! of ad-hoc timers around the public entry points. One [`TraceSink`] is
//! owned by the engine and threaded through every kernel pass:
//!
//! * a **span** per kernel pass (`"forward"`, `"forward_fused"`, `"hold"`,
//!   `"forward_lse"`, `"backward"`, and `"forward.cone"` — one per cone
//!   update, with its `seeds`, dirty `levels`, recomputed `nodes` and
//!   `pruned` nodes) and one `"batch.sweep"` span per batched `evaluate`
//!   call, in a bounded [`Recorder`] journal.
//!   Every span whose pass runs the evaluation level body also carries its
//!   `fallbacks`: how many virtual parents it had to materialise instead of
//!   gathering through them ([`crate::forward`], "Rows, not nodes") — the
//!   count that rises when a design stops paying for the fast path. A
//!   batched lane emits no `forward.cone` span of its own (64 per call
//!   would eat the ring) and a full pass of the call no `forward` span; the
//!   call's span carries the totals instead: the `lanes` it ran, how many
//!   of them were `corner_lanes`, the scenarios answered under a mode
//!   (`masked_lanes`), `cone_lanes` (lanes that swept a cone — a lane
//!   without deltas is its base's report), `base_passes` (one full pass
//!   into the corner rows per distinct corner a delta lane carries),
//!   `window_passes` (report-only passes: a delta-free corner's base and
//!   every lane past the cone's switch) and `window_rows` (their slot
//!   plan's peak row count), the `nodes` recomputed, `pruned` and
//!   `fallbacks` over all lanes, and `ok`,
//! * a **per-level profile** ([`LevelProfile`]) of cumulative duration and
//!   touched nodes per level per kernel — the data behind
//!   [`InstaEngine::perf_report`](crate::InstaEngine::perf_report). Top-K
//!   merge cost is part of the forward kernel's level body, so it is
//!   attributed to the forward profile,
//! * **events** for session outcomes (`"session.commit"`, and
//!   `"session.rollback"` with the `nodes` and `arcs` its undo log put
//!   back — a rollback is a copy, not a span) and every
//!   [`RuntimeIncident`](crate::error::RuntimeIncident) — the journal is
//!   the time-ordered view of the same facts the monotonic
//!   [`EngineCounters`](crate::metrics::EngineCounters) aggregate.
//!
//! # Overhead contract
//!
//! Tracing is strictly pay-for-what-you-use. Disabled (the default), the
//! sink is a `None` and every instrumentation site is one branch; no
//! `Instant::now()` calls, no allocation. Enabled, the cost is two
//! timestamp reads per kernel pass plus two per *level* (not per node),
//! gated in CI at ≤ 3 % over an untraced `propagate_fused`
//! (`scripts/ci.sh`, `BENCH_obs.json`). Tracing never touches the float
//! pipeline: the determinism suite asserts bit-identical results with the
//! sink enabled and disabled.

use crate::error::Kernel;
use insta_support::json::{Json, ToJson};
use insta_support::obs::Recorder;
use std::fmt;

/// Cumulative per-level duration and touched-node counts for one kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelProfile {
    /// Completed passes accumulated into this profile.
    pub passes: u64,
    /// Cumulative nanoseconds per level (index = timing level).
    pub level_ns: Vec<u64>,
    /// Cumulative nodes processed per level.
    pub level_nodes: Vec<u64>,
}

impl LevelProfile {
    /// Accumulates one level's timing into the profile, growing the
    /// histograms on first touch.
    pub(crate) fn record_level(&mut self, level: usize, ns: u64, nodes: u64) {
        if self.level_ns.len() <= level {
            self.level_ns.resize(level + 1, 0);
            self.level_nodes.resize(level + 1, 0);
        }
        self.level_ns[level] += ns;
        self.level_nodes[level] += nodes;
    }
}

/// The live tracing state behind an enabled sink.
#[derive(Debug, Clone)]
pub(crate) struct TraceState {
    pub recorder: Recorder,
    pub forward: LevelProfile,
    pub lse: LevelProfile,
    pub backward: LevelProfile,
}

/// The engine's trace sink: either disabled (a `None`; every hook is one
/// branch) or an owned journal + per-kernel level profiles.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Box<TraceState>>,
}

impl TraceSink {
    /// The zero-cost disabled sink (the engine's default).
    pub(crate) fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled sink journaling at most `capacity` events.
    pub(crate) fn enabled(capacity: usize) -> Self {
        Self {
            inner: Some(Box::new(TraceState {
                recorder: Recorder::with_capacity(capacity),
                forward: LevelProfile::default(),
                lse: LevelProfile::default(),
                backward: LevelProfile::default(),
            })),
        }
    }

    /// Whether the sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span (no-op when disabled).
    #[inline]
    pub(crate) fn begin(&mut self, name: &'static str) {
        if let Some(t) = &mut self.inner {
            t.recorder.begin(name);
        }
    }

    /// Closes the innermost span with a payload (no-op when disabled).
    #[inline]
    pub(crate) fn end_with(&mut self, fields: &[(&'static str, f64)]) {
        if let Some(t) = &mut self.inner {
            t.recorder.end_with(fields);
        }
    }

    /// Journals an instantaneous event (no-op when disabled).
    #[inline]
    pub(crate) fn event(&mut self, name: &'static str, fields: &[(&'static str, f64)]) {
        if let Some(t) = &mut self.inner {
            t.recorder.event(name, fields);
        }
    }

    /// The per-level profile a kernel pass should accumulate into
    /// (`None` when disabled — the kernels then skip all timing reads).
    #[inline]
    pub(crate) fn profile_mut(&mut self, kernel: Kernel) -> Option<&mut LevelProfile> {
        self.inner.as_deref_mut().map(|t| match kernel {
            Kernel::Forward => &mut t.forward,
            Kernel::ForwardLse => &mut t.lse,
            Kernel::Backward => &mut t.backward,
        })
    }

    /// Both forward-family profiles at once, for the fused sweep (which
    /// accumulates evaluation time into the forward profile and LSE time
    /// into the LSE profile — the per-kernel attribution of
    /// [`InstaEngine::perf_report`](crate::InstaEngine::perf_report) is
    /// independent of fusion).
    #[inline]
    pub(crate) fn profiles_fused(
        &mut self,
    ) -> (Option<&mut LevelProfile>, Option<&mut LevelProfile>) {
        match self.inner.as_deref_mut() {
            Some(t) => (Some(&mut t.forward), Some(&mut t.lse)),
            None => (None, None),
        }
    }

    /// The journal, when enabled.
    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_deref().map(|t| &t.recorder)
    }

    /// The live state, when enabled.
    pub(crate) fn state(&self) -> Option<&TraceState> {
        self.inner.as_deref()
    }
}

/// Stable numeric code for a kernel in trace-event payloads
/// (`0` forward, `1` forward_lse, `2` backward).
pub(crate) fn kernel_code(k: Kernel) -> f64 {
    match k {
        Kernel::Forward => 0.0,
        Kernel::ForwardLse => 1.0,
        Kernel::Backward => 2.0,
    }
}

/// One level's row of the Fig.-9-style breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfRow {
    /// Timing level.
    pub level: usize,
    /// Nodes the forward kernel processes at this level per pass — the
    /// level's population after full passes only, less once cone updates
    /// (which visit only their dirty frontier) are in the mean.
    pub nodes: u64,
    /// Cumulative forward-kernel nanoseconds spent on this level.
    pub forward_ns: u64,
    /// Cumulative LSE-kernel nanoseconds.
    pub lse_ns: u64,
    /// Cumulative backward-kernel nanoseconds.
    pub backward_ns: u64,
}

/// The levelized forward / LSE / backward runtime breakdown (paper
/// Fig. 9), rendered from the engine's [`TraceSink`] profiles.
///
/// Durations are **cumulative** over every traced pass; divide by the pass
/// counts for per-pass means. Empty when tracing is disabled or no traced
/// pass has run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Per-level rows, level-ascending.
    pub rows: Vec<PerfRow>,
    /// Forward passes accumulated.
    pub forward_passes: u64,
    /// LSE passes accumulated.
    pub lse_passes: u64,
    /// Backward passes accumulated.
    pub backward_passes: u64,
}

impl PerfReport {
    /// Whether any traced pass contributed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cumulative (forward, lse, backward) nanoseconds across levels.
    pub fn totals_ns(&self) -> (u64, u64, u64) {
        self.rows.iter().fold((0, 0, 0), |(f, l, b), r| {
            (f + r.forward_ns, l + r.lse_ns, b + r.backward_ns)
        })
    }
}

fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "perf report: no traced kernel passes (tracing disabled?)");
        }
        writeln!(
            f,
            "per-level kernel breakdown ({} forward / {} lse / {} backward passes, cumulative)",
            self.forward_passes, self.lse_passes, self.backward_passes
        )?;
        writeln!(
            f,
            "{:>5} {:>8} {:>10} {:>10} {:>10}",
            "level", "nodes", "forward", "lse", "backward"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>5} {:>8} {:>10} {:>10} {:>10}",
                r.level,
                r.nodes,
                fmt_ns(r.forward_ns),
                fmt_ns(r.lse_ns),
                fmt_ns(r.backward_ns)
            )?;
        }
        let (tf, tl, tb) = self.totals_ns();
        writeln!(
            f,
            "{:>5} {:>8} {:>10} {:>10} {:>10}",
            "total",
            "",
            fmt_ns(tf),
            fmt_ns(tl),
            fmt_ns(tb)
        )
    }
}

impl ToJson for PerfRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("level".into(), (self.level as f64).to_json()),
            ("nodes".into(), (self.nodes as f64).to_json()),
            ("forward_ns".into(), (self.forward_ns as f64).to_json()),
            ("lse_ns".into(), (self.lse_ns as f64).to_json()),
            ("backward_ns".into(), (self.backward_ns as f64).to_json()),
        ])
    }
}

impl ToJson for PerfReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "forward_passes".into(),
                (self.forward_passes as f64).to_json(),
            ),
            ("lse_passes".into(), (self.lse_passes as f64).to_json()),
            (
                "backward_passes".into(),
                (self.backward_passes as f64).to_json(),
            ),
            ("rows".into(), self.rows.to_json()),
        ])
    }
}

impl crate::engine::InstaEngine {
    /// Turns tracing on with the default journal capacity. Subsequent
    /// kernel passes record spans, per-level profiles, and events;
    /// already-recorded data (if re-enabling) is discarded.
    pub fn enable_tracing(&mut self) {
        self.enable_tracing_with_capacity(insta_support::obs::DEFAULT_CAPACITY);
    }

    /// Turns tracing on with an explicit journal capacity (events beyond
    /// it evict oldest-first; evictions are counted, not lost silently).
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.trace = TraceSink::enabled(capacity);
    }

    /// Turns tracing off and drops all recorded data. The engine returns
    /// to the zero-overhead path.
    pub fn disable_tracing(&mut self) {
        self.trace = TraceSink::disabled();
    }

    /// Whether tracing is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// The trace journal (spans and events, close-ordered), when tracing
    /// is enabled.
    pub fn trace_journal(&self) -> Option<&Recorder> {
        self.trace.recorder()
    }

    /// The journal as JSON lines (one object per event; see
    /// [`Recorder::export_jsonl`]). `None` when tracing is disabled.
    pub fn export_trace_jsonl(&self) -> Option<String> {
        self.trace.recorder().map(|r| r.export_jsonl())
    }

    /// The levelized forward / LSE / backward runtime breakdown (paper
    /// Fig. 9) accumulated since tracing was enabled. Empty when tracing
    /// is disabled or no kernel pass has run since.
    pub fn perf_report(&self) -> PerfReport {
        let Some(t) = self.trace.state() else {
            return PerfReport::default();
        };
        let n_levels = t
            .forward
            .level_ns
            .len()
            .max(t.lse.level_ns.len())
            .max(t.backward.level_ns.len());
        let mut rows = Vec::with_capacity(n_levels);
        let per_level = |p: &LevelProfile, l: usize| -> (u64, u64) {
            if l < p.level_ns.len() {
                (p.level_ns[l], p.level_nodes[l])
            } else {
                (0, 0)
            }
        };
        for l in 0..n_levels {
            let (forward_ns, fw_nodes) = per_level(&t.forward, l);
            let (lse_ns, lse_nodes) = per_level(&t.lse, l);
            let (backward_ns, bw_nodes) = per_level(&t.backward, l);
            // Per-pass node count: the accumulated count over the pass
            // count of whichever kernel touched the level.
            let nodes = if t.forward.passes > 0 && fw_nodes > 0 {
                fw_nodes / t.forward.passes
            } else if t.lse.passes > 0 && lse_nodes > 0 {
                lse_nodes / t.lse.passes
            } else if t.backward.passes > 0 {
                bw_nodes / t.backward.passes
            } else {
                0
            };
            rows.push(PerfRow {
                level: l,
                nodes,
                forward_ns,
                lse_ns,
                backward_ns,
            });
        }
        if t.forward.passes == 0 && t.lse.passes == 0 && t.backward.passes == 0 {
            rows.clear();
        }
        PerfReport {
            rows,
            forward_passes: t.forward.passes,
            lse_passes: t.lse.passes,
            backward_passes: t.backward.passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::build_engine;
    use insta_support::json;

    #[test]
    fn disabled_sink_records_nothing_and_report_is_empty() {
        let (_d, _sta, mut eng) = build_engine(21, 8);
        assert!(!eng.tracing_enabled());
        eng.propagate();
        eng.forward_lse();
        eng.backward_tns();
        assert!(eng.trace_journal().is_none());
        let r = eng.perf_report();
        assert!(r.is_empty());
        assert!(r.to_string().contains("no traced kernel passes"));
    }

    #[test]
    fn traced_passes_fill_the_levelized_breakdown() {
        let (_d, _sta, mut eng) = build_engine(22, 8);
        eng.enable_tracing();
        eng.propagate();
        eng.forward_lse();
        eng.backward_tns();
        let r = eng.perf_report();
        assert!(!r.is_empty());
        assert_eq!(r.forward_passes, 1);
        assert_eq!(r.lse_passes, 1);
        assert_eq!(r.backward_passes, 1);
        assert_eq!(r.rows.len(), eng.num_levels());
        // Every non-empty level past 0 must carry forward work.
        let worked: u64 = r.rows.iter().map(|row| row.nodes).sum();
        assert!(worked > 0, "some level must process nodes");
        let (tf, tl, tb) = r.totals_ns();
        assert!(tf > 0 && tl > 0 && tb > 0, "({tf}, {tl}, {tb})");
        // The journal holds one span per pass.
        let journal = eng.trace_journal().expect("enabled");
        let names: Vec<&str> = journal.events().map(|e| e.name).collect();
        assert!(names.contains(&"forward"));
        assert!(names.contains(&"forward_lse"));
        assert!(names.contains(&"backward"));
        // Rendered table mentions the totals row.
        assert!(r.to_string().contains("total"));
    }

    #[test]
    fn perf_report_serializes_to_json() {
        let (_d, _sta, mut eng) = build_engine(23, 4);
        eng.enable_tracing();
        eng.propagate();
        let r = eng.perf_report();
        let j = r.to_json();
        let parsed = json::parse(&j.to_string()).expect("valid JSON");
        assert_eq!(parsed, j);
    }

    #[test]
    fn disable_tracing_returns_to_the_zero_cost_path() {
        let (_d, _sta, mut eng) = build_engine(24, 4);
        eng.enable_tracing();
        eng.propagate();
        assert!(!eng.perf_report().is_empty());
        eng.disable_tracing();
        assert!(eng.perf_report().is_empty());
        assert!(eng.export_trace_jsonl().is_none());
        eng.propagate();
        assert!(eng.perf_report().is_empty());
    }
}
