//! Canonical binary codec for durable engine state: committed writer ops,
//! the engine's re-annotatable delay state, and [`TimingSnapshot`] images.
//!
//! This is the serialization layer under `insta-serve`'s write-ahead log
//! and checkpoint files (ROADMAP item 1's durability work, and the
//! canonical epoch artifact ROADMAP item 4's interface-model shipping
//! needs). Design rules:
//!
//! * **Bit-exact floats.** Every `f64` crosses the boundary as
//!   `to_bits`/`from_bits` little-endian — the recovery contract is raw
//!   slack-bit identity to a crash-free twin, so the codec must never
//!   round-trip through text.
//! * **Length-guarded decode.** Every array length is validated against
//!   the bytes actually remaining *before* allocation, so a corrupted
//!   length field yields a typed [`PersistError`], not an OOM or panic.
//!   (Framing-level damage is caught earlier by the WAL's per-record
//!   CRC32; these guards defend the decode itself.)
//! * **No self-describing overhead.** Fields are written in a fixed
//!   order; the container (WAL / checkpoint file) carries the format
//!   version and decides which decoder to call.
//!
//! The codec lives in `insta-core` because it needs `pub(crate)` access
//! to [`TimingSnapshot`] internals and the engine's annotation arrays;
//! the file formats (magic, version, CRC framing, fsync discipline) live
//! in `insta-serve::wal`.

use crate::engine::InstaEngine;
use crate::metrics::{EngineCounters, InstaReport};
use crate::stat::StatBackendKind;
use crate::snapshot::TimingSnapshot;
use crate::trace::{PerfReport, PerfRow};
use insta_refsta::eco::ArcDelta;
use std::fmt;

/// A typed decode failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before `what` could be read.
    Truncated {
        /// Which field ran out of bytes.
        what: &'static str,
    },
    /// A declared length is impossible for the bytes remaining.
    BadLength {
        /// Which array declared it.
        what: &'static str,
        /// The declared element count.
        declared: u64,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// An enum tag byte has no known meaning.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
    /// Decoded state does not fit the engine it is being restored into
    /// (a stale checkpoint from a different design or configuration).
    Mismatch {
        /// Which array disagreed.
        what: &'static str,
        /// The engine's expected element count.
        expected: usize,
        /// The decoded element count.
        got: usize,
    },
    /// An id map that must be a permutation of `0..len` repeats a value or
    /// holds one out of range.
    NotPermutation {
        /// Which array.
        what: &'static str,
        /// Position of the offending entry.
        index: usize,
        /// The repeated or out-of-range value.
        value: u32,
    },
    /// Trailing bytes after a complete decode — the payload is not what
    /// its framing claimed.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated { what } => {
                write!(f, "persist decode truncated while reading {what}")
            }
            PersistError::BadLength {
                what,
                declared,
                remaining,
            } => write!(
                f,
                "persist decode: {what} declares {declared} elements but only {remaining} bytes remain"
            ),
            PersistError::BadTag { what, tag } => {
                write!(f, "persist decode: unknown {what} tag {tag:#04x}")
            }
            PersistError::Mismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "durable state mismatch: {what} has {got} elements, engine expects {expected} \
                 (stale checkpoint or wrong design)"
            ),
            PersistError::NotPermutation { what, index, value } => write!(
                f,
                "persist decode: {what}[{index}] = {value} repeats a value or is out of range"
            ),
            PersistError::TrailingBytes { extra } => {
                write!(f, "persist decode: {extra} trailing bytes after payload")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Where encoded bytes go: a growing `Vec<u8>`, or a consumer that takes
/// them as they are produced (the checkpoint writer streams a multi-MB
/// image to its file through a small buffer instead of building it).
pub trait ByteSink {
    /// Takes the next run of encoded bytes.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A little-endian byte-stream encoder (append-only, infallible).
#[derive(Debug, Default)]
pub struct Enc<S = Vec<u8>> {
    out: S,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

impl<S: ByteSink> Enc<S> {
    /// An encoder that feeds `out`.
    pub fn to(out: S) -> Self {
        Enc { out }
    }

    /// Appends a raw byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.out.put(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.out.put(&[v]);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.put(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// A little-endian byte-stream decoder with typed bounds errors.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`PersistError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads an element count and validates it against the bytes left
    /// (`elem_bytes` per element) before the caller allocates.
    pub fn len(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, PersistError> {
        let declared = self.u64(what)?;
        let fits = (declared as u128) * (elem_bytes as u128) <= self.remaining() as u128;
        if !fits {
            return Err(PersistError::BadLength {
                what,
                declared,
                remaining: self.remaining(),
            });
        }
        Ok(declared as usize)
    }
}

fn enc_f64s<S: ByteSink>(e: &mut Enc<S>, v: &[f64]) {
    e.u64(v.len() as u64);
    for &x in v {
        e.f64(x);
    }
}

fn dec_f64s(d: &mut Dec<'_>, what: &'static str) -> Result<Vec<f64>, PersistError> {
    let n = d.len(8, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.f64(what)?);
    }
    Ok(v)
}

fn enc_u32s<S: ByteSink>(e: &mut Enc<S>, v: &[u32]) {
    e.u64(v.len() as u64);
    for &x in v {
        e.u32(x);
    }
}

fn dec_u32s(d: &mut Dec<'_>, what: &'static str) -> Result<Vec<u32>, PersistError> {
    let n = d.len(4, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.u32(what)?);
    }
    Ok(v)
}

fn enc_pairs<S: ByteSink>(e: &mut Enc<S>, v: &[[f64; 2]]) {
    e.u64(v.len() as u64);
    for p in v {
        e.f64(p[0]);
        e.f64(p[1]);
    }
}

fn dec_pairs(d: &mut Dec<'_>, what: &'static str) -> Result<Vec<[f64; 2]>, PersistError> {
    let n = d.len(16, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push([d.f64(what)?, d.f64(what)?]);
    }
    Ok(v)
}

/// One committed writer operation, as logged to the WAL.
///
/// Replaying the logged sequence through real engine sessions (in order,
/// from the same initial state) reproduces the committed timeline
/// bit-exactly: deltas are absolute overwrites and propagation is
/// deterministic, so the ops are their own canonical representation — no
/// result data is logged, only intent.
#[derive(Debug, Clone, PartialEq)]
pub enum WriterOp {
    /// A full re-propagation commit (the serve layer's `propagate` op).
    Propagate,
    /// An incremental update commit with its validated delta batch.
    Update(Vec<ArcDelta>),
}

const OP_PROPAGATE: u8 = 1;
const OP_UPDATE: u8 = 2;

impl WriterOp {
    /// Encodes the op as a self-contained payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WriterOp::Propagate => e.u8(OP_PROPAGATE),
            WriterOp::Update(deltas) => {
                e.u8(OP_UPDATE);
                e.u64(deltas.len() as u64);
                for d in deltas {
                    e.u32(d.arc);
                    e.f64(d.mean[0]);
                    e.f64(d.mean[1]);
                    e.f64(d.sigma[0]);
                    e.f64(d.sigma[1]);
                }
            }
        }
        e.into_bytes()
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut d = Dec::new(bytes);
        let op = match d.u8("writer op tag")? {
            OP_PROPAGATE => WriterOp::Propagate,
            OP_UPDATE => {
                let n = d.len(36, "writer op deltas")?;
                let mut deltas = Vec::with_capacity(n);
                for _ in 0..n {
                    deltas.push(ArcDelta {
                        arc: d.u32("delta arc")?,
                        mean: [d.f64("delta mean")?, d.f64("delta mean")?],
                        sigma: [d.f64("delta sigma")?, d.f64("delta sigma")?],
                    });
                }
                WriterOp::Update(deltas)
            }
            tag => return Err(PersistError::BadTag {
                what: "writer op",
                tag,
            }),
        };
        d.finish()?;
        Ok(op)
    }
}

fn enc_counters<S: ByteSink>(e: &mut Enc<S>, c: &EngineCounters) {
    e.u64(c.epoch);
    e.u64(c.sessions_begun);
    e.u64(c.sessions_committed);
    e.u64(c.sessions_rolled_back);
    e.u64(c.sessions_cancelled);
    e.u64(c.degraded_passes);
    e.u64(c.incremental_updates);
    e.u64(c.drift_updates);
    e.f64(c.drift_mass);
    e.u64(c.incidents_total);
    e.u64(c.incidents_dropped);
    e.u64(c.batches);
    e.u64(c.batch_scenarios);
    e.u64(c.batch_quarantined);
    e.u8(match c.stat_backend {
        StatBackendKind::GaussianPocv => 0,
        StatBackendKind::FixedBinHistogram => 1,
    });
    e.u32(c.stat_bins);
    // Format v2: MCMM counters (appended so the field order above stays
    // byte-stable within a format generation).
    e.u64(c.mcmm_evaluations);
    e.u64(c.mcmm_corner_lanes);
    e.u64(c.mcmm_deduped);
}

fn dec_counters(d: &mut Dec<'_>) -> Result<EngineCounters, PersistError> {
    Ok(EngineCounters {
        epoch: d.u64("counters")?,
        sessions_begun: d.u64("counters")?,
        sessions_committed: d.u64("counters")?,
        sessions_rolled_back: d.u64("counters")?,
        sessions_cancelled: d.u64("counters")?,
        degraded_passes: d.u64("counters")?,
        incremental_updates: d.u64("counters")?,
        drift_updates: d.u64("counters")?,
        drift_mass: d.f64("counters")?,
        incidents_total: d.u64("counters")?,
        incidents_dropped: d.u64("counters")?,
        batches: d.u64("counters")?,
        batch_scenarios: d.u64("counters")?,
        batch_quarantined: d.u64("counters")?,
        stat_backend: match d.u8("counters")? {
            0 => StatBackendKind::GaussianPocv,
            1 => StatBackendKind::FixedBinHistogram,
            tag => {
                return Err(PersistError::BadTag {
                    what: "stat backend",
                    tag,
                })
            }
        },
        stat_bins: d.u32("counters")?,
        mcmm_evaluations: d.u64("counters")?,
        mcmm_corner_lanes: d.u64("counters")?,
        mcmm_deduped: d.u64("counters")?,
    })
}

fn enc_report<S: ByteSink>(e: &mut Enc<S>, r: &InstaReport) {
    e.f64(r.wns_ps);
    e.f64(r.tns_ps);
    e.u64(r.n_violations as u64);
    enc_f64s(e, &r.slacks);
    enc_f64s(e, &r.arrivals);
    enc_f64s(e, &r.requireds);
    enc_u32s(e, &r.worst_sp);
    e.u64(r.worst_rf.len() as u64);
    e.bytes(&r.worst_rf);
}

fn dec_report(d: &mut Dec<'_>) -> Result<InstaReport, PersistError> {
    let wns_ps = d.f64("report wns")?;
    let tns_ps = d.f64("report tns")?;
    let n_violations = d.u64("report violations")? as usize;
    let slacks = dec_f64s(d, "report slacks")?;
    let arrivals = dec_f64s(d, "report arrivals")?;
    let requireds = dec_f64s(d, "report requireds")?;
    let worst_sp = dec_u32s(d, "report worst_sp")?;
    let n = d.len(1, "report worst_rf")?;
    let worst_rf = d.take(n, "report worst_rf")?.to_vec();
    Ok(InstaReport {
        wns_ps,
        tns_ps,
        n_violations,
        slacks,
        arrivals,
        requireds,
        worst_sp,
        worst_rf,
    })
}

fn enc_perf<S: ByteSink>(e: &mut Enc<S>, p: &PerfReport) {
    e.u64(p.rows.len() as u64);
    for r in &p.rows {
        e.u64(r.level as u64);
        e.u64(r.nodes);
        e.u64(r.forward_ns);
        e.u64(r.lse_ns);
        e.u64(r.backward_ns);
    }
    e.u64(p.forward_passes);
    e.u64(p.lse_passes);
    e.u64(p.backward_passes);
    e.u8(match p.stat_backend {
        StatBackendKind::GaussianPocv => 0,
        StatBackendKind::FixedBinHistogram => 1,
    });
    e.u32(p.stat_bins);
}

fn dec_perf(d: &mut Dec<'_>) -> Result<PerfReport, PersistError> {
    let n = d.len(40, "perf rows")?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(PerfRow {
            level: d.u64("perf row")? as usize,
            nodes: d.u64("perf row")?,
            forward_ns: d.u64("perf row")?,
            lse_ns: d.u64("perf row")?,
            backward_ns: d.u64("perf row")?,
        });
    }
    Ok(PerfReport {
        rows,
        forward_passes: d.u64("perf passes")?,
        lse_passes: d.u64("perf passes")?,
        backward_passes: d.u64("perf passes")?,
        stat_backend: match d.u8("perf stat backend")? {
            0 => StatBackendKind::GaussianPocv,
            1 => StatBackendKind::FixedBinHistogram,
            tag => {
                return Err(PersistError::BadTag {
                    what: "stat backend",
                    tag,
                })
            }
        },
        stat_bins: d.u32("perf stat bins")?,
    })
}

/// Encodes a [`TimingSnapshot`] as a self-contained payload.
///
/// The `orig_index` map is not written — it is a pure function of
/// `node_orig` and is rebuilt on decode.
pub fn encode_snapshot(s: &TimingSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    encode_snapshot_into(s, &mut e);
    e.into_bytes()
}

/// [`encode_snapshot`] into any sink, byte for byte.
pub fn encode_snapshot_into<S: ByteSink>(s: &TimingSnapshot, e: &mut Enc<S>) {
    e.u64(s.epoch);
    match &s.report {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            enc_report(e, r);
        }
    }
    enc_counters(e, &s.counters);
    // The chunked rows are written as the two flat arrays they stand for.
    e.u64(s.n_rows as u64);
    for (arrivals, _) in s.row_runs() {
        arrivals.iter().for_each(|&a| e.f64(a));
    }
    e.u64(s.n_rows as u64);
    for (_, sps) in s.row_runs() {
        sps.iter().for_each(|&sp| e.u32(sp));
    }
    enc_u32s(e, &s.node_orig);
    enc_perf(e, &s.perf);
}

/// Decodes a payload produced by [`encode_snapshot`], rebuilding the
/// original-id lookup index.
///
/// # Errors
///
/// A typed [`PersistError`] for any truncated, mis-tagged or over-long
/// field, and [`PersistError::NotPermutation`] when the decoded
/// `node_orig` has no inverse.
pub fn decode_snapshot(bytes: &[u8]) -> Result<TimingSnapshot, PersistError> {
    let mut d = Dec::new(bytes);
    let epoch = d.u64("snapshot epoch")?;
    let report = match d.u8("snapshot report flag")? {
        0 => None,
        1 => Some(dec_report(&mut d)?),
        tag => {
            return Err(PersistError::BadTag {
                what: "snapshot report flag",
                tag,
            })
        }
    };
    let counters = dec_counters(&mut d)?;
    let arrival0 = dec_f64s(&mut d, "snapshot arrival0")?;
    let sp0 = dec_u32s(&mut d, "snapshot sp0")?;
    if sp0.len() != arrival0.len() {
        return Err(PersistError::Mismatch {
            what: "snapshot sp0",
            expected: arrival0.len(),
            got: sp0.len(),
        });
    }
    let node_orig = dec_u32s(&mut d, "snapshot node_orig")?;
    let perf = dec_perf(&mut d)?;
    d.finish()?;
    // `node_orig` must be a permutation for its inverse to exist; its
    // length is already bounded by the bytes decoded.
    let mut orig_index = vec![u32::MAX; node_orig.len()];
    for (i, &o) in node_orig.iter().enumerate() {
        match orig_index.get_mut(o as usize) {
            Some(slot) if *slot == u32::MAX => *slot = i as u32,
            _ => {
                return Err(PersistError::NotPermutation {
                    what: "snapshot node_orig",
                    index: i,
                    value: o,
                })
            }
        }
    }
    Ok(TimingSnapshot {
        epoch,
        report,
        counters,
        rows: crate::snapshot::rows_from(&arrival0, &sp0),
        n_rows: arrival0.len(),
        node_orig: node_orig.into(),
        orig_index: orig_index.into(),
        perf,
    })
}

/// The minimal mutable engine state a checkpoint must carry to make the
/// committed timeline reproducible: the re-annotatable delay arrays plus
/// the epoch and drift odometer.
///
/// Everything else (Top-K queues, LSE buffers, reports) is a
/// deterministic function of these via [`InstaEngine::propagate`], so
/// restore is `restore()` + one propagation — the same recomputation
/// `update_timing` performs on every commit, guaranteeing the restored
/// engine continues the timeline bit-exactly. The drift odometer must be
/// carried because it decides *when* the degraded fused path runs, which
/// changes which code produced the committed bits.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineDurableState {
    /// The committed epoch.
    pub epoch: u64,
    /// Drift odometer: incremental updates since the last reset.
    pub drift_updates: u64,
    /// Drift odometer: accumulated touched-arc mass.
    pub drift_mass: f64,
    /// Per-expansion-arc mean delays (renumbered engine order).
    pub arc_mean: Vec<[f64; 2]>,
    /// Per-expansion-arc sigmas (renumbered engine order).
    pub arc_sigma: Vec<[f64; 2]>,
}

impl EngineDurableState {
    /// Captures the durable state of `engine` (call after a commit).
    pub fn capture(engine: &InstaEngine) -> Self {
        EngineDurableState {
            epoch: engine.epoch,
            drift_updates: engine.drift.updates,
            drift_mass: engine.drift.mass,
            arc_mean: engine.st.arc_mean.clone(),
            arc_sigma: engine.st.arc_sigma.clone(),
        }
    }

    /// Restores this state into `engine`, which must have been built from
    /// the same design/config as the captured one.
    ///
    /// The engine's derived arrays are left stale; the caller must run
    /// [`InstaEngine::propagate`] before serving reads. Counters other
    /// than the epoch and drift odometer are *not* restored — they count
    /// this process's work, not the timeline's (see DESIGN.md).
    ///
    /// # Errors
    ///
    /// [`PersistError::Mismatch`] when the annotation arrays do not match
    /// the engine's expansion-arc count — the typed signature of a stale
    /// checkpoint (different design, seed, or Top-K renumbering). The
    /// engine is untouched on error.
    pub fn restore(&self, engine: &mut InstaEngine) -> Result<(), PersistError> {
        if self.arc_mean.len() != engine.st.arc_mean.len() {
            return Err(PersistError::Mismatch {
                what: "arc_mean",
                expected: engine.st.arc_mean.len(),
                got: self.arc_mean.len(),
            });
        }
        if self.arc_sigma.len() != engine.st.arc_sigma.len() {
            return Err(PersistError::Mismatch {
                what: "arc_sigma",
                expected: engine.st.arc_sigma.len(),
                got: self.arc_sigma.len(),
            });
        }
        engine.st.arc_mean.clone_from(&self.arc_mean);
        engine.st.arc_sigma.clone_from(&self.arc_sigma);
        engine.epoch = self.epoch;
        engine.drift.updates = self.drift_updates;
        engine.drift.mass = self.drift_mass;
        // A new generation, same as a re-annotation: every derived product
        // is stale.
        engine.validity.annotated();
        Ok(())
    }

    /// Encodes the state as a self-contained payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode_into(&mut e);
        e.into_bytes()
    }

    /// [`encode`](Self::encode) into any sink, byte for byte.
    pub fn encode_into<S: ByteSink>(&self, e: &mut Enc<S>) {
        e.u64(self.epoch);
        e.u64(self.drift_updates);
        e.f64(self.drift_mass);
        enc_pairs(e, &self.arc_mean);
        enc_pairs(e, &self.arc_sigma);
    }

    /// How many bytes [`encode`](Self::encode) produces (a streaming
    /// writer frames the state with its length before encoding it).
    pub fn encoded_len(&self) -> usize {
        3 * 8 + 2 * 8 + 16 * (self.arc_mean.len() + self.arc_sigma.len())
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut d = Dec::new(bytes);
        let state = EngineDurableState {
            epoch: d.u64("durable epoch")?,
            drift_updates: d.u64("durable drift updates")?,
            drift_mass: d.f64("durable drift mass")?,
            arc_mean: dec_pairs(&mut d, "durable arc_mean")?,
            arc_sigma: dec_pairs(&mut d, "durable arc_sigma")?,
        };
        d.finish()?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::build_engine;

    fn sample_deltas() -> Vec<ArcDelta> {
        vec![
            ArcDelta {
                arc: 3,
                mean: [12.5, -0.0],
                sigma: [1.25, f64::MIN_POSITIVE],
            },
            ArcDelta {
                arc: 0,
                mean: [f64::MAX, 1e-300],
                sigma: [0.0, 7.75],
            },
        ]
    }

    /// Writer ops round-trip bit-exactly, including awkward floats.
    #[test]
    fn writer_op_round_trip() {
        for op in [WriterOp::Propagate, WriterOp::Update(sample_deltas())] {
            let bytes = op.encode();
            let back = WriterOp::decode(&bytes).expect("round trip");
            assert_eq!(back, op);
        }
        // -0.0 must survive as -0.0, not 0.0 (PartialEq can't see this).
        let bytes = WriterOp::Update(sample_deltas()).encode();
        let WriterOp::Update(d) = WriterOp::decode(&bytes).unwrap() else {
            panic!("wrong op");
        };
        assert_eq!(d[0].mean[1].to_bits(), (-0.0f64).to_bits());
    }

    /// Every truncation of a valid op payload yields a typed error —
    /// never a panic, never a silent partial decode.
    #[test]
    fn writer_op_truncations_are_typed() {
        let bytes = WriterOp::Update(sample_deltas()).encode();
        for cut in 0..bytes.len() {
            let err = WriterOp::decode(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::BadLength { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        // Trailing garbage is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            WriterOp::decode(&padded),
            Err(PersistError::TrailingBytes { extra: 1 })
        ));
        // Unknown tag is typed.
        assert!(matches!(
            WriterOp::decode(&[0x7F]),
            Err(PersistError::BadTag { .. })
        ));
    }

    /// A snapshot survives the codec with bit-identical slacks, arrivals,
    /// counters, and a working rebuilt lookup index.
    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (_d, _sta, mut eng) = build_engine(21, 8);
        eng.propagate();
        let snap = eng.snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).expect("round trip");
        assert_eq!(back, snap);
        let (r0, r1) = (snap.report().unwrap(), back.report().unwrap());
        for (a, b) in r0.slacks.iter().zip(&r1.slacks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The rebuilt orig_index serves the same arrivals.
        for &orig in eng.st.node_orig.iter().take(16) {
            for rf in 0..2 {
                assert_eq!(
                    snap.arrival_at(orig, rf).map(f64::to_bits),
                    back.arrival_at(orig, rf).map(f64::to_bits)
                );
            }
        }
    }

    /// A decoded `node_orig` that repeats an id or holds one out of range
    /// has no inverse: typed error, no panic, nothing sized by the value.
    #[test]
    fn snapshot_with_a_non_permutation_id_map_is_rejected_typed() {
        let (_d, _sta, mut eng) = build_engine(26, 4);
        eng.propagate();
        let snap = eng.snapshot();
        for (index, value) in [(1usize, snap.node_orig[0]), (2, u32::MAX)] {
            let mut bad = snap.clone();
            let mut ids = bad.node_orig.to_vec();
            ids[index] = value;
            bad.node_orig = ids.into();
            let err = decode_snapshot(&encode_snapshot(&bad)).expect_err("no inverse");
            assert_eq!(
                err,
                PersistError::NotPermutation {
                    what: "snapshot node_orig",
                    index,
                    value,
                }
            );
            assert!(err.to_string().contains("node_orig"), "{err}");
        }
    }

    /// A pre-propagation snapshot (no report) also round-trips.
    #[test]
    fn empty_snapshot_round_trips() {
        let (_d, _sta, eng) = build_engine(22, 4);
        let snap = eng.snapshot();
        let back = decode_snapshot(&encode_snapshot(&snap)).expect("round trip");
        assert_eq!(back, snap);
        assert!(back.report().is_none());
    }

    /// Every truncation of a snapshot payload decodes to a typed error.
    #[test]
    fn snapshot_truncations_are_typed() {
        let (_d, _sta, mut eng) = build_engine(23, 4);
        eng.propagate();
        let bytes = encode_snapshot(&eng.snapshot());
        // Stride 7 keeps the sweep fast while still hitting every field
        // class; the first/last 64 cuts run exhaustively.
        let cuts = (0..bytes.len()).filter(|c| c % 7 == 0 || *c < 64 || bytes.len() - c < 64);
        for cut in cuts {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// Durable state capture → restore into a fresh twin reproduces the
    /// committed slacks bit-exactly after one propagation.
    #[test]
    fn durable_state_restore_reproduces_bits() {
        let (_d, _sta, mut eng) = build_engine(24, 8);
        eng.propagate();
        // Advance the timeline through real committed sessions.
        for round in 0..3u32 {
            let mut s = eng.begin_session();
            s.update_timing(&[ArcDelta {
                arc: round,
                mean: [40.0 + f64::from(round), 41.0],
                sigma: [4.0, 4.5],
            }])
            .expect("valid");
            s.commit().expect("commit");
        }
        let golden: Vec<u64> = eng.report().slacks.iter().map(|s| s.to_bits()).collect();
        let state = EngineDurableState::capture(&eng);
        let bytes = state.encode();
        let decoded = EngineDurableState::decode(&bytes).expect("round trip");
        assert_eq!(decoded, state);
        assert_eq!(state.encoded_len(), bytes.len());

        // A fresh twin from the same seed, restored + propagated, must
        // land on identical bits and epoch.
        let (_d2, _sta2, mut twin) = build_engine(24, 8);
        decoded.restore(&mut twin).expect("same design");
        twin.propagate();
        assert_eq!(twin.epoch(), eng.epoch());
        let got: Vec<u64> = twin.report().slacks.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, golden);
    }

    /// Restoring state whose arrays don't fit the engine (a stale
    /// checkpoint from another design) is a typed mismatch and leaves the
    /// engine untouched.
    #[test]
    fn stale_restore_is_typed_and_harmless() {
        let (_d, _sta, mut eng) = build_engine(25, 8);
        eng.propagate();
        let mut state = EngineDurableState::capture(&eng);
        state.arc_mean.pop();
        state.epoch = 99;
        let before: Vec<u64> = eng.report().slacks.iter().map(|s| s.to_bits()).collect();
        let before_epoch = eng.epoch();
        let err = state.restore(&mut eng).expect_err("wrong arc count");
        assert!(matches!(
            err,
            PersistError::Mismatch {
                what: "arc_mean",
                ..
            }
        ));
        assert_eq!(eng.epoch(), before_epoch);
        let after: Vec<u64> = eng.report().slacks.iter().map(|s| s.to_bits()).collect();
        assert_eq!(before, after, "failed restore must not mutate the engine");
    }
}
