//! Canonical binary codec for durable engine state: committed writer ops
//! and the engine's re-annotatable delay state.
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
//! to the engine's annotation arrays; the file formats (magic, version,
//! CRC framing, fsync discipline) live in `insta-serve::wal`.

use crate::engine::InstaEngine;
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

    /// Appends a length-prefixed run of `f64`s.
    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
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

    /// Reads a run written by [`Enc::f64s`].
    pub fn f64s(&mut self, what: &'static str) -> Result<Vec<f64>, PersistError> {
        let n = self.len(8, what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64(what)?);
        }
        Ok(v)
    }
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

/// The minimal mutable engine state a checkpoint must carry to make the
/// committed timeline reproducible: the re-annotatable delay arrays plus
/// the epoch and drift odometer.
///
/// Everything else (Top-K queues, LSE buffers, reports) is a
/// deterministic function of these via [`InstaEngine::propagate`], so
/// restore is `restore()` + one propagation — the same recomputation
/// `update_timing` performs on every commit, guaranteeing the restored
/// engine continues the timeline bit-exactly. The drift odometer is
/// carried so that [`InstaEngine::drift_exceeded`] — the advisory resync
/// budget — reads the same after a restore as before it.
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
