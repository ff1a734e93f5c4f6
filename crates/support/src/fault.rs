//! Deterministic fault injection for snapshot robustness testing.
//!
//! A [`FaultPlan`] derives an independent xoshiro256++ stream per
//! `(seed, case, fault)` triple, so every corruption a test applies is
//! reproducible from the suite seed and the case index alone — the same
//! contract as [`crate::prop::for_all`].
//!
//! Two corruption surfaces are covered:
//!
//! * **text faults** ([`FaultPlan::corrupt_text`]) attack the serialized
//!   byte stream before parsing: truncation and bit-flips, the classic
//!   torn-write / bad-storage failure modes. The output is raw bytes —
//!   a flip can produce invalid UTF-8, which is itself a corruption class
//!   the ingest path must reject gracefully.
//! * **tree faults** ([`FaultPlan::corrupt_json`]) attack a parsed
//!   [`Json`] document: numeric poisoning (NaN/Inf/negation/huge-index),
//!   array shuffling (level/order inversion in a snapshot), dropped
//!   object fields, and duplicated array elements.
//! * **session faults** ([`FaultPlan::corrupt_batch`]) attack an
//!   incremental *update batch* already past ingest validation — the
//!   mid-session surface a long-running engine exposes to optimization
//!   clients. See [`SessionFault`].
//!
//! The harness never asserts anything itself; consumers (the engine's
//! fault-injection suites) feed the corrupted artifacts through their
//! ingest path and assert the typed-error-or-finite-result contract.

use crate::json::Json;
use crate::rng::Rng;

/// One corruption class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Cut the text off at a random byte (torn write / short read).
    Truncate,
    /// Flip one random bit of one random byte.
    BitFlip,
    /// Replace a random number with NaN.
    NanNumber,
    /// Replace a random number with +/-infinity.
    InfNumber,
    /// Negate a random number (negative sigma / negative count injection).
    NegateNumber,
    /// Replace a random integer-valued number with a huge index
    /// (out-of-range CSR / node / arc references).
    HugeInteger,
    /// Swap two elements of a random array (ordering / levelization
    /// corruption).
    ShuffleArray,
    /// Remove a random field from a random object (truncated schema).
    DropField,
    /// Duplicate a random array element (duplicate arcs / endpoints).
    DuplicateElement,
}

impl Fault {
    /// Every corruption class, for exhaustive sweeps.
    pub const ALL: [Fault; 9] = [
        Fault::Truncate,
        Fault::BitFlip,
        Fault::NanNumber,
        Fault::InfNumber,
        Fault::NegateNumber,
        Fault::HugeInteger,
        Fault::ShuffleArray,
        Fault::DropField,
        Fault::DuplicateElement,
    ];

    /// Whether this class operates on raw text (vs. a parsed tree).
    pub fn is_textual(self) -> bool {
        matches!(self, Fault::Truncate | Fault::BitFlip)
    }

    fn discriminant(self) -> u64 {
        Self::ALL.iter().position(|&f| f == self).expect("listed") as u64
    }
}

/// One mid-session corruption class: damage applied to an *update batch*
/// (arc ids plus their replacement statistics) after ingest validation
/// has already passed, modelling a buggy or hostile optimization client
/// feeding a live engine.
///
/// The batch is modelled as parallel flat arrays — `ids[i]` owns
/// `values[i * stride .. (i + 1) * stride]` — so the harness stays
/// independent of any particular delta struct; consumers flatten their
/// batch, corrupt it, and rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionFault {
    /// Replace one value of one entry with NaN.
    NanValue,
    /// Replace one value of one entry with +/-infinity.
    InfValue,
    /// Negate one value of one entry (negative sigma injection).
    NegateValue,
    /// Replace one id with an out-of-range id (`>= id_limit`).
    HugeId,
    /// Duplicate one entry (id and its value block) in place.
    DuplicateEntry,
}

impl SessionFault {
    /// Every mid-session corruption class, for exhaustive sweeps.
    pub const ALL: [SessionFault; 5] = [
        SessionFault::NanValue,
        SessionFault::InfValue,
        SessionFault::NegateValue,
        SessionFault::HugeId,
        SessionFault::DuplicateEntry,
    ];

    /// Whether this class produces a batch a validating engine must
    /// *reject up front*, before mutating anything (a non-finite value or
    /// an out-of-range id). `NegateValue` is rejected only when it lands
    /// on a sigma slot, and `DuplicateEntry` stays valid — those may reach
    /// propagation.
    pub fn rejected_at_validation(self) -> bool {
        matches!(
            self,
            SessionFault::NanValue | SessionFault::InfValue | SessionFault::HugeId
        )
    }

    fn discriminant(self) -> u64 {
        Self::ALL.iter().position(|&f| f == self).expect("listed") as u64
    }
}

/// A corruption class for *batched* multi-scenario evaluation: exactly one
/// scenario of a batch is damaged, and the quarantine contract says only
/// that scenario may fail — its siblings must return bit-identical results
/// to a clean run.
///
/// The batch is modelled as per-scenario flat arrays (one `ids`/`values`
/// pair per scenario, same layout as [`SessionFault`]'s single batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFault {
    /// Replace one value of one entry of one scenario with NaN.
    NanValue,
    /// Replace one id of one scenario with an out-of-range id.
    HugeId,
}

impl BatchFault {
    /// Every batch corruption class, for exhaustive sweeps.
    pub const ALL: [BatchFault; 2] = [BatchFault::NanValue, BatchFault::HugeId];

    /// Whether a validating engine must reject the damaged scenario up
    /// front. Both classes are structurally invalid, so: always.
    pub fn rejected_at_validation(self) -> bool {
        true
    }

    fn discriminant(self) -> u64 {
        Self::ALL.iter().position(|&f| f == self).expect("listed") as u64
    }
}

/// A corruption class for the *service protocol* surface: damage applied
/// to an encoded length-prefixed request frame (or to the connection
/// driving it) before the daemon reads it, modelling hostile or broken
/// network clients. Byte-level classes are applied by
/// [`FaultPlan::corrupt_frame`]; the connection-level classes
/// ([`MidRequestDisconnect`](ProtocolFault::MidRequestDisconnect),
/// [`SlowLoris`](ProtocolFault::SlowLoris),
/// [`DeadlineStorm`](ProtocolFault::DeadlineStorm)) describe *how* the
/// test harness drives the socket — `corrupt_frame` then only decides how
/// much of the frame is sent before the behavior kicks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolFault {
    /// Cut the frame off mid-body (torn write: the header promises more
    /// bytes than ever arrive).
    TruncatedFrame,
    /// Keep the framing valid but bit-flip the JSON body (garbage
    /// payload the daemon must reject without losing frame sync).
    GarbageJson,
    /// Replace the length header with a huge claim (allocation-bomb
    /// probe; the daemon must reject it without allocating).
    OversizedLength,
    /// Replace the length header with non-numeric garbage.
    BadLengthHeader,
    /// Send a truncated frame, then disconnect (driven by the harness).
    MidRequestDisconnect,
    /// Drip-feed the frame a byte at a time (driven by the harness; the
    /// daemon must keep serving other clients meanwhile).
    SlowLoris,
    /// A burst of well-formed requests whose deadlines are already (or
    /// almost) expired (driven by the harness; every one must come back
    /// as a typed deadline error, never a hang).
    DeadlineStorm,
}

impl ProtocolFault {
    /// Every protocol corruption class, for exhaustive sweeps.
    pub const ALL: [ProtocolFault; 7] = [
        ProtocolFault::TruncatedFrame,
        ProtocolFault::GarbageJson,
        ProtocolFault::OversizedLength,
        ProtocolFault::BadLengthHeader,
        ProtocolFault::MidRequestDisconnect,
        ProtocolFault::SlowLoris,
        ProtocolFault::DeadlineStorm,
    ];

    /// Whether [`FaultPlan::corrupt_frame`] changes the bytes for this
    /// class (the connection-behavior classes leave the frame intact for
    /// the harness to drive).
    pub fn is_byte_level(self) -> bool {
        matches!(
            self,
            ProtocolFault::TruncatedFrame
                | ProtocolFault::GarbageJson
                | ProtocolFault::OversizedLength
                | ProtocolFault::BadLengthHeader
                | ProtocolFault::MidRequestDisconnect
        )
    }

    /// Whether the daemon can keep the connection alive after this fault
    /// (frame sync survives only when the declared length still matches
    /// the bytes actually sent).
    pub fn keeps_connection(self) -> bool {
        matches!(
            self,
            ProtocolFault::GarbageJson | ProtocolFault::DeadlineStorm | ProtocolFault::SlowLoris
        )
    }

    fn discriminant(self) -> u64 {
        Self::ALL.iter().position(|&f| f == self).expect("listed") as u64
    }
}

/// A corruption class for the *durability* surface: damage applied to an
/// on-disk write-ahead-log or checkpoint artifact between a crash and the
/// recovery scan, modelling torn writes, bad sectors, and stale disks.
/// Byte-level classes are applied by [`FaultPlan::corrupt_durable`];
/// [`StaleCheckpoint`](DurabilityFault::StaleCheckpoint) is a *semantic*
/// class the recovery harness constructs itself (a checkpoint whose
/// contents no longer match the engine that loads it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityFault {
    /// Cut a handful of bytes off the end of the file: the classic torn
    /// append — power loss mid-`write(2)` leaves a partial final record.
    TornWrite,
    /// Cut the file inside the final record's *body* so its length
    /// framing promises more bytes than exist (a short sector flush).
    TruncatedRecord,
    /// Flip one random bit inside the tail region's record bytes; the
    /// per-record CRC must catch it before any byte is decoded.
    BitFlipBody,
    /// Overwrite the leading file magic (a foreign or damaged file at
    /// the WAL/checkpoint path).
    BadMagic,
    /// A checkpoint that is internally valid but semantically stale —
    /// its contents disagree with the engine replaying on top of it.
    /// Constructed by the harness, not by byte surgery.
    StaleCheckpoint,
}

impl DurabilityFault {
    /// Every durability corruption class, for exhaustive sweeps.
    pub const ALL: [DurabilityFault; 5] = [
        DurabilityFault::TornWrite,
        DurabilityFault::TruncatedRecord,
        DurabilityFault::BitFlipBody,
        DurabilityFault::BadMagic,
        DurabilityFault::StaleCheckpoint,
    ];

    /// Whether [`FaultPlan::corrupt_durable`] changes the bytes for this
    /// class ([`StaleCheckpoint`](Self::StaleCheckpoint) is driven by the
    /// harness instead).
    pub fn is_byte_level(self) -> bool {
        !matches!(self, DurabilityFault::StaleCheckpoint)
    }

    fn discriminant(self) -> u64 {
        Self::ALL.iter().position(|&f| f == self).expect("listed") as u64
    }
}

/// A point on the durable commit path where a crash can be injected.
///
/// The write path is `append WAL record → fsync → commit → publish →
/// (every Nth commit) rotate the log to a fresh segment and hand a
/// checkpoint to the background writer`, and beside it `stream the
/// checkpoint to a temp file → header → rename → retire covered
/// segments`; each variant names the instant *before* which the
/// simulated power loss strikes, so a chaos suite can prove the recovery
/// contract — last logged commit recovered, unlogged work vanished whole
/// — at every window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the WAL record is appended: the commit vanishes whole.
    BeforeWalAppend,
    /// Mid-append: a torn record is left on disk and must be cut off by
    /// recovery, never replayed.
    MidWalAppend,
    /// After the fsync'd append but before the snapshot publishes: the
    /// commit is durable and must be recovered even though no client
    /// ever observed it.
    AfterWalAppend,
    /// Mid-rotation: the next segment is in place (named and stamped) but
    /// holds no record yet, and the segment it follows has not been
    /// retired. Recovery reads both and finds the new one empty.
    MidRotation,
    /// The checkpoint writer dies mid-stream: a temp file with the payload
    /// and no header yet is left behind; recovery must fall back to the
    /// previous checkpoint (or none) plus the WAL.
    MidCheckpointStream,
    /// The checkpoint temp file got its header but lost the tail of its
    /// payload (pages reach the platter in any order before the fsync) and
    /// was never renamed: a partial temp file is left behind, with the
    /// same fallback.
    MidCheckpoint,
    /// After the checkpoint renamed into place but before the segments it
    /// covers were retired (the window the in-place truncate used to
    /// have): recovery sees both and must not double-replay.
    AfterCheckpointBeforeRetire,
}

impl CrashPoint {
    /// Every crash point, for exhaustive sweeps.
    pub const ALL: [CrashPoint; 7] = [
        CrashPoint::BeforeWalAppend,
        CrashPoint::MidWalAppend,
        CrashPoint::AfterWalAppend,
        CrashPoint::MidRotation,
        CrashPoint::MidCheckpointStream,
        CrashPoint::MidCheckpoint,
        CrashPoint::AfterCheckpointBeforeRetire,
    ];
}

/// A one-shot crash injector armed at `(point, commit_index)`.
///
/// The durability layer calls [`fire`](CrashSwitch::fire) at each
/// [`CrashPoint`] of each commit; when the armed point and index match,
/// the switch trips **once** and the layer goes dead — every subsequent
/// durable write is dropped on the floor, exactly as if the process had
/// been `kill -9`'d at that instant (the in-process engine may keep
/// going; only the on-disk artifacts matter to the test). Thread-safe and
/// cheap: two relaxed atomic loads on the not-armed path.
#[derive(Debug)]
pub struct CrashSwitch {
    point: CrashPoint,
    at_commit: u64,
    tripped: std::sync::atomic::AtomicBool,
}

impl CrashSwitch {
    /// Arms the switch to trip at `point` of the `at_commit`-th logged
    /// commit (0-based).
    pub fn new(point: CrashPoint, at_commit: u64) -> std::sync::Arc<Self> {
        std::sync::Arc::new(CrashSwitch {
            point,
            at_commit,
            tripped: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Called by the durability layer: returns `true` (and latches) when
    /// the simulated power loss strikes here.
    pub fn fire(&self, point: CrashPoint, commit_index: u64) -> bool {
        if self.is_tripped() {
            return false;
        }
        if point == self.point && commit_index == self.at_commit {
            self.tripped.store(true, std::sync::atomic::Ordering::Release);
            return true;
        }
        false
    }

    /// Whether the crash already struck.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// A seeded corruption generator.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Suite seed; every corruption derives from it deterministically.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan with the given suite seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The RNG stream of one `(case, fault)` corruption.
    fn stream(&self, case: u64, fault: Fault) -> Rng {
        // SplitMix in seed_from_u64 decorrelates the simple xor mix.
        Rng::seed_from_u64(
            self.seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (fault.discriminant() << 56),
        )
    }

    /// Applies a textual corruption, returning the damaged byte stream.
    ///
    /// Non-textual faults fall back to [`Fault::BitFlip`] so a sweep over
    /// [`Fault::ALL`] can always call this.
    pub fn corrupt_text(&self, case: u64, fault: Fault, text: &str) -> Vec<u8> {
        let mut rng = self.stream(case, fault);
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            return bytes;
        }
        match fault {
            Fault::Truncate => {
                let keep = rng.bounded_u64(bytes.len() as u64) as usize;
                bytes.truncate(keep);
            }
            _ => {
                let i = rng.bounded_u64(bytes.len() as u64) as usize;
                let bit = rng.bounded_u64(8) as u8;
                bytes[i] ^= 1 << bit;
            }
        }
        bytes
    }

    /// Applies a tree corruption in place. Returns `false` when the
    /// document has no applicable target (e.g. no arrays to shuffle), in
    /// which case the value is untouched.
    pub fn corrupt_json(&self, case: u64, fault: Fault, v: &mut Json) -> bool {
        let mut rng = self.stream(case, fault);
        match fault {
            Fault::Truncate | Fault::BitFlip => false,
            Fault::NanNumber => poison_number(v, &mut rng, |_| f64::NAN),
            Fault::InfNumber => poison_number(v, &mut rng, |n| {
                if n < 0.0 {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }),
            Fault::NegateNumber => poison_number(v, &mut rng, |n| -n),
            Fault::HugeInteger => {
                let count = count_nodes(v, &|j| matches!(j, Json::Num(n) if n.fract() == 0.0));
                if count == 0 {
                    return false;
                }
                let target = rng.bounded_u64(count as u64) as usize;
                let mut seen = 0usize;
                mutate_nth(
                    v,
                    &|j| matches!(j, Json::Num(n) if n.fract() == 0.0),
                    target,
                    &mut seen,
                    &mut |j| *j = Json::Num(4.0e9 + 17.0),
                )
            }
            Fault::ShuffleArray => with_nth(
                v,
                &mut rng,
                &|j| matches!(j, Json::Arr(a) if a.len() >= 2),
                &mut |j, rng| {
                    let Json::Arr(a) = j else { unreachable!() };
                    let len = a.len();
                    let i = rng.bounded_u64(len as u64) as usize;
                    let k = (rng.bounded_u64(len as u64) as usize).min(len - 1);
                    a.swap(i, k);
                },
            ),
            Fault::DropField => with_nth(
                v,
                &mut rng,
                &|j| matches!(j, Json::Obj(o) if !o.is_empty()),
                &mut |j, rng| {
                    let Json::Obj(o) = j else { unreachable!() };
                    let i = rng.bounded_u64(o.len() as u64) as usize;
                    o.remove(i);
                },
            ),
            Fault::DuplicateElement => with_nth(
                v,
                &mut rng,
                &|j| matches!(j, Json::Arr(a) if !a.is_empty()),
                &mut |j, rng| {
                    let Json::Arr(a) = j else { unreachable!() };
                    let i = rng.bounded_u64(a.len() as u64) as usize;
                    let dup = a[i].clone();
                    a.insert(i, dup);
                },
            ),
        }
    }

    /// Applies one mid-session corruption to a flattened update batch.
    ///
    /// `ids` and `values` are parallel: entry `i` owns
    /// `values[i * stride .. (i + 1) * stride]`. `id_limit` is the
    /// exclusive upper bound of valid ids (the engine's arc count);
    /// [`SessionFault::HugeId`] injects an id at or above it. Returns
    /// `false` (batch untouched) when the batch is empty or the arrays
    /// are not parallel.
    pub fn corrupt_batch(
        &self,
        case: u64,
        fault: SessionFault,
        ids: &mut Vec<u32>,
        values: &mut Vec<f64>,
        stride: usize,
        id_limit: u32,
    ) -> bool {
        if ids.is_empty() || stride == 0 || values.len() != ids.len() * stride {
            return false;
        }
        // Reuse the (seed, case, class) stream derivation; the high-byte
        // tag keeps session streams disjoint from snapshot-fault streams.
        let mut rng = Rng::seed_from_u64(
            self.seed
                ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (fault.discriminant() << 56)
                ^ (0xA5 << 48),
        );
        let entry = rng.bounded_u64(ids.len() as u64) as usize;
        match fault {
            SessionFault::NanValue | SessionFault::InfValue | SessionFault::NegateValue => {
                let slot = entry * stride + rng.bounded_u64(stride as u64) as usize;
                let old = values[slot];
                values[slot] = match fault {
                    SessionFault::NanValue => f64::NAN,
                    SessionFault::InfValue => {
                        if rng.next_u64() & 1 == 0 {
                            f64::INFINITY
                        } else {
                            f64::NEG_INFINITY
                        }
                    }
                    // Ensure the negation actually changes a zero value.
                    _ => {
                        if old == 0.0 {
                            -1.0
                        } else {
                            -old
                        }
                    }
                };
            }
            SessionFault::HugeId => {
                ids[entry] = id_limit.saturating_add(1 + (rng.next_u64() as u32 % 1000));
            }
            SessionFault::DuplicateEntry => {
                let id = ids[entry];
                let block: Vec<f64> =
                    values[entry * stride..(entry + 1) * stride].to_vec();
                ids.insert(entry, id);
                for (k, v) in block.into_iter().enumerate() {
                    values.insert(entry * stride + k, v);
                }
            }
        }
        true
    }

    /// Applies a byte-level protocol corruption to an encoded
    /// length-prefixed frame (`<decimal len>\n<body>`), returning the
    /// damaged byte stream to put on the wire.
    ///
    /// Connection-behavior classes ([`ProtocolFault::is_byte_level`] is
    /// `false`), and frames without a header newline, are returned
    /// unchanged except [`ProtocolFault::MidRequestDisconnect`], which
    /// truncates so the harness can disconnect mid-frame.
    pub fn corrupt_frame(&self, case: u64, fault: ProtocolFault, frame: &[u8]) -> Vec<u8> {
        // Same (seed, case, class) stream derivation as the other
        // corruption families; the high-byte tag keeps protocol streams
        // disjoint from snapshot/session/batch streams.
        let mut rng = Rng::seed_from_u64(
            self.seed
                ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (fault.discriminant() << 56)
                ^ (0xC9 << 48),
        );
        let mut bytes = frame.to_vec();
        let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
            return bytes;
        };
        let body_len = bytes.len() - header_end - 1;
        match fault {
            ProtocolFault::TruncatedFrame | ProtocolFault::MidRequestDisconnect => {
                // Keep the header (the length claim) but drop a nonzero
                // tail of the body, so the daemon blocks on missing bytes
                // or observes EOF mid-frame.
                if body_len > 0 {
                    let cut = 1 + rng.bounded_u64(body_len as u64) as usize;
                    bytes.truncate(bytes.len() - cut);
                }
            }
            ProtocolFault::GarbageJson => {
                // Flip bits inside the body only: the declared length
                // still matches, so frame sync must survive.
                if body_len > 0 {
                    for _ in 0..1 + rng.bounded_u64(4) {
                        let i = header_end + 1 + rng.bounded_u64(body_len as u64) as usize;
                        bytes[i] ^= 1 << rng.bounded_u64(8);
                    }
                }
            }
            ProtocolFault::OversizedLength => {
                let huge = 1_u64 << (33 + rng.bounded_u64(20));
                let mut new = format!("{huge}\n").into_bytes();
                new.extend_from_slice(&bytes[header_end + 1..]);
                bytes = new;
            }
            ProtocolFault::BadLengthHeader => {
                let junk: &[&[u8]] = &[b"-12\n", b"0x1f\n", b"len?\n", b"\n", b"999999999999999999999999\n"];
                let pick = junk[rng.bounded_u64(junk.len() as u64) as usize];
                let mut new = pick.to_vec();
                new.extend_from_slice(&bytes[header_end + 1..]);
                bytes = new;
            }
            ProtocolFault::SlowLoris | ProtocolFault::DeadlineStorm => {}
        }
        bytes
    }

    /// Corrupts exactly one scenario of a flattened multi-scenario batch.
    ///
    /// `ids[s]` / `values[s]` are scenario `s`'s parallel arrays (entry
    /// `i` owns `values[s][i * stride .. (i + 1) * stride]`). The damaged
    /// scenario is drawn deterministically from the `(seed, case, class)`
    /// stream among the non-empty scenarios; sibling scenarios are left
    /// bit-untouched. Returns the damaged scenario's index, or `None`
    /// when every scenario is empty or an array pair is not parallel.
    pub fn corrupt_one_scenario(
        &self,
        case: u64,
        fault: BatchFault,
        ids: &mut [Vec<u32>],
        values: &mut [Vec<f64>],
        stride: usize,
        id_limit: u32,
    ) -> Option<usize> {
        if ids.len() != values.len() || stride == 0 {
            return None;
        }
        if ids
            .iter()
            .zip(values.iter())
            .any(|(i, v)| v.len() != i.len() * stride)
        {
            return None;
        }
        let candidates: Vec<usize> = (0..ids.len()).filter(|&s| !ids[s].is_empty()).collect();
        if candidates.is_empty() {
            return None;
        }
        // Same (seed, case, class) stream derivation as the other
        // corruption families; the high-byte tag keeps batch streams
        // disjoint from snapshot (no tag) and session (0xA5) streams.
        let mut rng = Rng::seed_from_u64(
            self.seed
                ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (fault.discriminant() << 56)
                ^ (0xB7 << 48),
        );
        let scenario = candidates[rng.bounded_u64(candidates.len() as u64) as usize];
        let entry = rng.bounded_u64(ids[scenario].len() as u64) as usize;
        match fault {
            BatchFault::NanValue => {
                let slot = entry * stride + rng.bounded_u64(stride as u64) as usize;
                values[scenario][slot] = f64::NAN;
            }
            BatchFault::HugeId => {
                ids[scenario][entry] =
                    id_limit.saturating_add(1 + (rng.next_u64() as u32 % 1000));
            }
        }
        Some(scenario)
    }

    /// Applies a byte-level durability corruption to an on-disk artifact
    /// (WAL or checkpoint file image), returning the damaged bytes as
    /// they would be found after a crash.
    ///
    /// Damage is aimed at the *tail* of the file — the region a torn
    /// append or short sector flush actually hits — so earlier records
    /// stay intact and recovery must salvage them. Semantic classes
    /// ([`DurabilityFault::is_byte_level`] is `false`) return the bytes
    /// unchanged; the harness constructs those states itself.
    pub fn corrupt_durable(&self, case: u64, fault: DurabilityFault, bytes: &[u8]) -> Vec<u8> {
        // Same (seed, case, class) stream derivation as the other
        // corruption families; the high-byte tag keeps durability streams
        // disjoint from session (0xA5), batch (0xB7), and protocol
        // (0xC9) streams.
        let mut rng = Rng::seed_from_u64(
            self.seed
                ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (fault.discriminant() << 56)
                ^ (0xD3 << 48),
        );
        let mut out = bytes.to_vec();
        if out.is_empty() {
            return out;
        }
        match fault {
            DurabilityFault::TornWrite => {
                // Shear 1..=8 bytes off the end: a partial final write.
                let cut = (1 + rng.bounded_u64(8) as usize).min(out.len());
                out.truncate(out.len() - cut);
            }
            DurabilityFault::TruncatedRecord => {
                // Cut deeper — up to a quarter of the file (at least 9
                // bytes, past any record header) so the final record's
                // framing promises bytes that are gone.
                let max = (out.len() / 4).max(9).min(out.len());
                let cut = (9 + rng.bounded_u64(max as u64) as usize).min(out.len());
                out.truncate(out.len() - cut);
            }
            DurabilityFault::BitFlipBody => {
                // Flip one bit in the final third: latent media damage
                // the per-record CRC must catch.
                let start = out.len() - (out.len() / 3).max(1);
                let span = out.len() - start;
                let i = start + rng.bounded_u64(span as u64) as usize;
                out[i] ^= 1 << rng.bounded_u64(8);
            }
            DurabilityFault::BadMagic => {
                for (i, b) in out.iter_mut().take(8).enumerate() {
                    *b = 0x55 ^ (i as u8) ^ (rng.next_u64() as u8);
                }
            }
            DurabilityFault::StaleCheckpoint => {}
        }
        out
    }
}

/// Replaces one uniformly chosen number with `f(old)`.
fn poison_number(v: &mut Json, rng: &mut Rng, f: impl Fn(f64) -> f64) -> bool {
    let count = count_nodes(v, &|j| matches!(j, Json::Num(_)));
    if count == 0 {
        return false;
    }
    let target = rng.bounded_u64(count as u64) as usize;
    let mut seen = 0usize;
    mutate_nth(
        v,
        &|j| matches!(j, Json::Num(_)),
        target,
        &mut seen,
        &mut |j| {
            let Json::Num(n) = j else { unreachable!() };
            let new = f(*n);
            // Encode exactly like the writer would: non-finite values only
            // exist in snapshots as their string spellings.
            *j = if new.is_finite() {
                Json::Num(new)
            } else if new.is_nan() {
                Json::Str("nan".into())
            } else if new > 0.0 {
                Json::Str("inf".into())
            } else {
                Json::Str("-inf".into())
            };
        },
    )
}

/// Number of tree nodes matching `pred` (pre-order).
fn count_nodes(v: &Json, pred: &dyn Fn(&Json) -> bool) -> usize {
    let mut n = usize::from(pred(v));
    match v {
        Json::Arr(a) => n += a.iter().map(|x| count_nodes(x, pred)).sum::<usize>(),
        Json::Obj(o) => n += o.iter().map(|(_, x)| count_nodes(x, pred)).sum::<usize>(),
        _ => {}
    }
    n
}

/// Applies `mutate` to the `target`-th matching node (pre-order).
fn mutate_nth(
    v: &mut Json,
    pred: &dyn Fn(&Json) -> bool,
    target: usize,
    seen: &mut usize,
    mutate: &mut dyn FnMut(&mut Json),
) -> bool {
    if pred(v) {
        if *seen == target {
            mutate(v);
            return true;
        }
        *seen += 1;
    }
    match v {
        Json::Arr(a) => {
            for x in a {
                if mutate_nth(x, pred, target, seen, mutate) {
                    return true;
                }
            }
        }
        Json::Obj(o) => {
            for (_, x) in o {
                if mutate_nth(x, pred, target, seen, mutate) {
                    return true;
                }
            }
        }
        _ => {}
    }
    false
}

/// Picks one matching node uniformly and applies `mutate` with the RNG.
fn with_nth(
    v: &mut Json,
    rng: &mut Rng,
    pred: &dyn Fn(&Json) -> bool,
    mutate: &mut dyn FnMut(&mut Json, &mut Rng),
) -> bool {
    let count = count_nodes(v, pred);
    if count == 0 {
        return false;
    }
    let target = rng.bounded_u64(count as u64) as usize;
    let mut seen = 0usize;
    mutate_nth(v, pred, target, &mut seen, &mut |j| mutate(j, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, parse, ToJson};

    fn sample() -> Json {
        obj([
            ("n", 4_u32.to_json()),
            ("xs", vec![1.0_f64, 2.5, -3.0, 4.0].to_json()),
            ("inner", obj([("sigma", 0.25_f64.to_json()), ("idx", 7_u32.to_json())])),
        ])
    }

    #[test]
    fn corruptions_are_deterministic() {
        let plan = FaultPlan::new(0xFA017);
        for fault in Fault::ALL {
            let text = sample().to_string();
            let a = plan.corrupt_text(3, fault, &text);
            let b = plan.corrupt_text(3, fault, &text);
            assert_eq!(a, b, "{fault:?} text corruption must be reproducible");
            let mut ja = sample();
            let mut jb = sample();
            let ra = plan.corrupt_json(3, fault, &mut ja);
            let rb = plan.corrupt_json(3, fault, &mut jb);
            assert_eq!(ra, rb);
            assert_eq!(ja, jb, "{fault:?} tree corruption must be reproducible");
        }
    }

    #[test]
    fn distinct_cases_usually_differ() {
        let plan = FaultPlan::new(1);
        let text = sample().to_string();
        let outputs: Vec<Vec<u8>> = (0..8)
            .map(|c| plan.corrupt_text(c, Fault::BitFlip, &text))
            .collect();
        let distinct = outputs
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 4, "bit flips should spread over the text");
    }

    #[test]
    fn truncate_shortens_and_bitflip_preserves_length() {
        let plan = FaultPlan::new(2);
        let text = sample().to_string();
        let t = plan.corrupt_text(0, Fault::Truncate, &text);
        assert!(t.len() < text.len());
        let f = plan.corrupt_text(0, Fault::BitFlip, &text);
        assert_eq!(f.len(), text.len());
        assert_ne!(f, text.as_bytes());
    }

    #[test]
    fn tree_faults_change_the_document() {
        let plan = FaultPlan::new(3);
        for fault in Fault::ALL.into_iter().filter(|f| !f.is_textual()) {
            // Some (fault, case) pairs are no-ops (e.g. a swap picking the
            // same index twice); at least one of a few cases must mutate.
            let mutated = (0..8).any(|case| {
                let mut v = sample();
                plan.corrupt_json(case, fault, &mut v) && v != sample()
            });
            assert!(mutated, "{fault:?} never changed the document");
        }
    }

    #[test]
    fn nan_poisoning_round_trips_through_text() {
        let plan = FaultPlan::new(4);
        let mut v = sample();
        assert!(plan.corrupt_json(0, Fault::NanNumber, &mut v));
        let back = parse(&v.to_string()).expect("still valid JSON");
        assert_eq!(back, v);
        assert!(count_nodes(&back, &|j| matches!(j, Json::Str(s) if s == "nan")) == 1);
    }

    #[test]
    fn huge_integer_targets_integers_only() {
        let plan = FaultPlan::new(5);
        let mut v = sample();
        assert!(plan.corrupt_json(1, Fault::HugeInteger, &mut v));
        assert_eq!(
            count_nodes(&v, &|j| matches!(j, Json::Num(n) if *n > 3.9e9)),
            1
        );
    }

    #[test]
    fn batch_corruption_is_deterministic_and_changes_the_batch() {
        let plan = FaultPlan::new(6);
        for fault in SessionFault::ALL {
            let fresh = || (vec![0u32, 3, 7], vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
            let (mut ia, mut va) = fresh();
            let (mut ib, mut vb) = fresh();
            assert!(plan.corrupt_batch(2, fault, &mut ia, &mut va, 2, 10));
            assert!(plan.corrupt_batch(2, fault, &mut ib, &mut vb, 2, 10));
            assert_eq!(ia, ib, "{fault:?} ids must be reproducible");
            assert_eq!(
                va.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                vb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{fault:?} values must be reproducible"
            );
            let (ic, vc) = fresh();
            assert!(
                ia != ic || va.iter().zip(&vc).any(|(a, b)| a.to_bits() != b.to_bits()),
                "{fault:?} corrupted nothing"
            );
        }
    }

    #[test]
    fn batch_corruption_classes_hit_their_target() {
        let plan = FaultPlan::new(7);
        // HugeId must produce an id at or beyond the limit.
        let mut ids = vec![1u32, 2];
        let mut vals = vec![0.0f64; 4];
        assert!(plan.corrupt_batch(0, SessionFault::HugeId, &mut ids, &mut vals, 2, 5));
        assert!(ids.iter().any(|&i| i > 5), "HugeId stayed in range: {ids:?}");
        assert!(SessionFault::HugeId.rejected_at_validation());
        // NaN lands exactly one NaN.
        let mut ids = vec![1u32, 2];
        let mut vals = vec![0.5f64; 4];
        assert!(plan.corrupt_batch(0, SessionFault::NanValue, &mut ids, &mut vals, 2, 5));
        assert_eq!(vals.iter().filter(|v| v.is_nan()).count(), 1);
        assert!(SessionFault::NanValue.rejected_at_validation());
        assert!(!SessionFault::DuplicateEntry.rejected_at_validation());
        // DuplicateEntry grows both arrays consistently.
        let mut ids = vec![1u32, 2];
        let mut vals = vec![0.5f64, 1.5, 2.5, 3.5];
        assert!(plan.corrupt_batch(0, SessionFault::DuplicateEntry, &mut ids, &mut vals, 2, 5));
        assert_eq!(ids.len(), 3);
        assert_eq!(vals.len(), 6);
        // Degenerate batches are refused untouched.
        let mut empty_ids: Vec<u32> = vec![];
        let mut empty_vals: Vec<f64> = vec![];
        assert!(!plan.corrupt_batch(0, SessionFault::NanValue, &mut empty_ids, &mut empty_vals, 2, 5));
        let mut ids = vec![1u32];
        let mut short = vec![0.0f64]; // not parallel for stride 2
        assert!(!plan.corrupt_batch(0, SessionFault::NanValue, &mut ids, &mut short, 2, 5));
    }

    #[test]
    fn scenario_corruption_damages_exactly_one_scenario_deterministically() {
        let plan = FaultPlan::new(8);
        for fault in BatchFault::ALL {
            assert!(fault.rejected_at_validation());
            let fresh = || {
                (
                    vec![vec![0u32, 3], vec![], vec![5u32]],
                    vec![vec![1.0f64, 2.0, 3.0, 4.0], vec![], vec![5.0f64, 6.0]],
                )
            };
            let (mut ia, mut va) = fresh();
            let (mut ib, mut vb) = fresh();
            let sa = plan
                .corrupt_one_scenario(3, fault, &mut ia, &mut va, 2, 10)
                .expect("non-empty batch");
            let sb = plan
                .corrupt_one_scenario(3, fault, &mut ib, &mut vb, 2, 10)
                .expect("non-empty batch");
            assert_eq!(sa, sb, "{fault:?} must pick the same scenario");
            assert_eq!(ia, ib);
            for (x, y) in va.iter().flatten().zip(vb.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            // Only the reported scenario differs from a clean batch; the
            // empty scenario is never picked.
            let (ic, vc) = fresh();
            assert_ne!(sa, 1, "empty scenarios must not be targeted");
            for s in 0..ic.len() {
                let changed = ia[s] != ic[s]
                    || va[s]
                        .iter()
                        .zip(&vc[s])
                        .any(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(changed, s == sa, "{fault:?} leaked into scenario {s}");
            }
            match fault {
                BatchFault::NanValue => {
                    assert_eq!(va[sa].iter().filter(|v| v.is_nan()).count(), 1)
                }
                BatchFault::HugeId => assert!(ia[sa].iter().any(|&i| i > 10)),
            }
        }
        // Degenerate batches are refused untouched.
        let mut no_ids: Vec<Vec<u32>> = vec![vec![]];
        let mut no_vals: Vec<Vec<f64>> = vec![vec![]];
        assert!(plan
            .corrupt_one_scenario(0, BatchFault::NanValue, &mut no_ids, &mut no_vals, 2, 5)
            .is_none());
        let mut ids = vec![vec![1u32]];
        let mut short = vec![vec![0.0f64]]; // not parallel for stride 2
        assert!(plan
            .corrupt_one_scenario(0, BatchFault::NanValue, &mut ids, &mut short, 2, 5)
            .is_none());
    }

    #[test]
    fn frame_corruption_is_deterministic_and_class_faithful() {
        let plan = FaultPlan::new(9);
        let frame = {
            let body = br#"{"id":7,"op":"report_slack"}"#;
            let mut f = format!("{}\n", body.len()).into_bytes();
            f.extend_from_slice(body);
            f
        };
        let header_end = frame.iter().position(|&b| b == b'\n').unwrap();
        for fault in ProtocolFault::ALL {
            let a = plan.corrupt_frame(5, fault, &frame);
            let b = plan.corrupt_frame(5, fault, &frame);
            assert_eq!(a, b, "{fault:?} must be reproducible");
            match fault {
                ProtocolFault::TruncatedFrame | ProtocolFault::MidRequestDisconnect => {
                    assert!(a.len() < frame.len(), "{fault:?} must drop bytes");
                    assert_eq!(&a[..=header_end], &frame[..=header_end], "header intact");
                }
                ProtocolFault::GarbageJson => {
                    assert_eq!(a.len(), frame.len(), "length claim must stay true");
                    assert_eq!(&a[..=header_end], &frame[..=header_end], "header intact");
                    assert_ne!(a, frame, "body must be damaged");
                    assert!(fault.keeps_connection());
                }
                ProtocolFault::OversizedLength => {
                    let line = a.split(|&b| b == b'\n').next().unwrap();
                    let n: u64 = std::str::from_utf8(line).unwrap().parse().unwrap();
                    assert!(n > u64::from(u32::MAX), "length must be absurd: {n}");
                }
                ProtocolFault::BadLengthHeader => {
                    let line = a.split(|&b| b == b'\n').next().unwrap();
                    assert!(
                        std::str::from_utf8(line)
                            .ok()
                            .and_then(|s| s.parse::<u32>().ok())
                            .is_none(),
                        "header must not parse as a sane length: {line:?}"
                    );
                }
                ProtocolFault::SlowLoris | ProtocolFault::DeadlineStorm => {
                    assert_eq!(a, frame, "{fault:?} is connection-behavioral, not byte-level");
                    assert!(!fault.is_byte_level());
                }
            }
        }
        // A headerless blob is passed through rather than panicking.
        let raw = plan.corrupt_frame(0, ProtocolFault::GarbageJson, b"no-newline");
        assert_eq!(raw, b"no-newline");
    }
}
