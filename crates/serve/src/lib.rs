//! Timing-as-a-service: a fault-tolerant daemon over the INSTA engine.
//!
//! The engine itself is a single-writer data structure: sessions mutate
//! Top-K state in place and commit or roll back transactionally. This
//! crate puts a *service* in front of it so one timing engine can back
//! many concurrent consumers — the paper's "timing feedback inside the
//! optimization loop" deployed as shared infrastructure:
//!
//! * [`server`] — MVCC snapshot publication (readers are lock-free with
//!   respect to the writer; an epoch is observed whole or not at all),
//!   the panic-isolating connection supervisor, and request dispatch.
//! * [`admission`] — bounded in-flight admission with typed `overloaded`
//!   rejections and graceful degradation tiers: shed heavy analysis
//!   first, degrade read freshness second, never drop the writer.
//! * [`protocol`] — length-prefixed JSON frames (scriptable from a
//!   shell) and the request/response schema; f64 slacks survive the wire
//!   bit-exactly via shortest round-trip formatting.
//! * [`client`] — the blocking client used by tests, benches, and
//!   scripted sessions.
//! * [`wal`] — the durability layer: a checksummed, length-framed
//!   write-ahead log of committed writer ops (appended and fsync'd
//!   *before* publication) plus atomic binary checkpoints of the
//!   committed engine state.
//! * [`recovery`] — startup recovery: newest valid checkpoint + WAL tail
//!   replayed through real sessions, bit-identical to a crash-free twin;
//!   torn tails truncated with typed incidents.
//!
//! The `insta-serve` binary serves stdin/stdout by default or TCP with
//! `--tcp ADDR`; add `--durability DIR` to survive `kill -9` with no
//! committed work lost. See DESIGN.md "Service architecture" and
//! "Durability and recovery" for the failure matrices and README
//! "Timing as a service" for a scripted quickstart.

pub mod admission;
pub mod client;
pub mod protocol;
pub mod recovery;
pub mod server;
pub mod wal;

pub use admission::{Admission, Rejection, ServeConfig, ServeCounters, Tier};
pub use client::{Client, ClientError, Response};
pub use protocol::{Op, OpKind, Request, PROTOCOL_VERSION};
pub use recovery::{recover, RecoveryReport};
pub use server::{PublishedEpoch, Server, SnapshotCell};
pub use wal::{Durability, DurabilityConfig, DurabilityStats};
