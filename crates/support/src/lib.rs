//! Workspace support utilities with **zero external dependencies**.
//!
//! The INSTA reproduction is built to compile and test on any machine with
//! a bare Rust toolchain and no network access (see the "Hermetic build"
//! section of the README). This crate provides the in-tree replacements
//! for the external crates a workspace like this would normally pull in:
//!
//! * [`rng`] — a deterministic xoshiro256++ PRNG seeded via SplitMix64
//!   (replaces `rand::rngs::StdRng` in the netlist generator, placement
//!   DB, sizer changelists, and bench ablations),
//! * [`json`] — a minimal JSON value model, parser, and writer with
//!   [`json::ToJson`]/[`json::FromJson`] traits (replaces
//!   `serde`/`serde_json` in the snapshot interchange),
//! * [`prop`] — a seeded property-testing harness with shrink-on-failure
//!   (replaces `proptest` in the workspace's property suites),
//! * [`timer`] — a `std::time::Instant` benchmark harness (replaces
//!   `criterion` in `crates/bench`),
//! * [`fault`] — a deterministic fault-injection harness (seeded snapshot
//!   corruption for the robustness suites),
//! * [`hash`] — an in-tree CRC-32 (replaces the `crc32fast` crate for the
//!   durability layer's record checksums),
//! * [`obs`] — a hierarchical span recorder with a bounded journal and
//!   JSON-lines export (replaces `tracing`/`tracing-subscriber` in the
//!   observability layer).

pub mod fault;
pub mod hash;
pub mod json;
pub mod obs;
pub mod prop;
pub mod rng;
pub mod timer;

pub use fault::{
    BatchFault, CrashPoint, CrashSwitch, DurabilityFault, Fault, FaultPlan, ProtocolFault,
    SessionFault,
};
pub use hash::{crc32, Crc32};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use obs::{Recorder, SpanEvent, SpanSum};
pub use prop::{for_all, Config as PropConfig, Shrink};
pub use rng::Rng;
pub use timer::{black_box, CancelToken, Deadline, Harness};
