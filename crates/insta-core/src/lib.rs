//! The INSTA engine: ultra-fast, differentiable, statistical timing
//! propagation (the paper's primary contribution).
//!
//! INSTA never computes delays; it is initialized from a reference engine's
//! [`InstaInit`](insta_refsta::InstaInit) snapshot (arc delay distributions,
//! launch arrivals, required times, clock-tree credit arrays) and performs
//! only propagation:
//!
//! * [`engine`] — the engine state: level-contiguous SoA arrays (the GPU
//!   memory layout of Fig. 3), built by renumbering nodes in level-major
//!   order so every level is a contiguous slice.
//! * [`topk`] — the fixed-size Top-K priority queue with **unique
//!   startpoints** (paper Algorithm 2); the CPPR mechanism. The literal
//!   push-by-push queue lives here as the kernels' test oracle.
//! * [`forward`] — the forward "kernel" (paper Algorithm 1): per-level
//!   data-parallel Top-K statistical arrival merging with rise/fall and
//!   unateness handling — each queue computed as one sorted-run selection
//!   and written once — executed by scoped CPU threads standing in for the
//!   CUDA grid (see DESIGN.md substitutions).
//! * [`lse`] — the differentiable forward pass: numerically stable
//!   Log-Sum-Exp smooth-max merging (paper Eq. 4–5) with stored softmax
//!   path weights.
//! * [`backward`] — the backward kernel: per-level gradient backpropagation
//!   of ∂TNS/∂(arc delay) through the stored weights (paper Eq. 6), i.e.
//!   the "timing gradients" that drive INSTA-Size and INSTA-Place.
//! * [`metrics`] — endpoint slack / WNS / TNS evaluation with
//!   SP-matched required times, CPPR credit, and exceptions.
//! * [`incremental`] — arc re-annotation from `estimate_eco` deltas plus
//!   full-speed re-propagation (the paper's incremental evaluation flow).
//! * [`hold`] — hold (early/min) propagation: the same full pass in its
//!   min instantiation, via corner negation (engine parity with the
//!   reference's hold analysis; an extension beyond the paper's setup-only
//!   scope).
//! * [`correlate`] — correlation and mismatch statistics used by the
//!   paper's Fig. 6 / Table I style comparisons.
//! * [`error`] — the typed error taxonomy ([`InstaError`]) of the
//!   untrusted-input and runtime paths.
//! * [`validate`] — snapshot validation: every snapshot is checked, and
//!   one with a fatal issue is rejected (see DESIGN.md "Error taxonomy and
//!   failure policy").
//! * [`session`] — transactional timing sessions: a timing transaction
//!   (`incremental::Txn`) with bit-identical rollback on poison,
//!   cooperative per-level cancellation with deadlines, and an advisory
//!   drift budget that says when to resync annotations (see DESIGN.md
//!   "Session lifecycle and failure policy").
//! * [`batch`] — batched what-if evaluation through one entry point,
//!   [`evaluate`](InstaEngine::evaluate): each scenario is a transaction
//!   whose cone sweep runs in place and is undone (a corner is one full
//!   pass into a scratch base first), bit-identical per scenario to S
//!   serial sessions, with per-scenario quarantine; it scores, and the
//!   engine's backward pass is the one gradient producer (see DESIGN.md
//!   "Batched scenario evaluation").
//! * [`snapshot`] — the immutable committed-epoch view
//!   ([`TimingSnapshot`](snapshot::TimingSnapshot)): slacks, arrivals,
//!   WNS/TNS, and epoch captured at commit time so the serve layer can
//!   publish MVCC reads by pointer swap while a writer mutates the next
//!   epoch (see DESIGN.md "Service architecture").
//! * `stat` — the statistical model: the paper's Gaussian POCV as five
//!   inlined functions every kernel calls (see DESIGN.md "Statistical
//!   model").
//! * [`persist`] — the canonical binary codec for durable state: writer
//!   ops and the engine's re-annotatable delay state, both bit-exact (`to_bits` floats) under the serve layer's write-ahead
//!   log and checkpoints (see DESIGN.md "Durability and recovery").
//! * [`trace`] — the observability layer: a [`TraceSink`](trace::TraceSink)
//!   threaded through every kernel pass recording spans, per-level
//!   duration/touched-node profiles (the paper's Fig. 9 breakdown via
//!   [`InstaEngine::perf_report`](engine::InstaEngine::perf_report)),
//!   batched-call totals, and session/incident events — zero overhead
//!   when disabled (see DESIGN.md "Observability").
//!
//! # Examples
//!
//! ```
//! use insta_netlist::generator::{generate_design, GeneratorConfig};
//! use insta_refsta::{RefSta, StaConfig};
//! use insta_engine::{InstaConfig, InstaEngine};
//!
//! let design = generate_design(&GeneratorConfig::small("demo", 42));
//! let mut golden = RefSta::new(&design, StaConfig::default())?;
//! golden.full_update(&design);
//!
//! let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())?;
//! engine.propagate();
//! let report = engine.report();
//! assert_eq!(report.slacks.len(), golden.report().endpoints.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod backward;
pub mod batch;
pub mod correlate;
pub mod engine;
pub mod error;
pub mod forward;
pub mod health;
pub mod hold;
pub mod incremental;
pub mod lse;
pub mod metrics;
pub mod parallel;
pub mod persist;
#[cfg(any(test, feature = "scalar-reference"))]
pub mod scalar_ref;
pub mod session;
pub mod snapshot;
pub(crate) mod stat;
pub mod topk;
pub mod trace;
pub mod validate;
pub(crate) mod validity;

pub use batch::{CornerTransform, DeltaSet, McmmReport, ModeMask, Scenario, ScenarioReport};
pub use correlate::{pearson, MismatchStats};
pub use engine::{DriftPolicy, InstaConfig, InstaEngine};
pub use error::{IncidentLog, InstaError, Kernel, PoisonedArray, RuntimeIncident, ServiceIncident};
pub use hold::{hold_attributes, HoldAttributes};
pub use metrics::{EngineCounters, InstaReport};
pub use parallel::PassOptions;
pub use persist::{ByteSink, Dec, Enc, EngineDurableState, PersistError, WriterOp};
pub use session::{SessionStatus, TimingSession};
pub use snapshot::TimingSnapshot;
pub use topk::TopKQueue;
pub use trace::{LevelProfile, PerfReport, PerfRow};
pub use validate::ValidationReport;
// Session control handles, re-exported so engine clients don't need a
// direct `insta_support` dependency.
pub use insta_support::timer::{CancelToken, Deadline};
