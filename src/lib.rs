//! # insta-sta — a Rust reproduction of INSTA (DAC 2025)
//!
//! INSTA is an ultra-fast, differentiable, statistical static timing
//! analysis engine for industrial physical design (Lu et al., NVIDIA
//! Research, DAC 2025). This workspace reproduces the full system in pure
//! Rust — including every substrate the paper depends on (see DESIGN.md
//! for the substitution map):
//!
//! | Crate | Role |
//! |---|---|
//! | [`liberty`] | NLDM cell library model, Liberty-subset parser, synthetic library |
//! | [`netlist`] | Design data model, timing graph, clock trees, design generators |
//! | [`refsta`] | Reference "signoff" STA engine (the PrimeTime stand-in) |
//! | [`engine`] | The INSTA engine: Top-K CPPR propagation, LSE forward, gradient backward |
//! | [`serve`] | Timing-as-a-service daemon: MVCC snapshot reads, admission control, deadlines |
//! | [`placer`] | Analytic global placement, net-weighting and INSTA-Place |
//! | [`sizer`] | Evaluator flow, greedy reference sizer, INSTA-Size |
//!
//! # Quickstart
//!
//! ```
//! use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
//! use insta_sta::refsta::{RefSta, StaConfig};
//! use insta_sta::engine::{InstaConfig, InstaEngine, MismatchStats};
//!
//! // 1. A synthetic design plus the reference signoff engine.
//! let design = generate_design(&GeneratorConfig::small("demo", 42));
//! let mut golden = RefSta::new(&design, StaConfig::default())?;
//! golden.full_update(&design);
//!
//! // 2. One-time initialization of INSTA from the reference tool (Fig. 1).
//! let mut insta = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())?;
//!
//! // 3. Ultra-fast statistical propagation + endpoint slack correlation.
//! let report = insta.propagate().clone();
//! let exact: Vec<f64> = golden.report().endpoints.iter().map(|e| e.slack_ps).collect();
//! let stats = MismatchStats::compute(&report.slacks, &exact);
//! assert!(stats.correlation > 0.999);
//!
//! // 4. Timing gradients for differentiable optimization.
//! insta.forward_lse();
//! insta.backward_tns();
//! let grads = insta.arc_gradients();
//! assert_eq!(grads.len(), golden.graph().num_arcs());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The runnable binaries under `examples/` walk through the paper's three
//! applications: the incremental evaluator flow, INSTA-Size, and
//! INSTA-Place.

/// The INSTA engine (re-export of `insta-engine`).
pub use insta_engine as engine;
/// Cell-library model (re-export of `insta-liberty`).
pub use insta_liberty as liberty;
/// Netlist model and generators (re-export of `insta-netlist`).
pub use insta_netlist as netlist;
/// Placement systems (re-export of `insta-placer`).
pub use insta_placer as placer;
/// Reference signoff engine (re-export of `insta-refsta`).
pub use insta_refsta as refsta;
/// Timing-as-a-service daemon: MVCC snapshot reads, admission control,
/// deadlines, graceful degradation (re-export of `insta-serve`).
pub use insta_serve as serve;
/// Hermetic std-only support kit: PRNG, JSON, property tests, bench timer
/// (re-export of `insta-support`).
pub use insta_support as support;
/// Gate-sizing systems (re-export of `insta-sizer`).
pub use insta_sizer as sizer;
