//! Reference golden STA engine — the signoff-tool stand-in of the INSTA
//! reproduction (see DESIGN.md).
//!
//! The paper's INSTA engine does not compute delays itself: it *clones* arc
//! delay distributions from a reference signoff tool and re-implements only
//! the propagation. This crate is that reference tool, built from scratch:
//!
//! * [`delay`] — NLDM cell delays with slew propagation and Elmore
//!   interconnect delays, all annotated per timing arc with POCV sigma.
//! * [`clocktime`] — clock-network timing: per-tree-node early/late arrival
//!   with OCV derates, per-flop CK arrivals, and the cumulative common-path
//!   values that CPPR credit is derived from.
//! * [`sta`] — statistical (POCV) graph-based arrival propagation with
//!   per-startpoint tracking (the golden, "exact CPPR" analysis), endpoint
//!   slack/WNS/TNS, and timing exceptions.
//! * [`exceptions`] — false-path and multicycle exceptions keyed by
//!   (startpoint, endpoint).
//! * [`incremental`] — dirty-cone incremental re-annotation and
//!   re-propagation after netlist edits (the `update_timing` analogue).
//! * [`eco`] — the `estimate_eco` analogue: local delay-change estimation
//!   for candidate gate resizes without committing them.
//! * [`export`] — the CircuitOps-style arc-attribute export that
//!   initializes the INSTA engine (Fig. 2 of the paper).
//!
//! # Examples
//!
//! ```
//! use insta_netlist::generator::{generate_design, GeneratorConfig};
//! use insta_refsta::{RefSta, StaConfig};
//!
//! let design = generate_design(&GeneratorConfig::small("demo", 42));
//! let mut sta = RefSta::new(&design, StaConfig::default())?;
//! let report = sta.full_update(&design);
//! assert!(report.wns_ps >= f64::NEG_INFINITY);
//! # Ok::<(), insta_netlist::BuildGraphError>(())
//! ```

pub mod clocktime;
pub mod delay;
pub mod eco;
pub mod exceptions;
pub mod hold;
pub mod export;
pub mod incremental;
pub mod report;
pub mod sdc;
pub mod sta;

pub use clocktime::{ClockModelError, ClockTiming};
pub use delay::{ArcDelays, DelayCalc};
pub use eco::{estimate_eco, EcoEstimate};
pub use exceptions::{EpId, ExceptionSet, SpId};
pub use incremental::Changes;
pub use export::{ExportedArc, InstaInit};
pub use report::{PathReport, PathStage};
pub use sdc::{apply_sdc, ParseSdcError};
pub use sta::{EndpointReport, RefSta, StaConfig, StaReport};
