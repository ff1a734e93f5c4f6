//! Analytic global-placement substrate and the timing-driven placers of
//! the INSTA reproduction (paper §III-I / §IV-D).
//!
//! * [`db`] — the placement database: cell positions, region, port
//!   locations, placement-derived wire RC, and exact HPWL.
//! * [`wirelength`] — the weighted-average (WA) smooth wirelength model
//!   with analytic gradients and per-net weights.
//! * [`density`] — bilinear bin-density penalty with analytic gradients.
//! * [`optimizer`] — Adam over cell coordinates.
//! * [`timing`] — the timing interface: refresh the reference engine from
//!   placement-derived parasitics, compute INSTA arc gradients or
//!   net-weighting criticalities, and record the runtime breakdown
//!   (Fig. 9).
//! * [`global`] — the global placer with three modes: plain
//!   wirelength+density (the DREAMPlace role), momentum net-weighting (the
//!   DREAMPlace 4.0 role), and INSTA-Place's arc-gradient timing objective
//!   (Eqs. 7–8).
//! * [`legalize`](mod@legalize) — a row-based Tetris legalizer (the ABCDPlace role), so
//!   Table III metrics are post-legalization.

pub mod db;
pub mod density;
pub mod global;
pub mod legalize;
pub mod optimizer;
pub mod timing;
pub mod wirelength;

pub use db::PlacementDb;
pub use density::DensityGrid;
pub use global::{place, PlaceResult, PlacerConfig, PlacerMode};
pub use legalize::legalize;
pub use optimizer::{Adam, NormalizedMomentum};
pub use timing::{
    refresh_timing, refresh_timing_traced, RefreshBreakdown, TimingMode, TimingRefresh,
};
pub use wirelength::WaWirelength;
