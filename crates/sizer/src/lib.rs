//! Gate-sizing systems of the INSTA reproduction.
//!
//! * [`coupled`] — the one timer INSTA-Size and power recovery move:
//!   design, reference engine and an INSTA engine equal to a fresh build.
//! * [`changelist`] — deterministic resize changelists (the shared input of
//!   the paper's Fig. 7 runtime comparison).
//! * [`flow`] — Application 1: INSTA as the fast timing evaluator inside a
//!   commercial-style sizing flow, benchmarked against the reference
//!   engine's full and incremental updates (Figs. 7–8).
//! * [`stage`] — the "stage" abstraction (a cell arc plus its driven net
//!   arcs), stage gradients from INSTA's backward kernel, and N-hop
//!   neighbourhood blocking.
//! * [`reference`](mod@reference) — a greedy slack-driven sizer playing the "signoff
//!   timing optimization engine" role of Table II's baseline.
//! * [`insta_size`](mod@insta_size) — INSTA-Size (paper §III-H): gradient-ranked stages,
//!   `estimate_eco` candidate evaluation, commit/rollback on INSTA's TNS,
//!   and 3-hop blocking.
//! * [`power`] — timing-constrained power recovery with INSTA as the
//!   per-commit evaluator (the flow Application 1 serves).
//! * [`buffering`] — INSTA-Buffer, a gradient-guided buffer-insertion
//!   prototype of the paper's stated future work.

pub mod buffering;
pub mod changelist;
pub mod coupled;
pub mod flow;
pub mod insta_size;
pub mod power;
pub mod reference;
pub mod stage;

pub use buffering::{insta_buffer, BufferingConfig, BufferingOutcome};
pub use changelist::{random_changelist, ResizeOp};
pub use coupled::Coupled;
pub use flow::{run_evaluator_flow, EvaluatorFlowResult, IterationTiming};
pub use insta_size::{insta_size, insta_size_traced, InstaSizeConfig, SizeOutcome};
pub use power::{power_recover, PowerOutcome, PowerRecoveryConfig};
pub use reference::{reference_size, ReferenceSizeConfig};
pub use stage::{cell_neighborhood, stage_gradients, StageGradient};
