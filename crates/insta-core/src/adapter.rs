//! The names only the frozen end-to-end benchmark (`crates/bench/src/bin/e2e`)
//! still calls. Each forwards in one line to the production route, so the
//! benchmark measures the same work; the benchmark's next revision deletes
//! this module together with its callers. Nothing else names these
//! (`scripts/ci.sh`, adapter gate).

use crate::batch::{McmmReport, Scenario, ScenarioReport};
use crate::engine::InstaEngine;
use crate::parallel::PassOptions;

/// A plain what-if scenario: a [`Scenario`] with neither corner nor mode.
pub type DeltaSet = Scenario;

/// The value of `InstaConfig::drift_policy`, which nothing reads: the
/// engine keeps no resync odometer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftPolicy;

impl DriftPolicy {
    /// The only policy there is.
    pub fn unlimited() -> Self {
        DriftPolicy
    }
}

impl InstaEngine {
    /// [`evaluate`](Self::evaluate) with default options, per-scenario
    /// reports only.
    #[doc(hidden)]
    pub fn evaluate_batch(&mut self, scenarios: &[Scenario]) -> Vec<ScenarioReport> {
        self.evaluate(scenarios, &PassOptions::default()).scenarios
    }

    /// [`evaluate`](Self::evaluate) with default options.
    #[doc(hidden)]
    pub fn evaluate_mcmm(&mut self, scenarios: &[Scenario]) -> McmmReport {
        self.evaluate(scenarios, &PassOptions::default())
    }
}
