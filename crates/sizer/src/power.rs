//! Timing-constrained power recovery — the flow Application 1's evaluator
//! actually serves (paper §IV-B: "a commercial gate sizing flow for
//! timing-constrained power optimization").
//!
//! Combinational cells are downsized greedily, one notch at a time and
//! largest leakage saving first. Each downsizing is one
//! [`Coupled::try_resize`]: the reference re-times it exactly, INSTA
//! evaluates what changed, and the move is rolled back if TNS falls below
//! the run's starting TNS. Leakage falls; timing is held.

use crate::coupled::Coupled;
use crate::insta_size::{SizeOutcome, SizeRun};
use insta_engine::InstaConfig;
use insta_liberty::GateClass;
use insta_netlist::{CellId, Design};
use insta_refsta::RefSta;

/// Passes over the candidate list.
const MAX_PASSES: usize = 3;
/// INSTA's Top-K for the per-commit evaluation.
const TOP_K: usize = 8;

/// Outcome of a power-recovery run.
#[derive(Debug, Clone)]
pub struct PowerOutcome {
    /// Timing summary (before/after, via the golden engine).
    pub timing: SizeOutcome,
    /// Total leakage before (library units).
    pub leakage_before: f64,
    /// Total leakage after.
    pub leakage_after: f64,
    /// Number of downsizing commits (a cell downsized twice counts twice).
    pub cells_downsized: usize,
}

impl PowerOutcome {
    /// Fractional leakage recovered.
    pub fn recovery_frac(&self) -> f64 {
        if self.leakage_before > 0.0 {
            1.0 - self.leakage_after / self.leakage_before
        } else {
            0.0
        }
    }
}

/// Runs timing-constrained power recovery on `design`.
///
/// The golden engine re-times each move exactly; INSTA is the per-commit
/// evaluator (the Application-1 role).
pub fn power_recover(design: &mut Design, golden: &mut RefSta) -> PowerOutcome {
    let mut run = SizeRun::start(design, golden);
    let leakage_before = design.total_leakage();
    let tns_floor = run.before.tns_ps;
    let engine = InstaConfig {
        top_k: TOP_K,
        ..InstaConfig::default()
    };
    let mut timer = Coupled::new(design, golden, engine);
    let lib = timer.design().library_arc();
    let mut downsized = 0usize;

    for _pass in 0..MAX_PASSES {
        run.obs.begin("size.round");
        // Candidates: combinational non-clock cells above minimum drive,
        // sorted by the leakage saved by one downsizing notch.
        let design = timer.design();
        let mut cands: Vec<(f64, CellId, insta_liberty::LibCellId)> = Vec::new();
        for i in 0..design.cells().len() as u32 {
            let c = CellId(i);
            let lc = design.lib_cell_of(c);
            if lc.is_sequential() || lc.class == GateClass::ClkBuf {
                continue;
            }
            let fam = lib.family(lc.class);
            let Some(pos) = fam.iter().position(|&id| lib.cell(id).drive == lc.drive)
            else {
                continue;
            };
            if pos == 0 {
                continue; // already minimum drive
            }
            let smaller = fam[pos - 1];
            let saving = lc.leakage - lib.cell(smaller).leakage;
            if saving > 0.0 {
                cands.push((saving, c, smaller));
            }
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut committed = 0usize;
        for (_, cell, smaller) in cands {
            let kept = timer.try_resize(&mut run.obs, cell, smaller, |r| r.tns_ps >= tns_floor);
            committed += usize::from(kept);
        }
        run.obs.end_with(&[("committed", committed as f64)]);
        downsized += committed;
        if committed == 0 {
            break;
        }
    }

    PowerOutcome {
        timing: run.finish(design, golden),
        leakage_before,
        leakage_after: design.total_leakage(),
        cells_downsized: downsized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::StaConfig;

    /// A relaxed design has headroom: leakage must drop without breaking
    /// timing.
    #[test]
    fn recovers_leakage_without_breaking_timing() {
        let mut cfg = GeneratorConfig::small("pwr", 5);
        cfg.clock_period_ps = 2000.0; // generous headroom
        cfg.drive_choices = vec![4]; // start oversized
        let mut design = generate_design(&cfg);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = golden.full_update(&design);
        assert_eq!(before.n_violations, 0);
        let sizes: Vec<_> = design.cells().iter().map(|c| c.lib_cell).collect();

        let out = power_recover(&mut design, &mut golden);
        assert!(out.cells_downsized > 0, "headroom must be harvested");
        // A cell downsized twice is one cell sized and two commits.
        let cells = design.cells().iter().zip(&sizes);
        let changed = cells.filter(|(c, &s)| c.lib_cell != s).count();
        assert_eq!(out.timing.cells_sized, changed, "distinct cells");
        assert!(out.cells_downsized > changed, "some cell took two notches");
        assert!(
            out.leakage_after < out.leakage_before,
            "leakage {} -> {}",
            out.leakage_before,
            out.leakage_after
        );
        assert!(out.recovery_frac() > 0.2, "got {}", out.recovery_frac());
        assert_eq!(
            out.timing.violations_after, 0,
            "power recovery must hold timing (WNS {})",
            out.timing.wns_after_ps
        );
    }

    /// With a tight clock there is no headroom: the flow must hold the TNS
    /// floor rather than trade timing for power.
    #[test]
    fn holds_the_tns_floor_under_pressure() {
        let mut cfg = GeneratorConfig::small("pwr", 9);
        cfg.clock_period_ps = 170.0; // violating
        let mut design = generate_design(&cfg);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = golden.full_update(&design);
        assert!(before.n_violations > 0);

        let out = power_recover(&mut design, &mut golden);
        assert!(
            out.timing.tns_after_ps >= before.tns_ps - 1e-6,
            "TNS floor breached: {} -> {}",
            before.tns_ps,
            out.timing.tns_after_ps
        );
    }

    /// The outcome metrics are reproducible from the committed design.
    #[test]
    fn outcome_matches_fresh_analysis() {
        let mut cfg = GeneratorConfig::small("pwr", 11);
        cfg.clock_period_ps = 1500.0;
        cfg.drive_choices = vec![2, 4];
        let mut design = generate_design(&cfg);
        let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
        golden.full_update(&design);
        let out = power_recover(&mut design, &mut golden);
        let mut fresh = RefSta::new(&design, StaConfig::default()).expect("build");
        let report = fresh.full_update(&design);
        assert!((report.tns_ps - out.timing.tns_after_ps).abs() < 1e-6);
        assert!((design.total_leakage() - out.leakage_after).abs() < 1e-9);
    }
}
