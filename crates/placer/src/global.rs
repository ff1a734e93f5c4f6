//! The global placer: plain analytic placement, net-weighting, and
//! INSTA-Place (paper §III-I, Eqs. 7–8).
//!
//! All three modes share the same substrate — WA wirelength + bilinear
//! density, normalized-momentum descent, periodic timing refresh — and
//! differ only in how timing feedback enters the objective:
//!
//! * **Wirelength** (the DREAMPlace role): no timing term.
//! * **NetWeighting** (the DREAMPlace 4.0 role): per-net momentum weights
//!   `w ← β·w + (1−β)·(1 + α·criticality)` scale the wirelength gradient —
//!   note the two drawbacks Fig. 5 calls out (slack locality, equal
//!   weighting of all arcs in a net).
//! * **InstaPlace**: the arc-based timing term of Eq. 7,
//!   `L_timing = λ_RC Σ (|x_f − x_t| + |y_f − y_t|)·g_k`, with λ₂ set by
//!   gradient-norm matching (Eq. 8) at every timing refresh.

use crate::db::{PlacementDb, UTILIZATION};
use crate::density::DensityGrid;
use crate::legalize::legalize;
use crate::optimizer::NormalizedMomentum;
use crate::timing::{refresh_timing, TimingMode};
use crate::wirelength::WaWirelength;
use insta_engine::InstaConfig;
use insta_netlist::Design;
use insta_refsta::{RefSta, StaConfig};
use insta_support::obs::Recorder;

/// Placement optimization mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacerMode {
    /// Wirelength + density only (DREAMPlace baseline).
    Wirelength,
    /// Momentum-based net weighting (DREAMPlace 4.0 baseline).
    NetWeighting {
        /// Criticality gain α.
        alpha: f64,
        /// Momentum β.
        beta: f64,
    },
    /// Arc-gradient timing objective (INSTA-Place).
    InstaPlace {
        /// RC delay per unit wirelength, the paper's λ_RC (~0.001 in
        /// their units; ours is ps per µm of Manhattan distance).
        lambda_rc: f64,
    },
}

/// Descent step length (µm per iteration at RMS gradient; see
/// [`NormalizedMomentum`]).
const LR: f64 = 1.0;
/// WA smoothing γ (µm).
const GAMMA: f64 = 4.0;
/// Initial density-to-wirelength gradient-norm ratio (λ₁ is re-derived each
/// iteration as `ratio · ‖∇WL‖ / ‖∇den‖`, so the density force is
/// meaningful from iteration 0 — preventing the collapse-then-explode
/// trajectory of a fixed small λ₁).
const DENSITY_WEIGHT: f64 = 0.10;
/// Multiplicative growth of the density ratio per iteration.
const DENSITY_GROWTH: f64 = 1.02;
/// Density bins per side.
const BINS: usize = 16;
/// Target bin density.
const TARGET_DENSITY: f64 = 0.9;
/// Iteration at which timing feedback activates (both net weighting and
/// the INSTA-Place term); earlier iterations are pure wirelength+density,
/// letting the netlist untangle from the random start before timing is
/// meaningful.
const TIMING_START_ITER: usize = 30;
/// Stop once the maximum bin density falls below
/// `TARGET_DENSITY * OVERFLOW_STOP` (the analytic-placement overflow
/// convergence criterion).
const OVERFLOW_STOP: f64 = 1.30;

/// Global-placement configuration.
#[derive(Debug, Clone)]
pub struct PlacerConfig {
    /// Descent iterations.
    pub iterations: usize,
    /// Timing refresh period (paper: 15).
    pub refresh_every: usize,
    /// Placement seed.
    pub seed: u64,
    /// Optimization mode.
    pub mode: PlacerMode,
    /// INSTA engine settings for the gradient refresh.
    pub insta: InstaConfig,
    /// Scale on the norm-matched timing term (1.0 = full Eq. 8 matching;
    /// the default damps the term because the arc weights are reused for
    /// 14 of every 15 iterations and stale forces overshoot under full
    /// matching).
    pub timing_scale: f64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            iterations: 250,
            refresh_every: 15,
            seed: 1,
            mode: PlacerMode::Wirelength,
            insta: InstaConfig {
                // Placement wants gradient *spread*: a temperature around a
                // gate delay makes every near-critical path contribute
                // (paper Eq. 4's smoothing knob), instead of the single
                // worst path per endpoint.
                lse_tau: 60.0,
                ..InstaConfig::default()
            },
            timing_scale: 0.4,
        }
    }
}

/// Result of a placement run.
#[derive(Debug, Clone)]
pub struct PlaceResult {
    /// HPWL of the random initial placement (µm).
    pub hpwl_init: f64,
    /// HPWL after global placement (µm).
    pub hpwl_global: f64,
    /// HPWL after legalization (µm).
    pub hpwl_legal: f64,
    /// TNS of the initial placement (ps).
    pub tns_init_ps: f64,
    /// TNS after legalization (ps).
    pub tns_legal_ps: f64,
    /// WNS after legalization (ps).
    pub wns_legal_ps: f64,
    /// Every timing refresh's spans (`timing` module docs).
    pub trace: Recorder,
    /// The final (legalized) placement.
    pub db: PlacementDb,
}

/// Runs global placement + legalization on `design` and reports
/// post-legalization metrics (Table III protocol).
pub fn place(design: &mut Design, cfg: &PlacerConfig) -> PlaceResult {
    let n = design.cells().len();
    let mut db = PlacementDb::random(design, UTILIZATION, cfg.seed);
    let mut sta = RefSta::new(design, StaConfig::default()).expect("acyclic design");

    db.update_wires(design);
    let init_report = sta.full_update(design);
    let hpwl_init = db.hpwl(design);

    let wl = WaWirelength { gamma: GAMMA };
    let grid = DensityGrid::new(BINS, TARGET_DENSITY);
    let mut opt_x = NormalizedMomentum::new(n, LR);
    let mut opt_y = NormalizedMomentum::new(n, LR);
    let mut density_ratio = DENSITY_WEIGHT;
    let mut lambda2 = 0.0;
    let mut net_weights = vec![1.0_f64; design.nets().len()];
    // DP-4.0-style momentum accumulator: weights only grow (the paper's
    // Fig. 5 over-constraining behaviour follows from this).
    let mut net_momentum = vec![0.0_f64; design.nets().len()];
    let mut arcs: Vec<crate::timing::ArcWeight> = Vec::new();
    let mut trace = Recorder::new();

    let mut wl_grad_x = vec![0.0; n];
    let mut wl_grad_y = vec![0.0; n];
    let mut den_grad_x = vec![0.0; n];
    let mut den_grad_y = vec![0.0; n];
    let mut tim_grad_x = vec![0.0; n];
    let mut tim_grad_y = vec![0.0; n];

    for it in 0..cfg.iterations {
        let timing_active = it >= TIMING_START_ITER;
        let refreshed = it % cfg.refresh_every == 0 && timing_active;
        if refreshed {
            let mode = match cfg.mode {
                PlacerMode::Wirelength => TimingMode::None,
                PlacerMode::NetWeighting { .. } => TimingMode::NetWeighting,
                PlacerMode::InstaPlace { .. } => TimingMode::InstaPlace,
            };
            let refresh = refresh_timing(design, &db, &mut sta, mode, &cfg.insta, &mut trace);
            match cfg.mode {
                PlacerMode::NetWeighting { alpha, beta } => {
                    // Momentum-based net weighting (DREAMPlace 4.0): the
                    // weight increment is momentum-smoothed criticality,
                    // and weights accumulate monotonically.
                    for (i, &c) in refresh.net_crit.iter().enumerate() {
                        net_momentum[i] =
                            beta * net_momentum[i] + (1.0 - beta) * alpha * c;
                        net_weights[i] += net_momentum[i];
                    }
                }
                PlacerMode::InstaPlace { .. } => {
                    arcs = refresh.arc_weights.clone();
                }
                PlacerMode::Wirelength => {}
            }
        }

        // ---- Gradients -------------------------------------------------
        wl_grad_x.fill(0.0);
        wl_grad_y.fill(0.0);
        den_grad_x.fill(0.0);
        den_grad_y.fill(0.0);
        let weights = match cfg.mode {
            PlacerMode::NetWeighting { .. } => Some(net_weights.as_slice()),
            _ => None,
        };
        wl.eval_grad(design, &db, weights, &mut wl_grad_x, &mut wl_grad_y);
        grid.eval_grad(&db, &mut den_grad_x, &mut den_grad_y);
        // Norm-balance the density term every iteration (see
        // `DENSITY_WEIGHT`): `lambda1 = ratio · ‖∇WL‖ / ‖∇den‖`.
        let wl_norm = norm2_pair(&wl_grad_x, &wl_grad_y, 0.0, &den_grad_x, &den_grad_y);
        let den_norm = norm2_pair(&den_grad_x, &den_grad_y, 0.0, &wl_grad_x, &wl_grad_y);
        let lambda1 = if den_norm > 0.0 {
            density_ratio * wl_norm / den_norm
        } else {
            0.0
        };

        let lambda_rc = match cfg.mode {
            PlacerMode::InstaPlace { lambda_rc } => lambda_rc,
            _ => 0.0,
        };
        if lambda_rc > 0.0 && !arcs.is_empty() && timing_active {
            tim_grad_x.fill(0.0);
            tim_grad_y.fill(0.0);
            for aw in &arcs {
                // ∂(|x_f − x_t| + |y_f − y_t|)·g/∂coords (Eq. 7), with the
                // hard sign saturated over the WA smoothing length so the
                // pull vanishes once an arc is already short (bang-bang
                // forces on short arcs destabilize the descent).
                let (fx, fy) = db.pin_pos(design, aw.from);
                let (tx, ty) = db.pin_pos(design, aw.to);
                let sat = |d: f64| (d / GAMMA).clamp(-1.0, 1.0);
                let gx = lambda_rc * aw.weight * sat(fx - tx);
                let gy = lambda_rc * aw.weight * sat(fy - ty);
                // The sink only owns this branch, so it takes the full
                // pull; dragging the *driver* of a multi-fanout net toward
                // one critical sink lengthens every sibling branch, so the
                // driver side is scaled by 1/fanout.
                let fanout = design.pin(aw.from).net.map(|n| design.net(n).sinks.len()).unwrap_or(1);
                let drv_scale = 1.0 / fanout.max(1) as f64;
                if let Some(c) = design.pin(aw.from).cell {
                    tim_grad_x[c.index()] += gx * drv_scale;
                    tim_grad_y[c.index()] += gy * drv_scale;
                }
                if let Some(c) = design.pin(aw.to).cell {
                    tim_grad_x[c.index()] -= gx;
                    tim_grad_y[c.index()] -= gy;
                }
            }
            // Eq. 8 variant: match the timing gradient norm to the
            // *wirelength* gradient norm, re-normalized every iteration.
            // (Matching against WL + λ₁·density as literally written would
            // couple the timing force to the exponentially ramped density
            // weight, making it fight density convergence in the endgame;
            // with a gentle density schedule the two readings coincide.)
            let base_norm = norm2_pair(&wl_grad_x, &wl_grad_y, 0.0, &den_grad_x, &den_grad_y);
            let tim_norm = norm2_pair(&tim_grad_x, &tim_grad_y, 0.0, &den_grad_x, &den_grad_y);
            lambda2 = if tim_norm > 0.0 {
                base_norm / tim_norm
            } else {
                0.0
            };
            // When only a handful of arcs carry gradient (a nearly clean
            // design), norm matching would focus the entire objective's
            // magnitude on a few cells and destabilize them; additionally
            // bound the *per-cell* timing force by the largest per-cell
            // base force.
            let max_abs = |xs: &[f64], ys: &[f64]| -> f64 {
                xs.iter()
                    .chain(ys.iter())
                    .fold(0.0_f64, |m, &v| m.max(v.abs()))
            };
            let max_tim = max_abs(&tim_grad_x, &tim_grad_y);
            let max_wl = max_abs(&wl_grad_x, &wl_grad_y);
            if max_tim > 0.0 && max_wl > 0.0 {
                lambda2 = lambda2.min(max_wl / max_tim);
            }
            lambda2 *= cfg.timing_scale;
        }

        // ---- Step --------------------------------------------------------
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        for i in 0..n {
            gx[i] = wl_grad_x[i] + lambda1 * den_grad_x[i];
            gy[i] = wl_grad_y[i] + lambda1 * den_grad_y[i];
            if lambda_rc > 0.0 {
                gx[i] += lambda2 * tim_grad_x[i];
                gy[i] += lambda2 * tim_grad_y[i];
            }
        }
        opt_x.step(&mut db.x, &gx);
        opt_y.step(&mut db.y, &gy);
        db.clamp_to_region();
        density_ratio *= DENSITY_GROWTH;
        // Convergence: once bin overflow is essentially resolved, more
        // density ramping only shreds wirelength and timing (analytic
        // placers stop on an overflow threshold for the same reason).
        if density_ratio >= 2.0 && grid.max_density(&db) <= TARGET_DENSITY * OVERFLOW_STOP {
            break;
        }
    }

    let hpwl_global = db.hpwl(design);
    legalize(&mut db, design);
    db.update_wires(design);
    let legal_report = sta.full_update(design);

    PlaceResult {
        hpwl_init,
        hpwl_global,
        hpwl_legal: db.hpwl(design),
        tns_init_ps: init_report.tns_ps,
        tns_legal_ps: legal_report.tns_ps,
        wns_legal_ps: legal_report.wns_ps,
        trace,
        db,
    }
}

/// ‖(a + λ·b)‖₂ over the stacked x/y gradient vectors.
fn norm2_pair(ax: &[f64], ay: &[f64], lambda: f64, bx: &[f64], by: &[f64]) -> f64 {
    let mut s = 0.0;
    for i in 0..ax.len() {
        let x = ax[i] + lambda * bx[i];
        let y = ay[i] + lambda * by[i];
        s += x * x + y * y;
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    fn quick_cfg(mode: PlacerMode) -> PlacerConfig {
        PlacerConfig {
            iterations: 45,
            refresh_every: 15,
            mode,
            ..PlacerConfig::default()
        }
    }

    #[test]
    fn wirelength_mode_reduces_hpwl() {
        let mut d = generate_design(&GeneratorConfig::small("gp", 3));
        let r = place(&mut d, &quick_cfg(PlacerMode::Wirelength));
        assert!(
            r.hpwl_global < r.hpwl_init,
            "global placement must improve HPWL: {} -> {}",
            r.hpwl_init,
            r.hpwl_global
        );
        assert!(r.hpwl_legal > 0.0);
        assert!(crate::legalize::is_legal(&r.db));
    }

    #[test]
    fn insta_place_runs_and_records_breakdowns() {
        let mut cfg = GeneratorConfig::small("gp", 5);
        cfg.clock_period_ps = 300.0;
        let mut d = generate_design(&cfg);
        let r = place(
            &mut d,
            &quick_cfg(PlacerMode::InstaPlace { lambda_rc: 0.01 }),
        );
        // Timing activates at iteration 30, so a 45-iteration run
        // refreshes exactly once.
        assert_eq!(r.trace.sum("placer.refresh").count, 1);
        assert!(r.trace.sum("placer.refsta").ns > 0);
        assert!(r.tns_legal_ps.is_finite());
    }

    #[test]
    fn net_weighting_runs() {
        let mut cfg = GeneratorConfig::small("gp", 7);
        cfg.clock_period_ps = 300.0;
        let mut d = generate_design(&cfg);
        let r = place(
            &mut d,
            &quick_cfg(PlacerMode::NetWeighting {
                alpha: 4.0,
                beta: 0.5,
            }),
        );
        assert!(r.hpwl_global < r.hpwl_init);
    }

    #[test]
    fn placement_is_deterministic() {
        let mk = || {
            let mut d = generate_design(&GeneratorConfig::small("gp", 9));
            place(&mut d, &quick_cfg(PlacerMode::Wirelength))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.hpwl_global, b.hpwl_global);
        assert_eq!(a.hpwl_legal, b.hpwl_legal);
    }
}
