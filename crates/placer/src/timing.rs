//! The placement ↔ timing interface.
//!
//! Every `refresh_every` iterations the placer re-derives wire RC from the
//! current placement, re-times the design with the reference engine, and
//! (depending on the mode) computes INSTA arc gradients or per-net
//! criticalities. The paper's INSTA-Place does exactly this with
//! OpenTimer + INSTA every 15 iterations, reusing the last gradients in
//! between; Fig. 9 breaks this refresh down into timer, gradient, and
//! transfer components — recorded here as [`RefreshBreakdown`].

use crate::db::PlacementDb;
use insta_engine::{InstaConfig, InstaEngine, PassOptions};
use insta_netlist::{Design, PinId, TimingArcKind};
use insta_refsta::RefSta;
use insta_support::obs::Recorder;
use std::time::Instant;

/// What the refresh computes beyond plain timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Timing report only (the plain-wirelength baseline needs nothing).
    None,
    /// Per-net criticalities from per-pin slacks (DP 4.0-style
    /// net-weighting).
    NetWeighting,
    /// Per-arc timing gradients from INSTA's backward kernel
    /// (INSTA-Place).
    InstaPlace,
}

/// Wall-clock breakdown of one timing refresh (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RefreshBreakdown {
    /// Re-deriving wire RC from placement (s).
    pub wire_update_s: f64,
    /// Reference-engine full timing update (the OpenTimer role) (s).
    pub reference_sta_s: f64,
    /// Snapshot export + engine rebuild — the "data transfer between the
    /// timer and INSTA" the paper calls out (s).
    pub transfer_s: f64,
    /// INSTA forward + LSE + backward (s).
    pub insta_grad_s: f64,
}

impl RefreshBreakdown {
    /// Total refresh time (s).
    pub fn total_s(&self) -> f64 {
        self.wire_update_s + self.reference_sta_s + self.transfer_s + self.insta_grad_s
    }
}

/// One weighted pin-to-pin arc for the INSTA-Place objective (Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcWeight {
    /// Driver pin.
    pub from: PinId,
    /// Sink pin.
    pub to: PinId,
    /// |∂TNS/∂(arc delay)| — the gradient-as-sensitivity weight g_k.
    pub weight: f64,
}

/// Result of a timing refresh.
#[derive(Debug, Clone)]
pub struct TimingRefresh {
    /// WNS after the refresh (ps).
    pub wns_ps: f64,
    /// TNS after the refresh (ps).
    pub tns_ps: f64,
    /// Weighted critical arcs (InstaPlace mode; empty otherwise).
    pub arc_weights: Vec<ArcWeight>,
    /// Per-net criticality in `[0, 1]` (NetWeighting mode; empty
    /// otherwise).
    pub net_crit: Vec<f64>,
    /// The INSTA gradient block failed (a NaN slack or an uncontained
    /// worker panic); `arc_weights` is empty and the placer should reuse
    /// its last gradients (the paper's between-refresh behaviour).
    pub degraded: bool,
    /// Runtime breakdown.
    pub breakdown: RefreshBreakdown,
}

/// Refreshes timing from the current placement.
///
/// `sta` must have been built over `design` (topology is unchanged by
/// placement; only wire RC moves).
pub fn refresh_timing(
    design: &mut Design,
    db: &PlacementDb,
    sta: &mut RefSta,
    mode: TimingMode,
    insta_cfg: &InstaConfig,
) -> TimingRefresh {
    refresh_timing_with(design, db, sta, mode, insta_cfg, None)
}

/// [`refresh_timing`] with a span recorder: each refresh stage
/// (`placer.wire_update`, `placer.reference_sta`, `placer.transfer`,
/// `placer.insta_grad`) is journaled as a child of one `placer.refresh`
/// span — the same taxonomy the engine's own trace sink uses, so a placer
/// loop and its engine share one observability story.
pub fn refresh_timing_traced(
    design: &mut Design,
    db: &PlacementDb,
    sta: &mut RefSta,
    mode: TimingMode,
    insta_cfg: &InstaConfig,
    recorder: &mut Recorder,
) -> TimingRefresh {
    refresh_timing_with(design, db, sta, mode, insta_cfg, Some(recorder))
}

fn refresh_timing_with(
    design: &mut Design,
    db: &PlacementDb,
    sta: &mut RefSta,
    mode: TimingMode,
    insta_cfg: &InstaConfig,
    mut rec: Option<&mut Recorder>,
) -> TimingRefresh {
    let mut breakdown = RefreshBreakdown::default();
    let mut degraded = false;
    if let Some(r) = rec.as_deref_mut() {
        r.begin("placer.refresh");
        r.begin("placer.wire_update");
    }

    let t = Instant::now();
    db.update_wires(design);
    breakdown.wire_update_s = t.elapsed().as_secs_f64();
    if let Some(r) = rec.as_deref_mut() {
        r.end();
        r.begin("placer.reference_sta");
    }

    let t = Instant::now();
    let report = sta.full_update(design);
    breakdown.reference_sta_s = t.elapsed().as_secs_f64();
    if let Some(r) = rec.as_deref_mut() {
        r.end_with(&[("tns_ps", report.tns_ps)]);
    }

    let mut arc_weights = Vec::new();
    let mut net_crit = Vec::new();
    match mode {
        TimingMode::None => {}
        TimingMode::NetWeighting => {
            let slacks = sta.node_slacks();
            let wns = report.wns_ps.min(-1e-9).abs();
            net_crit = design
                .nets()
                .iter()
                .map(|net| {
                    let mut crit = 0.0_f64;
                    for &s in &net.sinks {
                        if let Some(node) = sta.graph().node_of(s) {
                            let sl = slacks[node.index()];
                            if sl.is_finite() {
                                crit = crit.max((-sl / wns).clamp(0.0, 1.0));
                            }
                        }
                    }
                    crit
                })
                .collect();
        }
        TimingMode::InstaPlace => {
            if let Some(r) = rec.as_deref_mut() {
                r.begin("placer.transfer");
            }
            let t = Instant::now();
            let init = sta.export_insta_init();
            let mut engine = InstaEngine::new(init, insta_cfg.clone()).expect("valid snapshot");
            breakdown.transfer_s = t.elapsed().as_secs_f64();
            if let Some(r) = rec.as_deref_mut() {
                r.end();
                r.begin("placer.insta_grad");
            }

            let t = Instant::now();
            // Forward, LSE and backward on the throw-away engine; a NaN
            // slack or an uncontained worker panic degrades the refresh.
            let grads = engine
                .try_backward_tns(&PassOptions::default())
                .map(|()| engine.arc_gradients());
            breakdown.insta_grad_s = t.elapsed().as_secs_f64();
            if let Some(r) = rec.as_deref_mut() {
                r.end();
            }

            match grads {
                Ok(grads) => {
                    let graph = sta.graph();
                    for (ai, arc) in graph.arcs().iter().enumerate() {
                        // Only interconnect arcs respond to placement
                        // (Eq. 7 sums pin-to-pin Manhattan distances).
                        if !matches!(arc.kind, TimingArcKind::Net { .. }) {
                            continue;
                        }
                        let g = grads[ai].abs();
                        if g == 0.0 {
                            continue;
                        }
                        arc_weights.push(ArcWeight {
                            from: graph.pin_of(arc.from),
                            to: graph.pin_of(arc.to),
                            weight: g,
                        });
                    }
                }
                Err(_) => degraded = true,
            }
        }
    }

    if let Some(r) = rec.as_deref_mut() {
        r.end_with(&[
            ("degraded", if degraded { 1.0 } else { 0.0 }),
            ("total_s", breakdown.total_s()),
        ]);
    }
    TimingRefresh {
        wns_ps: report.wns_ps,
        tns_ps: report.tns_ps,
        arc_weights,
        net_crit,
        degraded,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_refsta::StaConfig;

    fn tight_design(seed: u64) -> Design {
        let mut cfg = GeneratorConfig::small("tim", seed);
        cfg.clock_period_ps = 260.0;
        generate_design(&cfg)
    }

    /// The weights are the engine's own gradients: every one equals
    /// `|arc_gradients()[arc]|` of a twin engine built from the same
    /// export, on `to_bits`, in graph-arc order.
    #[test]
    fn insta_mode_yields_weighted_net_arcs() {
        let mut design = tight_design(3);
        let db = PlacementDb::random(&design, 0.5, 1);
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let r = refresh_timing(
            &mut design,
            &db,
            &mut sta,
            TimingMode::InstaPlace,
            &InstaConfig::default(),
        );
        assert!(r.tns_ps < 0.0, "fixture: the design violates");
        assert!(!r.degraded);
        assert!(!r.arc_weights.is_empty());
        for aw in &r.arc_weights {
            assert!(aw.weight > 0.0);
            assert_ne!(aw.from, aw.to);
        }

        let mut twin =
            InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid");
        twin.backward_tns();
        let grads = twin.arc_gradients();
        let graph = sta.graph();
        let want: Vec<(PinId, PinId, u64)> = graph
            .arcs()
            .iter()
            .enumerate()
            .filter(|(ai, arc)| matches!(arc.kind, TimingArcKind::Net { .. }) && grads[*ai] != 0.0)
            .map(|(ai, arc)| {
                let (from, to) = (graph.pin_of(arc.from), graph.pin_of(arc.to));
                (from, to, grads[ai].abs().to_bits())
            })
            .collect();
        let got: Vec<(PinId, PinId, u64)> = r
            .arc_weights
            .iter()
            .map(|aw| (aw.from, aw.to, aw.weight.to_bits()))
            .collect();
        assert_eq!(got, want, "the weights differ from a twin's gradients");
        assert!(r.breakdown.reference_sta_s > 0.0);
        assert!(r.breakdown.total_s() >= r.breakdown.reference_sta_s);
    }

    #[test]
    fn net_weighting_mode_yields_bounded_criticalities() {
        let mut design = tight_design(5);
        let db = PlacementDb::random(&design, 0.5, 2);
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let r = refresh_timing(
            &mut design,
            &db,
            &mut sta,
            TimingMode::NetWeighting,
            &InstaConfig::default(),
        );
        assert_eq!(r.net_crit.len(), design.nets().len());
        for &c in &r.net_crit {
            assert!((0.0..=1.0).contains(&c));
        }
        if r.tns_ps < 0.0 {
            assert!(r.net_crit.iter().any(|&c| c > 0.0));
        }
    }

    #[test]
    fn traced_refresh_journals_every_stage() {
        let mut design = tight_design(9);
        let db = PlacementDb::random(&design, 0.5, 4);
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let mut rec = Recorder::new();
        let traced = refresh_timing_traced(
            &mut design,
            &db,
            &mut sta,
            TimingMode::InstaPlace,
            &InstaConfig::default(),
            &mut rec,
        );
        assert_eq!(rec.open_depth(), 0, "all spans closed");
        let names: Vec<&str> = rec.events().map(|e| e.name).collect();
        for stage in [
            "placer.wire_update",
            "placer.reference_sta",
            "placer.transfer",
            "placer.insta_grad",
            "placer.refresh",
        ] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        // The outer span closes last and carries the outcome payload.
        let outer = rec.events().last().expect("journal non-empty");
        assert_eq!(outer.name, "placer.refresh");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.field("degraded"), Some(0.0));
        assert!(outer.field("total_s").is_some_and(|s| s > 0.0));
        // Tracing is observation-only: the untraced call on the same
        // inputs produces the same timing numbers.
        let plain = refresh_timing(
            &mut design,
            &db,
            &mut sta,
            TimingMode::InstaPlace,
            &InstaConfig::default(),
        );
        assert_eq!(traced.tns_ps.to_bits(), plain.tns_ps.to_bits());
        assert_eq!(traced.wns_ps.to_bits(), plain.wns_ps.to_bits());
    }

    #[test]
    fn none_mode_only_times() {
        let mut design = tight_design(7);
        let db = PlacementDb::random(&design, 0.5, 3);
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let r = refresh_timing(
            &mut design,
            &db,
            &mut sta,
            TimingMode::None,
            &InstaConfig::default(),
        );
        assert!(r.arc_weights.is_empty());
        assert!(r.net_crit.is_empty());
        assert!(r.wns_ps.is_finite());
    }
}
