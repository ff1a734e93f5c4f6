//! The placement ↔ timing interface.
//!
//! Every `refresh_every` iterations the placer re-derives wire RC from the
//! current placement, re-times the design with the reference engine, and
//! (depending on the mode) computes INSTA arc gradients or per-net
//! criticalities. The paper's INSTA-Place does exactly this with
//! OpenTimer + INSTA every 15 iterations, reusing the last gradients in
//! between; Fig. 9 breaks this refresh down into timer, gradient, and
//! transfer components, which a refresh records as one `placer.refresh`
//! span with a child per component (DESIGN.md, "Observability"); the
//! transfer and gradient children only in INSTA-Place mode.

use crate::db::PlacementDb;
use insta_engine::{InstaConfig, InstaEngine, PassOptions};
use insta_netlist::{Design, PinId, TimingArcKind};
use insta_refsta::RefSta;
use insta_support::obs::Recorder;

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
}

/// Refreshes timing from the current placement, recording its spans
/// (module docs) in `obs`.
///
/// `sta` must have been built over `design` (topology is unchanged by
/// placement; only wire RC moves).
pub fn refresh_timing(
    design: &mut Design,
    db: &PlacementDb,
    sta: &mut RefSta,
    mode: TimingMode,
    insta_cfg: &InstaConfig,
    obs: &mut Recorder,
) -> TimingRefresh {
    let mut degraded = false;
    obs.begin("placer.refresh");

    obs.begin("placer.wires");
    db.update_wires(design);
    obs.end();

    obs.begin("placer.refsta");
    let report = sta.full_update(design);
    obs.end();

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
            obs.begin("placer.transfer");
            let init = sta.export_insta_init();
            let mut engine = InstaEngine::new(init, insta_cfg.clone()).expect("valid snapshot");
            obs.end();

            obs.begin("placer.gradient");
            // Forward, LSE and backward on the throw-away engine; a NaN
            // slack or an uncontained worker panic degrades the refresh.
            let grads = engine
                .try_backward_tns(&PassOptions::default())
                .map(|()| engine.arc_gradients());
            obs.end();

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

    obs.end();
    TimingRefresh {
        wns_ps: report.wns_ps,
        tns_ps: report.tns_ps,
        arc_weights,
        net_crit,
        degraded,
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
        let mut obs = Recorder::new();
        let r = refresh_timing(
            &mut design,
            &db,
            &mut sta,
            TimingMode::InstaPlace,
            &InstaConfig::default(),
            &mut obs,
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
        let children = ["placer.wires", "placer.refsta", "placer.transfer", "placer.gradient"];
        let refresh = obs.sum("placer.refresh");
        assert_eq!(refresh.count, 1);
        assert!(children.iter().all(|name| obs.sum(name).count == 1));
        let inside: u64 = children.iter().map(|name| obs.sum(name).ns).sum();
        assert!(obs.sum("placer.refsta").ns > 0 && inside <= refresh.ns);
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
            &mut Recorder::new(),
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
            &mut Recorder::new(),
        );
        assert!(r.arc_weights.is_empty());
        assert!(r.net_crit.is_empty());
        assert!(r.wns_ps.is_finite());
    }
}
