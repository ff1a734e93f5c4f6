//! One coupled timer: a design, the reference engine that times it, and an
//! INSTA engine kept equal to a fresh build from the reference's export —
//! iSTA's `repowerInstance` + `incrUpdateTiming` shape.
//!
//! A move is one [`Coupled::try_resize`]. The reference re-times it and
//! reports what changed ([`RefSta::last_change`]). Changed arcs are synced
//! in one session, committed or rolled back; a changed launch or a full
//! re-time, which no arc delta carries, builds a candidate engine from the
//! export instead, kept only if the move is. A rejected move is undone in
//! the design and the reference too.

use insta_engine::{InstaConfig, InstaEngine, InstaReport};
use insta_liberty::LibCellId;
use insta_netlist::{CellId, Design};
use insta_refsta::eco::ArcDelta;
use insta_refsta::RefSta;

/// A design, its reference timer and an INSTA engine that moves with them.
#[derive(Debug)]
pub struct Coupled<'a> {
    design: &'a mut Design,
    golden: &'a mut RefSta,
    engine: InstaEngine,
}

impl<'a> Coupled<'a> {
    /// Couples `design` with `golden`, which must hold a current update of
    /// it, and builds and propagates the engine from its export.
    pub fn new(design: &'a mut Design, golden: &'a mut RefSta, cfg: InstaConfig) -> Self {
        let mut engine = build(golden, cfg);
        engine.propagate();
        Self {
            design,
            golden,
            engine,
        }
    }

    /// The design as the last accepted move left it.
    pub fn design(&self) -> &Design {
        self.design
    }

    /// The reference timer, current with [`design`](Self::design).
    pub fn golden(&self) -> &RefSta {
        self.golden
    }

    /// The engine, equal to a fresh build from the reference's export.
    pub fn engine(&self) -> &InstaEngine {
        &self.engine
    }

    /// The engine, for passes that leave its annotation alone: propagate,
    /// LSE, backward and what-if evaluation.
    pub fn engine_mut(&mut self) -> &mut InstaEngine {
        &mut self.engine
    }

    /// Resizes `cell` to `to`, re-times the reference and syncs the engine
    /// (module docs), and keeps the move if `accept` takes the engine's
    /// new report. A move whose timing fails is rejected without asking.
    /// Returns whether the move was kept.
    pub fn try_resize(
        &mut self,
        cell: CellId,
        to: LibCellId,
        accept: impl FnOnce(&InstaReport) -> bool,
    ) -> bool {
        let from = self.design.cell(cell).lib_cell;
        self.design.resize_cell(cell, to);
        self.golden.incremental_update(self.design, &[cell]);
        let change = self.golden.last_change();
        let accepted = if change.full || !change.launches.is_empty() {
            let mut candidate = build(self.golden, self.engine.config().clone());
            let ok = candidate.try_propagate().is_ok_and(accept);
            if ok {
                self.engine = candidate;
            }
            ok
        } else {
            let delays = self.golden.delays();
            let deltas: Vec<ArcDelta> = change
                .arcs
                .iter()
                .map(|&arc| ArcDelta {
                    arc,
                    mean: delays.mean[arc as usize],
                    sigma: delays.sigma[arc as usize],
                })
                .collect();
            let mut session = self.engine.begin_session();
            let ok = session.update_timing(&deltas).is_ok_and(|r| accept(&r));
            if ok {
                session.commit().expect("session is open");
            } else {
                session.rollback();
            }
            ok
        };
        if !accepted {
            self.design.resize_cell(cell, from);
            self.golden.incremental_update(self.design, &[cell]);
        }
        accepted
    }
}

fn build(golden: &RefSta, cfg: InstaConfig) -> InstaEngine {
    InstaEngine::new(golden.export_insta_init(), cfg)
        .expect("a reference export is a valid snapshot")
}
