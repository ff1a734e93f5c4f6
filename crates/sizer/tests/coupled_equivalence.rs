//! Generated equivalence suite for [`Coupled::try_resize`]: after every
//! move of a random resize sequence on a small generated design, the
//! coupled engine's endpoint slacks, WNS and TNS equal those of a fresh
//! `InstaEngine::new(golden.export_insta_init())` + `propagate()` on
//! `to_bits`, and a rejected move leaves the design and the reference
//! timer as they were.
//!
//! Moves are drawn from four shapes: a combinational cell, a cell loading
//! a flop's Q net (its launch changes), a flop and a clock buffer (both
//! re-time in full). The accept closure rejects some of each. Every move
//! journals one `coupled.move` span naming the route it took.

use insta_engine::{InstaConfig, InstaEngine};
use insta_liberty::{GateClass, LibCellId};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_netlist::{CellId, Design, NodeId};
use insta_refsta::{RefSta, StaConfig};
use insta_sizer::Coupled;
use insta_support::obs::{Recorder, SpanEvent};
use insta_support::prop::{for_all, Config};
use insta_support::{prop_assert, prop_assert_eq};
use std::cell::Cell;

/// One move: (shape, pick within the shape, step up, accept).
type Move = (u8, u32, bool, bool);

/// Every bit of the reference timer's state a move can touch: arc delays,
/// slews, arrival maps and the report.
fn golden_bits(sta: &RefSta) -> Vec<u64> {
    let d = sta.delays();
    let mut out: Vec<u64> = d
        .mean
        .iter()
        .chain(&d.sigma)
        .chain(&d.node_slew)
        .flatten()
        .map(|x| x.to_bits())
        .collect();
    for v in 0..sta.graph().num_nodes() {
        for map in sta.arrivals(NodeId(v as u32)) {
            out.push(map.len() as u64);
            out.extend(
                map.iter()
                    .flat_map(|e| [u64::from(e.sp), e.mean.to_bits(), e.sigma.to_bits()]),
            );
        }
    }
    let r = sta.report();
    out.extend([
        r.wns_ps.to_bits(),
        r.tns_ps.to_bits(),
        r.n_violations as u64,
    ]);
    out.extend(r.endpoints.iter().map(|e| e.slack_ps.to_bits()));
    out
}

fn sizes(design: &Design) -> Vec<LibCellId> {
    design.cells().iter().map(|c| c.lib_cell).collect()
}

/// The four move shapes: combinational cells, cells loading a flop's Q
/// net, flops and clock buffers — each with more than one size.
fn shapes(design: &Design) -> [Vec<CellId>; 4] {
    let lib = design.library_arc();
    let cells = (0..design.cells().len() as u32)
        .map(CellId)
        .filter(|&c| lib.family(design.lib_cell_of(c).class).len() > 1);
    let is_flop = |c: CellId| design.lib_cell_of(c).is_sequential();
    let is_clkbuf = |c: CellId| design.lib_cell_of(c).class == GateClass::ClkBuf;
    let loads_a_flop = |c: CellId| {
        design.cell(c).pins.iter().any(|&p| {
            let pin = design.pin(p);
            !pin.is_driver()
                && pin.net.is_some_and(|n| {
                    let driver = design.pin(design.net(n).driver);
                    driver.cell.is_some_and(is_flop)
                })
        })
    };
    let comb: Vec<CellId> = cells
        .clone()
        .filter(|&c| !is_flop(c) && !is_clkbuf(c))
        .collect();
    let from_flops = comb.iter().copied().filter(|&c| loads_a_flop(c)).collect();
    [
        comb,
        from_flops,
        cells.clone().filter(|&c| is_flop(c)).collect(),
        cells.filter(|&c| is_clkbuf(c)).collect(),
    ]
}

/// The nearest size of `c`'s family in the direction `up`, or any other.
fn other_size(design: &Design, c: CellId, up: bool) -> LibCellId {
    let lib = design.library_arc();
    let cur = design.cell(c).lib_cell;
    let drive = lib.cell(cur).drive;
    let fam = lib.family(lib.cell(cur).class);
    fam.iter()
        .copied()
        .filter(|&id| id != cur && (lib.cell(id).drive > drive) == up)
        .min_by_key(|&id| lib.cell(id).drive.abs_diff(drive))
        .or_else(|| fam.iter().copied().find(|&id| id != cur))
        .expect("a family of more than one size")
}

/// The route a move of `cell` to `to` takes (0 arcs, 1 launch, 2 full):
/// what a fresh reference of `design` reports changed when it re-times
/// the move.
fn route_of(design: &Design, cell: CellId, to: LibCellId) -> f64 {
    let mut design = design.clone();
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("acyclic");
    sta.full_update(&design);
    design.resize_cell(cell, to);
    sta.incremental_update(&design, &[cell]);
    let change = sta.last_change();
    if change.full {
        2.0
    } else if !change.launches.is_empty() {
        1.0
    } else {
        0.0
    }
}

/// Asserts that `journal`, the spans of one move, is one `coupled.move`
/// of route `kind` whose `kept` is `kept`, with a `coupled.rebuild` child
/// exactly when the route is not arcs.
fn records_its_route(journal: &[SpanEvent], kind: f64, kept: bool) -> Result<(), String> {
    let moves: Vec<&SpanEvent> = journal.iter().filter(|e| e.name == "coupled.move").collect();
    prop_assert_eq!(moves.len(), 1);
    prop_assert_eq!(moves[0].field("kind"), Some(kind));
    prop_assert_eq!(moves[0].field("kept"), Some(f64::from(u8::from(kept))));
    let children = |name: &str| {
        let depth = moves[0].depth + 1;
        journal.iter().filter(|e| e.name == name && e.depth == depth).count()
    };
    prop_assert_eq!(children("coupled.rebuild"), usize::from(kind != 0.0));
    prop_assert_eq!(children("coupled.session"), usize::from(kind == 0.0));
    prop_assert_eq!(children("coupled.refsta"), 1 + usize::from(!kept));
    Ok(())
}

/// Asserts that the coupled engine reports what a fresh build reports.
fn matches_fresh(timer: &Coupled, cfg: &InstaConfig, what: &str) -> Result<(), String> {
    let mut fresh =
        InstaEngine::new(timer.golden().export_insta_init(), cfg.clone()).expect("valid export");
    let want = fresh.propagate();
    let got = timer.engine().report();
    prop_assert_eq!(got.wns_ps.to_bits(), want.wns_ps.to_bits());
    prop_assert_eq!(got.tns_ps.to_bits(), want.tns_ps.to_bits());
    prop_assert_eq!(got.slacks.len(), want.slacks.len());
    for (ep, (a, b)) in got.slacks.iter().zip(&want.slacks).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "{what}: endpoint {ep} slack {a} != fresh {b}"
        );
    }
    Ok(())
}

#[test]
fn every_move_leaves_the_engine_equal_to_a_fresh_build() {
    let cfg = InstaConfig::default();
    // How many kept moves changed a launch or re-timed in full, over all
    // cases: both routes must be exercised.
    let (launches, full) = (Cell::new(0), Cell::new(0));
    for_all(
        Config::cases(40),
        |rng| {
            let seed = rng.gen_range(0..1000u64);
            let moves: Vec<Move> = (0..rng.gen_range(4..12usize))
                .map(|_| {
                    (
                        rng.gen_range(0..4u32) as u8,
                        rng.gen_range(0..1000u32),
                        rng.gen_bool(0.5),
                        rng.gen_bool(0.7),
                    )
                })
                .collect();
            (seed, moves)
        },
        |(seed, moves)| {
            let mut gen = GeneratorConfig::small("coupled", *seed);
            gen.clock_period_ps = 300.0;
            let mut design = generate_design(&gen);
            let mut golden = RefSta::new(&design, StaConfig::default()).expect("acyclic");
            golden.full_update(&design);
            let shapes = shapes(&design);
            let mut timer = Coupled::new(&mut design, &mut golden, cfg.clone());
            matches_fresh(&timer, &cfg, "start")?;
            for (step, &(shape, pick, up, accept)) in moves.iter().enumerate() {
                let pool = &shapes[shape as usize];
                if pool.is_empty() {
                    continue;
                }
                let cell = pool[pick as usize % pool.len()];
                let to = other_size(timer.design(), cell, up);
                let before = (sizes(timer.design()), golden_bits(timer.golden()));
                let kind = route_of(timer.design(), cell, to);
                let mut obs = Recorder::new();
                let kept = timer.try_resize(&mut obs, cell, to, |_| accept);
                let what = format!("step {step}: shape {shape}, cell {}, kept {kept}", cell.0);
                prop_assert_eq!(kept, accept);
                records_its_route(&obs.events().cloned().collect::<Vec<_>>(), kind, kept)?;
                if kept {
                    let change = timer.golden().last_change();
                    launches.set(launches.get() + usize::from(!change.launches.is_empty()));
                    full.set(full.get() + usize::from(change.full));
                } else {
                    prop_assert!(sizes(timer.design()) == before.0, "{what}: design restored");
                    prop_assert!(
                        golden_bits(timer.golden()) == before.1,
                        "{what}: reference restored"
                    );
                }
                matches_fresh(&timer, &cfg, &what)?;
            }
            Ok(())
        },
    );
    assert!(
        launches.get() > 0 && full.get() > 0,
        "launch moves {}, full re-times {}",
        launches.get(),
        full.get()
    );
}
