//! Generated equivalence suite for [`RefSta::incremental_update`]: after
//! every update of a random resize sequence, every arrival-map entry, node
//! slew, arc delay and report field equals a fresh
//! [`RefSta::full_update`] of the same design on `to_bits`.
//!
//! The sequences mix single- and multi-cell changelists, upsizing and
//! downsizing, a cell resized back, a no-op resize, an empty list, cells
//! whose nets feed flops and primary outputs, cells that load a flop's Q
//! net, and — where the update has to re-time clock and launch timing —
//! flops and clock buffers. One case picks resizes whose slew change stops
//! within a few levels while their arrival change runs to the last levels,
//! so most of the sweep only re-reduces maps without re-annotating.
//!
//! Every update's change record ([`RefSta::last_change`]) is checked too:
//! a changelist that touches the clock reports a full re-time, and any
//! other names exactly the arcs whose delay bits moved and exactly the
//! startpoints whose launch entries moved.

use insta_liberty::GateClass;
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_netlist::{CellId, Design, NodeId, PinId, PinRole};
use insta_refsta::{Changes, RefSta, StaConfig};
use insta_support::Rng;

/// Block-5 of the paper-reproduction suite (`insta-bench`'s
/// `block_specs()[4]`): seed 105, scale 0.40, an 880 ps clock.
fn block5() -> Design {
    let mut cfg = GeneratorConfig::block("block-5", 105, 0.40);
    cfg.clock_period_ps = 880.0;
    generate_design(&cfg)
}

/// Asserts that `inc` holds the bits of a from-scratch full update of
/// `design`.
fn assert_matches_fresh(design: &Design, inc: &RefSta, what: &str) {
    let mut fresh = RefSta::new(design, StaConfig::default()).expect("build");
    fresh.full_update(design);
    let (a, b) = (inc.delays(), fresh.delays());
    for (arc, (x, y)) in a.mean.iter().zip(&b.mean).enumerate() {
        for t in 0..2 {
            assert_eq!(x[t].to_bits(), y[t].to_bits(), "{what}: arc {arc} mean");
            assert_eq!(
                a.sigma[arc][t].to_bits(),
                b.sigma[arc][t].to_bits(),
                "{what}: arc {arc} sigma"
            );
        }
        assert_eq!(a.sense[arc], b.sense[arc], "{what}: arc {arc} sense");
    }
    for (v, (x, y)) in a.node_slew.iter().zip(&b.node_slew).enumerate() {
        for t in 0..2 {
            assert_eq!(x[t].to_bits(), y[t].to_bits(), "{what}: node {v} slew");
        }
    }
    for v in 0..inc.graph().num_nodes() {
        let node = NodeId(v as u32);
        for (t, (x, y)) in inc
            .arrivals(node)
            .iter()
            .zip(fresh.arrivals(node))
            .enumerate()
        {
            assert_eq!(x.len(), y.len(), "{what}: node {v} tr {t} map length");
            for (e, f) in x.iter().zip(y) {
                assert_eq!(
                    (e.sp, e.mean.to_bits(), e.sigma.to_bits()),
                    (f.sp, f.mean.to_bits(), f.sigma.to_bits()),
                    "{what}: node {v} tr {t} map entry"
                );
            }
        }
    }
    let (r, s) = (inc.report(), fresh.report());
    assert_eq!(r.wns_ps.to_bits(), s.wns_ps.to_bits(), "{what}: WNS");
    assert_eq!(r.tns_ps.to_bits(), s.tns_ps.to_bits(), "{what}: TNS");
    assert_eq!(r.n_violations, s.n_violations, "{what}: violations");
    assert_eq!(
        r.endpoints.len(),
        s.endpoints.len(),
        "{what}: endpoint count"
    );
    for (e, f) in r.endpoints.iter().zip(&s.endpoints) {
        assert_eq!(
            (
                e.ep,
                e.pin,
                e.slack_ps.to_bits(),
                e.arrival_ps.to_bits(),
                e.required_ps.to_bits(),
                e.worst_sp,
                e.transition,
            ),
            (
                f.ep,
                f.pin,
                f.slack_ps.to_bits(),
                f.arrival_ps.to_bits(),
                f.required_ps.to_bits(),
                f.worst_sp,
                f.transition,
            ),
            "{what}: endpoint report"
        );
    }
}

/// Every arc's delay bits.
fn arc_bits(sta: &RefSta) -> Vec<([u64; 2], [u64; 2])> {
    let d = sta.delays();
    d.mean
        .iter()
        .zip(&d.sigma)
        .map(|(m, s)| (m.map(f64::to_bits), s.map(f64::to_bits)))
        .collect()
}

/// Every startpoint's launch entries, on `to_bits`.
fn launch_bits(sta: &RefSta) -> Vec<Vec<(u32, u64, u64)>> {
    sta.sp_infos()
        .iter()
        .map(|sp| {
            sta.arrivals(sp.node)
                .iter()
                .flatten()
                .map(|e| (e.sp, e.mean.to_bits(), e.sigma.to_bits()))
                .collect()
        })
        .collect()
}

/// The indices at which `a` and `b` differ.
fn moved<T: PartialEq>(a: &[T], b: &[T]) -> Vec<u32> {
    (0..a.len())
        .filter(|&i| a[i] != b[i])
        .map(|i| i as u32)
        .collect()
}

/// Re-times `cells` incrementally and checks the change record against
/// the state before the update: a full re-time names nothing, and any
/// other update names exactly the arcs whose delay bits moved and the
/// startpoints whose launch entries moved. Returns the record.
fn update(design: &Design, sta: &mut RefSta, cells: &[CellId], what: &str) -> Changes {
    let (arcs, launches) = (arc_bits(sta), launch_bits(sta));
    sta.incremental_update(design, cells);
    let mut rec = sta.last_change().clone();
    if rec.full {
        assert!(
            rec.arcs.is_empty() && rec.launches.is_empty(),
            "{what}: full names nothing"
        );
        return rec;
    }
    rec.arcs.sort_unstable();
    rec.launches.sort_unstable();
    assert_eq!(
        rec.arcs,
        moved(&arcs, &arc_bits(sta)),
        "{what}: recorded arcs"
    );
    assert_eq!(
        rec.launches,
        moved(&launches, &launch_bits(sta)),
        "{what}: recorded launches"
    );
    rec
}

fn is_clock_side(design: &Design, c: CellId) -> bool {
    let lc = design.lib_cell_of(c);
    lc.is_sequential() || lc.class == GateClass::ClkBuf
}

/// Combinational cells with more than one size.
fn resizable(design: &Design) -> Vec<CellId> {
    let lib = design.library_arc();
    (0..design.cells().len() as u32)
        .map(CellId)
        .filter(|&c| !is_clock_side(design, c))
        .filter(|&c| lib.family(design.lib_cell_of(c).class).len() > 1)
        .collect()
}

/// Cells of `pool` whose output net has a sink that satisfies `sink`.
fn feeding(design: &Design, pool: &[CellId], sink: impl Fn(&Design, PinId) -> bool) -> Vec<CellId> {
    pool.iter()
        .copied()
        .filter(|&c| {
            design.cell(c).pins.iter().any(|&p| {
                let pin = design.pin(p);
                pin.is_driver()
                    && pin
                        .net
                        .is_some_and(|n| design.net(n).sinks.iter().any(|&s| sink(design, s)))
            })
        })
        .collect()
}

/// Cells of `pool` with an input on a net whose driver satisfies `driver`.
fn loading(
    design: &Design,
    pool: &[CellId],
    driver: impl Fn(&Design, PinId) -> bool,
) -> Vec<CellId> {
    pool.iter()
        .copied()
        .filter(|&c| {
            design.cell(c).pins.iter().any(|&p| {
                let pin = design.pin(p);
                !pin.is_driver()
                    && pin
                        .net
                        .is_some_and(|n| driver(design, design.net(n).driver))
            })
        })
        .collect()
}

fn flop_pin(design: &Design, s: PinId) -> bool {
    design
        .pin(s)
        .cell
        .is_some_and(|c| design.lib_cell_of(c).is_sequential())
}

fn output_port(design: &Design, s: PinId) -> bool {
    design.pin(s).role == PinRole::PrimaryOutput
}

/// A different size of `c`'s family: one step up or down when `up` says
/// so and one exists, otherwise any other size.
fn other_size(design: &Design, c: CellId, up: bool, rng: &mut Rng) -> insta_liberty::LibCellId {
    let lib = design.library_arc();
    let cur = design.cell(c).lib_cell;
    let drive = lib.cell(cur).drive;
    let fam: Vec<_> = lib.family(lib.cell(cur).class).to_vec();
    let step = fam
        .iter()
        .copied()
        .filter(|&id| (lib.cell(id).drive > drive) == up && id != cur)
        .min_by_key(|&id| lib.cell(id).drive.abs_diff(drive));
    step.unwrap_or_else(|| {
        let others: Vec<_> = fam.into_iter().filter(|&id| id != cur).collect();
        others[rng.gen_range(0..others.len())]
    })
}

/// Runs a random resize sequence of `steps` changelists on `design`,
/// checking every update against a fresh full update.
fn run_sequence(mut design: Design, seed: u64, steps: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let pool = resizable(&design);
    let to_flops = feeding(&design, &pool, flop_pin);
    let to_outputs = feeding(&design, &pool, output_port);
    let from_flops = loading(&design, &pool, flop_pin);
    for shape in [&pool, &to_flops, &to_outputs, &from_flops] {
        assert!(!shape.is_empty(), "seed {seed}: a cell of every shape");
    }
    // No changelist here touches the clock, so none re-times in full.
    let mut recorded = (0, 0);
    let mut data_update = |design: &Design, sta: &mut RefSta, cells: &[CellId], what: &str| {
        let rec = update(design, sta, cells, what);
        assert!(
            !rec.full,
            "{what}: a data-side changelist re-times incrementally"
        );
        recorded.0 += rec.arcs.len();
        recorded.1 += rec.launches.len();
    };
    for step in 0..steps {
        // Cycle through the shapes so every sequence hits each of them.
        let changed: Vec<CellId> = match step % 8 {
            0 => vec![pool[rng.gen_range(0..pool.len())]],
            1 => (0..rng.gen_range(2..6usize))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect(),
            2 => vec![to_flops[rng.gen_range(0..to_flops.len())]],
            3 => vec![to_outputs[rng.gen_range(0..to_outputs.len())]],
            4 => vec![from_flops[rng.gen_range(0..from_flops.len())]],
            5 => Vec::new(),
            6 => {
                // A no-op resize: the cell is listed but keeps its size.
                let c = pool[rng.gen_range(0..pool.len())];
                let same = design.cell(c).lib_cell;
                design.resize_cell(c, same);
                let what = format!("seed {seed} step {step}: no-op resize");
                data_update(&design, &mut sta, &[c], &what);
                assert_matches_fresh(&design, &sta, &what);
                continue;
            }
            _ => {
                // A cell resized and then resized back.
                let c = pool[rng.gen_range(0..pool.len())];
                let orig = design.cell(c).lib_cell;
                let to = other_size(&design, c, rng.gen_bool(0.5), &mut rng);
                for (to, leg) in [(to, "away"), (orig, "back")] {
                    let what = format!("seed {seed} step {step}: {leg}");
                    design.resize_cell(c, to);
                    data_update(&design, &mut sta, &[c], &what);
                    assert_matches_fresh(&design, &sta, &what);
                }
                continue;
            }
        };
        let mut listed = Vec::new();
        for &c in &changed {
            if listed.contains(&c) {
                continue;
            }
            let to = other_size(&design, c, rng.gen_bool(0.5), &mut rng);
            design.resize_cell(c, to);
            listed.push(c);
        }
        let what = format!("seed {seed} step {step}: {} cells", listed.len());
        data_update(&design, &mut sta, &listed, &what);
        assert_matches_fresh(&design, &sta, &what);
    }
    assert!(
        recorded.0 > 0 && recorded.1 > 0,
        "seed {seed}: some update moved arcs and some a launch: {recorded:?}"
    );
}

#[test]
fn random_resizes_match_full_update_on_small_designs() {
    for seed in [3, 17, 29] {
        run_sequence(
            generate_design(&GeneratorConfig::small("eq", seed)),
            seed,
            32,
        );
    }
}

#[test]
fn random_resizes_match_full_update_on_a_medium_design() {
    run_sequence(generate_design(&GeneratorConfig::medium("eq-m", 8)), 8, 16);
}

#[test]
fn random_resizes_match_full_update_on_block5() {
    run_sequence(block5(), 5, 8);
}

/// Resizes the first cell `pick` selects to another size, then re-times
/// incrementally; returns whether the update re-timed in full.
fn resize_first(
    design: &mut Design,
    sta: &mut RefSta,
    pick: impl Fn(&Design, CellId) -> bool,
) -> bool {
    let c = (0..design.cells().len() as u32)
        .map(CellId)
        .find(|&c| pick(design, c))
        .expect("a matching cell");
    let mut rng = Rng::seed_from_u64(c.0 as u64);
    let to = other_size(design, c, true, &mut rng);
    design.resize_cell(c, to);
    update(design, sta, &[c], "resize").full
}

fn is_flop(design: &Design, c: CellId) -> bool {
    design.lib_cell_of(c).is_sequential()
}

fn is_clkbuf(design: &Design, c: CellId) -> bool {
    design.lib_cell_of(c).class == GateClass::ClkBuf
}

/// A flop resize moves its CK pin load (clock timing), its launch arc and
/// its setup arc: the update must re-time all of them.
#[test]
fn a_flop_resize_matches_full_update() {
    let mut design = block5();
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    assert!(
        resize_first(&mut design, &mut sta, is_flop),
        "a flop re-times in full"
    );
    assert_matches_fresh(&design, &sta, "flop resize");
    // A later combinational update must not keep any stale clock timing.
    let c = resizable(&design)[0];
    assert!(!resize_first(&mut design, &mut sta, |_, x| x == c));
    assert_matches_fresh(&design, &sta, "combinational update after a flop resize");
}

/// A clock-buffer resize moves clock arrivals and CPPR credit at every
/// flop under it.
#[test]
fn a_clock_buffer_resize_matches_full_update() {
    let mut design = block5();
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    assert!(
        resize_first(&mut design, &mut sta, is_clkbuf),
        "a clock buffer re-times in full"
    );
    assert_matches_fresh(&design, &sta, "clock-buffer resize");
}

/// One changelist with a flop, a clock buffer and combinational cells.
#[test]
fn a_mixed_changelist_matches_full_update() {
    let mut design = generate_design(&GeneratorConfig::medium("eq-mixed", 12));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let mut rng = Rng::seed_from_u64(12);
    let n = design.cells().len() as u32;
    let flop = (0..n)
        .map(CellId)
        .find(|&c| is_flop(&design, c))
        .expect("a flop");
    let buf = (0..n)
        .map(CellId)
        .find(|&c| is_clkbuf(&design, c))
        .expect("a clock buffer");
    let pool = resizable(&design);
    let changed = [pool[3], flop, pool[pool.len() / 2], buf];
    for &c in &changed {
        let to = other_size(&design, c, rng.gen_bool(0.5), &mut rng);
        design.resize_cell(c, to);
    }
    let rec = update(&design, &mut sta, &changed, "mixed changelist");
    assert!(
        rec.full,
        "a changelist with a flop and a clock buffer re-times in full"
    );
    assert_matches_fresh(&design, &sta, "mixed changelist");
}

/// Exceptions added between updates apply on the next incremental one, as
/// they do on a full update.
#[test]
fn exceptions_changed_between_updates_apply_on_the_next_incremental_update() {
    let mut design = generate_design(&GeneratorConfig::medium("eq-exc", 4));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    let report = sta.full_update(&design);
    let worst = report
        .endpoints
        .iter()
        .filter(|e| e.worst_sp.is_some())
        .min_by(|a, b| a.slack_ps.total_cmp(&b.slack_ps))
        .copied()
        .expect("a constrained endpoint");
    sta.exceptions_mut()
        .add_false_path(worst.worst_sp.expect("worst startpoint"), worst.ep);
    let c = resizable(&design)[0];
    assert!(
        resize_first(&mut design, &mut sta, |_, x| x == c),
        "the first update after the exceptions changed re-times in full"
    );
    let mut fresh = RefSta::new(&design, StaConfig::default()).expect("build");
    fresh
        .exceptions_mut()
        .add_false_path(worst.worst_sp.expect("worst startpoint"), worst.ep);
    let want = fresh.full_update(&design);
    let got = sta.report();
    assert_eq!(got.tns_ps.to_bits(), want.tns_ps.to_bits());
    for (e, f) in got.endpoints.iter().zip(&want.endpoints) {
        assert_eq!(
            e.slack_ps.to_bits(),
            f.slack_ps.to_bits(),
            "endpoint {:?}",
            e.ep
        );
    }
}

/// The deepest graph level at which `a` and `b` differ in a node's slew,
/// and the deepest at which they differ in an arrival-map entry.
fn reach(a: &RefSta, b: &RefSta) -> (Option<u32>, Option<u32>) {
    let g = a.graph();
    let (mut slew, mut maps) = (None, None);
    for v in 0..g.num_nodes() {
        let node = NodeId(v as u32);
        let level = Some(g.level_of(node));
        let (x, y) = (a.delays().node_slew[v], b.delays().node_slew[v]);
        if (0..2).any(|t| x[t].to_bits() != y[t].to_bits()) {
            slew = slew.max(level);
        }
        let same = a.arrivals(node).iter().zip(b.arrivals(node)).all(|(m, n)| {
            m.len() == n.len()
                && m.iter().zip(n).all(|(e, f)| {
                    (e.sp, e.mean.to_bits(), e.sigma.to_bits())
                        == (f.sp, f.mean.to_bits(), f.sigma.to_bits())
                })
        });
        if !same {
            maps = maps.max(level);
        }
    }
    (slew, maps)
}

/// Resizes whose slew change dies out within a few levels while their
/// arrival changes run on to the last levels: the update re-annotates the
/// first stretch and only re-reduces the rest. Every update — each cell
/// alone, both together, and back — equals a fresh full update on every
/// arc delay, slew and map entry.
#[test]
fn shallow_slew_changes_with_deep_arrival_changes_match_full_update() {
    let mut design = generate_design(&GeneratorConfig::medium("eq-deep", 6));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let mut rng = Rng::seed_from_u64(6);
    // (arrival reach - slew reach, cell, new size), over the first cells
    // whose slew change stops within four levels of the cell.
    let mut picks = Vec::new();
    for &c in resizable(&design).iter().take(60) {
        let orig = design.cell(c).lib_cell;
        let to = other_size(&design, c, true, &mut rng);
        design.resize_cell(c, to);
        let mut fresh = RefSta::new(&design, StaConfig::default()).expect("build");
        fresh.full_update(&design);
        design.resize_cell(c, orig);
        let g = sta.graph();
        let level = design
            .cell(c)
            .pins
            .iter()
            .filter_map(|&p| g.node_of(p))
            .map(|n| g.level_of(n))
            .min()
            .expect("a timed pin");
        if let (Some(slew), Some(maps)) = reach(&sta, &fresh) {
            if slew <= level + 4 {
                picks.push((maps.saturating_sub(slew), c, to));
            }
        }
    }
    picks.sort_by_key(|p| std::cmp::Reverse(p.0));
    assert!(
        picks.len() >= 2 && picks[1].0 >= 12,
        "two cells whose arrivals run 12+ levels past their slews: {picks:?}"
    );
    let (a, b) = ((picks[0].1, picks[0].2), (picks[1].1, picks[1].2));
    let orig = [design.cell(a.0).lib_cell, design.cell(b.0).lib_cell];
    let steps: [(&str, &[(CellId, insta_liberty::LibCellId)]); 4] = [
        ("first cell", &[a]),
        ("first cell back", &[(a.0, orig[0])]),
        ("both cells", &[a, b]),
        ("both back", &[(a.0, orig[0]), (b.0, orig[1])]),
    ];
    for (what, resizes) in steps {
        for &(c, to) in resizes {
            design.resize_cell(c, to);
        }
        let cells: Vec<CellId> = resizes.iter().map(|r| r.0).collect();
        assert!(!update(&design, &mut sta, &cells, what).full);
        assert_matches_fresh(&design, &sta, what);
    }
}
