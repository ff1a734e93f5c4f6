//! Deterministic synthetic design generators.
//!
//! These stand in for the paper's proprietary million-gate 3 nm blocks, the
//! IWLS'05 circuits (Table II), and the ICCAD'15 superblue placement
//! instances (Table III). What matters for the reproduced experiments is
//! graph *structure* — logic depth, fanin/fanout distributions, clock-tree
//! divergence (which creates CPPR), and reconvergence — all of which are
//! generator knobs. Every generator is seeded and fully deterministic.

use crate::design::{Design, PinId, WireRc};
use insta_liberty::{synth_library, GateClass, Library, SynthLibraryConfig};
use insta_support::Rng;
use std::sync::Arc;

/// Configuration of the synthetic design generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Design name.
    pub name: String,
    /// RNG seed; equal configs generate identical designs.
    pub seed: u64,
    /// Number of flip-flops.
    pub n_flops: usize,
    /// Number of primary inputs.
    pub n_inputs: usize,
    /// Number of primary outputs.
    pub n_outputs: usize,
    /// Combinational logic depth (gate levels between flop stages).
    pub logic_levels: usize,
    /// Gates instantiated per logic level.
    pub gates_per_level: usize,
    /// Clock-tree branching factor (flops per leaf buffer, buffers per
    /// upstream buffer).
    pub clock_fanout: usize,
    /// Clock period (ps).
    pub clock_period_ps: f64,
    /// How many previous levels a gate input may reach back into
    /// (larger = more reconvergence).
    pub max_reach_back: usize,
    /// Mean synthetic wire length (µm).
    pub mean_wire_um: f64,
    /// Drive strengths the generator instantiates.
    pub drive_choices: Vec<u32>,
    /// Where endpoint drivers (flop D pins, primary outputs) tap the logic
    /// cloud: `false` (default) taps only the last levels, giving every
    /// register-to-register path full depth (a criticality "wall");
    /// `true` taps uniformly across all levels, giving the heterogeneous
    /// slack distribution placement benchmarks have.
    pub uniform_endpoint_taps: bool,
    /// Fraction of each level's gates that act as fanout hubs (0 disables
    /// hub structure). Real designs have high-fanout nets (selects,
    /// enables); these are exactly where net weighting and arc-gradient
    /// weighting diverge (paper Fig. 5).
    pub hub_fraction: f64,
    /// Probability that a gate input connects to a hub instead of a
    /// uniform driver.
    pub hub_pick_prob: f64,
}

impl GeneratorConfig {
    /// A tiny design for unit tests (~100 cells).
    pub fn small(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            n_flops: 16,
            n_inputs: 4,
            n_outputs: 4,
            logic_levels: 5,
            gates_per_level: 12,
            clock_fanout: 4,
            clock_period_ps: 650.0,
            max_reach_back: 3,
            mean_wire_um: 15.0,
            drive_choices: vec![1, 2, 4],
            uniform_endpoint_taps: false,
            hub_fraction: 0.0,
            hub_pick_prob: 0.0,
        }
    }

    /// A medium design for integration tests (~2k cells).
    pub fn medium(name: impl Into<String>, seed: u64) -> Self {
        Self {
            n_flops: 160,
            n_inputs: 24,
            n_outputs: 24,
            logic_levels: 12,
            gates_per_level: 150,
            clock_fanout: 6,
            clock_period_ps: 850.0,
            ..Self::small(name, seed)
        }
    }

    /// A "block" design scaled like the paper's industrial blocks
    /// (scale 1.0 ≈ 25k cells; the paper's block-1 is ~4M cells — we run
    /// the same structure scaled down, see DESIGN.md).
    pub fn block(name: impl Into<String>, seed: u64, scale: f64) -> Self {
        let s = scale.max(0.05);
        Self {
            n_flops: (1500.0 * s) as usize,
            n_inputs: (80.0 * s.sqrt()) as usize + 4,
            n_outputs: (80.0 * s.sqrt()) as usize + 4,
            logic_levels: 20 + (8.0 * s.log2().max(0.0)) as usize,
            gates_per_level: (1100.0 * s) as usize,
            clock_fanout: 8,
            clock_period_ps: 950.0,
            max_reach_back: 4,
            ..Self::small(name, seed)
        }
    }

    /// A config sized to hit roughly `target_pins` netlist pins, used to
    /// mimic the pin counts of the IWLS circuits in Table II.
    pub fn with_target_pins(name: impl Into<String>, seed: u64, target_pins: usize) -> Self {
        // Each comb gate contributes ~3.4 pins, each flop 3.
        let gates = (target_pins as f64 / 3.6).max(40.0) as usize;
        let levels = (12.0 + (gates as f64).log2()).min(28.0) as usize;
        Self {
            n_flops: (gates / 12).max(8),
            n_inputs: (gates / 60).max(4),
            n_outputs: (gates / 60).max(4),
            logic_levels: levels,
            gates_per_level: (gates / levels).max(4),
            clock_fanout: 6,
            clock_period_ps: 800.0,
            ..Self::small(name, seed)
        }
    }
}

/// Weighted gate-class palette for the random logic cloud.
const CLASS_WEIGHTS: &[(GateClass, u32)] = &[
    (GateClass::Inv, 15),
    (GateClass::Buf, 8),
    (GateClass::Nand2, 20),
    (GateClass::Nor2, 15),
    (GateClass::And2, 8),
    (GateClass::Or2, 8),
    (GateClass::Xor2, 5),
    (GateClass::Aoi21, 8),
    (GateClass::Oai21, 8),
    (GateClass::Nand3, 5),
    (GateClass::Nor3, 5),
    (GateClass::Mux2, 5),
];

fn sample_class(rng: &mut Rng) -> GateClass {
    let total: u32 = CLASS_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0..total);
    for &(c, w) in CLASS_WEIGHTS {
        if x < w {
            return c;
        }
        x -= w;
    }
    GateClass::Inv
}

/// Wire resistance per micron (kΩ/µm).
const WIRE_RES_PER_UM: f64 = 0.01;
/// Wire capacitance per micron (fF/µm).
const WIRE_CAP_PER_UM: f64 = 0.2;

fn sample_wire(rng: &mut Rng, cfg: &GeneratorConfig) -> WireRc {
    // Exponential-ish length distribution, clamped.
    let u: f64 = rng.gen_range(0.0001_f64..1.0);
    let len = (-u.ln() * cfg.mean_wire_um).clamp(1.0, 8.0 * cfg.mean_wire_um);
    WireRc::from_length(len, WIRE_RES_PER_UM, WIRE_CAP_PER_UM)
}

/// Generates a design using the default synthetic library.
///
/// See [`generate_design_with_library`] for the construction recipe.
pub fn generate_design(cfg: &GeneratorConfig) -> Design {
    let lib = Arc::new(synth_library(&SynthLibraryConfig::default()));
    generate_design_with_library(cfg, lib)
}

/// Generates a design over an explicit library.
///
/// Recipe: a clock source feeds a balanced buffer tree down to the flops'
/// CK pins (with randomized branch wire RC, producing realistic skew and
/// CPPR structure); flop Q pins and primary inputs seed a layered random
/// logic cloud with window-limited reconvergent fanin; flop D pins and
/// primary outputs tap the last levels of the cloud.
///
/// # Panics
///
/// Panics if the library is missing the gate classes the generator
/// instantiates (any library from [`synth_library`] works).
pub fn generate_design_with_library(cfg: &GeneratorConfig, lib: Arc<Library>) -> Design {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut design = Design::new(cfg.name.clone(), Arc::clone(&lib));

    let pick = |class: GateClass, drive: u32| {
        lib.family_member(class, drive)
            .or_else(|| lib.family(class).last().copied())
            .unwrap_or_else(|| panic!("library lacks {class}"))
    };

    // ---- Clock network -------------------------------------------------
    let clk_src = design.add_clock_source("clk", cfg.clock_period_ps);
    let dff = pick(GateClass::Dff, 2);
    let flops: Vec<_> = (0..cfg.n_flops)
        .map(|i| design.add_cell(format!("ff{i}"), dff))
        .collect();

    // Leaf buffers, then upper tree levels until a single root.
    let fanout = cfg.clock_fanout.max(2);
    let n_leaves = cfg.n_flops.div_ceil(fanout).max(1);
    let clkbuf = pick(GateClass::ClkBuf, 4);
    let mut tier: Vec<_> = (0..n_leaves)
        .map(|i| design.add_cell(format!("cb_leaf{i}"), clkbuf))
        .collect();
    // Connect leaf buffers to flop CK pins.
    for (li, &leaf) in tier.iter().enumerate() {
        let cks: Vec<PinId> = flops
            .iter()
            .skip(li * fanout)
            .take(fanout)
            .map(|&f| design.cell_pin(f, "CK"))
            .collect();
        if cks.is_empty() {
            continue;
        }
        let wires = cks.iter().map(|_| sample_wire(&mut rng, cfg)).collect();
        let y = design.cell_pin(leaf, "Y");
        design.connect_with_wires(format!("cnet_leaf{li}"), y, cks, wires);
    }
    // Build upper tiers.
    let mut tier_no = 0;
    while tier.len() > 1 {
        tier_no += 1;
        let n_up = tier.len().div_ceil(fanout);
        let upper: Vec<_> = (0..n_up)
            .map(|i| design.add_cell(format!("cb_t{tier_no}_{i}"), clkbuf))
            .collect();
        for (ui, &u) in upper.iter().enumerate() {
            let children: Vec<PinId> = tier
                .iter()
                .skip(ui * fanout)
                .take(fanout)
                .map(|&c| design.cell_pin(c, "A"))
                .collect();
            let wires = children.iter().map(|_| sample_wire(&mut rng, cfg)).collect();
            let y = design.cell_pin(u, "Y");
            design.connect_with_wires(format!("cnet_t{tier_no}_{ui}"), y, children, wires);
        }
        tier = upper;
    }
    let root_in = design.cell_pin(tier[0], "A");
    design.connect_with_wires(
        "cnet_root",
        clk_src,
        vec![root_in],
        vec![sample_wire(&mut rng, cfg)],
    );

    // ---- Ports ----------------------------------------------------------
    let pis: Vec<PinId> = (0..cfg.n_inputs)
        .map(|i| design.add_input_port(format!("in{i}")))
        .collect();
    let pos: Vec<PinId> = (0..cfg.n_outputs)
        .map(|i| design.add_output_port(format!("out{i}")))
        .collect();

    // ---- Logic cloud ------------------------------------------------------
    // `windows[k]` holds the driver pins produced at logic level k;
    // windows[0] is the source pool (flop Qs + PIs).
    let mut windows: Vec<Vec<PinId>> = Vec::with_capacity(cfg.logic_levels + 1);
    let mut pool: Vec<PinId> = flops.iter().map(|&f| design.cell_pin(f, "Q")).collect();
    pool.extend(&pis);
    windows.push(pool);

    // sink lists per driver pin, filled as gates consume signals.
    let mut sinks_of: Vec<Vec<PinId>> = Vec::new();
    let mut sink_map: std::collections::HashMap<PinId, usize> = std::collections::HashMap::new();
    let add_sink = |driver: PinId,
                        sink: PinId,
                        sinks_of: &mut Vec<Vec<PinId>>,
                        sink_map: &mut std::collections::HashMap<PinId, usize>| {
        let idx = *sink_map.entry(driver).or_insert_with(|| {
            sinks_of.push(Vec::new());
            sinks_of.len() - 1
        });
        sinks_of[idx].push(sink);
    };

    for level in 0..cfg.logic_levels {
        let mut produced = Vec::with_capacity(cfg.gates_per_level);
        let lo = level.saturating_sub(cfg.max_reach_back.max(1) - 1);
        for gi in 0..cfg.gates_per_level {
            let class = sample_class(&mut rng);
            let drive = cfg.drive_choices[rng.gen_range(0..cfg.drive_choices.len())];
            let cell = design.add_cell(format!("g{level}_{gi}"), pick(class, drive));
            let lc = design.lib_cell_of(cell);
            let n_in = lc.class.input_count();
            let in_pins: Vec<PinId> = design
                .cell(cell)
                .pins
                .clone()
                .into_iter()
                .filter(|&p| !design.pin(p).is_driver())
                .collect();
            debug_assert_eq!(in_pins.len(), n_in);
            for &ip in &in_pins {
                // Choose a source window (biased toward the previous
                // level), then a random driver within it — or a hub with
                // probability `hub_pick_prob` (high-fanout structure).
                let w = rng.gen_range(lo..=level);
                let window = &windows[w];
                let n_hubs = ((window.len() as f64 * cfg.hub_fraction).ceil() as usize)
                    .min(window.len());
                let driver = if n_hubs > 0 && rng.gen_bool(cfg.hub_pick_prob.clamp(0.0, 1.0)) {
                    window[rng.gen_range(0..n_hubs)]
                } else {
                    window[rng.gen_range(0..window.len())]
                };
                add_sink(driver, ip, &mut sinks_of, &mut sink_map);
            }
            let out = design
                .cell(cell)
                .pins
                .iter()
                .copied()
                .find(|&p| design.pin(p).is_driver())
                .expect("comb gate has an output");
            produced.push(out);
        }
        windows.push(produced);
    }

    // ---- Endpoints --------------------------------------------------------
    let tail_lo = if cfg.uniform_endpoint_taps {
        1.min(windows.len() - 1)
    } else {
        cfg.logic_levels.saturating_sub(3).max(1).min(windows.len() - 1)
    };
    let tail: Vec<PinId> = windows[tail_lo..].iter().flatten().copied().collect();
    let tail = if tail.is_empty() {
        windows[0].clone()
    } else {
        tail
    };
    for &f in &flops {
        let d_pin = design.cell_pin(f, "D");
        let driver = tail[rng.gen_range(0..tail.len())];
        add_sink(driver, d_pin, &mut sinks_of, &mut sink_map);
    }
    for &po in &pos {
        let driver = tail[rng.gen_range(0..tail.len())];
        add_sink(driver, po, &mut sinks_of, &mut sink_map);
    }

    // ---- Materialize data nets ---------------------------------------------
    let mut drivers: Vec<(PinId, usize)> = sink_map.into_iter().collect();
    drivers.sort_by_key(|&(p, _)| p); // determinism regardless of hash order
    for (ni, (driver, idx)) in drivers.into_iter().enumerate() {
        let sinks = std::mem::take(&mut sinks_of[idx]);
        let wires = sinks.iter().map(|_| sample_wire(&mut rng, cfg)).collect();
        design.connect_with_wires(format!("n{ni}"), driver, sinks, wires);
    }

    design
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingGraph;

    #[test]
    fn generates_valid_small_design() {
        let d = generate_design(&GeneratorConfig::small("t0", 7));
        d.validate().expect("valid design");
        assert!(d.cells().len() > 50);
        assert_eq!(d.flops().count(), 16);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = generate_design(&GeneratorConfig::small("t", 9));
        let b = generate_design(&GeneratorConfig::small("t", 9));
        assert_eq!(a.cells().len(), b.cells().len());
        assert_eq!(a.nets().len(), b.nets().len());
        for (na, nb) in a.nets().iter().zip(b.nets()) {
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_design(&GeneratorConfig::small("t", 1));
        let b = generate_design(&GeneratorConfig::small("t", 2));
        let differs = a.nets().len() != b.nets().len()
            || a.nets().iter().zip(b.nets()).any(|(x, y)| x != y);
        assert!(differs);
    }

    #[test]
    fn graph_builds_and_levelizes() {
        let d = generate_design(&GeneratorConfig::small("t1", 3));
        let g = TimingGraph::build(&d).expect("acyclic");
        assert!(g.num_levels() >= 5);
        assert_eq!(g.sources().len(), 16 + 4);
        assert_eq!(g.endpoints().len(), 16 + 4);
    }

    #[test]
    fn clock_tree_reaches_every_flop() {
        let d = generate_design(&GeneratorConfig::small("t2", 11));
        let g = TimingGraph::build(&d).expect("build");
        assert_eq!(g.clock_tree().ck_pins().count(), 16);
    }

    #[test]
    fn medium_design_scales_up() {
        let d = generate_design(&GeneratorConfig::medium("m", 5));
        d.validate().expect("valid");
        assert!(d.cells().len() > 1500);
        let g = TimingGraph::build(&d).expect("build");
        assert!(g.num_levels() >= 12);
    }

    /// Any small generator config yields a valid, acyclic design whose
    /// levelization covers every node and whose arcs all increase
    /// level.
    #[test]
    fn random_configs_generate_valid_levelized_designs() {
        use insta_support::prop::{for_all, Config};
        use insta_support::{prop_assert, prop_assert_eq};
        for_all(
            Config::cases(8).seed(0x6E4_C0F1),
            |rng| {
                (
                    rng.gen_range(0u64..1000),
                    rng.gen_range(4usize..24),
                    rng.gen_range(2usize..8),
                    rng.gen_range(4usize..20),
                    rng.gen_range(0.0f64..0.2),
                )
            },
            |&(seed, flops, levels, gpl, hub)| {
                // Shrinking can push structural knobs below the generator's
                // minimums; clamp back into the generated ranges.
                let (flops, levels, gpl) = (flops.max(4), levels.max(2), gpl.max(4));
                let mut cfg = GeneratorConfig::small("prop", seed);
                cfg.n_flops = flops;
                cfg.logic_levels = levels;
                cfg.gates_per_level = gpl;
                cfg.hub_fraction = hub;
                cfg.hub_pick_prob = 0.3;
                let d = generate_design(&cfg);
                prop_assert!(d.validate().is_ok());
                let g = TimingGraph::build(&d).expect("acyclic by construction");
                let mut covered = 0usize;
                for l in 0..g.num_levels() {
                    covered += g.level(l).len();
                }
                prop_assert_eq!(covered, g.num_nodes());
                for arc in g.arcs() {
                    prop_assert!(g.level_of(arc.from) < g.level_of(arc.to));
                }
                prop_assert_eq!(g.clock_tree().ck_pins().count(), flops);
                Ok(())
            },
        );
    }

    #[test]
    fn target_pins_config_lands_near_target() {
        let cfg = GeneratorConfig::with_target_pins("iwls", 13, 24_000);
        let d = generate_design(&cfg);
        let pins = d.pins().len();
        assert!(
            pins > 12_000 && pins < 48_000,
            "pin count {pins} too far from 24k target"
        );
    }
}
