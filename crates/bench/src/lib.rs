//! Shared harness for the paper-reproduction benchmarks.
//!
//! Defines the benchmark suites standing in for the paper's proprietary
//! workloads (see DESIGN.md): five "block" designs (Table I / Fig. 6),
//! four IWLS-like circuits (Table II), and eight superblue-like placement
//! instances (Table III). Every suite is deterministic; sizes are scaled
//! to laptop scale and recorded in EXPERIMENTS.md next to the paper's
//! original sizes.

use insta_engine::{InstaConfig, InstaEngine, MismatchStats};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_netlist::Design;
use insta_refsta::{RefSta, StaConfig};
use insta_sizer::{
    insta_size, random_changelist, reference_size, run_evaluator_flow, EvaluatorFlowResult,
    InstaSizeConfig, SizeOutcome,
};
use insta_support::json::{obj, Json, ToJson};
use std::time::Instant;

/// One synthetic block specification.
#[derive(Debug, Clone)]
pub struct BlockSpec {
    /// Display name (mirrors the paper's block-1..block-5).
    pub name: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// Block scale (1.0 ≈ 25k gates; the paper's blocks are 2–4M cells).
    pub scale: f64,
    /// Clock period (ps) — tight enough that some endpoints violate.
    pub period_ps: f64,
}

impl BlockSpec {
    /// Builds the design of this spec.
    pub fn build(&self) -> Design {
        let mut cfg = GeneratorConfig::block(self.name, self.seed, self.scale);
        cfg.clock_period_ps = self.period_ps;
        generate_design(&cfg)
    }
}

/// The five Table-I blocks. `block-1` is the largest (the Fig. 6 subject).
pub fn block_specs() -> Vec<BlockSpec> {
    vec![
        BlockSpec { name: "block-1", seed: 101, scale: 1.0, period_ps: 1050.0 },
        BlockSpec { name: "block-2", seed: 102, scale: 0.40, period_ps: 900.0 },
        BlockSpec { name: "block-3", seed: 103, scale: 0.60, period_ps: 950.0 },
        BlockSpec { name: "block-4", seed: 104, scale: 0.45, period_ps: 920.0 },
        BlockSpec { name: "block-5", seed: 105, scale: 0.40, period_ps: 880.0 },
    ]
}

/// The correlation and mismatch columns of a checked table row.
pub fn mismatch_columns(stats: &MismatchStats) -> [(&'static str, Json); 3] {
    [
        ("correlation", stats.correlation.to_json()),
        ("avg_mismatch_ps", stats.avg_abs_ps.to_json()),
        ("worst_mismatch_ps", stats.worst_abs_ps.to_json()),
    ]
}

/// One Table-I row: the reference's full update and INSTA's propagation at
/// the paper's Top-K = 32 on one block.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Reference full-update wall time (s); printed, not checked.
    pub ut_s: f64,
    /// INSTA propagation wall time (s), after one warm pass; printed, not
    /// checked.
    pub rt_s: f64,
    /// INSTA's propagation state (bytes); printed, not checked.
    pub state_bytes: usize,
    /// INSTA's endpoint slacks against the reference's.
    pub stats: MismatchStats,
    /// The checked outcome columns, one object of `table1.json`: size,
    /// correlation, mismatch, #vio and WNS.
    pub outcome: Json,
}

/// Builds `spec`'s design and its Table-I row.
pub fn table1_row(spec: &BlockSpec) -> Table1Row {
    let design = spec.build();
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    let t = Instant::now();
    golden.full_update(&design);
    let ut_s = t.elapsed().as_secs_f64();
    let exact: Vec<f64> = golden.report().endpoints.iter().map(|e| e.slack_ps).collect();
    let mut eng = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
        .expect("valid snapshot");
    // Warm once, then time the propagation proper.
    eng.propagate();
    let t = Instant::now();
    let report = eng.propagate().clone();
    let rt_s = t.elapsed().as_secs_f64();
    let stats = MismatchStats::compute(&report.slacks, &exact);
    let mut row = vec![
        ("design", spec.name.to_string().to_json()),
        ("cells", design.cells().len().to_json()),
        ("pins", design.pins().len().to_json()),
        ("endpoints", exact.len().to_json()),
    ];
    row.extend(mismatch_columns(&stats));
    row.push(("insta_violations", report.n_violations.to_json()));
    row.push(("reference_violations", golden.report().n_violations.to_json()));
    row.push(("insta_wns_ps", report.wns_ps.to_json()));
    row.push(("reference_wns_ps", golden.report().wns_ps.to_json()));
    Table1Row {
        ut_s,
        rt_s,
        state_bytes: eng.state_bytes(),
        stats,
        outcome: obj(row),
    }
}

/// Figs. 7–8's run: the evaluator flow over a 25-resize changelist on
/// block-2, at K=8 — exact on this suite (see the ablation bench) at a
/// quarter of the Top-K=32 kernel work; Table I keeps the paper's K=32.
pub fn fig7_flow() -> EvaluatorFlowResult {
    let mut design = block_specs()[1].build();
    let ops = random_changelist(&design, 25, 42);
    let insta = InstaConfig {
        top_k: 8,
        ..InstaConfig::default()
    };
    run_evaluator_flow(&mut design, &ops, StaConfig::default(), insta)
}

/// Fig. 8's checked rows of a flow run: correlation and mismatch before
/// and after the changelist, the objects of `fig8.json`.
pub fn fig8_rows(flow: &EvaluatorFlowResult) -> Vec<Json> {
    [("before", &flow.corr_before), ("after", &flow.corr_after)]
        .into_iter()
        .map(|(when, stats)| {
            let mut row = vec![("flow", when.to_string().to_json())];
            row.extend(mismatch_columns(stats));
            obj(row)
        })
        .collect()
}

/// One IWLS-like circuit specification (Table II).
#[derive(Debug, Clone)]
pub struct IwlsSpec {
    /// Display name (mirrors the paper's IWLS rows).
    pub name: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// Target netlist pin count (the paper reports 24k/50k/11k/35k).
    pub target_pins: usize,
    /// Clock period (ps).
    pub period_ps: f64,
}

impl IwlsSpec {
    /// Builds the design of this spec.
    pub fn build(&self) -> Design {
        let mut cfg = GeneratorConfig::with_target_pins(self.name, self.seed, self.target_pins);
        cfg.clock_period_ps = self.period_ps;
        generate_design(&cfg)
    }
}

/// The four Table-II circuits.
pub fn iwls_specs() -> Vec<IwlsSpec> {
    vec![
        IwlsSpec { name: "aes_core", seed: 201, target_pins: 24_000, period_ps: 900.0 },
        IwlsSpec { name: "cipher_top", seed: 202, target_pins: 50_000, period_ps: 900.0 },
        IwlsSpec { name: "des", seed: 203, target_pins: 11_000, period_ps: 800.0 },
        IwlsSpec { name: "mc_top", seed: 204, target_pins: 35_000, period_ps: 820.0 },
    ]
}

/// Table II's row of one circuit: the greedy reference sizer and
/// INSTA-Size, each on its own copy of the design.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The design's pin count; printed, not checked.
    pub pins: usize,
    /// The reference sizer's run (its `*_before` fields are the initial
    /// design's); its trace printed, not checked.
    pub reference: SizeOutcome,
    /// INSTA-Size's run.
    pub insta: SizeOutcome,
    /// The checked outcome columns, one object of `table2.json`: WNS, TNS
    /// and #vio of the initial design, and those plus the cells sized of
    /// each sizer.
    pub outcome: Json,
}

/// Sizes `spec`'s design with both sizers and builds its Table-II row.
pub fn table2_row(spec: &IwlsSpec) -> Table2Row {
    let mut d_ref = spec.build();
    let pins = d_ref.pins().len();
    let mut sta_ref = RefSta::new(&d_ref, StaConfig::default()).expect("build");
    let reference = reference_size(&mut d_ref, &mut sta_ref);
    let mut d_ins = spec.build();
    let mut sta_ins = RefSta::new(&d_ins, StaConfig::default()).expect("build");
    let insta = insta_size(&mut d_ins, &mut sta_ins, &InstaSizeConfig::default());
    // A row's deterministic columns; the initial row has no cells sized.
    let columns = |wns: f64, tns: f64, vio: usize, sized: Option<usize>| {
        let mut row = vec![
            ("wns_ps", wns.to_json()),
            ("tns_ps", tns.to_json()),
            ("violations", vio.to_json()),
        ];
        row.extend(sized.map(|n| ("cells_sized", n.to_json())));
        obj(row)
    };
    let sized = |o: &SizeOutcome| {
        let n = Some(o.cells_sized);
        columns(o.wns_after_ps, o.tns_after_ps, o.violations_after, n)
    };
    let r = &reference;
    let initial = columns(r.wns_before_ps, r.tns_before_ps, r.violations_before, None);
    let outcome = obj([
        ("design", spec.name.to_string().to_json()),
        ("initial", initial),
        ("reference", sized(&reference)),
        ("insta_size", sized(&insta)),
    ]);
    Table2Row {
        pins,
        reference,
        insta,
        outcome,
    }
}

/// One superblue-like placement instance (Table III).
#[derive(Debug, Clone)]
pub struct SuperblueSpec {
    /// Display name.
    pub name: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// Scale of the netlist.
    pub scale: f64,
    /// Clock period (ps).
    pub period_ps: f64,
}

impl SuperblueSpec {
    /// Builds the design of this spec.
    pub fn build(&self) -> Design {
        let mut cfg = GeneratorConfig::block(self.name, self.seed, self.scale);
        cfg.clock_period_ps = self.period_ps;
        // Placement benchmarks need a heterogeneous slack profile (only
        // the deepest paths violate) and high-fanout nets (where net
        // weighting and arc weighting genuinely diverge, paper Fig. 5).
        cfg.uniform_endpoint_taps = true;
        cfg.hub_fraction = 0.04;
        cfg.hub_pick_prob = 0.35;
        generate_design(&cfg)
    }
}

/// The eight Table-III instances (`superblue10` is the largest, the Fig. 9
/// subject).
pub fn superblue_specs() -> Vec<SuperblueSpec> {
    vec![
        SuperblueSpec { name: "superblue1", seed: 301, scale: 0.12, period_ps: 7950.0 },
        SuperblueSpec { name: "superblue3", seed: 303, scale: 0.10, period_ps: 10230.0 },
        SuperblueSpec { name: "superblue4", seed: 304, scale: 0.08, period_ps: 8530.0 },
        SuperblueSpec { name: "superblue5", seed: 305, scale: 0.10, period_ps: 6620.0 },
        SuperblueSpec { name: "superblue7", seed: 307, scale: 0.12, period_ps: 10090.0 },
        SuperblueSpec { name: "superblue10", seed: 310, scale: 0.20, period_ps: 13840.0 },
        SuperblueSpec { name: "superblue16", seed: 316, scale: 0.10, period_ps: 7200.0 },
        SuperblueSpec { name: "superblue18", seed: 318, scale: 0.08, period_ps: 7360.0 },
    ]
}

/// Formats picoseconds compactly for table rows.
pub fn fmt_ps(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "inf".to_string()
    }
}

/// The median of `xs` (the mean of the middle two for an even count; NaN
/// for none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Two-sided exact sign test: the probability, under a fair coin, of a
/// split of `n` untied pairs at least as uneven as `wins` against
/// `n - wins`.
pub fn sign_test_p(wins: usize, n: usize) -> f64 {
    let k = wins.min(n - wins);
    // P(X <= k) for X ~ Binomial(n, 1/2), term by term.
    let (mut term, mut tail) = (0.5f64.powi(n as i32), 0.0);
    for i in 0..=k {
        tail += term;
        term *= (n - i) as f64 / (i + 1) as f64;
    }
    (2.0 * tail).min(1.0)
}

/// A seeded 95 % percentile-bootstrap interval of the median of `xs`:
/// `resamples` draws of `xs.len()` values with replacement, and the 2.5th
/// and 97.5th percentiles of their medians.
pub fn bootstrap_median_ci(xs: &[f64], resamples: usize, seed: u64) -> (f64, f64) {
    if xs.is_empty() || resamples == 0 {
        return (f64::NAN, f64::NAN);
    }
    let mut rng = insta_support::Rng::seed_from_u64(seed);
    let mut draw = vec![0.0; xs.len()];
    let mut medians: Vec<f64> = (0..resamples)
        .map(|_| {
            for d in &mut draw {
                *d = xs[rng.bounded_u64(xs.len() as u64) as usize];
            }
            median(&draw)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    let at = |q: f64| medians[((q * resamples as f64) as usize).min(resamples - 1)];
    (at(0.025), at(0.975))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sign test against hand-computed binomial tails, and the
    /// bootstrap pinned on a fixed sample and seed.
    #[test]
    fn paired_statistics_on_fixed_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // 10 of 10: 2 / 1024. 8 of 10: 2 · 56 / 1024. 1 of 2 and 0 of 0: 1.
        assert!((sign_test_p(10, 10) - 2.0 / 1024.0).abs() < 1e-15);
        assert!((sign_test_p(2, 10) - 112.0 / 1024.0).abs() < 1e-15);
        assert_eq!(sign_test_p(8, 10), sign_test_p(2, 10));
        assert_eq!(sign_test_p(1, 2), 1.0);
        assert_eq!(sign_test_p(0, 0), 1.0);
        let xs = [-3.0, 1.0, 4.0, 1.5, -0.5, 9.0, 2.0, 6.0, 5.0, 3.5];
        let (lo, hi) = bootstrap_median_ci(&xs, 2000, 7);
        assert_eq!(bootstrap_median_ci(&xs, 2000, 7), (lo, hi), "seeded");
        assert!(lo <= median(&xs) && median(&xs) <= hi, "{lo} {hi}");
        assert!(lo >= -3.0 && hi <= 9.0 && lo < hi, "{lo} {hi}");
        // A constant sample has a point interval.
        assert_eq!(bootstrap_median_ci(&[2.0; 5], 100, 1), (2.0, 2.0));
    }

    #[test]
    fn block_specs_build_valid_designs() {
        // Only the smallest block to keep unit tests quick.
        let spec = &block_specs()[4];
        let d = spec.build();
        d.validate().expect("valid design");
        assert!(d.cells().len() > 3_000);
    }

    /// Table I's block-5 row, computed by the code `repro -- table1` runs,
    /// equals its row of the checked-in `expected/table1.json` — size,
    /// correlation, mismatch, #vio and WNS — so the default test run
    /// guards accuracy, not only `repro -- check`.
    #[test]
    fn table1_block5_row_equals_the_expected_file() {
        let expected = insta_support::json::parse(include_str!("../expected/table1.json"))
            .expect("the expected file parses");
        let want = expected
            .as_arr()
            .expect("an array of rows")
            .iter()
            .find(|row| row.field("design").and_then(Json::as_str) == Ok("block-5"))
            .expect("a block-5 row")
            .clone();
        let spec = block_specs().into_iter().find(|s| s.name == "block-5").expect("block-5");
        let got = table1_row(&spec).outcome;
        // Through the text, as `repro -- check` reads both files.
        let got = insta_support::json::parse(&got.to_string()).expect("round trip");
        assert_eq!(got, want);
    }

    /// Table II's des row — the initial design's WNS, TNS and #vio, and
    /// those plus the cells sized of both sizers — computed by the code
    /// `repro -- table2` runs, equals its row of the checked-in
    /// `expected/table2.json`. INSTA-Size scores its candidates through
    /// batched what-if lanes, so the default test run guards the lane
    /// path's outcome bits, not only `repro -- check`.
    #[test]
    fn table2_des_row_equals_the_expected_file() {
        let expected = insta_support::json::parse(include_str!("../expected/table2.json"))
            .expect("the expected file parses");
        let want = expected
            .as_arr()
            .expect("an array of rows")
            .iter()
            .find(|row| row.field("design").and_then(Json::as_str) == Ok("des"))
            .expect("a des row")
            .clone();
        let spec = iwls_specs().into_iter().find(|s| s.name == "des").expect("des");
        let got = table2_row(&spec).outcome;
        // Through the text, as `repro -- check` reads both files.
        let got = insta_support::json::parse(&got.to_string()).expect("round trip");
        assert_eq!(got, want);
    }

    /// Fig. 8's rows — correlation and mismatch before and after the
    /// block-2 changelist — computed by the code `repro -- fig8` runs,
    /// equal the checked-in `expected/fig8.json`, so the default test run
    /// guards the evaluator flow's drift, not only `repro -- check`.
    #[test]
    fn fig8_rows_equal_the_expected_file() {
        let want = insta_support::json::parse(include_str!("../expected/fig8.json"))
            .expect("the expected file parses");
        let got = Json::Arr(fig8_rows(&fig7_flow()));
        // Through the text, as `repro -- check` reads both files.
        let got = insta_support::json::parse(&got.to_string()).expect("round trip");
        assert_eq!(got, want);
    }

    /// No pass computes what no endpoint can see: block-1's fused setup
    /// pass and its hold pass at the Table-I K each skip at least a fifth
    /// of the rows they would merge (27.5 % of block-1's nodes reach no
    /// endpoint), as their spans' `live` and `dead` counts say, so the dead
    /// work cannot come back silently in either.
    #[test]
    fn block1_setup_and_hold_skip_the_rows_no_endpoint_sees() {
        use insta_engine::{hold_attributes, InstaConfig, InstaEngine};
        use insta_refsta::{RefSta, StaConfig};
        let design = block_specs()[0].build();
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        sta.full_update(&design);
        let attrs = hold_attributes(&design, &sta);
        let mut engine =
            InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid");
        engine.enable_tracing();
        engine.propagate_fused();
        engine.propagate_hold(&attrs);
        let journal = engine.trace_journal().expect("tracing on");
        for name in ["forward_fused", "hold"] {
            let span = journal.events().find(|e| e.name == name);
            let span = span.unwrap_or_else(|| panic!("no {name} span"));
            let (Some(live), Some(dead)) = (span.field("live"), span.field("dead")) else {
                panic!("the {name} span carries no live / dead counts");
            };
            assert!(
                dead >= 0.2 * (live + dead),
                "block-1's {name} pass merged {live} rows and skipped {dead}"
            );
        }
    }

    /// The bytes-per-node budget: block-1 at the Table-I K keeps its
    /// propagation state (what `engine.state_mb` prints) under 22 MiB —
    /// it was 126 MB with a dense 28-byte slot per pin, 39.7 MiB with K
    /// slots per queue, 27.5 MiB with each queue sized by the startpoints
    /// that can reach it, and is 21.04 MiB with no slot for a node no
    /// endpoint sees — so the state cannot regrow silently.
    #[test]
    fn block1_state_at_k32_stays_under_22_mib() {
        use insta_engine::{InstaConfig, InstaEngine};
        use insta_refsta::{RefSta, StaConfig};
        let design = block_specs()[0].build();
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        sta.full_update(&design);
        let engine =
            InstaEngine::new(sta.export_insta_init(), InstaConfig::default()).expect("valid");
        assert_eq!(engine.top_k(), 32);
        let (rows, nodes) = (engine.num_rows(), engine.num_nodes());
        assert!(rows * 2 < nodes, "{rows} rows for {nodes} nodes");
        let mib = engine.state_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mib < 22.0, "block-1 state is {mib:.2} MiB at K=32");
    }

    /// The window pass's byte budget: on block-3 at K=8 (the
    /// `whatif_block3_k8` design) a report-only corner pass keeps at most a
    /// quarter of the stored rows in slots (11.5 %: no slot for a row only
    /// dead nodes read),
    /// so its rows cannot grow back into a second row set silently.
    #[test]
    fn block3_window_plan_at_k8_keeps_under_a_quarter_of_the_rows() {
        use insta_engine::{CornerTransform, InstaConfig, InstaEngine, PassOptions, Scenario};
        use insta_refsta::{RefSta, StaConfig};
        let design = block_specs()[2].build();
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        sta.full_update(&design);
        let cfg = InstaConfig {
            top_k: 8,
            n_threads: 1,
            ..InstaConfig::default()
        };
        let mut engine = InstaEngine::new(sta.export_insta_init(), cfg).expect("valid");
        engine.propagate();
        engine.enable_tracing();
        let corner = Scenario::default().with_corner(CornerTransform::scale(1.06, 1.15));
        let mcmm = engine.evaluate(&[corner], &PassOptions::default());
        assert!(mcmm.scenarios[0].outcome.is_ok());
        let journal = engine.trace_journal().expect("tracing on");
        let sweep = journal.events().find(|e| e.name == "batch.sweep");
        let slots = sweep
            .and_then(|e| e.field("window_rows"))
            .expect("a window pass");
        let rows = engine.num_rows() as f64;
        assert!(
            slots > 0.0 && slots <= 0.25 * rows,
            "{slots} slots for {rows} rows"
        );
    }

    #[test]
    fn suites_have_expected_cardinality() {
        assert_eq!(block_specs().len(), 5);
        assert_eq!(iwls_specs().len(), 4);
        assert_eq!(superblue_specs().len(), 8);
    }
}
