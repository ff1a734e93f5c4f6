//! Regenerates every table and figure of the INSTA paper's evaluation on
//! the synthetic benchmark suites (see DESIGN.md's per-experiment index).
//!
//! ```text
//! cargo run --release -p insta-bench --bin repro -- all
//! cargo run --release -p insta-bench --bin repro -- fig6 table1 fig7 table2 table3 fig9
//! cargo run --release -p insta-bench --bin repro -- table3 --seeds 10
//! cargo run --release -p insta-bench --bin repro -- ablation
//! ```
//!
//! `ablation` (§III-E Top-K queue, §III-F LSE τ) is a wall-clock
//! micro-bench on the in-tree harness rather than a table of the paper, so
//! `all` leaves it out.
//!
//! A checked table also writes its deterministic outcome columns to
//! `target/repro/<table>.json`, and `repro -- check <table>...` compares
//! each with the checked-in `crates/bench/expected/<table>.json`, exiting
//! non-zero on any difference (`check` alone checks every such table).
//! Checked today: `fig6` (correlation and mismatch per Top-K and CPPR
//! setting), `table1` (size, correlation, mismatch, #vio and WNS per
//! block), `fig8` (correlation and mismatch before and after the flow),
//! `table2` (WNS, TNS, #vio and cells sized per design and sizer), `table3`
//! (legalized HPWL and TNS per instance, mode and seed) and `extensions`
//! (power recovery's leakage, commits and #vio; INSTA-Buffer's WNS, TNS
//! and buffers). Timing and memory columns are printed only.

use insta_bench::{
    block_specs, bootstrap_median_ci, fig7_flow, fig8_rows, fmt_ps, iwls_specs, median,
    mismatch_columns, sign_test_p, superblue_specs, table1_row, table2_row, Table2Row,
};
use insta_engine::topk::{Candidate, TopKQueue};
use insta_engine::{InstaConfig, InstaEngine, MismatchStats};
use insta_netlist::{DesignStats, TimingGraph};
use insta_placer::db::UTILIZATION;
use insta_placer::{place, refresh_timing, PlacementDb, PlacerConfig, PlacerMode, TimingMode};
use insta_refsta::{RefSta, StaConfig};
use insta_support::json::{self, obj, Json, ToJson};
use insta_support::obs::Recorder;
use insta_support::timer::{black_box, Harness};
use insta_support::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

/// The tables whose outcome columns `repro -- check` compares.
const CHECKED: [&str; 6] = ["fig6", "table1", "fig8", "table2", "table3", "extensions"];

/// Where a run writes `table`'s outcome columns, and where the checked-in
/// copy they must equal lives.
fn outcome_paths(table: &str) -> (PathBuf, PathBuf) {
    let bench = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let file = format!("{table}.json");
    (
        bench.join("../../target/repro").join(&file),
        bench.join("expected").join(file),
    )
}

/// Writes `rows` as `table`'s outcome file, one row per line.
fn write_outcome(table: &str, rows: &[Json]) {
    let (path, _) = outcome_paths(table);
    let lines: Vec<String> = rows.iter().map(|r| format!("  {r}")).collect();
    let text = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::create_dir_all(path.parent().expect("a directory"))
        .and_then(|()| std::fs::write(&path, text))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("outcome columns: target/repro/{table}.json");
}

/// Compares each table's outcome file with its expected file, printing
/// every row that differs; returns whether all of them are equal.
fn check(tables: &[&str]) -> bool {
    let read = |path: PathBuf| {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        text.and_then(|t| json::parse(&t).map_err(|e| e.to_string()))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut ok = true;
    for &table in tables {
        let (got, want) = outcome_paths(table);
        match (read(got), read(want)) {
            (Ok(got), Ok(want)) if got == want => println!("check {table}: ok"),
            (Ok(got), Ok(want)) => {
                ok = false;
                println!("check {table}: outcome differs from the expected file");
                let rows = |j: &Json| j.as_arr().map(<[Json]>::to_vec).unwrap_or_default();
                let (got, want) = (rows(&got), rows(&want));
                for i in 0..got.len().max(want.len()) {
                    let (g, w) = (got.get(i), want.get(i));
                    if g != w {
                        println!("  expected {}", w.map_or("(none)".into(), Json::to_string));
                        println!("  got      {}", g.map_or("(none)".into(), Json::to_string));
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                ok = false;
                println!("check {table}: {e}");
            }
        }
    }
    ok
}

fn golden_slack_vec(sta: &RefSta) -> Vec<f64> {
    sta.report().endpoints.iter().map(|e| e.slack_ps).collect()
}

/// Fig. 6: endpoint-slack correlation on block-1, Top-K=1 (no CPPR) vs
/// Top-K=128 (with CPPR).
fn fig6() {
    println!("=== Fig. 6: INSTA vs reference endpoint slack correlation (block-1) ===");
    let spec = &block_specs()[0];
    let design = spec.build();
    let graph = TimingGraph::build(&design).expect("acyclic");
    println!("subject: {}", DesignStats::collect(&design, &graph));
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    let t = Instant::now();
    golden.full_update(&design);
    println!("reference full update: {:.2} s", t.elapsed().as_secs_f64());
    let init = golden.export_insta_init();
    let exact = golden_slack_vec(&golden);

    let mut rows = Vec::new();
    for (k, cppr, label) in [
        (1usize, false, "Top-K=1 (no CPPR handling)"),
        (128usize, true, "Top-K=128 (CPPR via unique startpoints)"),
    ] {
        let mut eng = InstaEngine::new(
            init.clone(),
            InstaConfig {
                top_k: k,
                cppr,
                ..InstaConfig::default()
            },
        ).expect("valid snapshot");
        let t = Instant::now();
        let report = eng.propagate().clone();
        let dt = t.elapsed().as_secs_f64();
        let stats = MismatchStats::compute(&report.slacks, &exact);
        println!(
            "{label:<42}: {stats}  runtime {:.3} s  state {:.2} GB",
            dt,
            eng.state_bytes() as f64 / 1e9
        );
        let mut row = vec![("top_k", k.to_json()), ("cppr", cppr.to_json())];
        row.extend(mismatch_columns(&stats));
        rows.push(obj(row));
    }
    write_outcome("fig6", &rows);
    println!();
}

/// Table I: correlation / runtime / memory / mismatch across 5 blocks at
/// Top-K=32.
fn table1() {
    println!("=== Table I: timing correlation, 5 blocks, Top-K=32 ===");
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>14} {:>10} {:>9} {:>22}",
        "design", "#cells", "#pins", "UT(s)", "ep slack corr", "rt (s)", "mem (GB)", "ep mismatch (avg,wst)"
    );
    let mut rows = Vec::new();
    for spec in block_specs() {
        let row = table1_row(&spec);
        let field = |key| row.outcome.field(key).and_then(Json::as_f64).expect("a number");
        println!(
            "{:<10} {:>9} {:>9} {:>8.2} {:>14.5} {:>10.4} {:>9.3} {:>10.2e} {:>10.2}",
            spec.name,
            field("cells"),
            field("pins"),
            row.ut_s,
            row.stats.correlation,
            row.rt_s,
            row.state_bytes as f64 / 1e9,
            row.stats.avg_abs_ps,
            row.stats.worst_abs_ps,
        );
        rows.push(row.outcome);
    }
    write_outcome("table1", &rows);
    println!();
}

/// Figs. 7–8: incremental evaluator runtimes on block-2 plus pre/post
/// correlation drift.
fn fig7() {
    println!("=== Fig. 7: incremental STA runtime per sizing iteration (block-2) ===");
    let result = fig7_flow();
    let trace = &result.trace;
    let stats = |name: &str| -> (f64, f64) {
        let xs: Vec<f64> = trace
            .events()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns as f64 * 1e-6)
            .collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        (m, var.sqrt())
    };
    println!(
        "per-iteration runtime over {} iterations (mean ± std):",
        trace.sum("flow.insta").count
    );
    let (m, s) = stats("flow.full");
    println!("  reference full update (commercial-tool role): {m:8.2} ± {s:5.2} ms");
    let (m, s) = stats("flow.incremental");
    println!("  reference incremental (in-house engine role) : {m:8.2} ± {s:5.2} ms  (cone-size dependent)");
    let (m, s) = stats("flow.insta");
    println!("  INSTA (estimate_eco + re-annot + propagate)  : {m:8.2} ± {s:5.2} ms  (changed fanout cone only)");
    let insta_ns = trace.sum("flow.insta").ns.max(1) as f64;
    println!(
        "  speedups: {:.1}x vs full, {:.2}x vs incremental",
        trace.sum("flow.full").ns as f64 / insta_ns,
        trace.sum("flow.incremental").ns as f64 / insta_ns
    );
    println!("=== Fig. 8: correlation impact of estimate_eco re-annotation ===");
    println!("  before flow: {}", result.corr_before);
    println!("  after  flow: {}", result.corr_after);
    write_outcome("fig8", &fig8_rows(&result));
    println!();
}

/// Prints where a sizing run spent its time: its spans' totals, then its
/// `Coupled` moves by route (`kind`: arcs, launch, full), kept ones and
/// the time of their `coupled.refsta`, `coupled.session` and
/// `coupled.rebuild` children.
fn print_moves(trace: &Recorder) {
    let names = ["size.run", "size.signoff", "size.round", "size.gradient", "size.score"];
    let [run, signoff, rounds, gradient, score] = names.map(|n| trace.sum(n));
    let covered = (signoff.ns + rounds.ns) as f64 / run.ns.max(1) as f64;
    let moves = trace.sum("coupled.move");
    println!(
        "    time: {:.2} s = signoff {:.2} s + {} rounds {:.2} s ({:.1} % covered); in rounds: gradient {:.3} s, {} scores {:.2} s, {} moves {:.2} s",
        run.secs(), signoff.secs(), rounds.count, rounds.secs(), 100.0 * covered,
        gradient.secs(), score.count, score.secs(), moves.count, moves.secs()
    );
    // A move's children close before it: they are the spans since the
    // last move.
    let children = ["coupled.refsta", "coupled.session", "coupled.rebuild"];
    let (mut routes, mut open) = ([[0u64; 5]; 3], [0u64; 3]);
    for e in trace.events() {
        if let Some(c) = children.iter().position(|&n| n == e.name) {
            open[c] += e.dur_ns;
        } else if e.name == "coupled.move" {
            let route = &mut routes[e.field("kind").map_or(0, |k| k as usize)];
            route[0] += 1;
            route[1] += u64::from(e.field("kept") == Some(1.0));
            for (c, ns) in open.iter_mut().enumerate() {
                route[2 + c] += std::mem::take(ns);
            }
        }
    }
    if trace.dropped() > 0 {
        println!("    (the ring dropped {} events: the routes count the moves it kept)", trace.dropped());
    }
    for (name, [n, kept, refsta, session, rebuild]) in ["arcs", "launch", "full"].iter().zip(routes) {
        if n > 0 {
            let [refsta, session, rebuild] = [refsta, session, rebuild].map(|ns| ns as f64 * 1e-6);
            println!("    {name:<6} moves {n:>5} (kept {kept:>5}): refsta {refsta:7.1} ms, session {session:7.1} ms, rebuild {rebuild:7.1} ms");
        }
    }
}

/// Table II: INSTA-Size vs the greedy reference sizer on IWLS-like
/// circuits.
fn table2() {
    println!("=== Table II: gate sizing for timing optimization (IWLS-like) ===");
    let mut rows = Vec::new();
    for spec in iwls_specs() {
        let Table2Row {
            pins,
            reference: r,
            insta: i,
            outcome,
        } = table2_row(&spec);
        println!("--- {} ({pins} pins, bRT measured below) ---", spec.name);
        println!(
            "  initial    : WNS {:>9} TNS {:>11} #vio {:>4}",
            fmt_ps(r.wns_before_ps),
            fmt_ps(r.tns_before_ps),
            r.violations_before
        );
        println!(
            "  reference  : WNS {:>9} TNS {:>11} #vio {:>4}  cells sized {:>5}  rt {:.2}s",
            fmt_ps(r.wns_after_ps),
            fmt_ps(r.tns_after_ps),
            r.violations_after,
            r.cells_sized,
            r.trace.sum("size.run").secs()
        );
        let fewer = if r.cells_sized > 0 {
            format!(
                " ({:+.0}%)",
                100.0 * (i.cells_sized as f64 / r.cells_sized as f64 - 1.0)
            )
        } else {
            String::new()
        };
        println!(
            "  INSTA-Size : WNS {:>9} TNS {:>11} #vio {:>4}  cells sized {:>5}{}  rt {:.2}s  bRT {:.3}s",
            fmt_ps(i.wns_after_ps),
            fmt_ps(i.tns_after_ps),
            i.violations_after,
            i.cells_sized,
            fewer,
            i.trace.sum("size.run").secs(),
            i.trace.sum("size.gradient").secs()
        );
        print_moves(&i.trace);
        rows.push(outcome);
    }
    write_outcome("table2", &rows);
    println!();
}

/// Table III: timing-driven placement after legalization, each (instance,
/// mode) cell the mean over `seeds` placement seeds, then the seeds paired
/// per instance.
fn table3(seeds: u64) {
    println!("=== Table III: timing-driven placement, post-legalization ===");
    println!(
        "{:<13} {:>12} {:>11} | {:>12} {:>11} {:>7} | {:>12} {:>11} {:>7}  {:>8}",
        "instance", "DP HPWL", "DP TNS", "DP4.0 HPWL", "DP4.0 TNS", "recov%", "INSTA HPWL", "INSTA TNS", "recov%", "dHPWL%"
    );
    let mut sum_dh = 0.0;
    let mut sum_nw_rec = 0.0;
    let mut sum_ip_rec = 0.0;
    let mut counted = 0usize;
    let mut rows = Vec::new();
    // Per instance: each mode's TNS per seed (DP, DP4.0, INSTA-Place).
    let mut paired: Vec<(&str, [Vec<f64>; 3])> = Vec::new();
    for spec in superblue_specs() {
        let mut run = |name: &str, mode: PlacerMode| -> (f64, f64, Vec<f64>) {
            let mut hpwl = 0.0;
            let mut tns = 0.0;
            let mut per_seed = Vec::new();
            for ds in 0..seeds {
                let mut design = spec.build();
                let cfg = PlacerConfig {
                    seed: spec.seed + ds,
                    mode,
                    ..PlacerConfig::default()
                };
                let r = place(&mut design, &cfg);
                hpwl += r.hpwl_legal;
                tns += r.tns_legal_ps;
                per_seed.push(r.tns_legal_ps);
                rows.push(obj([
                    ("instance", spec.name.to_string().to_json()),
                    ("mode", name.to_string().to_json()),
                    ("seed", cfg.seed.to_json()),
                    ("hpwl_legal", r.hpwl_legal.to_json()),
                    ("tns_legal_ps", r.tns_legal_ps.to_json()),
                ]));
            }
            (hpwl / seeds as f64, tns / seeds as f64, per_seed)
        };
        let dp = run("wirelength", PlacerMode::Wirelength);
        let nw = run(
            "net_weighting",
            PlacerMode::NetWeighting {
                alpha: 1.0,
                beta: 0.5,
            },
        );
        let ip = run("insta_place", PlacerMode::InstaPlace { lambda_rc: 0.01 });
        // (INSTA-Place runs with the placement-tuned defaults: lse_tau=60,
        // timing_scale=0.4 — see PlacerConfig::default and EXPERIMENTS.md.)
        // TNS recovered relative to the timing-oblivious DP baseline.
        let recov = |tns: f64| {
            if dp.1 < 0.0 {
                100.0 * (1.0 - tns / dp.1)
            } else {
                0.0
            }
        };
        let dh = 100.0 * (ip.0 / nw.0 - 1.0);
        sum_dh += dh;
        sum_nw_rec += recov(nw.1);
        sum_ip_rec += recov(ip.1);
        counted += 1;
        println!(
            "{:<13} {:>12.0} {:>11.1} | {:>12.0} {:>11.1} {:>6.0}% | {:>12.0} {:>11.1} {:>6.0}%  {:>7.1}%",
            spec.name,
            dp.0,
            dp.1,
            nw.0,
            nw.1,
            recov(nw.1),
            ip.0,
            ip.1,
            recov(ip.1),
            dh
        );
        paired.push((spec.name, [dp.2, nw.2, ip.2]));
    }
    if counted > 0 {
        println!(
            "{:<13} mean TNS recovered vs DP: net-weighting {:.0}%, INSTA-Place {:.0}%; INSTA-Place HPWL vs net-weighting: {:+.1}%",
            "average",
            sum_nw_rec / counted as f64,
            sum_ip_rec / counted as f64,
            sum_dh / counted as f64
        );
    }
    println!("(recov%: fraction of the DP baseline's TNS recovered; dHPWL%: INSTA-Place HPWL relative to net-weighting)");
    print_paired_seeds(seeds, &paired);
    write_outcome("table3", &rows);
    println!();
}

/// Table III's seeds paired per instance: the median TNS of each mode and
/// the per-seed difference INSTA-Place − net weighting (positive: INSTA-Place
/// closer to zero) — its wins out of the untied seeds, the two-sided sign
/// test's p, and a seeded 95 % bootstrap interval of its median.
fn print_paired_seeds(seeds: u64, paired: &[(&str, [Vec<f64>; 3])]) {
    println!("--- paired seeds (N = {seeds}): INSTA-Place TNS − net-weighting TNS per seed ---");
    println!(
        "{:<13} {:>11} {:>11} {:>11} | {:>6} {:>7} {:>11} {:>24}",
        "instance",
        "DP TNS~",
        "DP4.0 TNS~",
        "INSTA TNS~",
        "wins",
        "sign p",
        "diff~",
        "95% CI of diff~"
    );
    for (name, [dp, nw, ip]) in paired {
        let diff: Vec<f64> = ip.iter().zip(nw).map(|(i, n)| i - n).collect();
        let wins = diff.iter().filter(|&&d| d > 0.0).count();
        let untied = diff.iter().filter(|&&d| d != 0.0).count();
        let (lo, hi) = bootstrap_median_ci(&diff, 2000, 0x7AB1E3);
        println!(
            "{:<13} {:>11.1} {:>11.1} {:>11.1} | {:>3}/{:<2} {:>7.3} {:>11.1} {:>11.1} .. {:>9.1}",
            name,
            median(dp),
            median(nw),
            median(ip),
            wins,
            untied,
            sign_test_p(wins, untied),
            median(&diff),
            lo,
            hi
        );
    }
    println!("(~: median over seeds; wins: seeds where INSTA-Place's TNS is closer to zero, of the seeds that differ)");
}

/// Fig. 9: runtime breakdown of one timing-update iteration on the
/// largest placement instance.
fn fig9() {
    println!("=== Fig. 9: timing-update breakdown on superblue10 ===");
    let spec = superblue_specs()
        .into_iter()
        .find(|s| s.name == "superblue10")
        .expect("largest instance");
    let mut design = spec.build();
    println!("instance: {} cells, {} pins", design.cells().len(), design.pins().len());
    let db = PlacementDb::random(&design, UTILIZATION, spec.seed);
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");

    // Net-weighting baseline refresh ([19]'s role), then INSTA-Place's.
    let mut refresh = |mode| {
        let mut obs = Recorder::new();
        refresh_timing(&mut design, &db, &mut sta, mode, &InstaConfig::default(), &mut obs);
        obs
    };
    let (nw, ip) = (refresh(TimingMode::NetWeighting), refresh(TimingMode::InstaPlace));
    let ms = |obs: &Recorder, name| obs.sum(name).secs() * 1e3;
    println!(
        "net-weighting refresh: wires {:6.1} ms + reference timer {:6.1} ms + criticality (in-timer) = {:6.1} ms total",
        ms(&nw, "placer.wires"),
        ms(&nw, "placer.refsta"),
        ms(&nw, "placer.refresh")
    );
    println!(
        "INSTA-Place refresh  : wires {:6.1} ms + reference timer {:6.1} ms + transfer {:6.1} ms + INSTA grads {:6.1} ms = {:6.1} ms total",
        ms(&ip, "placer.wires"),
        ms(&ip, "placer.refsta"),
        ms(&ip, "placer.transfer"),
        ms(&ip, "placer.gradient"),
        ms(&ip, "placer.refresh")
    );
    println!(
        "overhead of the gradient path over net weighting: {:+.0}%",
        100.0 * (ms(&ip, "placer.refresh") / ms(&nw, "placer.refresh") - 1.0)
    );
    println!();
}

/// Extensions beyond the paper's tables: power recovery (the flow App 1
/// serves) and gradient-guided buffering (the paper's stated future work).
fn extensions() {
    use insta_netlist::generator::{generate_design, GeneratorConfig};
    use insta_sizer::{insta_buffer, power_recover};

    println!("=== Extensions: power recovery + INSTA-Buffer ===");
    // Power recovery on an oversized, relaxed design.
    let mut gen = GeneratorConfig::medium("ext_power", 61);
    gen.clock_period_ps = 1600.0;
    gen.drive_choices = vec![4];
    let mut d = generate_design(&gen);
    let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
    sta.full_update(&d);
    let p = power_recover(&mut d, &mut sta);
    println!(
        "power recovery ({} cells): leakage {:.0} -> {:.0} ({:.0}% recovered), {} downsizing commits on {} cells, vio {} -> {}, {:.2} s",
        d.cells().len(),
        p.leakage_before,
        p.leakage_after,
        100.0 * p.recovery_frac(),
        p.cells_downsized,
        p.timing.cells_sized,
        p.timing.violations_before,
        p.timing.violations_after,
        p.timing.trace.sum("size.run").secs()
    );
    print_moves(&p.timing.trace);
    let power = obj([
        ("extension", "power_recovery".to_string().to_json()),
        ("cells", d.cells().len().to_json()),
        ("leakage_before", p.leakage_before.to_json()),
        ("leakage_after", p.leakage_after.to_json()),
        ("commits", p.cells_downsized.to_json()),
        ("cells_sized", p.timing.cells_sized.to_json()),
        ("violations_before", p.timing.violations_before.to_json()),
        ("violations_after", p.timing.violations_after.to_json()),
    ]);

    // Buffering on a wire-dominated design.
    let mut gen = GeneratorConfig::medium("ext_buf", 63);
    gen.mean_wire_um = 90.0;
    gen.clock_period_ps = 1500.0;
    let mut d = generate_design(&gen);
    let b = insta_buffer(&mut d);
    println!(
        "INSTA-Buffer: TNS {:.0} -> {:.0} ps, WNS {:.0} -> {:.0} ps, {} buffers, {:.2} s",
        b.tns_before_ps, b.tns_after_ps, b.wns_before_ps, b.wns_after_ps, b.buffers_added,
        b.trace.sum("buffer.run").secs()
    );
    let buffer = obj([
        ("extension", "insta_buffer".to_string().to_json()),
        ("tns_before_ps", b.tns_before_ps.to_json()),
        ("tns_after_ps", b.tns_after_ps.to_json()),
        ("wns_before_ps", b.wns_before_ps.to_json()),
        ("wns_after_ps", b.wns_after_ps.to_json()),
        ("buffers_added", b.buffers_added.to_json()),
    ]);
    write_outcome("extensions", &[power, buffer]);
    println!();
}

/// Heap-based alternative to the fixed-size sorted list: a min-heap over
/// order-preserving arrival bits plus a per-startpoint best map with lazy
/// deletion.
struct HeapTopK {
    k: usize,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    best: HashMap<u32, u64>,
}

impl HeapTopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(2 * k),
            best: HashMap::with_capacity(2 * k),
        }
    }

    fn push(&mut self, arrival: f64, sp: u32) {
        // Non-negative arrivals: the bit pattern orders like the value.
        let a = arrival.to_bits();
        match self.best.get(&sp) {
            Some(&cur) if a <= cur => return,
            _ => {}
        }
        self.best.insert(sp, a);
        self.heap.push(Reverse((a, sp)));
        while self.live_len() > self.k {
            let Some(Reverse((a, sp))) = self.heap.pop() else {
                break;
            };
            if self.best.get(&sp) == Some(&a) {
                self.best.remove(&sp);
            }
        }
    }

    /// Number of live entries, dropping stale heads so `pop` removes a
    /// live minimum next.
    fn live_len(&mut self) -> usize {
        while let Some(&Reverse((a, sp))) = self.heap.peek() {
            if self.best.get(&sp) == Some(&a) {
                break;
            }
            self.heap.pop();
        }
        self.best.len()
    }

    fn top(&self) -> Option<f64> {
        self.best.values().copied().max().map(f64::from_bits)
    }
}

/// The two ablations, timed on the in-tree harness (a summary table each).
///
/// §III-E: the paper's fixed-size sorted list versus a heap-backed priority
/// queue for Top-K unique-startpoint maintenance — the flat O(K²) list also
/// wins on CPUs for the small K the algorithm uses, because the heap needs
/// an auxiliary startpoint index plus lazy-deletion housekeeping.
///
/// §III-F: the differentiable (LSE) forward pass versus the evaluation
/// (hard-max Top-K) pass on block-5, and the LSE cost across temperatures.
fn ablation() {
    println!("=== Ablations: Top-K queue (SIII-E), LSE temperature (SIII-F) ===");
    let mut rng = Rng::seed_from_u64(5);
    let cands: Vec<(f64, u32)> = (0..4096)
        .map(|_| (rng.gen_range(0.0f64..1000.0), rng.gen_range(0u32..96)))
        .collect();
    let mut h = Harness::new("ablation_topk_queue");
    for k in [8usize, 32, 128] {
        h.bench(format!("fixed_list/k={k}"), || {
            let mut q = TopKQueue::new(k);
            for &(a, sp) in &cands {
                q.push(Candidate {
                    arrival: a,
                    mean: a,
                    sigma: 0.0,
                    sp,
                });
            }
            black_box(q.top().map(|c| c.arrival))
        });
        h.bench(format!("binary_heap/k={k}"), || {
            let mut q = HeapTopK::new(k);
            for &(a, sp) in &cands {
                q.push(a, sp);
            }
            black_box(q.top())
        });
    }
    h.finish();

    let design = block_specs()[4].build(); // block-5
    let mut golden = RefSta::new(&design, StaConfig::default()).expect("build");
    golden.full_update(&design);
    let init = golden.export_insta_init();
    let mut h = Harness::new("ablation_lse");
    let mut engine = InstaEngine::new(init.clone(), InstaConfig::default()).expect("valid snapshot");
    h.bench("hard_max_topk32", || {
        engine.propagate();
        black_box(engine.report().wns_ps)
    });
    for tau in [0.01f64, 1.0, 10.0] {
        let cfg = InstaConfig {
            lse_tau: tau,
            ..InstaConfig::default()
        };
        let mut engine = InstaEngine::new(init.clone(), cfg).expect("valid snapshot");
        engine.propagate();
        h.bench(format!("lse_forward/tau={tau}"), || engine.forward_lse());
    }
    h.finish();
    println!();
}

const SUBCOMMANDS: [&str; 10] = [
    "all", "fig6", "table1", "fig7", "fig8", "table2", "table3", "fig9", "extensions", "ablation",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "check") {
        let mut tables: Vec<&str> = args[1..].iter().map(String::as_str).collect();
        if let Some(unknown) = tables.iter().find(|t| !CHECKED.contains(t)) {
            let checked = CHECKED.join(" ");
            eprintln!("repro check: `{unknown}` has no checked outcome; checked: {checked}");
            std::process::exit(2);
        }
        if tables.is_empty() {
            tables = CHECKED.to_vec();
        }
        std::process::exit(if check(&tables) { 0 } else { 1 });
    }
    // `--seeds N`: Table III's placement seeds per (instance, mode).
    let mut seeds = 2;
    if let Some(i) = args.iter().position(|a| a == "--seeds") {
        match args
            .get(i + 1)
            .and_then(|n| n.parse::<u64>().ok())
            .filter(|&n| n > 0)
        {
            Some(n) => seeds = n,
            None => {
                eprintln!("repro: --seeds takes a positive seed count");
                std::process::exit(2);
            }
        }
        args.drain(i..i + 2);
    }
    if let Some(unknown) = args.iter().find(|a| !SUBCOMMANDS.contains(&a.as_str())) {
        eprintln!(
            "repro: unknown subcommand `{unknown}`; known: {} (or `check [table...]`)",
            SUBCOMMANDS.join(" ")
        );
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| run_all || args.iter().any(|a| a == name);
    if want("fig6") {
        fig6();
    }
    if want("table1") {
        table1();
    }
    if want("fig7") || args.iter().any(|a| a == "fig8") {
        fig7();
    }
    if want("table2") {
        table2();
    }
    if want("table3") {
        table3(seeds);
    }
    if want("fig9") {
        fig9();
    }
    if want("extensions") {
        extensions();
    }
    // Named only: `all` is the paper's tables and figures.
    if args.iter().any(|a| a == "ablation") {
        ablation();
    }
}
