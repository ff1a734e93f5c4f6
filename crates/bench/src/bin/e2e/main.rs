//! `e2e`: the repository's one benchmark — the named workloads, seven
//! end-to-end metrics, and a traced run that splits each op by layer.
//! See `README.md` beside this file for the tables and how to run it.

mod eco;
mod full;
mod probe;
mod rep;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;
mod whatif;

use rep::{RepArgs, RepOut};
use spec::Workload;
use std::process::ExitCode;

const USAGE: &str = "\
usage: e2e --all [--seed S] [--seconds T] [--trace]          every workload, interleaved repetitions
       e2e --workload W [--seed S] [--seconds T] [--trace 0|1]  one workload (benchmark driver form)
       e2e --check-repeat [--seed S]                          two suites back to back must agree
       e2e --selftest [--seed S]                              a planted 10% slowdown must be flagged
       e2e --smoke                                            tiny design, two ops per workload
--seconds T (default 16) is T/3.2 repetitions of fixed op counts, about 3.2 s of timed ops each";

#[derive(Debug, Default)]
struct Cli {
    all: bool,
    workload: Option<String>,
    child: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    check_repeat: bool,
    selftest: bool,
    smoke: bool,
    // Child-only.
    rep: u32,
    warmup: usize,
    ops: usize,
    slow_us: f64,
    tiny: bool,
    out: Option<String>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = argv.iter().peekable();
    fn value<'a, T: std::str::FromStr>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<T, String> {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => cli.all = true,
            "--workload" => cli.workload = Some(value("--workload", &mut it)?),
            "--child" => cli.child = Some(value("--child", &mut it)?),
            "--seed" => cli.seed = Some(value("--seed", &mut it)?),
            "--seconds" => cli.seconds = Some(value("--seconds", &mut it)?),
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--traced" => cli.trace = true,
            "--check-repeat" => cli.check_repeat = true,
            "--selftest" => cli.selftest = true,
            "--smoke" => cli.smoke = true,
            "--tiny" => cli.tiny = true,
            "--rep" => cli.rep = value("--rep", &mut it)?,
            "--warmup" => cli.warmup = value("--warmup", &mut it)?,
            "--ops" => cli.ops = value("--ops", &mut it)?,
            "--slow-us" => cli.slow_us = value("--slow-us", &mut it)?,
            "--out" => cli.out = Some(value("--out", &mut it)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.seed == Some(0) {
        return Err("--seed starts at 1 (seed 1 is exactly the Table-I blocks)".to_owned());
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 3600.0)) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(cli)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; the workloads are {known:?}")
    })
}

/// The internal child mode: one repetition, result written to `--out`.
fn run_child(cli: &Cli, name: &str) -> Result<(), String> {
    let args = RepArgs {
        workload: workload_named(name)?,
        seed: cli.seed.unwrap_or(1),
        rep: cli.rep,
        trace: cli.trace,
        warmup: cli.warmup,
        ops: cli.ops,
        tiny: cli.tiny,
        slow_us: cli.slow_us,
        scratch: probe::scratch_root(),
    };
    let out = rep::run_rep(&args);
    let path = cli.out.as_ref().ok_or("--child needs --out")?;
    std::fs::write(path, out.to_json().to_string()).map_err(|e| format!("writing {path}: {e}"))
}

/// `--smoke`: a tiny design through every workload with two ops
/// each, traced, in this process. Returns the results for inspection.
fn smoke() -> Vec<RepOut> {
    Workload::ALL
        .iter()
        .map(|&w| {
            rep::run_rep(&RepArgs {
                warmup: 1,
                ops: 2,
                tiny: true,
                ..RepArgs::new(w, 1, 0, true)
            })
        })
        .collect()
}

fn run(cli: &Cli) -> Result<bool, String> {
    if let Some(name) = &cli.child {
        return run_child(cli, name).map(|()| true);
    }
    let seed = cli.seed.unwrap_or(1);
    let reps = suite::reps_for(cli.seconds.unwrap_or(spec::RUN_SECONDS));
    if cli.smoke {
        let mut ok = true;
        for out in smoke() {
            println!(
                "{}: {} ops, failed {}/{}, {} layer values",
                out.workload,
                out.op_ms.len(),
                out.failed,
                out.attempted,
                out.layers.len()
            );
            for why in &out.failures {
                println!("  FAILED: {why}");
            }
            ok &= out.failed == 0;
        }
        return Ok(ok);
    }
    if cli.selftest {
        suite::check_cores(&[Workload::Eco], false)?;
        println!("{}", suite::header("selftest", seed));
        return suite::selftest(seed);
    }
    let workloads: Vec<Workload> = match &cli.workload {
        Some(name) => vec![workload_named(name)?],
        None if cli.all || cli.check_repeat => Workload::ALL.to_vec(),
        None => return Err(USAGE.to_owned()),
    };
    suite::check_cores(&workloads, cli.trace)?;
    if cli.check_repeat {
        println!("{}", suite::header("check-repeat", seed));
        return suite::check_repeat(&workloads, seed, reps);
    }
    println!(
        "{}",
        suite::header(if cli.trace { "traced" } else { "run" }, seed)
    );
    let reports = suite::run_plan(&suite::plan(&workloads, seed, reps, cli.trace))?;
    for (&key, report) in &reports {
        suite::print_report(Workload::ALL[key], report);
    }
    // The last line is the result object: of the one workload in the
    // benchmark driver's form, of all of them grouped by name otherwise.
    match (&cli.workload, reports.values().next()) {
        (Some(_), Some(report)) => println!("{}", suite::driver_line(report, cli.trace)),
        _ => println!("{}", suite::all_line(&reports)),
    }
    Ok(reports.values().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&argv).and_then(|cli| run(&cli));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: an op, a request or an output check failed");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("e2e: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_support::json::{parse, Json};
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// The objects of one list of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<Json> {
        parse(BENCHMARK_JSON)
            .expect("BENCHMARK.json parses")
            .field(section)
            .and_then(|s| s.as_arr().map(<[Json]>::to_vec))
            .expect("the section is a list")
    }

    fn text(item: &Json, key: &str) -> String {
        item.get::<String>(key).expect("a string field")
    }

    fn names(section: &str) -> BTreeSet<String> {
        declared(section).iter().map(|m| text(m, "name")).collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// One pass of the smoke run, shared by the tests below (it is the
    /// expensive part: four tiny set-ups).
    fn smoke_once() -> &'static [RepOut] {
        static RUN: std::sync::OnceLock<Vec<RepOut>> = std::sync::OnceLock::new();
        RUN.get_or_init(smoke)
    }

    #[test]
    fn smoke_passes_every_output_check_on_a_tiny_design() {
        for out in smoke_once() {
            assert_eq!(out.failed, 0, "{}: {:?}", out.workload, out.failures);
            assert_eq!(out.op_ms.len(), 2, "{}", out.workload);
            assert!(out.attempted >= 2 && out.setup_s > 0.0 && out.result_hash != 0);
            assert!(
                std::path::Path::new(&out.trace_file).exists(),
                "{}",
                out.trace_file
            );
        }
    }

    #[test]
    fn emitted_names_equal_the_names_benchmark_json_declares() {
        // The file repeats spec.rs: workloads, metrics, units, bounds.
        let file = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = file
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        assert_eq!(file.get::<f64>("run_seconds"), Ok(spec::RUN_SECONDS));
        let workloads: Vec<(String, String)> = declared("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_owned(), w.why().to_owned()))
            .collect();
        assert_eq!(workloads, expected);
        for w in Workload::ALL {
            assert!(well_formed(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
        }
        let e2e: Vec<(String, String, String, f64)> = declared("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get::<f64>("bound").expect("a bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = spec::E2E
            .iter()
            .filter(|m| m.driver_e2e)
            .map(|m| {
                let better = m.better.name().to_owned();
                (m.name.to_owned(), m.unit.to_owned(), better, m.bound)
            })
            .collect();
        assert_eq!(e2e, expected);
        let layers: Vec<(String, String, String)> = declared("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = spec::driver_per_layer()
            .iter()
            .map(|(name, unit, better)| {
                let better = better.name().to_owned();
                ((*name).to_owned(), (*unit).to_owned(), better)
            })
            .collect();
        assert_eq!(layers, expected);

        // What a driver run prints, untraced and traced, for every
        // workload: exactly the declared sets.
        for (w, out) in Workload::ALL.iter().zip(smoke_once()) {
            let report = suite::report(*w, std::slice::from_ref(out), std::slice::from_ref(out));
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let line = parse(&suite::driver_line(&report, trace)).expect("one JSON object");
                let keys: Vec<&str> = line
                    .as_obj()
                    .expect("object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let printed: BTreeSet<String> = line
                    .field("metrics")
                    .and_then(|m| m.as_obj())
                    .expect("metrics")
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                assert_eq!(printed, names(section), "{} {section}", w.name());
            }
            // Every layer metric declared for the workload got a value
            // from the traced repetition (none silently defaulted).
            for m in spec::LAYERS.iter().filter(|m| m.on.contains(&w.run_as())) {
                let computed_by_parent = m.name.ends_with("_tail_ms")
                    || m.name.ends_with("_tail_us")
                    || m.name == "process.trace_overhead_frac";
                assert!(
                    computed_by_parent || out.layer(m.name).is_some(),
                    "{} gave no {}",
                    w.name(),
                    m.name
                );
            }
        }

        // The limits the driver puts on names, units and bounds.
        for m in spec::E2E.iter().filter(|m| m.driver_e2e) {
            assert!(well_formed(m.name) && m.bound > 0.0 && m.bound <= 0.25);
        }
        let per_layer = spec::driver_per_layer();
        assert!(per_layer.len() <= 128);
        for (name, unit, _) in &per_layer {
            assert!(well_formed(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        let all: Vec<&str> = per_layer
            .iter()
            .map(|l| l.0)
            .chain(spec::E2E.iter().map(|m| m.name))
            .collect();
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            spec::LAYERS.len() + spec::E2E.len()
        );
        assert!(names("end_to_end").contains("setup_s"));
    }

    #[test]
    fn cli_reads_both_forms_of_trace() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let driver = parse_cli(&argv(
            "--workload eco_block5_k8 --seed 7 --seconds 10 --trace 0",
        ))
        .expect("driver form");
        assert!(!driver.trace && driver.seed == Some(7) && driver.seconds == Some(10.0));
        assert!(parse_cli(&argv("--workload x --trace 1")).expect("1").trace);
        assert!(parse_cli(&argv("--all --trace")).expect("bare").trace);
        assert!(
            parse_cli(&argv("--all --trace --seed 2"))
                .expect("bare, then a flag")
                .trace
        );
        assert!(parse_cli(&argv("--seed 0")).is_err());
        assert!(parse_cli(&argv("--frobnicate")).is_err());
        assert!(workload_named("full_block1_k32").is_ok() && workload_named("nope").is_err());
    }

    #[test]
    fn rep_results_round_trip_through_json() {
        let out = &smoke_once()[3];
        let back = RepOut::from_json(&parse(&out.to_json().to_string()).expect("parses"))
            .expect("decodes");
        assert_eq!(&back, out);
    }
}
