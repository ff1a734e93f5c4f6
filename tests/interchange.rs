//! Cross-crate integration tests for the interchange front ends: the full
//! (Verilog, SPEF, SDC, snapshot) loop a downstream flow would run.

use insta_sta::engine::{InstaConfig, InstaEngine, MismatchStats};
use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::netlist::spef::{annotate_spef, write_spef};
use insta_sta::netlist::verilog::{parse_verilog, write_verilog};
use insta_sta::refsta::export::{load_init, save_init};
use insta_sta::refsta::sdc::apply_sdc;
use insta_sta::refsta::{RefSta, StaConfig};

/// Verilog + SPEF reconstruct a design whose reference timing matches the
/// original *exactly*, endpoint for endpoint.
#[test]
fn verilog_spef_round_trip_is_timing_exact() {
    let mut cfg = GeneratorConfig::medium("ix", 51);
    cfg.clock_period_ps = 520.0;
    let original = generate_design(&cfg);
    let vl = write_verilog(&original);
    let spef = write_spef(&original);

    let mut rebuilt = parse_verilog(&vl, original.library_arc(), "clk", 520.0)
        .expect("verilog parses");
    let annotated = annotate_spef(&mut rebuilt, &spef).expect("spef annotates");
    assert_eq!(annotated, rebuilt.nets().len(), "every net annotated");

    let mut sta_a = RefSta::new(&original, StaConfig::default()).expect("build a");
    let mut sta_b = RefSta::new(&rebuilt, StaConfig::default()).expect("build b");
    let ra = sta_a.full_update(&original);
    let rb = sta_b.full_update(&rebuilt);
    assert_eq!(ra.endpoints.len(), rb.endpoints.len());
    // Endpoint identity can be permuted by parsing order; compare sorted
    // slack vectors (they must be identical multisets) and the design
    // metrics exactly.
    let mut sa: Vec<f64> = ra.endpoints.iter().map(|e| e.slack_ps).collect();
    let mut sb: Vec<f64> = rb.endpoints.iter().map(|e| e.slack_ps).collect();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    for (a, b) in sa.iter().zip(&sb) {
        assert!(
            (a - b).abs() < 1e-9 || (!a.is_finite() && !b.is_finite()),
            "slack mismatch {a} vs {b}"
        );
    }
    assert!((ra.wns_ps - rb.wns_ps).abs() < 1e-9);
    assert!((ra.tns_ps - rb.tns_ps).abs() < 1e-9);
}

/// The INSTA snapshot written from a rebuilt (Verilog+SPEF) design drives
/// an engine that matches the original design's reference slacks.
#[test]
fn snapshot_from_rebuilt_design_matches_original_reference() {
    let mut cfg = GeneratorConfig::small("ix2", 53);
    cfg.clock_period_ps = 300.0;
    let original = generate_design(&cfg);
    let vl = write_verilog(&original);
    let spef = write_spef(&original);
    let mut rebuilt =
        parse_verilog(&vl, original.library_arc(), "clk", 300.0).expect("verilog");
    annotate_spef(&mut rebuilt, &spef).expect("spef");

    let mut sta = RefSta::new(&rebuilt, StaConfig::default()).expect("build");
    sta.full_update(&rebuilt);
    let path = std::env::temp_dir().join("insta_ix_snapshot.json");
    save_init(&sta.export_insta_init(), &path).expect("save");
    let mut engine = InstaEngine::new(load_init(&path).expect("load"), InstaConfig::default()).expect("valid snapshot");
    let report = engine.propagate().clone();
    std::fs::remove_file(&path).ok();

    // Reference view of the *original* design.
    let mut sta_orig = RefSta::new(&original, StaConfig::default()).expect("build");
    let orig = sta_orig.full_update(&original);
    let mut a: Vec<f64> = report.slacks.clone();
    let mut b: Vec<f64> = orig.endpoints.iter().map(|e| e.slack_ps).collect();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let finite: (Vec<f64>, Vec<f64>) = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .unzip();
    let stats = MismatchStats::compute(&finite.0, &finite.1);
    assert!(stats.worst_abs_ps < 1e-9, "snapshot chain drifted: {stats}");
}

/// Saving and reloading a snapshot is lossless: an engine built from the
/// reloaded init re-propagates to bit-identical endpoint slacks.
#[test]
fn snapshot_reload_repropagates_bit_identically() {
    let mut cfg = GeneratorConfig::medium("ix4", 61);
    cfg.clock_period_ps = 480.0;
    let design = generate_design(&cfg);
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let init = sta.export_insta_init();

    let path = std::env::temp_dir().join("insta_ix4_snapshot.json");
    save_init(&init, &path).expect("save");
    let reloaded = load_init(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let mut direct = InstaEngine::new(init, InstaConfig::default()).expect("valid snapshot");
    let mut via_disk = InstaEngine::new(reloaded, InstaConfig::default()).expect("valid snapshot");
    let ra = direct.propagate();
    let rb = via_disk.propagate();
    assert_eq!(ra.slacks.len(), rb.slacks.len());
    assert!(!ra.slacks.is_empty());
    for (i, (a, b)) in ra.slacks.iter().zip(&rb.slacks).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "endpoint {i}: {a} vs {b}");
    }
    assert_eq!(ra.wns_ps.to_bits(), rb.wns_ps.to_bits());
    assert_eq!(ra.tns_ps.to_bits(), rb.tns_ps.to_bits());
}

/// Malformed snapshots — valid JSON with the wrong shape, not just garbage
/// bytes — are reported as format errors rather than panicking or loading
/// a half-initialised engine.
#[test]
fn malformed_snapshots_report_format_errors() {
    use insta_sta::refsta::export::SnapshotError;
    let cases: &[(&str, &str)] = &[
        ("empty object", "{}"),
        ("wrong root type", "[1, 2, 3]"),
        ("field with wrong type", r#"{"period_ps": "fast"}"#),
        ("truncated document", r#"{"period_ps": 500.0, "#),
        ("trailing garbage", r#"{} {}"#),
    ];
    for (label, text) in cases {
        let path = std::env::temp_dir().join(format!(
            "insta_ix4_bad_{}.json",
            label.replace(' ', "_")
        ));
        std::fs::write(&path, text).expect("write");
        let err = load_init(&path).expect_err(label);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, SnapshotError::Format(_)),
            "{label}: expected Format error, got {err:?}"
        );
    }
    let missing = std::env::temp_dir().join("insta_ix4_definitely_missing.json");
    let err = load_init(&missing).expect_err("missing file");
    assert!(matches!(err, SnapshotError::Io(_)), "got {err:?}");
}

/// SDC constraints applied to a rebuilt design behave identically to the
/// same constraints on the original.
#[test]
fn sdc_is_stable_across_the_interchange() {
    let mut cfg = GeneratorConfig::small("ix3", 57);
    cfg.clock_period_ps = 300.0;
    let original = generate_design(&cfg);
    let vl = write_verilog(&original);
    let spef = write_spef(&original);
    let mut rebuilt =
        parse_verilog(&vl, original.library_arc(), "clk", 300.0).expect("verilog");
    annotate_spef(&mut rebuilt, &spef).expect("spef");

    let sdc = "create_clock -name core -period 5000 [get_ports clk]\nset_input_delay 100 [all_inputs]\n";
    let run = |design: &insta_sta::netlist::Design| -> (f64, f64) {
        let mut sta = RefSta::new(design, StaConfig::default()).expect("build");
        sta.full_update(design);
        apply_sdc(&mut sta, design, sdc).expect("sdc");
        let r = sta.full_update(design);
        (r.wns_ps, r.tns_ps)
    };
    let (wns_a, tns_a) = run(&original);
    let (wns_b, tns_b) = run(&rebuilt);
    assert!((wns_a - wns_b).abs() < 1e-9, "{wns_a} vs {wns_b}");
    assert!((tns_a - tns_b).abs() < 1e-9);
}

/// Byte ranges of the numeric tokens of `text`: runs of digits, points and
/// exponents that start a word and parse as a number.
fn numeric_tokens(text: &str) -> Vec<std::ops::Range<usize>> {
    let b = text.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() || (i > 0 && word(b[i - 1])) {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < b.len()
            && (b[j].is_ascii_digit()
                || matches!(b[j], b'.' | b'e' | b'E')
                || (matches!(b[j], b'+' | b'-') && matches!(b[j - 1], b'e' | b'E')))
        {
            j += 1;
        }
        if text[i..j].parse::<f64>().is_ok() {
            out.push(i..j);
        }
        i = j;
    }
    out
}

/// The interchange readers — `parse_verilog`, `annotate_spef`,
/// `parse_library` and `apply_sdc` — fed their writers' output (an SDC
/// text with clock, I/O-delay and exception commands) under damage: a
/// truncation, a flipped bit, or one numeric token swapped for a value
/// past a type's range, negative or non-finite. Every call returns a typed
/// error or a value; none panics.
#[test]
fn interchange_readers_never_panic_on_damaged_text() {
    use insta_sta::liberty::{parse_library, write_library, Library};
    use insta_sta::support::{Fault, FaultPlan, Rng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const SEED: u64 = 0x1_7E8C_4A6E;
    const FAULT_CASES: u64 = 50;
    const SWAP_CASES: u64 = 150;
    const SWAPS: [&str; 6] = [
        "99999999999999999999",
        "4294967296",
        "-1",
        "nan",
        "inf",
        "1e400",
    ];

    let mut cfg = GeneratorConfig::small("ix-fuzz", 61);
    cfg.n_flops = 6;
    cfg.logic_levels = 3;
    cfg.gates_per_level = 6;
    let design = generate_design(&cfg);
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let sp = sta
        .sp_infos()
        .iter()
        .find_map(|i| i.flop)
        .expect("a flop startpoint");
    let ep = sta
        .ep_infos()
        .iter()
        .find_map(|i| i.capture)
        .expect("a flop endpoint");
    let (sp, ep) = (&design.cell(sp).name, &design.cell(ep).name);
    let sdc = format!(
        "# constraints\ncreate_clock -name core -period 650 [get_ports clk]\n\
         set_input_delay 40.5 [all_inputs]\n\
         set_false_path -from {sp} -to {ep}\n\
         set_multicycle_path 2 -from [get_cells {sp}] -to [get_cells {ep}]\n"
    );
    apply_sdc(&mut sta, &design, &sdc).expect("the clean SDC applies");

    // Every ninth cell: the whole library's text is half a megabyte.
    let mut some_cells = Library::new("ix_fuzz");
    for cell in design.library().cells().iter().step_by(9) {
        some_cells.add_cell(cell.clone());
    }
    let texts = [
        ("verilog", write_verilog(&design)),
        ("spef", write_spef(&design)),
        ("liberty", write_library(&some_cells)),
        ("sdc", sdc),
    ];
    let mut read = |reader: &str, text: &str| -> bool {
        match reader {
            "verilog" => parse_verilog(text, design.library_arc(), "clk", 650.0).is_ok(),
            "spef" => annotate_spef(&mut design.clone(), text).is_ok(),
            "liberty" => parse_library(text).is_ok(),
            _ => apply_sdc(&mut sta, &design, text).is_ok(),
        }
    };
    let plan = FaultPlan::new(SEED);
    let mut rng = Rng::seed_from_u64(SEED);
    let (mut cases, mut rejected) = (0usize, 0usize);
    for (reader, clean) in &texts {
        assert!(read(reader, clean), "{reader}: the clean text reads");
        // Structural Verilog holds names only; the other texts numbers.
        let numbers = numeric_tokens(clean);
        assert_eq!(numbers.is_empty(), *reader == "verilog", "{reader}");
        let mut damaged: Vec<(String, String)> = Vec::new();
        for fault in [Fault::Truncate, Fault::BitFlip] {
            for case in 0..FAULT_CASES {
                let bytes = plan.corrupt_text(case, fault, clean);
                let text = String::from_utf8_lossy(&bytes).into_owned();
                damaged.push((format!("{fault:?} case {case}"), text));
            }
        }
        let swaps = if numbers.is_empty() { 0 } else { SWAP_CASES };
        for _ in 0..swaps {
            let at = numbers[rng.bounded_u64(numbers.len() as u64) as usize].clone();
            let swap = SWAPS[rng.bounded_u64(SWAPS.len() as u64) as usize];
            let what = format!("`{}` at byte {} -> {swap}", &clean[at.clone()], at.start);
            damaged.push((
                what,
                format!("{}{swap}{}", &clean[..at.start], &clean[at.end..]),
            ));
        }
        for (what, text) in damaged {
            let ok = catch_unwind(AssertUnwindSafe(|| read(reader, &text)))
                .unwrap_or_else(|_| panic!("{reader}: {what} panicked"));
            cases += 1;
            rejected += usize::from(!ok);
        }
    }
    assert!(
        rejected > 0 && rejected < cases,
        "{rejected} of {cases} rejected"
    );
}

/// A non-finite number — `nan`, `inf`, or a literal past `f64`'s range —
/// is a typed error in every interchange reader, not a value: the SDC
/// clock period and input delay, a SPEF `*CONN` resistance, and a Liberty
/// number token, quoted attribute and table entry.
#[test]
fn interchange_readers_refuse_non_finite_numbers() {
    use insta_sta::liberty::{parse_library, write_library, Library};

    let mut cfg = GeneratorConfig::small("ix-finite", 63);
    cfg.n_flops = 4;
    cfg.logic_levels = 2;
    cfg.gates_per_level = 4;
    let design = generate_design(&cfg);
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);

    // `text` with its first `from`, and the value after it up to `end`,
    // replaced by `from` + `value`.
    let swap = |text: &str, from: &str, end: char, value: &str| -> String {
        let at = text.find(from).expect("the field is written") + from.len();
        let len = text[at..].find(end).expect("the field ends");
        format!("{}{value}{}", &text[..at], &text[at + len..])
    };
    let sdc = "create_clock -name core -period 650 [get_ports clk]\nset_input_delay 40 [all_inputs]\n";
    for (what, bad) in [
        ("period", swap(sdc, "-period ", ' ', "inf")),
        ("input delay", swap(sdc, "set_input_delay ", ' ', "nan")),
    ] {
        assert!(apply_sdc(&mut sta, &design, sdc).is_ok(), "the clean SDC applies");
        assert!(apply_sdc(&mut sta, &design, &bad).is_err(), "SDC {what}: {bad}");
    }

    let spef = write_spef(&design);
    let conn = spef.find("*CONN").expect("a *CONN record");
    let mut fields: Vec<&str> = spef[conn..].lines().next().unwrap().split(' ').collect();
    fields[3] = "nan";
    let line_end = conn + spef[conn..].find('\n').unwrap();
    let bad = format!("{}{}{}", &spef[..conn], fields.join(" "), &spef[line_end..]);
    assert!(annotate_spef(&mut design.clone(), &spef).is_ok(), "the clean SPEF reads");
    assert!(annotate_spef(&mut design.clone(), &bad).is_err(), "SPEF res: nan");

    let mut some_cells = Library::new("ix_finite");
    for cell in design.library().cells().iter().step_by(9) {
        some_cells.add_cell(cell.clone());
    }
    let lib = write_library(&some_cells);
    assert!(parse_library(&lib).is_ok(), "the clean library reads");
    for (what, bad) in [
        ("number token", swap(&lib, "area : ", ';', "1e400")),
        ("quoted attribute", swap(&lib, "area : ", ';', "\"nan\"")),
        ("table entry", swap(&lib, "values ( \\\n", ',', "    \"nan")),
    ] {
        assert!(parse_library(&bad).is_err(), "Liberty {what}");
    }
}

/// A Liberty numeric attribute that is present but not a number, and a
/// `drive_strength` that is not a whole number in `1..=u32::MAX`, fail the
/// parse with a typed error instead of reading as a default or a wrapped
/// cast.
#[test]
fn liberty_numeric_attributes_that_do_not_read_are_refused() {
    use insta_sta::liberty::{parse_library, write_library, Library};

    let design = generate_design(&GeneratorConfig::small("ix-lib-num", 64));
    let mut one_cell = Library::new("ix_lib_num");
    one_cell.add_cell(design.library().cells()[0].clone());
    let lib = write_library(&one_cell);
    assert!(parse_library(&lib).is_ok(), "the clean library reads");
    let line = |field: &str| {
        let at = lib.find(field).expect("the field is written");
        at..at + lib[at..].find(';').expect("the field ends")
    };
    for (field, value, want) in [
        ("area : ", "\"abc\"", "`area` is not a number"),
        ("drive_strength : ", "-3", "`drive_strength`"),
        ("drive_strength : ", "1e12", "`drive_strength`"),
    ] {
        let mut bad = lib.clone();
        bad.replace_range(line(field), &format!("{field}{value}"));
        let e = parse_library(&bad).expect_err(value);
        assert!(e.message.contains(want), "{field}{value}: {e}");
    }
}
