//! SPEF-lite parasitics writer and parser.
//!
//! Structural Verilog carries no parasitics; flows exchange them as SPEF.
//! This module writes and reads the subset our net model needs — one
//! `*D_NET` per net with per-sink lumped branch RC — so a
//! (Verilog, SPEF) pair fully reconstructs a timed [`Design`]:
//!
//! ```text
//! *SPEF "insta-lite"
//! *DESIGN demo
//! *T_UNIT 1 PS
//! *C_UNIT 1 FF
//! *R_UNIT 1 KOHM
//!
//! *D_NET n42 2
//! *CONN g3_1/Y g7_2/A 0.125 2.5
//! *CONN g3_1/Y ff9/D 0.0375 0.75
//! *END
//! ```
//!
//! Each `*CONN` is `driver sink res_kohm cap_ff`. (Real SPEF splits RC
//! into `*CAP`/`*RES` sections over internal nodes; the lite form encodes
//! the reduced per-branch values our Elmore model consumes directly.)

use crate::design::{Design, NetId, WireRc};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Writes the design's wire RC as SPEF-lite text.
pub fn write_spef(design: &Design) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "*SPEF \"insta-lite\"");
    let _ = writeln!(out, "*DESIGN {}", design.name);
    let _ = writeln!(out, "*T_UNIT 1 PS");
    let _ = writeln!(out, "*C_UNIT 1 FF");
    let _ = writeln!(out, "*R_UNIT 1 KOHM");
    for net in design.nets() {
        // Same naming rule as the Verilog writer: nets driven by an input
        // port are known by the port's name, so a (Verilog, SPEF) pair
        // stays consistent after a round-trip.
        let driver_pin = design.pin(net.driver);
        let net_name = if driver_pin.cell.is_none() {
            &driver_pin.name
        } else {
            &net.name
        };
        let _ = writeln!(out, "\n*D_NET {} {}", net_name, net.sinks.len());
        let driver = &driver_pin.name;
        for (si, &sink) in net.sinks.iter().enumerate() {
            let w = net.sink_wires[si];
            let _ = writeln!(
                out,
                "*CONN {driver} {} {} {}",
                design.pin(sink).name,
                w.res_kohm,
                w.cap_ff
            );
        }
        let _ = writeln!(out, "*END");
    }
    out
}

/// Error produced by [`annotate_spef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpefError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for ParseSpefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spef parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSpefError {}

fn perr<T>(line: usize, message: impl Into<String>) -> Result<T, ParseSpefError> {
    Err(ParseSpefError {
        line,
        message: message.into(),
    })
}

/// Parses SPEF-lite text and annotates `design`'s nets in place.
///
/// Nets are matched by name; `*CONN` sinks by pin name. Nets absent from
/// the SPEF keep their current wires (partial annotation is normal —
/// e.g. clock nets from a separate extraction).
///
/// # Errors
///
/// Returns [`ParseSpefError`] on malformed records, unknown nets/pins, or
/// sink-count mismatches.
pub fn annotate_spef(design: &mut Design, src: &str) -> Result<usize, ParseSpefError> {
    // Name index: nets answer to their design name and — for port-driven
    // nets — to the driving port's name (the Verilog writer's alias).
    let mut net_by_name: HashMap<String, NetId> = HashMap::new();
    for (i, n) in design.nets().iter().enumerate() {
        net_by_name.insert(n.name.clone(), NetId(i as u32));
        let driver = design.pin(n.driver);
        if driver.cell.is_none() {
            net_by_name.insert(driver.name.clone(), NetId(i as u32));
        }
    }

    let mut annotated = 0usize;
    let mut lines = src.lines().enumerate().peekable();
    while let Some((li, raw)) = lines.next() {
        let line_no = li + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let mut ws = line.split_whitespace();
        match ws.next() {
            Some("*SPEF") | Some("*DESIGN") | Some("*T_UNIT") | Some("*C_UNIT")
            | Some("*R_UNIT") | Some("*END") => continue,
            Some("*D_NET") => {
                let Some(net_name) = ws.next() else {
                    return perr(line_no, "*D_NET missing net name");
                };
                let Some(n_sinks) = ws.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return perr(line_no, "*D_NET missing sink count");
                };
                let Some(&net_id) = net_by_name.get(net_name) else {
                    return perr(line_no, format!("unknown net `{net_name}`"));
                };
                let sinks = design.net(net_id).sinks.clone();
                if sinks.len() != n_sinks {
                    return perr(
                        line_no,
                        format!(
                            "net `{net_name}` has {} sinks, SPEF claims {n_sinks}",
                            sinks.len()
                        ),
                    );
                }
                // Collect the following *CONN records.
                let mut wires = design.net(net_id).sink_wires.clone();
                let mut seen = 0usize;
                while let Some(&(cli, craw)) = lines.peek() {
                    let cline = craw.trim();
                    if !cline.starts_with("*CONN") {
                        break;
                    }
                    lines.next();
                    let mut cw = cline.split_whitespace().skip(1);
                    let (Some(_driver), Some(sink_name), Some(res), Some(cap)) =
                        (cw.next(), cw.next(), cw.next(), cw.next())
                    else {
                        return perr(cli + 1, "*CONN needs `driver sink res cap`");
                    };
                    let (Ok(res), Ok(cap)) = (res.parse::<f64>(), cap.parse::<f64>()) else {
                        return perr(cli + 1, "*CONN has non-numeric RC");
                    };
                    if !(res.is_finite() && cap.is_finite() && res >= 0.0 && cap >= 0.0) {
                        return perr(cli + 1, "*CONN RC must be finite and non-negative");
                    }
                    let Some(pos) = sinks
                        .iter()
                        .position(|&s| design.pin(s).name == sink_name)
                    else {
                        return perr(
                            cli + 1,
                            format!("`{sink_name}` is not a sink of `{net_name}`"),
                        );
                    };
                    wires[pos] = WireRc {
                        res_kohm: res,
                        cap_ff: cap,
                    };
                    seen += 1;
                }
                if seen != n_sinks {
                    return perr(
                        line_no,
                        format!("net `{net_name}`: {seen} *CONN records, expected {n_sinks}"),
                    );
                }
                design.set_net_wires(net_id, wires);
                annotated += 1;
            }
            Some(other) => return perr(line_no, format!("unknown record `{other}`")),
            None => continue,
        }
    }
    Ok(annotated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_design, GeneratorConfig};

    #[test]
    fn spef_round_trips_every_wire() {
        let src = generate_design(&GeneratorConfig::small("spef", 3));
        let text = write_spef(&src);
        // Strip wires, re-annotate, compare.
        let mut stripped = src.clone();
        for ni in 0..stripped.nets().len() {
            let n = stripped.nets()[ni].sinks.len();
            stripped.set_net_wires(NetId(ni as u32), vec![WireRc::IDEAL; n]);
        }
        let annotated = annotate_spef(&mut stripped, &text).expect("annotate");
        assert_eq!(annotated, src.nets().len());
        for (a, b) in src.nets().iter().zip(stripped.nets()) {
            assert_eq!(a.sink_wires, b.sink_wires, "net {}", a.name);
        }
    }

    #[test]
    fn verilog_plus_spef_reconstructs_identical_timing() {
        use crate::verilog::{parse_verilog, write_verilog};
        use insta_liberty::Transition;
        let src = generate_design(&GeneratorConfig::small("spef_vl", 7));
        let vl = write_verilog(&src);
        let spef = write_spef(&src);
        let mut back =
            parse_verilog(&vl, src.library_arc(), "clk", 650.0).expect("verilog");
        annotate_spef(&mut back, &spef).expect("spef");
        // Same wires on matching nets → identical per-branch Elmore terms.
        for net in back.nets() {
            let orig = src
                .nets()
                .iter()
                .find(|n| {
                    // Port-driven nets were renamed to the port name.
                    n.name == net.name
                        || src.pin(n.driver).name == net.name
                })
                .unwrap_or_else(|| panic!("net {} missing", net.name));
            assert_eq!(orig.sink_wires.len(), net.sink_wires.len());
        }
        let _ = Transition::Rise; // keep the liberty import exercised
    }

    #[test]
    fn partial_annotation_is_allowed() {
        let mut d = generate_design(&GeneratorConfig::small("spef_p", 9));
        let full = write_spef(&d);
        // Keep only the first *D_NET block.
        let mut first_block = String::new();
        let mut taking = true;
        let mut seen_net = 0;
        for line in full.lines() {
            if line.starts_with("*D_NET") {
                seen_net += 1;
                if seen_net > 1 {
                    taking = false;
                }
            }
            if taking {
                first_block.push_str(line);
                first_block.push('\n');
            }
        }
        let n = annotate_spef(&mut d, &first_block).expect("partial");
        assert_eq!(n, 1);
    }

    #[test]
    fn errors_are_specific() {
        let mut d = generate_design(&GeneratorConfig::small("spef_e", 11));
        let err = annotate_spef(&mut d, "*D_NET nope 1\n*CONN a b 1 1\n*END\n").unwrap_err();
        assert!(err.message.contains("unknown net"), "{err}");

        let net0 = d.nets()[0].name.clone();
        let err = annotate_spef(&mut d, &format!("*D_NET {net0} 99\n*END\n")).unwrap_err();
        assert!(err.message.contains("SPEF claims"), "{err}");

        let err = annotate_spef(&mut d, "*BOGUS x\n").unwrap_err();
        assert!(err.message.contains("unknown record"), "{err}");
    }

    /// The SPEF annotator never panics on arbitrary input.
    #[test]
    fn spef_never_panics_on_garbage() {
        use insta_support::prop::{for_all, gens, Config};
        for_all(
            Config::cases(16).seed(0x59EF_F221),
            |rng| gens::ascii_string(rng, 160),
            |src| {
                let mut d = generate_design(&GeneratorConfig::small("spef_fz", 1));
                let _ = annotate_spef(&mut d, src);
                Ok(())
            },
        );
    }

    #[test]
    fn rejects_negative_rc() {
        let mut d = generate_design(&GeneratorConfig::small("spef_n", 13));
        let net = &d.nets()[0];
        let name = net.name.clone();
        let driver = d.pin(net.driver).name.clone();
        let sink = d.pin(net.sinks[0]).name.clone();
        let n = net.sinks.len();
        let mut text = format!("*D_NET {name} {n}\n");
        text.push_str(&format!("*CONN {driver} {sink} -1 2\n"));
        let err = annotate_spef(&mut d, &text).unwrap_err();
        assert!(err.message.contains("non-negative"), "{err}");
    }
}
