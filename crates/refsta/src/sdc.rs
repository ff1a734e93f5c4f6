//! SDC-lite constraint parsing.
//!
//! Industrial flows feed timers Synopsys Design Constraints; the paper's
//! initialization explicitly carries "timing exceptions (e.g., multi-cycle
//! and false paths)" extracted from them. This module parses the subset a
//! graph-based engine consumes and applies it to a [`RefSta`]:
//!
//! ```text
//! create_clock -name core -period 800 [get_ports clk]
//! set_input_delay 25 [all_inputs]
//! set_false_path -from [get_pins ff3/Q] -to [get_pins ff9/D]
//! set_multicycle_path 2 -from ff1 -to ff12
//! ```
//!
//! `-from` accepts a startpoint (flop instance, flop `/Q` pin, or input
//! port); `-to` an endpoint (flop instance, flop `/D` pin, or output
//! port). Bracketed object queries (`[get_ports x]`, `[get_pins y]`,
//! `[all_inputs]`) are accepted and reduced to their argument.

use crate::exceptions::{EpId, SpId};
use crate::sta::RefSta;
use insta_netlist::Design;

/// Error produced by [`apply_sdc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSdcError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for ParseSdcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sdc parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSdcError {}

fn serr<T>(line: usize, message: impl Into<String>) -> Result<T, ParseSdcError> {
    Err(ParseSdcError {
        line,
        message: message.into(),
    })
}

/// Splits one SDC line into words, flattening `[get_* x]` / `[all_inputs]`
/// queries to their (last) argument.
fn words(line: &str) -> Vec<String> {
    line.replace(['[', ']'], " ")
        .split_whitespace()
        .filter(|w| {
            !matches!(
                *w,
                "get_ports" | "get_pins" | "get_cells" | "get_clocks" | "all_inputs"
                    | "all_outputs"
            )
        })
        .map(str::to_string)
        .collect()
}

/// Resolves a `-from` object to a startpoint id.
fn resolve_sp(sta: &RefSta, design: &Design, name: &str) -> Option<SpId> {
    for (i, info) in sta.sp_infos().iter().enumerate() {
        let pin_name = &design.pin(info.pin).name;
        let inst = info.flop.map(|c| design.cell(c).name.as_str());
        if pin_name == name || inst == Some(name) {
            return Some(SpId(i as u32));
        }
    }
    None
}

/// Resolves a `-to` object to an endpoint id.
fn resolve_ep(sta: &RefSta, design: &Design, name: &str) -> Option<EpId> {
    for (i, info) in sta.ep_infos().iter().enumerate() {
        let pin_name = &design.pin(info.pin).name;
        let inst = info.capture.map(|c| design.cell(c).name.as_str());
        if pin_name == name || inst == Some(name) {
            return Some(EpId(i as u32));
        }
    }
    None
}

/// Finds the value following a flag such as `-from`.
fn flag_value<'a>(ws: &'a [String], flag: &str) -> Option<&'a str> {
    ws.iter()
        .position(|w| w == flag)
        .and_then(|i| ws.get(i + 1))
        .map(String::as_str)
}

/// Parses SDC text and applies it to the engine's configuration.
///
/// Supported: `create_clock` (period override; the port must be the
/// design's clock source), `set_input_delay`, `set_false_path`,
/// `set_multicycle_path`. Comment lines (`#`) and blank lines are skipped;
/// unknown commands are an error (silent constraint loss is how real chips
/// die).
///
/// Changes take effect on the next [`RefSta::full_update`].
///
/// # Errors
///
/// Returns [`ParseSdcError`] on unknown commands, unresolvable objects, or
/// malformed values.
pub fn apply_sdc(sta: &mut RefSta, design: &Design, src: &str) -> Result<(), ParseSdcError> {
    for (li, raw) in src.lines().enumerate() {
        let line_no = li + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let ws = words(line);
        let Some(command) = ws.first() else {
            return serr(line_no, "a line of bare queries names no command");
        };
        match command.as_str() {
            "create_clock" => {
                let period = flag_value(&ws, "-period")
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|p| p.is_finite() && *p > 0.0);
                let Some(period) = period else {
                    return serr(line_no, "create_clock needs a finite, positive -period");
                };
                // The clock object is the last bare word (after query
                // flattening); verify it names the design's clock source.
                if let Some(port) = ws.last() {
                    let src_name = design
                        .clock()
                        .map(|c| design.pin(c.source).name.clone());
                    if !port.starts_with('-')
                        && ws.len() > 3
                        && src_name.as_deref() != Some(port.as_str())
                        && flag_value(&ws, "-name") != Some(port.as_str())
                    {
                        return serr(
                            line_no,
                            format!("create_clock targets unknown clock port `{port}`"),
                        );
                    }
                }
                sta.config_mut().period_override_ps = Some(period);
            }
            "set_input_delay" => {
                let value = ws.get(1).and_then(|v| v.parse::<f64>().ok());
                let Some(value) = value.filter(|v| v.is_finite()) else {
                    return serr(line_no, "set_input_delay needs a finite numeric value");
                };
                sta.config_mut().input_delay_ps = value;
            }
            "set_false_path" => {
                let (sp, ep) = from_to(sta, design, &ws, line_no)?;
                sta.exceptions_mut().add_false_path(sp, ep);
            }
            "set_multicycle_path" => {
                let Some(n) = ws.get(1).and_then(|v| v.parse::<u32>().ok()).filter(|n| *n >= 1)
                else {
                    return serr(line_no, "set_multicycle_path needs a positive cycle count");
                };
                let (sp, ep) = from_to(sta, design, &ws, line_no)?;
                sta.exceptions_mut().add_multicycle(sp, ep, n);
            }
            other => return serr(line_no, format!("unsupported command `{other}`")),
        }
    }
    Ok(())
}

fn from_to(
    sta: &RefSta,
    design: &Design,
    ws: &[String],
    line_no: usize,
) -> Result<(SpId, EpId), ParseSdcError> {
    let Some(from) = flag_value(ws, "-from") else {
        return serr(line_no, "missing -from");
    };
    let Some(to) = flag_value(ws, "-to") else {
        return serr(line_no, "missing -to");
    };
    let Some(sp) = resolve_sp(sta, design, from) else {
        return serr(line_no, format!("`{from}` is not a startpoint"));
    };
    let Some(ep) = resolve_ep(sta, design, to) else {
        return serr(line_no, format!("`{to}` is not an endpoint"));
    };
    Ok((sp, ep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::StaConfig;
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    fn setup() -> (Design, RefSta) {
        let d = generate_design(&GeneratorConfig::small("sdc", 3));
        let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
        sta.full_update(&d);
        (d, sta)
    }

    #[test]
    fn false_path_via_sdc_matches_programmatic_exception() {
        let (d, mut sta) = setup();
        let worst = sta
            .report()
            .endpoints
            .iter()
            .min_by(|a, b| a.slack_ps.total_cmp(&b.slack_ps))
            .copied()
            .expect("endpoints");
        let sp_name = d.pin(sta.sp_infos()[worst.worst_sp.unwrap().index()].pin).name.clone();
        let ep_name = d.pin(sta.ep_infos()[worst.ep.index()].pin).name.clone();
        let sdc = format!(
            "# generated\nset_false_path -from [get_pins {sp_name}] -to [get_pins {ep_name}]\n"
        );
        apply_sdc(&mut sta, &d, &sdc).expect("apply");
        let after = sta.full_update(&d);
        assert_ne!(
            after.endpoints[worst.ep.index()].worst_sp,
            worst.worst_sp,
            "false path must remove the worst startpoint"
        );
    }

    #[test]
    fn multicycle_and_instance_names_resolve() {
        let (d, mut sta) = setup();
        let sp_info = sta
            .sp_infos()
            .iter()
            .find(|i| i.flop.is_some())
            .copied()
            .expect("flop sp");
        let ep_info = sta
            .ep_infos()
            .iter()
            .find(|i| i.capture.is_some())
            .copied()
            .expect("flop ep");
        let sp_inst = d.cell(sp_info.flop.unwrap()).name.clone();
        let ep_inst = d.cell(ep_info.capture.unwrap()).name.clone();
        let sdc = format!("set_multicycle_path 2 -from {sp_inst} -to {ep_inst}\n");
        apply_sdc(&mut sta, &d, &sdc).expect("apply");
        assert_eq!(sta.config().exceptions.num_multicycle(), 1);
    }

    /// A line holding only query words is a typed error.
    #[test]
    fn a_line_of_bare_queries_is_an_error() {
        let (d, mut sta) = setup();
        let e = apply_sdc(&mut sta, &d, "[all_inputs]\n").expect_err("no command");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn create_clock_overrides_period() {
        let (d, mut sta) = setup();
        let before = sta.full_update(&d);
        apply_sdc(&mut sta, &d, "create_clock -name core -period 10000 [get_ports clk]\n")
            .expect("apply");
        let after = sta.full_update(&d);
        assert!(
            after.wns_ps > before.wns_ps + 5000.0,
            "period override must relax slack: {} -> {}",
            before.wns_ps,
            after.wns_ps
        );
    }

    #[test]
    fn set_input_delay_shifts_pi_paths() {
        let (d, mut sta) = setup();
        sta.full_update(&d);
        // Find an endpoint whose worst path starts at a primary input.
        apply_sdc(&mut sta, &d, "set_input_delay 200 [all_inputs]\n").expect("apply");
        let after = sta.full_update(&d);
        assert_eq!(sta.config().input_delay_ps, 200.0);
        // Some endpoint must now see a PI-launched worst path with the
        // extra delay (weak check: the report changed consistently).
        assert!(after.endpoints.iter().all(|e| e.slack_ps.is_finite() || e.slack_ps == f64::INFINITY));
    }

    /// The SDC front end never panics on arbitrary input — it returns
    /// structured, line-located errors.
    #[test]
    fn sdc_never_panics_on_garbage() {
        use insta_support::prop::{for_all, gens, Config};
        for_all(
            Config::cases(16).seed(0x5DC_F221),
            |rng| gens::ascii_string(rng, 160),
            |src| {
                let d = generate_design(&GeneratorConfig::small("sdc_fz", 1));
                let mut sta = RefSta::new(&d, StaConfig::default()).expect("build");
                sta.full_update(&d);
                let _ = apply_sdc(&mut sta, &d, src);
                Ok(())
            },
        );
    }

    #[test]
    fn errors_are_located_and_specific() {
        let (d, mut sta) = setup();
        let err = apply_sdc(&mut sta, &d, "\n\nbogus_command 1\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unsupported command"));

        let err = apply_sdc(&mut sta, &d, "set_false_path -from nope -to out0\n").unwrap_err();
        assert!(err.message.contains("not a startpoint"), "{err}");

        let err = apply_sdc(&mut sta, &d, "create_clock -period -5 clk\n").unwrap_err();
        assert!(err.message.contains("positive -period"), "{err}");
    }
}
