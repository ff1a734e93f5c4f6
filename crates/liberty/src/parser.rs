//! Liberty text-format subset parser.
//!
//! Parses the structural Liberty grammar — nested `group (args) { ... }`
//! blocks with `attribute : value;` simple attributes and
//! `attribute (values);` complex attributes — into a generic AST, then
//! interprets the AST into a [`Library`]. The subset covers what commercial
//! NLDM libraries need for STA: cells, pins (direction, capacitance, clock,
//! max cap), timing groups (related pin, timing type/sense, POCV sigma,
//! `cell_rise`/`cell_fall`/`rise_transition`/`fall_transition` tables).
//!
//! Line continuations (`\` at end of line) and both comment styles
//! (`/* */`, `//`) are handled by the tokenizer.

use crate::cell::{
    ArcKind, GateClass, LibArc, LibCell, LibPin, LibPinId, Library, PinDirection, TimingSense,
};
use crate::table::NldmTable;

/// Error produced while parsing Liberty text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLibertyError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for ParseLibertyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "liberty parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLibertyError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseLibertyError> {
    Err(ParseLibertyError {
        line,
        message: message.into(),
    })
}

// ------------------------------------------------------------------
// Tokenizer
// ------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Colon,
    Semi,
    Comma,
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn tokenize(src: &str) -> Result<Vec<SpannedTok>, ParseLibertyError> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '\\' => i += 1, // line continuation
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i < bytes.len() && !(bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/')) {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return err(line, "unterminated block comment");
                }
                i += 2;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '"' => {
                let start_line = line;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return err(start_line, "unterminated string literal");
                    }
                    match bytes[i] {
                        b'"' => break,
                        b'\\' if bytes.get(i + 1) == Some(&b'\n') => {
                            line += 1;
                            i += 2;
                        }
                        b'\n' => {
                            line += 1;
                            s.push('\n');
                            i += 1;
                        }
                        b => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                i += 1;
                toks.push(SpannedTok {
                    tok: Tok::Str(s),
                    line: start_line,
                });
            }
            '(' => {
                toks.push(SpannedTok { tok: Tok::LParen, line });
                i += 1;
            }
            ')' => {
                toks.push(SpannedTok { tok: Tok::RParen, line });
                i += 1;
            }
            '{' => {
                toks.push(SpannedTok { tok: Tok::LBrace, line });
                i += 1;
            }
            '}' => {
                toks.push(SpannedTok { tok: Tok::RBrace, line });
                i += 1;
            }
            ':' => {
                toks.push(SpannedTok { tok: Tok::Colon, line });
                i += 1;
            }
            ';' => {
                toks.push(SpannedTok { tok: Tok::Semi, line });
                i += 1;
            }
            ',' => {
                toks.push(SpannedTok { tok: Tok::Comma, line });
                i += 1;
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '.' || b == '+' || b == '-' {
                        // Allow exponent signs only right after e/E.
                        if (b == '+' || b == '-')
                            && !matches!(bytes[i - 1], b'e' | b'E')
                        {
                            break;
                        }
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                match text.parse::<f64>() {
                    Ok(v) if v.is_finite() => toks.push(SpannedTok { tok: Tok::Num(v), line }),
                    _ => return err(line, format!("invalid number `{text}`")),
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' || b == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push(SpannedTok {
                    tok: Tok::Ident(src[start..i].to_string()),
                    line,
                });
            }
            other => return err(line, format!("unexpected character `{other}`")),
        }
    }
    Ok(toks)
}

// ------------------------------------------------------------------
// Generic AST
// ------------------------------------------------------------------

/// A simple-attribute value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Ident(String),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Ident(s) => Some(s),
            Value::Num(_) => None,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Group {
    name: String,
    args: Vec<String>,
    line: usize,
    attrs: Vec<(String, Value)>,
    /// Complex attributes: `name (v1, v2, ...);`
    complex: Vec<(String, Vec<Value>)>,
    groups: Vec<Group>,
}

impl Group {
    fn attr(&self, name: &str) -> Option<&Value> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Simple attribute `name` as a number: `None` when it is absent or
    /// does not read as one, an error when it reads as a non-finite one.
    fn num(&self, name: &str) -> Result<Option<f64>, ParseLibertyError> {
        let v = match self.attr(name) {
            Some(Value::Num(v)) => Some(*v),
            Some(Value::Str(s) | Value::Ident(s)) => s.parse::<f64>().ok(),
            None => None,
        };
        match v {
            Some(v) if !v.is_finite() => err(self.line, format!("`{name}` is not finite")),
            v => Ok(v),
        }
    }

    fn subgroups<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Group> {
        self.groups.iter().filter(move |g| g.name == name)
    }

    fn subgroup(&self, name: &str) -> Option<&Group> {
        self.groups.iter().find(|g| g.name == name)
    }
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseLibertyError> {
        let line = self.line();
        match self.next() {
            Some(t) if t == want => Ok(()),
            other => err(line, format!("expected {want:?}, found {other:?}")),
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseLibertyError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Str(s)) => Ok(Value::Str(s)),
            Some(Tok::Num(v)) => Ok(Value::Num(v)),
            Some(Tok::Ident(s)) => Ok(Value::Ident(s)),
            other => err(line, format!("expected value, found {other:?}")),
        }
    }

    /// Parses a statement inside a group body. Returns `None` at `}`.
    fn parse_group(&mut self, name: String, line: usize) -> Result<Group, ParseLibertyError> {
        let mut group = Group {
            name,
            line,
            ..Group::default()
        };
        // Parse optional argument list.
        self.expect(Tok::LParen)?;
        loop {
            match self.peek() {
                Some(Tok::RParen) => {
                    self.next();
                    break;
                }
                Some(Tok::Comma) => {
                    self.next();
                }
                _ => {
                    let v = self.parse_value()?;
                    group.args.push(match v {
                        Value::Str(s) | Value::Ident(s) => s,
                        Value::Num(n) => format!("{n}"),
                    });
                }
            }
        }
        self.expect(Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next() {
                Some(Tok::RBrace) => break,
                Some(Tok::Semi) => continue,
                Some(Tok::Ident(id)) => match self.peek() {
                    Some(Tok::Colon) => {
                        self.next();
                        let v = self.parse_value()?;
                        // Attribute terminator `;` is optional in the wild.
                        if self.peek() == Some(&Tok::Semi) {
                            self.next();
                        }
                        group.attrs.push((id, v));
                    }
                    Some(Tok::LParen) => {
                        // Either a nested group or a complex attribute;
                        // decide by what follows the closing paren.
                        let save = self.pos;
                        self.next(); // consume (
                        let mut vals = Vec::new();
                        let mut ok = true;
                        loop {
                            match self.peek() {
                                Some(Tok::RParen) => {
                                    self.next();
                                    break;
                                }
                                Some(Tok::Comma) => {
                                    self.next();
                                }
                                Some(_) => match self.parse_value() {
                                    Ok(v) => vals.push(v),
                                    Err(_) => {
                                        ok = false;
                                        break;
                                    }
                                },
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if ok && self.peek() != Some(&Tok::LBrace) {
                            if self.peek() == Some(&Tok::Semi) {
                                self.next();
                            }
                            group.complex.push((id, vals));
                        } else {
                            // Nested group: rewind and parse recursively.
                            self.pos = save;
                            let sub = self.parse_group(id, line)?;
                            group.groups.push(sub);
                        }
                    }
                    other => {
                        return err(line, format!("expected `:` or `(` after `{id}`, found {other:?}"))
                    }
                },
                other => return err(line, format!("unexpected token {other:?} in group body")),
            }
        }
        Ok(group)
    }
}

// ------------------------------------------------------------------
// Interpretation
// ------------------------------------------------------------------

fn parse_num_list(line: usize, s: &str) -> Result<Vec<f64>, ParseLibertyError> {
    s.split([',', ' '])
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            match t.trim().parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => err(line, format!("invalid number `{t}` in list")),
            }
        })
        .collect()
}

fn interpret_table(g: &Group) -> Result<NldmTable, ParseLibertyError> {
    let index_1 = g
        .complex
        .iter()
        .find(|(n, _)| n == "index_1")
        .and_then(|(_, v)| v.first())
        .and_then(|v| v.as_str().map(str::to_string));
    let index_2 = g
        .complex
        .iter()
        .find(|(n, _)| n == "index_2")
        .and_then(|(_, v)| v.first())
        .and_then(|v| v.as_str().map(str::to_string));
    let values: Vec<String> = g
        .complex
        .iter()
        .find(|(n, _)| n == "values")
        .map(|(_, v)| {
            v.iter()
                .filter_map(|x| x.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if values.is_empty() {
        return err(g.line, format!("table group `{}` has no values", g.name));
    }
    let mut flat = Vec::new();
    for row in &values {
        flat.extend(parse_num_list(g.line, row)?);
    }
    let idx1 = match index_1 {
        Some(s) => parse_num_list(g.line, &s)?,
        None => vec![0.0],
    };
    let idx2 = match index_2 {
        Some(s) => parse_num_list(g.line, &s)?,
        None => vec![0.0],
    };
    NldmTable::new(idx1, idx2, flat).map_err(|e| ParseLibertyError {
        line: g.line,
        message: format!("bad table `{}`: {e}", g.name),
    })
}

fn interpret_timing(
    g: &Group,
    cell_name: &str,
    pins: &[LibPin],
    to: LibPinId,
) -> Result<LibArc, ParseLibertyError> {
    let related = g
        .attr("related_pin")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ParseLibertyError {
            line: g.line,
            message: format!("timing group in `{cell_name}` missing related_pin"),
        })?;
    let from = pins
        .iter()
        .position(|p| p.name == related)
        .map(|i| LibPinId(i as u32))
        .ok_or_else(|| ParseLibertyError {
            line: g.line,
            message: format!("related_pin `{related}` not found in `{cell_name}`"),
        })?;
    let kind = match g.attr("timing_type").and_then(|v| v.as_str()) {
        None | Some("combinational") => ArcKind::Combinational,
        Some("rising_edge") | Some("falling_edge") => ArcKind::Launch,
        Some("setup_rising") | Some("setup_falling") => ArcKind::Setup,
        Some("hold_rising") | Some("hold_falling") => ArcKind::Hold,
        Some(other) => {
            return err(g.line, format!("unsupported timing_type `{other}`"));
        }
    };
    let sense = match g.attr("timing_sense").and_then(|v| v.as_str()) {
        Some("positive_unate") | None => TimingSense::PositiveUnate,
        Some("negative_unate") => TimingSense::NegativeUnate,
        Some("non_unate") => TimingSense::NonUnate,
        Some(other) => return err(g.line, format!("unsupported timing_sense `{other}`")),
    };
    let sigma_coeff = g.num("pocv_sigma_coeff")?.unwrap_or(0.0);

    let get_table = |name: &str| -> Result<NldmTable, ParseLibertyError> {
        match g.subgroup(name) {
            Some(t) => interpret_table(t),
            None => Ok(NldmTable::constant(0.0)),
        }
    };
    // Check arcs use rise/fall constraint tables; launch/comb arcs use
    // cell_rise/cell_fall. Both are stored in the same fields.
    let (delay_rise, delay_fall) = match kind {
        ArcKind::Setup | ArcKind::Hold => (
            g.subgroup("rise_constraint")
                .map(interpret_table)
                .unwrap_or_else(|| get_table("cell_rise"))?,
            g.subgroup("fall_constraint")
                .map(interpret_table)
                .unwrap_or_else(|| get_table("cell_fall"))?,
        ),
        _ => (get_table("cell_rise")?, get_table("cell_fall")?),
    };
    Ok(LibArc {
        from,
        to,
        kind,
        sense,
        delay_rise,
        delay_fall,
        trans_rise: get_table("rise_transition")?,
        trans_fall: get_table("fall_transition")?,
        sigma_coeff,
    })
}

fn interpret_cell(g: &Group) -> Result<LibCell, ParseLibertyError> {
    let name = g
        .args
        .first()
        .cloned()
        .ok_or_else(|| ParseLibertyError {
            line: g.line,
            message: "cell group missing name argument".to_string(),
        })?;
    let mut pins = Vec::new();
    // First pass: pins, so timing groups can resolve related_pin ids.
    for pg in g.subgroups("pin") {
        let pname = pg.args.first().cloned().ok_or_else(|| ParseLibertyError {
            line: pg.line,
            message: format!("pin group in `{name}` missing name"),
        })?;
        let direction = match pg.attr("direction").and_then(|v| v.as_str()) {
            Some("input") => PinDirection::Input,
            Some("output") => PinDirection::Output,
            other => {
                return err(
                    pg.line,
                    format!("pin `{pname}` in `{name}` has unsupported direction {other:?}"),
                )
            }
        };
        pins.push(LibPin {
            name: pname,
            direction,
            cap_ff: pg.num("capacitance")?.unwrap_or(0.0),
            max_cap_ff: pg.num("max_capacitance")?.unwrap_or(f64::INFINITY),
            is_clock: pg
                .attr("clock")
                .and_then(|v| v.as_str())
                .map(|s| s == "true")
                .unwrap_or(false),
        });
    }
    let mut arcs = Vec::new();
    for (pi, pg) in g.subgroups("pin").enumerate() {
        for tg in pg.subgroups("timing") {
            arcs.push(interpret_timing(tg, &name, &pins, LibPinId(pi as u32))?);
        }
    }
    let class = g
        .attr("gate_class")
        .and_then(|v| v.as_str())
        .and_then(GateClass::from_short_name)
        .or_else(|| {
            name.split('_')
                .next()
                .and_then(GateClass::from_short_name)
        })
        .ok_or_else(|| ParseLibertyError {
            line: g.line,
            message: format!("cannot infer gate class for cell `{name}`"),
        })?;
    let drive = g
        .num("drive_strength")?
        .map(|v| v as u32)
        .or_else(|| {
            name.rsplit_once('X')
                .and_then(|(_, d)| d.parse().ok())
        })
        .unwrap_or(1);
    Ok(LibCell::new(
        name,
        class,
        drive,
        g.num("cell_leakage_power")?.unwrap_or(0.0),
        g.num("area")?.unwrap_or(1.0),
        pins,
        arcs,
    ))
}

/// Parses Liberty text into a [`Library`].
///
/// # Errors
///
/// Returns [`ParseLibertyError`] with a line number on lexical errors,
/// structural errors (unbalanced groups), or semantic errors (missing
/// `related_pin`, malformed tables).
///
/// # Examples
///
/// ```
/// let text = r#"
/// library (tiny) {
///   cell (INV_X1) {
///     area : 2.0;
///     pin (A) { direction : input; capacitance : 0.8; }
///     pin (Y) {
///       direction : output;
///       timing () {
///         related_pin : "A";
///         timing_sense : negative_unate;
///         cell_rise (lut) { values ("5.0"); }
///         cell_fall (lut) { values ("4.5"); }
///       }
///     }
///   }
/// }
/// "#;
/// let lib = insta_liberty::parse_library(text)?;
/// assert_eq!(lib.len(), 1);
/// # Ok::<(), insta_liberty::ParseLibertyError>(())
/// ```
pub fn parse_library(src: &str) -> Result<Library, ParseLibertyError> {
    let toks = tokenize(src)?;
    let mut parser = Parser { toks, pos: 0 };
    let line = parser.line();
    let root = match parser.next() {
        Some(Tok::Ident(id)) if id == "library" => parser.parse_group(id, line)?,
        other => return err(line, format!("expected `library`, found {other:?}")),
    };
    let mut lib = Library::new(root.args.first().cloned().unwrap_or_default());
    for cg in root.subgroups("cell") {
        let cell = interpret_cell(cg)?;
        if lib.cell_id(&cell.name).is_some() {
            return err(cg.line, format!("duplicate cell `{}`", cell.name));
        }
        lib.add_cell(cell);
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synth_library, SynthLibraryConfig};
    use crate::writer::write_library;
    use crate::Transition;

    /// A cell defined twice is a typed error, not the library's panic.
    #[test]
    fn a_duplicate_cell_is_an_error() {
        let lib = synth_library(&SynthLibraryConfig::default());
        let text = write_library(&lib);
        let first = text.find("  cell (").expect("a cell");
        let second = first + 1 + text[first + 1..].find("  cell (").expect("two cells");
        let twice = format!("{}{}", &text[..second], &text[first..]);
        let e = parse_library(&twice).expect_err("duplicate");
        assert!(e.message.contains("duplicate cell"), "{e}");
    }

    #[test]
    fn round_trips_synth_library() {
        let lib = synth_library(&SynthLibraryConfig::default());
        let text = write_library(&lib);
        let back = parse_library(&text).expect("parse");
        assert_eq!(back.name, lib.name);
        assert_eq!(back.len(), lib.len());
        for (a, b) in lib.cells().iter().zip(back.cells()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.class, b.class);
            assert_eq!(a.drive, b.drive);
            assert_eq!(a.pins(), b.pins());
            assert_eq!(a.arcs().len(), b.arcs().len());
            // The writer groups arcs under their destination pin, so the
            // parsed order may differ; compare after sorting by identity.
            let key = |x: &LibArc| (x.to, x.from, x.kind as u8);
            let mut arcs_a: Vec<&LibArc> = a.arcs().iter().collect();
            let mut arcs_b: Vec<&LibArc> = b.arcs().iter().collect();
            arcs_a.sort_by_key(|x| key(x));
            arcs_b.sort_by_key(|x| key(x));
            for (aa, ba) in arcs_a.iter().zip(&arcs_b) {
                assert_eq!(aa.kind, ba.kind);
                assert_eq!(aa.sense, ba.sense);
                assert_eq!(aa.from, ba.from);
                assert_eq!(aa.to, ba.to);
                let d_a = aa.delay(Transition::Rise).lookup(10.0, 4.0);
                let d_b = ba.delay(Transition::Rise).lookup(10.0, 4.0);
                assert!((d_a - d_b).abs() < 1e-9, "{}: {d_a} vs {d_b}", a.name);
            }
        }
    }

    #[test]
    fn reports_line_on_bad_token() {
        let src = "library (x) {\n  cell (A) {\n    @bogus\n  }\n}";
        let e = parse_library(src).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn missing_related_pin_is_an_error() {
        let src = r#"
library (x) {
  cell (INV_X1) {
    pin (A) { direction : input; }
    pin (Y) {
      direction : output;
      timing () { cell_rise (lut) { values ("1.0"); } }
    }
  }
}"#;
        let e = parse_library(src).unwrap_err();
        assert!(e.message.contains("related_pin"), "{e}");
    }

    #[test]
    fn handles_comments_and_continuations() {
        let src = "library (x) { /* block\ncomment */ // line comment\n  cell (BUF_X1) {\n    pin (A) { direction : input; capacitance : 1.0; }\n    pin (Y) { direction : output;\n      timing () { related_pin : \"A\";\n        cell_rise (lut) { values ( \\\n          \"3.0\" ); }\n      }\n    }\n  }\n}";
        let lib = parse_library(src).expect("parse");
        let cell = lib.cell_by_name("BUF_X1").expect("cell");
        assert_eq!(cell.arcs().len(), 1);
        assert_eq!(cell.arcs()[0].delay(Transition::Rise).lookup(0.0, 0.0), 3.0);
    }

    #[test]
    fn unbalanced_group_is_an_error() {
        let src = "library (x) { cell (A) { ";
        assert!(parse_library(src).is_err());
    }

    /// The parser must never panic on arbitrary input — only return
    /// structured errors.
    #[test]
    fn parser_never_panics_on_garbage() {
        use insta_support::prop::{for_all, gens, Config};
        for_all(
            Config::cases(64).seed(0x11B_FA21),
            |rng| gens::ascii_string(rng, 200),
            |s| {
                let _ = parse_library(s);
                Ok(())
            },
        );
    }

    /// Fragments of valid Liberty truncated at arbitrary points also
    /// must not panic.
    #[test]
    fn parser_never_panics_on_truncated_valid_input() {
        use insta_support::prop::{for_all, Config};
        for_all(
            Config::cases(64).seed(0x11B_FA22),
            |rng| rng.gen_range(0usize..4000),
            |&cut| {
                let lib = synth_library(&SynthLibraryConfig::default());
                let text = write_library(&lib);
                let cut = cut.min(text.len());
                // Cut at a char boundary.
                let mut c = cut;
                while !text.is_char_boundary(c) {
                    c -= 1;
                }
                let _ = parse_library(&text[..c]);
                Ok(())
            },
        );
    }

    #[test]
    fn infers_class_and_drive_from_name() {
        let src = r#"
library (x) {
  cell (NAND2_X4) {
    pin (A) { direction : input; }
    pin (B) { direction : input; }
    pin (Y) { direction : output; }
  }
}"#;
        let lib = parse_library(src).expect("parse");
        let c = lib.cell_by_name("NAND2_X4").expect("cell");
        assert_eq!(c.class, GateClass::Nand2);
        assert_eq!(c.drive, 4);
    }
}
