//! The decoder suite: the JSON reader, the frame reader, the request
//! params decoder, the persist codecs and the WAL segment and checkpoint
//! loaders over generated and mutated input.
//!
//! * **JSON.** A generator writes documents — every `f64` class in several
//!   spellings, string escapes and non-ASCII text, nesting to the parser's
//!   depth limit and past it, whitespace between tokens — beside the tree
//!   each one spells. Mutations then truncate them, flip bytes, insert
//!   whitespace and number characters, and splice in digit runs that cross
//!   8-byte words or end at the last byte. The parser as it was before the
//!   one-pass number scan is kept below ([`oracle`]) as a frozen referee:
//!   wherever it accepts a document whose number literals all follow
//!   RFC 8259 and whose values are finite, today's parser returns the same
//!   tree on `to_bits`; every other input is a positioned `JsonError`,
//!   never a panic.
//! * **Frames.** `read_frame` over generated byte streams — valid frames,
//!   the byte-level `ProtocolFault` classes, odd length lines, cuts and
//!   flips, served in chunks of every size — returns a body or a typed
//!   `FrameError`, never panics, and neither returns a body nor asks for a
//!   read wider than `max_bytes`.
//! * **Request params.** A valid `params` object per op that defines
//!   params, under every `FaultPlan` fault — tree faults on the object,
//!   textual ones on its text — sent to a daemon: each reply is `ok` or a
//!   typed error the op may give, nothing panics, and the daemon answers
//!   `ping` afterwards.
//! * **Persist payloads.** `WriterOp` and `EngineDurableState` (the WAL's
//!   record and checkpoint bodies) over generated payloads of arbitrary
//!   float bits, cut at every byte, bit-flipped, and with a declared array
//!   length rewritten up to `u64::MAX`: every input decodes to a typed
//!   `PersistError` or to a value that re-encodes to the same bytes (but
//!   for a checkpoint's two reserved words, which are skipped on read and
//!   written as zero), a length past the bytes left in its block is
//!   `BadLength` (the guard ahead of the allocation), and nothing panics.
//! * **WAL segments and checkpoints.** `scan_segment` and `load_checkpoint`
//!   over a segment and a v4 checkpoint a real `Durability` wrote, cut at
//!   every byte, flipped at seeded positions (half of them with the CRC
//!   re-sealed, so the record and state decoders see the damage rather than
//!   the checksum), and with every record, delta-count, payload, state and
//!   array length set to 0, `MAX_RECORD_BYTES`, `MAX_RECORD_BYTES + 1` and
//!   `u32::MAX`. A scan returns every record that ends before the first
//!   changed byte as it was appended, reaches at least that far, and puts
//!   any damage at the end of its valid prefix; a checkpoint is a typed
//!   error or an image that restores into an engine of its design; a
//!   declared length the bytes cannot hold is refused by its guard — the
//!   record-length bound, the payload length, the persist `BadLength` —
//!   before anything is allocated for it; nothing panics.

use insta_engine::{EngineDurableState, InstaConfig, InstaEngine, PersistError, WriterOp};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{RefSta, StaConfig};
use insta_serve::protocol::{read_frame, FrameError};
use insta_serve::{Client, Op, ServeConfig, Server};
use insta_serve::wal::{
    list_checkpoints, list_segments, load_checkpoint, scan_segment, SegmentScan,
    WalRecord, MAX_RECORD_BYTES, SEGMENT_HEADER_LEN,
};
use insta_serve::{Durability, DurabilityConfig};
use insta_support::fault::{Fault, FaultPlan, ProtocolFault};
use insta_support::hash::crc32;
use insta_support::json::{obj, parse, Json, JsonError, ToJson};
use insta_support::prop::{for_all, Config, Shrink};
use insta_support::{prop_assert, Rng};
use std::io::{self, BufRead, Read};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// The parser's nesting limit (`MAX_DEPTH` in `support/src/json.rs`).
const MAX_DEPTH: usize = 128;

// ---- Comparisons ----------------------------------------------------------

/// Tree equality with numbers compared on their bits (`-0.0` ≠ `0.0`).
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

fn all_finite(v: &Json) -> bool {
    match v {
        Json::Num(x) => x.is_finite(),
        Json::Arr(xs) => xs.iter().all(all_finite),
        Json::Obj(pairs) => pairs.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// Whether `s` is one RFC 8259 `number`, read as the grammar's automaton:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn rfc_number(s: &str) -> bool {
    #[derive(Clone, Copy)]
    enum S {
        Start,
        Minus,
        Zero,
        Int,
        Dot,
        Frac,
        E,
        ESign,
        Exp,
    }
    let mut state = S::Start;
    for c in s.bytes() {
        state = match (state, c) {
            (S::Start, b'-') => S::Minus,
            (S::Start | S::Minus, b'0') => S::Zero,
            (S::Start | S::Minus, b'1'..=b'9') | (S::Int, b'0'..=b'9') => S::Int,
            (S::Zero | S::Int, b'.') => S::Dot,
            (S::Dot | S::Frac, b'0'..=b'9') => S::Frac,
            (S::Zero | S::Int | S::Frac, b'e' | b'E') => S::E,
            (S::E, b'+' | b'-') => S::ESign,
            (S::E | S::ESign | S::Exp, b'0'..=b'9') => S::Exp,
            _ => return false,
        };
    }
    matches!(state, S::Zero | S::Int | S::Frac | S::Exp)
}

/// Today's parser on `src`, a panic turned into a failure message.
fn parsed(src: &str) -> Result<Result<Json, JsonError>, String> {
    catch_unwind(|| parse(src)).map_err(|_| format!("parse panicked on {src:?}"))
}

// ---- Generated documents ------------------------------------------------

/// A generated document and the tree it spells (`None`: it nests past
/// the parser's limit and must be refused).
#[derive(Debug, Clone)]
struct Doc {
    text: String,
    value: Option<Json>,
}

impl Shrink for Doc {}

/// A finite `f64` of every class: signed zeros, subnormals, the extremes,
/// arbitrary bit patterns, integers, powers of ten, plain decimals.
fn any_finite(rng: &mut Rng) -> f64 {
    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
    let x = match rng.gen_range(0u32..9) {
        0 => 0.0 * sign,
        1 => f64::from_bits(rng.next_u64() & ((1 << 52) - 1)) * sign,
        2 => f64::MAX * sign,
        3 => f64::MIN_POSITIVE * sign,
        4 => f64::from_bits(rng.next_u64()),
        5 => rng.gen_range(0u64..2000) as f64 * sign,
        6 => 10f64.powi(rng.gen_range(0u32..617) as i32 - 308) * sign,
        _ => rng.gen_range(-2500.0..2500.0),
    };
    if x.is_finite() {
        x
    } else {
        any_finite(rng)
    }
}

/// A spelling of `x` that reads back as `x`: the writer's own `{:?}`, the
/// plain decimal with no exponent, or exponent forms (`e`/`E`, with and
/// without `+`). Every one is inside the RFC 8259 grammar.
fn spell(rng: &mut Rng, x: f64) -> String {
    match rng.gen_range(0u32..5) {
        0 => format!("{x:?}"),
        1 => format!("{x}"),
        2 => format!("{x:e}"),
        3 => format!("{x:E}"),
        _ => format!("{x:e}").replace("e", "e+").replace("e+-", "e-"),
    }
}

/// A string literal and the text it decodes to: escapes of every kind,
/// surrogate pairs, and raw non-ASCII text.
fn any_string(rng: &mut Rng) -> (String, String) {
    let (mut text, mut value) = (String::from("\""), String::new());
    for _ in 0..rng.gen_range(0usize..6) {
        let (t, v) = match rng.gen_range(0u32..15) {
            0 => ("\\\"", "\""),
            1 => ("\\\\", "\\"),
            2 => ("\\/", "/"),
            3 => ("\\b", "\u{8}"),
            4 => ("\\f", "\u{c}"),
            5 => ("\\n", "\n"),
            6 => ("\\r", "\r"),
            7 => ("\\t", "\t"),
            8 => ("\\u00e9", "é"),
            9 => ("\\u00E9", "é"),
            10 => ("\\ud83d\\ude00", "😀"),
            11 => ("\\u0000", "\0"),
            12 => ("é中😀", "é中😀"),
            13 => ("0123456789", "0123456789"),
            _ => ("slack", "slack"),
        };
        text.push_str(t);
        value.push_str(v);
    }
    text.push('"');
    (text, value)
}

fn any_ws(rng: &mut Rng, text: &mut String) {
    if rng.gen_bool(0.2) {
        for _ in 0..rng.gen_range(1usize..4) {
            text.push([' ', '\t', '\n', '\r'][rng.gen_range(0usize..4)]);
        }
    }
}

/// Appends one value and returns it; `budget` bounds the values left to
/// write, so a tree stays small (`nested` is what reaches the depth limit).
fn any_value(rng: &mut Rng, budget: &mut usize, text: &mut String) -> Json {
    any_ws(rng, text);
    *budget = budget.saturating_sub(1);
    let kind = if *budget == 0 { rng.gen_range(0u32..6) } else { rng.gen_range(0u32..10) };
    let v = match kind {
        0..=2 => {
            let x = any_finite(rng);
            text.push_str(&spell(rng, x));
            Json::Num(x)
        }
        3 => {
            let (t, v) = any_string(rng);
            text.push_str(&t);
            Json::Str(v)
        }
        4 => {
            let (t, v) = [
                ("null", Json::Null),
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
            ][rng.gen_range(0usize..3)]
            .clone();
            text.push_str(t);
            v
        }
        5 => {
            text.push_str("[]");
            Json::Arr(Vec::new())
        }
        6..=7 => {
            text.push('[');
            let n = rng.gen_range(1usize..5);
            let items = (0..n)
                .map(|i| {
                    if i > 0 {
                        text.push(',');
                    }
                    any_value(rng, budget, text)
                })
                .collect();
            text.push(']');
            Json::Arr(items)
        }
        _ => {
            text.push('{');
            let n = rng.gen_range(0usize..4);
            let pairs = (0..n)
                .map(|i| {
                    if i > 0 {
                        text.push(',');
                    }
                    any_ws(rng, text);
                    let (k, key) = any_string(rng);
                    text.push_str(&k);
                    any_ws(rng, text);
                    text.push(':');
                    (key, any_value(rng, budget, text))
                })
                .collect();
            text.push('}');
            Json::Obj(pairs)
        }
    };
    any_ws(rng, text);
    v
}

/// A chain of arrays nested `levels` deep around a small value, each
/// level with a number beside its inner array.
fn nested(rng: &mut Rng, levels: usize) -> Doc {
    let mut text = String::new();
    let mut budget = 1;
    let mut value = any_value(rng, &mut budget, &mut text);
    for _ in 0..levels {
        let x = any_finite(rng);
        text = format!("[{},{text}]", spell(rng, x));
        value = Json::Arr(vec![Json::Num(x), value]);
    }
    // The innermost value sits at depth `levels`.
    let value = (levels <= MAX_DEPTH).then_some(value);
    Doc { text, value }
}

fn any_doc(rng: &mut Rng) -> Doc {
    if rng.gen_bool(0.1) {
        let levels = rng.gen_range(MAX_DEPTH - 3..MAX_DEPTH + 4);
        return nested(rng, levels);
    }
    let mut text = String::new();
    let mut budget = rng.gen_range(1usize..40);
    let value = any_value(rng, &mut budget, &mut text);
    Doc {
        text,
        value: Some(value),
    }
}

// ---- Mutations ----------------------------------------------------------

fn digit_run(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| char::from(b'0' + rng.gen_range(0u32..10) as u8))
        .collect()
}

/// One to three damages to a document: a cut, a flipped byte, inserted
/// whitespace or number characters, or a digit run long enough to cross
/// 8-byte words, spliced in or left ending at the last byte.
fn mutate(rng: &mut Rng, doc: &str) -> String {
    let mut b = doc.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1u32..4) {
        let at = rng.gen_range(0..=b.len());
        match rng.gen_range(0u32..7) {
            0 => b.truncate(at),
            1 if !b.is_empty() => {
                let i = rng.gen_range(0..b.len());
                b[i] ^= 1 << rng.gen_range(0u32..8);
            }
            2 => b.insert(at, b" \t\n\r"[rng.gen_range(0usize..4)]),
            3 => b.insert(at, b"-+.eE0"[rng.gen_range(0usize..6)]),
            4 => {
                let len = rng.gen_range(1usize..25);
                b.splice(at..at, digit_run(rng, len).bytes());
            }
            _ => {
                // A number ends at the last byte: cut just after a digit,
                // or end the document with a fresh run.
                match b.iter().rposition(u8::is_ascii_digit) {
                    Some(i) if rng.gen_bool(0.5) => b.truncate(i + 1),
                    _ => {
                        let len = rng.gen_range(1usize..25);
                        b.extend(digit_run(rng, len).bytes());
                    }
                }
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

// ---- JSON properties ------------------------------------------------------

#[test]
fn generated_documents_parse_to_the_trees_they_spell() {
    for_all(Config::cases(1500), any_doc, |doc| {
        let (old, _) = oracle::parse(&doc.text);
        let new = parsed(&doc.text)?;
        match &doc.value {
            Some(want) => {
                let ok = |got: &Result<Json, JsonError>| got.as_ref().is_ok_and(|v| same_bits(v, want));
                prop_assert!(ok(&old), "the oracle read {:?} as {old:?}", doc.text);
                prop_assert!(ok(&new), "{:?} read as {new:?}, want {want:?}", doc.text);
            }
            None => {
                prop_assert!(old.is_err(), "the oracle took {:?} past its depth", doc.text);
                let err = new.err().ok_or("a document nested past the limit was accepted")?;
                prop_assert!(err.msg.contains("nesting"), "{err}");
            }
        }
        Ok(())
    });
}

#[test]
fn mutated_documents_match_the_frozen_parser_or_fail_typed() {
    for_all(
        Config::cases(4000),
        |rng| {
            let doc = any_doc(rng);
            mutate(rng, &doc.text)
        },
        |text: &String| {
            let (old, literals) = oracle::parse(text);
            let new = parsed(text)?;
            match old {
                Ok(tree) if all_finite(&tree) && literals.iter().all(|l| rfc_number(l)) => {
                    let got = new.map_err(|e| format!("{text:?}: the oracle took it, now {e}"))?;
                    prop_assert!(same_bits(&got, &tree), "{text:?}: {got:?} != {tree:?}");
                }
                old => {
                    let Err(e) = new else {
                        return Err(format!("{text:?} accepted; the oracle said {old:?}"));
                    };
                    prop_assert!(
                        e.has_position() && e.offset <= text.len(),
                        "{text:?}: an error without a place in the input: {e:?}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn written_trees_parse_back_bit_for_bit() {
    for_all(Config::cases(1500), any_doc, |doc| {
        let Some(tree) = &doc.value else {
            return Ok(());
        };
        let text = tree.to_string();
        let back = parsed(&text)?.map_err(|e| format!("{text:?}: {e}"))?;
        prop_assert!(same_bits(&back, tree), "{text:?} read back as {back:?}");
        Ok(())
    });
}

/// Digit runs of every length at every offset from the start of the input,
/// so a run begins and ends at each position of an 8-byte word, spans
/// several words, and ends at the last byte of the input or just before it.
#[test]
fn digit_runs_across_word_boundaries_and_at_the_last_byte() {
    let mut rng = Rng::seed_from_u64(0xD161);
    for pad in 0..9 {
        for len in 1..=40 {
            let digits = format!("{}{}", 1 + rng.gen_range(0u32..9), digit_run(&mut rng, len - 1));
            for (text, want) in [
                (digits.clone(), digits.clone()),
                (format!("-{digits}.{digits}"), format!("-{digits}.{digits}")),
                (format!("0.{digits}e-{}", len % 9), format!("0.{digits}e-{}", len % 9)),
                (format!("[{digits}]"), digits.clone()),
                (format!("{digits} "), digits.clone()),
            ] {
                let src = format!("{}{text}", " ".repeat(pad));
                let want: f64 = want.parse().expect("a plain literal");
                let got = match parse(&src) {
                    Ok(Json::Num(x)) => x,
                    Ok(Json::Arr(items)) => items[0].as_f64().expect("a number"),
                    other => panic!("{src:?} read as {other:?}"),
                };
                assert_eq!(got.to_bits(), want.to_bits(), "{src:?}");
                // One character short of a number, at the same places.
                for bad in [format!("{src}."), format!("{src}e"), format!("{src}e+")] {
                    assert!(parse(&bad).is_err(), "{bad:?} accepted");
                }
            }
        }
    }
}

// ---- Frames ---------------------------------------------------------------

/// A byte stream served at most `chunk` bytes per read, recording the
/// widest buffer a reader asked it to fill.
struct Dribble<'a> {
    rest: &'a [u8],
    chunk: usize,
    widest: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.widest = self.widest.max(buf.len());
        let n = buf.len().min(self.chunk).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

impl BufRead for Dribble<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        Ok(&self.rest[..self.chunk.min(self.rest.len())])
    }

    fn consume(&mut self, n: usize) {
        self.rest = &self.rest[n..];
    }
}

/// A generated frame stream: the bytes, the bodies a reader must return
/// when the stream was left intact, the cap, and the read size.
#[derive(Debug, Clone)]
struct Stream {
    bytes: Vec<u8>,
    intact: Option<Vec<Vec<u8>>>,
    max_bytes: usize,
    chunk: usize,
}

impl Shrink for Stream {}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut f = format!("{}\n", body.len()).into_bytes();
    f.extend_from_slice(body);
    f
}

fn any_stream(rng: &mut Rng) -> Stream {
    let max_bytes = rng.gen_range(0usize..300);
    let bodies: Vec<Vec<u8>> = (0..rng.gen_range(0usize..5))
        .map(|_| {
            let len = rng.gen_range(0..=max_bytes);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect();
    let mut frames: Vec<Vec<u8>> = bodies.iter().map(|b| frame(b)).collect();
    let mut intact = Some(bodies);
    if !frames.is_empty() && rng.gen_bool(0.7) {
        intact = None;
        let i = rng.gen_range(0..frames.len());
        frames[i] = match rng.gen_range(0u32..6) {
            0 => {
                let fault = ProtocolFault::ALL[rng.gen_range(0..ProtocolFault::ALL.len())];
                FaultPlan::new(rng.next_u64()).corrupt_frame(rng.next_u64(), fault, &frames[i])
            }
            // Length lines no sender writes: signs, spaces, exponents, a
            // CR, a claim past the cap or past `usize`, an endless line.
            1 => {
                let line = [
                    "+1", " 1", "-1", "1e2", "0x10", "1\r", "", "00000000000000000001",
                    "99999999999999999999", "18446744073709551616", "999999999999999999999999",
                ][rng.gen_range(0usize..11)];
                format!("{line}\nxy").into_bytes()
            }
            2 => vec![b'7'; rng.gen_range(1usize..64)],
            3 => {
                let cut = rng.gen_range(0..frames[i].len());
                frames[i][..cut].to_vec()
            }
            4 => {
                let mut f = frames[i].clone();
                let j = rng.gen_range(0..f.len());
                f[j] ^= 1 << rng.gen_range(0u32..8);
                f
            }
            // A claim past the cap: by one byte, with the body it claims,
            // or by up to a megabyte, with a few bytes of it.
            _ => {
                let over = if rng.gen_bool(0.5) { 1 } else { rng.gen_range(2usize..1 << 20) };
                let len = max_bytes + over;
                let mut f = format!("{len}\n").into_bytes();
                f.resize(f.len() + len.min(max_bytes + 8), b'x');
                f
            }
        };
    }
    let chunk = match rng.gen_range(0u32..3) {
        0 => 1,
        1 => rng.gen_range(2usize..40),
        _ => 1 << 16,
    };
    Stream {
        bytes: frames.concat(),
        intact,
        max_bytes,
        chunk,
    }
}

#[test]
fn frame_streams_yield_bodies_or_typed_errors_within_the_cap() {
    for_all(Config::cases(3000), any_stream, |s| {
        let mut r = Dribble {
            rest: &s.bytes,
            chunk: s.chunk,
            widest: 0,
        };
        let mut bodies = Vec::new();
        let end = loop {
            let next = catch_unwind(AssertUnwindSafe(|| read_frame(&mut r, s.max_bytes)))
                .map_err(|_| "read_frame panicked".to_owned())?;
            match next {
                Ok(body) => {
                    prop_assert!(
                        body.len() <= s.max_bytes && body.capacity() <= s.max_bytes,
                        "a {}-byte body (capacity {}) past the {}-byte cap",
                        body.len(),
                        body.capacity(),
                        s.max_bytes
                    );
                    bodies.push(body);
                }
                Err(e) => break e,
            }
        };
        prop_assert!(
            r.widest <= s.max_bytes.max(1),
            "asked for a {}-byte read under a {}-byte cap",
            r.widest,
            s.max_bytes
        );
        match (&s.intact, end) {
            (Some(want), FrameError::Eof) => {
                prop_assert!(bodies == *want, "bodies {bodies:?}, want {want:?}");
            }
            (Some(_), e) => return Err(format!("an intact stream ended with {e}")),
            (None, FrameError::Io(e)) => return Err(format!("no i/o can fail here: {e}")),
            (None, FrameError::Eof) => prop_assert!(r.rest.is_empty(), "Eof before the end"),
            (None, FrameError::BadHeader(_) | FrameError::Truncated { .. }) => {}
        }
        Ok(())
    });
}

// ---- Request params ---------------------------------------------------------

/// A propagated engine of a small generated design, at K = 8.
fn engine(seed: u64) -> InstaEngine {
    let design = generate_design(&GeneratorConfig::small("decoders", seed));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
    sta.full_update(&design);
    let cfg = InstaConfig {
        top_k: 8,
        ..InstaConfig::default()
    };
    let mut engine = InstaEngine::new(sta.export_insta_init(), cfg).expect("valid");
    engine.propagate();
    engine
}

/// A valid `params` object per op that defines params (the mode index
/// `1e18` among them: a value no endpoint has, once an allocation bomb).
fn seed_params() -> Vec<(Op, Json)> {
    let delta = |arc: u64, mean: f64| {
        obj([
            ("arc", arc.to_json()),
            ("mean", [mean, mean + 1.0].to_json()),
            ("sigma", [4.0, 4.5].to_json()),
        ])
    };
    let scenario = obj([
        ("deltas", Json::Arr(vec![delta(1, 30.0)])),
        ("corner", obj([("mean_scale", 1.05.to_json()), ("sigma_offset_ps", 0.5.to_json())])),
        ("mode", obj([("disabled", Json::Arr(vec![Json::Num(1e18), Json::Num(0.0)]))])),
    ]);
    vec![
        (
            Op::ReportSlack,
            obj([("min_epoch", 0u64.to_json()), ("endpoints", vec![0u64, 2, 1].to_json())]),
        ),
        (Op::ReportAt, obj([("node", 3u64.to_json()), ("rf", 1u64.to_json())])),
        (Op::Update, obj([("deltas", Json::Arr(vec![delta(0, 40.0), delta(2, 35.0)]))])),
        (
            Op::Batch,
            obj([
                ("merged", Json::Bool(true)),
                ("scenarios", Json::Arr(vec![Json::Arr(vec![delta(3, 20.0)]), scenario])),
            ]),
        ),
        (Op::Gradient, obj([("arcs", vec![0u64, 4, 2].to_json())])),
        (Op::DebugStall, obj([("ms", 1u64.to_json())])),
    ]
}

/// The codes an op may answer a corrupted request with, besides `ok`:
/// `bad_request` (the params decoder, or an index the engine does not
/// have), `protocol` (a textual fault that broke the JSON), and the op's
/// own — an epoch never committed within the wait, an update the engine
/// refuses to apply.
fn allowed_codes(op: Op) -> &'static [&'static str] {
    match op {
        Op::ReportSlack => &["bad_request", "protocol", "deadline"],
        Op::Update => &["bad_request", "protocol", "engine"],
        _ => &["bad_request", "protocol"],
    }
}

/// Every `FaultPlan` fault, tree and textual, over each op's valid params,
/// 25 cases a fault: every reply is `ok` or a typed error the op may give,
/// no request panics the daemon, and it still answers `ping` afterwards. A
/// `debug_stall` whose corrupted `ms` is a valid but long duration is not
/// sent: it tests the sleep, not the decoder.
#[test]
fn corrupted_params_get_ok_or_a_typed_error_and_never_panic() {
    const CASES: u64 = 25;
    let cfg = ServeConfig {
        enable_debug_ops: true,
        max_epoch_wait_ms: 1,
        ..ServeConfig::default()
    };
    let server = Server::new(engine(62), cfg);
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        scope.spawn(|| server.handle_connection(theirs.try_clone().expect("clone"), theirs));
        let mut cl = Client::new(ours.try_clone().expect("clone"), ours);
        let plan = FaultPlan::new(0x9a7a_5eed);
        let mut id = 0;
        for (op, seed) in seed_params() {
            let mut sent = 0;
            for fault in Fault::ALL {
                for case in 0..CASES {
                    let text = if fault.is_textual() {
                        plan.corrupt_text(case, fault, &seed.to_string())
                    } else {
                        let mut params = seed.clone();
                        plan.corrupt_json(case, fault, &mut params);
                        if op == Op::DebugStall && params.get::<u64>("ms").is_ok_and(|ms| ms > 10) {
                            continue;
                        }
                        params.to_string().into_bytes()
                    };
                    id += 1;
                    let head = format!(r#"{{"id":{id},"op":"{}","params":"#, op.name());
                    cl.send_raw(&[head.as_bytes(), &text, b"}"].concat()).expect("sent");
                    let reply = cl.read_response().expect("a reply frame");
                    let text = String::from_utf8_lossy(&text);
                    let what = format!("{} {fault:?} #{case}: {text}", op.name());
                    assert!(
                        reply.ok || reply.code().is_some_and(|c| allowed_codes(op).contains(&c)),
                        "{what} -> {:?}",
                        reply.error
                    );
                    sent += 1;
                }
            }
            assert!(sent >= 200, "{}: {sent} cases", op.name());
        }
        assert_eq!(server.counters().panics_isolated.load(Ordering::Relaxed), 0);
        let pong = cl.call(Op::Ping, None, Json::Null).expect("ping");
        assert!(pong.ok, "{:?}", pong.error);
    });
}

// ---- Persist payloads -----------------------------------------------------

/// Which codec a payload is for, and where its declared array lengths sit
/// (byte offset, element width on the wire, end of the block the length
/// is guarded against).
#[derive(Clone, Debug)]
struct Payload {
    bytes: Vec<u8>,
    durable: bool,
    lengths: Vec<(usize, u64, usize)>,
}

impl Shrink for Payload {}

/// An `f64` of any bit pattern, NaN payloads and infinities included: the
/// codec carries raw bits.
fn any_bits(rng: &mut Rng) -> f64 {
    match rng.gen_range(0u32..4) {
        0 => f64::from_bits(rng.next_u64()),
        1 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE][rng.gen_range(0usize..5)],
        _ => rng.next_f64() * 400.0 - 200.0,
    }
}

fn any_pairs(rng: &mut Rng) -> Vec<[f64; 2]> {
    (0..rng.gen_range(0usize..6))
        .map(|_| [any_bits(rng), any_bits(rng)])
        .collect()
}

fn any_payload(rng: &mut Rng) -> Payload {
    if rng.gen_bool(0.5) {
        let state = EngineDurableState {
            epoch: rng.next_u64(),
            arc_mean: any_pairs(rng),
            arc_sigma: any_pairs(rng),
            slacks: (0..rng.gen_range(0usize..6)).map(|_| any_bits(rng)).collect(),
        };
        let bytes = state.encode();
        let sigma_at = 40 + 16 * state.arc_mean.len();
        let state_end = 8 + state.encoded_len();
        Payload {
            durable: true,
            lengths: vec![
                (0, 1, bytes.len()),
                (32, 16, state_end),
                (sigma_at, 16, state_end),
                (state_end, 8, bytes.len()),
            ],
            bytes,
        }
    } else if rng.gen_bool(0.2) {
        Payload {
            bytes: WriterOp::Propagate.encode(),
            durable: false,
            lengths: Vec::new(),
        }
    } else {
        let deltas = (0..rng.gen_range(0usize..6))
            .map(|_| ArcDelta {
                arc: rng.next_u64() as u32,
                mean: [any_bits(rng), any_bits(rng)],
                sigma: [any_bits(rng), any_bits(rng)],
            })
            .collect();
        let bytes = WriterOp::Update(deltas).encode();
        Payload {
            durable: false,
            lengths: vec![(1, 36, bytes.len())],
            bytes,
        }
    }
}

/// Decodes `bytes` with the payload's codec: its typed error, or whether
/// the value it read re-encodes to `bytes` — a durable state's reserved
/// words (payload bytes 16..32) as zero. A panic is an `Err`.
fn decode(durable: bool, bytes: &[u8]) -> Result<Result<bool, PersistError>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if durable {
            EngineDurableState::decode(bytes).map(|v| {
                let mut want = bytes.to_vec();
                want[16..32].fill(0);
                v.encode() == want
            })
        } else {
            WriterOp::decode(bytes).map(|v| v.encode() == bytes)
        }
    }))
    .map_err(|_| format!("decode panicked on {bytes:?}"))
}

#[test]
fn persist_payloads_round_trip_and_every_cut_is_typed() {
    for_all(Config::cases(600), any_payload, |p| {
        prop_assert!(
            decode(p.durable, &p.bytes)? == Ok(true),
            "{p:?} does not round-trip"
        );
        for cut in 0..p.bytes.len() {
            match decode(p.durable, &p.bytes[..cut])? {
                Err(PersistError::Truncated { .. } | PersistError::BadLength { .. }) => {}
                other => return Err(format!("{p:?} cut at {cut}: {other:?}")),
            }
        }
        Ok(())
    });
}

#[test]
fn flipped_persist_payloads_fail_typed_or_round_trip() {
    for_all(
        Config::cases(3000),
        |rng| {
            let mut p = any_payload(rng);
            for _ in 0..1 + rng.gen_range(0usize..3) {
                let at = rng.gen_range(0..p.bytes.len());
                p.bytes[at] ^= 1 << rng.gen_range(0u32..8);
            }
            if rng.gen_bool(0.2) {
                p.bytes.push(rng.next_u64() as u8);
            }
            p
        },
        |p| match decode(p.durable, &p.bytes)? {
            Ok(same) => {
                prop_assert!(same, "{p:?} decoded to a value with other bytes");
                Ok(())
            }
            Err(_) => Ok(()),
        },
    );
}

#[test]
fn declared_lengths_past_the_payload_are_bad_lengths() {
    for_all(
        Config::cases(1500),
        |rng| {
            let mut p = any_payload(rng);
            if let Some(&(at, width, end)) = p.lengths.get(rng.gen_range(0..p.lengths.len().max(1)))
            {
                let fits = (end - at - 8) as u64 / width;
                let declared = match rng.gen_range(0u32..5) {
                    0 => fits + 1 + rng.bounded_u64(1 << 20),
                    1 => u64::MAX - rng.bounded_u64(16),
                    2 => (u64::MAX / width).saturating_add(rng.bounded_u64(2)),
                    3 => 1 << rng.gen_range(32u32..64),
                    _ => fits + 1,
                };
                p.bytes[at..at + 8].copy_from_slice(&declared.to_le_bytes());
                p.lengths = vec![(at, declared, end)];
            } else {
                p.lengths.clear();
            }
            p
        },
        |p| {
            let Some(&(at, declared, end)) = p.lengths.first() else {
                return Ok(());
            };
            let remaining = end - at - 8;
            match decode(p.durable, &p.bytes)? {
                Err(PersistError::BadLength {
                    declared: d,
                    remaining: r,
                    ..
                }) if d == declared && r == remaining => Ok(()),
                other => Err(format!(
                    "length {declared} at byte {at} of {p:?} ({remaining} bytes left): {other:?}"
                )),
            }
        },
    );
}

#[test]
fn arbitrary_bytes_decode_typed_or_round_trip() {
    for_all(
        Config::cases(3000),
        |rng| {
            let mut bytes: Vec<u8> = (0..rng.gen_range(0usize..96))
                .map(|_| rng.next_u64() as u8)
                .collect();
            // A known writer-op tag now and then, so decoding gets past it.
            if let (Some(b), true) = (bytes.first_mut(), rng.gen_bool(0.5)) {
                *b = 1 + rng.gen_range(0u32..2) as u8;
            }
            Payload {
                bytes,
                durable: rng.gen_bool(0.5),
                lengths: Vec::new(),
            }
        },
        |p| match decode(p.durable, &p.bytes)? {
            Ok(same) => {
                prop_assert!(same, "{p:?} decoded to a value with other bytes");
                Ok(())
            }
            Err(_) => Ok(()),
        },
    );
}

// ---- WAL segments and checkpoints ------------------------------------------

/// Record framing and checkpoint header bytes (`wal.rs`).
const RECORD_HEADER: usize = 8;
const CKPT_HEADER: usize = 24;

/// What a real `Durability` wrote: a segment cut down to its records and
/// a little of its zero tail, the records it holds, and a checkpoint.
struct Written {
    segment: Vec<u8>,
    records: Vec<WalRecord>,
    checkpoint: Vec<u8>,
    /// An engine of the checkpointed design, to restore images into.
    twin: InstaEngine,
}

fn written(tag: &str) -> Written {
    let dir = std::env::temp_dir().join(format!("insta-decoders-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = engine(61);
    let dur = Durability::open(DurabilityConfig {
        fsync: false,
        checkpoint_every: 0,
        ..DurabilityConfig::new(&dir)
    })
    .expect("open");
    let delta = |arc: u32| ArcDelta {
        arc,
        mean: [10.0 + f64::from(arc), 12.5],
        sigma: [1.0, 0.5],
    };
    let ops = [
        WriterOp::Update(vec![delta(3)]),
        WriterOp::Propagate,
        WriterOp::Update(vec![delta(7), delta(1), delta(7)]),
        WriterOp::Update(Vec::new()),
        WriterOp::Update(vec![delta(2), delta(5)]),
    ];
    for (epoch, op) in (1..).zip(&ops) {
        dur.log_commit(epoch, op).expect("append");
    }
    let segment = std::fs::read(&list_segments(&dir).expect("segments")[0].1).expect("read");
    let state = EngineDurableState::capture(&engine);
    dur.checkpoint(&state)
        .expect("checkpoint");
    let checkpoint = std::fs::read(&list_checkpoints(&dir).expect("list")[0].1).expect("read");
    drop(dur);
    let _ = std::fs::remove_dir_all(&dir);

    let scan = scan_bytes(&segment).expect("no panic");
    assert!(scan.damage.is_none(), "{:?}", scan.damage);
    assert_eq!(
        scan.records.iter().map(|r| &r.op).collect::<Vec<_>>(),
        ops.iter().collect::<Vec<_>>()
    );
    let end = scan.valid_bytes as usize;
    Written {
        segment: segment[..end + 16].to_vec(),
        records: scan.records,
        checkpoint,
        twin: engine,
    }
}

/// The decoders read files: each image is written to this thread's file.
fn image_path(kind: &str) -> std::path::PathBuf {
    let id =
        format!("{:?}", std::thread::current().id()).replace(|c: char| !c.is_ascii_digit(), "");
    std::env::temp_dir().join(format!("insta-decoders-{}-{id}.{kind}", std::process::id()))
}

fn scan_bytes(bytes: &[u8]) -> Result<SegmentScan, String> {
    let path = image_path("seg");
    std::fs::write(&path, bytes).expect("write image");
    catch_unwind(|| scan_segment(&path).expect("readable"))
        .map_err(|_| format!("scan_segment panicked on {} bytes", bytes.len()))
}

fn load_bytes(bytes: &[u8]) -> Result<Result<EngineDurableState, String>, String> {
    let path = image_path("ckpt");
    std::fs::write(&path, bytes).expect("write image");
    catch_unwind(|| load_checkpoint(&path))
        .map_err(|_| format!("load_checkpoint panicked on {} bytes", bytes.len()))
}

/// Where record `i` starts and ends in the segment.
fn span(w: &Written, i: usize) -> (usize, usize) {
    let end = w
        .records
        .get(i + 1)
        .map_or(w.segment.len() - 16, |r| r.offset as usize);
    (w.records[i].offset as usize, end)
}

/// Re-seals the CRC of every original record whose payload `changed`
/// touches, so the record decoder sees the damage and not the checksum.
fn reseal(w: &Written, bytes: &mut [u8], changed: &[usize]) {
    for i in 0..w.records.len() {
        let (at, end) = span(w, i);
        if changed
            .iter()
            .any(|&c| (at + RECORD_HEADER..end).contains(&c))
        {
            let crc = crc32(&bytes[at + RECORD_HEADER..end]);
            bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// The segment invariant for an image whose first changed byte is
/// `first`: every original record that ends at or before it is returned
/// as it was appended, the scan gets at least that far, damage sits at the
/// end of the valid prefix, and `guard` names the damage when given.
fn check_scan(w: &Written, bytes: &[u8], first: usize, guard: Option<&str>) -> Result<(), String> {
    let scan = scan_bytes(bytes)?;
    let kept = (0..w.records.len())
        .take_while(|&i| span(w, i).1 <= first)
        .count();
    let prefix = if first < SEGMENT_HEADER_LEN as usize {
        0
    } else {
        kept.checked_sub(1)
            .map_or(SEGMENT_HEADER_LEN as usize, |i| span(w, i).1)
    };
    let what = format!("{} bytes, first change at {first}", bytes.len());
    prop_assert!(
        scan.records.len() >= kept,
        "{what}: {} records, {kept} untouched",
        scan.records.len()
    );
    prop_assert!(
        scan.records[..kept] == w.records[..kept],
        "{what}: an untouched record moved"
    );
    prop_assert!(
        scan.valid_bytes as usize >= prefix && scan.valid_bytes as usize <= bytes.len(),
        "{what}: valid prefix {}",
        scan.valid_bytes
    );
    if let Some(d) = &scan.damage {
        prop_assert!(
            d.offset == scan.valid_bytes,
            "{what}: damage at {} past a valid prefix of {}",
            d.offset,
            scan.valid_bytes
        );
    }
    if let Some(guard) = guard {
        let message = scan.damage.as_ref().map_or("", |d| d.message.as_str());
        prop_assert!(
            message.contains(guard),
            "{what}: damage {message:?}, want {guard:?}"
        );
    }
    Ok(())
}

/// Length values every declared length is set to.
const LENGTHS: [u64; 4] = [
    0,
    MAX_RECORD_BYTES as u64,
    MAX_RECORD_BYTES as u64 + 1,
    u32::MAX as u64,
];

#[test]
fn wal_segments_cut_flipped_or_relengthed_keep_their_valid_prefix() -> Result<(), String> {
    let w = written("wal");
    for cut in 0..=w.segment.len() {
        check_scan(&w, &w.segment[..cut], cut, None)?;
    }
    let mut rng = Rng::seed_from_u64(0x5E6_F122);
    for case in 0..400 {
        let mut bytes = w.segment.clone();
        let at: Vec<usize> = (0..1 + rng.gen_range(0usize..3))
            .map(|_| rng.gen_range(0..bytes.len()))
            .collect();
        for &a in &at {
            bytes[a] ^= 1 << rng.gen_range(0u32..8);
        }
        if case % 2 == 0 {
            reseal(&w, &mut bytes, &at);
        }
        let first = *at.iter().min().expect("a flip");
        check_scan(&w, &bytes, first, None).map_err(|e| format!("case {case}: {e}"))?;
    }
    for i in 0..w.records.len() {
        let (at, _) = span(&w, i);
        for len in LENGTHS {
            // The record's length field; the CRC still covers the old body.
            let mut bytes = w.segment.clone();
            bytes[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
            let guard = match len {
                0 => "checksum",
                l if l > MAX_RECORD_BYTES as u64 => "implausible record length",
                _ => "torn record body",
            };
            check_scan(&w, &bytes, at, Some(guard))?;
            // An update's delta count, resealed: the op decoder's guard.
            if let WriterOp::Update(_) = w.records[i].op {
                let count = at + RECORD_HEADER + 8 + 1;
                let mut bytes = w.segment.clone();
                bytes[count..count + 8].copy_from_slice(&len.to_le_bytes());
                reseal(&w, &mut bytes, &[count]);
                let guard = if len == 0 { "" } else { "declares" };
                check_scan(&w, &bytes, count, Some(guard))?;
            }
        }
    }
    let _ = std::fs::remove_file(image_path("seg"));
    Ok(())
}

/// The checkpoint invariant: a typed error, or an image that restores into
/// an engine of its design. A declared length the bytes cannot hold must
/// be refused by its guard, named by `guard`.
fn check_load(w: &mut Written, bytes: &[u8], guard: Option<&str>) -> Result<(), String> {
    let what = format!("{} bytes", bytes.len());
    match load_bytes(bytes)? {
        Ok(state) => {
            prop_assert!(guard.is_none(), "{what}: loaded past the {guard:?} guard");
            state
                .restore(&mut w.twin)
                .map_err(|e| format!("{what}: loaded but does not restore: {e}"))
        }
        Err(message) => {
            let guard = guard.unwrap_or("");
            prop_assert!(
                message.contains(guard),
                "{what}: {message:?}, want {guard:?}"
            );
            Ok(())
        }
    }
}

#[test]
fn checkpoints_cut_flipped_or_relengthed_fail_typed_or_restore() -> Result<(), String> {
    let mut w = written("checkpoint");
    let image = w.checkpoint.clone();
    check_load(&mut w, &image, None)?;
    for cut in 0..image.len() {
        check_load(
            &mut w,
            &image[..cut],
            Some(if cut < CKPT_HEADER {
                "header"
            } else {
                "length mismatch"
            }),
        )?;
    }
    let payload = CKPT_HEADER..image.len();
    let sealed = |bytes: &mut Vec<u8>| {
        let crc = crc32(&bytes[CKPT_HEADER..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    };
    let mut rng = Rng::seed_from_u64(0xC4_7F11);
    for case in 0..300 {
        let mut bytes = image.clone();
        for _ in 0..1 + rng.gen_range(0usize..3) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0u32..8);
        }
        if case % 2 == 0 {
            sealed(&mut bytes);
        }
        check_load(&mut w, &bytes, None).map_err(|e| format!("case {case}: {e}"))?;
    }
    // The declared lengths: the header's payload length, the state length,
    // the two annotation arrays' counts and the slacks' count.
    let read =
        |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().expect("8 bytes")) as usize;
    let state_at = CKPT_HEADER + 8;
    let mean_at = state_at + 24;
    let sigma_at = mean_at + 8 + 16 * read(mean_at);
    let slacks_at = state_at + read(CKPT_HEADER);
    for len in LENGTHS {
        let mut bytes = image.clone();
        bytes[16..24].copy_from_slice(&len.to_le_bytes());
        check_load(&mut w, &bytes, Some("length mismatch"))?;
        for (at, guard) in [
            (CKPT_HEADER, "declares"),
            (mean_at, "declares"),
            (sigma_at, "declares"),
            (slacks_at, "declares"),
        ] {
            assert!(payload.contains(&at));
            let mut bytes = image.clone();
            bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
            sealed(&mut bytes);
            check_load(&mut w, &bytes, (len > 0).then_some(guard))?;
        }
    }
    let _ = std::fs::remove_file(image_path("ckpt"));
    Ok(())
}

// ---- The oracle -----------------------------------------------------------

/// The JSON parser as it was before the one-pass number scan, kept
/// verbatim except that it logs the text of every number literal it
/// converts. It accepted `01`, `1.`, `-.5` and `1e400` (as `inf`); the
/// literal log is how the suite tells those documents from valid ones.
mod oracle {
    use insta_support::json::{Json, JsonError};

    /// Parses a complete JSON document (rejects trailing non-whitespace), and
    /// returns the text of every number literal it converted, in order.
    pub fn parse(src: &str) -> (Result<Json, JsonError>, Vec<String>) {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            literals: Vec::new(),
        };
        let doc = document(&mut p);
        (doc, p.literals)
    }

    fn document(p: &mut Parser<'_>) -> Result<Json, JsonError> {
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Maximum nesting depth the parser accepts (stack-overflow guard).
    const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        src: &'a str,
        bytes: &'a [u8],
        pos: usize,
        literals: Vec<String>,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: impl Into<String>) -> JsonError {
            let mut line = 1;
            let mut col = 1;
            for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
                if b == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            JsonError {
                line,
                col,
                offset: self.pos.min(self.bytes.len()),
                msg: msg.into(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), JsonError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!(
                    "expected `{}`, found {}",
                    b as char,
                    match self.peek() {
                        Some(c) => format!("`{}`", c as char),
                        None => "end of input".into(),
                    }
                )))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
            if depth > MAX_DEPTH {
                return Err(self.err("nesting too deep"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(depth),
                Some(b'[') => self.array(depth),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(self.err(format!(
                    "expected a JSON value (object, array, string, number, \
                     `true`, `false`, or `null`), found `{}`",
                    c as char
                ))),
                None => Err(self.err("expected a JSON value, found end of input")),
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err(format!("invalid literal (expected `{word}`)")))
            }
        }

        fn number(&mut self) -> Result<Json, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            // The scanned range is ASCII by construction, but surface a typed
            // error rather than trusting that on untrusted input.
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("non-ASCII bytes inside a number"))?;
            self.literals.push(text.to_owned());
            if text.is_empty() || text == "-" {
                return Err(self.err("expected a number, found no digits"));
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err(format!("invalid number `{text}`")))
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                self.pos += 1;
                                let cp = self.hex4()?;
                                // Surrogate pairs: read the low half if needed.
                                let c = if (0xD800..0xDC00).contains(&cp) {
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let lo = self.hex4()?;
                                        let combined = 0x10000
                                            + ((cp - 0xD800) << 10)
                                            + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    char::from_u32(cp)
                                };
                                out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                                continue; // hex4 already advanced past the digits
                            }
                            _ => return Err(self.err("invalid escape sequence")),
                        }
                        self.pos += 1;
                    }
                    Some(c) if c < 0x20 => {
                        return Err(self.err("unescaped control character in string"))
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar. The input is a &str and the
                        // cursor only ever advances by whole scalars, so `pos`
                        // is always a char boundary; slicing + `chars().next()`
                        // decodes one scalar in O(1) (re-validating the whole
                        // remainder here would make parsing quadratic).
                        let Some(ch) = self.src.get(self.pos..).and_then(|s| s.chars().next())
                        else {
                            return Err(self.err("string cursor left a char boundary"));
                        };
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            if self.pos + 4 > self.bytes.len() {
                return Err(self.err("truncated \\u escape"));
            }
            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| self.err("invalid \\u escape"))?;
            let cp =
                u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
            self.pos += 4;
            Ok(cp)
        }

        fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected `,` or `]` in array")),
                }
            }
        }

        fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value(depth + 1)?;
                pairs.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(self.err("expected `,` or `}` in object")),
                }
            }
        }
    }
}
