//! The wire protocol: length-prefixed JSON frames and the request /
//! response schema.
//!
//! A frame is an ASCII decimal byte count, a single `\n`, then exactly
//! that many bytes of JSON — trivially scriptable from a shell
//! (`printf '%d\n%s'`). The length line is the *frame-sync contract*:
//!
//! * a body that fails to parse as JSON (or as a request) is a
//!   *recoverable* protocol error — the frame boundary is still known, so
//!   the daemon replies with a typed error and keeps the connection;
//! * a length line that is not a sane number (or exceeds
//!   [`ServeConfig::max_frame_bytes`](crate::admission::ServeConfig)) loses
//!   sync — the daemon replies once and closes the connection;
//! * EOF mid-body is a truncated frame — the connection is dead.
//!
//! Requests are `{"id":N,"op":"...","deadline_ms":M?,"params":{...}?}`.
//! Responses are `{"id":N,"epoch":E,"ok":true,"result":{...}}` or
//! `{"id":N,"epoch":E,"ok":false,"error":{"code":"...","message":"...",
//! "retry_after_ms":K?}}`. The in-tree JSON writer prints `f64`s with
//! Rust's shortest round-trip formatting, so slack *bits* survive the
//! protocol — the MVCC tests compare raw `to_bits` over the wire.

use insta_support::json::{obj, parse, write_f64, Json, ToJson};
use std::io::{self, BufRead, Write};

/// The protocol generation this daemon speaks. Clients may send it as an
/// optional `version` field on any request; a mismatch is rejected with
/// the typed [`code::VERSION_MISMATCH`] error before dispatch, and
/// `ping`/`stats` results carry the server's version so clients can probe
/// before committing work. Bump on any wire-incompatible change —
/// forward-compat companion to the versioned on-disk WAL/checkpoint
/// formats (see `crate::wal`).
///
/// # Version history
///
/// * **1** — initial wire protocol.
/// * **2** — MCMM scenario lanes on the `batch` op: each scenario may be
///   an *object* `{"deltas": [...], "corner": {mean_scale, mean_offset_ps,
///   sigma_scale, sigma_offset_ps}, "mode": {"disabled": [endpoints...]}}`
///   in addition to the generation-1 bare delta array, and an optional
///   boolean `merged` param requests worst-corner merging (adds a
///   `merged` object to the result). The extension is additive — every
///   generation-1 `batch` request is served unchanged — but the version
///   is bumped so clients can probe whether scenario objects are
///   understood rather than discover a typed `bad_params` at dispatch.
pub const PROTOCOL_VERSION: u64 = 2;

/// Longest accepted length line (decimal digits), a cheap guard against
/// a peer streaming an endless header.
const MAX_HEADER_DIGITS: usize = 20;

/// How reading the next frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the peer hung up politely.
    Eof,
    /// The length line was not a sane decimal count, or exceeded the
    /// configured frame cap. Frame sync is lost; close the connection.
    BadHeader(String),
    /// EOF or I/O failure mid-body: `got` of `expected` bytes arrived.
    Truncated { expected: usize, got: usize },
    /// Transport-level failure outside the framing logic.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::BadHeader(h) => write!(f, "unparseable frame header {h:?}"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: {got} of {expected} body bytes")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

/// Writes one `len\n body` frame and flushes.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    write_frame_bytes(w, body.as_bytes())
}

/// Writes one `len\n body` frame from raw bytes and flushes. The body is
/// sent verbatim — it need not be UTF-8, so fault injectors can put
/// invalid encodings on the wire exactly as authored.
///
/// A frame is **one write**: header and body leave in one buffer. On an
/// unbuffered stream two writes are two syscalls and two wake-ups of the
/// peer, and on TCP header-write, body-write, wait-for-reply is the
/// pattern Nagle's algorithm and delayed ACKs answer with a ~40 ms stall
/// per direction.
pub fn write_frame_bytes(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(MAX_HEADER_DIGITS + 1 + body.len());
    writeln!(frame, "{}", body.len())?;
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame body, enforcing `max_bytes` on the declared length.
pub fn read_frame(r: &mut impl BufRead, max_bytes: usize) -> Result<Vec<u8>, FrameError> {
    // Read the header byte-by-byte so a lost-sync close never swallows
    // buffered bytes belonging to a later diagnosis. It lives on the
    // stack; only a refused header is copied out, for its message.
    let mut header = [0u8; MAX_HEADER_DIGITS + 1];
    let mut n = 0;
    let bad = |h: &[u8]| FrameError::BadHeader(String::from_utf8_lossy(h).into_owned());
    loop {
        let mut b = [0u8; 1];
        match r.read(&mut b) {
            Ok(0) if n == 0 => return Err(FrameError::Eof),
            Ok(0) => return Err(bad(&header[..n])),
            Ok(_) if b[0] == b'\n' => break,
            Ok(_) => {
                header[n] = b[0];
                n += 1;
                if n > MAX_HEADER_DIGITS {
                    return Err(bad(&header[..n]));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let header = &header[..n];
    let len: usize = std::str::from_utf8(header)
        .ok()
        .and_then(|text| text.trim().parse().ok())
        .ok_or_else(|| bad(header))?;
    if len > max_bytes {
        return Err(FrameError::BadHeader(format!("{len} > cap {max_bytes}")));
    }
    let mut body = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: len,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(body)
}

/// Every operation the daemon understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Engine, service and durability counters, tier and per-op latency.
    Stats,
    /// Endpoint slacks / WNS / TNS from the committed snapshot.
    ReportSlack,
    /// Worst arrival at one original node id.
    ReportAt,
    /// The committed levelized kernel breakdown.
    PerfReport,
    /// The service-side incident ring.
    Incidents,
    /// The request journal as JSONL.
    Journal,
    /// Writer: apply arc deltas, re-propagate, commit, publish.
    Update,
    /// Writer: full re-propagation, commit, publish.
    Propagate,
    /// Heavy: batched what-if scenarios (engine state untouched).
    Batch,
    /// Heavy: differentiable pass, returns ∂TNS/∂arc gradients.
    Gradient,
    /// Stop accepting work and wind the daemon down.
    Shutdown,
    /// Test hook: hold an admission slot for `params.ms` milliseconds.
    DebugStall,
    /// Test hook: panic inside dispatch (exercises the supervisor).
    DebugPanic,
}

/// Admission class of an [`Op`] — what the overload policy keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Always admitted, never counted: ping/stats/shutdown must work
    /// *especially* when the daemon is drowning.
    Control,
    /// Snapshot readers: admitted while in-flight slots remain.
    Read,
    /// Mutators: exempt from the cap and from shedding — the service
    /// degrades reads before it ever drops the writer.
    Writer,
    /// Batch / gradient: first to be shed under pressure.
    Heavy,
}

impl Op {
    /// Every op, in declaration order (`Op::ALL[op as usize] == op`).
    pub const ALL: [Op; 14] = [
        Op::Ping,
        Op::Stats,
        Op::ReportSlack,
        Op::ReportAt,
        Op::PerfReport,
        Op::Incidents,
        Op::Journal,
        Op::Update,
        Op::Propagate,
        Op::Batch,
        Op::Gradient,
        Op::Shutdown,
        Op::DebugStall,
        Op::DebugPanic,
    ];

    /// Parses the wire name.
    pub fn from_name(name: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == name)
    }

    /// The wire name (also the journal event name).
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::ReportSlack => "report_slack",
            Op::ReportAt => "report_at",
            Op::PerfReport => "perf_report",
            Op::Incidents => "incidents",
            Op::Journal => "journal",
            Op::Update => "update",
            Op::Propagate => "propagate",
            Op::Batch => "batch",
            Op::Gradient => "gradient",
            Op::Shutdown => "shutdown",
            Op::DebugStall => "debug_stall",
            Op::DebugPanic => "debug_panic",
        }
    }

    /// The admission class.
    pub fn kind(self) -> OpKind {
        match self {
            Op::Ping | Op::Stats | Op::Shutdown | Op::Incidents | Op::Journal => OpKind::Control,
            Op::ReportSlack | Op::ReportAt | Op::PerfReport | Op::DebugStall | Op::DebugPanic => {
                OpKind::Read
            }
            Op::Update | Op::Propagate => OpKind::Writer,
            Op::Batch | Op::Gradient => OpKind::Heavy,
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Per-request wall-clock budget in milliseconds (`None` = the
    /// server default).
    pub deadline_ms: Option<u64>,
    /// The protocol generation the client speaks (`None` = don't check).
    /// Mismatches are rejected with [`code::VERSION_MISMATCH`].
    pub version: Option<u64>,
    /// Operation parameters (`Null` when absent).
    pub params: Json,
}

/// Why a request could not be decoded. The id is whatever could be
/// salvaged from the body (0 if none) so the error response and incident
/// still correlate.
#[derive(Debug)]
pub struct DecodeError {
    /// Salvaged request id, 0 when unknown.
    pub id: u64,
    /// Human-readable reason.
    pub message: String,
}

impl Request {
    /// Decodes a frame body.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        let text = std::str::from_utf8(body).map_err(|e| DecodeError {
            id: 0,
            message: format!("frame body is not UTF-8: {e}"),
        })?;
        let doc = parse(text).map_err(|e| DecodeError {
            id: 0,
            message: format!("malformed JSON: {e}"),
        })?;
        let id = doc.get::<u64>("id").unwrap_or(0);
        let fail = |message: String| DecodeError { id, message };
        if id == 0 {
            return Err(fail("missing or zero \"id\"".to_owned()));
        }
        let name: String = doc
            .get("op")
            .map_err(|e| fail(format!("missing \"op\": {e}")))?;
        let op = Op::from_name(&name).ok_or_else(|| fail(format!("unknown op {name:?}")))?;
        let deadline_ms = match doc.field("deadline_ms") {
            Ok(j) => Some(j.as_u64().map_err(|e| fail(format!("bad deadline_ms: {e}")))?),
            Err(_) => None,
        };
        let version = match doc.field("version") {
            Ok(j) => Some(j.as_u64().map_err(|e| fail(format!("bad version: {e}")))?),
            Err(_) => None,
        };
        let params = take_member(doc, "params");
        Ok(Request {
            id,
            op,
            deadline_ms,
            version,
            params,
        })
    }

    /// Encodes a request for the wire (the client side of
    /// [`decode`](Self::decode)).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"id\":");
        write_f64(self.id as f64, &mut out);
        // Op names are plain identifiers: nothing in them needs escaping.
        out.push_str(",\"op\":\"");
        out.push_str(self.op.name());
        out.push('"');
        if let Some(ms) = self.deadline_ms {
            out.push_str(",\"deadline_ms\":");
            write_f64(ms as f64, &mut out);
        }
        if let Some(v) = self.version {
            out.push_str(",\"version\":");
            write_f64(v as f64, &mut out);
        }
        if self.params != Json::Null {
            out.push_str(",\"params\":");
            self.params.write_to(&mut out);
        }
        out.push('}');
        out
    }
}

/// Moves the first member `key` out of a decoded object (`Null` when
/// absent): a request's `params` and a reply's `result` can be a whole
/// delta set or endpoint report, so they are taken, never cloned.
pub(crate) fn take_member(doc: Json, key: &str) -> Json {
    match doc {
        Json::Obj(pairs) => pairs
            .into_iter()
            .find(|(k, _)| k == key)
            .map_or(Json::Null, |(_, v)| v),
        _ => Json::Null,
    }
}

/// Machine-readable failure codes carried in error responses.
pub mod code {
    /// Frame decoded but the body is not a valid request.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The body is not valid JSON / UTF-8 (frame sync kept).
    pub const PROTOCOL: &str = "protocol";
    /// In-flight cap reached; retry after `retry_after_ms`.
    pub const OVERLOADED: &str = "overloaded";
    /// Heavy work rejected by the degradation tier.
    pub const SHED: &str = "shed";
    /// The deadline fired *during* the work (engine cancelled + rolled
    /// back — nothing was half-committed).
    pub const DEADLINE: &str = "deadline";
    /// The work finished but blew through its wall-clock budget before
    /// the result could be committed / sent (satellite: coarse
    /// wall-clock backstop over the per-level cancellation polls).
    pub const DEADLINE_OVERSHOOT: &str = "deadline_overshoot";
    /// A typed engine error ([`InstaError`](insta_engine::InstaError));
    /// the message carries the category.
    pub const ENGINE: &str = "engine";
    /// A panic was isolated by the connection supervisor.
    pub const INTERNAL: &str = "internal";
    /// The daemon is winding down.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The client's `version` field does not match
    /// [`PROTOCOL_VERSION`](super::PROTOCOL_VERSION); the message carries
    /// both generations.
    pub const VERSION_MISMATCH: &str = "version_mismatch";
    /// The durability layer could not make the commit durable (WAL append
    /// or fsync failed); the session was rolled back — nothing was
    /// committed or published.
    pub const DURABILITY: &str = "durability";
}

/// Opens a response body in a buffer with room for `reserve` more bytes:
/// `{"id":N,"epoch":E,"ok":B,"<member>":` — the caller appends the
/// member's value and the closing brace.
fn open_response(id: u64, epoch: u64, ok: bool, member: &str, reserve: usize) -> String {
    let mut out = String::with_capacity(64 + reserve);
    out.push_str("{\"id\":");
    write_f64(id as f64, &mut out);
    out.push_str(",\"epoch\":");
    write_f64(epoch as f64, &mut out);
    out.push_str(if ok { ",\"ok\":true,\"" } else { ",\"ok\":false,\"" });
    out.push_str(member);
    out.push_str("\":");
    out
}

/// Builds a success response body.
pub fn ok_response(id: u64, epoch: u64, result: Json) -> String {
    let mut out = open_response(id, epoch, true, "result", 192);
    result.write_to(&mut out);
    out.push('}');
    out
}

/// Builds a success response body around a result object that is already
/// wire text, handed over as the pieces it is spliced from (a per-request
/// head, then an epoch's shared image).
pub fn ok_response_text(id: u64, epoch: u64, result: &[&str]) -> String {
    let len = result.iter().map(|part| part.len()).sum();
    let mut out = open_response(id, epoch, true, "result", len);
    for part in result {
        out.push_str(part);
    }
    out.push('}');
    out
}

/// Builds an error response body.
pub fn err_response(
    id: u64,
    epoch: u64,
    code: &'static str,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut err = vec![
        ("code", Json::Str(code.to_owned())),
        ("message", Json::Str(message.to_owned())),
    ];
    if let Some(ms) = retry_after_ms {
        err.push(("retry_after_ms", ms.to_json()));
    }
    let mut out = open_response(id, epoch, false, "error", 64 + message.len());
    obj(err).write_to(&mut out);
    out.push('}');
    out
}

/// The envelope encoders as they were while a reply was one tree: the
/// oracle the buffer-writing ones above (and the daemon's spliced replies)
/// are compared with, byte for byte.
#[cfg(test)]
pub(crate) mod tree_oracle {
    use super::*;

    pub(crate) fn ok_response(id: u64, epoch: u64, result: Json) -> String {
        obj([
            ("id", id.to_json()),
            ("epoch", epoch.to_json()),
            ("ok", Json::Bool(true)),
            ("result", result),
        ])
        .to_string()
    }

    pub(crate) fn err_response(
        id: u64,
        epoch: u64,
        code: &'static str,
        message: &str,
        retry_after_ms: Option<u64>,
    ) -> String {
        let mut err = vec![
            ("code", Json::Str(code.to_owned())),
            ("message", Json::Str(message.to_owned())),
        ];
        if let Some(ms) = retry_after_ms {
            err.push(("retry_after_ms", ms.to_json()));
        }
        obj([
            ("id", id.to_json()),
            ("epoch", epoch.to_json()),
            ("ok", Json::Bool(false)),
            ("error", obj(err)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"id\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"{\"id\":1}");
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"");
        assert!(matches!(read_frame(&mut r, 1 << 20), Err(FrameError::Eof)));
    }

    /// Counts `write` calls; takes whatever it is handed, like a socket
    /// with buffer space.
    struct CountingWrite {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for len in [0, 28, 64 << 10] {
            let body = vec![b'x'; len];
            let mut w = CountingWrite {
                calls: 0,
                bytes: Vec::new(),
            };
            write_frame_bytes(&mut w, &body).unwrap();
            assert_eq!(w.calls, 1, "a {len}-byte body left in {} writes", w.calls);
            assert_eq!(w.bytes, [format!("{len}\n").as_bytes(), &body[..]].concat());
        }
    }

    /// The envelope writers spell what rendering the same members as one
    /// tree would: ids and epochs as `f64`s, escapes in messages.
    #[test]
    fn envelopes_equal_their_tree_rendering() {
        let result = obj([("pong", Json::Bool(true)), ("n", 2.5_f64.to_json())]);
        for (id, epoch) in [(1, 0), (42, 7), (u64::MAX, 1 << 53)] {
            let tree = tree_oracle::ok_response(id, epoch, result.clone());
            assert_eq!(ok_response(id, epoch, result.clone()), tree);
            let mut text = String::new();
            result.write_to(&mut text);
            let (head, tail) = text.split_at(9);
            assert_eq!(ok_response_text(id, epoch, &[head, tail]), tree);
            for retry in [None, Some(8)] {
                let message = "a \"quoted\"\nline \\ and \u{1} control";
                assert_eq!(
                    err_response(id, epoch, code::OVERLOADED, message, retry),
                    tree_oracle::err_response(id, epoch, code::OVERLOADED, message, retry)
                );
            }
        }
        for (deadline_ms, version, params) in [
            (None, None, Json::Null),
            (Some(250), Some(PROTOCOL_VERSION), result.clone()),
        ] {
            let req = Request {
                id: 9,
                op: Op::ReportAt,
                deadline_ms,
                version,
                params,
            };
            let mut pairs = vec![
                ("id", req.id.to_json()),
                ("op", Json::Str(req.op.name().to_owned())),
            ];
            pairs.extend(deadline_ms.map(|ms: u64| ("deadline_ms", ms.to_json())));
            pairs.extend(version.map(|v| ("version", v.to_json())));
            if req.params != Json::Null {
                pairs.push(("params", req.params.clone()));
            }
            assert_eq!(req.encode(), obj(pairs).to_string());
        }
    }

    #[test]
    fn bad_headers_and_truncation_are_typed() {
        let mut r = BufReader::new(&b"nonsense\n{}"[..]);
        assert!(matches!(
            read_frame(&mut r, 1 << 20),
            Err(FrameError::BadHeader(_))
        ));
        let mut r = BufReader::new(&b"5\nab"[..]);
        assert!(matches!(
            read_frame(&mut r, 1 << 20),
            Err(FrameError::Truncated {
                expected: 5,
                got: 2
            })
        ));
        // Over-cap lengths are refused before any allocation.
        let mut r = BufReader::new(&b"99999999\nx"[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::BadHeader(_))
        ));
        // A header longer than any sane length line is cut off.
        let long = vec![b'9'; 64];
        let mut r = BufReader::new(&long[..]);
        assert!(matches!(
            read_frame(&mut r, 1 << 20),
            Err(FrameError::BadHeader(_))
        ));
    }

    #[test]
    fn requests_round_trip_and_reject_garbage() {
        let req = Request {
            id: 42,
            op: Op::ReportSlack,
            deadline_ms: Some(250),
            version: Some(PROTOCOL_VERSION),
            params: obj([("min_epoch", 3.0_f64.to_json())]),
        };
        let back = Request::decode(req.encode().as_bytes()).unwrap();
        assert_eq!(back.id, 42);
        assert_eq!(back.op, Op::ReportSlack);
        assert_eq!(back.deadline_ms, Some(250));
        assert_eq!(back.version, Some(PROTOCOL_VERSION));
        assert_eq!(back.params.get::<u64>("min_epoch").unwrap(), 3);

        // A version-less request decodes as "don't check".
        let bare = Request::decode(br#"{"id":5,"op":"ping"}"#).unwrap();
        assert_eq!(bare.version, None);
        // A non-numeric version is a decode error that keeps the id.
        let err = Request::decode(br#"{"id":6,"op":"ping","version":"one"}"#).unwrap_err();
        assert_eq!(err.id, 6);

        // Salvages the id even when the op is unknown.
        let err = Request::decode(br#"{"id":7,"op":"nope"}"#).unwrap_err();
        assert_eq!(err.id, 7);
        let err = Request::decode(b"{not json").unwrap_err();
        assert_eq!(err.id, 0);
        assert!(Request::decode(br#"{"op":"ping"}"#).is_err(), "id required");
    }

    #[test]
    fn every_op_name_round_trips_and_has_a_kind() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "Op::ALL is in declaration order");
            assert_eq!(Op::from_name(op.name()), Some(op));
            let _ = op.kind();
        }
        assert_eq!(Op::Update.kind(), OpKind::Writer);
        assert_eq!(Op::Batch.kind(), OpKind::Heavy);
        assert_eq!(Op::Stats.kind(), OpKind::Control);
    }
}
