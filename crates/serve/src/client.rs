//! A minimal blocking client — what the tests, the bench, and scripted
//! sessions use to talk to the daemon.

use crate::protocol::{
    read_frame, take_member, write_frame, write_frame_bytes, FrameError, Op, Request,
    PROTOCOL_VERSION,
};
use insta_support::json::{parse, Json};
use std::io::{BufReader, Read, Write};

/// One end of a conversation with the daemon.
pub struct Client<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: W,
    next_id: u64,
    max_frame_bytes: usize,
    /// The `version` field stamped on every request.
    /// [`PROTOCOL_VERSION`] by default; override with
    /// [`with_version`](Self::with_version) to probe mismatch handling
    /// (or `None` to skip the check entirely).
    version: Option<u64>,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// The published epoch at reply time.
    pub epoch: u64,
    /// Success flag.
    pub ok: bool,
    /// The result object (`Null` on failure).
    pub result: Json,
    /// `(code, message, retry_after_ms)` on failure.
    pub error: Option<(String, String, Option<u64>)>,
}

impl Response {
    /// The error code, if this is a failure.
    pub fn code(&self) -> Option<&str> {
        self.error.as_ref().map(|(c, _, _)| c.as_str())
    }
}

/// Client-side failure: transport or an unparseable reply.
#[derive(Debug)]
pub enum ClientError {
    /// The stream broke.
    Frame(FrameError),
    /// The daemon's reply was not a response object.
    BadReply(String),
    /// Write-side I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::BadReply(m) => write!(f, "bad reply: {m}"),
            ClientError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl<R: Read, W: Write> Client<R, W> {
    /// Wraps the two halves of a stream.
    pub fn new(reader: R, writer: W) -> Self {
        Client {
            reader: BufReader::new(reader),
            writer,
            next_id: 1,
            max_frame_bytes: 64 << 20,
            version: Some(PROTOCOL_VERSION),
        }
    }

    /// Overrides the protocol version stamped on requests (`None` = omit
    /// the field, skipping the server-side check).
    pub fn with_version(mut self, version: Option<u64>) -> Self {
        self.version = version;
        self
    }

    /// Sends one request and blocks for its response.
    pub fn call(
        &mut self,
        op: Op,
        deadline_ms: Option<u64>,
        params: Json,
    ) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            op,
            deadline_ms,
            version: self.version,
            params,
        };
        write_frame(&mut self.writer, &req.encode()).map_err(ClientError::Io)?;
        self.read_response()
    }

    /// Sends raw bytes as a frame body, verbatim — invalid UTF-8
    /// included (the chaos tests' entry point).
    pub fn send_raw(&mut self, body: &[u8]) -> Result<(), ClientError> {
        write_frame_bytes(&mut self.writer, body).map_err(ClientError::Io)
    }

    /// Writes pre-framed bytes verbatim — corrupted frames included.
    pub fn send_frame_bytes(&mut self, frame: &[u8]) -> Result<(), ClientError> {
        self.writer.write_all(frame).map_err(ClientError::Io)?;
        self.writer.flush().map_err(ClientError::Io)
    }

    /// Reads and decodes the next response frame.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let body = read_frame(&mut self.reader, self.max_frame_bytes).map_err(ClientError::Frame)?;
        let text = std::str::from_utf8(&body)
            .map_err(|e| ClientError::BadReply(format!("non-UTF-8 reply: {e}")))?;
        let doc = parse(text).map_err(|e| ClientError::BadReply(e.to_string()))?;
        let ok = doc
            .get::<bool>("ok")
            .map_err(|e| ClientError::BadReply(e.to_string()))?;
        let error = if ok {
            None
        } else {
            let e = doc
                .field("error")
                .map_err(|e| ClientError::BadReply(e.to_string()))?;
            Some((
                e.get::<String>("code").unwrap_or_default(),
                e.get::<String>("message").unwrap_or_default(),
                e.get::<u64>("retry_after_ms").ok(),
            ))
        };
        let (id, epoch) = (doc.get("id").unwrap_or(0), doc.get("epoch").unwrap_or(0));
        let result = take_member(doc, "result");
        Ok(Response {
            id,
            epoch,
            ok,
            result,
            error,
        })
    }
}
