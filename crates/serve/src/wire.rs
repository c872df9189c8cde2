//! The `openserdes-serve/1` wire protocol: length-prefixed JSON frames
//! carrying the canonical [`Request`]/[`Response`] job vocabulary.
//!
//! Every frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON. Client → server frames are an
//! [`Envelope`]; server → client frames are a reply object holding
//! either a canonical `response` or an `error` string:
//!
//! ```text
//! {"schema":"openserdes-serve/1","tenant":"acme","priority":3,"seed":7,"request":{...}}
//! {"schema":"openserdes-serve/1","tenant":"acme","priority":3,"seed":7,"deadline_ms":250,"request":{...}}
//! {"schema":"openserdes-serve/1","response":{...}}
//! {"schema":"openserdes-serve/1","error":"..."}
//! ```
//!
//! `deadline_ms` is optional and backward-compatible on
//! `openserdes-serve/1`: an absent field means no deadline, and a
//! pre-deadline peer's frames parse unchanged.
//!
//! The `request` and `response` sub-documents are exactly
//! [`Request::to_canonical_json`] / [`Response::to_canonical_json`] —
//! the server and in-process [`openserdes_core::Session::submit`]
//! callers share one job vocabulary, byte for byte.

use openserdes_core::job::{Request, Response};
use openserdes_core::json;
use openserdes_core::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Wire protocol / schema tag, the `schema` field of every frame.
pub const SCHEMA: &str = "openserdes-serve/1";

/// Upper bound on a single frame's payload, against hostile prefixes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// One client → server job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Tenant the job bills to; fair-share scheduling round-robins
    /// across tenants.
    pub tenant: String,
    /// Shedding priority: under overload the lowest-priority queued
    /// job is dropped first.
    pub priority: u8,
    /// Run seed — half of the job's content address.
    pub seed: u64,
    /// Optional deadline in milliseconds from submission. A job still
    /// queued past its deadline is retired with a typed
    /// [`Response::DeadlineExceeded`](openserdes_core::job::Response)
    /// at dequeue instead of burning a worker. `None` (the field
    /// absent on the wire) means no deadline.
    pub deadline_ms: Option<u64>,
    /// The job itself.
    pub request: Request,
}

impl Envelope {
    /// Canonical encoding of the submission frame.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"tenant\":");
        json::push_quoted(&mut out, &self.tenant);
        let _ = write!(
            out,
            ",\"priority\":{},\"seed\":{},",
            self.priority, self.seed
        );
        if let Some(deadline_ms) = self.deadline_ms {
            let _ = write!(out, "\"deadline_ms\":{deadline_ms},");
        }
        out.push_str("\"request\":");
        out.push_str(&self.request.to_canonical_json());
        out.push('}');
        out
    }

    /// Parses a submission frame.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on malformed JSON, a wrong/missing schema tag,
    /// or a malformed embedded request.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let parse = |msg: String| Error::Parse(msg);
        let v = json::parse(text).map_err(parse)?;
        let obj = v.as_obj("envelope").map_err(parse)?;
        let schema = json::get(obj, "schema")
            .and_then(|s| s.as_str("schema").map(str::to_string))
            .map_err(parse)?;
        if schema != SCHEMA {
            return Err(Error::Parse(format!(
                "unsupported schema `{schema}` (expected `{SCHEMA}`)"
            )));
        }
        let priority = json::get(obj, "priority")
            .and_then(|p| p.as_u64("priority"))
            .map_err(parse)?;
        if priority > u64::from(u8::MAX) {
            return Err(Error::Parse(format!("priority {priority} exceeds 255")));
        }
        // Backward-compatible optional field: absent means no deadline,
        // present must be a valid u64.
        let deadline_ms = match json::get(obj, "deadline_ms") {
            Ok(v) => Some(v.as_u64("deadline_ms").map_err(parse)?),
            Err(_) => None,
        };
        Ok(Self {
            tenant: json::get(obj, "tenant")
                .and_then(|t| t.as_str("tenant").map(str::to_string))
                .map_err(parse)?,
            priority: priority as u8,
            seed: json::get(obj, "seed")
                .and_then(|s| s.as_u64("seed"))
                .map_err(parse)?,
            deadline_ms,
            request: json::get(obj, "request")
                .and_then(Request::from_value)
                .map_err(parse)?,
        })
    }
}

/// A success reply frame up to its response document: the bytes
/// [`ok_frame`] writes first and the client strips.
pub(crate) const OK_PREFIX: &str = "{\"schema\":\"openserdes-serve/1\",\"response\":";

/// Wraps a canonical response document into a success reply frame.
pub fn ok_frame(response_json: &str) -> String {
    let mut out = String::with_capacity(OK_PREFIX.len() + response_json.len() + 1);
    out.push_str(OK_PREFIX);
    out.push_str(response_json);
    out.push('}');
    out
}

/// Builds an error reply frame.
pub fn err_frame(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 32);
    out.push_str("{\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"error\":");
    json::push_quoted(&mut out, message);
    out.push('}');
    out
}

/// Parses a reply frame into `Ok(response)` or `Err(server message)`.
///
/// # Errors
///
/// [`Error::Parse`] when the frame itself is malformed (as opposed to
/// the server reporting a job failure, which is the inner `Err`).
pub fn parse_reply(text: &str) -> Result<Result<Response, String>, Error> {
    let parse = |msg: String| Error::Parse(msg);
    let v = json::parse(text).map_err(parse)?;
    let obj = v.as_obj("reply").map_err(parse)?;
    let schema = json::get(obj, "schema")
        .and_then(|s| s.as_str("schema").map(str::to_string))
        .map_err(parse)?;
    if schema != SCHEMA {
        return Err(Error::Parse(format!(
            "unsupported schema `{schema}` (expected `{SCHEMA}`)"
        )));
    }
    if let Ok(err) = json::get(obj, "error") {
        return Ok(Err(err.as_str("error").map_err(parse)?.to_string()));
    }
    json::get(obj, "response")
        .and_then(Response::from_value)
        .map(Ok)
        .map_err(parse)
}

/// The typed payload inside the `io::Error` a hostile length prefix
/// produces: the peer announced a frame larger than [`MAX_FRAME`].
/// The server answers this with a typed error reply and a clean close
/// instead of silently dropping the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OversizedFrame {
    /// The announced payload length in bytes.
    pub len: usize,
}

impl fmt::Display for OversizedFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peer announced a {}-byte frame (MAX_FRAME {MAX_FRAME} exceeded)",
            self.len
        )
    }
}

impl std::error::Error for OversizedFrame {}

/// Extracts the announced length from an oversized-prefix error, if
/// that is what `e` is.
pub fn oversized_len(e: &io::Error) -> Option<usize> {
    e.get_ref()?.downcast_ref::<OversizedFrame>().map(|o| o.len)
}

fn frame_len(payload: &[u8]) -> io::Result<[u8; 4]> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    Ok((payload.len() as u32).to_be_bytes())
}

fn check_len(len_buf: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            OversizedFrame { len },
        ));
    }
    Ok(len)
}

/// Whether `e` is an expired socket timeout (`SO_RCVTIMEO` or
/// `SO_SNDTIMEO`): Unix reports one as `WouldBlock`, Windows as
/// `TimedOut`. Both are a bounded wait expiring, not a transport fault.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame; `Ok(None)` on a clean close at a frame boundary.
/// Any read timeout set on the stream bounds every wait, including the
/// wait for the first byte.
pub fn read_frame_blocking(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut pos = 0usize;
    while pos < len_buf.len() {
        match stream.read(&mut len_buf[pos..]) {
            Ok(0) if pos == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-prefix",
                ))
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = check_len(len_buf)?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one frame. Prefix and payload go out as one buffer so a
/// frame never straddles a Nagle/delayed-ACK boundary.
pub fn write_frame_blocking(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = frame_len(payload)?;
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len);
    buf.extend_from_slice(payload);
    stream.write_all(&buf)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_core::job::SweepSpec;
    use openserdes_core::LinkConfig;

    #[test]
    fn envelope_round_trips() {
        let env = Envelope {
            tenant: "acme \"labs\"".into(),
            priority: 7,
            seed: u64::MAX,
            deadline_ms: None,
            request: Request::MaxLoss {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec::default(),
            },
        };
        let json = env.to_json();
        assert!(!json.contains("deadline_ms"), "absent field stays absent");
        let back = Envelope::from_json(&json).expect("parses");
        assert_eq!(back, env);
        assert_eq!(back.to_json(), json, "byte-identical re-encode");

        let with_deadline = Envelope {
            deadline_ms: Some(250),
            ..env
        };
        let json = with_deadline.to_json();
        assert!(json.contains("\"deadline_ms\":250,"));
        let back = Envelope::from_json(&json).expect("parses");
        assert_eq!(back, with_deadline);
        assert_eq!(back.to_json(), json, "byte-identical re-encode");
    }

    #[test]
    fn envelope_rejects_wrong_schema_and_priority() {
        assert!(Envelope::from_json("{\"schema\":\"bogus/9\"}").is_err());
        let env = Envelope {
            tenant: "t".into(),
            priority: 1,
            seed: 1,
            deadline_ms: None,
            request: Request::Lint {
                design: openserdes_core::job::DesignSpec::Serializer,
            },
        };
        let hacked = env.to_json().replace("\"priority\":1", "\"priority\":300");
        assert!(Envelope::from_json(&hacked).is_err());
    }

    #[test]
    fn reply_frames_round_trip() {
        assert_eq!(
            OK_PREFIX,
            format!("{{\"schema\":\"{SCHEMA}\",\"response\":")
        );
        let resp = Response::MaxLoss { max_loss_db: 33.5 };
        let frame = ok_frame(&resp.to_canonical_json());
        assert_eq!(parse_reply(&frame).expect("parses"), Ok(resp));
        let frame = err_frame("cdr failed to lock");
        assert_eq!(
            parse_reply(&frame).expect("parses"),
            Err("cdr failed to lock".to_string())
        );
        assert!(parse_reply("{\"schema\":\"openserdes-serve/1\"}").is_err());
    }

    #[test]
    fn blocking_framing_round_trips() {
        let mut buf = Vec::new();
        write_frame_blocking(&mut buf, b"hello").expect("writes");
        write_frame_blocking(&mut buf, b"").expect("writes");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame_blocking(&mut cursor).expect("reads"),
            Some(b"hello".to_vec())
        );
        assert_eq!(
            read_frame_blocking(&mut cursor).expect("reads"),
            Some(vec![])
        );
        assert_eq!(read_frame_blocking(&mut cursor).expect("reads"), None);
    }
}
