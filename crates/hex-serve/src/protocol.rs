//! The `hexd/1` wire protocol: length-prefixed frames around a versioned
//! text grammar.
//!
//! Everything here is std-only and byte-exact. A connection is a sequence
//! of request frames from the client, each answered by exactly one
//! response frame; frames are a 4-byte big-endian payload length followed
//! by the payload. Payloads are a single header line (fields separated by
//! single spaces, terminated by `\n`) optionally followed by a body whose
//! extent is the rest of the frame — no escaping, no chunking, no
//! trailing framing to misparse.
//!
//! ## Requests
//!
//! ```text
//! hexd/1 ping
//! hexd/1 stats
//! hexd/1 shutdown
//! hexd/1 query <skew|stabilize> <h>\n<canonical spec bytes>
//! ```
//!
//! The query body is exactly the [`hex_sim::canon`] encoding of the spec
//! to run; `h` is the fault-exclusion hop count of the reduction.
//!
//! ## Responses
//!
//! ```text
//! hexd/1 ok <cached> <engine-version> <query-hash-hex>\n<result bytes>
//! hexd/1 err <code>\n<message>
//! hexd/1 pong
//! hexd/1 bye
//! ```
//!
//! `cached` is `1` when the bytes were replayed (disk hit or coalesced
//! onto another request's computation) and `0` for the one connection
//! whose request actually computed. The result bytes of a given query
//! hash are **identical either way** — that is the service's contract,
//! pinned by the serve tests and the CI smoke job.
//!
//! ## The query hash
//!
//! [`Query::hash`] is the cache key and dedup identity: FNV-1a over the
//! engine-version tag, the query kind, `h`, and the canonical spec bytes.
//! Bumping [`hex_sim::canon::CANON_VERSION`] (or the `hex-sim` crate
//! version) therefore retires every cached result at once.

use std::io::{Read, Write};

use hex_sim::canon::{engine_version, fnv1a_64};

/// Protocol version token opening every header line.
pub const VERSION: &str = "hexd/1";

/// Frames larger than this are rejected without allocation — far above
/// any legitimate spec or result table, far below a memory hazard.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// What a query asks the daemon to reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Single-pulse skew statistics (`batch_skews` → skew summary table).
    Skew,
    /// Multi-pulse stabilization estimate (observed stabilization fold).
    Stabilize,
}

impl QueryKind {
    /// Wire token.
    pub fn token(self) -> &'static str {
        match self {
            QueryKind::Skew => "skew",
            QueryKind::Stabilize => "stabilize",
        }
    }

    fn from_token(t: &str) -> Result<Self, String> {
        match t {
            "skew" => Ok(QueryKind::Skew),
            "stabilize" => Ok(QueryKind::Stabilize),
            other => Err(format!("unknown query kind `{other}`")),
        }
    }
}

/// One sweep query: a reduction kind, its exclusion radius, and the
/// canonical bytes of the spec to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Which reduction to run.
    pub kind: QueryKind,
    /// Fault-exclusion hop count `h` of the reduction.
    pub h: usize,
    /// Canonical [`hex_sim::canon`] encoding of the spec.
    pub spec_bytes: Vec<u8>,
}

impl Query {
    /// The cache key and in-flight dedup identity of this query: FNV-1a
    /// over `(engine version, kind, h, canonical spec bytes)`. Stable
    /// across processes and machines for a given engine version.
    pub fn hash(&self) -> u64 {
        let mut keyed = Vec::with_capacity(self.spec_bytes.len() + 64);
        keyed.extend_from_slice(engine_version().as_bytes());
        keyed.push(0);
        keyed.extend_from_slice(self.kind.token().as_bytes());
        keyed.push(0);
        keyed.extend_from_slice(self.h.to_string().as_bytes());
        keyed.push(0);
        keyed.extend_from_slice(&self.spec_bytes);
        fnv1a_64(&keyed)
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ask for the daemon's counter snapshot (JSON body in the reply).
    Stats,
    /// Ask the daemon to stop accepting and drain.
    Shutdown,
    /// Run (or replay) a sweep reduction.
    Query(Query),
}

/// Machine-readable failure classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame, header, spec, or an over-limit spec.
    BadRequest,
    /// Admission queue full — retry later.
    Busy,
    /// The reduction itself failed (e.g. infeasible fault placement).
    ComputeFailed,
    /// The daemon is draining; no new work is admitted.
    ShuttingDown,
}

impl ErrorCode {
    /// Wire token.
    pub fn token(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Busy => "busy",
            ErrorCode::ComputeFailed => "compute_failed",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    fn from_token(t: &str) -> Result<Self, String> {
        match t {
            "bad_request" => Ok(ErrorCode::BadRequest),
            "busy" => Ok(ErrorCode::Busy),
            "compute_failed" => Ok(ErrorCode::ComputeFailed),
            "shutting_down" => Ok(ErrorCode::ShuttingDown),
            other => Err(format!("unknown error code `{other}`")),
        }
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Shutdown`].
    Bye,
    /// Successful query: the result bytes plus provenance.
    Ok {
        /// True iff the bytes were replayed rather than computed here.
        cached: bool,
        /// Engine-version tag the result was computed under.
        engine: String,
        /// The query hash the result is stored under.
        query_hash: u64,
        /// Result bytes (a deterministic `hex-analysis` table as JSON).
        payload: Vec<u8>,
    },
    /// Stats snapshot (JSON body).
    Stats(Vec<u8>),
    /// Failure.
    Err {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Framing.

/// Write one frame: 4-byte big-endian length, then the payload, handed to
/// the writer in a single `write_all`. Two writes would wake a peer
/// blocked in [`read_frame`] on the length alone, only for its payload
/// read to sleep again until the second write lands.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| oversize(payload.len() as u64))?;
    if len > MAX_FRAME {
        return Err(oversize(len as u64));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary (the peer
/// closed between requests); errors on truncation mid-frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(oversize(len as u64));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn oversize(len: u64) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
    )
}

// ---------------------------------------------------------------------------
// Payload grammar.

/// Split a payload into its header fields and body (bytes after the first
/// `\n`, empty if there is none), checking the version token.
fn split(payload: &[u8]) -> Result<(Vec<&str>, &[u8]), String> {
    let line_end = payload
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(payload.len());
    let (line, rest) = payload.split_at(line_end);
    let body = rest.strip_prefix(b"\n").unwrap_or(rest);
    let line = std::str::from_utf8(line).map_err(|e| format!("header not UTF-8: {e}"))?;
    let mut fields = line.split(' ');
    match fields.next() {
        Some(v) if v == VERSION => {}
        Some(v) => return Err(format!("unsupported protocol version `{v}`")),
        None => return Err("empty header".to_string()),
    }
    Ok((fields.collect(), body))
}

/// Encode a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => format!("{VERSION} ping").into_bytes(),
        Request::Stats => format!("{VERSION} stats").into_bytes(),
        Request::Shutdown => format!("{VERSION} shutdown").into_bytes(),
        Request::Query(q) => {
            let mut p = format!("{VERSION} query {} {}\n", q.kind.token(), q.h).into_bytes();
            p.extend_from_slice(&q.spec_bytes);
            p
        }
    }
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let (fields, body) = split(payload)?;
    match fields.first().copied() {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("query") => {
            let kind = QueryKind::from_token(fields.get(1).copied().unwrap_or(""))?;
            let h = fields
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("malformed exclusion radius")?;
            if body.is_empty() {
                return Err("query without a spec body".to_string());
            }
            Ok(Request::Query(Query {
                kind,
                h,
                spec_bytes: body.to_vec(),
            }))
        }
        Some(other) => Err(format!("unknown request verb `{other}`")),
        None => Err("request without a verb".to_string()),
    }
}

/// Encode a response payload (frame it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong => format!("{VERSION} pong").into_bytes(),
        Response::Bye => format!("{VERSION} bye").into_bytes(),
        Response::Ok {
            cached,
            engine,
            query_hash,
            payload,
        } => {
            let mut p = format!(
                "{VERSION} ok {} {engine} {query_hash:016x}\n",
                u8::from(*cached)
            )
            .into_bytes();
            p.extend_from_slice(payload);
            p
        }
        Response::Stats(body) => {
            let mut p = format!("{VERSION} stats\n").into_bytes();
            p.extend_from_slice(body);
            p
        }
        Response::Err { code, message } => {
            let mut p = format!("{VERSION} err {}\n", code.token()).into_bytes();
            p.extend_from_slice(message.as_bytes());
            p
        }
    }
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let (fields, body) = split(payload)?;
    match fields.first().copied() {
        Some("pong") => Ok(Response::Pong),
        Some("bye") => Ok(Response::Bye),
        Some("ok") => {
            let cached = match fields.get(1).copied() {
                Some("0") => false,
                Some("1") => true,
                other => return Err(format!("malformed cached flag {other:?}")),
            };
            let engine = fields.get(2).copied().ok_or("missing engine tag")?;
            let query_hash = fields
                .get(3)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("malformed query hash")?;
            Ok(Response::Ok {
                cached,
                engine: engine.to_string(),
                query_hash,
                payload: body.to_vec(),
            })
        }
        Some("stats") => Ok(Response::Stats(body.to_vec())),
        Some("err") => {
            let code = ErrorCode::from_token(fields.get(1).copied().unwrap_or(""))?;
            Ok(Response::Err {
                code,
                message: String::from_utf8_lossy(body).into_owned(),
            })
        }
        Some(other) => Err(format!("unknown response verb `{other}`")),
        None => Err("response without a verb".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_sim::RunSpec;

    fn query() -> Query {
        Query {
            kind: QueryKind::Skew,
            h: 1,
            spec_bytes: RunSpec::grid(6, 5).runs(3).canonical_bytes(),
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Query(query()),
            Request::Query(Query {
                kind: QueryKind::Stabilize,
                h: 0,
                spec_bytes: b"opaque to the protocol layer".to_vec(),
            }),
        ] {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Pong,
            Response::Bye,
            Response::Ok {
                cached: true,
                engine: hex_sim::canon::engine_version(),
                query_hash: 0xdead_beef_0042_0042,
                payload: b"{\"table\":\"skew_summary\"}\n".to_vec(),
            },
            Response::Stats(b"{\"computations\":3}".to_vec()),
            Response::Err {
                code: ErrorCode::Busy,
                message: "admission queue full".to_string(),
            },
        ] {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // Truncation mid-payload is an error, not EOF. (Truncation inside
        // the 4-byte length prefix itself is indistinguishable from a
        // peer closing at a boundary and reads as EOF by design.)
        let mut t = &buf[..6];
        assert!(read_frame(&mut t).is_err());
    }

    /// A `Write` that takes every byte it is offered and counts the
    /// `write` calls that offered them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let payload = encode_request(&Request::Query(query()));
        let mut w = CountingWriter::default();
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.writes, 1, "length and payload must go out together");
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "bytes after the frame"
        );
    }

    #[test]
    fn oversize_frames_are_rejected_without_allocation() {
        let huge = (MAX_FRAME + 1).to_be_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for bad in [
            &b""[..],
            b"hexd/9 ping",
            b"hexd/1 warp",
            b"hexd/1 query skew",
            b"hexd/1 query skew nope\nspec",
            b"hexd/1 query skew 1",
        ] {
            assert!(decode_request(bad).is_err(), "{bad:?} accepted");
        }
        assert!(decode_response(b"hexd/1 ok 2 e 00\nx").is_err());
    }

    #[test]
    fn query_hash_covers_kind_radius_and_engine() {
        let q = query();
        let mut other_kind = q.clone();
        other_kind.kind = QueryKind::Stabilize;
        let mut other_h = q.clone();
        other_h.h = 2;
        let mut other_spec = q.clone();
        other_spec.spec_bytes = RunSpec::grid(6, 5).runs(4).canonical_bytes();
        let hashes = [
            q.hash(),
            other_kind.hash(),
            other_h.hash(),
            other_spec.hash(),
        ];
        let mut unique = hashes.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hashes.len(), "query hash ignored a field");
        // Stable across calls (and, with a fixed engine version, across
        // processes — the serve tests pin a golden value).
        assert_eq!(q.hash(), query().hash());
    }
}
