//! The length-prefixed binary codec for the unified
//! [`Request`]`→`[`Response`](apc_store::Response) envelope (protocol
//! spec: `docs/WIRE.md`).
//!
//! A message travels as the payload `| version: u8 | kind: u8 | body |` of
//! one [`apc_store::frame`] frame, written with that module's primitives as
//! the WAL's frames are; this module owns the payload schema, the 1 MiB cap
//! and the stream policy. A frame that is merely *incomplete* is "awaiting
//! more bytes" while the stream lives (the streaming [`FrameReader`]
//! returns `Ok(None)`); the same bytes at stream close are a **torn tail**
//! and the connection fails closed. A frame that is *wrong* — oversized
//! length prefix, checksum mismatch, unknown version/kind/discriminant,
//! trailing bytes, non-UTF-8 keys — always fails closed: no partial decode
//! is ever surfaced. `Option<u64>`/`Option<u32>` are `tag: u8 (0|1) | value
//! if 1`.

use std::fmt;

use apc_store::frame::{self, put_str, put_u32, put_u64, Cursor, Fault, Next};
use apc_store::{
    key_from, DurabilityClass, Request, StoreError, StoreOp, StoreResp, TierCredential,
};

/// Protocol version carried by every frame (`docs/WIRE.md`).
pub const WIRE_VERSION: u8 = 1;

/// Decode sanity cap on a frame's payload length: anything larger fails
/// closed as [`CodecError::FrameTooLarge`] before a byte of payload is
/// buffered beyond it. Tighter than the WAL's 16 MiB cap — a wire
/// front-end bounds per-connection memory, not a trusted local log.
pub const MAX_WIRE_PAYLOAD: u32 = 1 << 20;

/// Sanity cap on decoded list lengths (ops per request, results per
/// response, entries per scan result).
pub const MAX_WIRE_LIST: u32 = 1 << 16;

/// Frame kind: the connection handshake ([`Message::Hello`]).
pub const KIND_HELLO: u8 = 1;
/// Frame kind: one request envelope ([`Message::Request`]).
pub const KIND_REQUEST: u8 = 2;
/// Frame kind: one response envelope ([`Message::Response`]).
pub const KIND_RESPONSE: u8 = 3;

/// Bytes a frame spends on framing around its payload (length prefix +
/// checksum).
pub const FRAME_OVERHEAD: usize = frame::OVERHEAD;

/// One per-operation outcome as it travels the wire.
pub type WireResult = Result<StoreResp, StoreError>;

/// A decoded frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// The connection handshake: the claimed tier credential. Must be the
    /// first (and only) `Hello` on a connection.
    Hello(TierCredential),
    /// A pipelined request: correlation id + the unified envelope.
    Request {
        /// Client-chosen correlation id, echoed by the response.
        id: u64,
        /// The envelope, exactly as [`apc_store::Client::request`] takes it.
        req: Request,
    },
    /// A response: correlation id + per-operation outcomes.
    Response {
        /// The correlation id of the request this answers.
        id: u64,
        /// Per-operation outcomes in invocation order.
        results: Vec<WireResult>,
    },
}

/// Why a frame (or stream) failed to decode. Every variant fails closed:
/// the reactor drops the connection rather than guessing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The length prefix exceeds [`MAX_WIRE_PAYLOAD`].
    FrameTooLarge {
        /// The claimed payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// A body field ran past the end of its payload (or a closed stream
    /// ended mid-frame — the torn tail).
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload does not match its FNV-1a trailer.
    ChecksumMismatch,
    /// The frame speaks a protocol version this build does not.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// An unknown kind/tag/discriminant byte.
    UnknownDiscriminant {
        /// Which field carried it.
        what: &'static str,
        /// The byte found.
        found: u8,
    },
    /// The body decoded completely but bytes remain — a framing bug, not
    /// tolerated.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// A wire string is not valid UTF-8.
    BadUtf8,
    /// A decoded list length exceeds [`MAX_WIRE_LIST`].
    OversizedList {
        /// The claimed element count.
        len: u32,
        /// The configured cap.
        max: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::FrameTooLarge { len, max } => {
                write!(f, "frame payload length {len} exceeds the {max}-byte cap")
            }
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::BadVersion { found } => {
                write!(f, "unsupported wire version {found} (this build speaks {WIRE_VERSION})")
            }
            CodecError::UnknownDiscriminant { what, found } => {
                write!(f, "unknown {what} discriminant {found}")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete body")
            }
            CodecError::BadUtf8 => write!(f, "wire string is not valid UTF-8"),
            CodecError::OversizedList { len, max } => {
                write!(f, "list length {len} exceeds the {max}-element cap")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<Fault> for CodecError {
    fn from(fault: Fault) -> Self {
        match fault {
            Fault::Truncated { needed, available } => CodecError::Truncated { needed, available },
            Fault::BadUtf8 => CodecError::BadUtf8,
            Fault::TrailingBytes { extra } => CodecError::TrailingBytes { extra },
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

/// Encodes the handshake frame.
pub fn encode_hello(credential: &TierCredential) -> Vec<u8> {
    let mut out = Vec::new();
    let start = frame::begin(&mut out);
    out.extend_from_slice(&[WIRE_VERSION, KIND_HELLO]);
    put_credential(&mut out, credential);
    frame::seal(&mut out, start);
    out
}

fn put_credential(p: &mut Vec<u8>, credential: &TierCredential) {
    match credential {
        TierCredential::Guest => p.push(0),
        TierCredential::Vip { token } => {
            p.push(1);
            put_u64(p, *token);
        }
    }
}

fn put_op(p: &mut Vec<u8>, op: &StoreOp) {
    match op {
        StoreOp::Get(key) => {
            p.push(0);
            put_str(p, key);
        }
        StoreOp::Put(key, value) => {
            p.push(1);
            put_str(p, key);
            put_u64(p, *value);
        }
        StoreOp::Remove(key) => {
            p.push(2);
            put_str(p, key);
        }
        StoreOp::Cas { key, expect, new } => {
            p.push(3);
            put_str(p, key);
            put_opt_u64(p, *expect);
            put_u64(p, *new);
        }
        StoreOp::Scan { from, to } => {
            p.push(4);
            put_str(p, from);
            put_str(p, to);
        }
    }
}

/// Encodes one request frame: correlation id + the unified envelope.
/// Keeping it within [`MAX_WIRE_PAYLOAD`] is the caller's job: the peer
/// fails closed on a larger one.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    let start = frame::begin(&mut out);
    out.extend_from_slice(&[WIRE_VERSION, KIND_REQUEST]);
    put_u64(&mut out, id);
    match req.durability {
        DurabilityClass::Group => out.push(0),
        DurabilityClass::Sync => out.push(1),
    }
    match req.deadline_ms {
        None => out.push(0),
        Some(ms) => {
            out.push(1);
            put_u32(&mut out, ms);
        }
    }
    put_u32(&mut out, req.retry_budget);
    put_credential(&mut out, &req.credential);
    put_u32(&mut out, req.ops.len() as u32);
    for op in &req.ops {
        put_op(&mut out, op);
    }
    frame::seal(&mut out, start);
    out
}

/// Encodes one response frame into a new buffer: [`encode_response_into`]
/// an empty `Vec`.
pub fn encode_response(id: u64, results: &[WireResult]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, id, results);
    out
}

/// Appends one response frame to `out`, leaving what `out` held before
/// untouched — the reactor clears and reuses one buffer for every
/// response it sends. Nothing is allocated but `out`'s own growth: each
/// result is sized first and then written straight into the frame, whose
/// length prefix and checksum are filled in last.
///
/// The wire vocabulary is **normalized**: a shard's in-band bounce
/// [`StoreResp::Moved`] is encoded as its [`StoreError::Moved`] twin
/// (wire discriminant `1`), so a wire peer sees exactly one error surface.
///
/// ## The encode-side payload cap
///
/// The response is the one frame whose size the *receiving* peer cannot
/// control — a bounded request (a `Scan` is ~12 bytes) can legitimately
/// produce an unbounded reply. Emitting a payload beyond
/// [`MAX_WIRE_PAYLOAD`] would make the peer's own decoder fail closed and
/// poison the whole stream, turning a large scan into a torn connection.
/// So the cap is enforced **here, at encode**: when the results would
/// overflow the payload budget, every result larger than its fair share
/// of the budget (`budget / results.len()`) is replaced by a typed
/// [`StoreError::Corrupt`] whose detail starts with `oversized:` — a
/// valid, in-cap frame where the oversized operations (and only those)
/// fail closed *individually*, telling the caller to narrow the
/// operation. Results that fit their share are transmitted untouched.
/// (`docs/WIRE.md` § "Oversized responses" is the normative text.)
pub fn encode_response_into(out: &mut Vec<u8>, id: u64, results: &[WireResult]) {
    encode_results_into(out, id, results.iter());
}

/// Appends the response frame that refuses every one of a request's `ops`
/// with the same `err`: the bytes [`encode_response_into`] writes for
/// `Response::fail_all(ops, err).results`, with no results vector built.
pub(crate) fn encode_refusal_into(out: &mut Vec<u8>, id: u64, ops: usize, err: StoreError) {
    encode_results_into(out, id, std::iter::repeat_n(&Err(err), ops));
}

/// [`encode_response_into`] over any re-walkable run of results.
fn encode_results_into<'r>(
    out: &mut Vec<u8>,
    id: u64,
    results: impl ExactSizeIterator<Item = &'r WireResult> + Clone,
) {
    // The payload's head: version, kind, id, result count.
    const HEAD: usize = 2 + 8 + 4;
    let budget = MAX_WIRE_PAYLOAD as usize - HEAD;
    let body: usize = results.clone().map(result_len).sum();
    out.reserve(FRAME_OVERHEAD + HEAD + body.min(budget));
    let start = frame::begin(out);
    out.extend_from_slice(&[WIRE_VERSION, KIND_RESPONSE]);
    put_u64(out, id);
    put_u32(out, results.len() as u32);
    if body <= budget {
        for result in results {
            put_result(out, result);
        }
    } else {
        // Overflow: fair-share replacement. Every kept result and every
        // replacement is at most `share` bytes, so the payload stays in
        // cap for any result count the decoder's list cap admits.
        let share = budget / results.len().max(1);
        for result in results {
            match result_len(result) {
                len if len <= share => put_result(out, result),
                len => put_oversize_err(out, len, share),
            }
        }
    }
    frame::seal(out, start);
}

/// One result's wire bytes, with the in-band bounce normalized to its
/// error twin.
fn put_result(p: &mut Vec<u8>, result: &WireResult) {
    let before = p.len();
    match result {
        Ok(StoreResp::Moved { epoch }) => put_err(p, &StoreError::Moved { epoch: *epoch }),
        Ok(resp) => {
            p.push(0);
            put_resp(p, resp);
        }
        Err(err) => put_err(p, err),
    }
    debug_assert_eq!(p.len() - before, result_len(result), "result_len prices put_result");
}

/// The bytes [`put_result`] writes for `result`.
fn result_len(result: &WireResult) -> usize {
    let opt_u64 = |v: &Option<u64>| 1 + v.map_or(0, |_| 8);
    // The result tag, then the response's or the error's discriminant.
    2 + match result {
        Ok(StoreResp::Value(v)) => opt_u64(v),
        Ok(StoreResp::Cas { actual, .. }) => 1 + opt_u64(actual),
        Ok(StoreResp::Entries(entries)) => {
            4 + entries.iter().map(|(k, _)| 4 + k.len() + 8).sum::<usize>()
        }
        Ok(StoreResp::Moved { .. }) => 8,
        Err(err) => match err {
            StoreError::Moved { .. } | StoreError::Unavailable { .. } => 8,
            StoreError::GuestTier => 0,
            StoreError::RetryBudgetExhausted { .. } | StoreError::DeadlineExceeded { .. } => 4,
            StoreError::Corrupt { detail } => 4 + detail.len(),
            other => 4 + other.to_string().len(),
        },
    }
}

/// The typed oversize signal: a [`StoreError::Corrupt`] whose detail names
/// the dropped result's size, truncated so the whole encoding fits in
/// `budget` bytes (result tag + discriminant + string header cost 6).
fn put_oversize_err(p: &mut Vec<u8>, dropped: usize, budget: usize) {
    let mut detail =
        format!("oversized: {dropped}-byte result exceeds the wire payload cap; narrow the scan");
    detail.truncate(budget.saturating_sub(6)); // ASCII-only: safe to cut anywhere
    put_err(p, &StoreError::Corrupt { detail });
}

fn put_resp(p: &mut Vec<u8>, resp: &StoreResp) {
    match resp {
        StoreResp::Value(v) => {
            p.push(0);
            put_opt_u64(p, *v);
        }
        StoreResp::Cas { ok, actual } => {
            p.push(1);
            p.push(u8::from(*ok));
            put_opt_u64(p, *actual);
        }
        StoreResp::Entries(entries) => {
            p.push(2);
            put_u32(p, entries.len() as u32);
            for (k, v) in entries {
                put_str(p, k);
                put_u64(p, *v);
            }
        }
        // Normalized to errors by `put_result`, the one caller; kept
        // total here.
        StoreResp::Moved { epoch } => {
            p.push(3);
            put_u64(p, *epoch);
        }
    }
}

fn put_err(p: &mut Vec<u8>, err: &StoreError) {
    p.push(1); // result tag: error
    match err {
        StoreError::Moved { epoch } => {
            p.push(err.wire_discriminant());
            put_u64(p, *epoch);
        }
        StoreError::GuestTier => p.push(err.wire_discriminant()),
        StoreError::RetryBudgetExhausted { budget } => {
            p.push(err.wire_discriminant());
            put_u32(p, *budget);
        }
        StoreError::Unavailable { version } => {
            p.push(err.wire_discriminant());
            put_u64(p, *version);
        }
        StoreError::Corrupt { detail } => {
            p.push(err.wire_discriminant());
            put_str(p, detail);
        }
        StoreError::DeadlineExceeded { deadline_ms } => {
            p.push(err.wire_discriminant());
            put_u32(p, *deadline_ms);
        }
        // `StoreError` is non_exhaustive: a variant this codec predates
        // degrades to wire `Corrupt` carrying its display text, so old
        // peers fail closed on the payload rather than misdecoding it.
        other => {
            p.push(5);
            put_str(p, &other.to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn opt_u64(rd: &mut Cursor<'_>) -> Result<Option<u64>, CodecError> {
    match rd.u8()? {
        0 => Ok(None),
        1 => Ok(Some(rd.u64()?)),
        found => Err(CodecError::UnknownDiscriminant { what: "option", found }),
    }
}

fn list_len(rd: &mut Cursor<'_>) -> Result<u32, CodecError> {
    let len = rd.u32()?;
    if len > MAX_WIRE_LIST {
        return Err(CodecError::OversizedList { len, max: MAX_WIRE_LIST });
    }
    Ok(len)
}

fn read_credential(rd: &mut Cursor<'_>) -> Result<TierCredential, CodecError> {
    match rd.u8()? {
        0 => Ok(TierCredential::Guest),
        1 => Ok(TierCredential::Vip { token: rd.u64()? }),
        found => Err(CodecError::UnknownDiscriminant { what: "credential", found }),
    }
}

fn read_op(rd: &mut Cursor<'_>) -> Result<StoreOp, CodecError> {
    let key = |rd: &mut Cursor<'_>| rd.str().map(key_from);
    Ok(match rd.u8()? {
        0 => StoreOp::Get(key(rd)?),
        1 => StoreOp::Put(key(rd)?, rd.u64()?),
        2 => StoreOp::Remove(key(rd)?),
        3 => StoreOp::Cas { key: key(rd)?, expect: opt_u64(rd)?, new: rd.u64()? },
        4 => StoreOp::Scan { from: key(rd)?, to: key(rd)? },
        found => return Err(CodecError::UnknownDiscriminant { what: "op", found }),
    })
}

/// Reads past one op, checking what [`read_op`] checks.
fn skip_op(rd: &mut Cursor<'_>) -> Result<(), CodecError> {
    match rd.u8()? {
        0 | 2 => {
            rd.str()?;
        }
        1 => {
            rd.str()?;
            rd.u64()?;
        }
        3 => {
            rd.str()?;
            opt_u64(rd)?;
            rd.u64()?;
        }
        4 => {
            rd.str()?;
            rd.str()?;
        }
        found => return Err(CodecError::UnknownDiscriminant { what: "op", found }),
    }
    Ok(())
}

fn read_result(rd: &mut Cursor<'_>) -> Result<WireResult, CodecError> {
    match rd.u8()? {
        0 => {
            let resp = match rd.u8()? {
                0 => StoreResp::Value(opt_u64(rd)?),
                1 => {
                    let ok = match rd.u8()? {
                        0 => false,
                        1 => true,
                        found => {
                            return Err(CodecError::UnknownDiscriminant { what: "bool", found })
                        }
                    };
                    StoreResp::Cas { ok, actual: opt_u64(rd)? }
                }
                2 => {
                    let len = list_len(rd)?;
                    let mut entries = Vec::new();
                    for _ in 0..len {
                        let k = rd.str()?.into();
                        let v = rd.u64()?;
                        entries.push((k, v));
                    }
                    StoreResp::Entries(entries)
                }
                3 => StoreResp::Moved { epoch: rd.u64()? },
                found => return Err(CodecError::UnknownDiscriminant { what: "resp", found }),
            };
            Ok(Ok(resp))
        }
        1 => {
            let err = match rd.u8()? {
                1 => StoreError::Moved { epoch: rd.u64()? },
                2 => StoreError::GuestTier,
                3 => StoreError::RetryBudgetExhausted { budget: rd.u32()? },
                4 => StoreError::Unavailable { version: rd.u64()? },
                5 => StoreError::Corrupt { detail: rd.str()?.into() },
                6 => StoreError::DeadlineExceeded { deadline_ms: rd.u32()? },
                found => return Err(CodecError::UnknownDiscriminant { what: "error", found }),
            };
            Ok(Err(err))
        }
        found => Err(CodecError::UnknownDiscriminant { what: "result", found }),
    }
}

/// Reads a payload's version byte and returns its kind byte.
fn read_kind(rd: &mut Cursor<'_>) -> Result<u8, CodecError> {
    let version = rd.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::BadVersion { found: version });
    }
    Ok(rd.u8()?)
}

/// A request's fields before its ops: its correlation id, the envelope
/// without its ops, and the op count.
fn read_request_head(rd: &mut Cursor<'_>) -> Result<(u64, Request, u32), CodecError> {
    let id = rd.u64()?;
    let durability = match rd.u8()? {
        0 => DurabilityClass::Group,
        1 => DurabilityClass::Sync,
        found => return Err(CodecError::UnknownDiscriminant { what: "durability", found }),
    };
    let deadline_ms = match rd.u8()? {
        0 => None,
        1 => Some(rd.u32()?),
        found => return Err(CodecError::UnknownDiscriminant { what: "deadline", found }),
    };
    let retry_budget = rd.u32()?;
    let credential = read_credential(rd)?;
    let n = list_len(rd)?;
    // An empty `Vec` does not allocate.
    let head = Request { ops: Vec::new(), credential, durability, deadline_ms, retry_budget };
    Ok((id, head, n))
}

/// Decodes one complete frame payload (as returned by
/// [`FrameReader::next_payload`]) into a [`Message`]. Fails closed on any
/// structural fault.
pub fn decode_message(payload: &[u8]) -> Result<Message, CodecError> {
    let mut rd = Cursor::new(payload);
    let msg = match read_kind(&mut rd)? {
        KIND_HELLO => Message::Hello(read_credential(&mut rd)?),
        KIND_REQUEST => {
            let (id, mut req, n) = read_request_head(&mut rd)?;
            // Sized once: an op is at least 5 bytes (tag + string length),
            // so the payload's size bounds the count a lying prefix can claim.
            req.ops = Vec::with_capacity((n as usize).min(payload.len() / 5));
            for _ in 0..n {
                req.ops.push(read_op(&mut rd)?);
            }
            Message::Request { id, req }
        }
        KIND_RESPONSE => {
            let id = rd.u64()?;
            let n = list_len(&mut rd)?;
            let mut results = Vec::new();
            for _ in 0..n {
                results.push(read_result(&mut rd)?);
            }
            Message::Response { id, results }
        }
        found => return Err(CodecError::UnknownDiscriminant { what: "kind", found }),
    };
    rd.finish()?;
    Ok(msg)
}

/// Validates a request payload as [`decode_message`] does — the head,
/// every op's tag, string lengths and UTF-8, then the payload's end — and
/// returns its correlation id, retry budget and op count, allocating
/// nothing. It fails where [`decode_message`] fails, and on a well-formed
/// payload of another kind. This is all the reactor reads of a request it
/// sheds; [`encode_refusal_into`] writes the answer.
pub(crate) fn read_request_header(payload: &[u8]) -> Result<(u64, u32, usize), CodecError> {
    let mut rd = Cursor::new(payload);
    match read_kind(&mut rd)? {
        KIND_REQUEST => {}
        found => return Err(CodecError::UnknownDiscriminant { what: "request kind", found }),
    }
    let (id, head, n) = read_request_head(&mut rd)?;
    for _ in 0..n {
        skip_op(&mut rd)?;
    }
    rd.finish()?;
    Ok((id, head.retry_budget, n as usize))
}

/// The streaming frame extractor: push raw connection bytes in, pull
/// complete checksum-verified payloads out.
///
/// Splits frames with [`frame::next`]: an incomplete frame is `Ok(None)`
/// ("await more bytes") while the stream lives; [`FrameReader::buffered`]
/// at stream close detects the torn tail so the connection can fail
/// closed. A structurally wrong frame — oversized length prefix, checksum
/// mismatch — is an immediate error and poisons the stream (every later
/// call returns the same error).
///
/// A payload is lent out of the reader's own buffer, not copied: frames
/// are read at a cursor, and the bytes behind it are dropped once per
/// [`FrameReader::push`], not once per frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already handed out as frames.
    read: usize,
    poisoned: Option<CodecError>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends raw bytes received from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.read);
        self.read = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame. Non-zero
    /// at stream close means a torn tail.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Extracts the next complete, checksum-verified frame payload, lent
    /// until the reader is next used. `Ok(None)` means "no complete frame
    /// yet — feed more bytes".
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, CodecError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let err = match frame::next(&self.buf[self.read..], MAX_WIRE_PAYLOAD) {
            Next::Frame(payload, end) => {
                self.read += end;
                return Ok(Some(payload));
            }
            Next::Short(_) => return Ok(None),
            Next::OverCap(len) => CodecError::FrameTooLarge { len, max: MAX_WIRE_PAYLOAD },
            Next::BadChecksum(_) => CodecError::ChecksumMismatch,
        };
        self.poisoned = Some(err.clone());
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::new(vec![
            StoreOp::Get("alpha".into()),
            StoreOp::Put("beta".into(), 7),
            StoreOp::Cas { key: "gamma".into(), expect: Some(1), new: 2 },
            StoreOp::Scan { from: "a".into(), to: "z".into() },
            StoreOp::Remove("delta".into()),
        ])
        .credential(TierCredential::Vip { token: 42 })
        .durability(DurabilityClass::Sync)
        .deadline_ms(250)
        .retry_budget(8)
    }

    fn decode_one(frame: &[u8]) -> Message {
        let mut reader = FrameReader::new();
        reader.push(frame);
        let msg = decode_message(reader.next_payload().unwrap().expect("one complete frame"));
        assert_eq!(reader.buffered(), 0);
        msg.unwrap()
    }

    /// Lowercase hex of `bytes`, for the format pins.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Format pins: the exact bytes of one frame of each kind — a `Hello`,
    /// a `Request` carrying every op kind, and a `Response` carrying every
    /// result and error kind. Any change to the wire format fails here,
    /// whatever the roundtrip tests still accept.
    #[test]
    fn format_pins_every_frame_kind() {
        let hello = encode_hello(&TierCredential::Vip { token: 42 });
        let pin = concat!(
            "0b000000", // payload_len 11
            "01",
            "01", // version 1, Hello
            "01",
            "2a00000000000000", // Vip { token: 42 }
            "a8f7a870e1c140b6", // fnv1a64(payload)
        );
        assert_eq!(hex(&hello), pin);
        assert_eq!(decode_one(&hello), Message::Hello(TierCredential::Vip { token: 42 }));

        let request = encode_request(99, &sample_request());
        let pin = concat!(
            "6c000000", // payload_len 108
            "01",
            "02",               // version 1, Request
            "6300000000000000", // id 99
            "01",               // Sync
            "01",
            "fa000000", // deadline 250 ms
            "08000000", // retry budget 8
            "01",
            "2a00000000000000", // Vip { token: 42 }
            "05000000",         // five ops
            "00",
            "05000000",
            "616c706861", // Get "alpha"
            "01",
            "04000000",
            "62657461",
            "0700000000000000", // Put "beta" 7
            "03",
            "05000000",
            "67616d6d61",
            "01",
            "0100000000000000",
            "0200000000000000", // Cas
            "04",
            "01000000",
            "61",
            "01000000",
            "7a", // Scan "a".."z"
            "02",
            "05000000",
            "64656c7461",       // Remove "delta"
            "bd6c8259893696a3", // fnv1a64(payload)
        );
        assert_eq!(hex(&request), pin);
        assert_eq!(decode_one(&request), Message::Request { id: 99, req: sample_request() });

        let results: Vec<WireResult> = vec![
            Ok(StoreResp::Value(Some(3))),
            Ok(StoreResp::Value(None)),
            Ok(StoreResp::Cas { ok: true, actual: None }),
            Ok(StoreResp::Cas { ok: false, actual: Some(2) }),
            Ok(StoreResp::Entries(vec![("k".into(), 9), ("l".into(), 10)])),
            Ok(StoreResp::Moved { epoch: 4 }),
            Err(StoreError::Moved { epoch: 5 }),
            Err(StoreError::GuestTier),
            Err(StoreError::RetryBudgetExhausted { budget: 5 }),
            Err(StoreError::Unavailable { version: 6 }),
            Err(StoreError::Corrupt { detail: "flush failed".into() }),
            Err(StoreError::DeadlineExceeded { deadline_ms: 250 }),
        ];
        let response = encode_response(7, &results);
        let pin = concat!(
            "8a000000", // payload_len 138
            "01",
            "03",               // version 1, Response
            "0700000000000000", // id 7
            "0c000000",         // twelve results
            "00",
            "00",
            "01",
            "0300000000000000", // Value(Some(3))
            "00",
            "00",
            "00", // Value(None)
            "00",
            "01",
            "01",
            "00", // Cas { ok, actual: None }
            "00",
            "01",
            "00",
            "01",
            "0200000000000000", // Cas { !ok, actual: Some(2) }
            "00",
            "02",
            "02000000", // Entries, two of them
            "01000000",
            "6b",
            "0900000000000000",
            "01000000",
            "6c",
            "0a00000000000000",
            "01",
            "01",
            "0400000000000000", // the bounce, as error Moved { 4 }
            "01",
            "01",
            "0500000000000000", // Moved { 5 }
            "01",
            "02", // GuestTier
            "01",
            "03",
            "05000000", // RetryBudgetExhausted { 5 }
            "01",
            "04",
            "0600000000000000", // Unavailable { 6 }
            "01",
            "05",
            "0c000000",
            "666c757368206661696c6564", // Corrupt "flush failed"
            "01",
            "06",
            "fa000000",         // DeadlineExceeded { 250 }
            "fa49b0af7d58cafd", // fnv1a64(payload)
        );
        assert_eq!(hex(&response), pin);
        let mut normalized = results;
        normalized[5] = Err(StoreError::Moved { epoch: 4 });
        assert_eq!(decode_one(&response), Message::Response { id: 7, results: normalized });
    }

    #[test]
    fn request_roundtrips() {
        let req = sample_request();
        let msg = decode_one(&encode_request(99, &req));
        assert_eq!(msg, Message::Request { id: 99, req });
    }

    #[test]
    fn hello_roundtrips() {
        for cred in [TierCredential::Guest, TierCredential::Vip { token: u64::MAX }] {
            assert_eq!(decode_one(&encode_hello(&cred)), Message::Hello(cred));
        }
    }

    #[test]
    fn response_roundtrips_and_normalizes_the_bounce() {
        let results: Vec<WireResult> = vec![
            Ok(StoreResp::Value(Some(3))),
            Ok(StoreResp::Cas { ok: true, actual: None }),
            Ok(StoreResp::Entries(vec![("k".into(), 9)])),
            Ok(StoreResp::Moved { epoch: 4 }),
            Err(StoreError::Unavailable { version: 6 }),
            Err(StoreError::GuestTier),
            Err(StoreError::RetryBudgetExhausted { budget: 5 }),
            Err(StoreError::Corrupt { detail: "flush failed".into() }),
            Err(StoreError::DeadlineExceeded { deadline_ms: 250 }),
        ];
        let msg = decode_one(&encode_response(7, &results));
        let Message::Response { id, results: decoded } = msg else { panic!("expected a response") };
        assert_eq!(id, 7);
        assert_eq!(decoded[3], Err(StoreError::Moved { epoch: 4 }));
        assert_eq!(decoded[..3], results[..3]);
        assert_eq!(decoded[4..], results[4..]);
    }

    #[test]
    fn deadline_exceeded_roundtrips_discriminant_6() {
        let results: Vec<WireResult> = vec![Err(StoreError::DeadlineExceeded { deadline_ms: 50 })];
        let frame = encode_response(1, &results);
        // The wire byte itself is pinned: version, kind, id, count, result
        // tag, then discriminant 6.
        let payload_start = 4; // skip the length prefix
        assert_eq!(frame[payload_start + 1], KIND_RESPONSE);
        assert_eq!(frame[payload_start + 2 + 8 + 4], 1, "error result tag");
        assert_eq!(frame[payload_start + 2 + 8 + 4 + 1], 6, "DeadlineExceeded discriminant");
        let Message::Response { results: decoded, .. } = decode_one(&frame) else {
            panic!("expected a response")
        };
        assert_eq!(decoded, results);
    }

    #[test]
    fn oversized_entries_are_replaced_with_typed_corrupt_at_encode() {
        // One Scan reply bigger than the whole payload cap, flanked by
        // small results that must survive untouched.
        let huge: Vec<(String, u64)> =
            (0..40_000).map(|i| (format!("key-{i:08}-{}", "x".repeat(24)), i as u64)).collect();
        let results: Vec<WireResult> = vec![
            Ok(StoreResp::Value(Some(1))),
            Ok(StoreResp::Entries(huge)),
            Err(StoreError::GuestTier),
        ];
        let frame = encode_response(9, &results);
        assert!(
            frame.len() <= MAX_WIRE_PAYLOAD as usize + FRAME_OVERHEAD,
            "encode must never build a frame the peer fails closed on"
        );
        let Message::Response { id, results: decoded } = decode_one(&frame) else {
            panic!("expected a response")
        };
        assert_eq!(id, 9);
        assert_eq!(decoded[0], results[0]);
        assert_eq!(decoded[2], results[2]);
        match &decoded[1] {
            Err(StoreError::Corrupt { detail }) => {
                assert!(detail.starts_with("oversized"), "typed oversize signal, got {detail:?}");
            }
            other => panic!("oversized result must fail closed individually, got {other:?}"),
        }
    }

    #[test]
    fn many_oversized_results_still_fit_the_cap() {
        // Worst case: every result oversized. Fair-share replacement must
        // keep the frame in cap even when each replacement carries detail.
        let big_entries: Vec<(String, u64)> =
            (0..8_000).map(|i| (format!("k{i:06}{}", "y".repeat(120)), i as u64)).collect();
        let results: Vec<WireResult> =
            (0..24).map(|_| Ok(StoreResp::Entries(big_entries.clone()))).collect();
        let frame = encode_response(2, &results);
        assert!(frame.len() <= MAX_WIRE_PAYLOAD as usize + FRAME_OVERHEAD);
        let Message::Response { results: decoded, .. } = decode_one(&frame) else {
            panic!("expected a response")
        };
        assert_eq!(decoded.len(), 24);
        for r in &decoded {
            assert!(
                matches!(r, Err(StoreError::Corrupt { detail }) if detail.starts_with("oversized")),
                "every oversized slot fails closed, got {r:?}"
            );
        }
    }

    #[test]
    fn streaming_reassembles_byte_by_byte() {
        let frame = encode_request(1, &sample_request());
        let mut reader = FrameReader::new();
        for (i, b) in frame.iter().enumerate() {
            reader.push(&[*b]);
            let got = reader.next_payload().unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "no frame before byte {i}");
            } else {
                assert!(got.is_some(), "complete at the last byte");
            }
        }
    }

    #[test]
    fn oversized_length_prefix_fails_closed_and_poisons() {
        let mut reader = FrameReader::new();
        reader.push(&(MAX_WIRE_PAYLOAD + 1).to_le_bytes());
        reader.push(&[0u8; 16]);
        let err = reader.next_payload().unwrap_err();
        assert!(matches!(err, CodecError::FrameTooLarge { .. }));
        // Poisoned: the stream never yields again.
        assert!(reader.next_payload().is_err());
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let mut frame = encode_hello(&TierCredential::Guest);
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        let mut reader = FrameReader::new();
        reader.push(&frame);
        match reader.next_payload() {
            Err(CodecError::ChecksumMismatch) => {}
            // Flips in the length prefix surface as the other closed
            // failures; a flip that still parses must not decode cleanly.
            Err(_) => {}
            Ok(Some(payload)) => {
                assert!(decode_message(payload).is_err(), "corrupt frame decoded cleanly");
            }
            Ok(None) => {} // length prefix grew: stream legitimately waits
        }
    }

    #[test]
    fn truncated_tail_is_pending_not_error() {
        let frame = encode_request(3, &sample_request());
        let mut reader = FrameReader::new();
        reader.push(&frame[..frame.len() - 3]);
        assert_eq!(reader.next_payload().unwrap(), None);
        assert!(reader.buffered() > 0, "the torn tail stays visible for close-time checks");
    }

    #[test]
    fn unknown_discriminants_fail_closed() {
        // Unknown kind.
        let mut p = vec![WIRE_VERSION, 0x7f];
        p.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_message(&p),
            Err(CodecError::UnknownDiscriminant { what: "kind", .. })
        ));
        // Unknown op tag inside a request.
        let good = encode_request(1, &Request::new(vec![StoreOp::Get("k".into())]));
        let mut reader = FrameReader::new();
        reader.push(&good);
        let mut payload = reader.next_payload().unwrap().expect("frame").to_vec();
        let last_op_tag = payload.len() - ("k".len() + 4 + 1);
        payload[last_op_tag] = 0x6e;
        assert!(matches!(
            decode_message(&payload),
            Err(CodecError::UnknownDiscriminant { what: "op", .. })
        ));
    }

    #[test]
    fn trailing_bytes_fail_closed() {
        let frame = encode_hello(&TierCredential::Guest);
        let mut reader = FrameReader::new();
        reader.push(&frame);
        let mut payload = reader.next_payload().unwrap().expect("frame").to_vec();
        payload.push(0);
        assert!(matches!(decode_message(&payload), Err(CodecError::TrailingBytes { extra: 1 })));
    }

    /// A request drawn from `ops` (`(kind, n)` per op) and `head`
    /// (durability and deadline bits, retry budget, VIP token or guest).
    /// Keys mix one-, two- and three-byte characters, so that a flipped
    /// byte can break their UTF-8.
    fn drawn_request(ops: &[(u8, u64)], head: (u8, u32, u64)) -> Request {
        let key = |n: u64| format!("k{n}{}", ["", "é", "日"][n as usize % 3]);
        let ops = ops
            .iter()
            .map(|&(kind, n)| match kind {
                0 => StoreOp::Get(key(n)),
                1 => StoreOp::Put(key(n), n),
                2 => StoreOp::Remove(key(n)),
                3 => StoreOp::Cas { key: key(n), expect: (n % 2 == 0).then_some(n), new: n },
                _ => StoreOp::Scan { from: key(n), to: key(n + 1) },
            })
            .collect();
        let (bits, budget, token) = head;
        let mut req = Request::new(ops).retry_budget(budget);
        if bits & 1 == 1 {
            req = req.durability(DurabilityClass::Sync);
        }
        if bits & 2 == 2 {
            req = req.deadline_ms(budget / 2);
        }
        if token % 2 == 1 {
            req = req.credential(TierCredential::Vip { token });
        }
        req
    }

    /// The header reader on `payload` against the full decoder: it errs
    /// exactly when the decoder errs or reads another kind of message, and
    /// otherwise returns the decoded request's id, budget and op count.
    fn reader_agrees(payload: &[u8]) -> Result<(), proptest::TestCaseError> {
        match (read_request_header(payload), decode_message(payload)) {
            (Ok(header), Ok(Message::Request { id, req })) => {
                proptest::prop_assert_eq!(header, (id, req.retry_budget, req.ops.len()));
            }
            (Err(_), Err(_) | Ok(Message::Hello(_) | Message::Response { .. })) => {}
            (header, decoded) => {
                let why = format!("reader {header:?}, decoder {decoded:?} on {}", hex(payload));
                return Err(proptest::TestCaseError::fail(why));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Every encoded request, every prefix of it, and it with each one
        /// of its bytes flipped: the shed path's reader fails closed where
        /// the decoder does, and reads what the decoder reads.
        #[test]
        fn the_request_header_reader_agrees_with_the_decoder(
            ops in proptest::collection::vec((0u8..5, 0u64..1_000), 0..6),
            head in (0u8..4, 0u32..300, 0u64..1_000),
            flip in 1u8..=255,
        ) {
            let frame = encode_request(head.2, &drawn_request(&ops, head));
            let mut reader = FrameReader::new();
            reader.push(&frame);
            let payload = reader.next_payload().unwrap().expect("one complete frame").to_vec();
            for cut in 0..=payload.len() {
                reader_agrees(&payload[..cut])?;
            }
            for at in 0..payload.len() {
                let mut flipped = payload.clone();
                flipped[at] ^= flip;
                reader_agrees(&flipped)?;
            }
        }
    }

    /// A refusal frame is byte for byte the response of `fail_all`'s
    /// results, for an empty request, a one-op one and a 300-op one.
    #[test]
    fn a_refusal_is_the_fail_all_response_byte_for_byte() {
        for ops in [0, 1, 300] {
            for err in [
                StoreError::RetryBudgetExhausted { budget: 7 },
                StoreError::DeadlineExceeded { deadline_ms: 250 },
            ] {
                let mut refusal = vec![0xaa];
                encode_refusal_into(&mut refusal, 42, ops, err.clone());
                let want = encode_response(42, &apc_store::Response::fail_all(ops, err).results);
                assert_eq!(refusal[0], 0xaa, "what the buffer held stays");
                assert_eq!(refusal[1..], want[..], "{ops} ops");
            }
        }
    }

    #[test]
    fn oversized_list_fails_closed_without_allocation() {
        // A request claiming 2^20 ops in a tiny payload must be rejected
        // by the list cap, not by attempting to materialize the list.
        let mut p = vec![WIRE_VERSION, KIND_REQUEST];
        p.extend_from_slice(&7u64.to_le_bytes()); // id
        p.push(0); // durability
        p.push(0); // deadline
        p.extend_from_slice(&4u32.to_le_bytes()); // budget
        p.push(0); // guest credential
        p.extend_from_slice(&(1u32 << 20).to_le_bytes()); // op count
        assert!(matches!(decode_message(&p), Err(CodecError::OversizedList { .. })));
    }
}
