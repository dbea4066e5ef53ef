//! The length-prefixed binary codec for the unified
//! [`Request`]`→`[`Response`](apc_store::Response) envelope (protocol
//! spec: `docs/WIRE.md`).
//!
//! ## Frame layout
//!
//! ```text
//! | payload_len: u32 LE | payload | fnv1a64(payload): u64 LE |
//! payload = | version: u8 | kind: u8 | body |
//! ```
//!
//! The shape deliberately mirrors the WAL's on-disk frames (`APCW`
//! segments): a sanity-capped length prefix, the payload, a 64-bit FNV-1a
//! checksum — and the same failure policy. A frame that is merely
//! *incomplete* is "awaiting more bytes" while the stream lives (the
//! streaming [`FrameReader`] returns `Ok(None)`); the same bytes at
//! stream close are a **torn tail** and the connection fails closed. A
//! frame that is *wrong* — oversized length prefix, checksum mismatch,
//! unknown version/kind/discriminant, trailing bytes, non-UTF-8 keys —
//! always fails closed: no partial decode is ever surfaced.
//!
//! All integers are little-endian. Strings are `len: u32 | utf8 bytes`.
//! `Option<u64>`/`Option<u32>` are `tag: u8 (0|1) | value if 1`.

use std::fmt;

use apc_store::router::fnv1a64;
use apc_store::{DurabilityClass, Request, StoreError, StoreOp, StoreResp, TierCredential};

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
pub const FRAME_OVERHEAD: usize = 4 + 8;

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

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

/// Opens a frame at the end of `out`: a length placeholder, then the
/// payload's version and kind bytes. Returns where the frame starts, for
/// [`close_frame`].
fn open_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION, kind]);
    start
}

/// Closes the frame [`open_frame`] opened at `start`: patches its length
/// prefix and appends the payload's checksum, read in place.
///
/// Callers are responsible for keeping the payload within
/// [`MAX_WIRE_PAYLOAD`]: a larger frame is structurally valid to *build*
/// but the peer's decoder fails closed on it and poisons the stream.
/// [`encode_response_into`] enforces the cap itself (the one message whose
/// size the remote peer does not control — see the oversize policy there);
/// [`encode_hello`] cannot exceed it; [`encode_request`] callers own their
/// envelope's size, exactly like any other client-side protocol limit.
fn close_frame(out: &mut Vec<u8>, start: usize) {
    let payload = &out[start + 4..];
    let (len, crc) = (payload.len() as u32, fnv1a64(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    put_u64(out, crc);
}

/// Encodes the handshake frame.
pub fn encode_hello(credential: &TierCredential) -> Vec<u8> {
    let mut out = Vec::new();
    let start = open_frame(&mut out, KIND_HELLO);
    put_credential(&mut out, credential);
    close_frame(&mut out, start);
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
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    let start = open_frame(&mut out, KIND_REQUEST);
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
    close_frame(&mut out, start);
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
    // The payload's head: version, kind, id, result count.
    const HEAD: usize = 2 + 8 + 4;
    let budget = MAX_WIRE_PAYLOAD as usize - HEAD;
    let body: usize = results.iter().map(result_len).sum();
    out.reserve(FRAME_OVERHEAD + HEAD + body.min(budget));
    let start = open_frame(out, KIND_RESPONSE);
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
    close_frame(out, start);
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

/// Bounds-checked little-endian reader over one payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Rd<'a> {
        Rd { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), CodecError> {
        let available = self.remaining();
        if available < n {
            return Err(CodecError::Truncated { needed: n, available });
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    fn str_(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            found => Err(CodecError::UnknownDiscriminant { what: "option", found }),
        }
    }

    fn list_len(&mut self) -> Result<u32, CodecError> {
        let len = self.u32()?;
        if len > MAX_WIRE_LIST {
            return Err(CodecError::OversizedList { len, max: MAX_WIRE_LIST });
        }
        Ok(len)
    }

    fn finish(self) -> Result<(), CodecError> {
        let extra = self.remaining();
        if extra > 0 {
            return Err(CodecError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn read_credential(rd: &mut Rd<'_>) -> Result<TierCredential, CodecError> {
    match rd.u8()? {
        0 => Ok(TierCredential::Guest),
        1 => Ok(TierCredential::Vip { token: rd.u64()? }),
        found => Err(CodecError::UnknownDiscriminant { what: "credential", found }),
    }
}

fn read_op(rd: &mut Rd<'_>) -> Result<StoreOp, CodecError> {
    match rd.u8()? {
        0 => Ok(StoreOp::Get(rd.str_()?)),
        1 => Ok(StoreOp::Put(rd.str_()?, rd.u64()?)),
        2 => Ok(StoreOp::Remove(rd.str_()?)),
        3 => Ok(StoreOp::Cas { key: rd.str_()?, expect: rd.opt_u64()?, new: rd.u64()? }),
        4 => Ok(StoreOp::Scan { from: rd.str_()?, to: rd.str_()? }),
        found => Err(CodecError::UnknownDiscriminant { what: "op", found }),
    }
}

fn read_result(rd: &mut Rd<'_>) -> Result<WireResult, CodecError> {
    match rd.u8()? {
        0 => {
            let resp = match rd.u8()? {
                0 => StoreResp::Value(rd.opt_u64()?),
                1 => {
                    let ok = match rd.u8()? {
                        0 => false,
                        1 => true,
                        found => {
                            return Err(CodecError::UnknownDiscriminant { what: "bool", found })
                        }
                    };
                    StoreResp::Cas { ok, actual: rd.opt_u64()? }
                }
                2 => {
                    let len = rd.list_len()?;
                    let mut entries = Vec::new();
                    for _ in 0..len {
                        let k = rd.str_()?;
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
                5 => StoreError::Corrupt { detail: rd.str_()? },
                6 => StoreError::DeadlineExceeded { deadline_ms: rd.u32()? },
                found => return Err(CodecError::UnknownDiscriminant { what: "error", found }),
            };
            Ok(Err(err))
        }
        found => Err(CodecError::UnknownDiscriminant { what: "result", found }),
    }
}

/// Decodes one complete frame payload (as returned by
/// [`FrameReader::next_payload`]) into a [`Message`]. Fails closed on any
/// structural fault.
pub fn decode_message(payload: &[u8]) -> Result<Message, CodecError> {
    let mut rd = Rd::new(payload);
    let version = rd.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::BadVersion { found: version });
    }
    let kind = rd.u8()?;
    let msg = match kind {
        KIND_HELLO => Message::Hello(read_credential(&mut rd)?),
        KIND_REQUEST => {
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
            let credential = read_credential(&mut rd)?;
            let n = rd.list_len()?;
            // Sized once: an op is at least 5 bytes (tag + string length),
            // so the bytes left bound the count a lying prefix can claim.
            let mut ops = Vec::with_capacity((n as usize).min(rd.remaining() / 5));
            for _ in 0..n {
                ops.push(read_op(&mut rd)?);
            }
            Message::Request {
                id,
                req: Request { ops, credential, durability, deadline_ms, retry_budget },
            }
        }
        KIND_RESPONSE => {
            let id = rd.u64()?;
            let n = rd.list_len()?;
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

/// The streaming frame extractor: push raw connection bytes in, pull
/// complete checksum-verified payloads out.
///
/// Mirrors the WAL's torn-tail policy: an incomplete frame is `Ok(None)`
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
        let frame = &self.buf[self.read..];
        if frame.len() < 4 {
            return Ok(None);
        }
        let mut lb = [0u8; 4];
        lb.copy_from_slice(&frame[..4]);
        let len = u32::from_le_bytes(lb);
        if len > MAX_WIRE_PAYLOAD {
            let err = CodecError::FrameTooLarge { len, max: MAX_WIRE_PAYLOAD };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        let end = 4 + len as usize;
        if frame.len() < end + 8 {
            return Ok(None);
        }
        let mut cb = [0u8; 8];
        cb.copy_from_slice(&frame[end..end + 8]);
        if fnv1a64(&frame[4..end]) != u64::from_le_bytes(cb) {
            let err = CodecError::ChecksumMismatch;
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        let payload = self.read + 4..self.read + end;
        self.read += end + 8;
        Ok(Some(&self.buf[payload]))
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
