//! The byte format: one checksummed frame shape, the little-endian
//! primitives inside it (a string is `len: u32 | utf8 bytes`), and one
//! bounds-checked cursor to read them back.
//!
//! ```text
//! frame = | payload_len: u32 LE | payload | fnv1a64(payload): u64 LE |
//! ```
//!
//! The `apc-net` wire codec and the [`wal`](crate::wal) frame their records
//! this way, each with its own payload schema, cap and answer to a bad
//! frame; the [`persist`](crate::persist) snapshot uses the primitives.

/// Bytes a frame spends around its payload: length prefix and checksum.
pub const OVERHEAD: usize = 4 + 8;

/// FNV-1a 64-bit: the frame checksum, the snapshot's section checksums and
/// the router's key digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends `v`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as `len: u32 | utf8 bytes`.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Opens a frame at the end of `out` and returns where it starts, for
/// [`seal`]. What the caller appends next is the payload.
#[inline]
pub fn begin(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    put_u32(out, 0);
    start
}

/// Closes the frame [`begin`] opened at `start`: fills in the length prefix
/// and appends the checksum. Staying within the reader's cap is the
/// caller's job.
#[inline]
pub fn seal(out: &mut Vec<u8>, start: usize) {
    let payload = &out[start + 4..];
    let (len, sum) = (payload.len() as u32, fnv1a64(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    put_u64(out, sum);
}

/// What [`next`] found at the front of its bytes; an offset is a frame's end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next<'a> {
    /// A whole frame that passed its checksum: its payload and end.
    Frame(&'a [u8], usize),
    /// The bytes stop mid-frame, short by this many.
    Short(usize),
    /// The length prefix claims this many bytes, over the cap.
    OverCap(u32),
    /// A whole frame that failed its checksum: its end.
    BadChecksum(usize),
}

/// Splits one frame off the front of `bytes`, refusing a length prefix
/// over `cap` before waiting for the payload.
#[inline]
pub fn next(bytes: &[u8], cap: u32) -> Next<'_> {
    let mut c = Cursor::new(bytes);
    let Ok(len) = c.u32() else { return Next::Short(4 - bytes.len()) };
    if len > cap {
        return Next::OverCap(len);
    }
    let end = OVERHEAD + len as usize;
    match (c.take(len as usize), c.u64()) {
        (Ok(payload), Ok(sum)) if fnv1a64(payload) == sum => Next::Frame(payload, end),
        (Ok(_), Ok(_)) => Next::BadChecksum(end),
        _ => Next::Short(end - bytes.len()),
    }
}

/// Why a [`Cursor`] read failed; each user converts it to its own error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A read ran past the end.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes left.
        available: usize,
    },
    /// A string is not valid UTF-8.
    BadUtf8,
    /// [`Cursor::finish`] found this many bytes left over.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
}

/// A bounds-checked reader over one payload: each read returns its value
/// and moves past it, or returns a [`Fault`].
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: bytes, len: bytes.len() }
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Fault> {
        let truncated = Fault::Truncated { needed: n, available: self.rest.len() };
        let (head, rest) = self.rest.split_at_checked(n).ok_or(truncated)?;
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Fault> {
        let truncated = Fault::Truncated { needed: N, available: self.rest.len() };
        let (head, rest) = self.rest.split_first_chunk().ok_or(truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Fault> {
        self.array().map(|[b]| b)
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Fault> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Fault> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `len: u32 | utf8 bytes` string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, Fault> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| Fault::BadUtf8)
    }

    /// Ends the read: `Ok` only if every byte was read.
    #[inline]
    pub fn finish(self) -> Result<(), Fault> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(Fault::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0xaa]; // a byte before the frame: `begin` appends
        let start = begin(&mut out);
        out.extend_from_slice(payload);
        seal(&mut out, start);
        out.split_off(1)
    }

    #[test]
    fn a_sealed_frame_splits_back_off() {
        let mut bytes = framed(b"payload");
        assert_eq!(bytes.len(), OVERHEAD + 7);
        assert_eq!(bytes[..4], 7u32.to_le_bytes());
        assert_eq!(bytes[11..], fnv1a64(b"payload").to_le_bytes());
        bytes.extend_from_slice(&framed(b""));
        assert_eq!(next(&bytes, 7), Next::Frame(b"payload", 19));
        assert_eq!(next(&bytes[19..], 0), Next::Frame(b"", OVERHEAD));
    }

    #[test]
    fn every_cut_of_a_frame_is_short_by_what_it_lacks() {
        let bytes = framed(b"abc");
        for cut in 0..bytes.len() {
            let lacks = if cut < 4 { 4 - cut } else { bytes.len() - cut };
            assert_eq!(next(&bytes[..cut], 64), Next::Short(lacks), "cut at {cut}");
        }
    }

    #[test]
    fn the_cap_is_checked_before_the_length_is_trusted() {
        let bytes = framed(b"abcd");
        assert_eq!(next(&bytes, 3), Next::OverCap(4));
        assert_eq!(next(&bytes[..4], 3), Next::OverCap(4), "no payload byte needed");
        assert!(matches!(next(&bytes, 4), Next::Frame(..)));
    }

    #[test]
    fn a_flipped_byte_fails_the_checksum_and_names_the_frame_end() {
        let good = framed(b"abcd");
        for i in 4..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert_eq!(next(&bad, 64), Next::BadChecksum(good.len()), "flip at {i}");
        }
    }

    #[test]
    fn the_cursor_reads_what_the_writers_wrote() {
        let mut out = vec![7u8];
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "γλώσσα");
        out.extend_from_slice(b"xyz");
        let mut c = Cursor::new(&out);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u32(), Ok(0xdead_beef));
        assert_eq!(c.u64(), Ok(u64::MAX - 1));
        assert_eq!(c.pos(), 13);
        assert_eq!(c.str(), Ok("γλώσσα"));
        assert_eq!(c.clone().finish(), Err(Fault::TrailingBytes { extra: 3 }));
        assert_eq!(c.take(3), Ok(&b"xyz"[..]));
        assert_eq!(c.u8(), Err(Fault::Truncated { needed: 1, available: 0 }));
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn the_cursor_faults_without_panicking() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(c.u32(), Err(Fault::Truncated { needed: 4, available: 3 }));
        assert_eq!(c.take(usize::MAX), Err(Fault::Truncated { needed: usize::MAX, available: 3 }));
        assert_eq!(c.pos(), 0, "a failed fixed-width read consumes nothing");
        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Cursor::new(&bad).str(), Err(Fault::BadUtf8));
        let mut long = Vec::new();
        put_u32(&mut long, u32::MAX);
        assert_eq!(
            Cursor::new(&long).str(),
            Err(Fault::Truncated { needed: u32::MAX as usize, available: 0 })
        );
    }
}
