//! Hand-rolled binary container codec — the byte-level counterpart of
//! [`json`](crate::json), and just as dependency-free.
//!
//! The compile cache persists structured data to disk, and the BURS
//! tables serialize to bytes. Neither pulls in serde; instead they
//! encode through the two primitives here:
//!
//! * [`ByteWriter`] / [`ByteReader`] — little-endian integers, booleans
//!   and length-prefixed strings/byte-records, with every read
//!   bounds-checked into a positioned [`CodecError`] instead of a panic.
//! * [`seal`] / [`unseal`] — the container framing: an 8-byte magic, a
//!   `u32` format version, a `u64` payload length, the payload, and an
//!   FNV-1a checksum trailer over the payload. `unseal` rejects a wrong
//!   magic, an unknown version, a truncated body and a corrupted payload
//!   — callers treat any of those as a cache miss, never a crash.
//!
//! [`StableHasher`] rounds the module out: a `std::hash::Hasher` over
//! the same FNV-1a function, for fingerprints that must be *stable
//! across processes* (the sibling `DefaultHasher` is randomly seeded and
//! documented as unfit to persist).

use std::fmt;

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the checksum and fingerprint function for
/// everything this module frames. Deterministic across processes and
/// platforms, unlike `DefaultHasher`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A [`std::hash::Hasher`] computing FNV-1a over the written byte
/// stream. Use it wherever a fingerprint must survive a process restart:
/// `#[derive(Hash)]` types feed it deterministically, so
/// `t.hash(&mut StableHasher::new())` yields the same value in every
/// run — which `DefaultHasher` (randomly keyed) explicitly does not.
#[derive(Clone, Debug)]
pub struct StableHasher(u64);

impl StableHasher {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A failed decode: where in the buffer, and what was expected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset the decoder had reached.
    pub pos: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` as its two's-complement bits.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string (`u32` length + bytes).
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a length-prefixed byte record (`u32` length + bytes).
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(&b[..b.len().min(u32::MAX as usize)]);
    }
}

/// A bounds-checked little-endian byte decoder over a borrowed slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless every byte has been consumed — catches records with
    /// trailing garbage that a length-prefix alone would let through.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when unconsumed bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(format!("{} trailing byte(s)", self.remaining())))
        }
    }

    fn err(&self, what: impl Into<String>) -> CodecError {
        CodecError { pos: self.pos, what: what.into() }
    }

    /// Builds a [`CodecError`] at the reader's current position — for
    /// downstream decoders rejecting semantically invalid values (an
    /// unknown enum tag, an out-of-range id) the raw reads accept.
    pub fn error(&self, what: impl Into<String>) -> CodecError {
        self.err(what)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.err(format!("need {n} byte(s), {} left", self.remaining())));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated buffer.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated buffer.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take(2)")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated buffer.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated buffer.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// Reads an `i64` from its two's-complement bits.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated buffer.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a boolean byte, rejecting anything but 0 or 1.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("bad boolean byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let pos = self.pos;
        let b = self.bytes_record()?;
        std::str::from_utf8(b).map_err(|e| CodecError { pos, what: format!("bad UTF-8: {e}") })
    }

    /// Reads a length-prefixed byte record.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when the prefix overruns the buffer.
    pub fn bytes_record(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32` element count for a sequence whose elements occupy
    /// at least `min_elem_bytes` each, rejecting counts the remaining
    /// buffer cannot possibly hold — so a corrupted length can never
    /// drive an allocation beyond the (already-read) file size.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or an impossible count.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(self.err(format!("sequence length {n} overruns buffer")));
        }
        Ok(n)
    }
}

/// Frames `payload` into a versioned, checksummed container:
/// `magic (8) | version (u32) | len (u64) | payload | fnv1a(payload) (u64)`.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Opens a [`seal`]ed container, returning the payload slice.
///
/// # Errors
///
/// [`CodecError`] on a wrong magic, a version other than `version`, a
/// length that disagrees with the buffer, or a checksum mismatch —
/// i.e. on every way a file can be stale, truncated or bit-flipped.
pub fn unseal<'a>(magic: &[u8; 8], version: u32, bytes: &'a [u8]) -> Result<&'a [u8], CodecError> {
    let mut r = ByteReader::new(bytes);
    let got_magic = r.take(8)?;
    if got_magic != magic {
        return Err(CodecError { pos: 0, what: format!("bad magic {got_magic:02x?}") });
    }
    let got_version = r.u32()?;
    if got_version != version {
        return Err(CodecError {
            pos: 8,
            what: format!("version {got_version}, expected {version}"),
        });
    }
    let len = r.u64()? as usize;
    if len != r.remaining().saturating_sub(8) {
        return Err(CodecError {
            pos: 12,
            what: format!("payload length {len} disagrees with file size {}", bytes.len()),
        });
    }
    let payload = r.take(len)?;
    let want = r.u64()?;
    r.finish()?;
    let got = fnv1a(payload);
    if got != want {
        return Err(CodecError {
            pos: bytes.len() - 8,
            what: format!("checksum {got:#018x}, trailer says {want:#018x}"),
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"RECTEST\0";

    fn sample_payload() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.i64(-5);
        w.bool(true);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.into_bytes()
    }

    #[test]
    fn primitives_round_trip() {
        let bytes = sample_payload();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -5);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes_record().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let bytes = sample_payload();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            // drain until the inevitable error; must never panic
            let mut steps = 0;
            while r.remaining() > 0 && steps < 100 {
                if r.str().is_err() && r.u8().is_err() {
                    break;
                }
                steps += 1;
            }
        }
    }

    #[test]
    fn container_round_trips() {
        let sealed = seal(MAGIC, 3, b"payload bytes");
        assert_eq!(unseal(MAGIC, 3, &sealed).unwrap(), b"payload bytes");
    }

    #[test]
    fn container_rejects_every_single_bit_flip() {
        let sealed = seal(MAGIC, 1, b"some payload worth protecting");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(unseal(MAGIC, 1, &bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn container_rejects_truncation_and_version_skew() {
        let sealed = seal(MAGIC, 1, b"data");
        for cut in 0..sealed.len() {
            assert!(unseal(MAGIC, 1, &sealed[..cut]).is_err(), "truncation at {cut}");
        }
        assert!(unseal(MAGIC, 2, &sealed).is_err(), "wrong version accepted");
        assert!(unseal(b"RECOTHER", 1, &sealed).is_err(), "wrong magic accepted");
    }

    #[test]
    fn bad_boolean_and_utf8_are_errors() {
        let mut w = ByteWriter::new();
        w.u8(9);
        let b = w.into_bytes();
        assert!(ByteReader::new(&b).bool().is_err());
        let mut w = ByteWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let b = w.into_bytes();
        assert!(ByteReader::new(&b).str().is_err());
    }

    #[test]
    fn seq_len_rejects_impossible_counts() {
        let mut w = ByteWriter::new();
        w.u32(1_000_000); // claims a million elements, provides none
        let b = w.into_bytes();
        assert!(ByteReader::new(&b).seq_len(4).is_err());
    }

    #[test]
    fn stable_hasher_is_deterministic_and_matches_fnv() {
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        h.write(b"abc");
        assert_eq!(h.finish(), fnv1a(b"abc"));
        let fp = |s: &str| {
            let mut h = StableHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(fp("kernel"), fp("kernel"));
        assert_ne!(fp("kernel"), fp("kernex"));
    }
}
