//! Binary codec primitives for compact wire formats: little-endian
//! primitive encoding with floats as exact bit patterns, plus an IEEE
//! CRC32 for integrity footers.
//!
//! Floats travel as bit patterns, never decimal renderings, so every value
//! round-trips exactly. These are the primitives under the simulator's one
//! binary format (its wire protocol, checkpoints and grid fingerprints).
//! [`ByteWriter`]/[`ByteReader`] are deliberately
//! dumb: fixed-width little-endian primitives, length-prefixed byte
//! strings, no varints, no framing — framing and versioning belong to the
//! protocol layer. Every read is bounds-checked, so truncated or hostile
//! input surfaces as a [`CodecError`], never a panic or a mis-read.

use std::error::Error;
use std::fmt;

/// A decode failure: the input ended early or carried an impossible value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested value was complete.
    Truncated,
    /// A value was structurally impossible (bad bool byte, oversized
    /// length, non-UTF-8 string bytes, trailing garbage, ...).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "binary payload truncated"),
            CodecError::Malformed(what) => write!(f, "malformed binary payload: {what}"),
        }
    }
}

impl Error for CodecError {}

/// An append-only little-endian binary encoder.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer into its encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn put_usize(&mut self, x: usize) {
        self.put_u64(x as u64);
    }

    /// Appends an `f64` as its exact bit pattern; nothing is rounded.
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, x: bool) {
        self.put_u8(u8::from(x));
    }

    /// Appends a length-prefixed byte string (`u32` length + raw bytes).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u32::MAX` bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("byte string exceeds u32 length");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// A bounds-checked little-endian binary decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Takes a `usize` encoded as a `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input, [`CodecError::Malformed`]
    /// if the value does not fit this platform's `usize`.
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| CodecError::Malformed("count exceeds platform usize"))
    }

    /// Takes an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes a bool byte (strictly 0 or 1).
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] on any other byte value.
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool byte is neither 0 nor 1")),
        }
    }

    /// Takes a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the prefix promises more bytes than
    /// remain.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] if the bytes are not valid UTF-8.
    pub fn take_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take_bytes()?)
            .map_err(|_| CodecError::Malformed("string bytes are not UTF-8"))
    }

    /// Asserts the input is fully consumed — the guard against payloads
    /// carrying trailing garbage.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] if bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes after payload"))
        }
    }
}

/// The 256-entry lookup table of the reflected IEEE CRC32 (polynomial
/// 0xEDB88320), built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// The IEEE CRC32 of `bytes` (the zlib/PNG/gzip checksum) — the integrity
/// footer for checkpoints and framed payloads. Detects any single burst
/// error up to 32 bits and all 1–3 bit flips, which is exactly the torn
/// write / flipped byte class checkpointing has to survive.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vectors() {
        // The canonical check value of the reflected IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Any flipped byte moves the checksum.
        assert_ne!(crc32(b"123456789"), crc32(b"123456780"));
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_usize(usize::MAX);
        for x in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            w.put_f64(x);
        }
        w.put_bool(true);
        w.put_bool(false);
        w.put_str("grüße\nwith newline");
        w.put_str("");
        w.put_bytes(&[1, 2, 3]);

        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.take_usize().unwrap(), usize::MAX);
        for x in [
            0.0f64,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(r.take_f64().unwrap().to_bits(), x.to_bits());
        }
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "grüße\nwith newline");
        assert_eq!(r.take_str().unwrap(), "");
        assert_eq!(r.take_bytes().unwrap(), &[1, 2, 3]);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn truncated_and_malformed_input_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        let bytes = w.as_slice();
        // Every proper prefix is a truncation error, never a panic.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(r.take_u64(), Err(CodecError::Truncated), "cut at {cut}");
        }
        // A length prefix promising more than the buffer holds.
        let mut w = ByteWriter::new();
        w.put_u32(1000);
        let mut r = ByteReader::new(w.as_slice());
        assert_eq!(r.take_bytes(), Err(CodecError::Truncated));
        // Bad bool byte.
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.take_bool(), Err(CodecError::Malformed(_))));
        // Non-UTF-8 string bytes.
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let mut r = ByteReader::new(w.as_slice());
        assert!(matches!(r.take_str(), Err(CodecError::Malformed(_))));
        // Trailing garbage fails the finish guard.
        let mut r = ByteReader::new(&[0]);
        assert!(r.finish().is_err());
        r.take_u8().unwrap();
        assert!(r.finish().is_ok());
    }
}
