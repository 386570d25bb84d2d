//! Low-level writer and reader over byte buffers.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::error::WireError;

/// Maximum number of elements a length-prefixed collection may declare.
///
/// Protects decoders from allocating unbounded memory when fed garbage; the
/// largest legitimate collections in this protocol are result sets, which at
/// paper scale top out at 10,000 records.
pub const MAX_COLLECTION_LEN: usize = 4_000_000;

/// An append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer that reuses the allocation of `buf` (the previous
    /// contents are cleared). Lets encode-heavy callers keep one warm
    /// buffer instead of growing a fresh vector per message.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an IEEE-754 double.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a fixed-size 32-byte digest (no length prefix).
    pub fn put_digest(&mut self, v: &[u8; 32]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_string(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length prefix for a collection of `n` elements.
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }
}

/// A cursor-style byte reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes and returns the next `n` bytes (caller must `need` first).
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        head
    }

    /// Errors unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        self.take(1).first().copied().ok_or(WireError::Truncated)
    }

    /// Reads a boolean: exactly `0` or `1`, so that every value has one
    /// encoding.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                type_name: "bool",
                tag,
            }),
        }
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        let bytes = self.take(4).try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        let bytes = self.take(8).try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads an IEEE-754 double.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.need(8)?;
        let bytes = self.take(8).try_into().map_err(|_| WireError::Truncated)?;
        Ok(f64::from_le_bytes(bytes))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_len()?;
        self.need(len)?;
        Ok(self.take(len).to_vec())
    }

    /// Reads a fixed-size 32-byte digest.
    pub fn get_digest(&mut self) -> Result<[u8; 32], WireError> {
        self.need(32)?;
        self.take(32).try_into().map_err(|_| WireError::Truncated)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a collection length prefix, enforcing [`MAX_COLLECTION_LEN`].
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        checked_len(self.get_u32()?)
    }

    /// Consumes the next `n` bytes as one slice, with one bounds check.
    pub(crate) fn get_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.need(n)?;
        Ok(self.take(n))
    }

    /// Consumes the next `N` bytes as an array, with one bounds check.
    pub(crate) fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.buf = tail;
        Ok(*head)
    }
}

/// A collection length as read off the wire, refused past
/// [`MAX_COLLECTION_LEN`].
pub(crate) fn checked_len(len: u32) -> Result<usize, WireError> {
    let len = len as usize;
    if len > MAX_COLLECTION_LEN {
        return Err(WireError::LengthLimitExceeded(len));
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(4_000_000_000);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-1.25e17);
        w.put_bytes(b"hello");
        w.put_string("wörld");
        w.put_digest(&[9u8; 32]);
        assert!(!w.is_empty());

        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 4_000_000_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -1.25e17);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_string().unwrap(), "wörld");
        assert_eq!(r.get_digest().unwrap(), [9u8; 32]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_detected_for_every_primitive() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..3]);
        assert_eq!(r.get_u64(), Err(WireError::Truncated));

        let mut r = Reader::new(&[]);
        assert_eq!(r.get_u8(), Err(WireError::Truncated));
        assert_eq!(Reader::new(&[]).get_digest(), Err(WireError::Truncated));
    }

    #[test]
    fn collection_length_limit_enforced() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_len(),
            Err(WireError::LengthLimitExceeded(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe, 0xfd]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_string(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn trailing_bytes_reported() {
        let r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(3)));
    }
}
