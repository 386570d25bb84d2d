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

    /// Writes a byte length as a varint (LEB128): seven bits a byte, the
    /// lowest first, the top bit set on every byte but the last.
    pub(crate) fn put_varint(&mut self, mut n: usize) {
        while n >= 0x80 {
            self.buf.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.buf.push(n as u8);
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

    /// Errors unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.get_array().map(|[byte]| byte)
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
        self.get_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.get_array().map(u64::from_le_bytes)
    }

    /// Reads an IEEE-754 double.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.get_array().map(f64::from_le_bytes)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_len()?;
        self.get_slice(len).map(<[u8]>::to_vec)
    }

    /// Reads a fixed-size 32-byte digest.
    pub fn get_digest(&mut self) -> Result<[u8; 32], WireError> {
        self.get_array()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a collection length prefix, enforcing [`MAX_COLLECTION_LEN`].
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        checked_len(self.get_u32()?)
    }

    /// Reads a length as [`Writer::put_varint`] writes it, in the fewest
    /// bytes and at most a `u32`; past one byte on the cold path.
    #[inline]
    pub(crate) fn get_varint(&mut self) -> Result<usize, WireError> {
        match self.get_u8()? {
            byte @ 0..0x80 => Ok(usize::from(byte)),
            first => self.get_long_varint(first),
        }
    }

    /// The rest of a varint whose `first` byte has its top bit set.
    #[cold]
    fn get_long_varint(&mut self, first: u8) -> Result<usize, WireError> {
        let mut value = u64::from(first & 0x7f);
        for shift in (7..35).step_by(7) {
            let byte = self.get_u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                // A last byte of zero spells a shorter length long.
                let canonical = byte != 0 && value <= u64::from(u32::MAX);
                return canonical
                    .then_some(value as usize)
                    .ok_or(WireError::NonCanonicalLength);
            }
        }
        Err(WireError::NonCanonicalLength)
    }

    /// Consumes the next `n` bytes as one slice, with one bounds check.
    pub(crate) fn get_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array, with one bounds check.
    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self.buf.split_first_chunk().ok_or(WireError::Truncated)?;
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
    fn varints_round_trip_in_their_one_spelling_only() {
        let max = u32::MAX as usize;
        for (n, spelling) in [
            (0, &[0x00][..]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (16_383, &[0xff, 0x7f]),
            (16_384, &[0x80, 0x80, 0x01]),
            (max, &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        ] {
            let mut w = Writer::new();
            w.put_varint(n);
            assert_eq!(w.into_bytes(), spelling);
            assert_eq!(Reader::new(spelling).get_varint(), Ok(n));
            for cut in 0..spelling.len() {
                let cut = Reader::new(&spelling[..cut]).get_varint();
                assert_eq!(cut, Err(WireError::Truncated), "{n}");
            }
        }
        // A zero last byte, a value past `u32`, and six bytes.
        for other in [
            &[0xff, 0x00][..],
            &[0xff, 0xff, 0xff, 0xff, 0x10],
            &[0x80; 6],
        ] {
            let refused = Reader::new(other).get_varint();
            assert_eq!(refused, Err(WireError::NonCanonicalLength), "{other:?}");
        }
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
