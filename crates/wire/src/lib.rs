//! Binary wire format for the verified-analytics protocol.
//!
//! In the paper's system model three messages cross the network:
//!
//! 1. the **query** `q` from the data user to the server,
//! 2. the **query result** `R(q)` (a list of records) from the server back
//!    to the user, and
//! 3. the **verification object** `VO(q)` accompanying the result.
//!
//! Fig. 8 of the paper studies the size of (3); this crate pins those sizes
//! down exactly by giving every message a deterministic, versioned binary
//! encoding. It also lets the examples and the CLI demo write responses to
//! disk and verify them in a separate process, the way a real deployment
//! would.
//!
//! The format is deliberately simple: little-endian fixed-width integers,
//! IEEE-754 doubles, length-prefixed byte strings, a one-byte tag per enum
//! variant, and each record as the canonical bytes its digest hashes, all
//! wrapped in a frame that starts with a 4-byte magic and a format version.
//! There is no external schema language and no reflection. Each message's
//! layout is declared once, as its fields in wire order (a tag table for an
//! enum), and one declaration generates both [`WireEncode`] and
//! [`WireDecode`]. That keeps the dependency set empty and the byte layout
//! auditable in one place. The few hand codecs say why next to their `impl`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![warn(missing_docs)]

pub mod authquery_impls;
mod codec;
pub mod crypto_impls;
pub mod envelope;
pub mod epoch;
pub mod error;
pub mod funcdb_impls;
pub mod io;
pub mod record_bytes;

pub use envelope::{
    ErrorCode, ErrorCount, ErrorReply, KindLatency, KindStages, LatencyHistogram, ReactorStats,
    Request, Response, ShardEntry, ShardInfo, ShardMap, SignedShardMap, StageLatency, StageMicros,
    StatsDeep, StatsSnapshot, LATENCY_BUCKET_BOUNDS_MICROS,
};
pub use epoch::Epoch;
pub use error::WireError;
pub use io::{Reader, Writer};
pub use record_bytes::{query_response_frame, RecordBytes};

/// Magic bytes at the start of every framed message.
pub const MAGIC: [u8; 4] = *b"VAQ1";
/// Current format version: 2 since a record travels as its canonical bytes.
pub const VERSION: u16 = 2;
/// Length of the `VAQ1` frame header: 4-byte magic, little-endian u16
/// version, little-endian u32 payload length.
pub const FRAME_HEADER_LEN: usize = 10;

/// The header of a frame carrying `payload_len` payload bytes. Together
/// with [`parse_frame_header`] this is the only place the header layout is
/// spelled out: every encoder starts its frame with these bytes and every
/// parser reads them back through the inverse.
pub fn frame_header(payload_len: usize) -> [u8; FRAME_HEADER_LEN] {
    let [m0, m1, m2, m3] = MAGIC;
    let [v0, v1] = VERSION.to_le_bytes();
    let [l0, l1, l2, l3] = (payload_len as u32).to_le_bytes();
    [m0, m1, m2, m3, v0, v1, l0, l1, l2, l3]
}

/// Validates a complete frame header (magic, version) and returns the
/// payload length it declares. Callers reading from an untrusted peer bound
/// the returned length before allocating for it.
pub fn parse_frame_header(header: &[u8; FRAME_HEADER_LEN]) -> Result<usize, WireError> {
    let [m0, m1, m2, m3, v0, v1, l0, l1, l2, l3] = *header;
    if [m0, m1, m2, m3] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    Ok(u32::from_le_bytes([l0, l1, l2, l3]) as usize)
}

/// Types that can serialize themselves into the wire format.
pub trait WireEncode {
    /// Appends this value's encoding to the writer.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh byte vector (unframed).
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Encodes with the `VAQ1` frame header (magic + version + payload
    /// length), suitable for writing to disk or a socket.
    fn to_framed_bytes(&self) -> Vec<u8> {
        self.to_framed_bytes_reusing(&mut Vec::new())
    }

    /// Like [`WireEncode::to_framed_bytes`], but assembles the frame in
    /// `scratch`, reusing its allocation across calls: a header-sized
    /// placeholder goes in first, the payload is encoded directly behind
    /// it, and the real header overwrites the placeholder once the payload
    /// length is known. The returned frame is one exact-size copy of the
    /// scratch contents, so a warm caller pays one allocation and one
    /// memcpy per message instead of two of each.
    fn to_framed_bytes_reusing(&self, scratch: &mut Vec<u8>) -> Vec<u8> {
        framed_reusing(scratch, |w| self.encode(w))
    }
}

/// Frames the payload `write` appends, assembled in `scratch` as
/// [`WireEncode::to_framed_bytes_reusing`] describes.
pub(crate) fn framed_reusing(scratch: &mut Vec<u8>, write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::reusing(std::mem::take(scratch));
    w.put_raw(&[0u8; FRAME_HEADER_LEN]);
    write(&mut w);
    *scratch = w.into_bytes();
    let payload_len = scratch.len().saturating_sub(FRAME_HEADER_LEN);
    if let Some(header) = scratch.get_mut(..FRAME_HEADER_LEN) {
        header.copy_from_slice(&frame_header(payload_len));
    }
    scratch.clone()
}

/// Types that can deserialize themselves from the wire format.
pub trait WireDecode: Sized {
    /// Reads one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Convenience: decodes from an unframed byte slice, requiring that all
    /// bytes are consumed.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }

    /// Decodes a `VAQ1`-framed message.
    fn from_framed_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let (header, payload) = bytes
            .split_first_chunk::<FRAME_HEADER_LEN>()
            .ok_or(WireError::Truncated)?;
        let len = parse_frame_header(header)?;
        if payload.len() != len {
            return Err(WireError::LengthMismatch {
                declared: len,
                actual: payload.len(),
            });
        }
        Self::from_wire_bytes(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair(u32, f64);

    impl WireEncode for Pair {
        fn encode(&self, w: &mut Writer) {
            w.put_u32(self.0);
            w.put_f64(self.1);
        }
    }
    impl WireDecode for Pair {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Pair(r.get_u32()?, r.get_f64()?))
        }
    }

    #[test]
    fn framed_roundtrip() {
        let p = Pair(7, 2.5);
        let bytes = p.to_framed_bytes();
        assert_eq!(&bytes[..4], b"VAQ1");
        assert_eq!(Pair::from_framed_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn reusing_frame_is_byte_identical_and_keeps_the_allocation() {
        let p = Pair(7, 2.5);
        let mut scratch = Vec::with_capacity(256);
        let frame = p.to_framed_bytes_reusing(&mut scratch);
        assert_eq!(frame, p.to_framed_bytes());
        assert_eq!(Pair::from_framed_bytes(&frame).unwrap(), p);
        // The scratch allocation survives and is reused on the next call.
        assert!(scratch.capacity() >= 256);
        let again = Pair(9, -0.5).to_framed_bytes_reusing(&mut scratch);
        assert_eq!(again, Pair(9, -0.5).to_framed_bytes());
    }

    #[test]
    fn frame_rejects_bad_magic_and_version() {
        let p = Pair(7, 2.5);
        let mut bytes = p.to_framed_bytes();
        bytes[0] = b'X';
        assert_eq!(Pair::from_framed_bytes(&bytes), Err(WireError::BadMagic));

        // Version 1 carried records in a retired layout.
        for version in [1, 9] {
            let mut bytes = p.to_framed_bytes();
            bytes[4] = version;
            assert_eq!(
                Pair::from_framed_bytes(&bytes),
                Err(WireError::UnsupportedVersion(version.into()))
            );
        }
    }

    #[test]
    fn frame_rejects_length_mismatch_and_truncation() {
        let p = Pair(7, 2.5);
        let mut bytes = p.to_framed_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            Pair::from_framed_bytes(&bytes),
            Err(WireError::LengthMismatch { .. })
        ));
        assert_eq!(
            Pair::from_framed_bytes(&bytes[..5]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn unframed_requires_full_consumption() {
        let p = Pair(1, 1.0);
        let mut bytes = p.to_wire_bytes();
        bytes.push(0xAA);
        assert!(matches!(
            Pair::from_wire_bytes(&bytes),
            Err(WireError::TrailingBytes(_))
        ));
    }
}
