//! Socket-level VAQ1 frame reading and writing.
//!
//! A frame is the on-disk format of `vaq_wire` put on a stream: the
//! [`vaq_wire::frame_header`] bytes (magic, version, payload length), then
//! the payload. This module holds the one parser for it,
//! [`FrameAssembler`]: an incremental state machine that never touches a
//! socket itself. The reactor feeds it from non-blocking reads (`conn.rs`);
//! the blocking client reader [`read_frame`] feeds it from a read loop.
//! Either way the declared length is checked against a caller-supplied
//! limit **before** the payload is allocated, and the payload buffer grows
//! with the bytes that arrive rather than with the length the header
//! declares, so a hostile peer cannot make either side reserve megabytes
//! with a 10-byte header.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};
use vaq_wire::{parse_frame_header, WireDecode, WireEncode, WireError, FRAME_HEADER_LEN};

use crate::error::ServiceError;

/// How long a partially received frame may keep trickling in before the
/// reader gives up. Streams with a short poll-style read timeout would
/// otherwise drop any client whose frame spans more than one timeout window
/// — a TCP retransmit or a slow link must not kill the connection
/// mid-frame. The server promotes this into
/// [`crate::ServiceConfig::mid_frame_patience`]; the blocking client reader
/// uses this default.
pub const DEFAULT_MID_FRAME_PATIENCE: Duration = Duration::from_secs(10);

/// The most payload buffer a frame header alone can claim. A frame of up to
/// this many bytes gets one exact-size buffer when its header completes;
/// a longer one starts here and doubles, up to its declared length, as its
/// payload lands.
const FIRST_PAYLOAD_CHUNK: usize = 64 * 1024;

/// Incremental VAQ1 frame parser.
///
/// The caller reads stream bytes directly into [`FrameAssembler::spare`]
/// and reports how many landed via [`FrameAssembler::advance`]; the
/// assembler validates the header (magic, version, length limit) the moment
/// it completes, so an oversized frame is rejected before its payload is
/// ever allocated, and allocates at most [`FIRST_PAYLOAD_CHUNK`] bytes
/// ahead of the payload bytes it has received.
#[derive(Debug, Default)]
pub(crate) struct FrameAssembler {
    header: [u8; FRAME_HEADER_LEN],
    filled: usize,
    payload: Vec<u8>,
    /// The payload length the current frame's header declared.
    declared: usize,
    in_payload: bool,
}

impl FrameAssembler {
    /// True while the stream offset sits inside a started frame — the state
    /// in which a silent peer is *stalled* rather than idle, and an EOF is a
    /// truncation rather than a clean close.
    pub(crate) fn mid_frame(&self) -> bool {
        self.in_payload || self.filled > 0
    }

    /// The buffer slice the next read should fill (never empty).
    pub(crate) fn spare(&mut self) -> &mut [u8] {
        let buffer: &mut [u8] = if self.in_payload {
            &mut self.payload
        } else {
            &mut self.header
        };
        buffer.get_mut(self.filled..).unwrap_or(&mut [])
    }

    /// Records that `n` bytes just landed in [`FrameAssembler::spare`];
    /// returns the frame's payload (header already validated and stripped)
    /// once those bytes complete it.
    pub(crate) fn advance(
        &mut self,
        n: usize,
        max_payload: usize,
    ) -> Result<Option<Vec<u8>>, ServiceError> {
        self.filled += n;
        if !self.in_payload {
            if self.filled < FRAME_HEADER_LEN {
                return Ok(None);
            }
            let len = parse_frame_header(&self.header)?;
            if len > max_payload {
                return Err(ServiceError::FrameTooLarge {
                    declared: len,
                    limit: max_payload,
                });
            }
            self.filled = 0;
            self.declared = len;
            self.payload = vec![0u8; len.min(FIRST_PAYLOAD_CHUNK)];
            self.in_payload = len > 0;
        }
        if self.filled < self.payload.len() {
            return Ok(None);
        }
        if self.filled < self.declared {
            let grown = self.declared.min(2 * self.payload.len());
            self.payload.resize(grown, 0);
            return Ok(None);
        }
        self.filled = 0;
        self.in_payload = false;
        Ok(Some(std::mem::take(&mut self.payload)))
    }
}

/// Outcome of trying to read one frame from a stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly before a new frame started.
    Closed,
    /// A read timeout fired before any byte of a new frame arrived; the
    /// connection is idle but intact (only possible with a read timeout
    /// set on the stream).
    Idle,
}

/// Reads one frame payload from a blocking stream, enforcing `max_payload`
/// before allocation. A frame of up to 64 KiB that arrives whole costs two
/// reads: one for the header, one for the payload.
pub fn read_frame(stream: &mut impl Read, max_payload: usize) -> Result<FrameRead, ServiceError> {
    read_frame_with_patience(stream, max_payload, DEFAULT_MID_FRAME_PATIENCE)
}

/// [`read_frame`] with an explicit mid-frame patience window. A peer that
/// stops sending inside a frame for longer than `patience` surfaces as a
/// typed [`ServiceError::Stalled`] — distinguishable from a generic I/O
/// failure both locally and in per-error-code counters.
fn read_frame_with_patience(
    stream: &mut impl Read,
    max_payload: usize,
    patience: Duration,
) -> Result<FrameRead, ServiceError> {
    let mut assembler = FrameAssembler::default();
    // Patience is measured from the last byte of progress, not the start of
    // the frame, so a large frame trickling in steadily is never dropped —
    // only a stalled one.
    let mut last_progress = Instant::now();
    loop {
        match stream.read(assembler.spare()) {
            Ok(0) if assembler.mid_frame() => {
                return Err(ServiceError::Wire(WireError::Truncated));
            }
            Ok(0) => return Ok(FrameRead::Closed),
            Ok(n) => {
                last_progress = Instant::now();
                if let Some(payload) = assembler.advance(n, max_payload)? {
                    return Ok(FrameRead::Payload(payload));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !assembler.mid_frame() {
                    return Ok(FrameRead::Idle);
                }
                // A poll-style timeout mid-frame is not an error: the frame
                // has started arriving, so keep waiting (bounded) for the
                // rest.
                if last_progress.elapsed() >= patience {
                    return Err(ServiceError::Stalled { patience });
                }
            }
            Err(e) => return Err(ServiceError::Io(e)),
        }
    }
}

/// Reads one framed message and decodes it. An idle timeout surfaces as a
/// `TimedOut` I/O error — callers wanting to poll should use [`read_frame`].
pub fn read_message<T: WireDecode>(
    stream: &mut impl Read,
    max_payload: usize,
) -> Result<Option<T>, ServiceError> {
    match read_frame(stream, max_payload)? {
        FrameRead::Closed => Ok(None),
        FrameRead::Idle => Err(ServiceError::Io(std::io::Error::new(
            ErrorKind::TimedOut,
            "timed out waiting for a response frame",
        ))),
        FrameRead::Payload(payload) => Ok(Some(T::from_wire_bytes(&payload)?)),
    }
}

/// Encodes a message and writes it as one frame; returns the frame length.
pub fn write_message<T: WireEncode>(
    stream: &mut impl Write,
    message: &T,
) -> Result<usize, ServiceError> {
    let frame = message.to_framed_bytes();
    stream.write_all(&frame)?;
    Ok(frame.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use vaq_wire::{frame_header, Request};

    #[test]
    fn frame_roundtrips_through_a_stream() {
        let request = Request::Ping;
        let mut buffer = Vec::new();
        let written = write_message(&mut buffer, &request).unwrap();
        assert_eq!(written, buffer.len());
        let mut cursor = Cursor::new(buffer);
        let decoded: Request = read_message(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(decoded, request);
        // The stream is now empty: the next read reports a clean close.
        assert!(matches!(
            read_frame(&mut cursor, 1024).unwrap(),
            FrameRead::Closed
        ));
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        let frame = frame_header(u32::MAX as usize);
        let err = read_frame(&mut Cursor::new(frame), 4096).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::FrameTooLarge { limit: 4096, .. }
        ));
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let mut frame = Request::Ping.to_framed_bytes();
        frame[0] = b'X';
        let err = read_frame(&mut Cursor::new(&frame), 1024).unwrap_err();
        assert!(matches!(err, ServiceError::Wire(WireError::BadMagic)));

        let frame = Request::Ping.to_framed_bytes();
        for cut in 1..frame.len() {
            let err = read_frame(&mut Cursor::new(&frame[..cut]), 1024).unwrap_err();
            assert!(
                matches!(err, ServiceError::Wire(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    /// A scripted peer: yields at most `chunk` bytes per read and, with
    /// `timeouts`, a poll timeout between consecutive reads (a slow link
    /// under a poll-style read timeout). Once the bytes run out it reports
    /// EOF, or — with `stalls` — times out forever (a slow-loris peer).
    struct Peer<'a> {
        rest: &'a [u8],
        chunk: usize,
        timeouts: bool,
        stalls: bool,
        parched: bool,
    }

    impl Peer<'_> {
        fn new(rest: &[u8], chunk: usize) -> Peer<'_> {
            // `parched: true` so that the first read of a `timeouts` peer
            // yields bytes: a timeout before any byte is the Idle case.
            Peer {
                rest,
                chunk,
                timeouts: false,
                stalls: false,
                parched: true,
            }
        }
    }

    impl Read for Peer<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.rest.is_empty() && !self.stalls {
                return Ok(0);
            }
            self.parched = self.timeouts && !self.parched;
            if self.parched || self.rest.is_empty() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "poll timeout"));
            }
            let n = buf.len().min(self.chunk).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_survive_poll_timeouts_mid_frame() {
        let request = Request::Ping;
        let frame = request.to_framed_bytes();
        let mut stream = Peer {
            timeouts: true,
            ..Peer::new(&frame, 1)
        };
        let decoded: Request = read_message(&mut stream, 1024).unwrap().unwrap();
        assert_eq!(decoded, request);
    }

    #[test]
    fn mid_frame_stalls_surface_as_typed_errors() {
        let patience = Duration::from_millis(20);
        let frame = Request::Ping.to_framed_bytes();
        // Stall inside the header (three magic bytes, then silence), and
        // inside the payload (the full header arrives, no payload).
        for cut in [3, FRAME_HEADER_LEN] {
            let mut stream = Peer {
                stalls: true,
                ..Peer::new(&frame[..cut], 1)
            };
            let err = read_frame_with_patience(&mut stream, 1024, patience).unwrap_err();
            assert!(
                matches!(err, ServiceError::Stalled { patience: p } if p == patience),
                "cut at {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn timeout_before_any_byte_reports_idle() {
        let mut silent = Peer {
            stalls: true,
            ..Peer::new(&[], 1)
        };
        assert!(matches!(
            read_frame(&mut silent, 1024).unwrap(),
            FrameRead::Idle
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        for version in [1, 9] {
            let mut frame = Request::Ping.to_framed_bytes();
            frame[4] = version;
            let err = read_frame(&mut Cursor::new(frame), 1024).unwrap_err();
            assert!(
                matches!(err, ServiceError::Wire(WireError::UnsupportedVersion(v)) if v == u16::from(version)),
                "{err:?}"
            );
        }
    }

    /// What a byte stream parses to: the payloads of its complete frames,
    /// then how it ended (`Ok` = clean close at a frame boundary).
    type Parsed = (Vec<Vec<u8>>, Result<(), String>);

    fn failed(e: ServiceError) -> Result<(), String> {
        Err(format!("{e:?}"))
    }

    /// Feeds a stream to a bare assembler the way `Conn::pump_reads` does.
    fn parse_incrementally(mut stream: Peer<'_>, limit: usize) -> Parsed {
        let mut assembler = FrameAssembler::default();
        let mut payloads = Vec::new();
        loop {
            let n = stream.read(assembler.spare()).unwrap();
            if n == 0 && assembler.mid_frame() {
                return (payloads, failed(WireError::Truncated.into()));
            } else if n == 0 {
                return (payloads, Ok(()));
            }
            match assembler.advance(n, limit) {
                Ok(frame) => payloads.extend(frame),
                Err(e) => return (payloads, failed(e)),
            }
        }
    }

    /// Reads a stream through the blocking reader until it closes or fails.
    fn parse_blocking(mut stream: Peer<'_>, limit: usize) -> Parsed {
        let mut payloads = Vec::new();
        loop {
            match read_frame(&mut stream, limit) {
                Ok(FrameRead::Payload(payload)) => payloads.push(payload),
                Ok(FrameRead::Closed) => return (payloads, Ok(())),
                Ok(FrameRead::Idle) => panic!("a peer without timeouts is never idle"),
                Err(e) => return (payloads, failed(e)),
            }
        }
    }

    #[test]
    fn a_header_followed_by_silence_claims_at_most_the_first_chunk() {
        let max_payload = crate::ServiceConfig::default().max_frame_bytes;
        let mut assembler = FrameAssembler::default();
        assembler.spare()[..FRAME_HEADER_LEN].copy_from_slice(&frame_header(max_payload));
        assert!(assembler
            .advance(FRAME_HEADER_LEN, max_payload)
            .unwrap()
            .is_none());
        assert!(assembler.mid_frame());
        assert_eq!(assembler.spare().len(), FIRST_PAYLOAD_CHUNK);
        assert!(assembler.payload.capacity() <= FIRST_PAYLOAD_CHUNK);
        // The buffer then grows with what arrives: one full chunk of payload
        // buys one doubling, not the declared 16 MiB.
        let n = assembler.spare().len();
        assert!(assembler.advance(n, max_payload).unwrap().is_none());
        assert!(assembler.payload.capacity() <= 2 * FIRST_PAYLOAD_CHUNK);
        assert_eq!(assembler.spare().len(), FIRST_PAYLOAD_CHUNK);
    }

    #[test]
    fn one_parser_one_verdict_for_every_stream_and_chunking() {
        const LIMIT: usize = 256 * 1024;
        let ping = Request::Ping.to_framed_bytes();
        let query =
            Request::Query(vaq_authquery::Query::top_k(vec![0.25, 0.75], 3)).to_framed_bytes();
        let payload = |frame: &[u8]| frame[FRAME_HEADER_LEN..].to_vec();
        let mut bad_magic = ping.clone();
        bad_magic[0] = b'X';
        let mut wrong_version = ping.clone();
        wrong_version[4] = 9;
        let too_large = ServiceError::FrameTooLarge {
            declared: LIMIT + 1,
            limit: LIMIT,
        };
        let truncated = || failed(WireError::Truncated.into());
        // Past the first chunk the payload buffer grows 64 → 128 → 150 KB.
        let big_payload: Vec<u8> = (0..150_000u32).map(|i| i as u8).collect();
        let big = [&frame_header(big_payload.len())[..], &big_payload].concat();

        let table: Vec<(&str, Vec<u8>, Parsed)> = vec![
            ("valid", query.clone(), (vec![payload(&query)], Ok(()))),
            (
                "empty payload",
                frame_header(0).to_vec(),
                (vec![vec![]], Ok(())),
            ),
            (
                "bad magic",
                bad_magic,
                (vec![], failed(WireError::BadMagic.into())),
            ),
            (
                "wrong version",
                wrong_version,
                (vec![], failed(WireError::UnsupportedVersion(9).into())),
            ),
            (
                "over the limit",
                frame_header(LIMIT + 1).to_vec(),
                (vec![], failed(too_large)),
            ),
            (
                "EOF inside header",
                ping[..7].to_vec(),
                (vec![], truncated()),
            ),
            (
                "EOF inside payload",
                query[..query.len() - 2].to_vec(),
                (vec![], truncated()),
            ),
            (
                "two frames back to back",
                [ping.as_slice(), query.as_slice()].concat(),
                (vec![payload(&ping), payload(&query)], Ok(())),
            ),
            (
                "frame larger than the first chunk, then another",
                [big.as_slice(), ping.as_slice()].concat(),
                (vec![big_payload.clone(), payload(&ping)], Ok(())),
            ),
        ];
        for (name, bytes, expected) in &table {
            for chunk in [1, 3, usize::MAX] {
                let stream = || Peer::new(bytes, chunk);
                let incremental = parse_incrementally(stream(), LIMIT);
                assert_eq!(&incremental, expected, "{name}: assembler, chunk {chunk}");
                let blocking = parse_blocking(stream(), LIMIT);
                assert_eq!(
                    &blocking, expected,
                    "{name}: blocking reader, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn every_framer_starts_with_the_one_header() {
        let request = Request::Query(vaq_authquery::Query::top_k(vec![0.25, 0.75], 3));
        let header = frame_header(request.to_wire_bytes().len());
        assert_eq!(request.to_framed_bytes()[..FRAME_HEADER_LEN], header);
        let reused = request.to_framed_bytes_reusing(&mut Vec::new());
        assert_eq!(reused[..FRAME_HEADER_LEN], header);
        assert_eq!(
            parse_frame_header(&header),
            Ok(request.to_wire_bytes().len())
        );
    }
}
