//! The evented reactors: [`crate::ServiceConfig::workers`] threads, each with
//! its own poller and connection table, blocked in [`Poller::poll`] (Linux
//! `epoll`) until one of its sockets is ready or a deadline comes due. A
//! reactor answers its own connections in place: it reads a frame, decodes
//! it, looks the answer up or computes it, encodes it and writes it on its
//! own thread — run to completion, the shared-nothing shape of IX (Belay et
//! al., OSDI 2014). A request never changes threads, and a silent
//! connection costs nothing.
//!
//! One reactor **turn** is: `poll` with the nearest deadline as its timeout
//! → for each event accept, or [`Reactor::service`] that connection (the
//! waker only ends the `poll`, for shutdown) → fire the deadlines that came
//! due.
//!
//! Every reactor registers the one listener with [`poll::ACCEPT`]: an
//! arrival wakes one blocked reactor rather than all of them (a busy one
//! finds it on its next `poll`), and whichever reactor looks accepts until
//! `WouldBlock` and keeps what it accepted. The kernel wakes the first
//! blocked reactor in registration order, so a reactor that accepted
//! requeues its registration behind the others' ([`Poller::requeue`]):
//! connections arriving at an idle service go round the reactors instead
//! of all landing on one. The listener is edge-triggered
//! because a level-triggered one would re-report an accept error that does
//! not clear (descriptor or memory exhaustion) at once and spin the thread:
//! a connection that died in the backlog is skipped, and any other error
//! ends the pass and retries it through the deadline heap after
//! [`ACCEPT_BACKOFF`]. `Shared::live` counts the connections in every
//! reactor's table — a connection arriving while it holds
//! [`crate::ServiceConfig::max_connections`] is shed with a typed
//! `Overloaded` goodbye through the same non-blocking write queue every
//! other close-after reply uses (counted under `connections_shed`, never in
//! `requests_served`). On shutdown each reactor lets go of the listener
//! before its drain starts, so no connection is accepted that could not be
//! answered.
//!
//! Every connection is non-blocking and registered once, edge-triggered.
//! Three things make that correct: `pump_reads` and `pump_writes` run to
//! `WouldBlock`; a connection whose read pass stopped at
//! [`MAX_CONN_BACKLOG`] is read again through the deadline heap, due at
//! once (no new edge would come for the bytes behind it); and registering
//! reports the socket's current readiness, which flushes an over-limit
//! connection's goodbye and arms every new connection's read timeout.
//!
//! Time limits — the mid-frame stall window, a shed connection's unread
//! goodbye and linger, a quiet connection's read timeout, a read pass cut
//! short at the backlog — share one min-heap with lazy validation:
//! `service` pushes the earliest deadline the connection's state implies
//! only if it is earlier than [`Conn::armed`], and a popped entry that no
//! longer equals `armed` is skipped, so a busy connection pushes nothing and
//! a quiet one costs nothing until its time is up.
//!
//! The frames of one read pass are answered in arrival order before the
//! next pass, so replies are written in request order — a client pipelines
//! by sending frames back to back and reading the replies in the order it
//! sent them. [`serve`] is the one per-connection step (answer → write →
//! count served requests → close or linger); `service` and the shutdown
//! flush both run it.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, ErrorKind};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vaq_wire::{ErrorCode, Response, WireEncode};

use crate::conn::Conn;
use crate::error::ServiceError;
use crate::metrics::Metrics;
use crate::poll::{self, Event, Poller, Waker};
use crate::server::{error_response, finish_request, handle_request, Shared};
use crate::trace::Trace;

/// Poller tokens of the listener and the waker; connection ids count up
/// from zero and never reach them.
const LISTENER: u64 = u64::MAX;
const WAKER: u64 = u64::MAX - 1;

/// Readiness reports taken per `poll`; any more stay queued in the kernel.
const EVENT_BATCH: usize = 256;

/// How long the listener rests after an accept error that retrying at once
/// would only repeat.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Most requests one read pass takes off a connection before the reactor
/// answers them and turns to its other connections; the rest wait in the
/// socket, where TCP backpressure throttles the peer.
const MAX_CONN_BACKLOG: usize = 128;

/// How long graceful shutdown spends flushing final replies.
const FLUSH_DEADLINE: Duration = Duration::from_secs(1);

/// A reactor's entry point, run on its own thread until shutdown, with the
/// `listener` that `reactor` was built over.
pub(crate) fn run(mut reactor: Reactor, listener: Arc<TcpListener>) {
    // `shutdown_inner` raises the flag and then wakes every reactor, so the
    // turn that is blocked (or about to block) returns at once.
    while !reactor.shared.shutdown.load(Ordering::SeqCst) {
        reactor.turn(&listener);
    }
    // Let go of the listener before the drain: once every reactor has, a
    // connect is refused by the kernel instead of queueing behind reactors
    // that will never accept it.
    drop(listener);
    reactor.drain();
}

/// `(when, connection id)`, earliest first.
type Deadlines = BinaryHeap<Reverse<(Instant, u64)>>;

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    /// Ends this reactor's `poll` for shutdown; `QueryService` holds the
    /// other handle.
    waker: Arc<Waker>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    /// Every armed deadline, plus entries that went stale since (their
    /// connection closed or armed an earlier one): `fire_due` tells them
    /// apart by comparing with [`Conn::armed`], and `turn` keeps the stale
    /// ones from outnumbering the live.
    deadlines: Deadlines,
    /// The listener's `armed`: its pending accept retry, under [`LISTENER`].
    accept_armed: Option<Instant>,
}

/// Pushes `(when, id)` unless its owner already holds an entry at least as
/// early. `armed` is the owner's record of its earliest entry, so the heap
/// gains an entry only when a deadline moves *earlier* — never per request.
fn arm(deadlines: &mut Deadlines, armed: &mut Option<Instant>, when: Instant, id: u64) {
    if armed.is_none_or(|at| when < at) {
        *armed = Some(when);
        deadlines.push(Reverse((when, id)));
    }
}

/// What the accept pass does after `accept` failed.
#[derive(Debug, PartialEq)]
enum AcceptFailure {
    /// The backlog is empty: the pass is over until the next event.
    Drained,
    /// That one connection died in the backlog (or a signal landed); the
    /// next one is unaffected.
    TryNext,
    /// Descriptor or memory exhaustion, or anything unrecognised: an
    /// immediate retry would repeat it, so the pass stops and retries after
    /// [`ACCEPT_BACKOFF`] — connections left in the backlog raise no event.
    BackOff,
}

fn classify_accept_error(kind: ErrorKind) -> AcceptFailure {
    match kind {
        ErrorKind::WouldBlock => AcceptFailure::Drained,
        ErrorKind::Interrupted | ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset => {
            AcceptFailure::TryNext
        }
        _ => AcceptFailure::BackOff,
    }
}

impl Reactor {
    /// A reactor over `listener` (already non-blocking), registered with a
    /// new poller beside a new waker under their reserved tokens.
    pub(crate) fn new(shared: Arc<Shared>, listener: &TcpListener) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(listener.as_raw_fd(), LISTENER, poll::ACCEPT)?;
        poller.add(waker.fd(), WAKER, poll::LEVEL)?;
        Ok(Reactor {
            shared,
            poller,
            waker,
            conns: HashMap::new(),
            next_id: 0,
            deadlines: BinaryHeap::new(),
            accept_armed: None,
        })
    }

    /// The handle that ends this reactor's `poll` from another thread.
    pub(crate) fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// One reactor turn: block until something is ready or due, then handle
    /// all of it.
    fn turn(&mut self, listener: &TcpListener) {
        let mut events = [Event::default(); EVENT_BATCH];
        let nearest = self.deadlines.peek().map(|Reverse((when, _))| *when);
        let timeout = nearest.map(|when| when.saturating_duration_since(Instant::now()));
        let ready = self.poller.poll(&mut events, timeout);
        let started = Instant::now();
        for event in events.iter().take(ready) {
            match event.token() {
                LISTENER => self.accept_ready(listener),
                WAKER => self.waker.drain(),
                id => self.service(id),
            }
        }
        self.fire_due(listener, Instant::now());
        // A stale entry leaves when it comes due, which under connection
        // churn is a whole read timeout away. Once stale entries outnumber
        // live ones the heap is rebuilt from what is still armed, so it
        // never holds much over two per connection — at an amortised O(1)
        // per push.
        if self.deadlines.len() > 2 * self.conns.len() + EVENT_BATCH {
            let armed = |(&id, conn): (&u64, &Conn)| Some(Reverse((conn.armed?, id)));
            let retry = self.accept_armed.map(|when| Reverse((when, LISTENER)));
            self.deadlines = self.conns.iter().filter_map(armed).chain(retry).collect();
        }
        // The stall watchdog: every turn — the requests it answered
        // included — feeds the duration histogram, and one that kept the
        // reactor away from the poller past the configured threshold counts
        // as a stall.
        let stall = self.shared.config.reactor_stall_micros;
        self.shared.metrics.observe_sweep(started.elapsed(), stall);
    }

    /// Accepts until the listener would block (it is edge-triggered: what
    /// this pass leaves in the backlog raises no further event).
    fn accept_ready(&mut self, listener: &TcpListener) {
        let mut admitted = false;
        loop {
            let accepted = listener.accept();
            match accepted.map_err(|error| classify_accept_error(error.kind())) {
                Ok((stream, _)) => {
                    self.admit(stream);
                    admitted = true;
                }
                Err(AcceptFailure::Drained) => {
                    // To the back of the listener's wake order, so the next
                    // arrival at an idle service goes to another reactor.
                    // Should that fail, this reactor keeps its connections
                    // and accepts no more; the others still do.
                    if admitted && self.shared.config.workers > 1 {
                        let fd = listener.as_raw_fd();
                        let _ = self.poller.requeue(fd, LISTENER, poll::ACCEPT);
                    }
                    return;
                }
                Err(AcceptFailure::TryNext) => {}
                Err(AcceptFailure::BackOff) => {
                    let retry = Instant::now() + ACCEPT_BACKOFF;
                    return arm(&mut self.deadlines, &mut self.accept_armed, retry, LISTENER);
                }
            }
        }
    }

    /// Fires every deadline due at `now`: an entry that still equals its
    /// owner's `armed` re-runs the owner, which re-arms whatever its state
    /// then implies; any other entry is stale and dropped.
    fn fire_due(&mut self, listener: &TcpListener, now: Instant) {
        while let Some(&Reverse((when, id))) = self.deadlines.peek() {
            if when > now {
                break;
            }
            self.deadlines.pop();
            let armed = match self.conns.get_mut(&id) {
                Some(conn) => &mut conn.armed,
                None if id == LISTENER => &mut self.accept_armed,
                None => continue,
            };
            if *armed != Some(when) {
                continue;
            }
            *armed = None;
            match id {
                LISTENER => self.accept_ready(listener),
                id => self.service(id),
            }
        }
    }

    /// Adopts one accepted connection — or, with the service already holding
    /// `max_connections` across every reactor, sheds it: the connection is
    /// never read, and a typed `Overloaded` goodbye closes it once flushed,
    /// so the client can tell overload from a crash.
    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // The reactor multiplexes this socket; it must never block.
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut conn = Conn::new(stream);
        // A shed connection counts too, until its goodbye is out and it
        // closes.
        let live = self.shared.live.fetch_add(1, Ordering::Relaxed);
        if live >= self.shared.config.max_connections {
            Metrics::add(&self.shared.metrics.connections_shed, 1);
            conn.reads_done = true;
            let reply = error_response(
                &self.shared,
                ErrorCode::Overloaded,
                "service is at its connection limit; retry later".into(),
            );
            // No trace: a shed reply is not a served request.
            let budget = self.shared.config.write_queue_budget_bytes;
            conn.enqueue(Arc::new(reply.to_framed_bytes()), None, true, budget);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        // Registering reports the socket's readiness as it is now (a fresh
        // socket is writable), so `service` runs on the next turn: it reads
        // what already arrived, flushes a shed goodbye and arms the read
        // timeout. Closing the socket is what deregisters it.
        let fd = conn.stream.as_raw_fd();
        if self.poller.add(fd, id, poll::EDGE).is_ok() {
            self.conns.insert(id, conn);
        } else {
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Everything one connection needs right now — on a readiness event or
    /// a due deadline: reads, frame and stall errors, [`serve`], the shed /
    /// linger / drained / quiet checks, and the deadline its new state
    /// implies.
    fn service(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // closed earlier in this turn
        };
        let shared = &*self.shared;
        let patience = shared.config.mid_frame_patience;
        let pass = conn.pump_reads(shared.config.max_frame_bytes, MAX_CONN_BACKLOG);
        if pass.bytes > 0 {
            Metrics::add(&shared.metrics.bytes_in, pass.bytes);
        }
        // The pass stopped at the backlog bound, not at `WouldBlock`: the
        // socket may hold more, and raises no new edge for it.
        let more = !conn.reads_done && pass.frames.len() >= MAX_CONN_BACKLOG;
        let mut frames = pass.frames;
        if let Some(error) = pass.error {
            // The connection ends here, and the frames read ahead of the
            // failure go unanswered.
            frames.clear();
            if conn.shed {
                // The goodbye can no longer be delivered cleanly;
                // nothing else on a shed connection is worth saving.
                conn.abort();
            } else {
                frame_error(shared, conn, error);
            }
        }
        let limit = |conn: &Conn| conn.next_deadline(patience, shared.config.read_timeout);
        let lapsed = |when: Instant| when <= Instant::now();
        // A stalled peer — no byte for a whole patience window inside a
        // started frame — is told so, and `serve` flushes the reply.
        if conn.stalling() && limit(conn).is_some_and(lapsed) {
            frame_error(shared, conn, ServiceError::Stalled { patience });
        }
        let close = serve(shared, conn, frames);
        // Every other limit is judged after the write pass, which may just
        // have moved bytes, and ends the connection silently: a shed slow
        // reader that will not read its goodbye cannot pin its write queue,
        // the post-goodbye draining linger is bounded, and a quiet
        // connection past its read timeout is reaped.
        let next = limit(conn);
        // A pass cut short at the backlog is read again through the
        // deadline heap, due at once: one backlog's worth at a time, with
        // every other connection, deadline and the shutdown flag getting
        // their turn in between. That bounds the head-of-line blocking a
        // deep pipeline causes, and a shed peer that never stops sending
        // cannot hold the thread either.
        let again = more.then(Instant::now);
        if close || conn.drained() || (!conn.stalling() && next.is_some_and(lapsed)) {
            self.conns.remove(&id);
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
        } else if let Some(when) = again.or(next) {
            arm(&mut self.deadlines, &mut conn.armed, when, id);
        }
    }

    /// Graceful shutdown: stop reading, then a best-effort typed
    /// `ShuttingDown` reply on every connection before the close. Every
    /// request already read was answered in its own turn, so only writes
    /// are left; the flush blocks in the poller on writability, with its
    /// deadline as the timeout.
    fn drain(mut self) {
        let goodbye = Arc::new(
            error_response(
                &self.shared,
                ErrorCode::ShuttingDown,
                "service is shutting down".into(),
            )
            .to_framed_bytes(),
        );
        let budget = self.shared.config.write_queue_budget_bytes;
        for conn in self.conns.values_mut() {
            conn.reads_done = true;
            conn.enqueue(Arc::clone(&goodbye), None, true, budget);
        }
        let flush_deadline = Instant::now() + FLUSH_DEADLINE;
        loop {
            self.flush_all();
            if self.conns.is_empty() || !self.block_until(flush_deadline) {
                break;
            }
        }
    }

    /// Shutdown's wait: blocks until a socket is ready, and returns `false`
    /// without blocking once `deadline` has passed. The shutdown wake may
    /// still be pending (the turn it interrupted never polled again), so it
    /// is drained here, or every wait after it would return at once.
    fn block_until(&self, deadline: Instant) -> bool {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        self.poller
            .poll(&mut [Event::default(); EVENT_BATCH], Some(left));
        self.waker.drain();
        true
    }

    /// Serves every connection with output queued (shutdown has already
    /// stopped reads, so serving them only writes), dropping the ones whose
    /// final frame drained.
    fn flush_all(&mut self) {
        let (shared, before) = (&*self.shared, self.conns.len());
        self.conns
            .retain(|_, conn| !(conn.wants_write() && serve(shared, conn, Vec::new())));
        let closed = before - self.conns.len();
        shared.live.fetch_sub(closed, Ordering::Relaxed);
    }
}

/// The one per-connection step: answer `frames` in arrival order on this
/// thread, flush queued output, count every request whose response fully
/// drained, and — when the write pass asked to close — decide whether the
/// connection drops now (`true`) or lingers.
fn serve(shared: &Shared, conn: &mut Conn, frames: Vec<Vec<u8>>) -> bool {
    // A frame's queue wait is the time it spends behind the earlier frames
    // of its own read pass.
    let received = Instant::now();
    let budget = shared.config.write_queue_budget_bytes;
    for payload in frames {
        if conn.shed {
            // Shed connections keep reading only so the eventual close does
            // not reset the peer; their requests are discarded unanswered.
            break;
        }
        let mut trace = Trace::begin(received.elapsed());
        let frame = handle_request(shared, &payload, &mut trace);
        if !conn.enqueue(frame, Some(trace), false, budget) {
            shed_slow_reader(shared, conn);
        }
    }
    let wrote = conn.pump_writes();
    if wrote.bytes > 0 {
        Metrics::add(&shared.metrics.bytes_out, wrote.bytes);
    }
    for trace in wrote.finished {
        finish_request(shared, &trace);
    }
    wrote.close && close_or_linger(conn, shared.config.mid_frame_patience)
}

/// After a write pass asked to close: returns whether the connection
/// should drop now. A shed connection half-closes instead — FIN goes out
/// behind the flushed goodbye, and the reactor keeps draining (and
/// discarding) inbound bytes until the peer closes or the linger deadline
/// passes. A full close here would make the kernel reset the peer over the
/// unread flood bytes still in the receive buffer, destroying the typed
/// goodbye before the peer reads it. Lingering only helps while reads are
/// still open: once they are done (peer EOF, or shutdown stopped them)
/// nothing more will be drained, so the connection drops at once.
fn close_or_linger(conn: &mut Conn, patience: Duration) -> bool {
    if !conn.shed || conn.reads_done {
        return true;
    }
    if conn.linger_deadline.is_none() {
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.linger_deadline = Some(Instant::now() + patience);
    }
    false
}

/// Queues a typed error reply that closes the connection once it flushes.
/// Typed replies count as served once written — the documented contract is
/// that `requests_served` includes error replies.
fn goodbye(shared: &Shared, conn: &mut Conn, reply: Response) {
    let budget = shared.config.write_queue_budget_bytes;
    let trace = Some(Trace::begin(Duration::ZERO));
    conn.enqueue(Arc::new(reply.to_framed_bytes()), trace, true, budget);
}

/// Answers a frame-level failure with a best-effort typed goodbye; a
/// transport failure closes the connection outright.
fn frame_error(shared: &Shared, conn: &mut Conn, error: ServiceError) {
    conn.reads_done = true;
    let reply = match error {
        ServiceError::FrameTooLarge { declared, limit } => error_response(
            shared,
            ErrorCode::FrameTooLarge,
            format!("frame of {declared} bytes exceeds the {limit}-byte limit"),
        ),
        ServiceError::Wire(e) => {
            error_response(shared, ErrorCode::Malformed, format!("bad frame: {e}"))
        }
        ServiceError::Stalled { patience } => error_response(
            shared,
            ErrorCode::Stalled,
            format!("no bytes for {patience:?} inside a started frame; reconnect"),
        ),
        // The socket itself failed; there is no way to deliver a reply.
        _ => return conn.abort(),
    };
    goodbye(shared, conn, reply);
}

/// Sheds a slow reader: a connection whose queued-but-unflushed response
/// bytes exceeded [`crate::ServiceConfig::write_queue_budget_bytes`]. The
/// peer requested faster than it reads, so buffering more would grow
/// without bound; instead the rest of its read pass is discarded, its
/// unstarted queued frames are dropped (a partially-written head stays so
/// the stream remains frame-aligned), and a typed `Overloaded` goodbye
/// closes the connection — via a draining half-close (see
/// [`close_or_linger`]) so the goodbye survives the flooder's own unread
/// backlog. Counted under `slow_readers_shed` in the deep stats.
fn shed_slow_reader(shared: &Shared, conn: &mut Conn) {
    if conn.shed {
        return;
    }
    // Reads stay open: the flooder's pipelined requests keep draining (and
    // are discarded in `serve`) so the close never resets the peer with
    // unread bytes and the typed goodbye below actually arrives.
    conn.shed = true;
    let queued = conn.queued_bytes();
    conn.drop_unwritten();
    Metrics::add(&shared.metrics.slow_readers_shed, 1);
    let budget = shared.config.write_queue_budget_bytes;
    let message = format!(
        "shed: queued responses would exceed the {budget}-byte write-queue \
         budget ({queued} bytes already queued unread); read responses faster"
    );
    goodbye(
        shared,
        conn,
        error_response(shared, ErrorCode::Overloaded, message),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use vaq_wire::Request;

    #[test]
    fn accept_errors_are_classified_so_none_spins_or_strands_the_backlog() {
        use AcceptFailure::{BackOff, Drained, TryNext};
        assert_eq!(classify_accept_error(ErrorKind::WouldBlock), Drained);
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
        ] {
            assert_eq!(classify_accept_error(kind), TryNext, "{kind:?}");
        }
        // EMFILE, ENFILE, ENOMEM and ENOBUFS as std maps them, and the unknown.
        let exhausted = [24, 23, 12, 105].map(|errno| io::Error::from_raw_os_error(errno).kind());
        for kind in exhausted.into_iter().chain([ErrorKind::Other]) {
            assert_eq!(classify_accept_error(kind), BackOff, "{kind:?}");
        }
    }

    #[test]
    fn a_busy_connection_holds_one_deadline_and_closed_ones_leave_no_pile() {
        let dataset = vaq_workload::uniform_dataset(8, 1, 3);
        let scheme = vaq_crypto::SignatureScheme::test_rsa(3);
        let mode = vaq_authquery::SigningMode::OneSignature;
        let tree = vaq_authquery::IfmhTree::build(&dataset, mode, &scheme);
        let server = vaq_authquery::Server::new(dataset, tree);
        let shared = Arc::new(Shared::new(crate::ServiceConfig::ephemeral(), server));
        let listener = TcpListener::bind(shared.config.bind_addr).unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut reactor = Reactor::new(Arc::clone(&shared), &listener).unwrap();

        // The test thread is the reactor: every turn blocks in the poller
        // until the peer's bytes arrive, and answers them in place.
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let ping = Request::Ping.to_framed_bytes();
        let mut pong = vec![0u8; Response::Pong.to_framed_bytes().len()];
        for served in 1..=10_000 {
            peer.write_all(&ping).unwrap();
            while Metrics::get(&shared.metrics.requests_served) < served {
                reactor.turn(&listener);
            }
            peer.read_exact(&mut pong).unwrap();
        }
        assert!(reactor.deadlines.len() <= 2, "{:?}", reactor.deadlines);
        assert!(
            reactor.conns[&0].armed.is_some(),
            "the read timeout is armed"
        );

        drop(peer);
        while !reactor.conns.is_empty() {
            reactor.turn(&listener);
        }
        assert!(
            !reactor.deadlines.is_empty(),
            "stale entries wait their time"
        );
        reactor.fire_due(&listener, Instant::now() + Duration::from_secs(3600));
        assert!(reactor.deadlines.is_empty());

        // Churn: each of these strands a read-timeout entry 30 s from due,
        // and the heap sheds them rather than grow with the connect rate.
        for _ in 0..2_000 {
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            while !reactor.conns.values().any(|conn| conn.armed.is_some()) {
                reactor.turn(&listener);
            }
            drop(peer);
            while !reactor.conns.is_empty() {
                reactor.turn(&listener);
            }
        }
        assert!(reactor.deadlines.len() <= EVENT_BATCH + 1);
        assert_eq!(
            shared.live.load(Ordering::Relaxed),
            0,
            "every close counted"
        );
    }
}
