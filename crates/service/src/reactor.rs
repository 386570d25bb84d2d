//! The evented reactor: one thread owning the listener and every client
//! connection.
//!
//! std-only, no `epoll`/`kqueue`: every socket is non-blocking and the
//! reactor sweeps them in an O(n) readiness scan, sleeping briefly on the
//! completion channel (so a finishing worker wakes it instantly) only when
//! a full sweep made no progress. Request execution stays on the worker
//! pool: the reactor turns complete frames into [`Job`]s, workers send
//! framed responses back as [`Completion`]s, and the reactor owns every
//! socket write — a connection never pins a thread.
//!
//! The reactor also accepts: every loop turn drains the non-blocking
//! listener until it would block, so an idle listener is polled once per
//! [`IDLE_NAP`]. The connection table *is* the connection count — a
//! connection arriving while the table holds
//! [`crate::ServiceConfig::max_connections`] entries is shed with a typed
//! `Overloaded` goodbye through the same non-blocking write queue every
//! other close-after reply uses (counted under `connections_shed`, never
//! in `requests_served`). On shutdown the listener closes before the drain
//! starts, so no connection is accepted that could not be answered.
//!
//! Dispatch rule per connection: one arrival-ordered pending queue, and
//! only its head is ever eligible. A tagged head
//! ([`vaq_wire::Request::Tagged`]) goes to the worker pool at once and may
//! complete out of order — which is what lets one connection pipeline many
//! concurrent requests; an untagged head waits until the previous untagged
//! reply is back, so untagged replies are written in request order. The
//! queue is strictly FIFO: a tagged frame received behind an untagged frame
//! that is still waiting its turn waits with it instead of overtaking it.
//!
//! `Dispatcher::serve` is the one per-connection step (dispatch → write →
//! count served requests → close or linger); the full sweep, the
//! post-completion flush and the shutdown flush all run it.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vaq_wire::{ErrorCode, Request, Response, WireEncode, FRAME_HEADER_LEN};

use crate::conn::{Conn, PendingRequest};
use crate::error::ServiceError;
use crate::metrics::Metrics;
use crate::server::{error_response, finish_request, handle_request, Shared};
use crate::trace::Trace;

/// How long an idle sweep sleeps on the completion channel before
/// rescanning; a completion arriving ends the nap early.
const IDLE_NAP: Duration = Duration::from_micros(500);

/// Read-scan pacing: after each O(n) scan the reactor waits at least
/// `SCAN_PACE_FACTOR` times the scan's own duration before scanning again,
/// bounding the scan's CPU share to `1 / (1 + factor)`. Small fleets scan
/// in microseconds and are effectively unpaced; a 10k-connection fleet
/// degrades to a few milliseconds of added read latency instead of a
/// non-blocking-read syscall storm that starves the worker threads.
/// Finished responses never wait on the pace — completions flush their
/// connection's writes immediately.
const SCAN_PACE_FACTOR: u32 = 3;

/// Most buffered requests per connection before the reactor stops reading
/// it and lets TCP backpressure throttle the peer.
const MAX_CONN_BACKLOG: usize = 128;

/// How long graceful shutdown waits for in-flight requests to complete.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// How long graceful shutdown spends flushing final replies.
const FLUSH_DEADLINE: Duration = Duration::from_secs(1);

/// One received request headed for the worker pool.
pub(crate) struct Job {
    conn_id: u64,
    request: PendingRequest,
    completions: Sender<Completion>,
}

/// A worker's finished response frame headed back to the reactor.
pub(crate) struct Completion {
    conn_id: u64,
    tag: Option<u64>,
    frame: Vec<u8>,
    trace: Trace,
}

/// Runs one job on a worker thread: decode, dispatch, encode — everything
/// but the socket write, which the reactor owns.
pub(crate) fn run_job(shared: &Shared, job: Job) {
    let PendingRequest {
        tag,
        payload,
        received,
    } = job.request;
    let mut trace = Trace::begin(received.elapsed());
    let frame = handle_request(shared, &payload, &mut trace);
    let frame = match tag {
        // Re-wrap without decoding: the result is byte-identical to
        // encoding `Response::Tagged` directly, so cached frames stay
        // shared between tagged and untagged callers.
        Some(tag) => {
            Response::tagged_frame_from_payload(tag, frame.get(FRAME_HEADER_LEN..).unwrap_or(&[]))
        }
        None => frame,
    };
    let _ = job.completions.send(Completion {
        conn_id: job.conn_id,
        tag,
        frame,
        trace,
    });
}

/// The reactor entry point, run on its own thread until shutdown.
/// `listener` must already be non-blocking.
pub(crate) fn run(
    shared: Arc<Shared>,
    listener: TcpListener,
    jobs: SyncSender<Job>,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
) {
    let mut reactor = Reactor {
        shared,
        dispatcher: Dispatcher {
            jobs,
            completions_tx,
            dispatch_backlog: VecDeque::new(),
        },
        conns: HashMap::new(),
        next_id: 0,
    };
    let mut next_scan = Instant::now();
    let mut flush: Vec<u64> = Vec::new();
    loop {
        let mut busy = reactor.accept_ready(&listener);
        while let Ok(completion) = completions_rx.try_recv() {
            flush.push(completion.conn_id);
            reactor.complete(completion);
            busy = true;
        }
        // Completed responses leave the process now, not at the next paced
        // scan — and an untagged head that waited for one dispatches.
        busy |= reactor.flush_completed(&mut flush);
        if Instant::now() >= next_scan {
            let started = Instant::now();
            busy |= reactor.sweep();
            let took = started.elapsed();
            // The stall watchdog: every sweep feeds the duration histogram,
            // and a sweep past the configured threshold counts as a stall —
            // the runtime cross-check of the static reactor-discipline pass.
            reactor
                .shared
                .metrics
                .observe_sweep(took, reactor.shared.config.reactor_stall_micros);
            next_scan = Instant::now() + took * SCAN_PACE_FACTOR;
        }
        if reactor.shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !busy {
            // The reactor itself holds a completion sender, so this can
            // only wake on a worker's completion or time out.
            if let Ok(completion) = completions_rx.recv_timeout(IDLE_NAP) {
                flush.push(completion.conn_id);
                reactor.complete(completion);
            }
        }
    }
    // Stop listening before the drain: a connect from here on is refused
    // by the kernel instead of queueing behind a reactor that will never
    // accept it.
    drop(listener);
    reactor.drain(&completions_rx);
    // Dropping the reactor drops the only job sender; the workers drain the
    // queue and exit, and `QueryService::shutdown` joins them.
}

struct Reactor {
    shared: Arc<Shared>,
    dispatcher: Dispatcher,
    conns: HashMap<u64, Conn>,
    next_id: u64,
}

/// The reactor's way onto the worker pool, kept apart from the connection
/// table so one connection can be served while the table is borrowed.
struct Dispatcher {
    jobs: SyncSender<Job>,
    completions_tx: Sender<Completion>,
    /// Connections holding requests that could not be handed to the worker
    /// pool (the bounded job queue was full). Each completion frees a queue
    /// slot, and the backlog refills it in FIFO order instead of leaving
    /// blocked connections waiting for the next paced scan.
    dispatch_backlog: VecDeque<u64>,
}

impl Reactor {
    /// Accepts every connection the listener has ready; returns whether
    /// any arrived. `WouldBlock` ends the pass, and so does any other
    /// accept error (a peer resetting mid-handshake, fd exhaustion): the
    /// next loop turn retries, and a turn that accepted nothing naps like
    /// any idle turn, so a persistent error can neither kill the reactor
    /// nor spin it.
    fn accept_ready(&mut self, listener: &TcpListener) -> bool {
        let mut busy = false;
        while let Ok((stream, _)) = listener.accept() {
            self.admit(stream);
            busy = true;
        }
        busy
    }

    /// Adopts one accepted connection — or, with the table already holding
    /// `max_connections` entries, sheds it: the connection is never read,
    /// and a typed `Overloaded` goodbye closes it once flushed, so the
    /// client can tell overload from a crash.
    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // The reactor multiplexes this socket; it must never block.
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut conn = Conn::new(stream);
        if self.conns.len() >= self.shared.config.max_connections {
            Metrics::add(&self.shared.metrics.connections_shed, 1);
            conn.reads_done = true;
            let reply = error_response(
                &self.shared,
                ErrorCode::Overloaded,
                "service is at its connection limit; retry later".into(),
            );
            // No trace: a shed reply is not a served request.
            let budget = self.shared.config.write_queue_budget_bytes;
            conn.enqueue(reply.to_framed_bytes(), None, true, budget);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.conns.insert(id, conn);
    }

    /// Routes one finished response frame onto its connection's write
    /// queue, enforcing the per-connection write-queue byte budget. A
    /// connection that died (or was shed) while the request was in flight
    /// just drops the frame — there is nowhere left to write it; one whose
    /// queued bytes would exceed the budget is shed as a slow reader.
    fn complete(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get_mut(&completion.conn_id) else {
            return;
        };
        match completion.tag {
            Some(tag) => {
                conn.tags_in_flight.remove(&tag);
            }
            None => conn.untagged_in_flight = false,
        }
        if conn.shed {
            return;
        }
        let budget = self.shared.config.write_queue_budget_bytes;
        if !conn.enqueue(completion.frame, Some(completion.trace), false, budget) {
            shed_slow_reader(&self.shared, conn);
        }
    }

    /// One readiness pass over every connection: reads, dispatch, timers,
    /// writes, closes. Returns whether any progress happened.
    fn sweep(&mut self) -> bool {
        let mut busy = false;
        let mut dead = Vec::new();
        let max_frame = self.shared.config.max_frame_bytes;
        let patience = self.shared.config.mid_frame_patience;
        let idle_budget = self.shared.config.read_timeout;
        for (&id, conn) in self.conns.iter_mut() {
            let pass = conn.pump_reads(max_frame, MAX_CONN_BACKLOG);
            if pass.bytes > 0 {
                Metrics::add(&self.shared.metrics.bytes_in, pass.bytes);
                busy = true;
            }
            for payload in pass.frames {
                queue_request(conn, payload);
            }
            if let Some(error) = pass.error {
                if conn.shed {
                    // The goodbye can no longer be delivered cleanly;
                    // nothing else on a shed connection is worth saving.
                    conn.abort();
                } else {
                    frame_error(&self.shared, conn, error);
                }
            }
            // A stalled peer: the stream offset is stuck inside a frame and
            // no byte has arrived for a whole patience window. (A shed
            // connection's leftovers are covered by its own backstops.)
            if !conn.shed
                && !conn.reads_done
                && conn.mid_frame()
                && conn.last_progress.elapsed() >= patience
            {
                frame_error(&self.shared, conn, ServiceError::Stalled { patience });
            }
            let step = self.dispatcher.serve(&self.shared, id, conn);
            busy |= step.busy;
            if step.close {
                dead.push(id);
                continue;
            }
            // A shed slow reader that also refuses to read its typed
            // goodbye cannot pin its write queue forever: once no byte has
            // moved for a whole patience window, drop it outright. The same
            // deadline bounds the post-goodbye draining linger.
            if conn.shed && conn.wants_write() && conn.last_progress.elapsed() >= patience {
                conn.abort();
            }
            if conn.linger_deadline.is_some_and(|d| Instant::now() >= d) {
                conn.abort();
            }
            if conn.drained() {
                dead.push(id);
                continue;
            }
            // A quiet connection past its read-timeout budget closes
            // silently, exactly like the old per-connection idle budget.
            let quiet = !conn.mid_frame()
                && conn.pending.is_empty()
                && conn.in_flight() == 0
                && !conn.wants_write();
            if let (true, Some(limit)) = (quiet, idle_budget) {
                if conn.last_progress.elapsed() >= limit {
                    dead.push(id);
                }
            }
        }
        for id in dead {
            self.conns.remove(&id);
        }
        busy
    }

    /// Serves just the connections whose requests completed since the last
    /// loop turn: their response frames go out (and their next untagged
    /// request dispatches) without waiting for the paced full scan.
    fn flush_completed(&mut self, ids: &mut Vec<u64>) -> bool {
        ids.sort_unstable();
        ids.dedup();
        let mut busy = false;
        for id in ids.drain(..) {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            let step = self.dispatcher.serve(&self.shared, id, conn);
            busy |= step.busy;
            if step.close || conn.drained() {
                self.conns.remove(&id);
                busy = true;
            }
        }
        busy |= self.dispatcher.refill(&self.shared, &mut self.conns);
        busy
    }

    /// Graceful shutdown: stop reading, bounded-drain in-flight requests
    /// (flushing responses as they land), then a best-effort typed
    /// `ShuttingDown` reply on every surviving connection before the close.
    fn drain(mut self, completions_rx: &Receiver<Completion>) {
        for conn in self.conns.values_mut() {
            conn.reads_done = true;
            conn.pending.clear();
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.conns.values().any(|c| c.in_flight() > 0) && Instant::now() < deadline {
            match completions_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(completion) => self.complete(completion),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.flush_all();
        }
        let goodbye = error_response(
            &self.shared,
            ErrorCode::ShuttingDown,
            "service is shutting down".into(),
        )
        .to_framed_bytes();
        let budget = self.shared.config.write_queue_budget_bytes;
        for conn in self.conns.values_mut() {
            conn.enqueue(goodbye.clone(), None, true, budget);
        }
        let flush_deadline = Instant::now() + FLUSH_DEADLINE;
        while !self.conns.is_empty() && Instant::now() < flush_deadline {
            if !self.flush_all() {
                // lint:allow(reactor-discipline, deliberate shutdown pacing: the sweep loop has exited and this 1ms nap only bounds busy-waiting while the final goodbye frames flush)
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// One sweep over the connections with output queued (shutdown has
    /// already stopped reads and dropped pending work, so serving them only
    /// writes); returns whether any bytes moved or connections closed.
    fn flush_all(&mut self) -> bool {
        let mut busy = false;
        let mut dead = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            if !conn.wants_write() {
                continue;
            }
            let step = self.dispatcher.serve(&self.shared, id, conn);
            busy |= step.busy;
            if step.close {
                dead.push(id);
            }
        }
        for id in dead {
            self.conns.remove(&id);
            busy = true;
        }
        busy
    }
}

/// What one [`Dispatcher::serve`] step did.
struct Served {
    /// A request dispatched or bytes left the process.
    busy: bool,
    /// The write pass asked to close and the connection need not linger:
    /// the caller drops it now.
    close: bool,
}

impl Dispatcher {
    /// The one per-connection step: hand the head of the pending queue to
    /// the worker pool (joining the dispatch backlog when the pool's queue
    /// is full), flush queued output, count every request whose response
    /// fully drained, and — when the write pass asked to close — decide
    /// whether the connection drops now or lingers.
    fn serve(&mut self, shared: &Shared, conn_id: u64, conn: &mut Conn) -> Served {
        let mut busy = self.dispatch(shared, conn_id, conn);
        if conn.wants_dispatch() && !conn.in_backlog {
            // The job queue was full; remember the connection so the next
            // completion refills the freed slot from here.
            conn.in_backlog = true;
            self.dispatch_backlog.push_back(conn_id);
        }
        let wrote = conn.pump_writes();
        if wrote.bytes > 0 {
            Metrics::add(&shared.metrics.bytes_out, wrote.bytes);
            busy = true;
        }
        for trace in wrote.finished {
            finish_request(shared, &trace);
        }
        let close = wrote.close && close_or_linger(conn, shared.config.mid_frame_patience);
        Served { busy, close }
    }

    /// Refills the worker-queue slots that completions just freed from the
    /// connections whose dispatch was blocked on a full queue.
    fn refill(&mut self, shared: &Shared, conns: &mut HashMap<u64, Conn>) -> bool {
        let mut busy = false;
        while let Some(id) = self.dispatch_backlog.pop_front() {
            let Some(conn) = conns.get_mut(&id) else {
                continue; // closed while waiting
            };
            conn.in_backlog = false;
            busy |= self.dispatch(shared, id, conn);
            if conn.wants_dispatch() {
                // Queue is full again; keep this connection at the head so
                // backlog order stays FIFO.
                conn.in_backlog = true;
                self.dispatch_backlog.push_front(id);
                break;
            }
        }
        busy
    }

    /// Moves requests from the head of the connection's pending queue onto
    /// the worker queue for as long as the head is eligible; returns
    /// whether anything dispatched (or was answered inline).
    fn dispatch(&self, shared: &Shared, conn_id: u64, conn: &mut Conn) -> bool {
        let mut busy = false;
        while conn.wants_dispatch() {
            let Some(request) = conn.pending.pop_front() else {
                break;
            };
            let tag = request.tag;
            if let Some(tag) = tag.filter(|tag| conn.tags_in_flight.contains(tag)) {
                // A tag reused while still in flight could never be answered
                // unambiguously; refuse it with a typed, still-tagged reply.
                let reply = error_response(
                    shared,
                    ErrorCode::Malformed,
                    format!("correlation tag {tag} is already in flight on this connection"),
                );
                let frame = Response::Tagged {
                    tag,
                    response: Box::new(reply),
                }
                .to_framed_bytes();
                let trace = Some(Trace::begin(request.received.elapsed()));
                if !conn.enqueue(frame, trace, false, shared.config.write_queue_budget_bytes) {
                    shed_slow_reader(shared, conn);
                    return true;
                }
                busy = true;
                continue;
            }
            let job = Job {
                conn_id,
                request,
                completions: self.completions_tx.clone(),
            };
            match self.jobs.try_send(job) {
                Ok(()) => match tag {
                    Some(tag) => {
                        conn.tags_in_flight.insert(tag);
                    }
                    None => conn.untagged_in_flight = true,
                },
                Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                    // The pool is saturated (or shutting down); put the
                    // request back at the head and retry next sweep.
                    conn.pending.push_front(job.request);
                    break;
                }
            }
            busy = true;
        }
        busy
    }
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

/// Splits the optional tag envelope off one received payload and queues it
/// for dispatch.
fn queue_request(conn: &mut Conn, payload: Vec<u8>) {
    if conn.shed {
        // Shed connections keep reading only so the eventual close does
        // not reset the peer; their requests are discarded unanswered.
        return;
    }
    // `pump_reads` stops reading once MAX_CONN_BACKLOG requests are
    // buffered, so the pending queue is bounded by construction; the assert
    // keeps the budget test next to the push (for the bounded-queue lint
    // pass) and loud in debug builds.
    debug_assert!(
        conn.pending.len() < MAX_CONN_BACKLOG,
        "pending queue past MAX_CONN_BACKLOG: pump_reads stopped throttling"
    );
    let received = Instant::now();
    let (tag, payload) = match Request::split_tagged(&payload) {
        Some((tag, inner)) => (Some(tag), inner.to_vec()),
        None => (None, payload),
    };
    conn.pending.push_back(PendingRequest {
        tag,
        payload,
        received,
    });
}

/// Queues a typed error reply that closes the connection once it flushes.
/// Typed replies count as served once written — the documented contract is
/// that `requests_served` includes error replies.
fn goodbye(shared: &Shared, conn: &mut Conn, reply: Response) {
    let budget = shared.config.write_queue_budget_bytes;
    let trace = Some(Trace::begin(Duration::ZERO));
    conn.enqueue(reply.to_framed_bytes(), trace, true, budget);
}

/// Answers a frame-level failure with a best-effort typed goodbye; a
/// transport failure closes the connection outright.
fn frame_error(shared: &Shared, conn: &mut Conn, error: ServiceError) {
    conn.reads_done = true;
    conn.pending.clear();
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
/// without bound; instead its pending work is dropped, its unstarted
/// queued frames are discarded (a partially-written head stays so the
/// stream remains frame-aligned), and a typed `Overloaded` goodbye closes
/// the connection — via a draining half-close (see [`close_or_linger`]) so
/// the goodbye survives the flooder's own unread backlog. Counted under
/// `slow_readers_shed` in the deep stats.
fn shed_slow_reader(shared: &Shared, conn: &mut Conn) {
    if conn.shed {
        return;
    }
    conn.shed = true;
    // Reads stay open: the flooder's pipelined requests keep draining (and
    // are discarded in `queue_request`) so the close never resets the peer
    // with unread bytes and the typed goodbye below actually arrives.
    conn.pending.clear();
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
