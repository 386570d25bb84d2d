//! The running query service: bind, worker pool, request dispatch, response
//! cache, republication and graceful shutdown. Every socket — the listener
//! included — belongs to the reactor thread ([`crate::reactor`]); nothing
//! here accepts, reads or writes one.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use vaq_authquery::{Query, Server};
use vaq_wire::epoch;
use vaq_wire::{
    ErrorCode, ErrorReply, Request, Response, ShardInfo, SignedShardMap, StatsDeep, StatsSnapshot,
    WireDecode, WireEncode,
};

use crate::cache::LruCache;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::metrics::{CacheGauges, Metrics, RequestKind, Stage};
use crate::pool::WorkerPool;
use crate::reactor::{self, Job};
use crate::sync::{rank, OrderedCondvar, OrderedMutex};
use crate::trace::Trace;

/// State shared between the reactor and every worker.
pub(crate) struct Shared {
    /// The currently serving dataset + authenticated structure. Swapped
    /// atomically by [`QueryService::republish`]: every request resolves
    /// this `Arc` exactly once, so a single response can never mix records
    /// from one epoch with signatures (or an envelope stamp) from another.
    serving: OrderedMutex<Arc<Server>>,
    /// The owner-signed shard map this service publishes to clients (reply
    /// to [`Request::ShardMap`]); `None` on a standalone service.
    shard_map: OrderedMutex<Option<Arc<SignedShardMap>>>,
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Metrics,
    cache: OrderedMutex<LruCache>,
    flight: SingleFlight,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    /// The serving snapshot: one clone of the `Arc`, taken once per request.
    fn serving(&self) -> Arc<Server> {
        Arc::clone(&self.serving.lock())
    }

    /// Samples the response cache's occupancy gauges.
    fn cache_gauges(&self) -> CacheGauges {
        self.cache.lock().gauges()
    }

    /// Flat counter snapshot including sampled cache gauges.
    fn snapshot(&self, epoch: u64) -> StatsSnapshot {
        self.metrics
            .snapshot(self.config.workers, epoch, self.cache_gauges())
    }

    /// Deep snapshot: flat counters plus per-stage breakdowns.
    fn deep_snapshot(&self, epoch: u64) -> StatsDeep {
        self.metrics
            .deep_snapshot(self.config.workers, epoch, self.cache_gauges())
    }
}

/// The response-cache (and single-flight) key of one query: the serving
/// epoch prepended to the canonical bytes of the plain [`Request::Query`]
/// asking it. Every way of asking — plain, pinned, batch item, tagged or
/// not — maps to this one key, so they all share one cache entry and one
/// flight. Keys from superseded epochs can never collide with current
/// ones, so an in-flight computation started before a republication
/// publishes under its own epoch's key and cannot poison the new epoch's
/// cache.
fn epoch_cache_key(epoch: u64, query: &Query) -> Vec<u8> {
    let canonical = Request::Query(query.clone()).canonical_bytes();
    let mut key = Vec::with_capacity(8 + canonical.len());
    key.extend_from_slice(&epoch.to_be_bytes());
    key.extend_from_slice(&canonical);
    key
}

thread_local! {
    /// Per-worker frame-assembly scratch. Response encoding on the hot path
    /// runs through [`WireEncode::to_framed_bytes_reusing`] with this
    /// buffer, so a warm worker frames each response with one exact-size
    /// allocation instead of growing a fresh payload vector per request.
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Frames one response through the calling worker's reusable encode scratch.
fn encode_frame<T: WireEncode>(response: &T) -> Vec<u8> {
    ENCODE_SCRATCH.with(|scratch| response.to_framed_bytes_reusing(&mut scratch.borrow_mut()))
}

/// A running networked query service over one [`Server`].
///
/// Binds a TCP listener and hands it to one evented reactor thread, which
/// accepts and multiplexes every connection (non-blocking sockets behind an
/// O(n) readiness sweep); request execution runs on a fixed-size worker
/// pool, so thousands of open connections cost no worker. Each connection
/// carries any number of framed [`Request`]s: untagged requests are
/// answered strictly in order, while [`Request::Tagged`] requests pipeline and complete out of
/// order, re-associated by their correlation tag. Dropping the service (or
/// calling [`QueryService::shutdown`]) stops the listener, drains in-flight
/// work and joins every thread.
pub struct QueryService {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor_thread: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
    workers: usize,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers)
            .finish()
    }
}

impl QueryService {
    /// Binds the configured address and starts serving `server`'s dataset.
    ///
    /// Connections are multiplexed by one evented reactor thread, so
    /// [`ServiceConfig::workers`] sizes concurrent request *execution*, not
    /// concurrent connections — [`ServiceConfig::max_connections`] bounds
    /// those, and the reactor sheds a connection beyond the limit with a
    /// typed [`ErrorCode::Overloaded`] reply instead of a silent close.
    pub fn bind(mut config: ServiceConfig, server: Server) -> Result<QueryService, ServiceError> {
        let listener = TcpListener::bind(config.bind_addr)?;
        let local_addr = listener.local_addr()?;
        // The reactor polls the listener between sweeps; it must never block.
        listener.set_nonblocking(true)?;
        // Clamp once so every consumer (pool sizing, stats) agrees.
        config.workers = config.workers.max(1);
        let workers = config.workers;
        let shared = Arc::new(Shared {
            cache: OrderedMutex::new(
                rank::CACHE,
                "cache",
                LruCache::with_byte_budget(config.cache_capacity, config.cache_max_bytes),
            ),
            flight: SingleFlight::default(),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            serving: OrderedMutex::new(rank::SERVING, "serving", Arc::new(server)),
            shard_map: OrderedMutex::new(rank::SHARD_MAP, "shard_map", None),
            config,
        });

        let worker_shared = Arc::clone(&shared);
        let (completions_tx, completions_rx) = mpsc::channel();
        let (pool, jobs) = WorkerPool::spawn(workers, move |job: Job| {
            reactor::run_job(&worker_shared, job);
        })?;

        let reactor_shared = Arc::clone(&shared);
        let reactor_thread = std::thread::Builder::new()
            .name("vaq-service-reactor".into())
            .spawn(move || {
                reactor::run(
                    reactor_shared,
                    listener,
                    jobs,
                    completions_tx,
                    completions_rx,
                )
            })?;

        Ok(QueryService {
            shared,
            local_addr,
            reactor_thread: Some(reactor_thread),
            pool: Some(pool),
            workers,
        })
    }

    /// The address the service actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The publication epoch the service currently serves.
    pub fn epoch(&self) -> u64 {
        self.shared.serving().epoch()
    }

    /// Hot-swaps the served dataset + authenticated structure for a
    /// republication, without dropping a single connection.
    ///
    /// The new [`Server`]'s epoch (bound into its signatures by
    /// [`vaq_authquery::IfmhTree::build_at_epoch`]) must be strictly greater
    /// than the currently served epoch — a republication can never roll the
    /// service back. On success the response cache is flushed; in-flight
    /// requests that already resolved the old structure finish against it
    /// (and stamp their envelope with the *old* epoch, which their
    /// signatures also bind), while every request arriving after the swap
    /// sees only the new epoch. Epoch-prefixed cache keys keep the two
    /// generations apart even while both are briefly in flight.
    pub fn republish(&self, server: Server) -> Result<u64, ServiceError> {
        let new_epoch = server.epoch();
        {
            let mut serving = self.shared.serving.lock();
            let current = serving.epoch();
            if !epoch::advances(current, new_epoch) {
                return Err(ServiceError::StaleEpoch {
                    expected: epoch::next(current),
                    got: new_epoch,
                });
            }
            *serving = Arc::new(server);
        }
        // Flush after the swap: every response cached from here on belongs
        // to a visible epoch. Old-epoch in-flight leaders may still insert
        // under their epoch-prefixed keys, which no new request can hit.
        self.shared.cache.lock().clear();
        Ok(new_epoch)
    }

    /// Publishes (or replaces) the owner-signed shard map this service
    /// serves in reply to [`Request::ShardMap`].
    ///
    /// Rejects rollback: once a map with epoch `e` is published, only maps
    /// with a strictly greater epoch are accepted — a replayed older signed
    /// map cannot displace the current one.
    pub fn set_shard_map(&self, map: SignedShardMap) -> Result<(), ServiceError> {
        let mut slot = self.shared.shard_map.lock();
        if let Some(current) = slot.as_ref() {
            if !epoch::advances(current.map.epoch, map.map.epoch) {
                return Err(ServiceError::StaleEpoch {
                    expected: epoch::next(current.map.epoch),
                    got: map.map.epoch,
                });
            }
        }
        *slot = Some(Arc::new(map));
        Ok(())
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot(self.epoch())
    }

    /// Connections shed so far at the [`ServiceConfig::max_connections`]
    /// limit; each also shows up as an [`ErrorCode::Overloaded`] entry in
    /// the per-code error breakdown.
    pub fn connections_shed(&self) -> u64 {
        Metrics::get(&self.shared.metrics.connections_shed)
    }

    /// Slow readers shed so far at the
    /// [`ServiceConfig::write_queue_budget_bytes`] budget; each also shows
    /// up as an [`ErrorCode::Overloaded`] entry in the per-code error
    /// breakdown.
    pub fn slow_readers_shed(&self) -> u64 {
        Metrics::get(&self.shared.metrics.slow_readers_shed)
    }

    /// Reactor sweeps that ran past the
    /// [`ServiceConfig::reactor_stall_micros`] watchdog threshold.
    pub fn reactor_stalls(&self) -> u64 {
        Metrics::get(&self.shared.metrics.reactor_stalls)
    }

    /// A point-in-time deep snapshot: the flat counters plus per-stage
    /// latency histograms and per-kind stage attribution.
    pub fn stats_deep(&self) -> StatsDeep {
        self.shared.deep_snapshot(self.epoch())
    }

    /// Stops accepting connections, drains in-flight work, joins every
    /// thread and returns the final counter snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        let epoch = self.epoch();
        self.shutdown_inner();
        self.shared.snapshot(epoch)
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The reactor sees the flag within one idle nap, closes the listener,
        // bounded-drains in-flight requests, answers every surviving
        // connection with a typed ShuttingDown reply and exits — dropping
        // the only job sender…
        if let Some(thread) = self.reactor_thread.take() {
            let _ = thread.join();
        }
        // …so the workers drain the queue and stop.
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Counts one fully served request and folds its trace into the metrics;
/// emits a slow-request log line when the request crossed the configured
/// threshold. The reactor calls this once the response frame fully drains
/// to the socket, with the measured write time already charged.
pub(crate) fn finish_request(shared: &Shared, trace: &Trace) {
    Metrics::add(&shared.metrics.requests_served, 1);
    let total = trace.total();
    shared
        .metrics
        .observe_request(&trace.stage_micros(), trace.kind(), total);
    if let Some(threshold) = shared.config.slow_request_micros {
        if total.as_micros() >= u128::from(threshold) {
            let epoch = shared.serving().epoch();
            shared
                .config
                .slow_log
                .write_line(&trace.slow_log_line(epoch, total));
        }
    }
}

/// Decodes and dispatches one request, returning the framed response bytes.
///
/// Runs on a worker thread; `payload` is the request's wire encoding with
/// any tag envelope already stripped by the reactor, which also re-wraps
/// the returned frame for tagged requests — so the response cache holds one
/// shared entry per query regardless of how it was enveloped.
pub(crate) fn handle_request(shared: &Shared, payload: &[u8], trace: &mut Trace) -> Vec<u8> {
    respond(shared, payload, trace).unwrap_or_else(|reply| Response::Error(reply).to_framed_bytes())
}

/// The framed success response to one request, or the typed error reply
/// [`handle_request`] frames in its place.
fn respond(shared: &Shared, payload: &[u8], trace: &mut Trace) -> Result<Vec<u8>, ErrorReply> {
    let request = trace
        .time(Stage::Decode, || Request::from_wire_bytes(payload))
        .map_err(|e| error_reply(shared, ErrorCode::Malformed, format!("bad request: {e}")))?;

    // Resolve the serving snapshot exactly once per request: records,
    // signatures and the envelope epoch stamp all come from this one `Arc`,
    // so a republication racing this request can never produce a
    // mixed-epoch response.
    let serving = shared.serving();
    let epoch = serving.epoch();

    // The four ways to ask a query differ only in an optional epoch pin and
    // in whether one answer or a list comes back.
    let (pin, asked) = match request {
        Request::Query(query) => (None, Asked::One(query)),
        Request::QueryAt { epoch: pin, query } => (Some(pin), Asked::One(query)),
        Request::Batch(queries) => (None, Asked::Many(queries)),
        Request::BatchAt {
            epoch: pin,
            queries,
        } => (Some(pin), Asked::Many(queries)),
        Request::Ping => return Ok(Response::Pong.to_framed_bytes()),
        Request::Stats => return Ok(Response::Stats(shared.snapshot(epoch)).to_framed_bytes()),
        Request::StatsDeep => {
            return Ok(Response::StatsDeep(shared.deep_snapshot(epoch)).to_framed_bytes())
        }
        Request::ShardInfo => {
            let role = shared.config.shard.ok_or_else(|| {
                let message = "service is not part of a sharded deployment";
                error_reply(shared, ErrorCode::NotSharded, message.into())
            })?;
            let info = ShardInfo {
                shard_id: role.shard_id,
                shard_count: role.shard_count,
                records: serving.dataset().len() as u64,
                epoch,
            };
            return Ok(Response::ShardInfo(info).to_framed_bytes());
        }
        Request::ShardMap => {
            let map = shared.shard_map.lock().clone().ok_or_else(|| {
                let message = "service has no published shard map";
                error_reply(shared, ErrorCode::NotSharded, message.into())
            })?;
            return Ok(Response::ShardMap(map.as_ref().clone()).to_framed_bytes());
        }
        // The reactor strips the tag envelope before dispatch, so a payload
        // that still decodes as `Tagged` here was wrapped twice — a client
        // bug the wire format itself also rejects one level deeper.
        Request::Tagged { tag, .. } => {
            let message = format!("tagged envelope cannot nest (tag {tag})");
            return Err(error_reply(shared, ErrorCode::Malformed, message));
        }
    };
    if let Some(pinned) = pin.filter(|&pinned| pinned != epoch) {
        let message = format!("service serves publication epoch {epoch}, request pinned {pinned}");
        return Err(error_reply(shared, ErrorCode::StaleEpoch, message));
    }
    match asked {
        Asked::One(query) => {
            let frame = query_frame(shared, &serving, &query, trace)?;
            trace.set_kind(query_kind(&query));
            Ok(frame)
        }
        Asked::Many(queries) => batch_frame(shared, &serving, &queries, trace),
    }
}

/// The queries of one request, however it asked them.
enum Asked {
    /// [`Request::Query`] / [`Request::QueryAt`]: answered with
    /// [`Response::Query`].
    One(Query),
    /// [`Request::Batch`] / [`Request::BatchAt`]: answered with
    /// [`Response::Batch`].
    Many(Vec<Query>),
}

/// Serves a batch through **per-item** epoch-keyed cache lookups: each query
/// resolves exactly as the equivalent single [`Request::Query`] would —
/// same cache key, same single-flight entry — so a batch sharing items with
/// past (or concurrent) singles and batches recomputes only the cold items,
/// and a repeated batch with one changed query pays exactly one miss. A
/// per-item error (bad dimensionality, internal failure) fails the whole
/// batch with that item's typed reply, like the whole-batch path always did.
fn batch_frame(
    shared: &Shared,
    serving: &Arc<Server>,
    queries: &[Query],
    trace: &mut Trace,
) -> Result<Vec<u8>, ErrorReply> {
    if queries.is_empty() {
        // An empty batch used to sail under the max-batch check and cache a
        // useless empty response; it carries no work and is a client bug.
        let message = "batch holds no queries";
        return Err(error_reply(shared, ErrorCode::BadQuery, message.into()));
    }
    let limit = shared.config.max_batch_len;
    if queries.len() > limit {
        let message = format!(
            "batch of {} queries exceeds the limit of {limit}",
            queries.len()
        );
        return Err(error_reply(shared, ErrorCode::BadQuery, message));
    }
    let mut responses = Vec::with_capacity(queries.len());
    for query in queries {
        let frame = query_frame(shared, serving, query, trace)?;
        // Decoding the cached single-query frame back into a QueryResponse
        // costs one deserialization per item — the deliberate price of
        // storing exactly one representation per item (the framed single
        // response) in one unified cache; the expensive work (query
        // processing and VO assembly) is what the shared entries dedupe.
        match Response::from_framed_bytes(&frame) {
            Ok(Response::Query { response, .. }) => responses.push(response),
            Ok(Response::Error(reply)) => return Err(reply),
            _ => {
                let message = "batch item produced an unexpected frame";
                return Err(error_reply(shared, ErrorCode::Internal, message.into()));
            }
        }
    }
    let epoch = serving.epoch();
    let frame = trace.time(Stage::Encode, || {
        encode_frame(&Response::Batch { epoch, responses })
    });
    trace.set_kind(RequestKind::Batch);
    Ok(frame)
}

/// Maps a wire query to the request kind its latency is tracked under.
fn query_kind(query: &Query) -> RequestKind {
    match query.kind() {
        vaq_authquery::QueryKind::TopK => RequestKind::TopK,
        vaq_authquery::QueryKind::Range => RequestKind::Range,
        vaq_authquery::QueryKind::Knn => RequestKind::Knn,
    }
}

/// The caller's role for one single-flight key.
enum Flight {
    /// This worker computes; it must publish an outcome via [`FlightGuard`].
    Leader,
    /// Another worker was computing when we arrived; this is its published
    /// frame (`None` when the leader failed and waiters should retry).
    Follower(Option<Arc<Vec<u8>>>),
}

/// One in-flight computation: waiters block on `done` until the leader
/// publishes its outcome into `result`.
struct FlightSlot {
    /// `None` while the computation is pending; `Some(outcome)` once the
    /// leader finished (`Some(frame)` on success, `Some(None)` on failure).
    result: OrderedMutex<Option<Option<Arc<Vec<u8>>>>>,
    done: OrderedCondvar,
}

impl Default for FlightSlot {
    fn default() -> Self {
        FlightSlot {
            result: OrderedMutex::new(rank::RESULT, "result", None),
            done: OrderedCondvar::new(),
        }
    }
}

/// Single-flight deduplication of identical concurrent computations: when N
/// workers miss the cache on the same canonical key, exactly one computes
/// and hands the frame to the rest directly — so even responses too large
/// for the cache's byte budget are computed once per concurrent burst
/// instead of N times (or, worse, N times serialized).
struct SingleFlight {
    slots: OrderedMutex<HashMap<Vec<u8>, Arc<FlightSlot>>>,
}

impl Default for SingleFlight {
    fn default() -> Self {
        SingleFlight {
            slots: OrderedMutex::new(rank::SLOTS, "slots", HashMap::new()),
        }
    }
}

impl SingleFlight {
    /// Joins the flight for `key`: the first caller becomes the leader,
    /// every later caller blocks until the leader publishes and receives
    /// the published frame.
    fn join(&self, key: &[u8]) -> Flight {
        let slot = {
            let mut slots = self.slots.lock();
            match slots.get(key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    slots.insert(key.to_vec(), Arc::new(FlightSlot::default()));
                    return Flight::Leader;
                }
            }
        };
        let mut result = slot.result.lock();
        while result.is_none() {
            result = slot.done.wait(result);
        }
        Flight::Follower(result.as_ref().and_then(Clone::clone))
    }

    /// Publishes the leader's outcome and wakes every waiter.
    fn finish(&self, key: &[u8], outcome: Option<Arc<Vec<u8>>>) {
        let slot = {
            let mut slots = self.slots.lock();
            slots.remove(key)
        };
        if let Some(slot) = slot {
            *slot.result.lock() = Some(outcome);
            slot.done.notify_all();
        }
    }
}

/// Publishes the leader's outcome on drop, so waiters are woken (with a
/// retry signal) even when the computation errors or panics.
struct FlightGuard<'a> {
    flight: &'a SingleFlight,
    key: &'a [u8],
    outcome: Option<Arc<Vec<u8>>>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.flight.finish(self.key, self.outcome.take());
    }
}

/// Serves one analytic query through the epoch-keyed response cache with
/// single-flight deduplication, returning the framed single-query response
/// or the typed error reply. An error reply is returned to the requester
/// but never cached or shared (the next requester retries the computation).
/// Cache probes and single-flight waits are charged to the request's trace.
fn query_frame(
    shared: &Shared,
    serving: &Arc<Server>,
    query: &Query,
    trace: &mut Trace,
) -> Result<Vec<u8>, ErrorReply> {
    let key = &epoch_cache_key(serving.epoch(), query);
    let caching = shared.config.cache_capacity > 0 && shared.config.cache_max_bytes > 0;
    if !caching {
        // With caching disabled there is no dedup contract to honour, so
        // concurrent identical queries stay fully parallel.
        let frame = compute_frame(shared, serving, query, trace)?;
        Metrics::add(&shared.metrics.cache_misses, 1);
        return Ok(frame);
    }
    loop {
        let cached = trace.time(Stage::CacheLookup, || shared.cache.lock().get(key));
        if let Some(frame) = cached {
            Metrics::add(&shared.metrics.cache_hits, 1);
            return Ok(frame.as_ref().clone());
        }
        let mut guard = match trace.time(Stage::FlightWait, || shared.flight.join(key)) {
            Flight::Leader => FlightGuard {
                flight: &shared.flight,
                key,
                outcome: None,
            },
            Flight::Follower(Some(frame)) => {
                // Served from the leader's shared computation — a hit for
                // accounting purposes even when the frame itself was too
                // large for the cache's byte budget.
                Metrics::add(&shared.metrics.cache_hits, 1);
                return Ok(frame.as_ref().clone());
            }
            // The leader failed; retry (and possibly lead) after re-checking
            // the cache.
            Flight::Follower(None) => continue,
        };
        // Re-check under leadership: a previous leader may have filled the
        // cache between this worker's miss and it winning the key.
        let cached = trace.time(Stage::CacheLookup, || shared.cache.lock().get(key));
        if let Some(frame) = cached {
            Metrics::add(&shared.metrics.cache_hits, 1);
            guard.outcome = Some(frame.clone());
            return Ok(frame.as_ref().clone());
        }
        let frame = compute_frame(shared, serving, query, trace)?;
        Metrics::add(&shared.metrics.cache_misses, 1);
        let frame = Arc::new(frame);
        shared.cache.lock().insert(key.to_vec(), Arc::clone(&frame));
        guard.outcome = Some(Arc::clone(&frame));
        drop(guard);
        return Ok(frame.as_ref().clone());
    }
}

/// Validates, processes and frames one query against a resolved serving
/// snapshot, charging execution, VO-construction and encode time to the
/// request's trace.
fn compute_frame(
    shared: &Shared,
    serving: &Arc<Server>,
    query: &Query,
    trace: &mut Trace,
) -> Result<Vec<u8>, ErrorReply> {
    let dims = serving.dataset().dims();
    if query.weights().len() != dims {
        let asked = query.weights().len();
        let message = format!("query weight vector has {asked} dims, dataset has {dims}");
        return Err(error_reply(shared, ErrorCode::BadQuery, message));
    }
    let (response, timing) = catch_unwind(AssertUnwindSafe(|| serving.process_timed(query)))
        .map_err(|_| {
            error_reply(
                shared,
                ErrorCode::Internal,
                "query processing failed".into(),
            )
        })?;
    trace.add(Stage::Execute, timing.execute);
    trace.add(Stage::VoBuild, timing.vo_build);
    let epoch = serving.epoch();
    Ok(trace.time(Stage::Encode, || {
        encode_frame(&Response::Query { epoch, response })
    }))
}

/// Builds a typed error reply, bumping the flat and per-code error
/// counters.
fn error_reply(shared: &Shared, code: ErrorCode, message: String) -> ErrorReply {
    shared.metrics.record_error(code);
    ErrorReply { code, message }
}

/// Builds a typed error response, bumping the error counter.
pub(crate) fn error_response(shared: &Shared, code: ErrorCode, message: String) -> Response {
    Response::Error(error_reply(shared, code, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn single_flight_hands_the_frame_to_waiters_directly() {
        // The frame reaches waiters through the flight slot itself, so
        // deduplication works even for frames the cache cannot hold.
        let flight = Arc::new(SingleFlight::default());
        assert!(matches!(flight.join(b"k"), Flight::Leader));

        let (joined_tx, joined_rx) = std::sync::mpsc::channel();
        let waiter = {
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || {
                joined_tx.send(()).unwrap();
                match flight.join(b"k") {
                    Flight::Follower(frame) => frame,
                    Flight::Leader => panic!("second joiner must not lead"),
                }
            })
        };
        joined_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        flight.finish(b"k", Some(Arc::new(vec![7u8; 3])));
        let got = waiter.join().unwrap();
        assert_eq!(got.expect("waiter gets the frame").as_slice(), &[7, 7, 7]);

        // The key is free again: the next joiner leads.
        assert!(matches!(flight.join(b"k"), Flight::Leader));

        // A failing leader wakes waiters with a retry signal (None).
        let (joined_tx, joined_rx) = std::sync::mpsc::channel();
        let waiter = {
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || {
                joined_tx.send(()).unwrap();
                matches!(flight.join(b"k"), Flight::Follower(None))
            })
        };
        joined_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        flight.finish(b"k", None);
        assert!(waiter.join().unwrap(), "waiter must see the failure signal");
    }
}
