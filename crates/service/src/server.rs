//! The running query service: bind, worker pool, request dispatch, response
//! cache, republication and graceful shutdown. Every socket — the listener
//! included — belongs to the reactor thread ([`crate::reactor`]); nothing
//! here accepts, reads or writes one.

use std::cell::RefCell;
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
use crate::poll::Waker;
use crate::pool::WorkerPool;
use crate::reactor::{self, Job, Reactor};
use crate::sync::{rank, OrderedMutex};
use crate::trace::Trace;

/// Response-cache capacity in entries, under the cache's default byte
/// budget ([`LruCache::DEFAULT_MAX_BYTES`]).
const CACHE_CAPACITY: usize = 1024;

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
    pub(crate) shutdown: AtomicBool,
    /// Ends the reactor's blocking `poll`: workers wake it after sending a
    /// completion, shutdown after raising the flag.
    pub(crate) waker: Waker,
}

impl Shared {
    pub(crate) fn new(config: ServiceConfig, server: Server) -> std::io::Result<Shared> {
        Ok(Shared {
            cache: OrderedMutex::new(rank::CACHE, "cache", LruCache::new(CACHE_CAPACITY)),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            waker: Waker::new()?,
            serving: OrderedMutex::new(rank::SERVING, "serving", Arc::new(server)),
            shard_map: OrderedMutex::new(rank::SHARD_MAP, "shard_map", None),
            config,
        })
    }

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

/// The response-cache key of one query: the serving epoch prepended to the
/// canonical bytes of the plain [`Request::Query`] asking it. Both ways of
/// asking — plain [`Request::Query`] and pinned [`Request::QueryAt`] — map
/// to this one key, so they share one cache entry. Keys from superseded epochs can
/// never collide with current ones, so a computation started before a
/// republication inserts under its own epoch's key and cannot poison the
/// new epoch's cache.
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
/// accepts and multiplexes every connection (non-blocking sockets behind
/// Linux `epoll`: the thread sleeps until one is ready); request execution
/// runs on a fixed-size worker pool, so thousands of open connections cost
/// no worker and, while silent, no CPU. Each connection
/// carries any number of framed [`Request`]s, pipelined or not, and answers
/// them strictly in the order they arrived. Dropping the service (or
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
        // The reactor accepts until `WouldBlock`; it must never block here.
        listener.set_nonblocking(true)?;
        // Clamp once so every consumer (pool sizing, stats) agrees.
        config.workers = config.workers.max(1);
        let workers = config.workers;
        let shared = Arc::new(Shared::new(config, server)?);

        let worker_shared = Arc::clone(&shared);
        let (completions_tx, completions_rx) = mpsc::channel();
        let (pool, jobs) = WorkerPool::spawn(workers, move |job: Job| {
            reactor::run_job(&worker_shared, job);
        })?;

        // Built here so a refused epoll instance is a bind error, not a
        // reactor thread that dies at start-up.
        let reactor = Reactor::new(Arc::clone(&shared), &listener, jobs, completions_tx)?;
        let reactor_thread = std::thread::Builder::new()
            .name("vaq-service-reactor".into())
            .spawn(move || reactor::run(reactor, listener, completions_rx))?;

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
        // to a visible epoch. Old-epoch in-flight requests may still insert
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
        // Woken out of its `poll`, the reactor sees the flag, closes the
        // listener, bounded-drains in-flight requests, answers every
        // surviving connection with a typed ShuttingDown reply and exits —
        // dropping the only job sender…
        self.shared.waker.wake();
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
/// Runs on a worker thread; `payload` is the request frame's payload.
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

    // The two ways to ask a query differ only in an optional epoch pin.
    let (pin, query) = match request {
        Request::Query(query) => (None, query),
        Request::QueryAt { epoch: pin, query } => (Some(pin), query),
        Request::Ping => return Ok(Response::Pong.to_framed_bytes()),
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
    };
    if let Some(pinned) = pin.filter(|&pinned| pinned != epoch) {
        let message = format!("service serves publication epoch {epoch}, request pinned {pinned}");
        return Err(error_reply(shared, ErrorCode::StaleEpoch, message));
    }
    let frame = query_frame(shared, &serving, &query, trace)?;
    trace.set_kind(query_kind(&query));
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

/// Serves one analytic query through the epoch-keyed response cache: a hit
/// returns the cached frame, a miss computes, inserts and returns it. Two
/// workers that miss on the same key at once both compute — the frames are
/// byte-identical and the second insert replaces the first. An error reply
/// is returned to the requester but never cached (the next requester
/// retries the computation). The cache probe is charged to the request's
/// trace.
fn query_frame(
    shared: &Shared,
    serving: &Arc<Server>,
    query: &Query,
    trace: &mut Trace,
) -> Result<Vec<u8>, ErrorReply> {
    let key = epoch_cache_key(serving.epoch(), query);
    let cached = trace.time(Stage::CacheLookup, || shared.cache.lock().get(&key));
    if let Some(frame) = cached {
        Metrics::add(&shared.metrics.cache_hits, 1);
        return Ok(frame.as_ref().clone());
    }
    let frame = compute_frame(shared, serving, query, trace)?;
    Metrics::add(&shared.metrics.cache_misses, 1);
    shared.cache.lock().insert(key, Arc::new(frame.clone()));
    Ok(frame)
}

/// Validates, processes and frames one query against a resolved serving
/// snapshot, charging execution, VO-construction and encode time to the
/// request's trace.
///
/// The weights must lie in the owner's published domain: the signed
/// arrangement covers that box and nothing else, so an honest answer
/// outside it fails verification (and a NaN or infinite weight compares
/// false against every bound). A KNN target must be finite for the same
/// reason. Refused queries are neither computed nor cached.
fn compute_frame(
    shared: &Shared,
    serving: &Arc<Server>,
    query: &Query,
    trace: &mut Trace,
) -> Result<Vec<u8>, ErrorReply> {
    let dataset = serving.dataset();
    let (asked, dims) = (query.weights().len(), dataset.dims());
    if asked != dims {
        let message = format!("query weight vector has {asked} dims, dataset has {dims}");
        return Err(error_reply(shared, ErrorCode::BadQuery, message));
    }
    if !dataset.domain.contains(query.weights()) {
        let message = format!(
            "query weights {:?} lie outside the published domain {:?}..={:?}",
            query.weights(),
            dataset.domain.lower,
            dataset.domain.upper
        );
        return Err(error_reply(shared, ErrorCode::BadQuery, message));
    }
    if let Query::Knn { target, .. } = query {
        if !target.is_finite() {
            let message = format!("KNN target {target} is not a finite score");
            return Err(error_reply(shared, ErrorCode::BadQuery, message));
        }
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
