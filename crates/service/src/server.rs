//! The running query service: bind, the reactor threads, request handling,
//! response cache, republication and graceful shutdown. Every socket — the
//! listener included — belongs to the reactors ([`crate::reactor`]);
//! nothing here accepts, reads or writes one.

use std::cell::RefCell;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use vaq_authquery::{Query, Server};
use vaq_wire::epoch;
use vaq_wire::{
    query_response_frame, ErrorCode, ErrorReply, RecordBytes, Request, Response, ShardInfo,
    SignedShardMap, StatsDeep, StatsSnapshot, WireDecode, WireEncode,
};

use crate::cache::LruCache;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::metrics::{CacheGauges, Metrics, RequestKind, Stage};
use crate::poll::Waker;
use crate::reactor::{self, Reactor};
use crate::sync::{rank, OrderedMutex};
use crate::trace::Trace;

/// Response-cache capacity in entries, under the cache's default byte
/// budget ([`LruCache::DEFAULT_MAX_BYTES`]).
const CACHE_CAPACITY: usize = 1024;

/// One publication as the service serves it: the dataset + authenticated
/// structure, and every record's wire encoding, which query replies copy
/// instead of cloning and encoding the records per request.
struct Serving {
    server: Server,
    records: RecordBytes,
}

impl Serving {
    fn new(server: Server) -> Serving {
        let records = RecordBytes::new(server.dataset());
        Serving { server, records }
    }

    fn epoch(&self) -> u64 {
        self.server.epoch()
    }
}

/// State shared between every reactor.
pub(crate) struct Shared {
    /// The currently serving publication. Swapped atomically by
    /// [`QueryService::republish`]: every request resolves this `Arc`
    /// exactly once, so a single response can never mix records from one
    /// epoch with signatures (or an envelope stamp) from another.
    serving: OrderedMutex<Arc<Serving>>,
    /// The owner-signed shard map this service publishes to clients (reply
    /// to [`Request::ShardMap`]); `None` on a standalone service.
    shard_map: OrderedMutex<Option<Arc<SignedShardMap>>>,
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Metrics,
    cache: OrderedMutex<LruCache>,
    pub(crate) shutdown: AtomicBool,
    /// Connections in every reactor's table, shed ones included: counted at
    /// admit and given back at close, so
    /// [`ServiceConfig::max_connections`] bounds the service, not each
    /// reactor.
    pub(crate) live: AtomicUsize,
}

impl Shared {
    pub(crate) fn new(config: ServiceConfig, server: Server) -> Shared {
        Shared {
            cache: OrderedMutex::new(rank::CACHE, "cache", LruCache::new(CACHE_CAPACITY)),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            serving: OrderedMutex::new(rank::SERVING, "serving", Arc::new(Serving::new(server))),
            shard_map: OrderedMutex::new(rank::SHARD_MAP, "shard_map", None),
            config,
        }
    }

    /// The serving snapshot: one clone of the `Arc`, taken once per request.
    fn serving(&self) -> Arc<Serving> {
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
    /// Per-reactor frame-assembly scratch. A query reply is framed through
    /// [`query_response_frame`] with this buffer, so a warm reactor frames
    /// each reply with one exact-size allocation instead of growing a fresh
    /// payload vector per request.
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A running networked query service over one [`Server`].
///
/// Binds a TCP listener and shares it between
/// [`ServiceConfig::workers`] reactor threads, each answering its own
/// connections: a reactor accepts, multiplexes its connections
/// (non-blocking sockets behind Linux `epoll`: the thread sleeps until one
/// is ready) and handles every request it reads in place, so thousands of
/// open connections cost no thread and, while silent, no CPU. Each
/// connection carries any number of framed [`Request`]s, pipelined or not,
/// and answers them strictly in the order they arrived. Dropping the
/// service (or calling [`QueryService::shutdown`]) stops the listener,
/// says a typed goodbye on every connection and joins every thread.
pub struct QueryService {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// Each reactor's thread and the waker that ends its `poll`.
    reactors: Vec<(JoinHandle<()>, Arc<Waker>)>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.shared.config.workers)
            .finish()
    }
}

impl QueryService {
    /// Binds the configured address and starts serving `server`'s dataset.
    ///
    /// [`ServiceConfig::workers`] reactor threads serve, each answering the
    /// connections it accepted; [`ServiceConfig::max_connections`] bounds
    /// the connections of all of them together, and a connection beyond
    /// the limit is shed with a typed [`ErrorCode::Overloaded`] reply
    /// instead of a silent close.
    pub fn bind(mut config: ServiceConfig, server: Server) -> Result<QueryService, ServiceError> {
        let listener = TcpListener::bind(config.bind_addr)?;
        let local_addr = listener.local_addr()?;
        // A reactor accepts until `WouldBlock`; it must never block here.
        listener.set_nonblocking(true)?;
        // Clamp once so every consumer (reactor count, stats) agrees.
        config.workers = config.workers.max(1);
        let workers = config.workers;
        let listener = Arc::new(listener);
        let mut service = QueryService {
            shared: Arc::new(Shared::new(config, server)),
            local_addr,
            reactors: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            // Built here so a refused epoll instance is a bind error, not a
            // reactor thread that dies at start-up; on any error, dropping
            // `service` shuts down the reactors already started.
            let reactor = Reactor::new(Arc::clone(&service.shared), &listener)?;
            let waker = reactor.waker();
            let listener = Arc::clone(&listener);
            let thread = std::thread::Builder::new()
                .name(format!("vaq-service-reactor-{i}"))
                .spawn(move || reactor::run(reactor, listener))?;
            service.reactors.push((thread, waker));
        }
        Ok(service)
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
        // Encoded outside the lock: the swap below publishes the structure
        // and its record bytes together.
        let publication = Arc::new(Serving::new(server));
        {
            let mut serving = self.shared.serving.lock();
            let current = serving.epoch();
            if !epoch::advances(current, new_epoch) {
                return Err(ServiceError::StaleEpoch {
                    expected: epoch::next(current),
                    got: new_epoch,
                });
            }
            *serving = publication;
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

    /// Stops accepting connections, says a typed goodbye on every
    /// connection, joins every thread and returns the final counter
    /// snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        let epoch = self.epoch();
        self.shutdown_inner();
        self.shared.snapshot(epoch)
    }

    fn shutdown_inner(&mut self) {
        // Raised before any wake: woken out of its `poll`, each reactor sees
        // the flag, lets go of the listener, answers every connection it
        // holds with a typed ShuttingDown reply and exits.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for (_, waker) in &self.reactors {
            waker.wake();
        }
        for (thread, _) in self.reactors.drain(..) {
            let _ = thread.join();
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
/// threshold. A reactor calls this once the response frame fully drains
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

/// Decodes and answers one request, returning the framed response bytes.
/// Runs on the reactor that read it; `payload` is the request frame's
/// payload.
pub(crate) fn handle_request(shared: &Shared, payload: &[u8], trace: &mut Trace) -> Arc<Vec<u8>> {
    respond(shared, payload, trace)
        .unwrap_or_else(|reply| Arc::new(Response::Error(reply).to_framed_bytes()))
}

/// The framed success response to one request, or the typed error reply
/// [`handle_request`] frames in its place. A query's frame is the one the
/// response cache holds, shared rather than copied.
fn respond(shared: &Shared, payload: &[u8], trace: &mut Trace) -> Result<Arc<Vec<u8>>, ErrorReply> {
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
        Request::Ping => return Ok(Arc::new(Response::Pong.to_framed_bytes())),
        Request::StatsDeep => {
            let deep = Response::StatsDeep(shared.deep_snapshot(epoch));
            return Ok(Arc::new(deep.to_framed_bytes()));
        }
        Request::ShardInfo => {
            let role = shared.config.shard.ok_or_else(|| {
                let message = "service is not part of a sharded deployment";
                error_reply(shared, ErrorCode::NotSharded, message.into())
            })?;
            let info = ShardInfo {
                shard_id: role.shard_id,
                shard_count: role.shard_count,
                records: serving.server.dataset().len() as u64,
                epoch,
            };
            return Ok(Arc::new(Response::ShardInfo(info).to_framed_bytes()));
        }
        Request::ShardMap => {
            let map = shared.shard_map.lock().clone().ok_or_else(|| {
                let message = "service has no published shard map";
                error_reply(shared, ErrorCode::NotSharded, message.into())
            })?;
            return Ok(Arc::new(
                Response::ShardMap(map.as_ref().clone()).to_framed_bytes(),
            ));
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
/// returns the cached frame, a miss computes, inserts and returns it; either
/// way the cache and the connection's write queue share one buffer. Two
/// reactors that miss on the same key at once both compute — the frames are
/// byte-identical and the second insert replaces the first. An error reply
/// is returned to the requester but never cached (the next requester
/// retries the computation). The cache probe is charged to the request's
/// trace.
fn query_frame(
    shared: &Shared,
    serving: &Serving,
    query: &Query,
    trace: &mut Trace,
) -> Result<Arc<Vec<u8>>, ErrorReply> {
    let key = epoch_cache_key(serving.epoch(), query);
    let cached = trace.time(Stage::CacheLookup, || shared.cache.lock().get(&key));
    if let Some(frame) = cached {
        Metrics::add(&shared.metrics.cache_hits, 1);
        return Ok(frame);
    }
    let frame = Arc::new(compute_frame(shared, serving, query, trace)?);
    Metrics::add(&shared.metrics.cache_misses, 1);
    shared.cache.lock().insert(key, Arc::clone(&frame));
    Ok(frame)
}

/// Validates, answers and frames one query against a resolved serving
/// snapshot, charging execution, VO-construction and encode time to the
/// request's trace. The reply's records are copied as bytes out of the
/// publication's [`RecordBytes`]: no `Record` is cloned or encoded here.
///
/// The weights must lie in the owner's published domain: the signed
/// arrangement covers that box and nothing else, so an honest answer
/// outside it fails verification (and a NaN or infinite weight compares
/// false against every bound). A KNN target must be finite for the same
/// reason. Refused queries are neither computed nor cached.
fn compute_frame(
    shared: &Shared,
    serving: &Serving,
    query: &Query,
    trace: &mut Trace,
) -> Result<Vec<u8>, ErrorReply> {
    let dataset = serving.server.dataset();
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
    let failed = || {
        let message = "query processing failed".into();
        error_reply(shared, ErrorCode::Internal, message)
    };
    let (answer, timing) =
        catch_unwind(AssertUnwindSafe(|| serving.server.answer(query))).map_err(|_| failed())?;
    trace.add(Stage::Execute, timing.execute);
    trace.add(Stage::VoBuild, timing.vo_build);
    let epoch = serving.epoch();
    let frame = trace.time(Stage::Encode, || {
        ENCODE_SCRATCH.with(|scratch| {
            query_response_frame(epoch, &answer, &serving.records, &mut scratch.borrow_mut())
        })
    });
    frame.ok_or_else(failed)
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
