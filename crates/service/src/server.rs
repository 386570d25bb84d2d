//! The running query service: bind, the reactor threads, request handling,
//! republication and graceful shutdown. Each publication carries its own
//! response cache, so a cached frame can only ever answer for the epoch
//! that computed it. Every socket — the listener included — belongs to the
//! reactors ([`crate::reactor`]); nothing here accepts, reads or writes one.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::cell::RefCell;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use vaq_authquery::{Query, Server};
use vaq_wire::{
    query_response_frame, Epoch, ErrorCode, ErrorReply, RecordBytes, Request, Response, ShardInfo,
    SignedShardMap, StatsDeep, StatsSnapshot, WireDecode, WireEncode,
};

use crate::cache::LruCache;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::metrics::{Metrics, RequestKind, Stage};
use crate::poll::Waker;
use crate::reactor::{self, Reactor};
use crate::sync::{rank, OrderedMutex};
use crate::trace::Trace;

/// Response-cache capacity in entries, under [`CACHE_BUDGET_BYTES`].
const CACHE_CAPACITY: usize = 1024;

/// Response-cache byte budget per publication: 2 MiB of encoded frames.
///
/// Sized from the traffic. A point answer (top-k, range or KNN over a
/// multi-signature d = 2 publication) frames to ≈1.25–1.27 KB on average
/// and a sharded leg to ≈1.13 KB, so [`CACHE_CAPACITY`] such frames
/// (≈1.3 MB) fit and the entry bound binds first. Only wide answers (a
/// quarter-width range over 4,096 records frames to ≈18.6 KB) are held to
/// ≈110 frames: 1,024 of them would hold ≈19 MB, and a stream of distinct
/// wide queries never reads one again.
const CACHE_BUDGET_BYTES: usize = 2 << 20;

/// One publication as the service serves it: the dataset + authenticated
/// structure, every record's wire encoding, which query replies copy
/// instead of cloning and encoding the records per request, and the
/// response cache of the frames this publication computed, bounded by
/// [`CACHE_CAPACITY`] entries and [`CACHE_BUDGET_BYTES`]. The cache is
/// created and dropped with the publication, so no request can be served a
/// frame another epoch signed.
struct Serving {
    server: Server,
    records: RecordBytes,
    cache: OrderedMutex<LruCache>,
}

impl Serving {
    fn new(server: Server) -> Serving {
        let records = RecordBytes::new(server.dataset());
        let cache = LruCache::with_byte_budget(CACHE_CAPACITY, CACHE_BUDGET_BYTES);
        let cache = OrderedMutex::new(rank::CACHE, "cache", cache);
        Serving {
            server,
            records,
            cache,
        }
    }

    fn epoch(&self) -> Epoch {
        Epoch::new(self.server.epoch())
    }
}

/// State shared between every reactor.
pub(crate) struct Shared {
    /// The currently serving publication. Swapped atomically by
    /// [`QueryService::republish`]: every request resolves this `Arc`
    /// exactly once, so a single response can never mix records from one
    /// epoch with signatures (or an envelope stamp) from another, nor come
    /// out of another epoch's cache.
    serving: OrderedMutex<Arc<Serving>>,
    /// The owner-signed shard map this service publishes to clients (reply
    /// to [`Request::ShardMap`]); `None` on a standalone service.
    shard_map: OrderedMutex<Option<Arc<SignedShardMap>>>,
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Metrics,
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

    /// Swaps in the next publication, refusing one whose epoch does not
    /// advance the serving one. Requests that already resolved the old
    /// publication finish against it, its cache included; the old
    /// publication is dropped with the last of them.
    fn publish(&self, publication: Arc<Serving>) -> Result<Epoch, ServiceError> {
        let new_epoch = publication.epoch();
        let mut serving = self.serving.lock();
        let current = serving.epoch();
        if !new_epoch.advances(current) {
            return Err(ServiceError::StaleEpoch {
                expected: current.next().get(),
                got: new_epoch.get(),
            });
        }
        let retired = std::mem::replace(&mut *serving, publication);
        // Freeing a publication (tree, record bytes, cache) takes
        // milliseconds and every request's `serving()` waits on this lock,
        // so the guard goes first.
        drop(serving);
        drop(retired);
        Ok(new_epoch)
    }

    /// Flat counter snapshot, stamped with `serving`'s epoch and sampling
    /// its cache's gauges.
    fn snapshot(&self, serving: &Serving) -> StatsSnapshot {
        let (epoch, cache) = (serving.epoch().get(), serving.cache.lock().gauges());
        self.metrics.snapshot(self.config.workers, epoch, cache)
    }

    /// Deep snapshot: flat counters plus per-stage breakdowns.
    fn deep_snapshot(&self, serving: &Serving) -> StatsDeep {
        let (epoch, cache) = (serving.epoch().get(), serving.cache.lock().gauges());
        self.metrics
            .deep_snapshot(self.config.workers, epoch, cache)
    }
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
    pub fn epoch(&self) -> Epoch {
        self.shared.serving().epoch()
    }

    /// Hot-swaps the served dataset + authenticated structure for a
    /// republication, without dropping a single connection.
    ///
    /// The new [`Server`]'s epoch (bound into its signatures by
    /// [`vaq_authquery::IfmhTree::build_at_epoch`]) must be strictly greater
    /// than the currently served epoch — a republication can never roll the
    /// service back. The new publication starts with an empty response
    /// cache of its own; in-flight requests that already resolved the old
    /// one finish against it and its cache (and stamp their envelope with
    /// the *old* epoch, which their signatures also bind), while every
    /// request arriving after the swap sees only the new epoch.
    pub fn republish(&self, server: Server) -> Result<Epoch, ServiceError> {
        // Encoded outside the lock: the swap publishes the structure, its
        // record bytes and its cache together.
        self.shared.publish(Arc::new(Serving::new(server)))
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
            let (current, offered) = (Epoch::new(current.map.epoch), Epoch::new(map.map.epoch));
            if !offered.advances(current) {
                return Err(ServiceError::StaleEpoch {
                    expected: current.next().get(),
                    got: offered.get(),
                });
            }
        }
        *slot = Some(Arc::new(map));
        Ok(())
    }

    /// A point-in-time deep snapshot: the flat counters plus per-stage
    /// latency histograms and per-kind stage attribution.
    pub fn stats_deep(&self) -> StatsDeep {
        self.shared.deep_snapshot(&self.shared.serving())
    }

    /// Stops accepting connections, says a typed goodbye on every
    /// connection, joins every thread and returns the final counter
    /// snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        let serving = self.shared.serving();
        self.shutdown_inner();
        self.shared.snapshot(&serving)
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
                .write_line(&trace.slow_log_line(epoch.get(), total));
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
            let deep = Response::StatsDeep(shared.deep_snapshot(&serving));
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
                epoch: epoch.get(),
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
    if let Some(pinned) = pin.filter(|&pinned| epoch != pinned) {
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

/// Serves one analytic query through `serving`'s response cache, keyed on
/// the query's wire bytes (a pinned query shares the plain query's entry):
/// a hit returns the cached frame, a miss computes, inserts and returns it;
/// either way the cache and the connection's write queue share one buffer.
/// Two reactors that miss on the same key at once both compute — the
/// frames are byte-identical and the second insert replaces the first. An
/// error reply is returned to the requester but never cached (the next
/// requester retries the computation). The cache probe is charged to the
/// request's trace.
fn query_frame(
    shared: &Shared,
    serving: &Serving,
    query: &Query,
    trace: &mut Trace,
) -> Result<Arc<Vec<u8>>, ErrorReply> {
    let key = query.to_wire_bytes();
    let cached = trace.time(Stage::CacheLookup, || serving.cache.lock().get(&key));
    if let Some(frame) = cached {
        Metrics::add(&shared.metrics.cache_hits, 1);
        return Ok(frame);
    }
    let frame = Arc::new(compute_frame(shared, serving, query, trace)?);
    Metrics::add(&shared.metrics.cache_misses, 1);
    let evicted = {
        let mut cache = serving.cache.lock();
        let before = cache.evictions();
        cache.insert(key, Arc::clone(&frame));
        cache.evictions() - before
    };
    Metrics::add(&shared.metrics.cache_evictions, evicted);
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
    let epoch = serving.epoch().get();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vaq_authquery::{IfmhTree, SigningMode};
    use vaq_crypto::SignatureScheme;

    /// A standalone service's shared state over a small d = 1 dataset, and
    /// the server of its next publication (epoch 1, same records and key).
    fn shared_and_next() -> (Shared, Server) {
        let dataset = vaq_workload::uniform_dataset(8, 1, 3);
        let scheme = SignatureScheme::test_rsa(3);
        let mode = SigningMode::OneSignature;
        let at = |epoch| {
            let tree = IfmhTree::build_at_epoch(&dataset, mode, &scheme, epoch);
            Server::new(dataset.clone(), tree)
        };
        (Shared::new(ServiceConfig::ephemeral(), at(0)), at(1))
    }

    fn frame_epoch(frame: &[u8]) -> u64 {
        match Response::from_framed_bytes(frame).unwrap() {
            Response::Query { epoch, .. } => epoch,
            other => panic!("not a query reply: {other:?}"),
        }
    }

    fn trace() -> Trace {
        Trace::begin(Duration::ZERO)
    }

    #[test]
    fn a_frame_computed_across_a_republish_stays_in_its_own_publication() {
        let (shared, next) = shared_and_next();
        let query = Query::top_k(vec![0.5], 3);
        // A request resolves the serving publication, then the owner
        // republishes before it computes its frame.
        let old = shared.serving();
        let new_epoch = shared.publish(Arc::new(Serving::new(next))).unwrap();
        assert_eq!(new_epoch.get(), 1);

        let stale = query_frame(&shared, &old, &query, &mut trace()).unwrap();
        assert_eq!(frame_epoch(&stale), 0);
        assert_eq!(old.cache.lock().len(), 1, "inserted into the old cache");
        assert!(shared.serving().cache.lock().is_empty());

        // The same query at the new epoch misses and is stamped epoch 1.
        let payload = Request::Query(query.clone()).to_wire_bytes();
        let fresh = handle_request(&shared, &payload, &mut trace());
        assert_eq!(frame_epoch(&fresh), 1);
        assert_eq!(Metrics::get(&shared.metrics.cache_hits), 0);
        assert_eq!(Metrics::get(&shared.metrics.cache_misses), 2);

        // A pinned copy then hits the new publication's entry.
        let pinned = Request::QueryAt { epoch: 1, query }.to_wire_bytes();
        let hit = handle_request(&shared, &pinned, &mut trace());
        assert_eq!(hit, fresh);
        assert_eq!(Metrics::get(&shared.metrics.cache_hits), 1);
    }

    #[test]
    fn cache_evictions_survive_a_republish() {
        let (shared, next) = shared_and_next();
        let serving = shared.serving();
        let overflow = 5;
        for i in 0..CACHE_CAPACITY + overflow {
            let query = Query::top_k(vec![i as f64 / 2048.0], 1);
            query_frame(&shared, &serving, &query, &mut trace()).unwrap();
        }
        let before = shared.snapshot(&shared.serving());
        assert_eq!(before.cache_evictions, overflow as u64);
        assert_eq!(before.cache_entries, CACHE_CAPACITY as u64);

        shared.publish(Arc::new(Serving::new(next))).unwrap();
        let after = shared.snapshot(&shared.serving());
        assert_eq!(after.cache_evictions, before.cache_evictions);
        assert_eq!((after.cache_entries, after.cache_bytes), (0, 0));
    }

    #[test]
    fn wide_answers_are_held_to_the_byte_budget_and_still_repeat_hit() {
        // One d = 1 subdomain over 4,096 records: a quarter-width range
        // frames to tens of KB, so the byte budget binds long before the
        // entry bound does.
        let dataset = vaq_workload::uniform_dataset(4096, 1, 5);
        let scheme = SignatureScheme::test_rsa(5);
        let tree = IfmhTree::build_at_epoch(&dataset, SigningMode::OneSignature, &scheme, 0);
        let shared = Shared::new(ServiceConfig::ephemeral(), Server::new(dataset, tree));
        let serving = shared.serving();
        let queries: Vec<Query> = (0..200)
            .map(|i| {
                let lower = f64::from(i) / 1000.0;
                Query::range(vec![1.0], lower, lower + 0.25)
            })
            .collect();
        let frames: Vec<_> = queries
            .iter()
            .map(|query| query_frame(&shared, &serving, query, &mut trace()).unwrap())
            .collect();
        let stats = shared.snapshot(&serving);
        assert!(
            stats.cache_bytes <= CACHE_BUDGET_BYTES as u64,
            "{} cached bytes",
            stats.cache_bytes
        );
        assert!(stats.cache_evictions > 0);
        assert_eq!(Metrics::get(&shared.metrics.cache_hits), 0);

        let again = query_frame(&shared, &serving, &queries[199], &mut trace()).unwrap();
        assert_eq!(Metrics::get(&shared.metrics.cache_hits), 1);
        assert_eq!(again, frames[199]);
    }
}
