//! Every call the benchmark makes into the system under test.
//!
//! The rest of the benchmark (workload shapes, passes, reports) only sees
//! the types and functions of this file, so when the system's public surface
//! is reshaped, correcting the benchmark is a change to this one file. Each
//! layer is measured from outside, by timing calls into its public
//! functions; spans inside the program are a later change.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vaq_authquery::{client, IfmhTree, QueryResponse, Server};
use vaq_crypto::{sha256, PublicKey, SignatureScheme, Signer, Verifier};
use vaq_funcdb::{FunctionTemplate, LpSplitOracle};
use vaq_itree::ITreeBuilder;
use vaq_service::{
    partition_dataset, spec_to_query, LruCache, PartitionStrategy, QueryService, ServiceClient,
    ServiceConfig, ServiceError, ShardedClient, ShardedDeployment,
};
use vaq_wire::{Request, Response, StatsDeep, WireDecode, WireEncode};
use vaq_workload::{uniform_dataset, QueryGenerator, QueryMix};

pub use vaq_authquery::{Query, SigningMode};
pub use vaq_funcdb::Dataset;

use crate::trace::SpanLog;

/// Named measurements; `None` where the platform cannot supply one.
pub type Metrics = BTreeMap<&'static str, Option<f64>>;

fn put(metrics: &mut Metrics, name: &'static str, value: f64) {
    metrics.insert(name, Some(value));
}

fn mean(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

// ---------------------------------------------------------------------------
// workload: datasets, keys and query streams, all derived from the seed
// ---------------------------------------------------------------------------

/// `n` records with `dims` uniform attributes.
pub fn dataset(records: usize, dims: usize, seed: u64) -> Dataset {
    uniform_dataset(records, dims, seed)
}

/// The owner's RSA signing key.
pub fn signing_key(bits: usize, seed: u64) -> SignatureScheme {
    SignatureScheme::new_rsa(bits, seed)
}

/// The kind proportions and parameters of a query stream.
#[derive(Clone, Copy, Debug)]
pub struct MixSpec {
    pub topk: u32,
    pub range: u32,
    pub knn: u32,
    pub k: usize,
    pub range_width: f64,
}

/// What a data user knows of a publication: the weight domain and a
/// plausible score range. Streams are generated from this alone.
#[derive(Clone, Debug)]
pub struct StreamSource {
    dataset: Arc<Dataset>,
    score_range: (f64, f64),
    mix: QueryMix,
}

impl StreamSource {
    pub fn new(dataset: &Arc<Dataset>, mix: MixSpec, seed: u64) -> StreamSource {
        let probe = QueryGenerator::new(dataset, seed);
        let mut query_mix = QueryMix::weighted(mix.topk, mix.range, mix.knn);
        query_mix.k = mix.k;
        query_mix.range_width = mix.range_width;
        StreamSource {
            dataset: Arc::clone(dataset),
            score_range: probe.score_range(),
            mix: query_mix,
        }
    }

    /// Two queries for the correctness gate whose answers and proofs differ
    /// whatever the dataset: top-k always returns records, and asking the
    /// second for one record more gives it a different proven window even
    /// where (one subdomain) both rank the records alike.
    pub fn gate_queries(&self, seed: u64) -> (Query, Query) {
        let mut generator =
            QueryGenerator::from_published(self.dataset.domain.clone(), self.score_range, seed);
        let k = self.mix.k;
        (
            spec_to_query(&generator.top_k(k)),
            spec_to_query(&generator.top_k(k + 1)),
        )
    }

    /// The stream seeded `seed`; client `i` of a run uses `run seed + i`.
    pub fn stream(&self, seed: u64) -> QueryStream {
        QueryStream {
            generator: QueryGenerator::from_published(
                self.dataset.domain.clone(),
                self.score_range,
                seed,
            ),
            source: self.clone(),
            index: 0,
        }
    }
}

/// A seeded, endless query stream.
#[derive(Debug)]
pub struct QueryStream {
    generator: QueryGenerator,
    source: StreamSource,
    index: u64,
}

/// Half-width of the band around each record's score in which a range bound
/// is not drawn. `client::verify` compares boundary scores with a 1e-9
/// tolerance the server does not apply, so an honest answer whose range
/// bound lies that close to a record's score is rejected (about one range
/// query in 50,000 at n = 4096; see the README's findings). The contract of
/// the benchmark is a workload on which no operation fails, so such draws
/// are skipped and the next one taken.
const BOUND_CLEARANCE: f64 = 1e-8;

impl QueryStream {
    pub fn next_query(&mut self) -> Query {
        loop {
            let spec = self.source.mix.generate(&mut self.generator, self.index);
            self.index += 1;
            let query = spec_to_query(&spec);
            if self.clear_of_scores(&query) {
                return query;
            }
        }
    }

    fn clear_of_scores(&self, query: &Query) -> bool {
        let Query::Range {
            weights,
            lower,
            upper,
        } = query
        else {
            return true;
        };
        self.source.dataset.functions.iter().all(|f| {
            let score = f.eval(weights);
            (score - lower).abs() > BOUND_CLEARANCE && (score - upper).abs() > BOUND_CLEARANCE
        })
    }
}

// ---------------------------------------------------------------------------
// authquery, owner side: the build
// ---------------------------------------------------------------------------

/// `IfmhTree::build` with the exact split oracle at epoch 0.
pub fn build_tree(dataset: &Dataset, mode: SigningMode, scheme: &SignatureScheme) -> IfmhTree {
    IfmhTree::build(dataset, mode, scheme)
}

/// The authenticated structure a probe run keeps beside the served one.
pub type Tree = IfmhTree;

/// The owner's key pair.
pub type SigningKey = SignatureScheme;

// ---------------------------------------------------------------------------
// service: one QueryService or a ShardedDeployment behind loopback TCP
// ---------------------------------------------------------------------------

/// Worker threads of every service the benchmark binds: one per core of the
/// two-core sandbox the sizes were taken on.
const WORKERS: usize = 2;

/// The read timeout of a service carrying an idle fleet: longer than any
/// run, so the silent connections are never reaped mid-pass.
const FLEET_READ_TIMEOUT: Duration = Duration::from_secs(300);

/// Idle connections dialled between two pings; well under the listen
/// backlog of 128 the standard library asks for.
const FLEET_CHUNK: usize = 32;

/// Consecutive stale-epoch rejections one sharded query rides before it
/// counts as failed. A rollout flips each shard once; between the flips a
/// pinned client is rejected every retry, so the limit covers the longest
/// rebuild at a 10 ms retry pause with room to spare.
const STALE_RETRY_LIMIT: usize = 400;
const STALE_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// The system under test as one run deploys it. One exists at a time, so
/// the size skew between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Service {
    Single {
        service: QueryService,
        template: FunctionTemplate,
        key: PublicKey,
    },
    Sharded {
        deployment: ShardedDeployment,
        dataset: Arc<Dataset>,
    },
}

impl Service {
    /// Binds one service over `tree` on an ephemeral loopback port, sized to
    /// hold `idle_connections` silent sockets beside the load.
    pub fn bind_single(
        dataset: &Dataset,
        tree: IfmhTree,
        scheme: &SignatureScheme,
        idle_connections: usize,
    ) -> Result<Service, ServiceError> {
        let mut config = ServiceConfig::ephemeral().workers(WORKERS);
        if idle_connections > 0 {
            config = config
                .read_timeout(Some(FLEET_READ_TIMEOUT))
                .max_connections(idle_connections + 1024);
        }
        let service = QueryService::bind(config, Server::new(dataset.clone(), tree))?;
        Ok(Service::Single {
            service,
            template: dataset.template.clone(),
            key: scheme.public_key(),
        })
    }

    /// Partitions, builds and binds one service per shard. The deployment
    /// derives its own (128-bit) keys from `seed`.
    pub fn launch_sharded(
        dataset: &Arc<Dataset>,
        shards: usize,
        mode: SigningMode,
        seed: u64,
    ) -> Result<Service, ServiceError> {
        let config = ServiceConfig::ephemeral().workers(WORKERS);
        let deployment = ShardedDeployment::launch(dataset, shards, mode, seed, config)?;
        Ok(Service::Sharded {
            deployment,
            dataset: Arc::clone(dataset),
        })
    }

    /// A verifying client connection for one load thread.
    pub fn connect(&self) -> Result<Conn, ServiceError> {
        match self {
            Service::Single {
                service,
                template,
                key,
            } => Ok(Conn::Single {
                client: ServiceClient::connect(service.local_addr())?,
                addr: service.local_addr(),
                template: template.clone(),
                key: key.clone(),
            }),
            Service::Sharded { deployment, .. } => Ok(Conn::Sharded {
                client: ShardedClient::connect(deployment.addrs(), deployment.publication())?,
            }),
        }
    }

    /// Opens `count` connections that then stay silent. After every chunk
    /// the newest connection is pinged, which the service can answer only
    /// once it has accepted and registered everything before it: the ramp
    /// never holds more than a chunk in the listen backlog (an overflow
    /// costs a one-second SYN retransmit), and on return the whole fleet is
    /// under the reactor's sweep.
    pub fn open_idle(&self, count: usize) -> Result<Vec<IdleConnection>, ServiceError> {
        let Service::Single { service, .. } = self else {
            return Ok(Vec::new());
        };
        let mut fleet: Vec<IdleConnection> = Vec::with_capacity(count);
        while fleet.len() < count {
            for _ in 0..FLEET_CHUNK.min(count - fleet.len()) {
                fleet.push(ServiceClient::connect(service.local_addr())?);
            }
            if let Some(newest) = fleet.last_mut() {
                newest.ping()?;
            }
        }
        Ok(fleet)
    }

    /// One plain (unsharded) connection plus the template and key its
    /// answers verify under: the service itself, or shard 0 of a deployment.
    fn first_node(&self) -> Result<(ServiceClient, FunctionTemplate, PublicKey), ServiceError> {
        match self {
            Service::Single {
                service,
                template,
                key,
            } => Ok((
                ServiceClient::connect(service.local_addr())?,
                template.clone(),
                key.clone(),
            )),
            Service::Sharded { deployment, .. } => {
                let publication = deployment.publication();
                let entry = publication.shard_map.map.shards.first().ok_or_else(|| {
                    ServiceError::ShardMap("the published shard map is empty".into())
                })?;
                Ok((
                    ServiceClient::connect(deployment.addrs()[0])?,
                    publication.template.clone(),
                    entry.public_key.clone(),
                ))
            }
        }
    }

    /// The correctness gate: `client::verify` must accept an honest reply and
    /// reject both a reply with one record bit flipped and a reply carrying
    /// the VO of a different query. Run at epoch 0, before any republish.
    pub fn tamper_gate(&self, first: &Query, second: &Query) -> Result<(), String> {
        let (mut client, template, key) = self.first_node().map_err(|e| e.to_string())?;
        let mut ask = |query: &Query| -> Result<QueryResponse, String> {
            client
                .send(&Request::Query(query.clone()))
                .map_err(|e| e.to_string())?;
            match client.receive().map_err(|e| e.to_string())? {
                Response::Query { response, .. } => Ok(response),
                _ => Err("the service answered a query with another kind of reply".into()),
            }
        };
        let honest = ask(first)?;
        let other = ask(second)?;
        client::verify(first, &honest.records, &honest.vo, &template, &key)
            .map_err(|e| format!("an honest reply was rejected: {e}"))?;

        let mut flipped = honest.records.clone();
        let attr = flipped
            .first_mut()
            .and_then(|r| r.attrs.first_mut())
            .ok_or("the gate query returned no record to tamper with")?;
        *attr = f64::from_bits(attr.to_bits() ^ 1);
        if client::verify(first, &flipped, &honest.vo, &template, &key).is_ok() {
            return Err("a reply with a flipped record bit was accepted".into());
        }
        if client::verify(first, &honest.records, &other.vo, &template, &key).is_ok() {
            return Err("a reply carrying another query's VO was accepted".into());
        }
        Ok(())
    }

    /// The server-side counters, summed over the deployment's services.
    pub fn counters(&self) -> ServerCounters {
        match self {
            Service::Single { service, .. } => ServerCounters::sum(&[service.stats_deep()]),
            Service::Sharded { deployment, .. } => ServerCounters::sum(&deployment.stats_deep()),
        }
    }

    /// Rebuilds and hot-swaps every shard at the next epoch; the wall time
    /// of the call. A single service has nothing to republish.
    pub fn republish(&mut self) -> Result<Duration, ServiceError> {
        let started = Instant::now();
        if let Service::Sharded {
            deployment,
            dataset,
        } = self
        {
            deployment.republish(dataset)?;
        }
        Ok(started.elapsed())
    }

    pub fn shutdown(self) {
        match self {
            Service::Single { service, .. } => drop(service.shutdown()),
            Service::Sharded { deployment, .. } => drop(deployment.shutdown()),
        }
    }
}

/// A connection that is opened and then stays silent.
pub type IdleConnection = ServiceClient;

/// One load thread's verifying connection.
pub enum Conn {
    Single {
        client: ServiceClient,
        addr: SocketAddr,
        template: FunctionTemplate,
        key: PublicKey,
    },
    Sharded {
        client: ShardedClient,
    },
}

/// What a sharded client has seen on the scatter side since it connected.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardView {
    pub legs: u64,
    pub leg_total_us: u64,
    pub stale_rejections: u64,
    pub map_refreshes: u64,
    pub failovers: u64,
}

impl ShardView {
    /// What was seen between `earlier` and `self`.
    pub fn since(&self, earlier: &ShardView) -> ShardView {
        ShardView {
            legs: self.legs - earlier.legs,
            leg_total_us: self.leg_total_us - earlier.leg_total_us,
            stale_rejections: self.stale_rejections - earlier.stale_rejections,
            map_refreshes: self.map_refreshes - earlier.map_refreshes,
            failovers: self.failovers - earlier.failovers,
        }
    }

    /// Adds another client's view to this one.
    pub fn add(&mut self, other: &ShardView) {
        self.legs += other.legs;
        self.leg_total_us += other.leg_total_us;
        self.stale_rejections += other.stale_rejections;
        self.map_refreshes += other.map_refreshes;
        self.failovers += other.failovers;
    }
}

/// The spans of one request go to this log, under this root span.
pub struct TraceInto<'a> {
    pub log: &'a mut SpanLog,
    pub root: u32,
    pub request: u64,
}

impl TraceInto<'_> {
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.log
            .record(name, start, end, Some(self.root), self.request);
    }
}

/// `ShardedClient::query_verified` riding stale-epoch rejections with a map
/// refresh and a retry, as a real client does during a rollout; one span per
/// attempt and per refresh when traced.
fn sharded_answer(
    client: &mut ShardedClient,
    query: &Query,
    mut trace: Option<TraceInto<'_>>,
) -> Result<(), ServiceError> {
    let mut retries = 0;
    loop {
        let t0 = Instant::now();
        let outcome = client.query_verified(query);
        let t1 = Instant::now();
        if let Some(trace) = &mut trace {
            trace.record("service.shard.query_verified", t0, t1);
        }
        match outcome {
            Ok(_) => return Ok(()),
            Err(e) if e.is_stale_epoch() && retries < STALE_RETRY_LIMIT => {
                retries += 1;
                // A failed refresh means the rollout is still flipping
                // shards; the next retry refreshes again.
                let _ = client.refresh();
                std::thread::sleep(STALE_RETRY_PAUSE);
                if let Some(trace) = &mut trace {
                    trace.record("service.shard.refresh", t1, Instant::now());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

impl Conn {
    /// One verified answer: `ServiceClient::query_verified`, or the sharded
    /// client's with its stale-epoch retries.
    pub fn verified(&mut self, query: &Query) -> Result<(), ServiceError> {
        match self {
            Conn::Single {
                client,
                template,
                key,
                ..
            } => client.query_verified(query, template, key).map(drop),
            Conn::Sharded { client } => sharded_answer(client, query, None),
        }
    }

    /// The same answer with one span per call into a layer, as children of
    /// the request's root span.
    pub fn traced(&mut self, query: &Query, mut trace: TraceInto<'_>) -> Result<(), ServiceError> {
        match self {
            Conn::Single {
                client,
                template,
                key,
                ..
            } => {
                let t0 = Instant::now();
                client.send(&Request::Query(query.clone()))?;
                let t1 = Instant::now();
                trace.record("service.client.send", t0, t1);
                let reply = client.receive();
                let t2 = Instant::now();
                trace.record("service.client.receive", t1, t2);
                let Response::Query { response, .. } = reply? else {
                    return Err(ServiceError::UnexpectedResponse("not a query reply"));
                };
                let verdict = client::verify(query, &response.records, &response.vo, template, key);
                trace.record("authquery.verify", t2, Instant::now());
                verdict.map(drop).map_err(ServiceError::from)
            }
            Conn::Sharded { client } => sharded_answer(client, query, Some(trace)),
        }
    }

    /// Makes the connection usable again after `error`; `false` when it
    /// cannot be. A verification reject leaves the stream aligned; anything
    /// else may have desynced a single connection, which is replaced. A
    /// sharded client re-opens its own legs.
    pub fn recover(&mut self, error: &ServiceError) -> bool {
        match self {
            Conn::Single { client, addr, .. }
                if !matches!(error, ServiceError::Verification(_)) =>
            {
                ServiceClient::connect(*addr)
                    .map(|fresh| *client = fresh)
                    .is_ok()
            }
            _ => true,
        }
    }

    /// Scatter-side counters since the connection was opened; `None` on a
    /// single connection.
    pub fn shard_view(&self) -> Option<ShardView> {
        let Conn::Sharded { client } = self else {
            return None;
        };
        let obs = client.observability();
        Some(ShardView {
            legs: obs.leg_latency.iter().map(|l| l.legs).sum(),
            leg_total_us: obs.leg_latency.iter().map(|l| l.total_micros).sum(),
            stale_rejections: obs.stale_rejections,
            map_refreshes: obs.map_refreshes,
            failovers: obs.failovers,
        })
    }
}

/// The label a failed request is counted under: the verification reject, the
/// typed reply's `ErrorCode`, an I/O failure, or a protocol violation.
pub fn failure_label(error: &ServiceError) -> &'static str {
    match error {
        ServiceError::Verification(_) => "verification_reject",
        ServiceError::Remote(reply) => reply.code.label(),
        ServiceError::Io(_) => "io",
        ServiceError::ShardFailed { error, .. } => failure_label(error),
        _ => "protocol",
    }
}

// ---------------------------------------------------------------------------
// service.server / service.cache / service.reactor: the (S) stage counters
// ---------------------------------------------------------------------------

/// The counters of `StatsDeep` the benchmark reads, summed over services.
#[derive(Clone, Debug, Default)]
pub struct ServerCounters {
    /// Stage label to `(count, summed micros)`.
    stages: BTreeMap<String, (u64, u64)>,
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub bytes_out: u64,
    pub errors: u64,
    pub sweeps: u64,
    pub sweep_us: u64,
    pub stalls: u64,
    pub connections_shed: u64,
    pub slow_readers_shed: u64,
}

/// The eight server stages, in hot-path order, with the layer metric each is
/// reported as.
pub const SERVER_STAGES: [(&str, &str); 8] = [
    ("queue_wait", "service.server.queue_wait_us"),
    ("decode", "service.server.decode_us"),
    ("cache_lookup", "service.cache.lookup_us"),
    ("flight_wait", "service.server.flight_wait_us"),
    ("execute", "authquery.execute_us"),
    ("vo_build", "authquery.vo_build_us"),
    ("encode", "wire.encode_us"),
    ("write", "service.conn.write_us"),
];

impl ServerCounters {
    fn sum(deeps: &[StatsDeep]) -> ServerCounters {
        let mut total = ServerCounters::default();
        for deep in deeps {
            for stage in &deep.per_stage {
                let slot = total.stages.entry(stage.stage.clone()).or_default();
                slot.0 += stage.histogram.count;
                slot.1 += stage.histogram.sum_micros;
            }
            let s = &deep.snapshot;
            total.requests += s.requests_served;
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.cache_evictions += s.cache_evictions;
            total.bytes_out += s.bytes_out;
            total.errors += s.errors;
            total.sweeps += deep.reactor.sweeps.count;
            total.sweep_us += deep.reactor.sweeps.sum_micros;
            total.stalls += deep.reactor.reactor_stalls;
            total.connections_shed += deep.reactor.connections_shed;
            total.slow_readers_shed += deep.reactor.slow_readers_shed;
        }
        total
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &ServerCounters) -> ServerCounters {
        let mut delta = self.clone();
        for (stage, slot) in &mut delta.stages {
            let (count, sum) = earlier.stages.get(stage).copied().unwrap_or((0, 0));
            slot.0 -= count;
            slot.1 -= sum;
        }
        delta.requests -= earlier.requests;
        delta.cache_hits -= earlier.cache_hits;
        delta.cache_misses -= earlier.cache_misses;
        delta.cache_evictions -= earlier.cache_evictions;
        delta.bytes_out -= earlier.bytes_out;
        delta.errors -= earlier.errors;
        delta.sweeps -= earlier.sweeps;
        delta.sweep_us -= earlier.sweep_us;
        delta.stalls -= earlier.stalls;
        delta.connections_shed -= earlier.connections_shed;
        delta.slow_readers_shed -= earlier.slow_readers_shed;
        delta
    }

    /// Mean micros per request the stage took, over the requests that
    /// recorded it (0 when none did).
    pub fn stage_mean_us(&self, stage: &str) -> f64 {
        let (count, sum) = self.stages.get(stage).copied().unwrap_or((0, 0));
        mean(sum as f64, count as usize)
    }
}

// ---------------------------------------------------------------------------
// (P) probes: single thread, no socket
// ---------------------------------------------------------------------------

/// The structure's own account of its build.
pub fn probe_structure(tree: &IfmhTree, metrics: &mut Metrics) {
    let stats = tree.stats();
    put(
        metrics,
        "authquery.subdomains",
        tree.subdomain_count() as f64,
    );
    put(
        metrics,
        "authquery.signatures",
        tree.signature_count() as f64,
    );
    put(metrics, "authquery.build_hash_ops", stats.hash_ops as f64);
    put(
        metrics,
        "authquery.structure_bytes",
        stats.structure_bytes as f64,
    );
    put(
        metrics,
        "authquery.proof_cache_bytes",
        tree.proof_cache().byte_size() as f64,
    );
}

/// The I-tree build alone, without hashing or signing.
pub fn probe_itree_build(dataset: &Dataset, metrics: &mut Metrics) {
    let started = Instant::now();
    let (_, stats) = ITreeBuilder::new(LpSplitOracle::new())
        .build_with_stats(&dataset.functions, dataset.domain.clone());
    put(
        metrics,
        "itree.build_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    put(metrics, "itree.oracle_calls", stats.oracle_calls as f64);
}

/// One signature, one signature check and bulk SHA-256 under `scheme`.
pub fn probe_crypto(scheme: &SignatureScheme, rounds: usize, metrics: &mut Metrics) {
    let key = scheme.public_key();
    let digests: Vec<_> = (0..rounds as u64)
        .map(|i| sha256(&i.to_le_bytes()))
        .collect();
    let started = Instant::now();
    let signatures: Vec<_> = digests.iter().map(|d| scheme.sign_digest(d)).collect();
    put(
        metrics,
        "crypto.sign_us",
        mean(started.elapsed().as_secs_f64() * 1e6, rounds),
    );
    let started = Instant::now();
    let accepted = digests
        .iter()
        .zip(&signatures)
        .filter(|(d, s)| key.verify_digest(d, s))
        .count();
    put(
        metrics,
        "crypto.verify_us",
        mean(started.elapsed().as_secs_f64() * 1e6, rounds),
    );
    assert_eq!(accepted, rounds, "a fresh signature failed its own check");

    let block = vec![0x5au8; 1 << 20];
    let started = Instant::now();
    for _ in 0..rounds.min(16) {
        std::hint::black_box(sha256(std::hint::black_box(&block)));
    }
    let megabytes = (block.len() * rounds.min(16)) as f64 / 1e6;
    put(
        metrics,
        "crypto.sha256_mb_s",
        megabytes / started.elapsed().as_secs_f64(),
    );
}

/// Accumulates nanoseconds around a call.
struct Clock(Duration);

impl Clock {
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        self.0 += started.elapsed();
        out
    }

    fn mean_ns(&self, count: usize) -> f64 {
        mean(self.0.as_nanos() as f64, count)
    }
}

/// Walks `queries` through every per-request layer in process: locate,
/// process, range proof, verify, wire encode and decode, and the response
/// cache.
pub fn probe_request_path(
    dataset: &Dataset,
    tree: IfmhTree,
    scheme: &SignatureScheme,
    queries: &[Query],
    metrics: &mut Metrics,
) {
    let key = &scheme.public_key();
    let server = Server::new(dataset.clone(), tree);
    let n = queries.len();
    let zero = || Clock(Duration::ZERO);
    let (mut locate, mut process, mut prove, mut verify) = (zero(), zero(), zero(), zero());
    let (mut req_encode, mut encode, mut decode) = (zero(), zero(), zero());
    let (mut cache_insert, mut cache_get) = (zero(), zero());
    let (mut path_nodes, mut imh, mut fmh, mut results) = (0usize, 0usize, 0usize, 0usize);
    let (mut hash_ops, mut vo_bytes, mut frame_bytes, mut rejected) = (0usize, 0usize, 0usize, 0);
    let mut cache = LruCache::new(1024);
    let mut keys = Vec::with_capacity(n);

    for query in queries {
        let located = locate.time(|| server.tree().itree().locate(query.weights()));
        path_nodes += located.nodes_visited;
        let (response, _) = process.time(|| server.process_timed(query));
        imh += response.cost.imh_nodes_visited;
        fmh += response.cost.fmh_nodes_visited;
        results += response.records.len();
        vo_bytes += response.vo.byte_size();
        if let Some(fmh_tree) = server.tree().fmh_tree(located.leaf) {
            let lo = response.vo.first_leaf as usize;
            let hi = lo + response.records.len() + 1;
            prove.time(|| std::hint::black_box(fmh_tree.prove_range(lo, hi)));
        }
        let verdict = verify.time(|| {
            client::verify(
                query,
                &response.records,
                &response.vo,
                &dataset.template,
                key,
            )
        });
        match verdict {
            Ok(verified) => hash_ops += verified.cost.hash_ops,
            Err(_) => rejected += 1,
        }

        let request = Request::Query(query.clone());
        let request_frame = req_encode.time(|| request.to_framed_bytes());
        let reply = Response::Query { epoch: 0, response };
        let frame = Arc::new(encode.time(|| reply.to_framed_bytes()));
        frame_bytes += frame.len();
        let decoded = decode.time(|| Response::from_framed_bytes(&frame));
        assert!(decoded.is_ok(), "an encoded response did not decode");
        cache_insert.time(|| cache.insert(request_frame.clone(), Arc::clone(&frame)));
        keys.push(request_frame);
    }
    // The cache holds the last 1024 frames; look those up, newest last.
    let resident = &keys[keys.len().saturating_sub(1024)..];
    let hits = cache_get.time(|| resident.iter().filter(|k| cache.get(k).is_some()).count());
    assert_eq!(hits, resident.len(), "a resident frame missed the cache");

    put(metrics, "itree.locate_ns", locate.mean_ns(n));
    put(
        metrics,
        "itree.nodes_per_locate",
        mean(path_nodes as f64, n),
    );
    put(metrics, "mht.prove_range_ns", prove.mean_ns(n));
    put(metrics, "authquery.process_us", process.mean_ns(n) / 1e3);
    put(
        metrics,
        "authquery.imh_nodes_per_query",
        mean(imh as f64, n),
    );
    put(
        metrics,
        "authquery.fmh_nodes_per_query",
        mean(fmh as f64, n),
    );
    put(
        metrics,
        "authquery.result_len_mean",
        mean(results as f64, n),
    );
    put(
        metrics,
        "authquery.verify_hash_ops",
        mean(hash_ops as f64, n - rejected),
    );
    put(metrics, "authquery.vo_bytes", mean(vo_bytes as f64, n));
    put(metrics, "wire.request_encode_ns", req_encode.mean_ns(n));
    put(metrics, "wire.response_encode_ns", encode.mean_ns(n));
    put(metrics, "wire.response_decode_ns", decode.mean_ns(n));
    put(metrics, "wire.response_bytes", mean(frame_bytes as f64, n));
    put(metrics, "service.cache.insert_ns", cache_insert.mean_ns(n));
    put(
        metrics,
        "service.cache.get_ns",
        cache_get.mean_ns(resident.len()),
    );
}

/// The owner's cost of sharding: the split, one build per shard, and how
/// the shard builds together compare with one build of the whole dataset.
/// Returns the whole-dataset tree and its key for the request-path probe.
pub fn probe_sharding(
    dataset: &Dataset,
    shards: usize,
    mode: SigningMode,
    seed: u64,
    metrics: &mut Metrics,
) -> (IfmhTree, SignatureScheme) {
    let started = Instant::now();
    let parts = partition_dataset(dataset, shards, PartitionStrategy::RoundRobin);
    put(
        metrics,
        "service.partition.split_us",
        started.elapsed().as_secs_f64() * 1e6,
    );
    // The deployment's own key size, which `launch` fixes at 128 bits.
    let scheme = SignatureScheme::new_rsa(128, seed);
    let started = Instant::now();
    for part in &parts {
        std::hint::black_box(IfmhTree::build(part, mode, &scheme));
    }
    let shard_builds = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let whole = IfmhTree::build(dataset, mode, &scheme);
    let whole_build = started.elapsed().as_secs_f64();
    put(
        metrics,
        "service.shard.build_per_shard_ms",
        mean(shard_builds * 1e3, shards),
    );
    put(
        metrics,
        "service.shard.build_speedup",
        whole_build / shard_builds,
    );
    (whole, scheme)
}

/// The share of honest answers `client::verify` rejects on a small
/// three-dimensional dataset, where the arrangement's cells get thin.
pub fn probe_false_rejects_d3(seed: u64, queries: usize, metrics: &mut Metrics) {
    let dataset = Arc::new(uniform_dataset(20, 3, seed));
    let scheme = SignatureScheme::new_rsa(256, seed);
    let key = scheme.public_key();
    let server = Server::new(
        (*dataset).clone(),
        IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme),
    );
    let mix = MixSpec {
        topk: 1,
        range: 1,
        knn: 1,
        k: 3,
        range_width: 0.2,
    };
    let mut stream = StreamSource::new(&dataset, mix, seed).stream(seed);
    let rejected = (0..queries)
        .filter(|_| {
            let query = stream.next_query();
            let (response, _) = server.process_timed(&query);
            client::verify(
                &query,
                &response.records,
                &response.vo,
                &dataset.template,
                &key,
            )
            .is_err()
        })
        .count();
    put(
        metrics,
        "authquery.false_reject_share_d3",
        mean(rejected as f64, queries),
    );
}
