//! Closed-loop load generator: N client threads driving a query service
//! with seeded workload mixes, verifying every response.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use vaq_authquery::Query;
use vaq_crypto::{PublicKey, Verifier};
use vaq_funcdb::{Dataset, Domain, FunctionTemplate};
use vaq_wire::{Request, Response};
use vaq_workload::{QueryGenerator, QueryMix, QuerySpec, WorkItem};

use crate::client::{check_batch_arity, unexpected, ServiceClient};
use crate::error::ServiceError;
use crate::shard::{ClientObservability, ShardedClient, ShardedPublication};

/// Converts a workload query spec into a protocol query.
pub fn spec_to_query(spec: &QuerySpec) -> Query {
    match spec {
        QuerySpec::TopK { weights, k } => Query::top_k(weights.clone(), *k),
        QuerySpec::Range {
            weights,
            lower,
            upper,
        } => Query::range(weights.clone(), *lower, *upper),
        QuerySpec::Knn { weights, k, target } => Query::knn(weights.clone(), *k, *target),
    }
}

/// What a load-generation run drives.
///
/// The sharded variant carries the full publication (shard map with
/// per-shard keys and address lists); the size skew against the bare
/// single-service address is inherent, and a `LoadTarget` is a run-level
/// config value cloned once per client thread, never a hot-path payload.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum LoadTarget {
    /// One standalone service; responses are verified when
    /// [`LoadGenerator::verify`] is set.
    Single(SocketAddr),
    /// A sharded deployment: every query scatter-gathers across all shards
    /// and is always fully verified against the publication (per-shard keys
    /// plus the attested shard map), so [`LoadGenerator::verify`] is
    /// ignored.
    Sharded {
        /// Shard addresses, in shard-id order.
        addrs: Vec<SocketAddr>,
        /// The owner's published verification material.
        publication: ShardedPublication,
    },
}

/// Configuration of a load-generation run.
#[derive(Clone, Debug)]
pub struct LoadGenerator {
    /// What to drive: one service or a sharded deployment.
    pub target: LoadTarget,
    /// Concurrent client threads.
    pub clients: usize,
    /// Connections each client thread opens against a
    /// [`LoadTarget::Single`] service, so one process simulates
    /// `clients * connections_per_client` concurrent connections against
    /// the evented service core (10k+ simulated users from a handful of
    /// threads). Above 1, each thread drives its fan-out in *waves* of
    /// tagged requests — one in flight per connection, gathered by
    /// correlation tag — so the whole fleet is genuinely concurrent rather
    /// than ticking one closed loop across many sockets. Clamped to at
    /// least 1. Ignored by the sharded target, where every shard leg is
    /// already its own connection.
    pub connections_per_client: usize,
    /// Queries each client issues.
    pub requests_per_client: usize,
    /// The query-kind mix every client draws from.
    pub mix: QueryMix,
    /// Base RNG seed; client `i` uses `seed + i`.
    pub seed: u64,
    /// When set, every response from a [`LoadTarget::Single`] service is
    /// cryptographically verified against the owner's template and public
    /// key.
    pub verify: Option<(FunctionTemplate, PublicKey)>,
}

impl LoadGenerator {
    /// A single-service generator with the balanced default mix and
    /// verification enabled.
    pub fn new(
        addr: SocketAddr,
        clients: usize,
        requests_per_client: usize,
        template: FunctionTemplate,
        public_key: PublicKey,
    ) -> Self {
        LoadGenerator {
            target: LoadTarget::Single(addr),
            clients: clients.max(1),
            connections_per_client: 1,
            requests_per_client,
            mix: QueryMix::default(),
            seed: 0x10ad,
            verify: Some((template, public_key)),
        }
    }

    /// A generator driving a sharded deployment with the balanced default
    /// mix; every response is scatter-gathered and fully verified.
    pub fn sharded(
        addrs: Vec<SocketAddr>,
        publication: ShardedPublication,
        clients: usize,
        requests_per_client: usize,
    ) -> Self {
        LoadGenerator {
            target: LoadTarget::Sharded { addrs, publication },
            clients: clients.max(1),
            connections_per_client: 1,
            requests_per_client,
            mix: QueryMix::default(),
            seed: 0x10ad,
            verify: None,
        }
    }

    /// Runs the closed loop to completion and aggregates the results.
    ///
    /// `dataset` seeds the per-client [`QueryGenerator`]s with realistic
    /// weight vectors and score ranges — the same knowledge a data user has
    /// from the owner's published metadata. The records themselves never
    /// cross into the client threads: one probe samples the score range,
    /// and each thread generates from the (domain, score range) pair alone.
    pub fn run(&self, dataset: &Dataset) -> Result<LoadReport, ServiceError> {
        let started = Instant::now();
        let probe = QueryGenerator::new(dataset, self.seed);
        let domain = probe.domain().clone();
        let score_range = probe.score_range();
        let threads: Vec<_> = (0..self.clients)
            .map(|i| {
                let config = self.clone();
                let domain = domain.clone();
                std::thread::Builder::new()
                    .name(format!("vaq-loadgen-{i}"))
                    .spawn(move || config.drive_one_client(i as u64, domain, score_range))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        // Join every thread before propagating any error, so a failed client
        // never leaves the others running detached against the service. A
        // panicked client thread folds into a typed error the same way.
        let outcomes: Vec<Result<ClientOutcome, ServiceError>> = threads
            .into_iter()
            .map(|thread| {
                thread.join().unwrap_or_else(|_| {
                    Err(ServiceError::Io(std::io::Error::other(
                        "a load-generator client thread panicked",
                    )))
                })
            })
            .collect();
        let mut latencies_micros: Vec<u64> = Vec::new();
        let mut batch_latencies_micros: Vec<u64> = Vec::new();
        let mut verified = 0usize;
        let mut failures = 0usize;
        let mut epoch_refreshes = 0usize;
        let mut batches = 0usize;
        let mut batch_queries = 0usize;
        let mut failovers = 0u64;
        let mut stale_rejections = 0u64;
        let mut scatter_legs = 0u64;
        let mut scatter_leg_total_micros = 0u64;
        let mut scatter_leg_max_micros = 0u64;
        for outcome in outcomes {
            let outcome = outcome?;
            latencies_micros.extend(outcome.latencies_micros);
            batch_latencies_micros.extend(outcome.batch_latencies_micros);
            verified += outcome.verified;
            failures += outcome.failures;
            epoch_refreshes += outcome.epoch_refreshes;
            batches += outcome.batches;
            batch_queries += outcome.batch_queries;
            if let Some(obs) = outcome.observability {
                failovers += obs.failovers;
                stale_rejections += obs.stale_rejections;
                scatter_leg_max_micros = scatter_leg_max_micros.max(obs.max_leg_micros());
                for leg in &obs.leg_latency {
                    scatter_legs += leg.legs;
                    scatter_leg_total_micros += leg.total_micros;
                }
            }
        }
        let elapsed = started.elapsed();
        latencies_micros.sort_unstable();
        batch_latencies_micros.sort_unstable();
        Ok(LoadReport {
            clients: self.clients,
            total_requests: latencies_micros.len() + batches,
            verified,
            failures,
            epoch_refreshes,
            batches,
            batch_queries,
            failovers,
            stale_rejections,
            scatter_legs,
            scatter_leg_total_micros,
            scatter_leg_max_micros,
            elapsed,
            latencies_micros,
            batch_latencies_micros,
        })
    }

    fn drive_one_client(
        &self,
        index: u64,
        domain: Domain,
        score_range: (f64, f64),
    ) -> Result<ClientOutcome, ServiceError> {
        let mut generator = QueryGenerator::from_published(domain, score_range, self.seed + index);
        match &self.target {
            LoadTarget::Single(addr) => {
                // One stream per simulated user. A fan-out of 1 is the
                // classic closed loop; above 1 the thread pipelines a wave
                // of tagged requests across its connections and gathers
                // them by correlation tag.
                let fan_out = self.connections_per_client.max(1);
                let mut conns: Vec<ServiceClient> = Vec::with_capacity(fan_out);
                for n in 0..fan_out {
                    // Ramp the fan-out instead of dialing it as one storm: an
                    // unpaced burst from every generator thread at once can
                    // overflow the kernel's listen backlog (the connect
                    // spinners starve the accept thread on a saturated core),
                    // and each dropped SYN stalls its client ~1s on a
                    // retransmit. The pauses bound the dial rate and hand the
                    // scheduler windows in which the acceptor drains.
                    if n > 0 && n % CONNECT_RAMP_CHUNK == 0 {
                        std::thread::sleep(CONNECT_RAMP_PAUSE);
                    }
                    conns.push(ServiceClient::connect(addr)?);
                }
                let mut outcome = ClientOutcome::default();
                if fan_out > 1 {
                    self.drive_waves(&mut generator, &mut conns, &mut outcome)?;
                    return Ok(outcome);
                }
                let client = &mut conns[0];
                for request_index in 0..self.requests_per_client {
                    match self.mix.generate_item(&mut generator, request_index as u64) {
                        WorkItem::Single(spec) => {
                            let query = spec_to_query(&spec);
                            let start = Instant::now();
                            let response = client.query(&query)?;
                            outcome.latencies_micros.push(elapsed_micros(start));
                            self.verify_one(&query, &response, &mut outcome);
                        }
                        WorkItem::Batch(specs) => {
                            let queries: Vec<Query> = specs.iter().map(spec_to_query).collect();
                            let start = Instant::now();
                            let responses = client.batch(&queries)?;
                            outcome.batch_latencies_micros.push(elapsed_micros(start));
                            outcome.batches += 1;
                            outcome.batch_queries += queries.len();
                            for (query, response) in queries.iter().zip(&responses) {
                                self.verify_one(query, response, &mut outcome);
                            }
                        }
                    }
                }
                Ok(outcome)
            }
            LoadTarget::Sharded { addrs, publication } => {
                let mut outcome = ClientOutcome::default();
                let mut client = sharded_connect_with_refresh(addrs, publication, &mut outcome)?;
                for request_index in 0..self.requests_per_client {
                    // A sharded request is verified end to end or it errors;
                    // there is no unverified sharded read to time. Update
                    // churn (the owner republishing mid-run) surfaces as
                    // typed stale-epoch rejections: re-fetch the signed map
                    // and retry at the new epoch until the rollout settles.
                    match self.mix.generate_item(&mut generator, request_index as u64) {
                        WorkItem::Single(spec) => {
                            let query = spec_to_query(&spec);
                            let start = Instant::now();
                            sharded_with_refresh(&mut client, &mut outcome, |client| {
                                client.query_verified(&query).map(drop)
                            })?;
                            outcome.latencies_micros.push(elapsed_micros(start));
                            outcome.verified += 1;
                        }
                        WorkItem::Batch(specs) => {
                            let queries: Vec<Query> = specs.iter().map(spec_to_query).collect();
                            let start = Instant::now();
                            sharded_with_refresh(&mut client, &mut outcome, |client| {
                                client.batch_verified(&queries).map(drop)
                            })?;
                            outcome.batch_latencies_micros.push(elapsed_micros(start));
                            outcome.batches += 1;
                            outcome.batch_queries += queries.len();
                            outcome.verified += queries.len();
                        }
                    }
                }
                outcome.observability = Some(client.observability().clone());
                Ok(outcome)
            }
        }
    }

    /// Drives one thread's connection fan-out in waves: each wave sends one
    /// tagged request on every connection (at most one in flight per
    /// simulated user), then gathers the responses by correlation tag —
    /// exercising the service's out-of-order multiplexed completion under
    /// thousands of concurrent sockets. Latency is measured per request
    /// from its own send to its own gather.
    fn drive_waves(
        &self,
        generator: &mut QueryGenerator,
        conns: &mut [ServiceClient],
        outcome: &mut ClientOutcome,
    ) -> Result<(), ServiceError> {
        let fan_out = conns.len();
        let mut index = 0usize;
        while index < self.requests_per_client {
            let wave = fan_out.min(self.requests_per_client - index);
            let mut in_flight = Vec::with_capacity(wave);
            for offset in 0..wave {
                let item = self.mix.generate_item(generator, (index + offset) as u64);
                let conn = (index + offset) % fan_out;
                let started = Instant::now();
                let (request, item) = match item {
                    WorkItem::Single(spec) => {
                        let query = spec_to_query(&spec);
                        (Request::Query(query.clone()), WaveItem::Single(query))
                    }
                    WorkItem::Batch(specs) => {
                        let queries: Vec<Query> = specs.iter().map(spec_to_query).collect();
                        (Request::Batch(queries.clone()), WaveItem::Batch(queries))
                    }
                };
                let tag = conns[conn].send_tagged(&request)?;
                in_flight.push((conn, tag, started, item));
            }
            for (conn, tag, started, item) in in_flight {
                match (conns[conn].receive_tagged(tag)?, item) {
                    (Response::Query { response, .. }, WaveItem::Single(query)) => {
                        outcome.latencies_micros.push(elapsed_micros(started));
                        self.verify_one(&query, &response, outcome);
                    }
                    (Response::Batch { responses, .. }, WaveItem::Batch(queries)) => {
                        check_batch_arity(queries.len(), &responses)?;
                        outcome.batch_latencies_micros.push(elapsed_micros(started));
                        outcome.batches += 1;
                        outcome.batch_queries += queries.len();
                        for (query, response) in queries.iter().zip(&responses) {
                            self.verify_one(query, response, outcome);
                        }
                    }
                    (other, _) => return Err(unexpected(&other)),
                }
            }
            index += wave;
        }
        Ok(())
    }

    /// Verifies one response against the published template and key when
    /// verification is configured, recording the outcome.
    fn verify_one(
        &self,
        query: &Query,
        response: &vaq_authquery::QueryResponse,
        outcome: &mut ClientOutcome,
    ) {
        if let Some((template, public_key)) = &self.verify {
            match vaq_authquery::client::verify(
                query,
                &response.records,
                &response.vo,
                template,
                public_key as &dyn Verifier,
            ) {
                Ok(_) => outcome.verified += 1,
                Err(_) => outcome.failures += 1,
            }
        }
    }
}

/// One wave member awaiting its gather: what was asked, for verification.
enum WaveItem {
    Single(Query),
    Batch(Vec<Query>),
}

/// Elapsed wall-clock microseconds since `start`, saturated into `u64`.
fn elapsed_micros(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Connects to a sharded deployment riding update churn: a stale-epoch
/// handshake rejection means the owner republished between the publication
/// snapshot this run was configured with and the connect — exactly the race
/// the mid-run refresh machinery already rides, except no client exists yet
/// to call [`ShardedClient::refresh`] on. Fetch the current signed map from
/// the attested addresses instead, verify it under the same master key,
/// adopt it only if it is strictly newer (the same rollback gate
/// [`ShardedClient::adopt_map`] enforces), and reconnect at the served
/// epoch, bounded like the per-query retries.
fn sharded_connect_with_refresh(
    addrs: &[SocketAddr],
    publication: &ShardedPublication,
    outcome: &mut ClientOutcome,
) -> Result<ShardedClient, ServiceError> {
    let mut publication = publication.clone();
    let mut stale_retries = 0usize;
    loop {
        match ShardedClient::connect(addrs, &publication) {
            Ok(client) => return Ok(client),
            Err(e) if e.is_stale_epoch() && stale_retries < STALE_RETRY_LIMIT => {
                stale_retries += 1;
                if let Some(offered) = fetch_signed_map(addrs) {
                    let verified =
                        crate::partition::verify_shard_map(&offered, &publication.master_key)
                            .is_ok();
                    let current = publication.shard_map.map.epoch;
                    if verified && vaq_wire::epoch::advances(current, offered.map.epoch) {
                        publication.shard_map = offered;
                        outcome.epoch_refreshes += 1;
                    }
                }
                // A rollout flips shards one at a time; give it a moment
                // before re-handshaking.
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Best-effort fetch of the deployment's current signed shard map from any
/// of the serving addresses; `None` when no address answers.
fn fetch_signed_map(addrs: &[SocketAddr]) -> Option<vaq_wire::SignedShardMap> {
    for addr in addrs {
        if let Ok(map) = ServiceClient::connect(*addr).and_then(|mut c| c.shard_map()) {
            return Some(map);
        }
    }
    None
}

/// Runs one sharded call, riding update churn: typed stale-epoch rejections
/// trigger a signed-map re-fetch and a bounded retry at the new epoch —
/// identical machinery for single queries and batches.
fn sharded_with_refresh(
    client: &mut ShardedClient,
    outcome: &mut ClientOutcome,
    mut call: impl FnMut(&mut ShardedClient) -> Result<(), ServiceError>,
) -> Result<(), ServiceError> {
    let mut stale_retries = 0usize;
    loop {
        match call(client) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_stale_epoch() && stale_retries < STALE_RETRY_LIMIT => {
                stale_retries += 1;
                if client.refresh().is_ok() {
                    outcome.epoch_refreshes += 1;
                }
                // A rollout flips shards one at a time; give it a moment
                // before re-pinning.
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

/// How many consecutive stale-epoch rejections one query tolerates before
/// the run fails. A rollout flips each shard once, so convergence needs at
/// most a handful of refresh cycles; a bound keeps a wedged deployment from
/// spinning forever.
const STALE_RETRY_LIMIT: usize = 200;

/// Connection-ramp shape for a [`LoadConfig::connections_per_client`]
/// fan-out: each generator thread dials this many sockets back-to-back,
/// then pauses [`CONNECT_RAMP_PAUSE`] before the next chunk. Measured on a
/// single-core box, an unpaced 4×1280 storm overflowed the listen backlog
/// into dozens of ~1s SYN-retransmit stalls (25s+ to connect the fleet);
/// this ramp connects the same fleet in ~2s with at most a handful.
const CONNECT_RAMP_CHUNK: usize = 64;

/// See [`CONNECT_RAMP_CHUNK`].
const CONNECT_RAMP_PAUSE: Duration = Duration::from_millis(2);

#[derive(Default)]
struct ClientOutcome {
    latencies_micros: Vec<u64>,
    batch_latencies_micros: Vec<u64>,
    verified: usize,
    failures: usize,
    epoch_refreshes: usize,
    batches: usize,
    batch_queries: usize,
    /// The sharded client's accumulated observability (None on the single
    /// target, whose client keeps no scatter-side counters).
    observability: Option<ClientObservability>,
}

/// Aggregate results of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Client threads that ran.
    pub clients: usize,
    /// Total requests issued (single queries plus batch requests — a batch
    /// counts once however many queries it carries).
    pub total_requests: usize,
    /// Responses that passed cryptographic verification (each batch member
    /// counts individually).
    pub verified: usize,
    /// Responses that failed verification.
    pub failures: usize,
    /// Shard-map refreshes performed after stale-epoch rejections (update
    /// churn observed and survived mid-run).
    pub epoch_refreshes: usize,
    /// Batch requests issued.
    pub batches: usize,
    /// Queries carried inside batch requests.
    pub batch_queries: usize,
    /// Failover activations across all sharded clients: scatter legs that
    /// were retried against an attested standby address (0 on single
    /// targets).
    pub failovers: u64,
    /// Scatter legs rejected with a typed stale-epoch error across all
    /// sharded clients (0 on single targets).
    pub stale_rejections: u64,
    /// Scatter legs completed across all sharded clients and shards (0 on
    /// single targets).
    pub scatter_legs: u64,
    /// Summed scatter-leg wall-clock, in microseconds.
    pub scatter_leg_total_micros: u64,
    /// Slowest single scatter leg observed by any client, in microseconds.
    pub scatter_leg_max_micros: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Sorted single-query request latencies in microseconds.
    pub latencies_micros: Vec<u64>,
    /// Sorted per-batch request latencies in microseconds (one observation
    /// per batch, not per member).
    pub batch_latencies_micros: Vec<u64>,
}

impl LoadReport {
    /// Total queries answered: single requests plus every batch member —
    /// the unit cryptographic verification and server-side processing are
    /// paid in, regardless of how queries were framed into requests.
    fn total_queries(&self) -> usize {
        (self.total_requests - self.batches) + self.batch_queries
    }

    /// Aggregate throughput in queries per second (batch members count
    /// individually, so batched and unbatched runs compare like for like).
    pub fn throughput_qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_queries() as f64 / self.elapsed.as_secs_f64()
    }

    /// The single-query latency at a quantile in `[0, 1]`, in microseconds.
    ///
    /// Uses the standard nearest-rank definition: the value at 1-based rank
    /// `ceil(q * n)`, so p50 of `[10, 20, 30, 40]` is 20 (the smallest value
    /// at or above which at least 50% of the observations lie), and p100 is
    /// the maximum.
    pub fn latency_quantile_micros(&self, quantile: f64) -> u64 {
        quantile_micros(&self.latencies_micros, quantile)
    }

    /// The per-batch latency at a quantile in `[0, 1]`, in microseconds
    /// (same nearest-rank definition over the batch observations).
    fn batch_latency_quantile_micros(&self, quantile: f64) -> u64 {
        quantile_micros(&self.batch_latencies_micros, quantile)
    }

    /// Mean scatter-leg latency across all sharded clients, in microseconds
    /// (0 when the run drove a single target).
    fn scatter_leg_mean_micros(&self) -> u64 {
        self.scatter_leg_total_micros
            .checked_div(self.scatter_legs)
            .unwrap_or(0)
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} clients x {} reqs: {:.0} qps, p50 {}us, p95 {}us, p99 {}us, max {}us, {} verified",
            self.clients,
            self.total_requests.checked_div(self.clients).unwrap_or(0),
            self.throughput_qps(),
            self.latency_quantile_micros(0.50),
            self.latency_quantile_micros(0.95),
            self.latency_quantile_micros(0.99),
            self.latencies_micros.last().copied().unwrap_or(0),
            self.verified,
        );
        if self.batches > 0 {
            line.push_str(&format!(
                "; {} batches ({} queries), batch p50 {}us p99 {}us",
                self.batches,
                self.batch_queries,
                self.batch_latency_quantile_micros(0.50),
                self.batch_latency_quantile_micros(0.99),
            ));
        }
        if self.scatter_legs > 0 {
            line.push_str(&format!(
                "; {} scatter legs (mean {}us, max {}us), {} failovers, {} stale rejections",
                self.scatter_legs,
                self.scatter_leg_mean_micros(),
                self.scatter_leg_max_micros,
                self.failovers,
                self.stale_rejections,
            ));
        }
        line
    }
}

/// Nearest-rank quantile over a sorted latency list (0 when empty).
fn quantile_micros(sorted: &[u64], quantile: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let quantile = quantile.clamp(0.0, 1.0);
    let rank = (quantile * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_throughput_from_known_latencies() {
        let report = LoadReport {
            clients: 2,
            total_requests: 4,
            verified: 4,
            failures: 0,
            epoch_refreshes: 0,
            batches: 0,
            batch_queries: 0,
            failovers: 0,
            stale_rejections: 0,
            scatter_legs: 0,
            scatter_leg_total_micros: 0,
            scatter_leg_max_micros: 0,
            elapsed: Duration::from_secs(2),
            latencies_micros: vec![10, 20, 30, 40],
            batch_latencies_micros: vec![],
        };
        assert_eq!(report.throughput_qps(), 2.0);
        assert_eq!(report.latency_quantile_micros(0.0), 10);
        assert_eq!(report.latency_quantile_micros(1.0), 40);
        // Standard nearest-rank: p50 of 4 observations is the value at
        // 1-based rank ceil(0.5 * 4) = 2.
        assert_eq!(report.latency_quantile_micros(0.5), 20);
        assert_eq!(report.latency_quantile_micros(0.75), 30);
        assert_eq!(report.latency_quantile_micros(0.76), 40);
        assert!(report.summary().contains("verified"));
        // No batches in the mix: the summary stays in its historical shape.
        assert!(!report.summary().contains("batches"));
    }

    #[test]
    fn batch_quantiles_and_summary_report_batches() {
        let report = LoadReport {
            clients: 1,
            total_requests: 6,
            verified: 12,
            failures: 0,
            epoch_refreshes: 0,
            batches: 2,
            batch_queries: 8,
            failovers: 0,
            stale_rejections: 0,
            scatter_legs: 0,
            scatter_leg_total_micros: 0,
            scatter_leg_max_micros: 0,
            elapsed: Duration::from_secs(1),
            latencies_micros: vec![10, 20, 30, 40],
            batch_latencies_micros: vec![100, 300],
        };
        assert_eq!(report.batch_latency_quantile_micros(0.5), 100);
        assert_eq!(report.batch_latency_quantile_micros(1.0), 300);
        // Throughput counts every batch member: 4 singles + 8 batched
        // queries over 1 second.
        assert_eq!(report.total_queries(), 12);
        assert_eq!(report.throughput_qps(), 12.0);
        let summary = report.summary();
        assert!(summary.contains("2 batches (8 queries)"), "{summary}");
    }

    #[test]
    fn empty_report_is_harmless() {
        let report = LoadReport {
            clients: 1,
            total_requests: 0,
            verified: 0,
            failures: 0,
            epoch_refreshes: 0,
            batches: 0,
            batch_queries: 0,
            failovers: 0,
            stale_rejections: 0,
            scatter_legs: 0,
            scatter_leg_total_micros: 0,
            scatter_leg_max_micros: 0,
            elapsed: Duration::ZERO,
            latencies_micros: vec![],
            batch_latencies_micros: vec![],
        };
        assert_eq!(report.throughput_qps(), 0.0);
        assert_eq!(report.latency_quantile_micros(0.99), 0);
        assert_eq!(report.batch_latency_quantile_micros(0.99), 0);
    }

    #[test]
    fn spec_conversion_preserves_parameters() {
        let spec = QuerySpec::Range {
            weights: vec![0.25, 0.75],
            lower: 0.1,
            upper: 0.6,
        };
        let query = spec_to_query(&spec);
        assert_eq!(query, Query::range(vec![0.25, 0.75], 0.1, 0.6));
    }
}
