//! Sharded deployment tier: scatter-gather querying over disjoint shards,
//! with epoch-versioned live republication.
//!
//! One logical dataset is split by the owner into `S` disjoint shards (see
//! [`crate::partition`]), each hosted by its own [`QueryService`] over its
//! own authenticated structure and per-shard signing key. A
//! [`ShardedClient`] scatters every query to all shards, cryptographically
//! verifies each per-shard response via [`vaq_authquery::client::verify`]
//! under that shard's attested key, and merges the per-shard answers into
//! the logical answer.
//!
//! # Why the merged answer is sound and complete
//!
//! * Every per-shard response is verified sound and complete *within its
//!   shard* by the paper's protocol.
//! * The owner's [`SignedShardMap`] attests the exact shard count, each
//!   shard's record count and each shard's verification key — so no shard
//!   can be dropped (the client refuses to answer unless all `S` shards
//!   respond and verify) and no shard can impersonate another (its response
//!   would not verify under the per-shard key).
//! * The merge applies the *same* window-selection logic a single server
//!   uses ([`Query::select_window`]) to the score-sorted union of the
//!   per-shard results. For top-k and KNN, each shard returns its local
//!   top-k / k-nearest, a superset of the global answer's members from that
//!   shard; for range, each shard returns exactly its in-range records.
//!   Hence the union contains the logical answer, and selecting over it
//!   reproduces exactly what one server hosting all records would return.
//!
//! # Live updates: epochs
//!
//! The attested map carries a monotonically increasing **publication
//! epoch**, and every signature in every shard's authenticated structure is
//! bound to that epoch (see [`vaq_authquery::verify_at_epoch`]). A client
//! pins every scatter leg to its map's epoch
//! ([`vaq_wire::Request::QueryAt`]), so a merged answer can never mix
//! epochs across shards: a shard serving a different epoch answers with a
//! typed [`vaq_wire::ErrorCode::StaleEpoch`] error, the client re-fetches
//! the signed map over the wire ([`ShardedClient::refresh`]) and retries.
//! Refresh rejects rollback — a replayed older signed map can never replace
//! a newer one — and a replayed *response* from a superseded epoch fails
//! signature verification because its signatures bind the old epoch.
//!
//! Each shard is served from the one address its map entry attests. A dead
//! shard fails every query with a typed [`ServiceError::ShardFailed`] naming
//! it; there is no partial answer and no retry elsewhere.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use vaq_authquery::{client, IfmhTree, Query, QueryResponse, Server, SigningMode, VerifyScratch};
use vaq_crypto::{PublicKey, SignatureScheme};
use vaq_funcdb::{Dataset, FunctionTemplate, Record};
use vaq_wire::{Epoch, ShardEntry, SignedShardMap, StatsDeep, StatsSnapshot};

use crate::client::{check_served_epoch, ServiceClient, PIPELINE_WINDOW};
use crate::config::{ServiceConfig, ShardRole};
use crate::error::ServiceError;
use crate::partition::{
    attest_shard_map, partition_dataset, unpartitionable, verify_shard_map, PartitionStrategy,
};
use crate::server::QueryService;

/// Everything a data user needs to query and verify a sharded deployment:
/// the attested shard map, the owner's master public key and the shared
/// function template. Published out of band, like the paper's
/// [`vaq_authquery::PublishedMetadata`].
#[derive(Clone, Debug)]
pub struct ShardedPublication {
    /// The owner-signed partition description (carries the epoch and each
    /// shard's serving address).
    pub shard_map: SignedShardMap,
    /// The owner's master public key (verifies the shard map itself).
    pub master_key: PublicKey,
    /// The utility-function template shared by every shard.
    pub template: FunctionTemplate,
}

/// An owner-launched sharded deployment: `S` [`QueryService`]s, each hosting
/// one disjoint shard of one logical dataset under its own signing key, plus
/// the attested shard map clients verify against.
///
/// In production the services would run on separate hosts; this harness
/// wires the same objects up in one process, which is exactly what the
/// integration suite and the benchmark's `sharded_churn` workload need —
/// the wire protocol, verification and merge paths are identical either
/// way.
pub struct ShardedDeployment {
    /// `None` marks a shard stopped via [`ShardedDeployment::stop_shard`];
    /// indices stay aligned with shard ids and [`ShardedDeployment::addrs`].
    services: Vec<Option<QueryService>>,
    /// Service addresses, in shard-id order — the ones the attested map
    /// carries.
    addrs: Vec<SocketAddr>,
    /// Per-shard signing keys, kept so a republication re-signs each shard
    /// under the same attested key.
    schemes: Vec<SignatureScheme>,
    /// The owner's master key, kept to re-sign the map at each epoch.
    master: SignatureScheme,
    mode: SigningMode,
    epoch: Epoch,
    publication: ShardedPublication,
}

impl std::fmt::Debug for ShardedDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDeployment")
            .field("shards", &self.services.len())
            .field("epoch", &self.epoch)
            .field("addrs", &self.addrs)
            .finish()
    }
}

impl ShardedDeployment {
    /// Partitions `dataset` round-robin into `shard_count` shards, builds an
    /// IFMH-tree per shard under a fresh per-shard RSA key (derived from
    /// `seed`), signs the shard map with a fresh master key, and binds one
    /// [`QueryService`] per shard using `base_config` (whose bind address
    /// must carry port 0 so every shard gets its own ephemeral port).
    ///
    /// Zero shards, fewer records than shards, record ids that are not
    /// strictly increasing and a fixed port under more than one shard are
    /// typed [`std::io::ErrorKind::InvalidInput`] errors.
    pub fn launch(
        dataset: &Dataset,
        shard_count: usize,
        mode: SigningMode,
        seed: u64,
        base_config: ServiceConfig,
    ) -> Result<ShardedDeployment, ServiceError> {
        if let Some(reason) = unpartitionable(dataset, shard_count) {
            return Err(invalid_input(reason));
        }
        if shard_count > 1 && base_config.bind_addr.port() != 0 {
            let reason = "a multi-service deployment needs an ephemeral bind port (port 0)";
            return Err(invalid_input(reason.into()));
        }
        let shards = partition_dataset(dataset, shard_count, PartitionStrategy::RoundRobin);
        // Distinct keys per shard: a compromised shard cannot answer with
        // another shard's validly signed data, because the client verifies
        // shard i's responses under shard i's attested key.
        let schemes: Vec<SignatureScheme> = (0..shard_count)
            .map(|i| SignatureScheme::new_rsa(128, seed.wrapping_add(1 + i as u64)))
            .collect();
        let master = SignatureScheme::new_rsa(128, seed);
        let epoch = Epoch::new(0);

        let mut services = Vec::with_capacity(shard_count);
        let mut addrs = Vec::with_capacity(shard_count);
        for (shard_id, (shard_dataset, scheme)) in shards.iter().zip(&schemes).enumerate() {
            let role = ShardRole {
                shard_id: shard_id as u32,
                shard_count: shard_count as u32,
            };
            let tree = IfmhTree::build_at_epoch(shard_dataset, mode, scheme, epoch.get());
            let config = base_config.clone().shard_role(role);
            let service = QueryService::bind(config, Server::new(shard_dataset.clone(), tree))?;
            addrs.push(service.local_addr());
            services.push(Some(service));
        }

        let keys: Vec<PublicKey> = schemes.iter().map(|s| s.public_key()).collect();
        let shard_map = attest_shard_map(&shards, &keys, &master, epoch.get(), &addrs);
        let publication = ShardedPublication {
            shard_map: shard_map.clone(),
            master_key: master.public_key(),
            template: dataset.template.clone(),
        };
        let deployment = ShardedDeployment {
            services,
            addrs,
            schemes,
            master,
            mode,
            epoch,
            publication,
        };
        deployment.push_shard_map(&shard_map)?;
        Ok(deployment)
    }

    /// Hands the current signed map to every live service so clients can
    /// re-fetch it over the wire ([`vaq_wire::Request::ShardMap`]).
    fn push_shard_map(&self, map: &SignedShardMap) -> Result<(), ServiceError> {
        for service in self.services.iter().flatten() {
            service.set_shard_map(map.clone())?;
        }
        Ok(())
    }

    /// Republishes the logical dataset: re-partitions `dataset`, rebuilds
    /// every shard's authenticated structure **at the next epoch** under
    /// the same per-shard keys, re-signs the shard map with the master key,
    /// and hot-swaps every live service without dropping a connection.
    ///
    /// Services flip one at a time, so a scatter pinned to either epoch can
    /// transiently observe a mix of old- and new-epoch shards; the
    /// epoch-pinned protocol turns that into typed
    /// [`vaq_wire::ErrorCode::StaleEpoch`] rejections (never a mixed-epoch
    /// merge), and clients converge by re-fetching the map. Returns the new
    /// epoch. A dataset `launch` refuses is refused the same way, with the
    /// epoch and every shard left as they were.
    pub fn republish(&mut self, dataset: &Dataset) -> Result<Epoch, ServiceError> {
        if let Some(reason) = unpartitionable(dataset, self.services.len()) {
            return Err(invalid_input(reason));
        }
        let epoch = self.epoch.next();
        let shards = partition_dataset(dataset, self.services.len(), PartitionStrategy::RoundRobin);
        let keys: Vec<PublicKey> = self.schemes.iter().map(|s| s.public_key()).collect();
        let shard_map = attest_shard_map(&shards, &keys, &self.master, epoch.get(), &self.addrs);

        let live = self.services.iter().zip(&shards).zip(&self.schemes);
        for ((service, shard_dataset), scheme) in live {
            if let Some(service) = service {
                let tree = IfmhTree::build_at_epoch(shard_dataset, self.mode, scheme, epoch.get());
                service.republish(Server::new(shard_dataset.clone(), tree))?;
            }
        }
        self.push_shard_map(&shard_map)?;
        self.epoch = epoch;
        self.publication.shard_map = shard_map;
        self.publication.template = dataset.template.clone();
        Ok(epoch)
    }

    /// The addresses the shards listen on, in shard-id order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.services.len()
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The verification material a data user needs (shard map, master key,
    /// template).
    pub fn publication(&self) -> &ShardedPublication {
        &self.publication
    }

    /// Connects a verifying scatter-gather client to this deployment.
    pub fn client(&self) -> Result<ShardedClient, ServiceError> {
        ShardedClient::connect(&self.addrs, &self.publication)
    }

    /// Per-shard deep stats for the shards still running, in shard-id
    /// order.
    pub fn stats_deep(&self) -> Vec<StatsDeep> {
        self.services
            .iter()
            .flatten()
            .map(|s| s.stats_deep())
            .collect()
    }

    /// Shuts down one shard's service (simulating a shard outage: every
    /// later query fails with [`ServiceError::ShardFailed`]) and returns its
    /// final stats, or `None` when `shard_id` is out of range or the shard
    /// is already down.
    pub fn stop_shard(&mut self, shard_id: usize) -> Option<StatsSnapshot> {
        let service = self.services.get_mut(shard_id)?.take()?;
        Some(service.shutdown())
    }

    /// Stops every still-running service and returns their final stats in
    /// shard-id order.
    pub fn shutdown(self) -> Vec<StatsSnapshot> {
        self.services
            .into_iter()
            .flatten()
            .map(|s| s.shutdown())
            .collect()
    }
}

fn invalid_input(reason: String) -> ServiceError {
    let kind = std::io::ErrorKind::InvalidInput;
    ServiceError::Io(std::io::Error::new(kind, reason))
}

/// One shard connection plus its attested identity.
struct ShardConnection {
    entry: ShardEntry,
    client: ServiceClient,
}

/// Per-shard scatter-leg latency accumulator: how many legs this shard
/// answered, their summed wall-clock micros and the slowest single leg.
/// Timed from the gather-side read to the verified interpretation, so a
/// shard that straggles shows up here even when every merged answer
/// succeeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LegLatency {
    /// Scatter legs this shard completed (successfully or not).
    pub legs: u64,
    /// Summed leg wall-clock, in microseconds.
    pub total_micros: u64,
    /// Slowest single leg, in microseconds.
    pub max_micros: u64,
}

impl LegLatency {
    fn record(&mut self, micros: u64) {
        self.legs += 1;
        self.total_micros += micros;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Mean leg latency in microseconds (0 before any leg completed).
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.legs).unwrap_or(0)
    }
}

/// Client-side observability for a [`ShardedClient`]: what the scatter side
/// of the deployment looked like from this client's seat. Server-side stats
/// ([`ShardedClient::stats_deep_all`]) say what each shard did; these
/// counters say what the *client* experienced — straggling legs and update
/// churn — which no single server can see.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientObservability {
    /// Scatter rounds issued (one per query or batch, counting retries).
    pub scatters: u64,
    /// Per-shard scatter-leg latency, in shard-id order.
    pub leg_latency: Vec<LegLatency>,
    /// Always 0: a dead scatter leg fails the query, and there is no other
    /// address to retry it on. Kept so readers of the counter still build.
    pub failovers: u64,
    /// Scatter legs rejected with a typed stale-epoch error (the deployment
    /// republished under this client's pinned epoch).
    pub stale_rejections: u64,
    /// Signed-map refreshes that actually adopted a newer epoch.
    pub map_refreshes: u64,
}

impl ClientObservability {
    fn leg(&mut self, shard: usize) -> &mut LegLatency {
        if self.leg_latency.len() <= shard {
            self.leg_latency.resize(shard + 1, LegLatency::default());
        }
        &mut self.leg_latency[shard]
    }

    /// The slowest single scatter leg observed on any shard, in micros.
    pub fn max_leg_micros(&self) -> u64 {
        self.leg_latency
            .iter()
            .map(|l| l.max_micros)
            .max()
            .unwrap_or(0)
    }
}

/// The merged, fully verified answer to one sharded query.
#[derive(Clone, Debug)]
pub struct ShardedResponse {
    /// Result records in ascending score order — the same order (and for
    /// datasets with in-order record ids, the same bytes) a single server
    /// hosting the whole dataset would return.
    pub records: Vec<Record>,
    /// The verified score of each result record, in result order.
    pub scores: Vec<f64>,
    /// How many records each shard contributed to the candidate set (not
    /// the final answer), in shard-id order.
    pub per_shard_returned: Vec<usize>,
}

/// How long a connect to a shard's address may take.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// A verifying scatter-gather front-end over a sharded deployment.
///
/// Holds one [`ServiceClient`] per shard. Every query is pinned to the
/// client's verified map epoch and sent to all shards (pipelined: all
/// requests go out before the first response is read), each response is
/// verified under that shard's attested key **at that epoch**, and the
/// verified per-shard answers are merged. A shard failure fails the whole
/// query with a typed [`ServiceError::ShardFailed`] — there are never
/// silent partial answers. A typed stale-epoch rejection (the deployment
/// republished) is surfaced so the caller can [`ShardedClient::refresh`]
/// and retry at the new epoch.
pub struct ShardedClient {
    shards: Vec<ShardConnection>,
    template: FunctionTemplate,
    master_key: PublicKey,
    total_records: u64,
    epoch: Epoch,
    obs: ClientObservability,
}

impl std::fmt::Debug for ShardedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedClient")
            .field("shards", &self.shards.len())
            .field("total_records", &self.total_records)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// Opens one shard connection and handshakes its identity — shard id,
/// deployment size, record count **and serving epoch** — against the
/// verified map.
fn open_shard_connection(
    addr: SocketAddr,
    entry: &ShardEntry,
    shard_count: u32,
    epoch: u64,
) -> Result<ShardConnection, ServiceError> {
    let mut client = ServiceClient::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    let info = client.shard_info()?;
    if info.shard_id != entry.shard_id
        || info.shard_count != shard_count
        || info.records != entry.records
    {
        return Err(ServiceError::ShardMap(format!(
            "{addr} reports shard {}/{} with {} records, map attests shard {}/{} with {}",
            info.shard_id,
            info.shard_count,
            info.records,
            entry.shard_id,
            shard_count,
            entry.records
        )));
    }
    check_served_epoch(epoch, info.epoch)?;
    Ok(ShardConnection {
        entry: entry.clone(),
        client,
    })
}

/// The address a map entry attests for its shard. A signed map is
/// attacker-shaped input, so an entry with no usable address is a typed
/// error, never an unchecked assumption.
fn entry_addr(entry: &ShardEntry) -> Result<SocketAddr, ServiceError> {
    entry.addr.parse().map_err(|_| {
        ServiceError::ShardMap(format!(
            "map entry for shard {} has no usable address: {:?}",
            entry.shard_id, entry.addr
        ))
    })
}

/// Opens and handshakes the connection to the address `entry` attests.
fn connect_entry(
    entry: &ShardEntry,
    shard_count: u32,
    epoch: u64,
) -> Result<ShardConnection, ServiceError> {
    open_shard_connection(entry_addr(entry)?, entry, shard_count, epoch)
        .map_err(|e| shard_failed(entry.shard_id, e))
}

impl ShardedClient {
    /// Verifies the published shard map, connects to every shard and
    /// handshakes each connection's shard identity (including the serving
    /// epoch) against the map.
    ///
    /// `addrs[i]` must host the shard the map lists as shard `i`; a
    /// mismatch (wrong shard id, wrong deployment size, wrong record count,
    /// wrong epoch) is rejected with a typed error before any query runs.
    pub fn connect(
        addrs: &[SocketAddr],
        publication: &ShardedPublication,
    ) -> Result<ShardedClient, ServiceError> {
        verify_shard_map(&publication.shard_map, &publication.master_key)?;
        let map = &publication.shard_map.map;
        if addrs.len() != map.shards.len() {
            return Err(ServiceError::ShardMap(format!(
                "{} addresses for {} attested shards",
                addrs.len(),
                map.shards.len()
            )));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        for (entry, addr) in map.shards.iter().zip(addrs) {
            let connection = open_shard_connection(*addr, entry, map.shard_count, map.epoch)
                .map_err(|e| shard_failed(entry.shard_id, e))?;
            shards.push(connection);
        }
        Ok(ShardedClient::over(shards, publication))
    }

    /// Connects using the serving address the attested map itself lists
    /// for each shard.
    pub fn connect_from_map(
        publication: &ShardedPublication,
    ) -> Result<ShardedClient, ServiceError> {
        verify_shard_map(&publication.shard_map, &publication.master_key)?;
        let map = &publication.shard_map.map;
        let shards = map
            .shards
            .iter()
            .map(|entry| connect_entry(entry, map.shard_count, map.epoch))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedClient::over(shards, publication))
    }

    /// A client over handshaken shard connections, pinned to the verified
    /// publication's epoch.
    fn over(shards: Vec<ShardConnection>, publication: &ShardedPublication) -> ShardedClient {
        let map = &publication.shard_map.map;
        ShardedClient {
            shards,
            template: publication.template.clone(),
            master_key: publication.master_key.clone(),
            total_records: map.total_records,
            epoch: Epoch::new(map.epoch),
            obs: ClientObservability::default(),
        }
    }

    /// Number of shards this client scatters to.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The publication epoch this client currently pins every query to.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Client-side observability accumulated since this client connected:
    /// per-shard scatter-leg latency, stale-epoch rejections and adopted map
    /// refreshes. Counters survive
    /// [`ShardedClient::refresh`] — adopting a new epoch reconnects the
    /// shards but keeps the client's history.
    pub fn observability(&self) -> &ClientObservability {
        &self.obs
    }

    /// Re-fetches the signed shard map over the wire and adopts it.
    ///
    /// Called after a typed stale-epoch rejection told the client the
    /// deployment republished. The offered map must verify under the same
    /// master key and must carry a **strictly newer** epoch than the one
    /// the client already verified — an older (replayed) signed map is
    /// rejected with [`ServiceError::StaleEpoch`], so a client can never be
    /// rolled back to a superseded publication. On success every shard
    /// connection is re-opened against the new map's addresses; returns
    /// the adopted epoch. A same-epoch offer leaves the client unchanged.
    pub fn refresh(&mut self) -> Result<Epoch, ServiceError> {
        let offered = self.fetch_map()?;
        self.adopt_map(offered)
    }

    /// Fetches the current signed map from any reachable shard.
    fn fetch_map(&mut self) -> Result<SignedShardMap, ServiceError> {
        let mut last_error: Option<ServiceError> = None;
        for shard in &mut self.shards {
            // Prefer the live connection; fall back to a fresh socket to the
            // attested address (the old connection may be desynced or dead).
            let attempt = shard.client.shard_map().or_else(|_| {
                ServiceClient::connect_timeout(&entry_addr(&shard.entry)?, CONNECT_TIMEOUT)?
                    .shard_map()
            });
            match attempt {
                Ok(map) => return Ok(map),
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.unwrap_or_else(|| {
            ServiceError::ShardMap("no shard connection to fetch the map from".into())
        }))
    }

    /// Verifies an offered signed map and, when it is strictly newer than
    /// the one this client already verified, reconnects every shard against
    /// it. This is the rollback gate: a map carrying an *older* epoch — a
    /// replayed earlier publication, however validly signed — is rejected
    /// with [`ServiceError::StaleEpoch`], and a same-epoch offer is a
    /// no-op. Used by [`ShardedClient::refresh`] for maps fetched over the
    /// wire, and callable directly for maps distributed out of band.
    pub fn adopt_map(&mut self, offered: SignedShardMap) -> Result<Epoch, ServiceError> {
        verify_shard_map(&offered, &self.master_key)?;
        let epoch = Epoch::new(offered.map.epoch);
        if epoch.rolls_back(self.epoch) {
            return Err(ServiceError::StaleEpoch {
                expected: self.epoch.get(),
                got: epoch.get(),
            });
        }
        if epoch == self.epoch {
            return Ok(epoch);
        }
        let map = &offered.map;
        self.shards = map
            .shards
            .iter()
            .map(|entry| connect_entry(entry, map.shard_count, map.epoch))
            .collect::<Result<Vec<_>, _>>()?;
        self.total_records = map.total_records;
        self.epoch = epoch;
        self.obs.map_refreshes += 1;
        Ok(self.epoch)
    }

    /// Scatters `query` to every shard pinned to the client's map epoch,
    /// verifies every per-shard response under its attested key at that
    /// epoch, and merges the results into the logical answer (ascending
    /// score order, exactly as a single server over the whole dataset would
    /// return). A dead scatter leg fails the query with
    /// [`ServiceError::ShardFailed`]. This is
    /// [`ShardedClient::batch_verified`] of one query.
    pub fn query_verified(&mut self, query: &Query) -> Result<ShardedResponse, ServiceError> {
        let mut merged = self.batch_verified(std::slice::from_ref(query))?;
        merged.pop().ok_or(ServiceError::UnexpectedResponse(
            "a scatter without an answer",
        ))
    }

    /// Scatters a batch of queries to every shard, each shard's leg a
    /// pipeline of [`vaq_wire::Request::QueryAt`] frames pinned at the
    /// client's map epoch, verifies every per-shard answer under that
    /// shard's attested key at that epoch, and merges each query's
    /// candidates — so each merged answer is byte-identical to what an
    /// unsharded [`ServiceClient::batch`] returns against a single server
    /// at the same epoch.
    ///
    /// Any failed leg fails the whole batch with
    /// [`ServiceError::ShardFailed`] — never a silent partial answer; a
    /// stale-epoch rejection inside it tells the caller to refresh the map
    /// and retry. An empty batch sends nothing and answers an empty list.
    pub fn batch_verified(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<ShardedResponse>, ServiceError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let per_shard = self.scatter_verified(queries)?;

        // Transpose shard-major into query-major (moving, not cloning, the
        // verified legs) and merge each query: candidate union, window
        // selection, disjointness and completeness checks.
        let mut per_query: Vec<Vec<VerifiedLeg>> = queries
            .iter()
            .map(|_| Vec::with_capacity(per_shard.len()))
            .collect();
        for shard_legs in per_shard {
            for (legs, leg) in per_query.iter_mut().zip(shard_legs) {
                legs.push(leg);
            }
        }
        queries
            .iter()
            .zip(per_query)
            .map(|(query, legs)| {
                let mut candidates: Vec<(f64, Record)> = Vec::new();
                let mut per_shard_returned = Vec::with_capacity(legs.len());
                for (records, scores) in legs {
                    per_shard_returned.push(records.len());
                    candidates.extend(scores.into_iter().zip(records));
                }
                merge(query, candidates, self.total_records, per_shard_returned)
            })
            .collect()
    }

    /// Scatters `queries` to every shard as pinned query frames — each
    /// window of [`PIPELINE_WINDOW`] goes out on every shard before the
    /// first reply is read, so the shards work at once — and gathers and
    /// verifies every leg. Returns each shard's verified answers in query
    /// order, shards in shard-id order, or the first leg failure as a typed
    /// [`ServiceError::ShardFailed`].
    ///
    /// Every in-flight reply is read even after a failure, so surviving
    /// connections stay request/response aligned for the next call.
    fn scatter_verified(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<Vec<VerifiedLeg>>, ServiceError> {
        self.obs.scatters += 1;
        let epoch = self.epoch.get();
        let mut legs: Vec<Result<Vec<VerifiedLeg>, ServiceError>> = self
            .shards
            .iter()
            .map(|_| Ok(Vec::with_capacity(queries.len())))
            .collect();
        let mut leg_time = vec![Duration::ZERO; self.shards.len()];
        for window in queries.chunks(PIPELINE_WINDOW) {
            // A failed send fails the leg; the gather skips it.
            for (shard, leg) in self.shards.iter_mut().zip(&mut legs) {
                if leg.is_ok() {
                    if let Err(e) = shard.client.send_queries(Some(epoch), window) {
                        *leg = Err(e);
                    }
                }
            }
            for ((shard, leg), time) in self.shards.iter_mut().zip(&mut legs).zip(&mut leg_time) {
                let started = Instant::now();
                if let Ok(verified) = leg {
                    let answers = shard.client.receive_queries(&mut Some(epoch), window.len());
                    match answers.and_then(|answers| {
                        verify_leg(window, answers, &self.template, &shard.entry, epoch)
                    }) {
                        Ok(window_legs) => verified.extend(window_legs),
                        Err(e) => *leg = Err(e),
                    }
                }
                *time += started.elapsed();
            }
        }

        let mut results = Vec::with_capacity(legs.len());
        let mut failure: Option<ServiceError> = None;
        for (i, (leg, time)) in legs.into_iter().zip(leg_time).enumerate() {
            // The leg spans receive-through-verify, so a straggling shard is
            // visible per shard id.
            self.obs
                .leg(i)
                .record(time.as_micros().min(u64::MAX as u128) as u64);
            match leg {
                Ok(result) => results.push(result),
                Err(e) => {
                    if e.is_stale_epoch() {
                        self.obs.stale_rejections += 1;
                    }
                    if failure.is_none() {
                        failure = Some(shard_failed(self.shards[i].entry.shard_id, e));
                    }
                }
            }
        }
        match failure {
            Some(error) => Err(error),
            None => Ok(results),
        }
    }

    /// Fetches every shard's deep stats (per-stage latency histograms,
    /// per-kind stage attribution, per-error counters, cache gauges), in
    /// shard-id order.
    pub fn stats_deep_all(&mut self) -> Result<Vec<StatsDeep>, ServiceError> {
        self.shards
            .iter_mut()
            .map(|shard| {
                shard
                    .client
                    .stats_deep()
                    .map_err(|e| shard_failed(shard.entry.shard_id, e))
            })
            .collect()
    }
}

/// One verified scatter leg's contribution to one query: the records a
/// shard returned, with their verified scores in record order.
type VerifiedLeg = (Vec<Record>, Vec<f64>);

/// Verifies one shard's answers to `queries` — each one's records + VO
/// under the shard's attested key, at the pinned epoch — and returns the
/// verified (records, scores) per query, in query order. The scatter's one
/// security-sensitive step, run through one [`VerifyScratch`] for the whole
/// leg. The answers come from [`ServiceClient::receive_queries`], which
/// returns one per query or fails.
fn verify_leg(
    queries: &[Query],
    answers: Vec<QueryResponse>,
    template: &FunctionTemplate,
    entry: &ShardEntry,
    epoch: u64,
) -> Result<Vec<VerifiedLeg>, ServiceError> {
    let mut scratch = VerifyScratch::default();
    queries
        .iter()
        .zip(answers)
        .map(|(query, answer)| {
            let verified = client::verify_at_epoch_with_scratch(
                query,
                &answer.records,
                &answer.vo,
                template,
                &entry.public_key,
                epoch,
                &mut scratch,
            )?;
            Ok((answer.records, verified.scores))
        })
        .collect()
}

fn shard_failed(shard_id: u32, error: ServiceError) -> ServiceError {
    ServiceError::ShardFailed {
        shard_id,
        error: Box::new(error),
    }
}

/// Merges verified per-shard candidates into the logical answer by sorting
/// the union in ascending (score, record id) order — the same total order a
/// single server's authenticated list uses — and applying the query's own
/// window selection to it.
fn merge(
    query: &Query,
    mut candidates: Vec<(f64, Record)>,
    total_records: u64,
    per_shard_returned: Vec<usize>,
) -> Result<ShardedResponse, ServiceError> {
    candidates.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.id.cmp(&b.1.id))
    });

    // Disjointness check: the attested map promises each record lives on
    // exactly one shard, so a duplicate id means a shard served data that is
    // not its own.
    let mut seen = HashSet::with_capacity(candidates.len());
    for (_, record) in &candidates {
        if !seen.insert(record.id) {
            return Err(ServiceError::ShardMap(format!(
                "record {} returned by more than one shard — shards are not disjoint",
                record.id
            )));
        }
    }

    let all_scores: Vec<f64> = candidates.iter().map(|c| c.0).collect();
    let (records, scores) = match query.select_window(&all_scores) {
        Some((start, end)) => (
            candidates[start..=end]
                .iter()
                .map(|c| c.1.clone())
                .collect(),
            all_scores[start..=end].to_vec(),
        ),
        None => (Vec::new(), Vec::new()),
    };

    // Length sanity against the *attested* dataset size: each shard returned
    // a verified min(k, n_shard) records, so the merged top-k/KNN answer
    // must hold exactly min(k, n_total). Anything else means the map and the
    // shard contents disagree.
    let expected = match query {
        Query::TopK { k, .. } | Query::Knn { k, .. } => (*k).min(total_records as usize),
        Query::Range { .. } => records.len(),
    };
    if records.len() != expected {
        return Err(ServiceError::ShardMap(format!(
            "merged answer holds {} records, the attested shard map implies {expected}",
            records.len()
        )));
    }

    Ok(ShardedResponse {
        records,
        scores,
        per_shard_returned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> Record {
        Record::new(id, vec![0.0])
    }

    #[test]
    fn merge_topk_selects_global_best_in_ascending_order() {
        // Shard A returned scores [0.9, 0.7], shard B [0.8, 0.2].
        let candidates = vec![
            (0.7, record(1)),
            (0.9, record(3)),
            (0.2, record(0)),
            (0.8, record(2)),
        ];
        let query = Query::top_k(vec![0.0], 2);
        let merged = merge(&query, candidates, 10, vec![2, 2]).unwrap();
        assert_eq!(merged.scores, vec![0.8, 0.9]);
        assert_eq!(
            merged.records.iter().map(|r| r.id).collect::<Vec<_>>(),
            [2, 3]
        );
    }

    #[test]
    fn merge_range_concatenates_in_score_order() {
        let candidates = vec![(0.5, record(5)), (0.3, record(1)), (0.4, record(9))];
        let query = Query::range(vec![0.0], 0.0, 1.0);
        let merged = merge(&query, candidates, 10, vec![3]).unwrap();
        assert_eq!(merged.scores, vec![0.3, 0.4, 0.5]);
        assert_eq!(merged.records.len(), 3);
    }

    #[test]
    fn merge_knn_reranks_by_distance_to_target() {
        let candidates = vec![
            (0.1, record(0)),
            (0.45, record(1)),
            (0.55, record(2)),
            (0.95, record(3)),
        ];
        let query = Query::knn(vec![0.0], 2, 0.5);
        let merged = merge(&query, candidates, 4, vec![2, 2]).unwrap();
        assert_eq!(merged.scores, vec![0.45, 0.55]);
    }

    #[test]
    fn merge_rejects_duplicate_records_across_shards() {
        let candidates = vec![(0.1, record(7)), (0.2, record(7))];
        let query = Query::range(vec![0.0], 0.0, 1.0);
        assert!(matches!(
            merge(&query, candidates, 4, vec![1, 1]),
            Err(ServiceError::ShardMap(_))
        ));
    }

    #[test]
    fn merge_rejects_short_topk_answers() {
        // The attested map says 10 records exist, so top-3 must return 3.
        let candidates = vec![(0.1, record(0)), (0.2, record(1))];
        let query = Query::top_k(vec![0.0], 3);
        assert!(matches!(
            merge(&query, candidates, 10, vec![1, 1]),
            Err(ServiceError::ShardMap(_))
        ));
    }

    #[test]
    fn merge_breaks_score_ties_by_record_id() {
        let candidates = vec![(0.5, record(9)), (0.5, record(2)), (0.5, record(4))];
        let query = Query::range(vec![0.0], 0.0, 1.0);
        let merged = merge(&query, candidates, 3, vec![3]).unwrap();
        assert_eq!(
            merged.records.iter().map(|r| r.id).collect::<Vec<_>>(),
            [2, 4, 9]
        );
    }
}
