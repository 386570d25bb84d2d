//! A concurrent networked query service over the VAQ1 wire protocol.
//!
//! The paper's system model is three-party: a data **owner** outsources a
//! function database to an untrusted **server**, and data **users** issue
//! analytic queries whose results they verify cryptographically. The other
//! crates implement that protocol in-process; this crate puts the real
//! network boundary in, std-only:
//!
//! * [`QueryService`] — binds a TCP listener and shares it between
//!   [`ServiceConfig::workers`] evented reactor threads, each answering its
//!   own connections: a reactor accepts, multiplexes what it accepted
//!   (std-only and Linux-only: non-blocking sockets behind `epoll`, a
//!   per-connection read/write state machine instead of a thread stack) and
//!   answers every complete frame in place — decode, cache or compute
//!   against one [`vaq_authquery::Server`] shared behind an `Arc`, encode,
//!   write — so a request never changes threads. Each connection's frames
//!   are answered in arrival order, so a client may pipeline requests and
//!   reads the replies in the order it sent them. The service answers framed
//!   [`vaq_wire::Request`]s with framed [`vaq_wire::Response`]s, keeps a
//!   bounded LRU cache of encoded responses inside each publication (at
//!   most 1,024 frames and 2 MiB), keyed by the query's wire bytes, tracks
//!   counters + fixed-bucket latency histograms, sheds over-limit
//!   connections with a typed [`vaq_wire::ErrorCode::Overloaded`] reply,
//!   answers mid-frame stalls with a typed
//!   [`vaq_wire::ErrorCode::Stalled`] reply, and shuts down gracefully via
//!   a flag and a wake-up per reactor: each lets go of the listener and
//!   says a typed goodbye on every connection it holds.
//! * [`ServiceClient`] — a blocking connector whose
//!   [`ServiceClient::query_verified`] feeds remote responses straight into
//!   [`vaq_authquery::client::verify`], so a network round-trip carries the
//!   same soundness and completeness guarantees as a local call.
//! * [`ShardedDeployment`] / [`ShardedClient`] — the horizontal scale tier:
//!   the owner partitions one logical dataset into disjoint shards (each
//!   with its own authenticated structure and per-shard signing key, the
//!   partition attested by a master-signed shard map), and the client
//!   scatter-gathers every query across all shards, verifies each response
//!   under its shard's key, and merges the answers so the logical result is
//!   as sound and complete as a single server's.
//! * **Batches** — [`ServiceClient::batch`] pipelines many queries on one
//!   connection, one plain query frame each, in windows well under the
//!   service's per-connection backlog; every answer must carry one epoch
//!   stamp, and a closed connection is an error, never a short list.
//!   [`ShardedClient::batch_verified`] pipelines the batch to every shard
//!   pinned at its map epoch and merges each query exactly like a single
//!   sharded query — byte-identical to an unsharded batch.
//! * **Live updates** — every publication carries a monotonically
//!   increasing, master-signed epoch bound into every signature.
//!   [`QueryService::republish`] hot-swaps the served structure under an
//!   `Arc` (a fresh response cache with it, rollback refused);
//!   clients pin queries to their verified epoch and converge through
//!   typed stale-epoch rejections plus a signed-map re-fetch
//!   ([`ShardedClient::refresh`]) that rejects replayed older maps.
//! * **Observability** — every request carries a trace that times the
//!   seven hot-path [`Stage`]s (queue wait, decode, cache lookup, query
//!   execution, VO build, encode, socket write) into per-stage histograms
//!   and per-kind attribution; deep snapshots are
//!   scraped over the wire ([`ServiceClient::stats_deep`],
//!   [`ShardedClient::stats_deep_all`]), and a configurable slow-request
//!   log ([`SlowLogSink`]) emits structured JSON lines for requests over a
//!   latency threshold.
//!
//! # Quick example
//!
//! ```
//! use vaq_authquery::{IfmhTree, Query, Server, SigningMode};
//! use vaq_crypto::SignatureScheme;
//! use vaq_service::{QueryService, ServiceClient, ServiceConfig};
//! use vaq_workload::uniform_dataset;
//!
//! // Owner builds, server hosts.
//! let dataset = uniform_dataset(12, 1, 7);
//! let scheme = SignatureScheme::test_rsa(7);
//! let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
//! let service = QueryService::bind(
//!     ServiceConfig::ephemeral(),
//!     Server::new(dataset.clone(), tree),
//! )
//! .unwrap();
//!
//! // A remote data user queries over TCP and verifies the response.
//! let mut client = ServiceClient::connect(service.local_addr()).unwrap();
//! let public_key = scheme.public_key();
//! let (response, verified) = client
//!     .query_verified(&Query::top_k(vec![0.6], 3), &dataset.template, &public_key)
//!     .unwrap();
//! assert_eq!(response.records.len(), 3);
//! assert_eq!(verified.scores.len(), 3);
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.requests_served, 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod config;
pub(crate) mod conn;
pub mod error;
pub mod frame;
mod metrics;
pub mod partition;
// The four system calls behind the reactor's readiness: the crate's only
// `unsafe`, pinned to this file by `tests/workspace_integration.rs`.
#[allow(unsafe_code)]
mod poll;
pub(crate) mod reactor;
pub mod server;
pub mod shard;
pub mod sync;
mod trace;

pub use cache::LruCache;
pub use client::{spec_to_query, ServiceClient};
pub use config::{ServiceConfig, ShardRole, SlowLogSink};
pub use error::ServiceError;
pub use metrics::Stage;
pub use partition::{attest_shard_map, partition_dataset, verify_shard_map, PartitionStrategy};
pub use server::QueryService;
pub use shard::{
    ClientObservability, LegLatency, ShardedClient, ShardedDeployment, ShardedPublication,
    ShardedResponse,
};
pub use sync::{OrderedGuard, OrderedMutex};
