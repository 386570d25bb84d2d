//! Service envelope messages: the request/response protocol of `vaq-service`.
//!
//! The paper's system model has queries travel from data users to the cloud
//! server and results plus verification objects travel back. This module
//! pins down the byte-level shape of that exchange: a [`Request`] /
//! [`Response`] pair of tagged unions, each sent as one `VAQ1` frame
//! (see [`crate::WireEncode::to_framed_bytes`]). Everything a response needs
//! for client-side verification rides inside the existing
//! [`QueryResponse`] encoding, so a remote round-trip verifies exactly like
//! a local call.
//!
//! Service health telemetry ([`StatsSnapshot`]) is part of the protocol so
//! operators can scrape a running service with nothing but a socket.

use crate::error::WireError;
use crate::io::{Reader, Writer};
use crate::{WireDecode, WireEncode};
use vaq_authquery::{Query, QueryResponse};
use vaq_crypto::sha256::{sha256, Digest};
use vaq_crypto::{PublicKey, Signature};

/// Upper bounds of the fixed latency histogram buckets, in microseconds.
///
/// A histogram carries one count per bound plus a final overflow bucket, so
/// `bucket_counts.len() == LATENCY_BUCKET_BOUNDS_MICROS.len() + 1`. The
/// bounds are part of the wire contract: clients interpret scraped
/// histograms against this table.
pub const LATENCY_BUCKET_BOUNDS_MICROS: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000,
];

/// A request from a data user (or operator) to the query service.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// One analytic query (top-k, range or KNN); answered with
    /// [`Response::Query`] at whatever epoch the service currently serves.
    Query(Query),
    /// A batch of queries answered in order with [`Response::Batch`].
    Batch(Vec<Query>),
    /// Asks which shard of a sharded deployment this service hosts; answered
    /// with [`Response::ShardInfo`] (or a [`ErrorCode::NotSharded`] error by
    /// a standalone service).
    ShardInfo,
    /// Asks for the current owner-signed shard map; answered with
    /// [`Response::ShardMap`] (or a [`ErrorCode::NotSharded`] error when the
    /// service has no published map). Clients re-fetch the map through this
    /// message after a [`ErrorCode::StaleEpoch`] rejection.
    ShardMap,
    /// One analytic query pinned to a publication epoch: the service answers
    /// with [`Response::Query`] only if it currently serves exactly `epoch`,
    /// and with a typed [`ErrorCode::StaleEpoch`] error otherwise. This is
    /// what lets a scatter-gather client guarantee that no merged answer
    /// ever mixes epochs across shards.
    QueryAt {
        /// The publication epoch the client expects (from its verified
        /// shard map or published metadata).
        epoch: u64,
        /// The query itself.
        query: Query,
    },
    /// A batch of queries pinned to a publication epoch, mirroring
    /// [`Request::QueryAt`]: the service answers with [`Response::Batch`]
    /// only if it currently serves exactly `epoch`, and with a typed
    /// [`ErrorCode::StaleEpoch`] error otherwise. This is what lets a
    /// scatter-gather client send one batch frame per shard and still
    /// guarantee that no merged sub-answer ever mixes epochs.
    BatchAt {
        /// The publication epoch the client expects (from its verified
        /// shard map or published metadata).
        epoch: u64,
        /// The queries, answered in order.
        queries: Vec<Query>,
    },
    /// Deep-telemetry scrape; answered with [`Response::StatsDeep`]. On top
    /// of the flat [`StatsSnapshot`] this carries per-stage latency
    /// histograms for the server hot path, so an operator can tell whether a
    /// slow p99 comes from queue wait, cache lookup, query execution, VO
    /// construction, encoding, or the socket write.
    StatsDeep,
    /// A request wrapped with a client-chosen correlation tag. The service
    /// echoes the tag on the matching [`Response::Tagged`] reply, which is
    /// what lets one connection pipeline many requests and receive the
    /// responses out of order — the tag, not the frame position, pairs a
    /// reply with its request. Nesting a `Tagged` request inside another is
    /// rejected at decode time.
    Tagged {
        /// Client-chosen correlation tag, echoed verbatim in the reply.
        tag: u64,
        /// The wrapped request (never itself `Tagged`).
        request: Box<Request>,
    },
}

impl Request {
    /// Canonical bytes of this request.
    ///
    /// The encoding is bijective and decoding consumes every byte, so these
    /// bytes equal the payload a decoder accepted — which is why the
    /// service's response cache can key on received payload bytes directly.
    /// Clients that want to precompute a cache key (or deduplicate requests)
    /// use this method to obtain the same bytes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.to_wire_bytes()
    }

    /// Reads the correlation tag of a tagged request payload without
    /// decoding the wrapped request, so a server can route a frame by tag
    /// before paying for a full decode. Returns `None` for untagged (or too
    /// short) payloads.
    pub fn peek_tag(payload: &[u8]) -> Option<u64> {
        let (&variant, rest) = payload.split_first()?;
        if variant != REQUEST_TAG_TAGGED {
            return None;
        }
        let tag_bytes: [u8; 8] = rest.get(..8)?.try_into().ok()?;
        Some(u64::from_le_bytes(tag_bytes))
    }

    /// Splits a tagged request payload into its correlation tag and the
    /// wrapped request's payload bytes, without decoding the wrapped
    /// request. The returned inner slice is exactly the wrapped request's
    /// canonical encoding — the bytes [`Request::canonical_bytes`] would
    /// produce — so a response cache keyed on received payload bytes treats
    /// a tagged and an untagged copy of the same request as one entry.
    /// Returns `None` for untagged payloads.
    pub fn split_tagged(payload: &[u8]) -> Option<(u64, &[u8])> {
        let tag = Self::peek_tag(payload)?;
        Some((tag, payload.get(1 + 8..)?))
    }
}

/// A response from the query service.
///
/// The size skew between variants is inherent (a query response carries
/// records plus a verification object); responses are transient values on
/// the wire path, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Query`] / [`Request::QueryAt`]: result records +
    /// verification object, stamped with the serving epoch.
    Query {
        /// The publication epoch the answering structure was signed at. The
        /// stamp itself is unauthenticated — the response's signatures bind
        /// the epoch cryptographically; the envelope copy lets clients
        /// detect staleness before paying for verification.
        epoch: u64,
        /// The result + verification object.
        response: QueryResponse,
    },
    /// Answer to [`Request::Batch`], in query order, stamped with the
    /// serving epoch (every response in the batch is computed at it).
    Batch {
        /// The publication epoch of every response in the batch.
        epoch: u64,
        /// The per-query results, in request order.
        responses: Vec<QueryResponse>,
    },
    /// Answer to [`Request::ShardInfo`]: the serving shard's identity.
    ShardInfo(ShardInfo),
    /// Answer to [`Request::ShardMap`]: the owner-signed map currently
    /// published to this service.
    ShardMap(SignedShardMap),
    /// Typed failure; the connection stays usable unless the frame itself
    /// was unreadable.
    Error(ErrorReply),
    /// Answer to [`Request::StatsDeep`]: flat snapshot plus per-stage
    /// latency breakdowns.
    StatsDeep(StatsDeep),
    /// Answer to a [`Request::Tagged`] request: the wrapped response,
    /// carrying the request's correlation tag so a pipelining client can
    /// pair it with the right in-flight request regardless of delivery
    /// order. Never nests.
    Tagged {
        /// The correlation tag of the request this response answers.
        tag: u64,
        /// The wrapped response (never itself `Tagged`).
        response: Box<Response>,
    },
}

impl Response {
    /// Builds a framed [`Response::Tagged`] frame around an already-encoded
    /// (unframed) inner response payload, without decoding it. This is the
    /// cached-response fast path: the service caches complete untagged
    /// response payloads, and re-wrapping one for a tagged request must not
    /// cost a decode/re-encode of a potentially large verification object.
    pub fn tagged_frame_from_payload(tag: u64, inner_payload: &[u8]) -> Vec<u8> {
        let payload_len = 1 + 8 + inner_payload.len();
        let mut out = Vec::with_capacity(crate::FRAME_HEADER_LEN + payload_len);
        out.extend_from_slice(&crate::frame_header(payload_len));
        out.push(RESPONSE_TAG_TAGGED);
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(inner_payload);
        out
    }
}

/// Machine-readable error category of an [`ErrorReply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request frame decoded but the request was not understood.
    Malformed,
    /// The query was understood but invalid for the hosted dataset (e.g.
    /// wrong weight-vector dimensionality).
    BadQuery,
    /// The request or response exceeded the service's frame-size limit.
    FrameTooLarge,
    /// The service failed internally while processing the request.
    Internal,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The service is not part of a sharded deployment (reply to
    /// [`Request::ShardInfo`] on a standalone service).
    NotSharded,
    /// The request was pinned to a publication epoch the service does not
    /// currently serve ([`Request::QueryAt`] against a republished — or not
    /// yet republished — dataset). The client should re-fetch the signed
    /// shard map ([`Request::ShardMap`]) and retry at the new epoch.
    StaleEpoch,
    /// The service is at its connection limit and shed this connection
    /// before serving any request. Sent best-effort right before the close,
    /// so a shed client sees a typed reply instead of an unexplained EOF;
    /// retry later or against another replica.
    Overloaded,
    /// The peer stalled mid-frame past the service's patience window
    /// (`ServiceConfig::mid_frame_patience` on the server side). Sent
    /// best-effort right before the close; the connection is unusable
    /// because the stream stopped inside a frame.
    Stalled,
}

impl ErrorCode {
    /// Every error code, in tag order. Telemetry iterates this to break the
    /// flat error counter out per code.
    pub const ALL: [ErrorCode; 9] = [
        ErrorCode::Malformed,
        ErrorCode::BadQuery,
        ErrorCode::FrameTooLarge,
        ErrorCode::Internal,
        ErrorCode::ShuttingDown,
        ErrorCode::NotSharded,
        ErrorCode::StaleEpoch,
        ErrorCode::Overloaded,
        ErrorCode::Stalled,
    ];

    /// Stable position of this code in [`ErrorCode::ALL`].
    pub fn index(self) -> usize {
        (self.tag() - 1) as usize
    }

    /// Stable snake_case label, used in stats payloads and log lines.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::BadQuery => "bad_query",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::NotSharded => "not_sharded",
            ErrorCode::StaleEpoch => "stale_epoch",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Stalled => "stalled",
        }
    }
}

/// A typed error response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// Error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// One query kind's latency histogram with fixed buckets
/// ([`LATENCY_BUCKET_BOUNDS_MICROS`] plus an overflow bucket).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Per-bucket observation counts; one entry per bound plus overflow.
    pub bucket_counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies in microseconds.
    pub sum_micros: u64,
    /// Largest observed latency in microseconds.
    pub max_micros: u64,
}

/// Latency histogram of one request kind, labelled for self-description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KindLatency {
    /// Request-kind label (`"topk"`, `"range"`, `"knn"`, `"batch"`).
    pub kind: String,
    /// The kind's latency histogram.
    pub histogram: LatencyHistogram,
}

/// Error replies broken out by [`ErrorCode`], labelled for self-description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorCount {
    /// Error-code label (see [`ErrorCode::label`]).
    pub code: String,
    /// Error replies sent with this code.
    pub count: u64,
}

/// Latency histogram of one hot-path stage, labelled for self-description.
///
/// Stage labels (in hot-path order): `"queue_wait"`, `"decode"`,
/// `"cache_lookup"`, `"execute"`, `"vo_build"`, `"encode"`, `"write"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageLatency {
    /// Stage label.
    pub stage: String,
    /// The stage's latency histogram (buckets per
    /// [`LATENCY_BUCKET_BOUNDS_MICROS`]).
    pub histogram: LatencyHistogram,
}

/// Aggregate micros one request kind spent in one stage (no buckets — the
/// per-kind breakdown carries sums so the deep snapshot stays compact).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageMicros {
    /// Stage label (same vocabulary as [`StageLatency::stage`]).
    pub stage: String,
    /// Requests of the kind that recorded this stage.
    pub count: u64,
    /// Total micros the kind spent in the stage.
    pub sum_micros: u64,
    /// Largest single-request micros the kind spent in the stage.
    pub max_micros: u64,
}

/// Per-stage time attribution for one request kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KindStages {
    /// Request-kind label (`"topk"`, `"range"`, `"knn"`, `"batch"`).
    pub kind: String,
    /// Stage sums, in hot-path order. For every kind the stage sums are
    /// bounded by the kind's whole-request histogram: stages are disjoint
    /// sub-intervals of the request, so `sum(stages.sum_micros) <=
    /// per_kind[kind].histogram.sum_micros`.
    pub stages: Vec<StageMicros>,
}

/// Health telemetry of the service's reactor thread: turn-duration
/// distribution, stall count, and the shed counters for connections the
/// reactor gave up on. The runtime cross-check of the static
/// reactor-discipline and bounded-queue lint passes — a blocking call
/// shows up here as a turn-duration outlier and a `reactor_stalls` bump.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ReactorStats {
    /// Duration distribution of reactor turns: the work one wake-up from
    /// the poller brought, not the time spent blocked in it (buckets per
    /// [`LATENCY_BUCKET_BOUNDS_MICROS`]). The field keeps the name it had
    /// when a turn was a sweep over every socket.
    pub sweeps: LatencyHistogram,
    /// Turns that exceeded the configured stall threshold.
    pub reactor_stalls: u64,
    /// Connections shed because their queued-but-unflushed response bytes
    /// exceeded the per-connection write-queue budget (each also records a
    /// typed overloaded reply in the per-code breakdown).
    pub slow_readers_shed: u64,
    /// Connections shed at the configured connection limit.
    pub connections_shed: u64,
}

/// The deep-telemetry payload of [`Response::StatsDeep`]: the flat
/// [`StatsSnapshot`] plus per-stage histograms over all requests,
/// per-kind stage attribution, and reactor health telemetry.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StatsDeep {
    /// The flat counter snapshot, taken atomically with the breakdowns
    /// below (same scrape).
    pub snapshot: StatsSnapshot,
    /// Per-stage latency histograms over every request the service served.
    pub per_stage: Vec<StageLatency>,
    /// Per-request-kind stage attribution.
    pub per_kind_stage: Vec<KindStages>,
    /// Reactor-thread health: turn durations, stalls, shed counters.
    pub reactor: ReactorStats,
}

/// A point-in-time snapshot of service counters, served over the wire.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests fully served (including error replies).
    pub requests_served: u64,
    /// Query responses served straight from the response cache.
    pub cache_hits: u64,
    /// Query responses that had to be computed.
    pub cache_misses: u64,
    /// Total request-frame bytes read.
    pub bytes_in: u64,
    /// Total response-frame bytes written.
    pub bytes_out: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Worker threads serving connections.
    pub workers: u32,
    /// The publication epoch the service currently serves (operators scrape
    /// this to watch a fleet converge after a republication).
    pub epoch: u64,
    /// Per-request-kind latency histograms.
    pub per_kind: Vec<KindLatency>,
    /// Micros since the service started accepting connections. Together
    /// with `requests_served` this yields requests/s from one snapshot.
    pub uptime_micros: u64,
    /// Entries currently resident in the response cache.
    pub cache_entries: u64,
    /// Bytes currently resident in the response cache.
    pub cache_bytes: u64,
    /// Entries evicted from the response cache since start (a thrashing
    /// cache shows a high eviction rate; a cold one shows none).
    pub cache_evictions: u64,
    /// Error replies broken out per [`ErrorCode`], in tag order.
    pub per_error: Vec<ErrorCount>,
}

/// Identity of one shard of a sharded deployment, as reported by the shard
/// itself (reply to [`Request::ShardInfo`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// This shard's index in `0..shard_count`.
    pub shard_id: u32,
    /// Total shards in the deployment this service believes it belongs to.
    pub shard_count: u32,
    /// Number of records this shard hosts.
    pub records: u64,
    /// The publication epoch this shard currently serves.
    pub epoch: u64,
}

/// One shard's entry in the owner's attested [`ShardMap`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardEntry {
    /// The shard's index in `0..shard_count`.
    pub shard_id: u32,
    /// Number of records the owner placed on this shard.
    pub records: u64,
    /// The per-shard public key: every query response from this shard must
    /// verify under this key, so one shard cannot answer with another
    /// shard's (equally well-signed) data.
    pub public_key: PublicKey,
    /// Addresses serving this shard, primary first, standbys after. Every
    /// address hosts the same shard data under the same per-shard key, so a
    /// client may fail a scatter leg over to any of them — the attested
    /// entry is what makes the takeover sound (the standby's responses must
    /// verify under the same attested key).
    pub addrs: Vec<String>,
}

/// The owner's description of how one logical dataset is partitioned into
/// disjoint shards.
///
/// Published out of band together with the function template, and attested
/// by the owner's master signature (see [`SignedShardMap`]): a client that
/// checks the signature knows the exact shard count, each shard's record
/// count and each shard's verification key — which is what makes a merged
/// scatter-gather answer complete (no shard can be silently dropped) and
/// sound (no shard can impersonate another).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardMap {
    /// The publication epoch of this map: monotonically increasing across
    /// republications of the logical dataset. Clients never replace a
    /// verified map with one carrying a lower (or equal) epoch, so a
    /// replayed older signed map cannot roll a client back.
    pub epoch: u64,
    /// Number of shards `S`.
    pub shard_count: u32,
    /// Total records across all shards (the logical dataset size).
    pub total_records: u64,
    /// Weight-vector dimensionality of the logical dataset.
    pub dims: u32,
    /// Per-shard entries, in shard-id order.
    pub shards: Vec<ShardEntry>,
}

impl ShardMap {
    /// The digest the owner's master key signs: SHA-256 over the canonical
    /// wire encoding of the map.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_wire_bytes())
    }
}

/// A [`ShardMap`] together with the owner's master signature over
/// [`ShardMap::digest`].
#[derive(Clone, Debug, PartialEq)]
pub struct SignedShardMap {
    /// The attested partition description.
    pub map: ShardMap,
    /// Master signature over [`ShardMap::digest`].
    pub signature: Signature,
}

// Tag 2 (the flat stats scrape `StatsDeep` embeds) is retired, not reused:
// a peer that still sends it gets the `InvalidTag` decode error.
const REQUEST_TAG_PING: u8 = 1;
const REQUEST_TAG_QUERY: u8 = 3;
const REQUEST_TAG_BATCH: u8 = 4;
const REQUEST_TAG_SHARD_INFO: u8 = 5;
const REQUEST_TAG_SHARD_MAP: u8 = 6;
const REQUEST_TAG_QUERY_AT: u8 = 7;
const REQUEST_TAG_BATCH_AT: u8 = 8;
const REQUEST_TAG_STATS_DEEP: u8 = 9;
const REQUEST_TAG_TAGGED: u8 = 10;

impl WireEncode for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Ping => w.put_u8(REQUEST_TAG_PING),
            Request::Query(query) => {
                w.put_u8(REQUEST_TAG_QUERY);
                query.encode(w);
            }
            Request::Batch(queries) => {
                w.put_u8(REQUEST_TAG_BATCH);
                w.put_len(queries.len());
                for query in queries {
                    query.encode(w);
                }
            }
            Request::ShardInfo => w.put_u8(REQUEST_TAG_SHARD_INFO),
            Request::ShardMap => w.put_u8(REQUEST_TAG_SHARD_MAP),
            Request::QueryAt { epoch, query } => {
                w.put_u8(REQUEST_TAG_QUERY_AT);
                w.put_u64(*epoch);
                query.encode(w);
            }
            Request::BatchAt { epoch, queries } => {
                w.put_u8(REQUEST_TAG_BATCH_AT);
                w.put_u64(*epoch);
                w.put_len(queries.len());
                for query in queries {
                    query.encode(w);
                }
            }
            Request::StatsDeep => w.put_u8(REQUEST_TAG_STATS_DEEP),
            Request::Tagged { tag, request } => {
                w.put_u8(REQUEST_TAG_TAGGED);
                w.put_u64(*tag);
                request.encode(w);
            }
        }
    }
}

impl WireDecode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            REQUEST_TAG_PING => Ok(Request::Ping),
            REQUEST_TAG_QUERY => Ok(Request::Query(Query::decode(r)?)),
            REQUEST_TAG_BATCH => {
                let len = r.get_len()?;
                let mut queries = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    queries.push(Query::decode(r)?);
                }
                Ok(Request::Batch(queries))
            }
            REQUEST_TAG_SHARD_INFO => Ok(Request::ShardInfo),
            REQUEST_TAG_SHARD_MAP => Ok(Request::ShardMap),
            REQUEST_TAG_QUERY_AT => Ok(Request::QueryAt {
                epoch: r.get_u64()?,
                query: Query::decode(r)?,
            }),
            REQUEST_TAG_BATCH_AT => {
                let epoch = r.get_u64()?;
                let len = r.get_len()?;
                let mut queries = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    queries.push(Query::decode(r)?);
                }
                Ok(Request::BatchAt { epoch, queries })
            }
            REQUEST_TAG_STATS_DEEP => Ok(Request::StatsDeep),
            REQUEST_TAG_TAGGED => {
                let tag = r.get_u64()?;
                let request = Request::decode(r)?;
                if matches!(request, Request::Tagged { .. }) {
                    // One level of tagging only: a nested tagged request has
                    // no meaningful reply shape, so reject it at decode time.
                    return Err(WireError::InvalidTag {
                        type_name: "Request::Tagged (nested)",
                        tag: REQUEST_TAG_TAGGED,
                    });
                }
                Ok(Request::Tagged {
                    tag,
                    request: Box::new(request),
                })
            }
            tag => Err(WireError::InvalidTag {
                type_name: "Request",
                tag,
            }),
        }
    }
}

// Tag 2 (the answer to the retired request tag 2) is likewise left unused.
const RESPONSE_TAG_PONG: u8 = 1;
const RESPONSE_TAG_QUERY: u8 = 3;
const RESPONSE_TAG_BATCH: u8 = 4;
const RESPONSE_TAG_ERROR: u8 = 5;
const RESPONSE_TAG_SHARD_INFO: u8 = 6;
const RESPONSE_TAG_SHARD_MAP: u8 = 7;
const RESPONSE_TAG_STATS_DEEP: u8 = 8;
const RESPONSE_TAG_TAGGED: u8 = 9;

impl WireEncode for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Pong => w.put_u8(RESPONSE_TAG_PONG),
            Response::Query { epoch, response } => {
                w.put_u8(RESPONSE_TAG_QUERY);
                w.put_u64(*epoch);
                response.encode(w);
            }
            Response::Batch { epoch, responses } => {
                w.put_u8(RESPONSE_TAG_BATCH);
                w.put_u64(*epoch);
                w.put_len(responses.len());
                for response in responses {
                    response.encode(w);
                }
            }
            Response::ShardInfo(info) => {
                w.put_u8(RESPONSE_TAG_SHARD_INFO);
                info.encode(w);
            }
            Response::ShardMap(map) => {
                w.put_u8(RESPONSE_TAG_SHARD_MAP);
                map.encode(w);
            }
            Response::Error(reply) => {
                w.put_u8(RESPONSE_TAG_ERROR);
                reply.encode(w);
            }
            Response::StatsDeep(deep) => {
                w.put_u8(RESPONSE_TAG_STATS_DEEP);
                deep.encode(w);
            }
            Response::Tagged { tag, response } => {
                w.put_u8(RESPONSE_TAG_TAGGED);
                w.put_u64(*tag);
                response.encode(w);
            }
        }
    }
}

impl WireDecode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            RESPONSE_TAG_PONG => Ok(Response::Pong),
            RESPONSE_TAG_QUERY => Ok(Response::Query {
                epoch: r.get_u64()?,
                response: QueryResponse::decode(r)?,
            }),
            RESPONSE_TAG_BATCH => {
                let epoch = r.get_u64()?;
                let len = r.get_len()?;
                let mut responses = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    responses.push(QueryResponse::decode(r)?);
                }
                Ok(Response::Batch { epoch, responses })
            }
            RESPONSE_TAG_ERROR => Ok(Response::Error(ErrorReply::decode(r)?)),
            RESPONSE_TAG_SHARD_INFO => Ok(Response::ShardInfo(ShardInfo::decode(r)?)),
            RESPONSE_TAG_SHARD_MAP => Ok(Response::ShardMap(SignedShardMap::decode(r)?)),
            RESPONSE_TAG_STATS_DEEP => Ok(Response::StatsDeep(StatsDeep::decode(r)?)),
            RESPONSE_TAG_TAGGED => {
                let tag = r.get_u64()?;
                let response = Response::decode(r)?;
                if matches!(response, Response::Tagged { .. }) {
                    return Err(WireError::InvalidTag {
                        type_name: "Response::Tagged (nested)",
                        tag: RESPONSE_TAG_TAGGED,
                    });
                }
                Ok(Response::Tagged {
                    tag,
                    response: Box::new(response),
                })
            }
            tag => Err(WireError::InvalidTag {
                type_name: "Response",
                tag,
            }),
        }
    }
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::BadQuery => 2,
            ErrorCode::FrameTooLarge => 3,
            ErrorCode::Internal => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::NotSharded => 6,
            ErrorCode::StaleEpoch => 7,
            ErrorCode::Overloaded => 8,
            ErrorCode::Stalled => 9,
        }
    }
}

impl WireEncode for ErrorCode {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tag());
    }
}

impl WireDecode for ErrorCode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::BadQuery),
            3 => Ok(ErrorCode::FrameTooLarge),
            4 => Ok(ErrorCode::Internal),
            5 => Ok(ErrorCode::ShuttingDown),
            6 => Ok(ErrorCode::NotSharded),
            7 => Ok(ErrorCode::StaleEpoch),
            8 => Ok(ErrorCode::Overloaded),
            9 => Ok(ErrorCode::Stalled),
            tag => Err(WireError::InvalidTag {
                type_name: "ErrorCode",
                tag,
            }),
        }
    }
}

impl WireEncode for ErrorReply {
    fn encode(&self, w: &mut Writer) {
        self.code.encode(w);
        w.put_string(&self.message);
    }
}

impl WireDecode for ErrorReply {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ErrorReply {
            code: ErrorCode::decode(r)?,
            message: r.get_string()?,
        })
    }
}

impl WireEncode for ShardInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.shard_id);
        w.put_u32(self.shard_count);
        w.put_u64(self.records);
        w.put_u64(self.epoch);
    }
}

impl WireDecode for ShardInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardInfo {
            shard_id: r.get_u32()?,
            shard_count: r.get_u32()?,
            records: r.get_u64()?,
            epoch: r.get_u64()?,
        })
    }
}

impl WireEncode for ShardEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.shard_id);
        w.put_u64(self.records);
        self.public_key.encode(w);
        w.put_len(self.addrs.len());
        for addr in &self.addrs {
            w.put_string(addr);
        }
    }
}

impl WireDecode for ShardEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let shard_id = r.get_u32()?;
        let records = r.get_u64()?;
        let public_key = PublicKey::decode(r)?;
        let len = r.get_len()?;
        let mut addrs = Vec::with_capacity(len.min(64));
        for _ in 0..len {
            addrs.push(r.get_string()?);
        }
        Ok(ShardEntry {
            shard_id,
            records,
            public_key,
            addrs,
        })
    }
}

impl WireEncode for ShardMap {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_u32(self.shard_count);
        w.put_u64(self.total_records);
        w.put_u32(self.dims);
        w.put_len(self.shards.len());
        for shard in &self.shards {
            shard.encode(w);
        }
    }
}

impl WireDecode for ShardMap {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let epoch = r.get_u64()?;
        let shard_count = r.get_u32()?;
        let total_records = r.get_u64()?;
        let dims = r.get_u32()?;
        let len = r.get_len()?;
        let mut shards = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            shards.push(ShardEntry::decode(r)?);
        }
        Ok(ShardMap {
            epoch,
            shard_count,
            total_records,
            dims,
            shards,
        })
    }
}

impl WireEncode for SignedShardMap {
    fn encode(&self, w: &mut Writer) {
        self.map.encode(w);
        self.signature.encode(w);
    }
}

impl WireDecode for SignedShardMap {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignedShardMap {
            map: ShardMap::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

impl WireEncode for LatencyHistogram {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.bucket_counts.len());
        for count in &self.bucket_counts {
            w.put_u64(*count);
        }
        w.put_u64(self.count);
        w.put_u64(self.sum_micros);
        w.put_u64(self.max_micros);
    }
}

impl WireDecode for LatencyHistogram {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let mut bucket_counts = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            bucket_counts.push(r.get_u64()?);
        }
        Ok(LatencyHistogram {
            bucket_counts,
            count: r.get_u64()?,
            sum_micros: r.get_u64()?,
            max_micros: r.get_u64()?,
        })
    }
}

impl WireEncode for KindLatency {
    fn encode(&self, w: &mut Writer) {
        w.put_string(&self.kind);
        self.histogram.encode(w);
    }
}

impl WireDecode for KindLatency {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(KindLatency {
            kind: r.get_string()?,
            histogram: LatencyHistogram::decode(r)?,
        })
    }
}

impl WireEncode for ErrorCount {
    fn encode(&self, w: &mut Writer) {
        w.put_string(&self.code);
        w.put_u64(self.count);
    }
}

impl WireDecode for ErrorCount {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ErrorCount {
            code: r.get_string()?,
            count: r.get_u64()?,
        })
    }
}

impl WireEncode for StageLatency {
    fn encode(&self, w: &mut Writer) {
        w.put_string(&self.stage);
        self.histogram.encode(w);
    }
}

impl WireDecode for StageLatency {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StageLatency {
            stage: r.get_string()?,
            histogram: LatencyHistogram::decode(r)?,
        })
    }
}

impl WireEncode for StageMicros {
    fn encode(&self, w: &mut Writer) {
        w.put_string(&self.stage);
        w.put_u64(self.count);
        w.put_u64(self.sum_micros);
        w.put_u64(self.max_micros);
    }
}

impl WireDecode for StageMicros {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StageMicros {
            stage: r.get_string()?,
            count: r.get_u64()?,
            sum_micros: r.get_u64()?,
            max_micros: r.get_u64()?,
        })
    }
}

impl WireEncode for KindStages {
    fn encode(&self, w: &mut Writer) {
        w.put_string(&self.kind);
        w.put_len(self.stages.len());
        for stage in &self.stages {
            stage.encode(w);
        }
    }
}

impl WireDecode for KindStages {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let kind = r.get_string()?;
        let len = r.get_len()?;
        let mut stages = Vec::with_capacity(len.min(64));
        for _ in 0..len {
            stages.push(StageMicros::decode(r)?);
        }
        Ok(KindStages { kind, stages })
    }
}

impl WireEncode for ReactorStats {
    fn encode(&self, w: &mut Writer) {
        self.sweeps.encode(w);
        w.put_u64(self.reactor_stalls);
        w.put_u64(self.slow_readers_shed);
        w.put_u64(self.connections_shed);
    }
}

impl WireDecode for ReactorStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReactorStats {
            sweeps: LatencyHistogram::decode(r)?,
            reactor_stalls: r.get_u64()?,
            slow_readers_shed: r.get_u64()?,
            connections_shed: r.get_u64()?,
        })
    }
}

impl WireEncode for StatsDeep {
    fn encode(&self, w: &mut Writer) {
        self.snapshot.encode(w);
        w.put_len(self.per_stage.len());
        for stage in &self.per_stage {
            stage.encode(w);
        }
        w.put_len(self.per_kind_stage.len());
        for kind in &self.per_kind_stage {
            kind.encode(w);
        }
        self.reactor.encode(w);
    }
}

impl WireDecode for StatsDeep {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let snapshot = StatsSnapshot::decode(r)?;
        let len = r.get_len()?;
        let mut per_stage = Vec::with_capacity(len.min(64));
        for _ in 0..len {
            per_stage.push(StageLatency::decode(r)?);
        }
        let len = r.get_len()?;
        let mut per_kind_stage = Vec::with_capacity(len.min(64));
        for _ in 0..len {
            per_kind_stage.push(KindStages::decode(r)?);
        }
        Ok(StatsDeep {
            snapshot,
            per_stage,
            per_kind_stage,
            reactor: ReactorStats::decode(r)?,
        })
    }
}

impl WireEncode for StatsSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.requests_served);
        w.put_u64(self.cache_hits);
        w.put_u64(self.cache_misses);
        w.put_u64(self.bytes_in);
        w.put_u64(self.bytes_out);
        w.put_u64(self.errors);
        w.put_u32(self.workers);
        w.put_u64(self.epoch);
        w.put_len(self.per_kind.len());
        for kind in &self.per_kind {
            kind.encode(w);
        }
        w.put_u64(self.uptime_micros);
        w.put_u64(self.cache_entries);
        w.put_u64(self.cache_bytes);
        w.put_u64(self.cache_evictions);
        w.put_len(self.per_error.len());
        for error in &self.per_error {
            error.encode(w);
        }
    }
}

impl WireDecode for StatsSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let requests_served = r.get_u64()?;
        let cache_hits = r.get_u64()?;
        let cache_misses = r.get_u64()?;
        let bytes_in = r.get_u64()?;
        let bytes_out = r.get_u64()?;
        let errors = r.get_u64()?;
        let workers = r.get_u32()?;
        let epoch = r.get_u64()?;
        let len = r.get_len()?;
        let mut per_kind = Vec::with_capacity(len.min(64));
        for _ in 0..len {
            per_kind.push(KindLatency::decode(r)?);
        }
        let uptime_micros = r.get_u64()?;
        let cache_entries = r.get_u64()?;
        let cache_bytes = r.get_u64()?;
        let cache_evictions = r.get_u64()?;
        let len = r.get_len()?;
        let mut per_error = Vec::with_capacity(len.min(64));
        for _ in 0..len {
            per_error.push(ErrorCount::decode(r)?);
        }
        Ok(StatsSnapshot {
            requests_served,
            cache_hits,
            cache_misses,
            bytes_in,
            bytes_out,
            errors,
            workers,
            epoch,
            per_kind,
            uptime_micros,
            cache_entries,
            cache_bytes,
            cache_evictions,
            per_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_variants_roundtrip() {
        let requests = vec![
            Request::Ping,
            Request::Query(Query::top_k(vec![0.2, 0.8], 3)),
            Request::Batch(vec![
                Query::range(vec![0.5], 0.1, 0.9),
                Query::knn(vec![0.3, 0.7], 2, 0.4),
            ]),
            Request::ShardInfo,
            Request::ShardMap,
            Request::QueryAt {
                epoch: u64::MAX,
                query: Query::top_k(vec![0.1, 0.9], 2),
            },
            Request::BatchAt {
                epoch: 0,
                queries: vec![],
            },
            Request::BatchAt {
                epoch: u64::MAX,
                queries: vec![
                    Query::top_k(vec![0.1, 0.9], 2),
                    Query::range(vec![0.5], 0.1, 0.9),
                ],
            },
            Request::StatsDeep,
            Request::Tagged {
                tag: u64::MAX,
                request: Box::new(Request::Query(Query::top_k(vec![0.4, 0.6], 1))),
            },
        ];
        for request in requests {
            let bytes = request.to_framed_bytes();
            assert_eq!(Request::from_framed_bytes(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn retired_tag_two_is_unused_and_its_neighbours_keep_their_bytes() {
        for error in [
            Request::from_wire_bytes(&[2]).err(),
            Response::from_wire_bytes(&[2]).err(),
        ] {
            assert!(matches!(error, Some(WireError::InvalidTag { tag: 2, .. })));
        }
        assert_eq!(Request::Ping.to_wire_bytes(), [1]);
        assert_eq!(Request::ShardInfo.to_wire_bytes(), [5]);
        assert_eq!(Request::ShardMap.to_wire_bytes(), [6]);
        assert_eq!(Request::StatsDeep.to_wire_bytes(), [9]);
        assert_eq!(Response::Pong.to_wire_bytes(), [1]);
    }

    #[test]
    fn tagged_request_helpers_agree_with_the_encoding() {
        let inner = Request::Query(Query::top_k(vec![0.2, 0.8], 3));
        let tagged = Request::Tagged {
            tag: 0xDEAD_BEEF,
            request: Box::new(inner.clone()),
        };
        let payload = tagged.to_wire_bytes();
        assert_eq!(Request::from_wire_bytes(&payload).unwrap(), tagged);
        assert_eq!(Request::peek_tag(&payload), Some(0xDEAD_BEEF));
        let (tag, inner_bytes) = Request::split_tagged(&payload).unwrap();
        assert_eq!(tag, 0xDEAD_BEEF);
        // The inner slice is the wrapped request's canonical bytes, so a
        // payload-keyed response cache unifies tagged and untagged copies.
        assert_eq!(inner_bytes, inner.canonical_bytes().as_slice());
        assert_eq!(Request::peek_tag(&inner.canonical_bytes()), None);
        assert_eq!(Request::split_tagged(&inner.canonical_bytes()), None);
        assert_eq!(Request::peek_tag(&[]), None);
    }

    #[test]
    fn nested_tagged_envelopes_are_rejected() {
        // Hand-build a Tagged-in-Tagged payload; the decoder must reject it.
        let mut w = Writer::new();
        w.put_u8(10); // REQUEST_TAG_TAGGED
        w.put_u64(1);
        Request::Tagged {
            tag: 2,
            request: Box::new(Request::Ping),
        }
        .encode(&mut w);
        assert!(matches!(
            Request::from_wire_bytes(&w.into_bytes()),
            Err(WireError::InvalidTag { .. })
        ));

        let mut w = Writer::new();
        w.put_u8(9); // RESPONSE_TAG_TAGGED
        w.put_u64(1);
        Response::Tagged {
            tag: 2,
            response: Box::new(Response::Pong),
        }
        .encode(&mut w);
        assert!(matches!(
            Response::from_wire_bytes(&w.into_bytes()),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn tagged_frame_from_payload_matches_the_direct_encoding() {
        let reply = Response::Error(ErrorReply {
            code: ErrorCode::Overloaded,
            message: "connection limit reached".into(),
        });
        let framed = Response::tagged_frame_from_payload(7, &reply.to_wire_bytes());
        // Byte-identical to encoding the tagged value directly: the fast
        // path re-wraps cached payloads without changing the wire contract.
        let direct = Response::Tagged {
            tag: 7,
            response: Box::new(reply),
        }
        .to_framed_bytes();
        assert_eq!(framed, direct);
        match Response::from_framed_bytes(&framed).unwrap() {
            Response::Tagged { tag, response } => {
                assert_eq!(tag, 7);
                match *response {
                    Response::Error(e) => {
                        assert_eq!(e.code, ErrorCode::Overloaded);
                        assert_eq!(e.message, "connection limit reached");
                    }
                    other => panic!("expected Error, got {other:?}"),
                }
            }
            other => panic!("expected Tagged, got {other:?}"),
        }
    }

    #[test]
    fn stall_and_overload_codes_roundtrip() {
        for code in [ErrorCode::Overloaded, ErrorCode::Stalled] {
            let reply = ErrorReply {
                code,
                message: code.label().into(),
            };
            let bytes = reply.to_wire_bytes();
            assert_eq!(ErrorReply::from_wire_bytes(&bytes).unwrap(), reply);
        }
    }

    #[test]
    fn error_and_stats_roundtrip() {
        let reply = ErrorReply {
            code: ErrorCode::BadQuery,
            message: "weight vector has 3 dims, dataset has 2".into(),
        };
        let bytes = reply.to_wire_bytes();
        assert_eq!(ErrorReply::from_wire_bytes(&bytes).unwrap(), reply);

        let stats = StatsSnapshot {
            requests_served: 10,
            cache_hits: 4,
            cache_misses: 6,
            bytes_in: 1234,
            bytes_out: 99999,
            errors: 1,
            workers: 8,
            epoch: 3,
            per_kind: vec![KindLatency {
                kind: "topk".into(),
                histogram: LatencyHistogram {
                    bucket_counts: vec![0; LATENCY_BUCKET_BOUNDS_MICROS.len() + 1],
                    count: 7,
                    sum_micros: 4200,
                    max_micros: 900,
                },
            }],
            uptime_micros: 5_000_000,
            cache_entries: 12,
            cache_bytes: 4096,
            cache_evictions: 3,
            per_error: vec![ErrorCount {
                code: "bad_query".into(),
                count: 1,
            }],
        };
        let bytes = stats.to_wire_bytes();
        assert_eq!(StatsSnapshot::from_wire_bytes(&bytes).unwrap(), stats);
    }

    #[test]
    fn stats_deep_roundtrips() {
        let deep = StatsDeep {
            snapshot: StatsSnapshot {
                requests_served: 3,
                epoch: 2,
                workers: 4,
                per_error: ErrorCode::ALL
                    .iter()
                    .map(|code| ErrorCount {
                        code: code.label().into(),
                        count: code.index() as u64,
                    })
                    .collect(),
                ..StatsSnapshot::default()
            },
            per_stage: vec![
                StageLatency {
                    stage: "queue_wait".into(),
                    histogram: LatencyHistogram {
                        bucket_counts: vec![1; LATENCY_BUCKET_BOUNDS_MICROS.len() + 1],
                        count: 13,
                        sum_micros: 999,
                        max_micros: 600_000,
                    },
                },
                StageLatency {
                    stage: "execute".into(),
                    histogram: LatencyHistogram::default(),
                },
            ],
            per_kind_stage: vec![KindStages {
                kind: "topk".into(),
                stages: vec![StageMicros {
                    stage: "execute".into(),
                    count: 2,
                    sum_micros: 840,
                    max_micros: 500,
                }],
            }],
            reactor: ReactorStats {
                sweeps: LatencyHistogram {
                    bucket_counts: vec![2; LATENCY_BUCKET_BOUNDS_MICROS.len() + 1],
                    count: 26,
                    sum_micros: 4242,
                    max_micros: 1_200_000,
                },
                reactor_stalls: 1,
                slow_readers_shed: 3,
                connections_shed: 5,
            },
        };
        let bytes = deep.to_wire_bytes();
        assert_eq!(StatsDeep::from_wire_bytes(&bytes).unwrap(), deep);

        // And through the response envelope.
        let framed = Response::StatsDeep(deep.clone()).to_framed_bytes();
        match Response::from_framed_bytes(&framed).unwrap() {
            Response::StatsDeep(decoded) => assert_eq!(decoded, deep),
            other => panic!("expected StatsDeep, got {other:?}"),
        }
    }

    #[test]
    fn error_code_labels_are_distinct_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, code) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(code.index(), i);
            assert!(
                seen.insert(code.label()),
                "duplicate label {}",
                code.label()
            );
        }
    }

    #[test]
    fn shard_messages_roundtrip_and_digest_is_canonical() {
        use vaq_crypto::{SignatureScheme, Signer, Verifier};

        let info = ShardInfo {
            shard_id: 2,
            shard_count: 5,
            records: 321,
            epoch: 9,
        };
        let bytes = info.to_wire_bytes();
        assert_eq!(ShardInfo::from_wire_bytes(&bytes).unwrap(), info);

        let scheme = SignatureScheme::test_rsa(0x5a);
        let map = ShardMap {
            epoch: 4,
            shard_count: 2,
            total_records: 11,
            dims: 1,
            shards: vec![
                ShardEntry {
                    shard_id: 0,
                    records: 6,
                    public_key: scheme.public_key(),
                    addrs: vec!["127.0.0.1:4100".into(), "127.0.0.1:4101".into()],
                },
                ShardEntry {
                    shard_id: 1,
                    records: 5,
                    public_key: scheme.public_key(),
                    addrs: vec!["127.0.0.1:4102".into()],
                },
            ],
        };
        let bytes = map.to_wire_bytes();
        let decoded = ShardMap::from_wire_bytes(&bytes).unwrap();
        assert_eq!(decoded, map);
        // The digest is a function of the canonical encoding, so a decoded
        // copy commits to the same bytes.
        assert_eq!(decoded.digest(), map.digest());

        let signed = SignedShardMap {
            signature: scheme.sign_digest(&map.digest()),
            map,
        };
        let bytes = signed.to_wire_bytes();
        let decoded = SignedShardMap::from_wire_bytes(&bytes).unwrap();
        assert_eq!(decoded, signed);
        assert!(scheme
            .public_key()
            .verify_digest(&decoded.map.digest(), &decoded.signature));

        // Tampering with any field of the map changes the attested digest.
        let mut tampered = signed.map.clone();
        tampered.shards[1].records = 4;
        assert_ne!(tampered.digest(), signed.map.digest());
        tampered = signed.map.clone();
        tampered.shard_count = 1;
        tampered.shards.pop();
        assert_ne!(tampered.digest(), signed.map.digest());
        // The epoch and the address lists are attested too: a relabelled
        // epoch or a redirected standby address breaks the signature.
        tampered = signed.map.clone();
        tampered.epoch += 1;
        assert_ne!(tampered.digest(), signed.map.digest());
        tampered = signed.map.clone();
        tampered.shards[0].addrs[1] = "10.0.0.1:9999".into();
        assert_ne!(tampered.digest(), signed.map.digest());
    }

    #[test]
    fn canonical_bytes_distinguish_queries() {
        let a = Request::Query(Query::top_k(vec![0.5], 3));
        let b = Request::Query(Query::top_k(vec![0.5], 4));
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.canonical_bytes(), a.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_distinguish_pinned_and_unpinned_batches() {
        let queries = vec![Query::top_k(vec![0.5], 3)];
        let plain = Request::Batch(queries.clone());
        let pinned = Request::BatchAt {
            epoch: 0,
            queries: queries.clone(),
        };
        let later = Request::BatchAt { epoch: 1, queries };
        assert_ne!(plain.canonical_bytes(), pinned.canonical_bytes());
        assert_ne!(pinned.canonical_bytes(), later.canonical_bytes());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Request::from_wire_bytes(&[0xEE]),
            Err(WireError::InvalidTag { .. })
        ));
        assert!(matches!(
            Response::from_wire_bytes(&[0xEE]),
            Err(WireError::InvalidTag { .. })
        ));
        assert!(matches!(
            ErrorCode::from_wire_bytes(&[0x00]),
            Err(WireError::InvalidTag { .. })
        ));
    }
}
