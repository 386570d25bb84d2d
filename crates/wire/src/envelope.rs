//! Service envelope messages: the request/response protocol of `vaq-service`.
//!
//! The paper's system model has queries travel from data users to the cloud
//! server and results plus verification objects travel back. This module
//! pins down the byte-level shape of that exchange: a [`Request`] /
//! [`Response`] pair of tagged unions, each sent as one `VAQ1` frame
//! (see [`crate::WireEncode::to_framed_bytes`]). One query is one request
//! frame ([`Request::Query`], or [`Request::QueryAt`] pinned to an epoch)
//! answered by one [`Response::Query`] frame; a connection answers its
//! frames in the order they arrived, so a client pipelines many queries by
//! sending them back to back. Everything a response needs for client-side
//! verification rides inside the existing [`QueryResponse`] encoding, so a
//! remote round-trip verifies exactly like a local call.
//!
//! Service health telemetry ([`StatsSnapshot`]) is part of the protocol so
//! operators can scrape a running service with nothing but a socket.

use crate::codec::{wire_enum, wire_struct};
use crate::WireEncode;
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
    /// Deep-telemetry scrape; answered with [`Response::StatsDeep`]. On top
    /// of the flat [`StatsSnapshot`] this carries per-stage latency
    /// histograms for the server hot path, so an operator can tell whether a
    /// slow p99 comes from queue wait, cache lookup, query execution, VO
    /// construction, encoding, or the socket write.
    StatsDeep,
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

    /// Stable position of this code in [`ErrorCode::ALL`]: its declaration
    /// order, one less than its tag byte.
    pub fn index(self) -> usize {
        self as usize
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
    /// Request-kind label (`"topk"`, `"range"`, `"knn"`).
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
    /// Request-kind label (`"topk"`, `"range"`, `"knn"`).
    pub kind: String,
    /// Stage sums, in hot-path order. For every kind the stage sums are
    /// bounded by the kind's whole-request histogram: stages are disjoint
    /// sub-intervals of the request, so `sum(stages.sum_micros) <=
    /// per_kind[kind].histogram.sum_micros`.
    pub stages: Vec<StageMicros>,
}

/// Health telemetry of the service's reactor threads: turn-duration
/// distribution, stall count, and the shed counters for connections a
/// reactor gave up on. A blocking call on a reactor shows up here as a
/// turn-duration outlier and a `reactor_stalls` bump.
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
    /// Reactor threads serving connections, each answering its own.
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

// Retired tags are not reused, so a peer that still sends one gets the
// `InvalidTag` decode error: request tag 2 (the flat stats scrape `StatsDeep`
// embeds) and 4, 8 and 10 (the batch, pinned-batch and correlation-tag
// envelopes, whose work in-order pipelining of `Query` frames now does).
wire_enum!(Request {
    1 => Ping,
    3 => Query(query),
    5 => ShardInfo,
    6 => ShardMap,
    7 => QueryAt { epoch, query },
    9 => StatsDeep,
});

/// The tag of [`Response::Query`], which [`crate::query_response_frame`]
/// also writes.
pub(crate) const RESPONSE_TAG_QUERY: u8 = 3;

// Likewise retired: response tags 2, 4 (batch) and 9 (correlation tag).
wire_enum!(Response {
    1 => Pong,
    RESPONSE_TAG_QUERY => Query { epoch, response },
    5 => Error(reply),
    6 => ShardInfo(info),
    7 => ShardMap(map),
    8 => StatsDeep(deep),
});

wire_enum!(ErrorCode {
    1 => Malformed,
    2 => BadQuery,
    3 => FrameTooLarge,
    4 => Internal,
    5 => ShuttingDown,
    6 => NotSharded,
    7 => StaleEpoch,
    8 => Overloaded,
    9 => Stalled,
});

wire_struct! {
    ErrorReply { code, message }
    ShardInfo { shard_id, shard_count, records, epoch }
    ShardEntry { shard_id, records, public_key, addrs }
    ShardMap { epoch, shard_count, total_records, dims, shards }
    SignedShardMap { map, signature }
    LatencyHistogram { bucket_counts, count, sum_micros, max_micros }
    KindLatency { kind, histogram }
    ErrorCount { code, count }
    StageLatency { stage, histogram }
    StageMicros { stage, count, sum_micros, max_micros }
    KindStages { kind, stages }
    ReactorStats { sweeps, reactor_stalls, slow_readers_shed, connections_shed }
    StatsDeep { snapshot, per_stage, per_kind_stage, reactor }
    StatsSnapshot {
        requests_served, cache_hits, cache_misses, bytes_in, bytes_out, errors, workers, epoch,
        per_kind, uptime_micros, cache_entries, cache_bytes, cache_evictions, per_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::Writer;
    use crate::{WireDecode, WireError};

    #[test]
    fn request_variants_roundtrip() {
        let requests = vec![
            Request::Ping,
            Request::Query(Query::top_k(vec![0.2, 0.8], 3)),
            Request::ShardInfo,
            Request::ShardMap,
            Request::QueryAt {
                epoch: u64::MAX,
                query: Query::top_k(vec![0.1, 0.9], 2),
            },
            Request::StatsDeep,
        ];
        for request in requests {
            let bytes = request.to_framed_bytes();
            assert_eq!(Request::from_framed_bytes(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn retired_tag_two_is_unused_and_its_neighbours_keep_their_bytes() {
        // Tag 2 went with the flat stats scrape; 4, 8 and 10 (requests) and
        // 4 and 9 (responses) with the batch and correlation-tag envelopes.
        // Each is refused on its first byte, whatever follows it.
        let after = Request::Query(Query::top_k(vec![0.5], 1)).to_wire_bytes();
        for tag in [2, 4, 8, 10] {
            let payload = [&[tag][..], &after].concat();
            let error = Request::from_wire_bytes(&payload).err();
            assert!(
                matches!(error, Some(WireError::InvalidTag { tag: t, .. }) if t == tag),
                "request tag {tag}: {error:?}"
            );
        }
        for tag in [2, 4, 9] {
            let payload = [&[tag][..], &Response::Pong.to_wire_bytes()].concat();
            let error = Response::from_wire_bytes(&payload).err();
            assert!(
                matches!(error, Some(WireError::InvalidTag { tag: t, .. }) if t == tag),
                "response tag {tag}: {error:?}"
            );
        }
        assert_eq!(Request::Ping.to_wire_bytes(), [1]);
        assert_eq!(after.first(), Some(&3));
        assert_eq!(Request::ShardInfo.to_wire_bytes(), [5]);
        assert_eq!(Request::ShardMap.to_wire_bytes(), [6]);
        let pinned = Request::QueryAt {
            epoch: 0,
            query: Query::top_k(vec![0.5], 1),
        };
        assert_eq!(pinned.to_wire_bytes().first(), Some(&7));
        assert_eq!(Request::StatsDeep.to_wire_bytes(), [9]);
        assert_eq!(Response::Pong.to_wire_bytes(), [1]);
    }

    #[test]
    fn nested_tagged_envelopes_are_rejected() {
        // A frame of correlation-tag envelopes, each wrapping the next, as
        // a peer of the retired protocol would nest them: the decoder
        // refuses the outermost tag byte and never looks inside.
        let mut w = Writer::new();
        for (level, tag) in [(1u64, 10u8), (2, 10)] {
            w.put_u8(tag);
            w.put_u64(level);
        }
        Request::Ping.encode(&mut w);
        assert!(matches!(
            Request::from_wire_bytes(&w.into_bytes()),
            Err(WireError::InvalidTag { tag: 10, .. })
        ));

        let mut w = Writer::new();
        for level in [1u64, 2] {
            w.put_u8(9);
            w.put_u64(level);
        }
        Response::Pong.encode(&mut w);
        assert!(matches!(
            Response::from_wire_bytes(&w.into_bytes()),
            Err(WireError::InvalidTag { tag: 9, .. })
        ));
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
        // A pin is part of the request: pinned and unpinned copies of one
        // query, and pins at two epochs, never share bytes.
        let pinned = |epoch| Request::QueryAt {
            epoch,
            query: Query::top_k(vec![0.5], 3),
        };
        assert_ne!(a.canonical_bytes(), pinned(0).canonical_bytes());
        assert_ne!(pinned(0).canonical_bytes(), pinned(1).canonical_bytes());
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
