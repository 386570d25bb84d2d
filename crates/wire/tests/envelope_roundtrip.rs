//! Property tests for the service envelope messages: random requests and
//! stats round-trip bit-exactly, and corrupted frames (truncation, bad
//! magic, forged length) are always rejected, never mis-decoded.

use proptest::prelude::*;
use vaq_authquery::Query;
use vaq_wire::{
    ErrorCode, ErrorCount, ErrorReply, KindLatency, KindStages, LatencyHistogram, ReactorStats,
    Request, Response, ShardEntry, ShardInfo, ShardMap, SignedShardMap, StageLatency, StageMicros,
    StatsDeep, StatsSnapshot, WireDecode, WireEncode, WireError, LATENCY_BUCKET_BOUNDS_MICROS,
};

/// Epoch values every epoch-carrying message is exercised with: both
/// boundaries (0, `u64::MAX`) plus interior values derived from the
/// generated selector.
fn epoch_from(selector: u64) -> u64 {
    match selector % 4 {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - (selector >> 2),
        _ => selector,
    }
}

/// Strategy for one random (always well-formed) query.
fn query_from(parts: &(u8, Vec<f64>, usize, f64, f64)) -> Query {
    let (kind, weights, k, a, b) = parts;
    let weights = if weights.is_empty() {
        vec![0.5]
    } else {
        weights.clone()
    };
    match kind % 3 {
        0 => Query::top_k(weights, *k),
        1 => {
            let (lower, upper) = if a <= b { (*a, *b) } else { (*b, *a) };
            Query::range(weights, lower, upper)
        }
        _ => Query::knn(weights, *k, *a),
    }
}

fn query_parts() -> impl Strategy<Value = (u8, Vec<f64>, usize, f64, f64)> {
    (
        0u8..=255,
        prop::collection::vec(-1e3f64..1e3, 1..5),
        0usize..20,
        -10.0f64..10.0,
        -10.0f64..10.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_roundtrip_framed(parts in query_parts(), selector in 0u8..9, epoch_selector in 0u64..) {
        let request = match selector {
            0 => Request::Ping,
            1 => Request::Batch(vec![query_from(&parts), query_from(&parts)]),
            2 => Request::Query(query_from(&parts)),
            3 => Request::ShardInfo,
            4 => Request::ShardMap,
            5 => Request::QueryAt {
                epoch: epoch_from(epoch_selector),
                query: query_from(&parts),
            },
            6 => Request::BatchAt {
                epoch: epoch_from(epoch_selector),
                queries: vec![query_from(&parts), query_from(&parts)],
            },
            7 => Request::StatsDeep,
            _ => Request::Tagged {
                tag: epoch_selector,
                request: Box::new(Request::Query(query_from(&parts))),
            },
        };
        let bytes = request.to_framed_bytes();
        let back = Request::from_framed_bytes(&bytes);
        prop_assert_eq!(back.as_ref().ok(), Some(&request));
    }

    #[test]
    fn tagged_requests_encode_canonically_and_expose_their_tag(
        parts in query_parts(),
        tag in 0u64..,
        other_tag in 0u64..,
    ) {
        // Bijectivity: the tagged canonical bytes determine (tag, request)
        // exactly, the inner slice equals the wrapped request's own
        // canonical bytes (so tagged and untagged copies of one query share
        // a response-cache entry), and peek_tag reads the tag without a
        // decode.
        let inner = Request::Query(query_from(&parts));
        let tagged = Request::Tagged { tag, request: Box::new(inner.clone()) };
        let bytes = tagged.canonical_bytes();
        let decoded = Request::from_wire_bytes(&bytes).ok();
        prop_assert_eq!(decoded.as_ref(), Some(&tagged));
        prop_assert_eq!(&tagged.canonical_bytes(), &bytes, "encoding must be deterministic");
        prop_assert_eq!(Request::peek_tag(&bytes), Some(tag));
        let (peeked, inner_bytes) = Request::split_tagged(&bytes).expect("tagged payload splits");
        prop_assert_eq!(peeked, tag);
        let inner_canonical = inner.canonical_bytes();
        prop_assert_eq!(inner_bytes, inner_canonical.as_slice());
        prop_assert_ne!(bytes.clone(), inner_canonical);
        if other_tag != tag {
            let retagged = Request::Tagged { tag: other_tag, request: Box::new(inner) };
            prop_assert_ne!(retagged.canonical_bytes(), bytes);
        }
    }

    #[test]
    fn tagged_responses_echo_the_tag_through_framing(tag in 0u64.., k in 1usize..4) {
        let inner = Response::Query { epoch: 3, response: sample_response(k) };
        let tagged = Response::Tagged { tag, response: Box::new(inner.clone()) };
        let bytes = tagged.to_framed_bytes();
        // The no-decode re-framing helper produces the identical frame.
        prop_assert_eq!(
            Response::tagged_frame_from_payload(tag, &inner.to_wire_bytes()),
            bytes.clone()
        );
        match Response::from_framed_bytes(&bytes) {
            Ok(Response::Tagged { tag: back, response }) => {
                prop_assert_eq!(back, tag);
                match (*response, inner) {
                    (
                        Response::Query { epoch: be, response: bp },
                        Response::Query { epoch: ie, response: ip },
                    ) => {
                        prop_assert_eq!(be, ie);
                        prop_assert_eq!(bp.records, ip.records);
                        prop_assert_eq!(bp.vo, ip.vo);
                    }
                    other => prop_assert!(false, "wrong inner decode: {:?}", other.0),
                }
            }
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }
    }

    #[test]
    fn nested_tagged_frames_are_always_rejected(outer in 0u64.., inner in 0u64..) {
        // A Tagged wrapping a Tagged has no meaningful reply pairing; the
        // decoder must reject every such frame, whatever the tags.
        let mut bytes = Vec::new();
        bytes.push(10u8); // request Tagged variant byte
        bytes.extend_from_slice(&outer.to_le_bytes());
        bytes.extend_from_slice(
            &Request::Tagged { tag: inner, request: Box::new(Request::Ping) }.to_wire_bytes(),
        );
        prop_assert!(matches!(
            Request::from_wire_bytes(&bytes),
            Err(WireError::InvalidTag { .. })
        ));

        let mut bytes = Vec::new();
        bytes.push(9u8); // response Tagged variant byte
        bytes.extend_from_slice(&outer.to_le_bytes());
        bytes.extend_from_slice(
            &Response::Tagged { tag: inner, response: Box::new(Response::Pong) }.to_wire_bytes(),
        );
        prop_assert!(matches!(
            Response::from_wire_bytes(&bytes),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn pinned_batches_encode_canonically_at_epoch_boundaries(
        parts in query_parts(),
        epoch_selector in 0u64..,
        batch_len in 0usize..4,
    ) {
        // The canonical encoding is bijective: the bytes determine (epoch,
        // queries) exactly, so a pinned batch at one epoch can never alias a
        // pinned batch at another epoch or an unpinned batch — which is what
        // the service's epoch-prefixed response-cache keys rely on.
        let epoch = epoch_from(epoch_selector);
        let queries: Vec<Query> = (0..batch_len).map(|_| query_from(&parts)).collect();
        let pinned = Request::BatchAt { epoch, queries: queries.clone() };
        let bytes = pinned.canonical_bytes();
        let decoded = Request::from_wire_bytes(&bytes).ok();
        prop_assert_eq!(decoded.as_ref(), Some(&pinned));
        prop_assert_eq!(&pinned.canonical_bytes(), &bytes, "encoding must be deterministic");
        let unpinned = Request::Batch(queries.clone());
        prop_assert_ne!(unpinned.canonical_bytes(), bytes.clone());
        if epoch != u64::MAX {
            let shifted = Request::BatchAt { epoch: epoch + 1, queries };
            prop_assert_ne!(shifted.canonical_bytes(), bytes);
        }
    }

    #[test]
    fn truncated_frames_never_decode(parts in query_parts(), cut_fraction in 0.0f64..1.0) {
        let request = Request::Batch(vec![query_from(&parts)]);
        let bytes = request.to_framed_bytes();
        // Any strict prefix must be rejected.
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        let result = Request::from_framed_bytes(&bytes[..cut]);
        prop_assert!(result.is_err(), "prefix of {} of {} decoded", cut, bytes.len());
    }

    #[test]
    fn bad_magic_is_rejected(parts in query_parts(), corrupt_byte in 0usize..4, xor in 1u8..=255) {
        let request = Request::Query(query_from(&parts));
        let mut bytes = request.to_framed_bytes();
        bytes[corrupt_byte] ^= xor;
        prop_assert_eq!(
            Request::from_framed_bytes(&bytes).err(),
            Some(WireError::BadMagic)
        );
    }

    #[test]
    fn forged_length_is_rejected(parts in query_parts(), delta in 1u32..1000) {
        let request = Request::Query(query_from(&parts));
        let mut bytes = request.to_framed_bytes();
        let declared = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
        let forged = declared.wrapping_add(delta).to_le_bytes();
        bytes[6..10].copy_from_slice(&forged);
        prop_assert!(matches!(
            Request::from_framed_bytes(&bytes),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn corrupting_any_payload_byte_never_panics(parts in query_parts(), position in 0usize..4096, xor in 1u8..=255) {
        let request = Request::Batch(vec![query_from(&parts), query_from(&parts)]);
        let mut bytes = request.to_wire_bytes();
        let position = position % bytes.len();
        bytes[position] ^= xor;
        // Decoding either fails cleanly or yields a different (valid)
        // request; both are fine — panicking or looping is not.
        let _ = Request::from_wire_bytes(&bytes);
    }

    #[test]
    fn stats_snapshots_roundtrip(
        counters in prop::collection::vec(0u64.., 6..=6),
        workers in 0u32..256,
        epoch_selector in 0u64..,
        counts in prop::collection::vec(0u64..1_000_000, 13..=13),
    ) {
        let histogram = LatencyHistogram {
            bucket_counts: counts.clone(),
            count: counts.iter().sum(),
            sum_micros: counters[0],
            max_micros: counters[1],
        };
        let stats = StatsSnapshot {
            requests_served: counters[0],
            cache_hits: counters[1],
            cache_misses: counters[2],
            bytes_in: counters[3],
            bytes_out: counters[4],
            errors: counters[5],
            workers,
            epoch: epoch_from(epoch_selector),
            per_kind: vec![
                KindLatency { kind: "topk".into(), histogram: histogram.clone() },
                KindLatency { kind: "batch".into(), histogram },
            ],
            uptime_micros: counters[2].wrapping_mul(3),
            cache_entries: counters[3] % 4096,
            cache_bytes: counters[4],
            cache_evictions: counters[5],
            per_error: vec![
                ErrorCount { code: "bad_query".into(), count: counters[0] },
                ErrorCount { code: "stale_epoch".into(), count: counters[1] },
            ],
        };
        // The flat snapshot travels only inside `StatsDeep`; its own
        // encoding must still round-trip field for field.
        let back = StatsSnapshot::from_wire_bytes(&stats.to_wire_bytes());
        prop_assert_eq!(back.ok(), Some(stats));
    }

    #[test]
    fn stats_deep_roundtrips_framed(
        counters in prop::collection::vec(0u64.., 6..=6),
        workers in 0u32..256,
        epoch_selector in 0u64..,
        counts in prop::collection::vec(0u64..1_000_000, 13..=13),
        stage_count in 0usize..8,
    ) {
        let histogram = LatencyHistogram {
            bucket_counts: counts.clone(),
            count: counts.iter().sum(),
            sum_micros: counters[0],
            max_micros: counters[1],
        };
        let stage_labels = [
            "queue_wait", "decode", "cache_lookup", "execute", "vo_build", "encode", "write",
        ];
        let deep = StatsDeep {
            snapshot: StatsSnapshot {
                requests_served: counters[0],
                cache_hits: counters[1],
                cache_misses: counters[2],
                bytes_in: counters[3],
                bytes_out: counters[4],
                errors: counters[5],
                workers,
                epoch: epoch_from(epoch_selector),
                per_kind: vec![
                    KindLatency { kind: "range".into(), histogram: histogram.clone() },
                ],
                uptime_micros: counters[0].wrapping_add(counters[1]),
                cache_entries: counters[2] % 1024,
                cache_bytes: counters[3],
                cache_evictions: counters[4] % 100,
                per_error: vec![
                    ErrorCount { code: "malformed".into(), count: counters[5] },
                ],
            },
            per_stage: stage_labels[..stage_count]
                .iter()
                .map(|stage| StageLatency {
                    stage: (*stage).into(),
                    histogram: histogram.clone(),
                })
                .collect(),
            per_kind_stage: vec![KindStages {
                kind: "knn".into(),
                stages: stage_labels[..stage_count]
                    .iter()
                    .map(|stage| StageMicros {
                        stage: (*stage).into(),
                        count: counters[0],
                        sum_micros: counters[1],
                        max_micros: counters[2],
                    })
                    .collect(),
            }],
            reactor: ReactorStats {
                sweeps: histogram.clone(),
                reactor_stalls: counters[3],
                slow_readers_shed: counters[4],
                connections_shed: counters[5],
            },
        };
        let response = Response::StatsDeep(deep.clone());
        let bytes = response.to_framed_bytes();
        match Response::from_framed_bytes(&bytes) {
            Ok(Response::StatsDeep(back)) => prop_assert_eq!(back, deep),
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }
        // The canonical encoding stays deterministic.
        let reencoded = Response::StatsDeep(deep).to_framed_bytes();
        prop_assert_eq!(reencoded, bytes);
    }

    #[test]
    fn error_replies_roundtrip(code_selector in 0u8..9, message in prop::collection::vec(32u8..127, 0..64)) {
        let code = [
            ErrorCode::Malformed,
            ErrorCode::BadQuery,
            ErrorCode::FrameTooLarge,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::NotSharded,
            ErrorCode::StaleEpoch,
            ErrorCode::Overloaded,
            ErrorCode::Stalled,
        ][code_selector as usize];
        let reply = ErrorReply {
            code,
            message: String::from_utf8(message).unwrap(),
        };
        let bytes = Response::Error(reply.clone()).to_framed_bytes();
        match Response::from_framed_bytes(&bytes) {
            Ok(Response::Error(back)) => prop_assert_eq!(back, reply),
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }
    }

    #[test]
    fn shard_info_roundtrips_at_epoch_boundaries(
        shard_id in 0u32..,
        shard_count in 0u32..,
        records in 0u64..,
        epoch_selector in 0u64..,
    ) {
        let info = ShardInfo {
            shard_id,
            shard_count,
            records,
            epoch: epoch_from(epoch_selector),
        };
        let bytes = Response::ShardInfo(info).to_framed_bytes();
        match Response::from_framed_bytes(&bytes) {
            Ok(Response::ShardInfo(back)) => prop_assert_eq!(back, info),
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }
    }

    #[test]
    fn signed_shard_maps_roundtrip_and_redigest_canonically(
        epoch_selector in 0u64..,
        records in prop::collection::vec(1u64..1_000, 1..4),
        addr_count in 0usize..3,
        key_seed in 0u64..8,
    ) {
        use vaq_crypto::{SignatureScheme, Signer, Verifier};
        let scheme = SignatureScheme::test_rsa(key_seed);
        let epoch = epoch_from(epoch_selector);
        let map = ShardMap {
            epoch,
            shard_count: records.len() as u32,
            total_records: records.iter().sum(),
            dims: 2,
            shards: records
                .iter()
                .enumerate()
                .map(|(shard_id, n)| ShardEntry {
                    shard_id: shard_id as u32,
                    records: *n,
                    public_key: scheme.public_key(),
                    addrs: (0..addr_count)
                        .map(|r| format!("127.0.0.1:{}", 4400 + shard_id * 4 + r))
                        .collect(),
                })
                .collect(),
        };
        let signed = SignedShardMap {
            signature: scheme.sign_digest(&map.digest()),
            map,
        };
        let bytes = Response::ShardMap(signed.clone()).to_framed_bytes();
        match Response::from_framed_bytes(&bytes) {
            Ok(Response::ShardMap(back)) => {
                // The decoded copy commits to the same canonical bytes, so
                // a signature check on the decoded map checks the same
                // digest the owner signed.
                prop_assert_eq!(back.map.digest(), signed.map.digest());
                prop_assert!(scheme.public_key().verify_digest(&back.map.digest(), &back.signature));
                prop_assert_eq!(back, signed);
            }
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }
    }

    #[test]
    fn query_responses_roundtrip_with_epoch_stamp(epoch_selector in 0u64.., k in 1usize..5) {
        // A *real* server-produced QueryResponse (records + verification
        // object) rides inside the epoch-stamped Query and Batch response
        // envelopes; both the stamp (at its boundary values) and the inner
        // payload must survive framing bit-exactly.
        let epoch = epoch_from(epoch_selector);
        let inner = sample_response(k);
        let response = Response::Query { epoch, response: inner.clone() };
        let bytes = response.to_framed_bytes();
        match Response::from_framed_bytes(&bytes) {
            Ok(Response::Query { epoch: back, response: payload }) => {
                prop_assert_eq!(back, epoch);
                prop_assert_eq!(&payload.records, &inner.records);
                prop_assert_eq!(&payload.vo, &inner.vo);
            }
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }

        let batch = Response::Batch { epoch, responses: vec![inner.clone(), inner.clone()] };
        let bytes = batch.to_framed_bytes();
        match Response::from_framed_bytes(&bytes) {
            Ok(Response::Batch { epoch: back, responses }) => {
                prop_assert_eq!(back, epoch);
                prop_assert_eq!(responses.len(), 2);
                prop_assert_eq!(&responses[0].records, &inner.records);
                prop_assert_eq!(&responses[1].vo, &inner.vo);
            }
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }
    }
}

/// One real server-produced response per `k`, built lazily and shared
/// across proptest cases (the owner-side tree build is far too expensive
/// to repeat per case).
fn sample_response(k: usize) -> vaq_authquery::QueryResponse {
    use std::sync::OnceLock;
    use vaq_authquery::{IfmhTree, Server, SigningMode};
    use vaq_crypto::SignatureScheme;
    use vaq_workload::uniform_dataset;

    static SERVER: OnceLock<Server> = OnceLock::new();
    let server = SERVER.get_or_init(|| {
        let dataset = uniform_dataset(8, 1, 0x77);
        let scheme = SignatureScheme::test_rsa(0x77);
        let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
        Server::new(dataset, tree)
    });
    server.process(&Query::top_k(vec![0.5], k))
}

#[test]
fn pong_roundtrips_framed() {
    // The one payload-less response variant; surfaced as uncovered by the
    // vaq-lint wire-exhaustiveness pass.
    let bytes = Response::Pong.to_framed_bytes();
    assert!(matches!(
        Response::from_framed_bytes(&bytes),
        Ok(Response::Pong)
    ));
    assert_eq!(
        Response::Pong.to_framed_bytes(),
        bytes,
        "encoding must be deterministic"
    );
}

#[test]
fn bucket_bounds_are_strictly_increasing() {
    for pair in LATENCY_BUCKET_BOUNDS_MICROS.windows(2) {
        assert!(pair[0] < pair[1]);
    }
}
