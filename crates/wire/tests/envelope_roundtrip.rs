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
    fn requests_roundtrip_framed(parts in query_parts(), selector in 0u8..6, epoch_selector in 0u64..) {
        let request = match selector {
            0 => Request::Ping,
            1 => Request::Query(query_from(&parts)),
            2 => Request::ShardInfo,
            3 => Request::ShardMap,
            4 => Request::QueryAt {
                epoch: epoch_from(epoch_selector),
                query: query_from(&parts),
            },
            _ => Request::StatsDeep,
        };
        let bytes = request.to_framed_bytes();
        let back = Request::from_framed_bytes(&bytes);
        prop_assert_eq!(back.as_ref().ok(), Some(&request));
    }

    #[test]
    fn nested_tagged_frames_are_always_rejected(outer in 0u64.., inner in 0u64.., depth in 1usize..4) {
        // The correlation-tag envelopes are retired: a frame of them, however
        // deep and whatever the tags, is refused at its first byte.
        let nest = |tagged: u8, innermost: Vec<u8>| {
            let mut bytes = Vec::new();
            for tag in [outer].into_iter().chain(std::iter::repeat_n(inner, depth)) {
                bytes.push(tagged);
                bytes.extend_from_slice(&tag.to_le_bytes());
            }
            bytes.extend(innermost);
            bytes
        };
        let request = Request::from_wire_bytes(&nest(10, Request::Ping.to_wire_bytes()));
        prop_assert!(matches!(request, Err(WireError::InvalidTag { tag: 10, .. })));
        let response = Response::from_wire_bytes(&nest(9, Response::Pong.to_wire_bytes()));
        prop_assert!(matches!(response, Err(WireError::InvalidTag { tag: 9, .. })));
    }

    #[test]
    fn truncated_frames_never_decode(parts in query_parts(), cut_fraction in 0.0f64..1.0) {
        let request = Request::QueryAt { epoch: 7, query: query_from(&parts) };
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
        let request = Request::QueryAt { epoch: 7, query: query_from(&parts) };
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
                KindLatency { kind: "knn".into(), histogram },
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
                    addr: format!("127.0.0.1:{}", 4400 + shard_id),
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
        // object) rides inside the epoch-stamped Query response envelope;
        // both the stamp (at its boundary values) and the inner payload must
        // survive framing bit-exactly.
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
fn a_frame_of_nested_tags_is_refused_at_the_first_byte() {
    // Each level is the retired correlation-tag byte plus an 8-byte tag, so
    // a 16 MiB frame declares ≈1.9 M levels. A decoder that recursed into
    // the wrapped message before refusing the nesting overflowed a thread's
    // stack at a few thousand; the tag is retired, so the first byte is
    // refused and nothing behind it is read.
    const LEVELS: usize = (16 << 20) / 9;
    let nested = |tagged: u8, innermost: u8| {
        let mut bytes = Vec::with_capacity(LEVELS * 9 + 1);
        for level in 0..LEVELS as u64 {
            bytes.push(tagged);
            bytes.extend_from_slice(&level.to_le_bytes());
        }
        bytes.push(innermost);
        bytes
    };
    let requests = nested(10, 1); // around a Ping
    let responses = nested(9, 1); // around a Pong
    let small_stack = std::thread::Builder::new().stack_size(256 << 10);
    let decoded = small_stack.spawn(move || {
        (
            Request::from_wire_bytes(&requests).err(),
            Response::from_wire_bytes(&responses).err(),
        )
    });
    let (request, response) = decoded.unwrap().join().expect("decoding did not crash");
    assert!(
        matches!(request, Some(WireError::InvalidTag { tag: 10, .. })),
        "{request:?}"
    );
    assert!(
        matches!(response, Some(WireError::InvalidTag { tag: 9, .. })),
        "{response:?}"
    );
}

#[test]
fn pong_roundtrips_framed() {
    // The one payload-less response variant.
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
