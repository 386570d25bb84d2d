//! The bytes of every wire message, recorded once: one SHA-256 per sample
//! in [`samples`], covering every `Request` and `Response` variant, every
//! `ErrorCode`, a populated `StatsDeep`, RSA- and DSA-signed shard maps,
//! both signing modes' `QueryResponse`, a `MeshResponse` and every variant
//! of the enums those carry. A change to how any message is encoded moves a
//! digest here, whatever the round-trip tests say.
//!
//! The same list is the round-trip list: every sample decodes and
//! re-encodes to its own bytes, and every tag a wire enum's decoder accepts
//! is the first byte of at least one sample of that enum.

use std::any::type_name;
use std::sync::OnceLock;

use vaq_authquery::{
    BoundaryEntry, IfmhTree, IntersectionVerification, Query, Server, SigningMode,
};
use vaq_crypto::sha256::{sha256, to_hex};
use vaq_crypto::{PublicKey, Signature, SignatureScheme, Signer};
use vaq_funcdb::{FuncId, FunctionTemplate, LinearFunction, Record};
use vaq_sigmesh::{MeshBoundary, SignatureMesh};
use vaq_wire::{
    ErrorCode, ErrorCount, ErrorReply, KindLatency, KindStages, LatencyHistogram, ReactorStats,
    Request, Response, ShardEntry, ShardInfo, ShardMap, SignedShardMap, StageLatency, StageMicros,
    StatsDeep, StatsSnapshot, WireDecode, WireEncode, WireError,
};
use vaq_workload::uniform_dataset;

/// One encoded message of a known type.
struct Sample {
    /// The Rust type the bytes encode.
    ty: &'static str,
    /// What the sample is, as printed in [`RECORDED`].
    name: String,
    /// The unframed encoding.
    bytes: Vec<u8>,
    /// Decodes `bytes` as `ty` and encodes the result again.
    reencode: fn(&[u8]) -> Result<Vec<u8>, WireError>,
}

fn reencode<T: WireEncode + WireDecode>(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    T::from_wire_bytes(bytes).map(|value| value.to_wire_bytes())
}

fn sample<T: WireEncode + WireDecode>(name: impl Into<String>, value: &T) -> Sample {
    Sample {
        ty: type_name::<T>(),
        name: name.into(),
        bytes: value.to_wire_bytes(),
        reencode: reencode::<T>,
    }
}

fn histogram(scale: u64) -> LatencyHistogram {
    let bucket_counts: Vec<u64> = (0..13).map(|i| i * scale).collect();
    LatencyHistogram {
        count: bucket_counts.iter().sum(),
        bucket_counts,
        sum_micros: 4_200 * scale,
        max_micros: 900 * scale,
    }
}

fn stats_deep() -> StatsDeep {
    StatsDeep {
        snapshot: StatsSnapshot {
            requests_served: 10,
            cache_hits: 4,
            cache_misses: 6,
            bytes_in: 1_234,
            bytes_out: 99_999,
            errors: 1,
            workers: 8,
            epoch: 3,
            per_kind: vec![KindLatency {
                kind: "topk".into(),
                histogram: histogram(1),
            }],
            uptime_micros: 5_000_000,
            cache_entries: 12,
            cache_bytes: 4_096,
            cache_evictions: 3,
            per_error: ErrorCode::ALL
                .iter()
                .map(|code| ErrorCount {
                    code: code.label().into(),
                    count: code.index() as u64,
                })
                .collect(),
        },
        per_stage: vec![
            StageLatency {
                stage: "queue_wait".into(),
                histogram: histogram(2),
            },
            StageLatency {
                stage: "execute".into(),
                histogram: LatencyHistogram::default(),
            },
        ],
        per_kind_stage: vec![KindStages {
            kind: "range".into(),
            stages: vec![StageMicros {
                stage: "vo_build".into(),
                count: 2,
                sum_micros: 840,
                max_micros: 500,
            }],
        }],
        reactor: ReactorStats {
            sweeps: histogram(3),
            reactor_stalls: 1,
            slow_readers_shed: 2,
            connections_shed: 5,
        },
    }
}

fn signed_map(scheme: &SignatureScheme, epoch: u64) -> SignedShardMap {
    let map = ShardMap {
        epoch,
        shard_count: 2,
        total_records: 11,
        dims: 2,
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
                addrs: vec![],
            },
        ],
    };
    SignedShardMap {
        signature: scheme.sign_digest(&map.digest()),
        map,
    }
}

/// The round-trip list, built once: owner builds and DSA signing are the
/// slow part, and the DSA nonce pool makes the signatures depend on the
/// order they are drawn in.
fn samples() -> &'static [Sample] {
    static SAMPLES: OnceLock<Vec<Sample>> = OnceLock::new();
    SAMPLES.get_or_init(build_samples)
}

fn build_samples() -> Vec<Sample> {
    let rsa = SignatureScheme::test_rsa(0x28);
    let dsa = SignatureScheme::test_dsa(0x28);
    let dataset = uniform_dataset(8, 1, 0x28);
    let respond = |mode: SigningMode, query: &Query| {
        let tree = IfmhTree::build_at_epoch(&dataset, mode, &rsa, 2);
        Server::new(dataset.clone(), tree).process(query)
    };
    let top_k = Query::top_k(vec![0.5], 3);
    let range = Query::range(vec![0.25, 0.75], 0.1, 0.9);
    let knn = Query::knn(vec![0.3, 0.7], 2, 0.4);
    let one = respond(SigningMode::OneSignature, &top_k);
    let multi = respond(
        SigningMode::MultiSignature,
        &Query::range(vec![0.6], 0.2, 0.7),
    );
    let mesh = SignatureMesh::build(&dataset, &rsa).process(&dataset, &Query::top_k(vec![0.4], 2));
    let labelled = Record::with_label(7, vec![0.5, -1.25], "alice");
    let digest = sha256(b"envelope vectors");

    let mut out = vec![
        sample("Request::Ping", &Request::Ping),
        sample("Request::Query", &Request::Query(top_k.clone())),
        sample(
            "Request::Batch",
            &Request::Batch(vec![range.clone(), knn.clone()]),
        ),
        sample("Request::ShardInfo", &Request::ShardInfo),
        sample("Request::ShardMap", &Request::ShardMap),
        sample(
            "Request::QueryAt",
            &Request::QueryAt {
                epoch: u64::MAX,
                query: knn.clone(),
            },
        ),
        sample(
            "Request::BatchAt",
            &Request::BatchAt {
                epoch: 5,
                queries: vec![top_k.clone(), range.clone()],
            },
        ),
        sample("Request::StatsDeep", &Request::StatsDeep),
        sample(
            "Request::Tagged",
            &Request::Tagged {
                tag: 0xDEAD_BEEF,
                request: Box::new(Request::Query(range.clone())),
            },
        ),
        sample("Query::TopK", &top_k),
        sample("Query::Range", &range),
        sample("Query::Knn", &knn),
        sample("Response::Pong", &Response::Pong),
        sample(
            "Response::Query(one signature)",
            &Response::Query {
                epoch: 2,
                response: one.clone(),
            },
        ),
        sample(
            "Response::Batch(multi signature, one signature)",
            &Response::Batch {
                epoch: 2,
                responses: vec![multi.clone(), one.clone()],
            },
        ),
        sample(
            "Response::ShardInfo",
            &Response::ShardInfo(ShardInfo {
                shard_id: 1,
                shard_count: 2,
                records: 5,
                epoch: 9,
            }),
        ),
        sample(
            "Response::ShardMap(rsa)",
            &Response::ShardMap(signed_map(&rsa, 4)),
        ),
        sample(
            "Response::ShardMap(dsa)",
            &Response::ShardMap(signed_map(&dsa, 0)),
        ),
        sample("Response::StatsDeep", &Response::StatsDeep(stats_deep())),
        sample(
            "Response::Tagged",
            &Response::Tagged {
                tag: 7,
                response: Box::new(Response::Query {
                    epoch: 2,
                    response: one.clone(),
                }),
            },
        ),
    ];
    for code in ErrorCode::ALL {
        let reply = ErrorReply {
            code,
            message: format!("{} reply", code.label()),
        };
        out.push(sample(
            format!("Response::Error({code:?})"),
            &Response::Error(reply),
        ));
    }
    for code in ErrorCode::ALL {
        out.push(sample(format!("ErrorCode::{code:?}"), &code));
    }
    out.extend([
        sample("QueryResponse(one signature)", &one),
        sample("QueryResponse(multi signature)", &multi),
        sample(
            "IntersectionVerification::OneSignature",
            &one.vo.intersection_verification,
        ),
        sample(
            "IntersectionVerification::MultiSignature",
            &multi.vo.intersection_verification,
        ),
        sample("BoundaryEntry::MinSentinel", &BoundaryEntry::MinSentinel),
        sample("BoundaryEntry::MaxSentinel", &BoundaryEntry::MaxSentinel),
        sample(
            "BoundaryEntry::Record",
            &BoundaryEntry::Record(labelled.clone()),
        ),
        sample("Signature::Rsa", &rsa.sign_digest(&digest)),
        sample("Signature::Dsa", &dsa.sign_digest(&digest)),
        sample("PublicKey::Rsa", &rsa.public_key()),
        sample("PublicKey::Dsa", &dsa.public_key()),
        sample("MeshResponse", &mesh),
        sample("MeshBoundary::MinToken", &MeshBoundary::MinToken),
        sample("MeshBoundary::MaxToken", &MeshBoundary::MaxToken),
        sample("MeshBoundary::Record", &MeshBoundary::Record(labelled)),
        sample(
            "FunctionTemplate",
            &FunctionTemplate::new(vec!["gpa", "awards"]),
        ),
        sample(
            "LinearFunction",
            &LinearFunction::new(FuncId(3), vec![0.5, -0.25], 1.75),
        ),
    ]);
    out
}

/// Taken on the commit before the codecs became declarations, one line per
/// sample in `sha256sum` form: the SHA-256 of its unframed encoding, then its
/// name.
const RECORDED: &str = "\
4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a  Request::Ping
6428bfd325db1ef3fa57c6ff44dcfdc0cb5253be46d91f08e548321fd4d7193f  Request::Query
49e5a7d25cc42fbfc770758274ca1c0df3a452007e1e291501f7b3c1f81ae8de  Request::Batch
e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db  Request::ShardInfo
67586e98fad27da0b9968bc039a1ef34c939b9b8e523a8bef89d478608c5ecf6  Request::ShardMap
5a31f01776a0630ca6e6cc7ef91feab75b182f58f9284f2752a0e3476cc8b1a8  Request::QueryAt
28f2d2d57d1b55b5acf81674212de688b44ee5be6ff8d22c3b92d9411792b382  Request::BatchAt
2b4c342f5433ebe591a1da77e013d1b72475562d48578dca8b84bac6651c3cb9  Request::StatsDeep
74182e764aaa7b4b86ef0dd6e969703c70ed18cafa1a4c95879c9d27cd898ad3  Request::Tagged
7e1fdb16989086ed0ddf8e2578521e65c979b409f0ca0873fcba58b9d83cc803  Query::TopK
f53e12dc32f671d012e6a3cead2dd1410be6c5e53c09424c643d3b1f6cab599f  Query::Range
b7969a2910d1b598b9dfab25bfe2ab72aee3ba318f3265b5321c19e01439a069  Query::Knn
4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a  Response::Pong
463d04cf1e453e139f35f4d50be99c789d0124dccf1334abb6b9670045ced336  Response::Query(one signature)
aed6d7495373bce6ed2dd9c553e1de10145c6a41a497fc4a0af00119bb569dbc  Response::Batch(multi signature, one signature)
fb4ffb1616cb4c2129dc816b085c41fe1fb3f7e6987cbc458b66c59bf0d94d54  Response::ShardInfo
f8d445dcf5c77f4f41056619e027c909c518078f4338f2b7ba66b1ece3569e68  Response::ShardMap(rsa)
4a6e49d8aaaf0e622cf027caedc3c262479fb2f966c29b9c18364df0c0384d8e  Response::ShardMap(dsa)
71b0c72fc27deb597e429347da005a8b6ab5520fb0f909eb9bbd97165cab8408  Response::StatsDeep
6eca0ecde9d9176f49163bc66d018f249f8a67a540ae9d08e797f7fc004305b9  Response::Tagged
97a3b9a391e599075997be69b5e7f35637a0436fa75639684d1e38a1fc040b9b  Response::Error(Malformed)
a23b8ebfad67efa3ca94976d4c9d9b7c3cd3d53a4dc9d56c63c38d34af7657a7  Response::Error(BadQuery)
9430a7f41f46f818ab794d3af8fde23ca66b60944f3d9b4bdce1d778e441b825  Response::Error(FrameTooLarge)
b7a858929539bfe1bfa80761b4701ef024a075c0e5f8c6930c929c735d3886f1  Response::Error(Internal)
9148f5b06227db4308167bd0ad6c10d4209b1f469f9aabe3b1af2dc692c1d6f6  Response::Error(ShuttingDown)
ec6a13d9e1bf676ffd84a6a9a42d92cb08081966a9d9fd64ea9ddbbfd4de8442  Response::Error(NotSharded)
26d41692a35dda7fe71e8b03a3ea0347fcaabad2098cfc35e05175dfeb79d66e  Response::Error(StaleEpoch)
ef6ea6917c858238d8c754334966ffead2c41bc036259b659d20b805036a6f25  Response::Error(Overloaded)
37ca37b3e80cd3c6183f5643282e6c111cad4f9956b62332c254bab07926f772  Response::Error(Stalled)
4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a  ErrorCode::Malformed
dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986  ErrorCode::BadQuery
084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5  ErrorCode::FrameTooLarge
e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71  ErrorCode::Internal
e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db  ErrorCode::ShuttingDown
67586e98fad27da0b9968bc039a1ef34c939b9b8e523a8bef89d478608c5ecf6  ErrorCode::NotSharded
ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879  ErrorCode::StaleEpoch
beead77994cf573341ec17b58bbf7eb34d2711c993c1d976b128b3188dc1829a  ErrorCode::Overloaded
2b4c342f5433ebe591a1da77e013d1b72475562d48578dca8b84bac6651c3cb9  ErrorCode::Stalled
d9e54aa819f659c918f42e6ecd35d58ab83accb14ff79fd03004bd9828ef6264  QueryResponse(one signature)
c251125e170e6dd901e4a26e371206195a221186f225a2b6769cfcf8e2d45225  QueryResponse(multi signature)
957b88b12730e646e0f33d3618b77dfa579e8231e3c59c7104be7165611c8027  IntersectionVerification::OneSignature
395c2f5598a1643a205154c6f4c46ce36895b28e6c35660a95e5c6fd5ef9aeab  IntersectionVerification::MultiSignature
4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a  BoundaryEntry::MinSentinel
dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986  BoundaryEntry::MaxSentinel
32f408281989a5c439cab87d1108e078d52db8748d383730836dce908d90307d  BoundaryEntry::Record
07d12a0ffb7a4aec81217d5d76a4b35c1e578f89b25ce376849bd6a17d386031  Signature::Rsa
796606127c2e00107a0e7701a28d18880e70d5ddf9d0e33fb0a449966914ae58  Signature::Dsa
d5031f99de26c326bc7e390d522abcc390397d3f71dfde8c384c1b8f0b72613e  PublicKey::Rsa
c7954cf710c82882c90c140c747203935b2602410d54ad3e50b72ccc63daeee6  PublicKey::Dsa
7513f66bb5d5b4b0c7a9c738c3bc55bf02063a8b1afdf68ba4cfede61199a019  MeshResponse
4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a  MeshBoundary::MinToken
dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986  MeshBoundary::MaxToken
32f408281989a5c439cab87d1108e078d52db8748d383730836dce908d90307d  MeshBoundary::Record
7df423f7fbb521b40fb6aea9528197f777c4d461aac726896a5fe11948359392  FunctionTemplate
308350034f385a45930389b4638f8c33005a6521191eb287ad21cd0c6143d446  LinearFunction
";

#[test]
fn recorded_envelope_bytes_are_unchanged() {
    let actual: String = samples()
        .iter()
        .map(|s| format!("{}  {}\n", to_hex(&sha256(&s.bytes)), s.name))
        .collect();
    assert_eq!(actual, RECORDED, "actual:\n{actual}");
}

#[test]
fn every_sample_reencodes_to_its_own_bytes() {
    for s in samples() {
        let back = (s.reencode)(&s.bytes);
        assert_eq!(back.as_ref(), Ok(&s.bytes), "{} ({})", s.name, s.ty);
    }
}

/// The type name of `T` and every tag byte its decoder does not refuse as
/// an unknown tag on sight.
fn declared_tags<T: WireDecode>() -> (&'static str, Vec<u8>) {
    let declared = (0..=u8::MAX).filter(|&tag| {
        let refused = T::from_wire_bytes(&[tag]);
        !matches!(refused, Err(WireError::InvalidTag { tag: t, .. }) if t == tag)
    });
    (type_name::<T>(), declared.collect())
}

#[test]
fn every_tag_a_decoder_accepts_has_a_round_trip_sample() {
    let enums = [
        declared_tags::<Request>(),
        declared_tags::<Response>(),
        declared_tags::<ErrorCode>(),
        declared_tags::<Query>(),
        declared_tags::<BoundaryEntry>(),
        declared_tags::<IntersectionVerification>(),
        declared_tags::<Signature>(),
        declared_tags::<PublicKey>(),
        declared_tags::<MeshBoundary>(),
    ];
    for (ty, tags) in enums {
        assert!(tags.len() >= 2, "{ty} declares {tags:?}");
        for tag in tags {
            let covered = samples()
                .iter()
                .any(|s| s.ty == ty && s.bytes.first() == Some(&tag));
            assert!(
                covered,
                "{ty}: tag {tag} has no sample in the round-trip list"
            );
        }
    }
}
