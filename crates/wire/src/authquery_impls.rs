//! Wire encodings for the IFMH protocol messages: queries, verification
//! objects and full query responses.

use crate::codec::{wire_enum, wire_struct};
use crate::error::WireError;
use crate::io::{Reader, Writer};
use crate::{WireDecode, WireEncode};
use vaq_authquery::cost::ServerCost;
use vaq_authquery::{
    BoundaryEntry, IntersectionVerification, IvStep, Query, QueryResponse, VerificationObject,
};
use vaq_mht::{ProofNode, RangeProof};

const QUERY_TAG_TOPK: u8 = 1;
const QUERY_TAG_RANGE: u8 = 2;
const QUERY_TAG_KNN: u8 = 3;

/// Written by hand: `k` is a `usize` carried as a `u32`, and a range query
/// whose bounds are NaN or out of order is refused at decode time rather
/// than left to panic later in [`Query::range`].
impl WireEncode for Query {
    fn encode(&self, w: &mut Writer) {
        match self {
            Query::TopK { weights, k } => {
                w.put_u8(QUERY_TAG_TOPK);
                weights.encode(w);
                w.put_u32(*k as u32);
            }
            Query::Range {
                weights,
                lower,
                upper,
            } => {
                w.put_u8(QUERY_TAG_RANGE);
                weights.encode(w);
                w.put_f64(*lower);
                w.put_f64(*upper);
            }
            Query::Knn { weights, k, target } => {
                w.put_u8(QUERY_TAG_KNN);
                weights.encode(w);
                w.put_u32(*k as u32);
                w.put_f64(*target);
            }
        }
    }
}

impl WireDecode for Query {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            QUERY_TAG_TOPK => Ok(Query::TopK {
                weights: Vec::decode(r)?,
                k: r.get_u32()? as usize,
            }),
            QUERY_TAG_RANGE => {
                let weights = Vec::decode(r)?;
                let lower = r.get_f64()?;
                let upper = r.get_f64()?;
                if lower.is_nan() || upper.is_nan() || lower > upper {
                    return Err(WireError::InvalidFloat);
                }
                Ok(Query::Range {
                    weights,
                    lower,
                    upper,
                })
            }
            QUERY_TAG_KNN => Ok(Query::Knn {
                weights: Vec::decode(r)?,
                k: r.get_u32()? as usize,
                target: r.get_f64()?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "Query",
                tag,
            }),
        }
    }
}

/// Written by hand: the counters are `usize`s carried as `u64`s.
impl WireEncode for ServerCost {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.imh_nodes_visited as u64);
        w.put_u64(self.fmh_nodes_visited as u64);
        w.put_u64(self.vo_nodes_collected as u64);
        w.put_u64(self.result_len as u64);
    }
}

impl WireDecode for ServerCost {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ServerCost {
            imh_nodes_visited: r.get_u64()? as usize,
            fmh_nodes_visited: r.get_u64()? as usize,
            vo_nodes_collected: r.get_u64()? as usize,
            result_len: r.get_u64()? as usize,
        })
    }
}

wire_enum!(BoundaryEntry {
    1 => MinSentinel,
    2 => MaxSentinel,
    3 => Record(record),
});

wire_enum!(IntersectionVerification {
    1 => OneSignature { path },
    2 => MultiSignature { halfspaces },
});

wire_struct! {
    ProofNode { layer, index, hash }
    RangeProof { leaf_count, nodes }
    IvStep { pair, coeffs, constant, sibling_hash, went_above }
    VerificationObject {
        first_leaf, left_boundary, right_boundary, range_proof, intersection_verification,
        signature,
    }
    QueryResponse { records, vo, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_authquery::{client, IfmhTree, Server, SigningMode};
    use vaq_crypto::{SignatureScheme, Signer};
    use vaq_workload::uniform_dataset;

    fn roundtrip_response(mode: SigningMode, query: &Query) {
        let dataset = uniform_dataset(12, 1, 55);
        let scheme = SignatureScheme::test_rsa(55);
        let tree = IfmhTree::build(&dataset, mode, &scheme);
        let server = Server::new(dataset.clone(), tree);
        let response = server.process(query);

        // Query, result and VO all survive a framed roundtrip.
        let q2 = Query::from_framed_bytes(&query.to_framed_bytes()).unwrap();
        assert_eq!(*query, q2);
        let r2 = QueryResponse::from_framed_bytes(&response.to_framed_bytes()).unwrap();
        assert_eq!(response.records, r2.records);
        assert_eq!(response.vo, r2.vo);
        assert_eq!(response.cost, r2.cost);

        // ...and the decoded response still verifies against the owner key.
        let verifier = scheme.verifier();
        let out = client::verify(
            &q2,
            &r2.records,
            &r2.vo,
            &dataset.template,
            verifier.as_ref(),
        );
        assert!(out.is_ok(), "{mode}: {:?}", out.err());
    }

    #[test]
    fn query_roundtrips() {
        let queries = vec![
            Query::top_k(vec![0.3, 0.7], 5),
            Query::range(vec![0.5], 0.1, 0.9),
            Query::knn(vec![0.2, 0.4, 0.6], 3, 0.75),
        ];
        for q in queries {
            assert_eq!(Query::from_wire_bytes(&q.to_wire_bytes()).unwrap(), q);
        }
    }

    /// Why `value` fails to decode once the flag byte at `at` is `0x02`.
    fn with_flag_two<T: WireEncode + WireDecode>(value: &T, at: usize) -> Option<WireError> {
        let mut bytes = value.to_wire_bytes();
        assert!(bytes[at] <= 1, "byte {at} is not a flag");
        bytes[at] = 2;
        T::from_wire_bytes(&bytes).err()
    }

    #[test]
    fn every_flag_byte_is_zero_or_one() {
        // A flag that read any non-zero byte as `true` would give one value
        // many encodings; each of these three must be refused instead.
        let refused = Some(WireError::InvalidTag {
            type_name: "bool",
            tag: 2,
        });
        // HalfSpace: one coefficient, the constant, `non_negative`, then the
        // flag of the absent pair.
        let halfspace = vaq_funcdb::HalfSpace::raw(vec![1.0], 0.25, true);
        assert_eq!(with_flag_two(&halfspace, 4 + 8 + 8), refused);
        assert_eq!(with_flag_two(&halfspace, 4 + 8 + 8 + 1), refused);
        // IvStep: the pair, one coefficient, the constant, the sibling
        // hash, then `went_above`.
        let step = IvStep {
            pair: (1, 2),
            coeffs: vec![0.5],
            constant: -1.0,
            sibling_hash: [3; 32],
            went_above: false,
        };
        assert_eq!(with_flag_two(&step, 8 + 4 + 8 + 8 + 32), refused);
    }

    #[test]
    fn malformed_range_query_rejected() {
        // lower > upper must be rejected at decode time rather than panicking
        // later inside Query::range.
        let mut w = Writer::new();
        w.put_u8(2);
        vec![0.5].encode(&mut w);
        w.put_f64(0.9);
        w.put_f64(0.1);
        assert_eq!(
            Query::from_wire_bytes(&w.into_bytes()),
            Err(WireError::InvalidFloat)
        );
    }

    #[test]
    fn one_signature_response_roundtrip_verifies() {
        roundtrip_response(SigningMode::OneSignature, &Query::top_k(vec![0.6], 4));
        roundtrip_response(
            SigningMode::OneSignature,
            &Query::range(vec![0.3], 0.2, 0.8),
        );
    }

    #[test]
    fn multi_signature_response_roundtrip_verifies() {
        roundtrip_response(SigningMode::MultiSignature, &Query::knn(vec![0.4], 3, 0.5));
        roundtrip_response(SigningMode::MultiSignature, &Query::top_k(vec![0.8], 2));
    }

    #[test]
    fn encoded_vo_size_close_to_accounting_estimate() {
        // VerificationObject::byte_size is the paper-style accounting figure;
        // the wire encoding should be in the same ballpark (within 2x).
        let dataset = uniform_dataset(30, 1, 56);
        let scheme = SignatureScheme::test_rsa(56);
        let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
        let server = Server::new(dataset.clone(), tree);
        let resp = server.process(&Query::range(vec![0.5], 0.2, 0.7));
        let estimate = resp.vo.byte_size();
        let actual = resp.vo.to_wire_bytes().len();
        assert!(
            actual >= estimate / 2 && actual <= estimate * 2,
            "estimate {estimate} vs encoded {actual}"
        );
    }

    #[test]
    fn corrupting_any_byte_never_panics() {
        let dataset = uniform_dataset(8, 1, 57);
        let scheme = SignatureScheme::test_rsa(57);
        let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
        let server = Server::new(dataset.clone(), tree);
        let resp = server.process(&Query::top_k(vec![0.5], 3));
        let bytes = resp.vo.to_wire_bytes();
        // Flip one byte at a time across the buffer: decoding must either
        // fail cleanly or produce a VO that fails verification — never panic.
        let verifier = scheme.verifier();
        let query = Query::top_k(vec![0.5], 3);
        for i in (0..bytes.len()).step_by(7) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x55;
            if let Ok(vo) = VerificationObject::from_wire_bytes(&corrupted) {
                let _ = client::verify(
                    &query,
                    &resp.records,
                    &vo,
                    &dataset.template,
                    verifier.as_ref(),
                );
            }
        }
    }
}
