//! Wire encodings for the signature-mesh baseline's messages.

use crate::codec::{wire_enum, wire_struct};
use vaq_sigmesh::{MeshBoundary, MeshResponse, MeshVo};

wire_enum!(MeshBoundary {
    1 => MinToken,
    2 => MaxToken,
    3 => Record(record),
});

wire_struct! {
    MeshVo { subdomain, left_boundary, right_boundary, pair_signatures }
    MeshResponse { records, vo, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::Writer;
    use crate::{WireDecode, WireEncode, WireError};
    use vaq_authquery::Query;
    use vaq_crypto::{SignatureScheme, Signer};
    use vaq_sigmesh::{verify_mesh_response, SignatureMesh};
    use vaq_workload::uniform_dataset;

    #[test]
    fn mesh_response_roundtrip_still_verifies() {
        let dataset = uniform_dataset(10, 1, 61);
        let scheme = SignatureScheme::test_rsa(61);
        let mesh = SignatureMesh::build(&dataset, &scheme);
        let verifier = scheme.verifier();
        for query in [
            Query::top_k(vec![0.4], 3),
            Query::range(vec![0.6], 0.2, 0.7),
        ] {
            let resp = mesh.process(&dataset, &query);
            let bytes = resp.to_framed_bytes();
            let back = MeshResponse::from_framed_bytes(&bytes).unwrap();
            assert_eq!(resp.records, back.records);
            assert_eq!(resp.vo.pair_signatures, back.vo.pair_signatures);
            assert!(
                verify_mesh_response(&query, &back, &dataset.template, verifier.as_ref()).is_ok()
            );
        }
    }

    #[test]
    fn mesh_vo_wire_size_scales_with_result_length() {
        let dataset = uniform_dataset(40, 1, 62);
        let scheme = SignatureScheme::test_rsa(62);
        let mesh = SignatureMesh::build(&dataset, &scheme);
        let small = mesh.process(&dataset, &Query::top_k(vec![0.5], 2));
        let large = mesh.process(&dataset, &Query::top_k(vec![0.5], 30));
        assert!(large.vo.to_wire_bytes().len() > small.vo.to_wire_bytes().len() * 5);
    }

    #[test]
    fn mesh_boundary_invalid_tag() {
        let mut w = Writer::new();
        w.put_u8(77);
        assert!(matches!(
            MeshBoundary::from_wire_bytes(&w.into_bytes()),
            Err(WireError::InvalidTag { .. })
        ));
    }
}
