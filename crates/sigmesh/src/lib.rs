//! The signature-mesh baseline (Yang, Cai & Hu, "Authentication of function
//! queries", ICDE 2016), re-implemented as the head-to-head comparator for
//! every figure of the paper's evaluation.
//!
//! The scheme works directly from the theorem of function sortability: the
//! pairwise intersections of the database's functions partition the weight
//! domain into subdomains, inside each of which the functions have one fixed
//! order. For every subdomain the data owner signs each pair of *consecutive*
//! entries of the sorted list (including the `min`/`max` tokens); the set of
//! all these signatures is the signature mesh.
//!
//! At query time the server performs a **linear search** over the subdomains
//! to find the one containing the query's weight vector (this linear search
//! is the main server-side cost the paper improves upon), extracts the
//! result window from the sorted list, and returns the chain of pair
//! signatures covering the window plus one boundary record on each side. The
//! client verifies every pair signature — `|q| + 1` expensive public-key
//! operations versus a single one for the IFMH schemes, which is exactly the
//! user-side cost gap shown in Fig. 7.
//!
//! Simplification relative to [20]: the original mesh merges the signature of
//! a pair that stays consecutive across several *adjacent* subdomains into
//! one signature. This implementation signs per subdomain (the upper bound
//! the paper quotes, "number of subdomains times the total number of
//! records"); the comparative shapes of Figs. 5–8 are unaffected because the
//! mesh remains the scheme whose signature count scales with the arrangement
//! size. See DESIGN.md for the full substitution note.

#![warn(missing_docs)]

pub mod build;
pub mod verify;
pub mod vo;

pub use build::{MeshCell, SignatureMesh};
pub use verify::verify as verify_mesh_response;
pub use vo::{MeshBoundary, MeshResponse, MeshVo};

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_authquery::Query;
    use vaq_crypto::{SignatureScheme, Signer};
    use vaq_workload::uniform_dataset;

    #[test]
    fn mesh_end_to_end_all_query_types() {
        let ds = uniform_dataset(10, 1, 21);
        let scheme = SignatureScheme::test_rsa(5);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let verifier = scheme.verifier();
        for query in [
            Query::top_k(vec![0.7], 3),
            Query::range(vec![0.4], 0.2, 0.6),
            Query::knn(vec![0.3], 4, 0.5),
        ] {
            let resp = mesh.process(&ds, &query);
            let out = verify_mesh_response(&query, &resp, &ds.template, verifier.as_ref());
            assert!(out.is_ok(), "{query}: {:?}", out.err());
        }
    }

    #[test]
    fn mesh_signature_count_scales_with_cells_times_records() {
        let ds = uniform_dataset(8, 1, 22);
        let scheme = SignatureScheme::test_rsa(6);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let expected = mesh.cell_count() * (ds.len() + 1);
        assert_eq!(mesh.stats().signatures, expected);
        assert!(mesh.stats().signatures > 1);
    }

    #[test]
    fn mesh_vo_wire_size_scales_with_result_length() {
        let ds = uniform_dataset(40, 1, 62);
        let scheme = SignatureScheme::test_rsa(62);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let small = mesh.process(&ds, &Query::top_k(vec![0.5], 2));
        let large = mesh.process(&ds, &Query::top_k(vec![0.5], 30));
        assert!(large.vo.byte_size() > small.vo.byte_size() * 5);
    }

    #[test]
    fn mesh_detects_dropped_record() {
        let ds = uniform_dataset(12, 1, 23);
        let scheme = SignatureScheme::test_rsa(7);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let verifier = scheme.verifier();
        let query = Query::range(vec![0.5], 0.1, 0.9);
        let mut resp = mesh.process(&ds, &query);
        assert!(resp.records.len() >= 2);
        resp.records.remove(resp.records.len() / 2);
        let out = verify_mesh_response(&query, &resp, &ds.template, verifier.as_ref());
        assert!(out.is_err());
    }

    #[test]
    fn mesh_detects_modified_record_and_tampered_signature() {
        let ds = uniform_dataset(12, 1, 24);
        let scheme = SignatureScheme::test_rsa(8);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let verifier = scheme.verifier();
        let query = Query::top_k(vec![0.6], 4);

        let mut resp = mesh.process(&ds, &query);
        resp.records[0].attrs[0] += 0.01;
        assert!(verify_mesh_response(&query, &resp, &ds.template, verifier.as_ref()).is_err());

        let mut resp = mesh.process(&ds, &query);
        if let vaq_crypto::Signature::Rsa(sig) = &mut resp.vo.pair_signatures[0] {
            sig.bytes[0] ^= 1;
        }
        assert!(verify_mesh_response(&query, &resp, &ds.template, verifier.as_ref()).is_err());
    }

    #[test]
    fn mesh_and_ifmh_server_select_the_same_window() {
        // One selector serves both schemes: on the same subdomain they
        // return the same records between the same flanks, empty answers
        // (above, below and between the scores) included.
        use vaq_authquery::{BoundaryEntry, IfmhTree, Server, SigningMode};
        let ds = uniform_dataset(14, 2, 26);
        let scheme = SignatureScheme::test_rsa(10);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let tree = IfmhTree::build(&ds, SigningMode::OneSignature, &scheme);
        let server = Server::new(ds.clone(), tree);
        let mesh_flank = |b: &MeshBoundary| match b {
            MeshBoundary::Record(r) => Some(r.id),
            _ => None,
        };
        let ifmh_flank = |b: &BoundaryEntry| match b {
            BoundaryEntry::Record(r) => Some(r.id),
            _ => None,
        };
        for x in [vec![0.3, 0.7], vec![0.61, 0.17], vec![0.9, 0.45]] {
            for query in [
                Query::top_k(x.clone(), 0),
                Query::top_k(x.clone(), 3),
                Query::top_k(x.clone(), 40),
                Query::range(x.clone(), 0.2, 0.5),
                Query::range(x.clone(), 0.4, 0.4),
                Query::range(x.clone(), 5.0, 6.0),
                Query::range(x.clone(), -1.0, -0.5),
                Query::knn(x.clone(), 4, 0.4),
                Query::knn(x.clone(), 0, 0.4),
            ] {
                let by_mesh = mesh.process(&ds, &query);
                let by_ifmh = server.process(&query);
                assert_eq!(by_mesh.records, by_ifmh.records, "{query}");
                assert_eq!(
                    mesh_flank(&by_mesh.vo.left_boundary),
                    ifmh_flank(&by_ifmh.vo.left_boundary),
                    "{query}"
                );
                assert_eq!(
                    mesh_flank(&by_mesh.vo.right_boundary),
                    ifmh_flank(&by_ifmh.vo.right_boundary),
                    "{query}"
                );
            }
        }
    }

    #[test]
    fn mesh_server_cost_reflects_linear_search() {
        let ds = uniform_dataset(10, 1, 25);
        let scheme = SignatureScheme::test_rsa(9);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let query = Query::top_k(vec![0.9], 2);
        let resp = mesh.process(&ds, &query);
        assert!(resp.cost.imh_nodes_visited >= 1);
        assert!(resp.cost.imh_nodes_visited <= mesh.cell_count());
    }
}
