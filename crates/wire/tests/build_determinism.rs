//! The owner's batch signing must be invisible on the wire: a tree built
//! through [`Signer::sign_digests`] as [`SignatureScheme`] implements it
//! (an RSA batch this size is split over the machine's cores) and one built
//! through a signer that only forwards `sign_digest` (the trait's
//! sequential default) must answer every query with byte-identical
//! verification objects — for RSA, where signing is a pure function of key
//! and digest, and for DSA, where it also depends on the order the seeded
//! nonce pool is drawn in.

use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::sha256::Digest;
use vaq_crypto::{Signature, SignatureScheme, Signer, Verifier};
use vaq_wire::WireEncode;
use vaq_workload::uniform_dataset;

/// Hides the wrapped scheme's `sign_digests`, so the build falls back to
/// the default: one `sign_digest` call per digest, in order.
struct OneByOne(SignatureScheme);

impl Signer for OneByOne {
    fn sign_digest(&self, digest: &Digest) -> Signature {
        self.0.sign_digest(digest)
    }

    fn verifier(&self) -> Box<dyn Verifier> {
        self.0.verifier()
    }
}

#[test]
fn batch_signed_and_one_by_one_signed_trees_answer_with_identical_bytes() {
    let dims = 2;
    let dataset = uniform_dataset(40, dims, 7);
    // Two schemes from one seed each: the DSA nonce pool is consumed as it
    // signs, so each build needs its own.
    let pairs = [
        (
            "rsa",
            SignatureScheme::test_rsa(9),
            SignatureScheme::test_rsa(9),
        ),
        (
            "dsa",
            SignatureScheme::test_dsa(9),
            SignatureScheme::test_dsa(9),
        ),
    ];
    for (name, batch, one_by_one) in pairs {
        let one_by_one = OneByOne(one_by_one);
        let mode = SigningMode::MultiSignature;
        let batch_tree = IfmhTree::build_at_epoch(&dataset, mode, &batch, 4);
        let reference_tree = IfmhTree::build_at_epoch(&dataset, mode, &one_by_one, 4);
        assert!(
            batch_tree.stats().signatures >= 300,
            "{} subdomains do not reach the parallel path",
            batch_tree.stats().signatures
        );
        assert_eq!(batch_tree.stats(), reference_tree.stats());

        let verifier = batch.verifier();
        let batch_server = Server::new(dataset.clone(), batch_tree);
        let reference_server = Server::new(dataset.clone(), reference_tree);
        // Weights fanned across the domain, so the queries land in
        // different subdomains and carry different leaf signatures.
        let mut leaf_signatures = std::collections::HashSet::new();
        for step in 1..24 {
            let w = vec![step as f64 / 24.0, 1.0 - step as f64 / 24.0];
            let queries = [
                Query::top_k(w.clone(), 3),
                Query::range(w.clone(), 0.2, 0.7),
                Query::knn(w, 2, 0.5),
            ];
            for query in queries {
                let got = batch_server.process(&query);
                let want = reference_server.process(&query);
                let ctx = format!("{name} query {query}");
                assert_eq!(got.vo.to_framed_bytes(), want.vo.to_framed_bytes(), "{ctx}");
                assert_eq!(got.records, want.records, "{ctx}");
                let verified = client::verify_at_epoch(
                    &query,
                    &got.records,
                    &got.vo,
                    &dataset.template,
                    verifier.as_ref(),
                    4,
                );
                assert!(verified.is_ok(), "{ctx}: {verified:?}");
                leaf_signatures.insert(got.vo.signature.to_wire_bytes());
            }
        }
        assert!(leaf_signatures.len() >= 10, "{name}: queries share leaves");
    }
}
