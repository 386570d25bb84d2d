//! Every signature in a verification object is bound to the publication
//! epoch it was built at. For every query kind, signing mode and signature
//! scheme, and at the boundary epochs `0` and `u64::MAX`, an honest answer
//! verifies at exactly the epoch its tree was signed at, and at no other.

use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_workload::uniform_dataset;

/// One query of every kind, aimed at the middle of the unit domain.
fn all_kinds(dims: usize) -> Vec<Query> {
    let w = vec![1.0 / dims as f64; dims];
    vec![
        Query::top_k(w.clone(), 3),
        Query::range(w.clone(), 0.2, 0.7),
        Query::knn(w, 2, 0.5),
    ]
}

#[test]
fn every_kind_mode_and_scheme_verifies_at_its_signing_epoch() {
    let dims = 2;
    let dataset = uniform_dataset(40, dims, 7);
    for (name, scheme) in [
        ("rsa", SignatureScheme::test_rsa(9)),
        ("dsa", SignatureScheme::test_dsa(9)),
    ] {
        for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
            for epoch in [0u64, 1, u64::MAX] {
                let tree = IfmhTree::build_at_epoch(&dataset, mode, &scheme, epoch);
                let server = Server::new(dataset.clone(), tree);
                let verifier = scheme.verifier();
                for query in all_kinds(dims) {
                    let resp = server.process(&query);
                    let ctx = format!("{name} {mode:?} epoch {epoch} query {query}");
                    let out = client::verify_at_epoch(
                        &query,
                        &resp.records,
                        &resp.vo,
                        &dataset.template,
                        verifier.as_ref(),
                        epoch,
                    );
                    assert!(out.is_ok(), "VO failed to verify: {ctx} ({out:?})");
                }
            }
        }
    }
}

#[test]
fn a_vo_signed_at_one_epoch_verifies_at_no_other() {
    let dataset = uniform_dataset(24, 1, 11);
    let scheme = SignatureScheme::test_rsa(5);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let tree = IfmhTree::build_at_epoch(&dataset, mode, &scheme, 3);
        let server = Server::new(dataset.clone(), tree);
        let verifier = scheme.verifier();
        let query = Query::top_k(vec![0.5], 2);
        let resp = server.process(&query);
        let ok = client::verify_at_epoch(
            &query,
            &resp.records,
            &resp.vo,
            &dataset.template,
            verifier.as_ref(),
            3,
        );
        assert!(ok.is_ok(), "{mode:?}: honest epoch must verify");
        for wrong in [0u64, 2, 4, u64::MAX] {
            let out = client::verify_at_epoch(
                &query,
                &resp.records,
                &resp.vo,
                &dataset.template,
                verifier.as_ref(),
                wrong,
            );
            assert!(
                out.is_err(),
                "{mode:?}: VO signed at epoch 3 must not verify at {wrong}"
            );
        }
    }
}
