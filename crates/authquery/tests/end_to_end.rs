//! End-to-end integration tests: owner → server → client for every query
//! type and both signing modes, with results cross-checked against a naive
//! (trusted, brute-force) reference implementation.

use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_funcdb::{Dataset, Record};
use vaq_workload::{patient_risk_table, uniform_dataset};

/// Brute-force reference: which record ids should a query return?
fn reference_answer(dataset: &Dataset, query: &Query) -> Vec<u64> {
    let x = query.weights();
    let mut scored: Vec<(f64, u64)> = dataset
        .records
        .iter()
        .zip(dataset.functions.iter())
        .map(|(r, f)| (f.eval(x), r.id))
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    match query {
        Query::TopK { k, .. } => {
            let k = (*k).min(scored.len());
            scored[scored.len() - k..]
                .iter()
                .map(|(_, id)| *id)
                .collect()
        }
        Query::Range { lower, upper, .. } => scored
            .iter()
            .filter(|(s, _)| *s >= *lower && *s <= *upper)
            .map(|(_, id)| *id)
            .collect(),
        Query::Knn { k, target, .. } => {
            let mut by_dist: Vec<(f64, u64)> = scored
                .iter()
                .map(|(s, id)| ((s - target).abs(), *id))
                .collect();
            by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let k = (*k).min(by_dist.len());
            let mut ids: Vec<u64> = by_dist[..k].iter().map(|(_, id)| *id).collect();
            ids.sort_unstable();
            ids
        }
    }
}

fn run_and_verify(dataset: &Dataset, mode: SigningMode, query: &Query) -> Vec<u64> {
    let scheme = SignatureScheme::test_rsa(0xF00D);
    let tree = IfmhTree::build(dataset, mode, &scheme);
    let server = Server::new(dataset.clone(), tree);
    let response = server.process(query);
    let verifier = scheme.verifier();
    let outcome = client::verify(
        query,
        &response.records,
        &response.vo,
        &dataset.template,
        verifier.as_ref(),
    );
    assert!(
        outcome.is_ok(),
        "verification failed for {query}: {:?}",
        outcome.err()
    );
    let verified = outcome.unwrap();
    assert_eq!(verified.scores.len(), response.records.len());
    assert!(verified.cost.signature_verifications == 1);
    response.records.iter().map(|r| r.id).collect()
}

#[test]
fn top_k_matches_reference_both_modes() {
    let ds = uniform_dataset(24, 1, 11);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        for k in [1usize, 3, 10, 24, 30] {
            let query = Query::top_k(vec![0.73], k);
            let mut got = run_and_verify(&ds, mode, &query);
            let mut expected = reference_answer(&ds, &query);
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "mode {mode}, k {k}");
        }
    }
}

#[test]
fn range_matches_reference_both_modes() {
    let ds = uniform_dataset(30, 1, 12);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        for (lo, hi) in [(0.1, 0.3), (0.0, 1.0), (0.45, 0.55), (0.9, 0.95)] {
            let query = Query::range(vec![0.31], lo, hi);
            let mut got = run_and_verify(&ds, mode, &query);
            let mut expected = reference_answer(&ds, &query);
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "mode {mode}, range [{lo}, {hi}]");
        }
    }
}

#[test]
fn knn_matches_reference_both_modes() {
    let ds = uniform_dataset(25, 1, 13);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        for (k, y) in [(1usize, 0.4), (5, 0.2), (7, 0.95), (25, 0.5)] {
            let query = Query::knn(vec![0.62], k, y);
            let got = run_and_verify(&ds, mode, &query);
            let expected = reference_answer(&ds, &query);
            // KNN sets can differ on exact-tie distances; compare distances
            // rather than identities to stay robust.
            let x = query.weights();
            let dist = |id: u64| {
                let f = &ds.functions[id as usize];
                (f.eval(x) - y).abs()
            };
            let mut got_d: Vec<f64> = got.iter().map(|id| dist(*id)).collect();
            let mut exp_d: Vec<f64> = expected.iter().map(|id| dist(*id)).collect();
            got_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            exp_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got_d.len(), exp_d.len());
            for (g, e) in got_d.iter().zip(exp_d.iter()) {
                assert!((g - e).abs() < 1e-9, "mode {mode}, k {k}, y {y}");
            }
        }
    }
}

#[test]
fn range_bound_just_inside_a_flanking_record_verifies() {
    // Regression: a record scoring within 1e-9 *outside* the range is the
    // honest answer's flank; the client used to widen the range by its
    // soundness tolerance on the completeness check and reject the answer
    // with `Incomplete("left boundary record also satisfies the range")`.
    let ds = uniform_dataset(12, 1, 7);
    let x = vec![0.6];
    let mut scores: Vec<f64> = ds.functions.iter().map(|f| f.eval(&x)).collect();
    scores.sort_by(f64::total_cmp);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        // Left flank: record 3 sits 5e-10 below the lower bound.
        let query = Query::range(x.clone(), scores[3] + 5e-10, scores[8]);
        assert_eq!(run_and_verify(&ds, mode, &query).len(), 5, "{mode}");
        // Right flank: record 8 sits 5e-10 above the upper bound.
        let query = Query::range(x.clone(), scores[4], scores[8] - 5e-10);
        assert_eq!(run_and_verify(&ds, mode, &query).len(), 4, "{mode}");
    }
}

#[test]
fn empty_range_results_verify() {
    let ds = uniform_dataset(20, 1, 14);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        // Scores under weights in [0,1] stay within [0,1]; ask far outside.
        let query = Query::range(vec![0.5], 5.0, 6.0);
        let got = run_and_verify(&ds, mode, &query);
        assert!(got.is_empty());
        // And a range below every score.
        let query = Query::range(vec![0.5], -3.0, -2.0);
        let got = run_and_verify(&ds, mode, &query);
        assert!(got.is_empty());
    }
}

#[test]
fn two_dimensional_dataset_verifies_across_subdomains() {
    let ds = patient_risk_table(10, 3);
    let scheme = SignatureScheme::test_rsa(0xBEEF);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let tree = IfmhTree::build(&ds, mode, &scheme);
        assert!(
            tree.subdomain_count() >= 2,
            "expected a non-trivial arrangement"
        );
        let server = Server::new(ds.clone(), tree);
        let verifier = scheme.verifier();
        for wx in [0.05, 0.35, 0.65, 0.95] {
            for wy in [0.1, 0.5, 0.9] {
                let query = Query::top_k(vec![wx, wy], 3);
                let response = server.process(&query);
                let out = client::verify(
                    &query,
                    &response.records,
                    &response.vo,
                    &ds.template,
                    verifier.as_ref(),
                );
                assert!(
                    out.is_ok(),
                    "mode {mode}, weights ({wx}, {wy}): {:?}",
                    out.err()
                );
                let mut got: Vec<u64> = response.records.iter().map(|r| r.id).collect();
                let mut expected = reference_answer(&ds, &query);
                got.sort_unstable();
                expected.sort_unstable();
                assert_eq!(got, expected);
            }
        }
    }
}

#[test]
fn dsa_signed_tree_verifies() {
    let ds = uniform_dataset(12, 1, 15);
    let scheme = SignatureScheme::test_dsa(0xABCD);
    let tree = IfmhTree::build(&ds, SigningMode::MultiSignature, &scheme);
    let server = Server::new(ds.clone(), tree);
    let query = Query::range(vec![0.8], 0.2, 0.6);
    let response = server.process(&query);
    let verifier = scheme.verifier();
    let out = client::verify(
        &query,
        &response.records,
        &response.vo,
        &ds.template,
        verifier.as_ref(),
    );
    assert!(out.is_ok(), "{:?}", out.err());
}

#[test]
fn single_record_database() {
    let ds = uniform_dataset(1, 2, 16);
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let query = Query::top_k(vec![0.4, 0.6], 1);
        let got = run_and_verify(&ds, mode, &query);
        assert_eq!(got, vec![0]);
        let query = Query::knn(vec![0.4, 0.6], 3, 0.1);
        let got = run_and_verify(&ds, mode, &query);
        assert_eq!(got, vec![0]);
    }
}

#[test]
fn duplicate_records_are_handled() {
    // Two identical rows: the functions coincide everywhere (no transversal
    // intersection); ordering falls back to the id tie-break.
    let template = vaq_funcdb::FunctionTemplate::anonymous(2);
    let records = vec![
        Record::new(0, vec![0.5, 0.5]),
        Record::new(1, vec![0.5, 0.5]),
        Record::new(2, vec![0.9, 0.1]),
    ];
    let ds = Dataset::new(records, template.clone(), vaq_funcdb::Domain::unit(2));
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let query = Query::top_k(vec![0.5, 0.5], 2);
        let got = run_and_verify(&ds, mode, &query);
        assert_eq!(got.len(), 2);
    }

    // A record present twice, byte for byte: ids 0, 5, 5, 7, both 5s with
    // the same attributes. The two hash to one FMH leaf, so a leaf does not
    // name one record, and both copies must still come back.
    let records = vec![
        Record::new(0, vec![0.2, 0.9]),
        Record::new(5, vec![0.6, 0.5]),
        Record::new(5, vec![0.6, 0.5]),
        Record::new(7, vec![0.9, 0.1]),
    ];
    let ds = Dataset::new(records, template, vaq_funcdb::Domain::unit(2));
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        // At (0.8, 0.65) the scores ascend 0, 7, 5, 5; at (0.3, 0.7) they
        // ascend 7, 5, 5, 0.
        let cases = [
            (Query::top_k(vec![0.8, 0.65], 3), vec![7, 5, 5]),
            (Query::range(vec![0.3, 0.7], 0.3, 0.7), vec![7, 5, 5, 0]),
            (Query::knn(vec![0.3, 0.7], 2, 0.53), vec![5, 5]),
        ];
        for (query, expected) in cases {
            assert_eq!(
                run_and_verify(&ds, mode, &query),
                expected,
                "{mode}, {query}"
            );
            let mut reference = reference_answer(&ds, &query);
            reference.sort_unstable();
            let mut sorted = expected;
            sorted.sort_unstable();
            assert_eq!(reference, sorted, "{mode}, {query}");
        }
    }
}

#[test]
fn verification_cost_counters_are_populated() {
    let ds = uniform_dataset(20, 1, 17);
    let scheme = SignatureScheme::test_rsa(0xCAFE);
    let tree = IfmhTree::build(&ds, SigningMode::OneSignature, &scheme);
    let server = Server::new(ds.clone(), tree);
    let query = Query::range(vec![0.5], 0.2, 0.8);
    let response = server.process(&query);
    assert!(response.cost.imh_nodes_visited >= 1);
    assert!(response.cost.fmh_nodes_visited > 0);
    assert!(response.vo.byte_size() > 0);
    let verifier = scheme.verifier();
    let out = client::verify(
        &query,
        &response.records,
        &response.vo,
        &ds.template,
        verifier.as_ref(),
    )
    .unwrap();
    assert!(out.cost.hash_ops >= response.records.len());
    assert_eq!(out.cost.signature_verifications, 1);
}

#[test]
fn multi_signature_vo_is_smaller_on_imh_part_than_one_signature() {
    // With a deep enough IMH-tree the one-signature VO carries a path while
    // the multi-signature VO carries only the subdomain's inequalities, so
    // their sizes differ; both must verify.
    let ds = uniform_dataset(16, 1, 18);
    let scheme = SignatureScheme::test_rsa(0xD00D);
    let one = IfmhTree::build(&ds, SigningMode::OneSignature, &scheme);
    let multi = IfmhTree::build(&ds, SigningMode::MultiSignature, &scheme);
    assert_eq!(one.signature_count(), 1);
    assert_eq!(multi.signature_count(), multi.subdomain_count());

    let server_one = Server::new(ds.clone(), one);
    let server_multi = Server::new(ds.clone(), multi);
    let query = Query::top_k(vec![0.37], 3);
    let r1 = server_one.process(&query);
    let r2 = server_multi.process(&query);
    let verifier = scheme.verifier();
    assert!(client::verify(&query, &r1.records, &r1.vo, &ds.template, verifier.as_ref()).is_ok());
    assert!(client::verify(&query, &r2.records, &r2.vo, &ds.template, verifier.as_ref()).is_ok());
    assert_eq!(
        r1.records.iter().map(|r| r.id).collect::<Vec<_>>(),
        r2.records.iter().map(|r| r.id).collect::<Vec<_>>()
    );
}

#[test]
fn honest_answers_to_non_finite_queries_are_refused() {
    // An honest server still answers a NaN or infinite weight (or a NaN KNN
    // target) from some cell, but no cell holds such a point: every score
    // and predicate is NaN or infinite, and the comparisons that check the
    // answer used to pass them vacuously (d = 1 in both modes accepted).
    let scheme = SignatureScheme::test_rsa(0xBAD);
    let verifier = scheme.verifier();
    for dims in [1, 2] {
        let dataset = uniform_dataset(24, dims, 7);
        let at = |w: f64| vec![w; dims];
        let mut queries = Vec::new();
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            queries.extend([
                Query::top_k(at(w), 3),
                Query::range(at(w), 0.2, 0.6),
                Query::knn(at(w), 2, 0.4),
            ]);
        }
        queries.push(Query::knn(at(0.5), 2, f64::NAN));
        for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
            let server = Server::new(dataset.clone(), IfmhTree::build(&dataset, mode, &scheme));
            for query in &queries {
                let answer = server.process(query);
                let verdict = client::verify(
                    query,
                    &answer.records,
                    &answer.vo,
                    &dataset.template,
                    verifier.as_ref(),
                );
                assert!(verdict.is_err(), "d = {dims}, {mode:?}: {query} verified");
            }
        }
    }
}
