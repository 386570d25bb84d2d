//! Property-based integration tests: for random datasets and random queries,
//! honest server responses always verify and always match the brute-force
//! reference answer, at one to four dimensions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_funcdb::{Dataset, Domain, FunctionTemplate, Record};
use vaq_workload::uniform_dataset;

/// Builds a dataset from raw attribute rows.
fn dataset_from_rows(rows: &[Vec<f64>]) -> Dataset {
    let dims = rows[0].len();
    let template = FunctionTemplate::anonymous(dims);
    let records = rows
        .iter()
        .enumerate()
        .map(|(i, attrs)| Record::new(i as u64, attrs.clone()))
        .collect();
    Dataset::new(records, template, Domain::unit(dims))
}

/// Reference result ids (sorted) for a query.
fn reference(dataset: &Dataset, query: &Query) -> Vec<u64> {
    let x = query.weights();
    let mut scored: Vec<(f64, u64)> = dataset
        .functions
        .iter()
        .zip(dataset.records.iter())
        .map(|(f, r)| (f.eval(x), r.id))
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let mut ids: Vec<u64> = match query {
        Query::TopK { k, .. } => {
            let k = (*k).min(scored.len());
            scored[scored.len() - k..].iter().map(|(_, i)| *i).collect()
        }
        Query::Range { lower, upper, .. } => scored
            .iter()
            .filter(|(s, _)| s >= lower && s <= upper)
            .map(|(_, i)| *i)
            .collect(),
        Query::Knn { k, target, .. } => {
            let mut d: Vec<(f64, u64)> = scored
                .iter()
                .map(|(s, i)| ((s - target).abs(), *i))
                .collect();
            d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            d[..(*k).min(d.len())].iter().map(|(_, i)| *i).collect()
        }
    };
    ids.sort_unstable();
    ids
}

/// Distance multiset for KNN comparison (ties make identity comparison
/// ill-defined).
fn distance_profile(dataset: &Dataset, ids: &[u64], x: &[f64], target: f64) -> Vec<f64> {
    let mut d: Vec<f64> = ids
        .iter()
        .map(|id| (dataset.functions[*id as usize].eval(x) - target).abs())
        .collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d
}

/// How an honest answer compared with the brute-force one.
#[derive(Debug, PartialEq)]
enum Outcome {
    Equal,
    Rejected(String),
    AcceptedButWrong,
}

/// Processes `query` honestly, verifies the answer and compares it with the
/// brute-force answer: result ids for top-k and range, the distance profile
/// for KNN (ties make identity comparison ill-defined there).
fn answer(server: &Server, dataset: &Dataset, scheme: &SignatureScheme, query: &Query) -> Outcome {
    let resp = server.process(query);
    let verifier = scheme.verifier();
    let out = client::verify(
        query,
        &resp.records,
        &resp.vo,
        &dataset.template,
        verifier.as_ref(),
    );
    if let Err(error) = out {
        return Outcome::Rejected(format!("{error:?}"));
    }
    let mut got: Vec<u64> = resp.records.iter().map(|r| r.id).collect();
    got.sort_unstable();
    let expected = reference(dataset, query);
    let equal = match query {
        Query::Knn { target, .. } => {
            let x = query.weights();
            let gp = distance_profile(dataset, &got, x, *target);
            let ep = distance_profile(dataset, &expected, x, *target);
            gp.len() == ep.len() && gp.iter().zip(&ep).all(|(g, e)| (g - e).abs() < 1e-9)
        }
        _ => got == expected,
    };
    match equal {
        true => Outcome::Equal,
        false => Outcome::AcceptedButWrong,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn honest_responses_always_verify_and_match_reference(
        rows in prop::collection::vec(prop::collection::vec(0.01f64..0.99, 4..=4), 2..14),
        dims in 1usize..=4,
        weights in prop::collection::vec(0.05f64..0.95, 4..=4),
        k in 1usize..6,
        lo in 0.0f64..0.5,
        width in 0.0f64..0.5,
        mode_multi in proptest::bool::ANY,
    ) {
        // Fewer rows as the dimension grows, so that a full
        // owner/server/client round-trip stays fast inside proptest.
        let mut rows = rows;
        rows.truncate([13, 10, 7, 5][dims - 1]);
        rows.iter_mut().for_each(|row| row.truncate(dims));
        let dataset = dataset_from_rows(&rows);
        let mode = if mode_multi { SigningMode::MultiSignature } else { SigningMode::OneSignature };
        let scheme = SignatureScheme::test_rsa(42);
        let tree = IfmhTree::build(&dataset, mode, &scheme);
        let server = Server::new(dataset.clone(), tree);
        let weights = weights[..dims].to_vec();
        // Scores run over [0, dims): stretch the range and the target with it.
        let (lo, width) = (lo * dims as f64, width * dims as f64);

        let queries = vec![
            Query::top_k(weights.clone(), k),
            Query::range(weights.clone(), lo, lo + width),
            Query::knn(weights, k, lo + width),
        ];
        for query in queries {
            let outcome = answer(&server, &dataset, &scheme, &query);
            prop_assert_eq!(outcome, Outcome::Equal, "query {} at d = {}", query, dims);
        }
    }

    #[test]
    fn dropping_any_result_record_is_always_detected(
        rows in prop::collection::vec(prop::collection::vec(0.01f64..0.99, 1..=1), 4..10),
        weight in 0.05f64..0.95,
        drop_idx in 0usize..20,
    ) {
        let dataset = dataset_from_rows(&rows);
        let scheme = SignatureScheme::test_rsa(43);
        let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
        let server = Server::new(dataset.clone(), tree);
        let verifier = scheme.verifier();
        let query = Query::range(vec![weight], 0.0, 1.0);
        let mut resp = server.process(&query);
        prop_assume!(resp.records.len() >= 2);
        let idx = drop_idx % resp.records.len();
        resp.records.remove(idx);
        let out = client::verify(&query, &resp.records, &resp.vo, &dataset.template, verifier.as_ref());
        prop_assert!(out.is_err(), "dropping record {} must be detected", idx);
    }

    #[test]
    fn perturbing_any_returned_attribute_is_always_detected(
        rows in prop::collection::vec(prop::collection::vec(0.01f64..0.99, 1..=1), 3..10),
        weight in 0.05f64..0.95,
        victim in 0usize..20,
        delta in 1e-6f64..0.5,
    ) {
        let dataset = dataset_from_rows(&rows);
        let scheme = SignatureScheme::test_rsa(44);
        let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
        let server = Server::new(dataset.clone(), tree);
        let verifier = scheme.verifier();
        let query = Query::top_k(vec![weight], 3);
        let mut resp = server.process(&query);
        prop_assume!(!resp.records.is_empty());
        let idx = victim % resp.records.len();
        resp.records[idx].attrs[0] += delta;
        let out = client::verify(&query, &resp.records, &resp.vo, &dataset.template, verifier.as_ref());
        prop_assert!(out.is_err(), "perturbing record {} must be detected", idx);
    }
}

/// A seeded sweep of honest answers at d = 3 and d = 4, where every cell is a
/// cone whose coordinate minimisers all sit at the origin: a leaf sorted at a
/// point on its own boundary signs a list that is wrong inside the cell, and
/// some of its wrong answers still verify. Each dimension gets three datasets
/// (14 records at d = 3, 10 at d = 4: ≈900 and ≈500 cells), both signing
/// modes and an even mix of top-k, range and KNN queries at uniform weights:
/// 6,000 answers per dimension in a debug build, 102,000 in a release build.
/// Not one may be rejected or differ from brute force.
#[test]
fn honest_answers_at_three_and_four_dimensions_equal_brute_force() {
    let per_build = if cfg!(debug_assertions) {
        1_000
    } else {
        17_000
    };
    // One thread per dimension; each returns its failures.
    let sweep = |n: usize, dims: usize| {
        let mut failures = Vec::new();
        for seed in 1..=3 {
            let dataset = uniform_dataset(n, dims, seed);
            let scheme = SignatureScheme::test_rsa(seed);
            for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
                let server = Server::new(dataset.clone(), IfmhTree::build(&dataset, mode, &scheme));
                let mut rng = StdRng::seed_from_u64(seed * 10 + dims as u64);
                for i in 0..per_build {
                    let x: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let k = rng.gen_range(1..=5usize);
                    let lo = rng.gen_range(0.0..dims as f64 * 0.6);
                    let query = match i % 3 {
                        0 => Query::top_k(x, k),
                        1 => Query::range(x, lo, lo + 0.2),
                        _ => Query::knn(x, k, lo),
                    };
                    match answer(&server, &dataset, &scheme, &query) {
                        Outcome::Equal => {}
                        outcome => {
                            failures.push(format!("{mode:?} seed {seed}: {query}: {outcome:?}"))
                        }
                    }
                }
            }
        }
        failures
    };
    std::thread::scope(|scope| {
        let sweeps =
            [(14, 3), (10, 4)].map(|(n, dims)| (dims, scope.spawn(move || sweep(n, dims))));
        for (dims, sweep) in sweeps {
            let failures = sweep.join().expect("a sweep panicked");
            let answered = per_build * 6;
            assert!(
                failures.is_empty(),
                "d = {dims}: {} of {answered}: {failures:#?}",
                failures.len()
            );
        }
    });
}
