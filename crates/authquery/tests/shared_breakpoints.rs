//! Query weights on a breakpoint ray, where two records tie. A point there
//! lies, within the client's tolerance, in both cells that meet at the ray,
//! so in multi-signature mode (a cell signed as its facets) the client may
//! accept either cell's signed answer; in one-signature mode the IMH path
//! admits one. The two lists differ only in records that tie on the ray, so
//! whatever the client accepts must equal brute force by score profile: the
//! returned scores for top-k and range, their distances to the target for
//! KNN.

use vaq_authquery::{client, IfmhTree, Query, QueryResponse, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_funcdb::Dataset;
use vaq_workload::uniform_dataset;

/// Every pair's breakpoint inside the unit square: the direction `t`
/// (`x ∝ (t, 1 − t)`) at which the pair ties, with the pair.
fn breakpoints(dataset: &Dataset) -> Vec<(f64, usize, usize)> {
    let functions = &dataset.functions;
    let mut cuts = Vec::new();
    for (i, f) in functions.iter().enumerate() {
        for (j, g) in functions.iter().enumerate().skip(i + 1) {
            let (coeffs, _) = f.difference(g);
            let t = coeffs[1] / (coeffs[1] - coeffs[0]);
            if 0.0 < t && t < 1.0 {
                cuts.push((t, i, j));
            }
        }
    }
    cuts
}

/// The sorted profile of `scores` under `query`: the scores themselves for
/// top-k and range, their distances to the target for KNN.
fn profile(query: &Query, scores: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut profile: Vec<f64> = match query {
        Query::Knn { target, .. } => scores.map(|s| (s - target).abs()).collect(),
        _ => scores.collect(),
    };
    profile.sort_by(f64::total_cmp);
    profile
}

/// The brute-force answer's profile: every record scored at the query's
/// weights.
fn brute_force(dataset: &Dataset, query: &Query) -> Vec<f64> {
    let x = query.weights();
    let scores = dataset.functions.iter().map(|f| f.eval(x));
    let all = profile(query, scores);
    match query {
        Query::TopK { k, .. } => all[all.len() - k..].to_vec(),
        Query::Range { lower, upper, .. } => all
            .into_iter()
            .filter(|s| lower <= s && s <= upper)
            .collect(),
        Query::Knn { k, .. } => all[..*k].to_vec(),
    }
}

/// The three queries at `x` that a tie between records `i` and `j` can
/// move: a top-k whose cut falls between the two, a range around their
/// score, and a 1-NN whose target is their score.
fn queries(dataset: &Dataset, x: &[f64], (i, j): (usize, usize)) -> [Query; 3] {
    let functions = &dataset.functions;
    let tied = functions[i].eval(x).max(functions[j].eval(x));
    let above = functions.iter().filter(|f| f.eval(x) > tied).count();
    [
        Query::top_k(x.to_vec(), above + 1),
        Query::range(x.to_vec(), tied - 0.1, tied + 0.1),
        Query::knn(x.to_vec(), 1, tied),
    ]
}

#[test]
fn answers_on_a_shared_breakpoint_equal_brute_force_by_score_profile() {
    let dataset = uniform_dataset(20, 2, 1);
    let scheme = SignatureScheme::test_rsa(5);
    let verifier = scheme.verifier();
    let cuts = breakpoints(&dataset);
    assert!(cuts.len() > 50, "{} breakpoints", cuts.len());
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let server = Server::new(dataset.clone(), IfmhTree::build(&dataset, mode, &scheme));
        let (mut honest, mut offered, mut from_a_neighbour) = (0, 0, 0);
        for &(t, i, j) in &cuts {
            // On the ray and one ulp either side; the cells a little
            // further out are the ray's neighbours.
            let on_ray = [t.next_down(), t, t.next_up()];
            let around = [t - 1e-7, on_ray[0], on_ray[1], on_ray[2], t + 1e-7];
            let at = |t: f64| [t, 1.0 - t];
            for kind in 0..3 {
                let query_at = |t| queries(&dataset, &at(t), (i, j))[kind].clone();
                let answers: Vec<QueryResponse> = around
                    .iter()
                    .map(|&t| server.process(&query_at(t)))
                    .collect();
                for (at_x, &t) in on_ray.iter().enumerate() {
                    let query = query_at(t);
                    let expected = brute_force(&dataset, &query);
                    let own = &answers[at_x + 1];
                    for answer in &answers {
                        let verified = client::verify(
                            &query,
                            &answer.records,
                            &answer.vo,
                            &dataset.template,
                            verifier.as_ref(),
                        );
                        let context = format!("{mode:?}, pair ({i}, {j}) at {t}: {query}");
                        let is_own = std::ptr::eq(answer, own);
                        offered += 1;
                        let Ok(verified) = verified else {
                            assert!(!is_own, "{context}: honest answer rejected: {verified:?}");
                            continue;
                        };
                        honest += usize::from(is_own);
                        let cell = &answer.vo.intersection_verification;
                        from_a_neighbour += usize::from(*cell != own.vo.intersection_verification);
                        let got = profile(&query, verified.scores.into_iter());
                        let equal = got.len() == expected.len()
                            && got.iter().zip(&expected).all(|(g, e)| (g - e).abs() < 1e-9);
                        assert!(
                            equal,
                            "{context}: accepted {got:?}, brute force {expected:?}"
                        );
                    }
                }
            }
        }
        println!("{mode:?}: {honest} honest, {from_a_neighbour} accepted from another cell, {offered} offered");
        assert_eq!(honest, cuts.len() * 9, "{mode:?}");
        // Multi-signature answers from the cell across the ray are accepted
        // on it; the suite is only worth its name if some were.
        if mode == SigningMode::MultiSignature {
            assert!(
                from_a_neighbour > cuts.len(),
                "{from_a_neighbour} from a neighbour"
            );
        }
    }
}
