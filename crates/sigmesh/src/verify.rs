//! Client-side verification of signature-mesh responses.

use crate::vo::{pair_digest, MeshBoundary, MeshResponse};
use vaq_authquery::cost::ClientCost;
use vaq_authquery::{check_window_semantics, Query, VerifyError};
use vaq_crypto::sha256::Digest;
use vaq_crypto::Verifier;
use vaq_funcdb::{FunctionTemplate, Record};

/// Outcome of a successful mesh verification.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshVerified {
    /// Client cost counters (hashes and signature verifications).
    pub cost: ClientCost,
}

/// Verifies a signature-mesh query response.
///
/// The client checks that (1) the query's weight vector lies in the
/// subdomain the server answered from, (2) every consecutive pair across
/// `[left, result…, right]` carries a valid owner signature bound to that
/// subdomain — which proves soundness and adjacency — and (3) the boundary
/// entries prove completeness for the specific query type.
pub fn verify(
    query: &Query,
    response: &MeshResponse,
    template: &FunctionTemplate,
    verifier: &dyn Verifier,
) -> Result<MeshVerified, VerifyError> {
    let mut cost = ClientCost::default();
    let x = query.weights();
    let vo = &response.vo;
    let records = &response.records;

    if x.len() != template.dims() {
        return Err(VerifyError::BadRecord(
            "query weight vector does not match the template arity".into(),
        ));
    }

    // (1) Subdomain containment.
    if vo.subdomain.dims() != x.len() || !vo.subdomain.contains(x) {
        return Err(VerifyError::WrongSubdomain);
    }
    let cell_digest = vo.subdomain.digest();
    cost.hash_ops += 1;

    // (2) Signature chain over consecutive pairs.
    let mut chain: Vec<Digest> = Vec::with_capacity(records.len() + 2);
    chain.push(vo.left_boundary.digest());
    cost.hash_ops += 1;
    for r in records {
        chain.push(r.digest());
        cost.hash_ops += 1;
    }
    chain.push(vo.right_boundary.digest());
    cost.hash_ops += 1;

    if vo.pair_signatures.len() != chain.len() - 1 {
        return Err(VerifyError::MalformedVo(format!(
            "expected {} pair signatures, got {}",
            chain.len() - 1,
            vo.pair_signatures.len()
        )));
    }
    for (pair, signature) in chain.windows(2).zip(vo.pair_signatures.iter()) {
        let digest = pair_digest(&pair[0], &pair[1], &cell_digest);
        cost.hash_ops += 1;
        cost.signature_verifications += 1;
        if !verifier.verify_digest(&digest, signature) {
            return Err(VerifyError::SignatureMismatch);
        }
    }

    // (3) Query semantics: the checks every authenticated sorted list
    // shares, then the length rules particular to the mesh, which does not
    // know the list's length — a short result must reach the list's end(s).
    fn boundary_record(entry: &MeshBoundary) -> Option<&Record> {
        match entry {
            MeshBoundary::Record(r) => Some(r),
            _ => None,
        }
    }
    check_window_semantics(
        query,
        records,
        boundary_record(&vo.left_boundary),
        boundary_record(&vo.right_boundary),
        template,
    )?;
    let wrong_length = |k: usize| VerifyError::WrongResultLength {
        expected: k,
        got: records.len(),
    };
    let starts_at_min = matches!(vo.left_boundary, MeshBoundary::MinToken);
    let ends_at_max = matches!(vo.right_boundary, MeshBoundary::MaxToken);
    match query {
        Query::Range { .. } => {}
        Query::TopK { k, .. } => {
            if !records.is_empty() || *k > 0 {
                if !ends_at_max {
                    return Err(VerifyError::Incomplete(
                        "top-k result does not end at the maximum of the list".into(),
                    ));
                }
                if records.len() > *k || (records.len() < *k && !starts_at_min) {
                    return Err(wrong_length(*k));
                }
            }
        }
        Query::Knn { k, .. } => {
            if records.len() > *k || (records.len() < *k && !(starts_at_min && ends_at_max)) {
                return Err(wrong_length(*k));
            }
        }
    }

    Ok(MeshVerified { cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignatureMesh;
    use vaq_crypto::{SignatureScheme, Signer};
    use vaq_workload::uniform_dataset;

    #[test]
    fn mesh_client_cost_has_many_signature_verifications() {
        let ds = uniform_dataset(15, 1, 31);
        let scheme = SignatureScheme::test_rsa(31);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let verifier = scheme.verifier();
        let query = Query::top_k(vec![0.5], 6);
        let resp = mesh.process(&ds, &query);
        let verified = verify(&query, &resp, &ds.template, verifier.as_ref()).unwrap();
        // |q| + 1 signature verifications — the defining cost of the mesh.
        assert_eq!(
            verified.cost.signature_verifications,
            resp.records.len() + 1
        );
        assert!(verified.cost.hash_ops >= resp.records.len());
    }

    #[test]
    fn mesh_rejects_wrong_subdomain_weights() {
        let ds = uniform_dataset(6, 2, 32);
        let scheme = SignatureScheme::test_rsa(32);
        let mesh = SignatureMesh::build(&ds, &scheme);
        if mesh.cell_count() < 2 {
            return;
        }
        let verifier = scheme.verifier();
        // Answer honestly for one weight vector, verify against another that
        // lives in a different cell.
        let probes: Vec<Vec<f64>> = (1..40)
            .map(|i| vec![i as f64 / 40.0, 1.0 - i as f64 / 40.0])
            .collect();
        let base_cell = mesh
            .cells()
            .iter()
            .position(|c| c.constraints.contains(&probes[0]))
            .unwrap();
        let other = probes[1..]
            .iter()
            .find(|w| {
                mesh.cells()
                    .iter()
                    .position(|c| c.constraints.contains(w))
                    .unwrap()
                    != base_cell
            })
            .cloned();
        let Some(other) = other else { return };
        let resp = mesh.process(&ds, &Query::top_k(probes[0].clone(), 2));
        let replay_query = Query::top_k(other, 2);
        let out = verify(&replay_query, &resp, &ds.template, verifier.as_ref());
        assert!(out.is_err());
    }

    #[test]
    fn mesh_rejects_mismatched_signature_count() {
        let ds = uniform_dataset(10, 1, 33);
        let scheme = SignatureScheme::test_rsa(33);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let verifier = scheme.verifier();
        let query = Query::range(vec![0.5], 0.2, 0.8);
        let mut resp = mesh.process(&ds, &query);
        resp.vo.pair_signatures.pop();
        let out = verify(&query, &resp, &ds.template, verifier.as_ref());
        assert!(matches!(out, Err(VerifyError::MalformedVo(_))));
    }

    #[test]
    fn mesh_range_bound_just_inside_a_flanking_record_verifies() {
        // Regression: a record scoring within 1e-9 *outside* the range is
        // the honest answer's flank; the mesh verifier widened the range by
        // its soundness tolerance on the completeness check and rejected
        // the answer with `Incomplete("left boundary record also satisfies
        // the range")`.
        let ds = uniform_dataset(12, 1, 7);
        let scheme = SignatureScheme::test_rsa(7);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let verifier = scheme.verifier();
        let x = vec![0.6];
        let mut scores: Vec<f64> = ds.functions.iter().map(|f| f.eval(&x)).collect();
        scores.sort_by(f64::total_cmp);
        for (lower, upper, expected) in [
            // Left flank: record 3 sits 5e-10 below the lower bound.
            (scores[3] + 5e-10, scores[8], 5),
            // Right flank: record 8 sits 5e-10 above the upper bound.
            (scores[4], scores[8] - 5e-10, 4),
        ] {
            let query = Query::range(x.clone(), lower, upper);
            let resp = mesh.process(&ds, &query);
            assert_eq!(resp.records.len(), expected);
            let out = verify(&query, &resp, &ds.template, verifier.as_ref());
            assert!(out.is_ok(), "[{lower}, {upper}]: {:?}", out.err());
        }
    }

    #[test]
    fn mesh_detects_the_dropped_record_scoring_exactly_lower() {
        // The exact flank comparison still catches the one-record narrowing
        // attack: the lowest in-range record scores `lower` exactly, and the
        // server presents its honest answer to the range that starts one
        // ulp above — so the dropped record is the left flank.
        let ds = uniform_dataset(20, 1, 17);
        let scheme = SignatureScheme::test_rsa(17);
        let mesh = SignatureMesh::build(&ds, &scheme);
        let verifier = scheme.verifier();
        let x = vec![0.5];
        let mut scores: Vec<f64> = ds.functions.iter().map(|f| f.eval(&x)).collect();
        scores.sort_by(f64::total_cmp);
        let (lower, upper) = (scores[5], scores[12]);
        let query = Query::range(x.clone(), lower, upper);
        assert_eq!(mesh.process(&ds, &query).records.len(), 8);

        let just_above = f64::from_bits(lower.to_bits() + 1);
        let narrow = mesh.process(&ds, &Query::range(x, just_above, upper));
        assert_eq!(narrow.records.len(), 7);
        let out = verify(&query, &narrow, &ds.template, verifier.as_ref());
        assert!(
            matches!(out, Err(VerifyError::Incomplete(_))),
            "dropped record at `lower` must be Incomplete, got {out:?}"
        );
    }
}
