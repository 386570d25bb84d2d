//! Client-side verification of query results.
//!
//! The verification proceeds in two steps (paper Sec. 3.3):
//!
//! 1. **Authenticity** — the client re-hashes the returned records, rebuilds
//!    the relevant part of the FMH-tree from the Merkle range proof, rebuilds
//!    the IMH path (one-signature) or the subdomain digest over the
//!    half-spaces the owner signed for it, its facets (multi-signature), and
//!    checks the owner's signature over the resulting digest. Success
//!    proves every record and hash it used came from the owner's original
//!    tree.
//! 2. **Query semantics** — the client mimics the server: it checks the
//!    query input lies in the proven subdomain (in multi-signature mode, on
//!    the right side of every shipped half-space), recomputes every
//!    returned record's score, and checks the boundary entries prove that
//!    nothing satisfying the query was omitted (completeness) and nothing
//!    included violates the query condition (soundness).

use crate::cost::ClientCost;
use crate::error::VerifyError;
use crate::query::Query;
use crate::vo::{
    epoch_binding_digest, intersection_node_hash, multi_signature_digest, subdomain_node_hash,
    BoundaryEntry, IntersectionVerification, VerificationObject,
};
use vaq_crypto::sha256::Digest;
use vaq_crypto::Verifier;
use vaq_funcdb::{inequality_set_digest, FunctionTemplate, Record};
use vaq_mht::verify_range;

/// Outcome of a successful verification.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifiedResult {
    /// Client-side cost counters (Fig. 7 metric).
    pub cost: ClientCost,
    /// Scores of the verified result records at the query's weight vector,
    /// in result order (handy for callers that want to display rankings
    /// without recomputing).
    pub scores: Vec<f64>,
}

/// Small tolerance applied to boundary comparisons so legitimate results are
/// not rejected due to floating-point noise.
const SCORE_EPS: f64 = 1e-9;

/// Reusable scratch buffers for repeated verifications.
///
/// Rebuilding the FMH leaf window allocates a digest vector per call; a
/// client verifying a stream of responses (the service client, the sharded
/// merge path) can hold one `VerifyScratch` and amortize that allocation
/// across calls via [`verify_at_epoch_with_scratch`].
#[derive(Clone, Debug, Default)]
pub struct VerifyScratch {
    /// Leaf digests of the proven window: left boundary, records, right
    /// boundary. Cleared (not shrunk) between calls.
    leaves: Vec<Digest>,
}

/// Verifies a query result against its verification object.
///
/// * `query` — the query the client originally issued,
/// * `records` — the result records returned by the server,
/// * `vo` — the verification object returned by the server,
/// * `template` — the owner-published utility-function template,
/// * `verifier` — the owner's public key.
pub fn verify(
    query: &Query,
    records: &[Record],
    vo: &VerificationObject,
    template: &FunctionTemplate,
    verifier: &dyn Verifier,
) -> Result<VerifiedResult, VerifyError> {
    verify_at_epoch(query, records, vo, template, verifier, 0)
}

/// Verifies a query result against its verification object at a specific
/// publication epoch.
///
/// Identical to [`verify`] except that the owner's signature is checked over
/// the [`epoch_binding_digest`] of the structure digest: a response whose
/// signatures were produced for any *other* epoch — e.g. an honestly signed
/// response replayed from a superseded publication — fails with
/// [`VerifyError::SignatureMismatch`]. The expected epoch comes from the
/// owner's attested publication (shard map or published metadata), never
/// from the response itself.
pub fn verify_at_epoch(
    query: &Query,
    records: &[Record],
    vo: &VerificationObject,
    template: &FunctionTemplate,
    verifier: &dyn Verifier,
    epoch: u64,
) -> Result<VerifiedResult, VerifyError> {
    let mut scratch = VerifyScratch::default();
    verify_at_epoch_with_scratch(query, records, vo, template, verifier, epoch, &mut scratch)
}

/// Like [`verify_at_epoch`], reusing the caller's [`VerifyScratch`] so
/// repeated verifications do not reallocate the leaf-digest buffer.
#[allow(clippy::too_many_arguments)]
pub fn verify_at_epoch_with_scratch(
    query: &Query,
    records: &[Record],
    vo: &VerificationObject,
    template: &FunctionTemplate,
    verifier: &dyn Verifier,
    epoch: u64,
    scratch: &mut VerifyScratch,
) -> Result<VerifiedResult, VerifyError> {
    let mut cost = ClientCost::default();
    let x = query.weights();
    if x.len() != template.dims() {
        return Err(VerifyError::BadRecord(
            "query weight vector does not match the template arity".into(),
        ));
    }
    // Under a non-finite weight or target, scores and predicates are NaN or
    // infinite, and the comparisons below can pass them vacuously.
    let finite_target = match query {
        Query::Knn { target, .. } => target.is_finite(),
        _ => true,
    };
    if !finite_target || !x.iter().all(|w| w.is_finite()) {
        return Err(VerifyError::BadRecord(
            "query weights and KNN target must be finite".into(),
        ));
    }

    // ---- Step 1a: rebuild the FMH part from the result + boundaries -------
    let leaves = &mut scratch.leaves;
    leaves.clear();
    leaves.reserve(records.len() + 2);
    leaves.push(vo.left_boundary.leaf_digest());
    cost.hash_ops += 1;
    Record::digests_into(records, leaves);
    cost.hash_ops += records.len();
    leaves.push(vo.right_boundary.leaf_digest());
    cost.hash_ops += 1;

    let first_leaf = vo.first_leaf as usize;
    let outcome = verify_range(first_leaf, leaves, &vo.range_proof)
        .map_err(|e| VerifyError::MalformedProof(e.to_string()))?;
    cost.hash_ops += outcome.hash_ops;

    let leaf_count = vo.range_proof.leaf_count as usize;
    let last_leaf = first_leaf + leaves.len() - 1;
    let subdomain_hash = subdomain_node_hash(&outcome.root, vo.range_proof.leaf_count);
    cost.hash_ops += 1;

    // Sentinel / position consistency: the min sentinel sits at leaf 0 and
    // the max sentinel at leaf `leaf_count - 1`, and nowhere else.
    match &vo.left_boundary {
        BoundaryEntry::MinSentinel if first_leaf != 0 => {
            return Err(VerifyError::MalformedVo(
                "min sentinel presented away from the start of the list".into(),
            ))
        }
        BoundaryEntry::Record(_) if first_leaf == 0 => {
            return Err(VerifyError::MalformedVo(
                "left boundary must be the min sentinel at the start of the list".into(),
            ))
        }
        BoundaryEntry::MaxSentinel => {
            return Err(VerifyError::MalformedVo(
                "left boundary cannot be the max sentinel".into(),
            ))
        }
        _ => {}
    }
    match &vo.right_boundary {
        BoundaryEntry::MaxSentinel if last_leaf != leaf_count - 1 => {
            return Err(VerifyError::MalformedVo(
                "max sentinel presented away from the end of the list".into(),
            ))
        }
        BoundaryEntry::Record(_) if last_leaf == leaf_count - 1 => {
            return Err(VerifyError::MalformedVo(
                "right boundary must be the max sentinel at the end of the list".into(),
            ))
        }
        BoundaryEntry::MinSentinel => {
            return Err(VerifyError::MalformedVo(
                "right boundary cannot be the min sentinel".into(),
            ))
        }
        _ => {}
    }

    // ---- Step 1b: subdomain verification + signature -----------------------
    let signed_digest = match &vo.intersection_verification {
        IntersectionVerification::OneSignature { path } => {
            let mut current = subdomain_hash;
            for step in path.iter().rev() {
                if step.coeffs.len() != x.len() {
                    return Err(VerifyError::MalformedVo(
                        "intersection predicate has wrong dimensionality".into(),
                    ));
                }
                let g: f64 = step
                    .coeffs
                    .iter()
                    .zip(x.iter())
                    .map(|(c, v)| c * v)
                    .sum::<f64>()
                    + step.constant;
                let expected_above = g >= 0.0;
                if expected_above != step.went_above {
                    return Err(VerifyError::WrongSubdomain);
                }
                let pred = step.predicate_digest();
                cost.hash_ops += 1;
                current = if step.went_above {
                    intersection_node_hash(&pred, &current, &step.sibling_hash)
                } else {
                    intersection_node_hash(&pred, &step.sibling_hash, &current)
                };
                cost.hash_ops += 1;
            }
            current
        }
        IntersectionVerification::MultiSignature { halfspaces } => {
            for hs in halfspaces {
                if hs.dims() != x.len() {
                    return Err(VerifyError::MalformedVo(
                        "inequality has wrong dimensionality".into(),
                    ));
                }
                if !hs.satisfied(x) {
                    return Err(VerifyError::WrongSubdomain);
                }
            }
            let ineq = inequality_set_digest(halfspaces);
            cost.hash_ops += 1 + halfspaces.len();
            let digest = multi_signature_digest(&ineq, &subdomain_hash);
            cost.hash_ops += 1;
            digest
        }
    };

    cost.signature_verifications += 1;
    let bound_digest = epoch_binding_digest(&signed_digest, epoch);
    cost.hash_ops += 1;
    if !verifier.verify_digest(&bound_digest, &vo.signature) {
        return Err(VerifyError::SignatureMismatch);
    }

    // ---- Step 2: query semantics -------------------------------------------
    fn boundary_record(entry: &BoundaryEntry) -> Option<&Record> {
        match entry {
            BoundaryEntry::Record(r) => Some(r),
            _ => None,
        }
    }
    let scores = check_window_semantics(
        query,
        records,
        boundary_record(&vo.left_boundary),
        boundary_record(&vo.right_boundary),
        template,
    )?;

    // Result length: top-k and KNN return exactly `k` records, or every
    // real record (sentinels excluded) of a shorter list.
    if let Query::TopK { k, .. } | Query::Knn { k, .. } = query {
        let expected = (*k).min(leaf_count.saturating_sub(2));
        if records.len() != expected {
            return Err(VerifyError::WrongResultLength {
                expected,
                got: records.len(),
            });
        }
        // A top-k window must end at the top of the authenticated list.
        if matches!(query, Query::TopK { .. })
            && expected > 0
            && !matches!(vo.right_boundary, BoundaryEntry::MaxSentinel)
        {
            return Err(VerifyError::Incomplete(
                "top-k result does not end at the maximum of the list".into(),
            ));
        }
    }

    Ok(VerifiedResult { cost, scores })
}

/// The query-semantics checks shared by every scheme that answers from an
/// authenticated ascending score list (the IFMH-tree here, the signature
/// mesh in `vaq-sigmesh`): given a result window and the records flanking
/// it (`None` for a list-end sentinel), all already proven authentic and
/// adjacent, recompute every score under the query's weights and check
///
/// * the window is in ascending score order,
/// * **range**: every returned record lies inside the range (soundness) and
///   both flanking records lie outside it (completeness),
/// * **top-k**: the record just below the window does not beat one in it,
/// * **KNN**: neither flanking record is closer to the target than the
///   farthest returned one.
///
/// Result *length* and list-end checks depend on what the scheme proves
/// about the list and stay with the caller. Returns the window's scores in
/// result order.
pub fn check_window_semantics(
    query: &Query,
    records: &[Record],
    left: Option<&Record>,
    right: Option<&Record>,
    template: &FunctionTemplate,
) -> Result<Vec<f64>, VerifyError> {
    let x = query.weights();
    if x.len() != template.dims() {
        return Err(VerifyError::BadRecord(
            "query weight vector does not match the template arity".into(),
        ));
    }
    let score_of = |record: &Record| -> Result<f64, VerifyError> {
        if record.arity() != template.dims() {
            return Err(VerifyError::BadRecord(format!(
                "record {} has arity {}, template needs {}",
                record.id,
                record.arity(),
                template.dims()
            )));
        }
        // `LinearFunction::eval` of the record's function (its attributes,
        // constant 0) without building it: the same sum, the same `+ 0.0`,
        // so every score is bit-identical, the sign of zero included.
        let dot = record.attrs.iter().zip(x).map(|(c, v)| c * v).sum::<f64>();
        Ok(dot + 0.0)
    };

    // One pass scores the window and checks its order: the authenticated
    // list is sorted ascending, so the result must be too. A record of the
    // wrong arity anywhere is reported before an order violation.
    let mut scores = Vec::with_capacity(records.len());
    let mut disordered = false;
    for record in records {
        let score = score_of(record)?;
        if let Some(&previous) = scores.last() {
            disordered |= previous > score + SCORE_EPS;
        }
        scores.push(score);
    }
    if disordered {
        return Err(VerifyError::InconsistentResultOrder);
    }

    let left_score = left.map(&score_of).transpose()?;
    let right_score = right.map(&score_of).transpose()?;

    match query {
        Query::Range { lower, upper, .. } => {
            // Soundness: every returned record satisfies the range.
            for (i, s) in scores.iter().enumerate() {
                if *s < lower - SCORE_EPS || *s > upper + SCORE_EPS {
                    return Err(VerifyError::UnsoundRecord { position: i });
                }
            }
            // Completeness: the entries flanking the window fall outside it.
            // Compared exactly, as the server's window search
            // (`Query::select_window_by`) compares the same scores: a
            // tolerance here would reject the honest answer whenever a
            // record scores just outside the range.
            if left_score.is_some_and(|ls| ls >= *lower) {
                return Err(VerifyError::Incomplete(
                    "left boundary record also satisfies the range".into(),
                ));
            }
            if right_score.is_some_and(|rs| rs <= *upper) {
                return Err(VerifyError::Incomplete(
                    "right boundary record also satisfies the range".into(),
                ));
            }
        }
        Query::TopK { .. } => {
            // The record just below the window must not beat anything in it.
            let min_included = scores.iter().cloned().fold(f64::INFINITY, f64::min);
            if left_score.is_some_and(|ls| ls > min_included + SCORE_EPS) {
                return Err(VerifyError::Incomplete(
                    "a record outside the top-k result scores higher than a returned one".into(),
                ));
            }
        }
        Query::Knn { target, .. } => {
            let worst_included = scores
                .iter()
                .map(|s| (s - target).abs())
                .fold(0.0f64, f64::max);
            let closer = |score: f64| (score - target).abs() + SCORE_EPS < worst_included;
            if left_score.is_some_and(closer) || right_score.is_some_and(closer) {
                return Err(VerifyError::Incomplete(
                    "an excluded record is closer to the target than a returned one".into(),
                ));
            }
        }
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_funcdb::FuncId;

    #[test]
    fn scores_are_the_template_functions_bit_for_bit() {
        // Seeded records, plus the signed zeros where `+ 0.0` decides the
        // sign: an all-`-0.0` record sums to `-0.0`, which the function's
        // zero constant turns into `+0.0`.
        let mut seed = 308u64;
        let mut uniform = move |scale: f64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            ((seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
        };
        for dims in 1..=5 {
            let template = FunctionTemplate::anonymous(dims);
            let x: Vec<f64> = (0..dims).map(|_| uniform(4.0)).collect();
            let mut records: Vec<Record> = (0..40)
                .map(|id| Record::new(id, (0..dims).map(|_| uniform(200.0)).collect()))
                .collect();
            records.push(Record::new(40, vec![-0.0; dims]));
            records.push(Record::new(41, vec![0.0; dims]));
            let eval = |r: &Record| template.to_function(FuncId(0), r).eval(&x);
            records.sort_by(|a, b| eval(a).total_cmp(&eval(b)));
            let query = Query::range(x.clone(), -1e300, 1e300);
            let scores = check_window_semantics(&query, &records, None, None, &template)
                .expect("every record is in range, in order");
            for (record, score) in records.iter().zip(&scores) {
                assert_eq!(score.to_bits(), eval(record).to_bits(), "{record:?}");
            }
        }
        let zero = check_window_semantics(
            &Query::range(vec![1.0, 1.0], -1.0, 1.0),
            &[Record::new(0, vec![-0.0, -0.0])],
            None,
            None,
            &FunctionTemplate::anonymous(2),
        );
        assert_eq!(zero.map(|s| s[0].to_bits()), Ok(0.0f64.to_bits()));
    }

    #[test]
    fn a_record_of_the_wrong_arity_is_reported_before_a_disorder_ahead_of_it() {
        let template = FunctionTemplate::anonymous(1);
        let check = |records: &[Record]| {
            check_window_semantics(
                &Query::range(vec![1.0], -9.0, 9.0),
                records,
                None,
                None,
                &template,
            )
        };
        let (high, low) = (Record::new(0, vec![2.0]), Record::new(1, vec![1.0]));
        let wide = Record::new(2, vec![0.5, 0.5]);
        assert_eq!(
            check(&[high.clone(), low.clone()]),
            Err(VerifyError::InconsistentResultOrder)
        );
        assert!(matches!(
            check(&[high, low, wide]),
            Err(VerifyError::BadRecord(_))
        ));
    }

    #[test]
    fn a_query_of_the_wrong_arity_is_refused_not_truncated() {
        let refused = check_window_semantics(
            &Query::range(vec![1.0], -1.0, 1.0),
            &[Record::new(0, vec![0.5, 0.5])],
            None,
            None,
            &FunctionTemplate::anonymous(2),
        );
        assert!(matches!(refused, Err(VerifyError::BadRecord(_))));
    }
}
