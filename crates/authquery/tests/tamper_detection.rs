//! Adversarial tests: every way a malicious (or faulty) server can deviate
//! from the honest protocol must be detected by the client.
//!
//! These scenarios mirror the paper's adversary model (Sec. 2.2) and the two
//! attack cases analysed in Sec. 4.1: dropping records from the middle of a
//! result (incompleteness) and forging boundary records.

use vaq_authquery::{
    client, BoundaryEntry, IfmhTree, IntersectionVerification, Query, Server, SigningMode,
    VerifyError,
};
use vaq_crypto::{SignatureScheme, Signer, Verifier};
use vaq_funcdb::{Dataset, Record};
use vaq_workload::uniform_dataset;

struct Setup {
    dataset: Dataset,
    server: Server,
    verifier: Box<dyn Verifier>,
}

fn setup(mode: SigningMode, n: usize, seed: u64) -> Setup {
    let dataset = uniform_dataset(n, 1, seed);
    let scheme = SignatureScheme::test_rsa(seed ^ 0x5151);
    let tree = IfmhTree::build(&dataset, mode, &scheme);
    let server = Server::new(dataset.clone(), tree);
    Setup {
        dataset,
        server,
        verifier: scheme.verifier(),
    }
}

fn both_modes() -> Vec<SigningMode> {
    vec![SigningMode::OneSignature, SigningMode::MultiSignature]
}

#[test]
fn dropping_a_middle_record_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 1);
        let query = Query::range(vec![0.5], 0.1, 0.9);
        let mut resp = s.server.process(&query);
        assert!(resp.records.len() >= 3, "need a non-trivial result");
        // The server drops one record from the middle of the result but keeps
        // the verification object untouched.
        resp.records.remove(resp.records.len() / 2);
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(out.is_err(), "mode {mode}: dropped record must be detected");
    }
}

#[test]
fn modifying_a_record_attribute_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 2);
        let query = Query::top_k(vec![0.4], 5);
        let mut resp = s.server.process(&query);
        resp.records[0].attrs[0] += 0.05;
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(
            out.is_err(),
            "mode {mode}: modified record must be detected"
        );
    }
}

#[test]
fn substituting_a_foreign_record_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 3);
        let query = Query::top_k(vec![0.4], 4);
        let mut resp = s.server.process(&query);
        // Replace one result record with a fabricated one that would score
        // plausibly but never existed in the database.
        resp.records[1] = Record::new(999, vec![0.77]);
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(out.is_err(), "mode {mode}: forged record must be detected");
    }
}

#[test]
fn truncating_the_top_k_result_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 15, 4);
        let query = Query::top_k(vec![0.8], 6);
        let mut resp = s.server.process(&query);
        // Return only 4 of the requested 6 (e.g. to save work).
        resp.records.truncate(4);
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(
            out.is_err(),
            "mode {mode}: truncated top-k must be detected"
        );
    }
}

#[test]
fn answering_top_k_with_lower_ranked_records_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 15, 5);
        let honest_top3 = s.server.process(&Query::top_k(vec![0.6], 3));
        // A malicious server tries to pass off ranks 4-6 as the top 3 by
        // reusing the VO of a *different* (honest) query window: take the
        // honest answer for top-6 and give only its lower half plus its VO.
        let top6 = s.server.process(&Query::top_k(vec![0.6], 6));
        let lower_half: Vec<Record> = top6.records[..3].to_vec();
        let query = Query::top_k(vec![0.6], 3);
        let out = client::verify(
            &query,
            &lower_half,
            &top6.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(out.is_err(), "mode {mode}: wrong window must be detected");
        // Sanity: the honest top-3 verifies.
        let ok = client::verify(
            &query,
            &honest_top3.records,
            &honest_top3.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(ok.is_ok());
    }
}

#[test]
fn narrowing_a_range_result_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 25, 6);
        let query = Query::range(vec![0.3], 0.2, 0.8);
        // The server answers honestly for a narrower range and presents it
        // for the original query (classic "save work" incompleteness).
        let narrow = s.server.process(&Query::range(vec![0.3], 0.3, 0.6));
        let out = client::verify(
            &query,
            &narrow.records,
            &narrow.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(out.is_err(), "mode {mode}: narrowed range must be detected");
    }
}

#[test]
fn emptying_one_answer_among_several_is_pinpointed() {
    for mode in both_modes() {
        let s = setup(mode, 20, 91);
        let queries = [
            Query::top_k(vec![0.8], 4),
            Query::range(vec![0.3], 0.05, 0.2),
            Query::knn(vec![0.6], 3, 0.3),
        ];
        let mut responses: Vec<_> = queries.iter().map(|q| s.server.process(q)).collect();
        // The server clears every record of the second answer only and keeps
        // its VO as it was.
        assert!(!responses[1].records.is_empty(), "need a non-empty answer");
        responses[1].records.clear();
        let failed: Vec<usize> = queries
            .iter()
            .zip(&responses)
            .enumerate()
            .filter(|(_, (q, r))| {
                client::verify(
                    q,
                    &r.records,
                    &r.vo,
                    &s.dataset.template,
                    s.verifier.as_ref(),
                )
                .is_err()
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            failed,
            vec![1],
            "mode {mode}: only the emptied answer fails"
        );
    }
}

#[test]
fn dropping_the_record_scoring_exactly_lower_is_detected() {
    // The exact flank comparison must still catch the one-record version of
    // the narrowing attack: the lowest in-range record scores `lower`
    // exactly, and the server presents its honest answer to the range that
    // starts one ulp above — so the dropped record is the left flank.
    for mode in both_modes() {
        let s = setup(mode, 20, 17);
        let x = vec![0.5];
        let mut scores: Vec<f64> = s.dataset.functions.iter().map(|f| f.eval(&x)).collect();
        scores.sort_by(f64::total_cmp);
        let (lower, upper) = (scores[5], scores[12]);
        let query = Query::range(x.clone(), lower, upper);
        let honest = s.server.process(&query);
        assert_eq!(honest.records.len(), 8, "the record at `lower` is in range");

        let just_above = f64::from_bits(lower.to_bits() + 1);
        let narrow = s.server.process(&Query::range(x, just_above, upper));
        assert_eq!(narrow.records.len(), 7);
        let out = client::verify(
            &query,
            &narrow.records,
            &narrow.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(
            matches!(out, Err(VerifyError::Incomplete(_))),
            "mode {mode}: dropped record at `lower` must be Incomplete, got {out:?}"
        );
    }
}

#[test]
fn vo_from_a_different_weight_vector_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 25, 7);
        // Only meaningful when different weights land in different subdomains;
        // with a univariate database all weights share one subdomain, so use
        // a 2-attribute dataset here.
        let dataset = uniform_dataset(8, 2, 7);
        let scheme = SignatureScheme::test_rsa(77);
        let tree = IfmhTree::build(&dataset, mode, &scheme);
        if tree.subdomain_count() < 2 {
            continue; // arrangement happened to be trivial; nothing to test
        }
        let server = Server::new(dataset.clone(), tree);
        let verifier = scheme.verifier();

        // Find two weight vectors that live in different subdomains.
        let probes: Vec<Vec<f64>> = (1..40)
            .map(|i| vec![i as f64 / 40.0, 1.0 - i as f64 / 40.0])
            .collect();
        let mut split = None;
        for w in &probes[1..] {
            let a = server.tree().itree().locate(&probes[0]).leaf;
            let b = server.tree().itree().locate(w).leaf;
            if a != b {
                split = Some((probes[0].clone(), w.clone()));
                break;
            }
        }
        let Some((w1, w2)) = split else { continue };

        // Answer computed (honestly) for w2 but presented for the query at w1.
        let q1 = Query::top_k(w1, 3);
        let r2 = server.process(&Query::top_k(w2, 3));
        let out = client::verify(
            &q1,
            &r2.records,
            &r2.vo,
            &dataset.template,
            verifier.as_ref(),
        );
        assert!(
            matches!(out, Err(VerifyError::WrongSubdomain) | Err(_)),
            "mode {mode}: wrong-subdomain replay must be detected"
        );
        let _ = s; // keep the outer setup alive for symmetry
    }
}

#[test]
fn tampered_signature_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 12, 8);
        let query = Query::range(vec![0.5], 0.2, 0.7);
        let mut resp = s.server.process(&query);
        // Flip a bit in the signature.
        match &mut resp.vo.signature {
            vaq_crypto::Signature::Rsa(sig) => sig.bytes[0] ^= 0x01,
            vaq_crypto::Signature::Dsa(sig) => {
                sig.r = sig.r.add(&vaq_crypto::BigUint::one());
            }
        }
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert_eq!(
            out.unwrap_err(),
            VerifyError::SignatureMismatch,
            "mode {mode}"
        );
    }
}

#[test]
fn zero_padded_signature_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 12, 8);
        let query = Query::range(vec![0.5], 0.2, 0.7);
        let mut resp = s.server.process(&query);
        // The same integer under a second spelling: one answer must not
        // have two acceptable response frames.
        match &mut resp.vo.signature {
            vaq_crypto::Signature::Rsa(sig) => sig.bytes.insert(0, 0x00),
            vaq_crypto::Signature::Dsa(_) => unreachable!("setup signs with RSA"),
        }
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert_eq!(
            out.unwrap_err(),
            VerifyError::SignatureMismatch,
            "mode {mode}"
        );
    }
}

#[test]
fn signature_from_a_different_owner_is_detected() {
    for mode in both_modes() {
        let dataset = uniform_dataset(12, 1, 9);
        let owner = SignatureScheme::test_rsa(100);
        let imposter = SignatureScheme::test_rsa(101);
        let tree = IfmhTree::build(&dataset, mode, &imposter);
        let server = Server::new(dataset.clone(), tree);
        let query = Query::top_k(vec![0.5], 3);
        let resp = server.process(&query);
        // The client trusts the real owner's key, not the imposter's.
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &dataset.template,
            owner.verifier().as_ref(),
        );
        assert_eq!(
            out.unwrap_err(),
            VerifyError::SignatureMismatch,
            "mode {mode}"
        );
    }
}

#[test]
fn tampered_boundary_record_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 10);
        // Range chosen so both boundaries are real records.
        let query = Query::range(vec![0.5], 0.3, 0.7);
        let mut resp = s.server.process(&query);
        if let BoundaryEntry::Record(r) = &mut resp.vo.left_boundary {
            // Pretend the record just below the range actually scores lower
            // than it does (to hide an omission).
            r.attrs[0] = 0.0;
            let out = client::verify(
                &query,
                &resp.records,
                &resp.vo,
                &s.dataset.template,
                s.verifier.as_ref(),
            );
            assert!(
                out.is_err(),
                "mode {mode}: tampered boundary must be detected"
            );
        }
    }
}

#[test]
fn fake_sentinel_in_place_of_boundary_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 11);
        let query = Query::range(vec![0.5], 0.3, 0.7);
        let mut resp = s.server.process(&query);
        if matches!(resp.vo.left_boundary, BoundaryEntry::Record(_)) {
            // Claim the result starts at the very beginning of the list.
            resp.vo.left_boundary = BoundaryEntry::MinSentinel;
            let out = client::verify(
                &query,
                &resp.records,
                &resp.vo,
                &s.dataset.template,
                s.verifier.as_ref(),
            );
            assert!(out.is_err(), "mode {mode}: fake sentinel must be detected");
        }
    }
}

#[test]
fn tampered_range_proof_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 12);
        let query = Query::range(vec![0.5], 0.2, 0.5);
        let mut resp = s.server.process(&query);
        if let Some(node) = resp.vo.range_proof.nodes.first_mut() {
            node.hash[0] ^= 0xff;
            let out = client::verify(
                &query,
                &resp.records,
                &resp.vo,
                &s.dataset.template,
                s.verifier.as_ref(),
            );
            assert!(out.is_err(), "mode {mode}: tampered proof must be detected");
        }
    }
}

#[test]
fn lying_about_leaf_count_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 13);
        // A top-k answer where the server pretends the database is smaller
        // than it is (so a truncated result looks complete).
        let query = Query::top_k(vec![0.6], 8);
        let mut resp = s.server.process(&query);
        resp.records.drain(..4); // keep only the top 4
        resp.vo.range_proof.leaf_count = 4 + 2; // claim n = 4
        resp.vo.first_leaf = 1;
        resp.vo.left_boundary = BoundaryEntry::MinSentinel;
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(
            out.is_err(),
            "mode {mode}: forged leaf count must be detected"
        );
    }
}

#[test]
fn reordering_result_records_is_detected() {
    for mode in both_modes() {
        let s = setup(mode, 20, 14);
        let query = Query::range(vec![0.5], 0.1, 0.9);
        let mut resp = s.server.process(&query);
        assert!(resp.records.len() >= 2);
        let last = resp.records.len() - 1;
        resp.records.swap(0, last);
        let out = client::verify(
            &query,
            &resp.records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        );
        assert!(
            out.is_err(),
            "mode {mode}: reordered result must be detected"
        );
    }
}

#[test]
fn multi_signature_inequalities_cannot_be_swapped() {
    // Replaying a *different subdomain's* signature with doctored
    // inequalities must fail: the signature binds the inequalities.
    let dataset = uniform_dataset(8, 2, 15);
    let scheme = SignatureScheme::test_rsa(200);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    if tree.subdomain_count() < 2 {
        return;
    }
    let server = Server::new(dataset.clone(), tree);
    let verifier = scheme.verifier();
    let query = Query::top_k(vec![0.9, 0.1], 2);
    let mut resp = server.process(&query);
    // Drop the inequalities so any X appears to satisfy the subdomain.
    if let IntersectionVerification::MultiSignature { halfspaces } =
        &mut resp.vo.intersection_verification
    {
        halfspaces.clear();
    }
    let out = client::verify(
        &query,
        &resp.records,
        &resp.vo,
        &dataset.template,
        verifier.as_ref(),
    );
    assert!(out.is_err(), "stripped inequalities must be detected");
}

#[test]
fn an_empty_label_swapped_for_an_absent_one_is_detected() {
    // `label: None` and `label: Some("")` are different records. Whichever
    // the owner published, a reply carrying the other must not verify.
    for mode in both_modes() {
        for (published, swapped) in [(None, Some(String::new())), (Some(String::new()), None)] {
            let mut dataset = uniform_dataset(20, 1, 19);
            for record in &mut dataset.records {
                record.label = published.clone();
            }
            let scheme = SignatureScheme::test_rsa(19 ^ 0x5151);
            let server = Server::new(dataset.clone(), IfmhTree::build(&dataset, mode, &scheme));
            let verifier = scheme.verifier();
            let query = Query::top_k(vec![0.4], 3);
            let resp = server.process(&query);
            let verify = |records: &[Record]| {
                client::verify(
                    &query,
                    records,
                    &resp.vo,
                    &dataset.template,
                    verifier.as_ref(),
                )
            };
            assert!(verify(&resp.records).is_ok(), "mode {mode}: honest reply");
            let mut records = resp.records.clone();
            records[0].label = swapped.clone();
            assert!(
                verify(&records).is_err(),
                "mode {mode}: label {published:?} swapped for {swapped:?} must be detected"
            );
        }
    }
}

#[test]
fn a_wide_answer_rejects_a_flipped_bit_or_a_swap_at_every_group_boundary() {
    // The client hashes a wide answer's records sixteen to a batch: a bit
    // flipped in the first, last and middle lanes of the first groups and
    // in the last record, and adjacent records swapped inside a group and
    // across a group boundary, must each fail; the honest answer verifies.
    let s = setup(SigningMode::OneSignature, 3520, 36);
    let query = Query::range(vec![0.5], 0.1, 0.225);
    let resp = s.server.process(&query);
    let n = resp.records.len();
    assert!((800..=960).contains(&n), "{n} records");
    let verify = |records: &[Record]| {
        client::verify(
            &query,
            records,
            &resp.vo,
            &s.dataset.template,
            s.verifier.as_ref(),
        )
    };
    assert!(verify(&resp.records).is_ok(), "honest answer");
    for at in [0, 15, 16, 17, 31, 32, n - 1] {
        let mut records = resp.records.clone();
        let attr = &mut records[at].attrs[0];
        *attr = f64::from_bits(attr.to_bits() ^ 1);
        let out = verify(&records);
        assert_eq!(
            out.err(),
            Some(VerifyError::SignatureMismatch),
            "bit flipped in record {at}"
        );
    }
    for at in [4, 15] {
        let mut records = resp.records.clone();
        records.swap(at, at + 1);
        assert!(
            verify(&records).is_err(),
            "records {at} and {} swapped",
            at + 1
        );
    }
}

#[test]
fn honest_responses_still_verify_after_adversarial_suite() {
    // Guard against the checks being trivially over-strict: honest responses
    // for the same configurations used above must all pass.
    for mode in both_modes() {
        let s = setup(mode, 20, 16);
        for query in [
            Query::top_k(vec![0.6], 8),
            Query::range(vec![0.5], 0.3, 0.7),
            Query::knn(vec![0.4], 5, 0.5),
        ] {
            let resp = s.server.process(&query);
            let out = client::verify(
                &query,
                &resp.records,
                &resp.vo,
                &s.dataset.template,
                s.verifier.as_ref(),
            );
            assert!(
                out.is_ok(),
                "honest {query} must verify under {mode}: {:?}",
                out.err()
            );
        }
    }
}
