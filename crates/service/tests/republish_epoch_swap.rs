//! Regression tests: a republication swaps the served structure atomically
//! with the epoch. A response stamped with the new epoch but carrying the
//! old epoch's interior proof, signature or record bytes cannot verify at
//! its own envelope epoch, so these tests detect a partial swap.

use vaq_authquery::{verify_at_epoch, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_service::{QueryService, ServiceClient, ServiceConfig};
use vaq_workload::uniform_dataset;

#[test]
fn republished_service_serves_proofs_that_verify_at_the_new_epoch_only() {
    let dataset = uniform_dataset(30, 1, 99);
    let scheme = SignatureScheme::test_rsa(99);
    let verifier = scheme.verifier();
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        let t0 = IfmhTree::build_at_epoch(&dataset, mode, &scheme, 0);
        let service =
            QueryService::bind(ServiceConfig::ephemeral(), Server::new(dataset.clone(), t0))
                .expect("bind");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
        let query = Query::top_k(vec![0.5], 3);

        let (epoch, resp) = client.query(None, &query).expect("query at epoch 0");
        assert_eq!(epoch, 0);
        verify_at_epoch(
            &query,
            &resp.records,
            &resp.vo,
            &dataset.template,
            verifier.as_ref(),
            0,
        )
        .expect("pre-republish response verifies at epoch 0");

        let t1 = IfmhTree::build_at_epoch(&dataset, mode, &scheme, 1);
        service
            .republish(Server::new(dataset.clone(), t1))
            .expect("hot swap to epoch 1");

        // Post-swap, the served interior proof must be the new epoch's:
        // the response verifies at epoch 1 and at no other epoch.
        let (epoch, resp) = client.query(None, &query).expect("query at epoch 1");
        assert_eq!(epoch, 1, "{mode:?}: envelope stamp must advance");
        verify_at_epoch(
            &query,
            &resp.records,
            &resp.vo,
            &dataset.template,
            verifier.as_ref(),
            1,
        )
        .expect("new-epoch response must carry new-epoch proofs");
        assert!(
            verify_at_epoch(
                &query,
                &resp.records,
                &resp.vo,
                &dataset.template,
                verifier.as_ref(),
                0,
            )
            .is_err(),
            "{mode:?}: response after republish must not verify at the superseded epoch"
        );
        service.shutdown();
    }
}

/// A republication that changes every record's attributes (and label):
/// the service frames replies from a per-publication arena of record
/// bytes, so the arena must swap with the structure. Clients query
/// throughout; every answer must carry exactly the records of the epoch
/// its envelope names and verify at that epoch, and every answer to a
/// request sent after `republish` returned must be the new epoch's.
#[test]
fn republish_that_changes_records_serves_their_new_bytes_at_the_new_epoch() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use vaq_funcdb::{Dataset, Record};
    use vaq_workload::patient_risk_table;

    let before = patient_risk_table(16, 34);
    let changed = before
        .records
        .iter()
        .map(|r| {
            let attrs = r.attrs.iter().map(|a| 1.0 - a * 0.5).collect();
            Record::with_label(r.id, attrs, format!("moved-{}", r.id))
        })
        .collect();
    let after = Dataset::new(changed, before.template.clone(), before.domain.clone());
    let scheme = SignatureScheme::test_rsa(34);
    let t0 = IfmhTree::build_at_epoch(&before, SigningMode::OneSignature, &scheme, 0);
    let t1 = IfmhTree::build_at_epoch(&after, SigningMode::OneSignature, &scheme, 1);
    let service =
        QueryService::bind(ServiceConfig::ephemeral(), Server::new(before.clone(), t0)).unwrap();
    let datasets = Arc::new([before, after]);
    let swapped = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicUsize::new(0));
    let clients = 3;
    let per_side = 20;

    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let (datasets, swapped) = (Arc::clone(&datasets), Arc::clone(&swapped));
            let answered = Arc::clone(&answered);
            let verifier = scheme.verifier();
            let mut client = ServiceClient::connect(service.local_addr()).unwrap();
            std::thread::spawn(move || {
                let (mut old, mut new) = (0, 0);
                for i in 0.. {
                    let x = (i * 7 + c) % 10;
                    let weights = vec![x as f64 / 10.0, 1.0 - x as f64 / 10.0];
                    let query = match i % 3 {
                        0 => Query::range(weights, 0.2, 0.9),
                        1 => Query::top_k(weights, 4),
                        _ => Query::knn(weights, 3, 0.5),
                    };
                    let sent_after_swap = swapped.load(Ordering::SeqCst);
                    let (epoch, resp) = client.query(None, &query).unwrap();
                    assert!(epoch <= 1 && (epoch == 1 || !sent_after_swap));
                    let dataset = &datasets[epoch as usize];
                    for record in &resp.records {
                        assert_eq!(record, &dataset.records[record.id as usize]);
                    }
                    verify_at_epoch(
                        &query,
                        &resp.records,
                        &resp.vo,
                        &dataset.template,
                        verifier.as_ref(),
                        epoch,
                    )
                    .unwrap_or_else(|e| panic!("epoch {epoch}, {query:?}: {e}"));
                    if epoch == 0 {
                        old += 1;
                        answered.fetch_add(1, Ordering::SeqCst);
                    } else {
                        new += 1;
                    }
                    if sent_after_swap && new >= per_side {
                        return old;
                    }
                }
                unreachable!()
            })
        })
        .collect();

    // Republish once the clients have had `per_side` answers each, on
    // average, at the first epoch.
    while answered.load(Ordering::SeqCst) < clients * per_side {
        std::thread::yield_now();
    }
    let t1_server = Server::new(datasets[1].clone(), t1);
    assert_eq!(service.republish(t1_server).unwrap(), 1);
    swapped.store(true, Ordering::SeqCst);
    let old_answers: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(old_answers >= clients * per_side);
    service.shutdown();
}
