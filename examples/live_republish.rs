//! Live-update lifecycle on a single service: the owner republishes the
//! dataset under a new epoch, the service hot-swaps it without dropping the
//! connection, and the verifying user detects the change through the typed
//! stale-epoch protocol — while a replayed response from the superseded
//! publication is rejected cryptographically.
//!
//! ```text
//! cargo run --release --example live_republish
//! ```

use verified_analytics::authquery::{verify_at_epoch, DataOwner, Query, Server, SigningMode};
use verified_analytics::crypto::SignatureScheme;
use verified_analytics::funcdb::Dataset;
use verified_analytics::service::{QueryService, ServiceClient, ServiceConfig};
use verified_analytics::workload::uniform_dataset;

fn main() {
    // --- Owner: first publication (epoch 0) -------------------------------
    let dataset = uniform_dataset(32, 2, 7);
    let mut owner = DataOwner::new(
        dataset.clone(),
        SignatureScheme::test_rsa(7),
        SigningMode::MultiSignature,
    );
    let metadata = owner.publish();
    println!(
        "owner: published {} records at epoch {}",
        owner.dataset().len(),
        metadata.epoch
    );

    // --- Service (binds port 0; the chosen port is printed) ---------------
    let service = QueryService::bind(
        ServiceConfig::ephemeral().workers(2),
        Server::new(owner.dataset().clone(), owner.outsource()),
    )
    .expect("bind service");
    let addr = service.local_addr();
    println!("server: listening on {addr} (port {})", addr.port());

    // --- User: pinned query at the published epoch ------------------------
    let mut user = ServiceClient::connect(addr).expect("connect");
    let query = Query::top_k(vec![0.7, 0.3], 5);
    let (_, response) = user
        .query(Some(metadata.epoch), &query)
        .expect("pinned query at epoch 0");
    verify_at_epoch(
        &query,
        &response.records,
        &response.vo,
        &metadata.template,
        &metadata.public_key,
        metadata.epoch,
    )
    .expect("epoch-0 response verifies");
    println!(
        "user: verified {} records at epoch {}",
        response.records.len(),
        metadata.epoch
    );

    // --- Owner: republish (three records change) → epoch 1 ----------------
    let mut updated = owner.dataset().clone();
    for record in updated.records.iter_mut().take(3) {
        record.attrs[0] = (record.attrs[0] + 0.41) % 1.0;
    }
    let updated = Dataset::new(updated.records, updated.template, updated.domain);
    let epoch = owner.republish(updated);
    let metadata = owner.publish();
    service
        .republish(Server::new(owner.dataset().clone(), owner.outsource()))
        .expect("hot swap");
    println!("owner: republished at epoch {epoch}; service hot-swapped with a fresh cache");

    // --- User: the old pin is refused with a typed error ------------------
    let stale = user.query(Some(0), &query).expect_err("old epoch refused");
    println!("user: old pin rejected — {stale}");
    assert!(stale.is_stale_epoch());

    // The same connection immediately works at the new epoch.
    let (_, fresh) = user
        .query(Some(metadata.epoch), &query)
        .expect("pinned query at epoch 1");
    verify_at_epoch(
        &query,
        &fresh.records,
        &fresh.vo,
        &metadata.template,
        &metadata.public_key,
        metadata.epoch,
    )
    .expect("epoch-1 response verifies");
    println!(
        "user: verified {} records at epoch {}",
        fresh.records.len(),
        metadata.epoch
    );

    // --- Replay: the epoch-0 response cannot pass as current --------------
    let replay = verify_at_epoch(
        &query,
        &response.records,
        &response.vo,
        &metadata.template,
        &metadata.public_key,
        metadata.epoch,
    );
    println!(
        "user: replayed epoch-0 response rejected: {:?}",
        replay.expect_err("replay must be rejected")
    );

    let stats = service.shutdown();
    println!(
        "server: drained at epoch {} after {} requests",
        stats.epoch, stats.requests_served
    );
}
