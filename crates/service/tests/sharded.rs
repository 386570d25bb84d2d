//! End-to-end suite for the sharded deployment tier: a ≥3-shard deployment
//! over localhost TCP, every per-shard response cryptographically verified,
//! merged answers compared byte-for-byte against a single-server deployment
//! hosting the same logical dataset, and shard-outage behaviour.

use std::time::Duration;

use vaq_authquery::{IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_funcdb::Dataset;
use vaq_service::{
    attest_shard_map, partition_dataset, spec_to_query, verify_shard_map, PartitionStrategy,
    QueryService, ServiceClient, ServiceConfig, ServiceError, ShardedClient, ShardedDeployment,
    ShardedPublication,
};
use vaq_wire::WireEncode;
use vaq_workload::{uniform_dataset, QueryGenerator, QueryMix};

const SHARDS: usize = 3;

/// A single-server deployment over the same logical dataset, for the
/// merged-equals-unsharded comparison.
fn single_server(dataset: &Dataset, seed: u64) -> (QueryService, SignatureScheme) {
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(dataset, SigningMode::MultiSignature, &scheme);
    let service = QueryService::bind(
        ServiceConfig::ephemeral().workers(2),
        Server::new(dataset.clone(), tree),
    )
    .expect("bind single-server service");
    (service, scheme)
}

/// Deterministic queries covering all three kinds, including edge cases
/// (k = 1, k beyond the dataset, empty and full ranges).
fn query_suite(dataset: &Dataset, seed: u64) -> Vec<Query> {
    let mut generator = QueryGenerator::new(dataset, seed);
    let mut queries: Vec<Query> = generator
        .mixed_batch(9, 3)
        .iter()
        .map(spec_to_query)
        .collect();
    let (lo, hi) = generator.score_range();
    queries.extend([
        Query::top_k(generator.weights(), 1),
        Query::top_k(generator.weights(), dataset.len()),
        Query::top_k(generator.weights(), dataset.len() + 10),
        Query::range(generator.weights(), lo - 2.0, hi + 2.0),
        Query::range(generator.weights(), hi + 1.0, hi + 2.0), // empty
        Query::knn(generator.weights(), 1, (lo + hi) / 2.0),
        Query::knn(generator.weights(), 7, hi),
        Query::knn(generator.weights(), dataset.len() + 3, lo),
    ]);
    queries
}

/// Starts `clients` threads, each a [`ShardedClient`] connected at the
/// deployment's current epoch and issuing `requests` seeded requests drawn
/// from `mix`. With `batches`, every second request is a batch of
/// `2 + index % 3` queries. A sharded call is verified end to end or it
/// errors; a typed stale-epoch rejection (the owner republished mid-run) is
/// ridden with `refresh()` and a bounded retry, and any other error fails
/// the run. Each thread returns the queries of every request it completed;
/// [`join_load`] gathers them.
fn spawn_load(
    deployment: &ShardedDeployment,
    dataset: &Dataset,
    mix: &QueryMix,
    batches: bool,
    clients: u64,
    requests: u64,
) -> Vec<std::thread::JoinHandle<Vec<Vec<Query>>>> {
    let spawn_one = |i: u64| {
        let mut client = deployment.client().expect("load client connects");
        let mut generator = QueryGenerator::new(dataset, 0x10ad + i);
        let mix = mix.clone();
        std::thread::spawn(move || {
            let mut done = Vec::new();
            for index in 0..requests {
                let size = if batches && index % 2 == 1 {
                    2 + index % 3
                } else {
                    1
                };
                let queries: Vec<Query> = (index..index + size)
                    .map(|at| spec_to_query(&mix.generate(&mut generator, at)))
                    .collect();
                let mut stale_retries = 0;
                loop {
                    let outcome = match queries.as_slice() {
                        [query] => client.query_verified(query).map(drop),
                        batch => client.batch_verified(batch).map(drop),
                    };
                    match outcome {
                        Ok(()) => break,
                        Err(e) if e.is_stale_epoch() && stale_retries < 200 => {
                            stale_retries += 1;
                            // A rollout flips shards one at a time; give it a
                            // moment before re-pinning.
                            let _ = client.refresh();
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(e) => panic!("client {i} request {index}: {e}"),
                    }
                }
                done.push(queries);
            }
            done
        })
    };
    (0..clients).map(spawn_one).collect()
}

/// Joins a [`spawn_load`] run: every request its clients completed,
/// verified, as the queries it carried.
fn join_load(threads: Vec<std::thread::JoinHandle<Vec<Vec<Query>>>>) -> Vec<Vec<Query>> {
    let join = |t: std::thread::JoinHandle<_>| t.join().expect("load client thread");
    threads.into_iter().flat_map(join).collect()
}

#[test]
fn sharded_answers_match_a_single_server_byte_for_byte() {
    let dataset = uniform_dataset(24, 1, 2026);
    let (single, _) = single_server(&dataset, 2026);
    let mut single_client = ServiceClient::connect(single.local_addr()).unwrap();

    let deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xdead,
        ServiceConfig::ephemeral().workers(2),
    )
    .expect("launch sharded deployment");
    assert_eq!(deployment.shard_count(), SHARDS);
    let mut sharded_client = deployment.client().expect("connect sharded client");

    for query in query_suite(&dataset, 555) {
        let merged = sharded_client
            .query_verified(&query)
            .unwrap_or_else(|e| panic!("sharded {query}: {e}"));
        let (_, single_response) = single_client
            .query(None, &query)
            .unwrap_or_else(|e| panic!("single {query}: {e}"));

        assert_eq!(
            merged.records, single_response.records,
            "sharded answer diverges from the single server for {query}"
        );
        // Byte-identical, not just structurally equal: the canonical wire
        // encodings of the result lists must agree.
        let merged_bytes: Vec<Vec<u8>> = merged.records.iter().map(|r| r.to_wire_bytes()).collect();
        let single_bytes: Vec<Vec<u8>> = single_response
            .records
            .iter()
            .map(|r| r.to_wire_bytes())
            .collect();
        assert_eq!(merged_bytes, single_bytes, "wire bytes diverge for {query}");

        // The merged scores are ascending — the single server's result
        // order — and aligned with the records.
        assert_eq!(merged.scores.len(), merged.records.len());
        assert!(merged.scores.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(merged.per_shard_returned.len(), SHARDS);
    }

    // Every shard served queries (round-robin partitioning guarantees all
    // shards hold records, and every query scatters to all of them).
    let per_shard = sharded_client
        .stats_deep_all()
        .expect("stats from every shard");
    assert_eq!(per_shard.len(), SHARDS);
    for (shard_id, stats) in per_shard.iter().enumerate() {
        assert!(
            stats.snapshot.requests_served > 0,
            "shard {shard_id} served no requests"
        );
    }

    single.shutdown();
    deployment.shutdown();
}

#[test]
fn sharded_batches_match_an_unsharded_batch_byte_for_byte() {
    // The acceptance scenario for batch scatter-gather: one epoch-pinned
    // pipeline of query frames per shard, every per-shard answer verified
    // under that shard's attested key, each query merged exactly like a
    // single sharded query — so the merged batch answers are byte-identical
    // to an unsharded `ServiceClient::batch` at the same epoch.
    let dataset = uniform_dataset(24, 1, 3030);
    let (single, _) = single_server(&dataset, 3030);
    let mut single_client = ServiceClient::connect(single.local_addr()).unwrap();

    let deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xbb,
        ServiceConfig::ephemeral().workers(2),
    )
    .expect("launch sharded deployment");
    let mut sharded_client = deployment.client().expect("connect sharded client");
    assert_eq!(sharded_client.epoch(), single.epoch(), "same epoch");

    // A mixed top-k/range/KNN batch, edge cases included.
    let queries = query_suite(&dataset, 888);
    let merged = sharded_client
        .batch_verified(&queries)
        .expect("sharded batch");
    let unsharded = single_client
        .batch(None, &queries)
        .expect("unsharded batch");
    assert_eq!(merged.len(), queries.len());
    assert_eq!(unsharded.len(), queries.len());

    for ((query, merged), single_response) in queries.iter().zip(&merged).zip(&unsharded) {
        assert_eq!(
            merged.records, single_response.records,
            "sharded batch answer diverges for {query}"
        );
        let merged_bytes: Vec<Vec<u8>> = merged.records.iter().map(|r| r.to_wire_bytes()).collect();
        let single_bytes: Vec<Vec<u8>> = single_response
            .records
            .iter()
            .map(|r| r.to_wire_bytes())
            .collect();
        assert_eq!(merged_bytes, single_bytes, "wire bytes diverge for {query}");
        assert_eq!(merged.scores.len(), merged.records.len());
        assert!(merged.scores.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(merged.per_shard_returned.len(), SHARDS);
    }

    // The batch answers also agree with the same queries issued singly
    // through the sharded path (one protocol, one merge).
    for (query, batched) in queries.iter().zip(&merged).take(4) {
        let singly = sharded_client
            .query_verified(query)
            .expect("single sharded query");
        assert_eq!(singly.records, batched.records, "{query}");
    }

    // Each shard answered one query frame per batch item and per single —
    // a batch is a pipeline of the same frames a single query sends.
    let per_shard = sharded_client.stats_deep_all().expect("per-shard stats");
    for (shard_id, stats) in per_shard.iter().enumerate() {
        let queries_served: u64 = stats
            .snapshot
            .per_kind
            .iter()
            .map(|k| k.histogram.count)
            .sum();
        assert_eq!(queries_served, queries.len() as u64 + 4, "shard {shard_id}");
    }

    // An empty batch answers an empty list exactly like the unsharded path,
    // without sending anything, and the client's connections stay usable.
    assert!(sharded_client
        .batch_verified(&[])
        .expect("empty batch")
        .is_empty());
    sharded_client
        .query_verified(&queries[0])
        .expect("client usable after the empty batch");

    single.shutdown();
    deployment.shutdown();
}

#[test]
fn sharded_batch_racing_republish_converges_without_mixing_epochs() {
    // Batches ride a live republication exactly like singles: a shard that
    // moved on answers the pinned query frames with a typed stale-epoch
    // rejection (never a mixed-epoch merge — every sub-response is verified
    // at the pinned epoch under epoch-bound signatures), and the driver
    // converges by re-fetching the signed map.
    let dataset = uniform_dataset(24, 1, 141);
    let mut updated = dataset.clone();
    for record in updated.records.iter_mut().take(6) {
        record.attrs[0] = (record.attrs[0] + 0.41) % 1.0;
    }
    let updated = vaq_funcdb::Dataset::new(updated.records, updated.template, updated.domain);

    let mut deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xd1,
        ServiceConfig::ephemeral().workers(4),
    )
    .unwrap();

    // Every second request carries a 2..4-query batch. A verification
    // failure (or any error but a ridden stale-epoch rejection) panics its
    // client thread and fails the join.
    let load = spawn_load(
        &deployment,
        &dataset,
        &QueryMix::weighted(2, 1, 1),
        true,
        3,
        24,
    );
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(deployment.republish(&updated).expect("live republish"), 1);

    let done = join_load(load);
    assert_eq!(done.len(), 72);
    let batches: Vec<&Vec<Query>> = done.iter().filter(|request| request.len() > 1).collect();
    assert!(!batches.is_empty(), "the load must issue batches");
    let verified: usize = done.iter().map(Vec::len).sum();
    let batch_queries: usize = batches.iter().map(|batch| batch.len()).sum();
    assert_eq!(
        verified,
        done.len() - batches.len() + batch_queries,
        "every single and every batch member verified"
    );

    // Post-churn, a fresh client's batches are byte-identical to a fresh
    // unsharded epoch-1 server over the republished dataset.
    let mut converged =
        ShardedClient::connect_from_map(deployment.publication()).expect("post-churn connect");
    assert_eq!(converged.epoch(), 1);
    let scheme = SignatureScheme::test_rsa(141);
    let single = vaq_authquery::Server::new(
        updated.clone(),
        vaq_authquery::IfmhTree::build_at_epoch(&updated, SigningMode::MultiSignature, &scheme, 1),
    );
    let queries = query_suite(&updated, 1234);
    let merged = converged.batch_verified(&queries).expect("epoch-1 batch");
    for (query, batched) in queries.iter().zip(&merged) {
        let expected = single.process(query);
        let merged_bytes: Vec<Vec<u8>> =
            batched.records.iter().map(|r| r.to_wire_bytes()).collect();
        let expected_bytes: Vec<Vec<u8>> =
            expected.records.iter().map(|r| r.to_wire_bytes()).collect();
        assert_eq!(merged_bytes, expected_bytes, "{query}");
    }
    deployment.shutdown();
}

#[test]
fn sharded_deployment_works_in_two_dimensions() {
    let dataset = uniform_dataset(15, 2, 31);
    let (single, _) = single_server(&dataset, 31);
    let mut single_client = ServiceClient::connect(single.local_addr()).unwrap();

    let deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xbeef,
        ServiceConfig::ephemeral(),
    )
    .unwrap();
    let mut sharded_client = deployment.client().unwrap();

    for query in query_suite(&dataset, 777).into_iter().take(9) {
        let merged = sharded_client
            .query_verified(&query)
            .unwrap_or_else(|e| panic!("sharded {query}: {e}"));
        let (_, single_response) = single_client.query(None, &query).unwrap();
        assert_eq!(merged.records, single_response.records, "{query}");
    }
    single.shutdown();
    deployment.shutdown();
}

#[test]
fn shard_outage_yields_a_typed_error_not_a_partial_answer() {
    let dataset = uniform_dataset(18, 1, 47);
    let mut deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xfeed,
        ServiceConfig::ephemeral(),
    )
    .unwrap();
    let mut client = deployment.client().unwrap();

    // Healthy deployment answers.
    let query = Query::top_k(vec![0.4], 5);
    let healthy = client.query_verified(&query).expect("healthy query");
    assert_eq!(healthy.records.len(), 5);

    // Take shard 1 down; the next query must fail with the typed per-shard
    // error naming that shard — never a silent 2-shard "answer". Stopping
    // a shard that is already down, or one past the end, is `None`.
    deployment.stop_shard(1).expect("shard 1 was up");
    assert!(
        deployment.stop_shard(1).is_none(),
        "shard 1 is already down"
    );
    assert!(deployment.stop_shard(SHARDS).is_none(), "no shard {SHARDS}");
    let mut failures = 0;
    for _ in 0..10 {
        match client.query_verified(&query) {
            Err(ServiceError::ShardFailed { shard_id, .. }) => {
                assert_eq!(shard_id, 1, "the downed shard must be named");
                failures += 1;
                break;
            }
            // The shard's ShuttingDown reply can race the socket close; a
            // retry settles onto the dead-connection path.
            Err(other) => panic!("expected ShardFailed, got {other}"),
            Ok(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    assert!(failures > 0, "a 2-of-3 deployment kept answering");

    // A fresh connect also fails against the downed shard.
    match ShardedClient::connect(deployment.addrs(), deployment.publication()) {
        Err(ServiceError::ShardFailed { shard_id, .. }) => assert_eq!(shard_id, 1),
        Err(other) => panic!("expected ShardFailed on connect, got {other}"),
        Ok(_) => panic!("connected to a deployment with a downed shard"),
    }
    deployment.shutdown();
}

#[test]
fn forged_or_mismatched_publications_are_rejected() {
    let dataset = uniform_dataset(12, 1, 53);
    let deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xabcd,
        ServiceConfig::ephemeral(),
    )
    .unwrap();

    // Wrong master key: the shard map signature must not verify.
    let mut forged = deployment.publication().clone();
    forged.master_key = SignatureScheme::test_rsa(0x666).public_key();
    match ShardedClient::connect(deployment.addrs(), &forged) {
        Err(ServiceError::ShardMap(reason)) => {
            assert!(reason.contains("signature"), "{reason}")
        }
        other => panic!(
            "expected a ShardMap rejection, got {other:?}",
            other = other.err()
        ),
    }

    // Mis-wired addresses: shard 0's socket actually hosts shard 2, which
    // the per-connection handshake against the attested map catches (and
    // names the offending shard).
    let mut swapped: Vec<_> = deployment.addrs().to_vec();
    swapped.reverse();
    match ShardedClient::connect(&swapped, deployment.publication()) {
        Err(ServiceError::ShardFailed { shard_id: 0, error }) => match *error {
            ServiceError::ShardMap(reason) => assert!(reason.contains("shard"), "{reason}"),
            other => panic!("expected a ShardMap handshake rejection, got {other}"),
        },
        other => panic!(
            "expected a handshake rejection, got {other:?}",
            other = other.err()
        ),
    }

    // Too few addresses for the attested shard count.
    match ShardedClient::connect(&deployment.addrs()[..SHARDS - 1], deployment.publication()) {
        Err(ServiceError::ShardMap(_)) => {}
        other => panic!(
            "expected a ShardMap rejection, got {other:?}",
            other = other.err()
        ),
    }
    deployment.shutdown();
}

/// `dataset` with record `i`'s id replaced by `id(i)`.
fn renumbered(dataset: &Dataset, id: impl Fn(u64) -> u64) -> Dataset {
    let mut records = dataset.records.clone();
    records.iter_mut().zip(0..).for_each(|(r, i)| r.id = id(i));
    Dataset::new(records, dataset.template.clone(), dataset.domain.clone())
}

fn is_invalid_input<T>(result: &Result<T, ServiceError>) -> bool {
    matches!(result, Err(ServiceError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput)
}

#[test]
fn launching_zero_shards_or_more_shards_than_records_is_a_typed_error() {
    let dataset = uniform_dataset(6, 1, 59);
    let decreasing = renumbered(&dataset, |i| 10 - i);
    let repeated = renumbered(&dataset, |i| i / 2);
    let mode = SigningMode::MultiSignature;
    let launch = |dataset: &Dataset, shards| {
        ShardedDeployment::launch(dataset, shards, mode, 0x59, ServiceConfig::ephemeral())
    };
    for (case, dataset, shards) in [
        ("0 shards", &dataset, 0),
        ("7 shards over 6 records", &dataset, 7),
        ("decreasing ids", &decreasing, 2),
        ("a repeated id", &repeated, 2),
    ] {
        let launched = launch(dataset, shards);
        assert!(is_invalid_input(&launched), "{case}: {launched:?}");
    }
    // A republication that could not be partitioned is refused the same
    // way, and every shard keeps serving epoch 0 under epoch 0's map.
    let mut deployment = launch(&dataset, SHARDS).unwrap();
    let map = deployment.publication().shard_map.clone();
    for (case, refused) in [
        ("2 records for 3 shards", &uniform_dataset(2, 1, 59)),
        ("decreasing ids", &decreasing),
        ("a repeated id", &repeated),
    ] {
        let republished = deployment.republish(refused);
        assert!(is_invalid_input(&republished), "{case}: {republished:?}");
        assert_eq!(deployment.epoch().get(), 0, "{case}");
        assert_eq!(deployment.publication().shard_map, map, "{case}");
    }
    let mut client = deployment.client().expect("connect at epoch 0");
    client.query_verified(&Query::top_k(vec![0.4], 3)).unwrap();
    assert!(deployment
        .stats_deep()
        .iter()
        .all(|deep| deep.snapshot.epoch == 0));
    deployment.shutdown();
}

#[test]
fn stale_clients_detect_republication_and_refresh_to_the_new_epoch() {
    let dataset = uniform_dataset(21, 1, 91);
    let mut deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0x91,
        ServiceConfig::ephemeral(),
    )
    .unwrap();
    let mut client = deployment.client().expect("connect at epoch 0");
    assert_eq!(client.epoch(), 0);
    let stale_publication = deployment.publication().clone();
    let query = Query::top_k(vec![0.6], 4);
    client.query_verified(&query).expect("epoch-0 query");

    // The owner republishes (here: one record's attributes change).
    let mut updated = dataset.clone();
    updated.records[3].attrs[0] = (updated.records[3].attrs[0] + 0.37) % 1.0;
    let updated = vaq_funcdb::Dataset::new(updated.records, updated.template, updated.domain);
    assert_eq!(deployment.republish(&updated).expect("republish"), 1);

    // The stale client's next pinned query is rejected with a typed
    // stale-epoch error — never answered quietly from the new dataset.
    let err = client.query_verified(&query).expect_err("stale pin");
    assert!(err.is_stale_epoch(), "expected stale-epoch, got {err}");

    // Re-fetching the signed map over the wire converges the client, and
    // its answers now match a fresh single server at the new epoch.
    assert_eq!(client.refresh().expect("refresh"), 1);
    assert_eq!(client.epoch(), 1);
    let merged = client.query_verified(&query).expect("epoch-1 query");
    let scheme = SignatureScheme::test_rsa(91);
    let single = vaq_authquery::Server::new(
        updated.clone(),
        vaq_authquery::IfmhTree::build_at_epoch(&updated, SigningMode::MultiSignature, &scheme, 1),
    );
    assert_eq!(merged.records, single.process(&query).records);

    // A client that has not connected yet meets the same race at its
    // handshake: the superseded publication is refused typed, and the signed
    // map fetched from any shard — verified under the same master key —
    // connects at the served epoch.
    let addrs = deployment.addrs().to_vec();
    let err = ShardedClient::connect(&addrs, &stale_publication).expect_err("stale handshake");
    assert!(err.is_stale_epoch(), "expected stale-epoch, got {err}");
    let fetched = ServiceClient::connect(addrs[0])
        .and_then(|mut c| c.shard_map())
        .expect("fetch the signed map");
    verify_shard_map(&fetched, &stale_publication.master_key).expect("fetched map verifies");
    let refreshed = ShardedPublication {
        shard_map: fetched,
        ..stale_publication
    };
    let late = ShardedClient::connect(&addrs, &refreshed).expect("connect at the served epoch");
    assert_eq!(late.epoch(), 1);
    deployment.shutdown();
}

#[test]
fn replayed_older_signed_map_is_rejected_everywhere() {
    let dataset = uniform_dataset(18, 1, 101);
    let mut deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xa1,
        ServiceConfig::ephemeral(),
    )
    .unwrap();
    let old_publication = deployment.publication().clone();
    assert_eq!(deployment.republish(&dataset).unwrap(), 1);

    // Client side, over the wire: connecting with the replayed (honestly
    // signed, superseded) publication fails the per-connection epoch
    // handshake with a typed stale-epoch error.
    let err = ShardedClient::connect(deployment.addrs(), &old_publication)
        .expect_err("old publication must not connect");
    assert!(err.is_stale_epoch(), "expected stale-epoch, got {err}");

    // Client side, out of band: a converged client refuses to adopt the
    // replayed map — rollback is rejected with a typed error.
    let mut client = deployment.client().expect("connect at epoch 1");
    assert_eq!(client.epoch(), 1);
    match client.adopt_map(old_publication.shard_map.clone()) {
        Err(ServiceError::StaleEpoch { expected, got }) => {
            assert_eq!((expected, got), (1, 0));
        }
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    // A same-epoch re-offer is a harmless no-op; the client keeps working.
    assert_eq!(
        client
            .adopt_map(deployment.publication().shard_map.clone())
            .unwrap(),
        1
    );
    client
        .query_verified(&Query::top_k(vec![0.5], 3))
        .expect("client unaffected by rejected rollback");

    // Server side: a service that already publishes the epoch-1 map
    // refuses to publish the replayed epoch-0 map.
    let scheme = SignatureScheme::test_rsa(7);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let standalone = QueryService::bind(
        ServiceConfig::ephemeral(),
        Server::new(dataset.clone(), tree),
    )
    .unwrap();
    standalone
        .set_shard_map(deployment.publication().shard_map.clone())
        .expect("newer map accepted");
    match standalone.set_shard_map(old_publication.shard_map.clone()) {
        Err(ServiceError::StaleEpoch { expected, got }) => {
            assert_eq!((expected, got), (2, 0));
        }
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    standalone.shutdown();
    deployment.shutdown();
}

#[test]
fn response_signed_under_a_superseded_epoch_is_rejected() {
    let dataset = uniform_dataset(16, 1, 111);
    let scheme = SignatureScheme::test_rsa(111);
    let query = Query::top_k(vec![0.7], 4);

    // An honest response from the epoch-0 publication...
    let old_server = Server::new(
        dataset.clone(),
        IfmhTree::build_at_epoch(&dataset, SigningMode::MultiSignature, &scheme, 0),
    );
    let replayed = old_server.process(&query);
    // ...verifies at its own epoch...
    vaq_authquery::verify_at_epoch(
        &query,
        &replayed.records,
        &replayed.vo,
        &dataset.template,
        &scheme.public_key(),
        0,
    )
    .expect("epoch-0 response verifies at epoch 0");
    // ...but a client that learned epoch 1 from the attested publication
    // rejects the replay with a typed error, because the replayed
    // signatures bind epoch 0.
    assert!(matches!(
        vaq_authquery::verify_at_epoch(
            &query,
            &replayed.records,
            &replayed.vo,
            &dataset.template,
            &scheme.public_key(),
            1,
        ),
        Err(vaq_authquery::VerifyError::SignatureMismatch)
    ));

    // Full stack: a service hot-swapped to epoch 1 stamps (and signs) its
    // answers at epoch 1, and a stale pin is refused with the typed remote
    // error rather than answered across epochs.
    let service = QueryService::bind(
        ServiceConfig::ephemeral(),
        Server::new(
            dataset.clone(),
            IfmhTree::build_at_epoch(&dataset, SigningMode::MultiSignature, &scheme, 0),
        ),
    )
    .unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    client
        .query(Some(0), &query)
        .expect("pin at epoch 0 serves");
    service
        .republish(Server::new(
            dataset.clone(),
            IfmhTree::build_at_epoch(&dataset, SigningMode::MultiSignature, &scheme, 1),
        ))
        .expect("hot swap to epoch 1");
    let err = client
        .query(Some(0), &query)
        .expect_err("stale pin refused");
    assert!(err.is_stale_epoch(), "expected stale-epoch, got {err}");
    let (epoch, fresh) = client.query(None, &query).expect("unpinned query");
    assert_eq!(epoch, 1);
    vaq_authquery::verify_at_epoch(
        &query,
        &fresh.records,
        &fresh.vo,
        &dataset.template,
        &scheme.public_key(),
        1,
    )
    .expect("epoch-1 response verifies at epoch 1");
    service.shutdown();
}

#[test]
fn republish_under_live_load_converges_then_a_dead_shard_is_a_typed_error() {
    // The acceptance scenario end to end: a sharded deployment takes a live
    // verified load while the owner republishes the dataset. Every client
    // must converge to the new epoch with zero verification failures, and
    // the final merged answers must be byte-identical to a fresh unsharded
    // server hosting the republished dataset at that epoch. Killing a shard
    // afterwards fails the converged client with a typed error naming it.
    let dataset = uniform_dataset(24, 1, 131);
    let mut updated = dataset.clone();
    for record in updated.records.iter_mut().take(8) {
        record.attrs[0] = (record.attrs[0] + 0.29) % 1.0;
    }
    let updated = vaq_funcdb::Dataset::new(updated.records, updated.template, updated.domain);

    let mut deployment = ShardedDeployment::launch(
        &dataset,
        SHARDS,
        SigningMode::MultiSignature,
        0xc1,
        ServiceConfig::ephemeral().workers(4),
    )
    .unwrap();

    let load = spawn_load(
        &deployment,
        &dataset,
        &QueryMix::weighted(2, 1, 1),
        false,
        3,
        30,
    );

    // Republish mid-run while the load keeps coming.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(deployment.republish(&updated).expect("live republish"), 1);

    let done = join_load(load);
    assert_eq!(done.len(), 90, "every answer verified");
    assert!(done.iter().all(|request| request.len() == 1));

    // Every client converged: a fresh map-connected client pins epoch 1,
    // and its merged answers are byte-identical to a fresh unsharded
    // server hosting the republished dataset at epoch 1.
    let mut converged =
        ShardedClient::connect_from_map(deployment.publication()).expect("post-churn connect");
    assert_eq!(converged.epoch(), 1);
    let scheme = SignatureScheme::test_rsa(131);
    let single = vaq_authquery::Server::new(
        updated.clone(),
        vaq_authquery::IfmhTree::build_at_epoch(&updated, SigningMode::MultiSignature, &scheme, 1),
    );
    for query in query_suite(&updated, 999) {
        let merged = converged
            .query_verified(&query)
            .unwrap_or_else(|e| panic!("converged {query}: {e}"));
        let expected = single.process(&query);
        let merged_bytes: Vec<Vec<u8>> = merged.records.iter().map(|r| r.to_wire_bytes()).collect();
        let expected_bytes: Vec<Vec<u8>> =
            expected.records.iter().map(|r| r.to_wire_bytes()).collect();
        assert_eq!(
            merged_bytes, expected_bytes,
            "wire bytes diverge for {query}"
        );
    }

    // A dead shard is a typed error naming it, never a partial answer.
    deployment.stop_shard(0).expect("shard 0 was up");
    match converged.query_verified(&Query::top_k(vec![0.5], 4)) {
        Err(ServiceError::ShardFailed { shard_id: 0, .. }) => {}
        other => panic!(
            "expected ShardFailed for shard 0, got {other:?}",
            other = other.map(|merged| merged.records.len())
        ),
    }
    deployment.shutdown();
}

#[test]
fn signed_map_without_addresses_is_a_typed_error_not_a_panic() {
    // A signed map is still attacker-shaped input, and a map entry listing
    // no usable serving addresses used to be an unchecked assumption on the
    // connect path. It must surface as a typed ServiceError, never a panic
    // (the service's no-panic rule is held by clippy, see its lib.rs).
    let dataset = uniform_dataset(9, 1, 77);
    let shards = partition_dataset(&dataset, SHARDS, PartitionStrategy::RoundRobin);
    let schemes: Vec<SignatureScheme> = (0..SHARDS)
        .map(|i| SignatureScheme::test_rsa(100 + i as u64))
        .collect();
    let keys: Vec<_> = schemes.iter().map(|s| s.public_key()).collect();
    let master = SignatureScheme::test_rsa(7);

    let addrs = ["127.0.0.1:4300".parse().unwrap(); SHARDS];
    let honest = attest_shard_map(&shards, &keys, &master, 1, &addrs);
    // Legitimately re-signed, verifies fine — but every entry's address is
    // empty, or does not parse.
    for addr in ["", "not-an-address"] {
        let mut map = honest.map.clone();
        for entry in &mut map.shards {
            entry.addr = addr.into();
        }
        let publication = ShardedPublication {
            shard_map: vaq_wire::SignedShardMap {
                signature: master.sign_digest(&map.digest()),
                map,
            },
            master_key: master.public_key(),
            template: dataset.template.clone(),
        };
        verify_shard_map(&publication.shard_map, &publication.master_key).expect("signed");
        match ShardedClient::connect_from_map(&publication) {
            Err(ServiceError::ShardMap(reason)) => {
                assert!(reason.contains("no usable address"), "{reason}")
            }
            other => panic!(
                "{addr:?}: expected a typed ShardMap error, got {other:?}",
                other = other.err()
            ),
        }
    }
}
