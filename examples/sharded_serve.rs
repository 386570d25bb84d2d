//! Stands up a sharded deployment: one logical dataset partitioned across S
//! query services, one address each, plus a scatter-gather self-test, a
//! live republication and a shard outage answered with a typed error.
//!
//! ```text
//! cargo run --release --example sharded_serve -- [shards] [records] [dims] [seed]
//! ```
//!
//! Every service binds port 0 — the OS picks free ephemeral ports, so
//! concurrent runs never collide — and the chosen addresses are printed
//! from the attested shard map itself.

use verified_analytics::authquery::{Query, SigningMode};
use verified_analytics::service::{ServiceConfig, ServiceError, ShardedClient, ShardedDeployment};
use verified_analytics::workload::uniform_dataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let shards: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let records: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(48);
    let dims: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("building dataset: {records} records, {dims} dims, seed {seed}");
    let dataset = uniform_dataset(records, dims, seed);

    println!("partitioning into {shards} shards (one signing key + one address each)...");
    let mut deployment = ShardedDeployment::launch(
        &dataset,
        shards,
        SigningMode::MultiSignature,
        seed,
        ServiceConfig::ephemeral().workers(2),
    )
    .expect("launch sharded deployment");

    let publication = deployment.publication();
    println!(
        "attested shard map: epoch {}, {} shards, {} records total",
        publication.shard_map.map.epoch,
        publication.shard_map.map.shard_count,
        publication.shard_map.map.total_records
    );
    for entry in &publication.shard_map.map.shards {
        println!(
            "  shard {}: {} records, own verification key, serving at {}",
            entry.shard_id, entry.records, entry.addr
        );
    }

    // Self-test: a verified scatter-gather round-trip of every query kind.
    let mut client =
        ShardedClient::connect_from_map(publication).expect("connect scatter-gather client");
    let weights = vec![1.0 / dims as f64; dims];
    for query in [
        Query::top_k(weights.clone(), 5),
        Query::range(weights.clone(), 0.2, 0.6),
        Query::knn(weights.clone(), 3, 0.5),
    ] {
        let merged = client
            .query_verified(&query)
            .expect("scatter-gather query verified");
        println!(
            "verified {query}: {} records merged from {:?} per-shard candidates",
            merged.records.len(),
            merged.per_shard_returned
        );
    }

    // A batch: the queries are pipelined to every shard as epoch-pinned
    // frames, every per-shard answer is verified and each query merged.
    let batch = vec![
        Query::top_k(weights.clone(), 4),
        Query::range(weights.clone(), 0.1, 0.5),
        Query::knn(weights.clone(), 2, 0.4),
    ];
    let merged = client
        .batch_verified(&batch)
        .expect("scatter-gather batch verified");
    println!(
        "verified a {}-query batch in one scatter per shard: {:?} records per answer",
        batch.len(),
        merged.iter().map(|m| m.records.len()).collect::<Vec<_>>()
    );

    // Live republication: the stale client is told, refreshes, reconverges.
    let epoch = deployment
        .republish(&dataset)
        .expect("hot republication under a connected client");
    println!("owner republished: deployment now serves epoch {epoch}");
    let query = Query::top_k(weights.clone(), 4);
    match client.query_verified(&query) {
        Err(e) if e.is_stale_epoch() => {
            let adopted = client.refresh().expect("re-fetch the signed map");
            println!("stale client detected the republication, refreshed to epoch {adopted}");
        }
        other => panic!("stale client should have been rejected, got {other:?}"),
    }
    client
        .query_verified(&query)
        .expect("converged client queries at the new epoch");

    // Outage: stop shard 0; the next query fails typed, naming the shard,
    // instead of merging an answer from the shards that are left.
    deployment.stop_shard(0).expect("shard 0 was up");
    match client.query_verified(&query) {
        Err(e @ ServiceError::ShardFailed { shard_id: 0, .. }) => {
            println!("stopped shard 0; the next query failed typed: {e}")
        }
        other => panic!("a dead shard must fail the query, got {other:?}"),
    }
    let stats = deployment.shutdown();
    let served: u64 = stats.iter().map(|s| s.requests_served).sum();
    println!(
        "shut down: {served} shard-requests served by the {} shards still up",
        stats.len()
    );
}
