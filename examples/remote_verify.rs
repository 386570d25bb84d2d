//! End-to-end remote verification demo: the paper's three parties with a
//! real TCP hop between the untrusted server and the verifying user.
//!
//! ```text
//! cargo run --release --example remote_verify
//! ```
//!
//! The owner builds and signs the IFMH-tree, an untrusted `QueryService`
//! hosts it on an ephemeral localhost port, and client threads issue a mixed
//! top-k/range/KNN workload over the socket — verifying every response with
//! nothing but the owner's published template and public key. A final
//! tamper check shows why the verification matters.

use verified_analytics::authquery::{client, IfmhTree, Query, Server, SigningMode};
use verified_analytics::crypto::SignatureScheme;
use verified_analytics::service::{spec_to_query, QueryService, ServiceClient, ServiceConfig};
use verified_analytics::workload::{uniform_dataset, QueryGenerator, QueryMix};

fn main() {
    // --- Owner ------------------------------------------------------------
    let dataset = uniform_dataset(24, 2, 77);
    let scheme = SignatureScheme::test_rsa(77);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let template = dataset.template.clone();
    let public_key = scheme.public_key();
    println!(
        "owner: outsourced {} records, published template + key",
        dataset.len()
    );

    // --- Untrusted server -------------------------------------------------
    // Port 0: the OS picks a free ephemeral port (printed below), so
    // concurrent runs of this example never collide on a hardcoded port.
    let service = QueryService::bind(
        ServiceConfig::ephemeral().workers(4),
        Server::new(dataset.clone(), tree),
    )
    .expect("bind service");
    let addr = service.local_addr();
    println!(
        "server: listening on {addr} (port {}), epoch {}",
        addr.port(),
        service.epoch()
    );

    // --- One verifying user ----------------------------------------------
    let mut user = ServiceClient::connect(addr).expect("connect");
    let rtt = user.ping().expect("ping");
    println!("user: connected, ping {rtt:?}");
    let query = Query::top_k(vec![0.8, 0.4], 5);
    let (response, verified) = user
        .query_verified(&query, &template, &public_key)
        .expect("remote response must verify");
    println!(
        "user: `{query}` -> {} records, verified sound+complete ({} hash ops, {} sig checks)",
        response.records.len(),
        verified.cost.hash_ops,
        verified.cost.signature_verifications
    );

    // --- A batch: many queries pipelined, every answer verified -----------
    let batch = vec![
        Query::top_k(vec![0.8, 0.4], 5),
        Query::range(vec![0.5, 0.5], 0.2, 0.7),
        Query::knn(vec![0.3, 0.9], 3, 0.5),
    ];
    let responses = user.batch(None, &batch).expect("batch answered in order");
    for (query, response) in batch.iter().zip(&responses) {
        client::verify(
            query,
            &response.records,
            &response.vo,
            &template,
            &public_key,
        )
        .expect("every batch member must verify");
    }
    println!(
        "user: batch of {} pipelined on one connection, every member verified \
         (items are cached individually — the top-k above was a cache hit)",
        batch.len()
    );

    // --- Tamper check: a forged record must be caught ---------------------
    let (_, mut forged) = user.query(None, &query).expect("raw response");
    forged.records[0].attrs[0] += 0.05;
    let tampered = client::verify(&query, &forged.records, &forged.vo, &template, &public_key);
    println!(
        "user: tampered response rejected: {}",
        tampered.expect_err("tampering must be detected")
    );

    // --- Four concurrent users, 25 verified queries each -------------------
    // Each user knows only the published template, key and weight domain.
    const USERS: u64 = 4;
    const QUERIES_PER_USER: u64 = 25;
    let mix = QueryMix::weighted(2, 1, 1);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for user in 0..USERS {
            let (dataset, mix, template, public_key) = (&dataset, &mix, &template, &public_key);
            scope.spawn(move || {
                let mut generator = QueryGenerator::new(dataset, 0x10ad + user);
                let mut client = ServiceClient::connect(addr).expect("connect");
                for index in 0..QUERIES_PER_USER {
                    let query = spec_to_query(&mix.generate(&mut generator, index));
                    client
                        .query_verified(&query, template, public_key)
                        .expect("every remote response must verify");
                }
            });
        }
    });
    let total = USERS * QUERIES_PER_USER;
    println!(
        "users: {USERS} x {QUERIES_PER_USER} queries, {total}/{total} verified in {:?}",
        started.elapsed()
    );

    // --- Graceful shutdown ------------------------------------------------
    let stats = service.shutdown();
    println!(
        "server: drained and stopped after {} requests ({} cache hits, {:.1}% hit rate)",
        stats.requests_served,
        stats.cache_hits,
        100.0 * stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
}
