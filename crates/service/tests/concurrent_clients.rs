//! Localhost integration tests: a real `QueryService` on an ephemeral port,
//! driven by concurrent clients over TCP, with every response verified
//! cryptographically — the paper's three-party protocol across an actual
//! network boundary.

use std::sync::Arc;
use std::time::Duration;

use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{PublicKey, SignatureScheme, Signer};
use vaq_funcdb::Dataset;
use vaq_service::{spec_to_query, QueryService, ServiceClient, ServiceConfig, ServiceError};
use vaq_wire::{ErrorCode, Request, Response, WireEncode};
use vaq_workload::{uniform_dataset, QueryGenerator};

/// Owner-side setup: dataset, signed tree, scheme.
fn owner_setup(n: usize, dims: usize, seed: u64) -> (Dataset, Server, SignatureScheme) {
    let dataset = uniform_dataset(n, dims, seed);
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let server = Server::new(dataset.clone(), tree);
    (dataset, server, scheme)
}

/// Drain-time counters (`requests_served`, per-kind histograms) commit when
/// the reactor finishes writing each reply frame — an instant *after* the
/// client's read returns. Same-connection wire scrapes are ordered behind
/// that drain, but in-process `service.stats()` readers race it, so they
/// poll until the expected request count lands.
fn stats_once_served(service: &QueryService, served: u64) -> vaq_wire::StatsSnapshot {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = service.stats();
        if stats.requests_served >= served || std::time::Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn concurrent_clients_complete_a_mixed_verified_workload() {
    let (dataset, server, scheme) = owner_setup(14, 1, 2024);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(4), server).unwrap();
    let addr = service.local_addr();
    let template = Arc::new(dataset.template.clone());
    let public_key: Arc<PublicKey> = Arc::new(scheme.public_key());

    const CLIENTS: usize = 5;
    const QUERIES_PER_CLIENT: usize = 9;

    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let dataset = dataset.clone();
            let template = Arc::clone(&template);
            let public_key = Arc::clone(&public_key);
            std::thread::spawn(move || {
                let mut generator = QueryGenerator::new(&dataset, 100 + i as u64);
                let mut client = ServiceClient::connect(addr).expect("connect");
                let mut verified = 0usize;
                // A mixed batch covers top-k, range and KNN kinds.
                for spec in generator.mixed_batch(QUERIES_PER_CLIENT, 3) {
                    let query = spec_to_query(&spec);
                    let (_, outcome) = client
                        .query_verified(&query, &template, public_key.as_ref())
                        .unwrap_or_else(|e| panic!("client {i}, query {query}: {e}"));
                    assert!(!outcome.scores.is_empty() || matches!(query, Query::Range { .. }));
                    verified += 1;
                }
                verified
            })
        })
        .collect();

    let total_verified: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(total_verified, CLIENTS * QUERIES_PER_CLIENT);

    let stats = stats_once_served(&service, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert!(
        stats.requests_served >= (CLIENTS * QUERIES_PER_CLIENT) as u64,
        "served {} of {}",
        stats.requests_served,
        CLIENTS * QUERIES_PER_CLIENT
    );
    assert_eq!(stats.errors, 0);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    // Every query kind saw traffic and the histograms account for it.
    for kind in ["topk", "range", "knn"] {
        let histogram = &stats
            .per_kind
            .iter()
            .find(|k| k.kind == kind)
            .unwrap_or_else(|| panic!("missing kind {kind}"))
            .histogram;
        assert!(histogram.count > 0, "no {kind} latency observations");
        assert_eq!(
            histogram.bucket_counts.iter().sum::<u64>(),
            histogram.count,
            "{kind} bucket counts must sum to the observation count"
        );
    }
    service.shutdown();
}

#[test]
fn repeated_queries_hit_the_response_cache() {
    let (dataset, server, scheme) = owner_setup(12, 1, 7);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(2), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    let verifier = scheme.verifier();
    let query = Query::top_k(vec![0.4], 4);

    let first = client.query(&query).unwrap();
    let second = client.query(&query).unwrap();
    // The cached response is byte-identical, so it decodes equal and still
    // verifies.
    assert_eq!(first.records, second.records);
    assert_eq!(first.vo, second.vo);
    client::verify(
        &query,
        &second.records,
        &second.vo,
        &dataset.template,
        verifier.as_ref(),
    )
    .expect("cached response must verify");

    let stats = client.stats_deep().unwrap().snapshot;
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);

    // A structurally different query misses.
    client.query(&Query::top_k(vec![0.4], 5)).unwrap();
    let stats = client.stats_deep().unwrap().snapshot;
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    service.shutdown();
}

#[test]
fn graceful_shutdown_stops_the_listener_and_reports_final_stats() {
    let (_, server, _) = owner_setup(10, 1, 11);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(3), server).unwrap();
    let addr = service.local_addr();

    let mut client = ServiceClient::connect(addr).unwrap();
    client.ping().unwrap();

    let stats = service.shutdown();
    assert!(stats.requests_served >= 1);

    // The listener is gone: new connections are refused (or, at worst, any
    // raced connection is closed without service).
    match ServiceClient::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut raced) => {
            raced
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            assert!(raced.ping().is_err(), "no requests served after shutdown");
        }
    }
}

#[test]
fn batches_round_trip_and_verify() {
    let (dataset, server, scheme) = owner_setup(13, 1, 21);
    let service = QueryService::bind(ServiceConfig::ephemeral(), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    let verifier = scheme.verifier();

    let queries = vec![
        Query::top_k(vec![0.7], 3),
        Query::range(vec![0.3], 0.1, 0.8),
        Query::knn(vec![0.5], 2, 0.4),
    ];
    let responses = client.batch(&queries).unwrap();
    assert_eq!(responses.len(), queries.len());
    for (query, response) in queries.iter().zip(&responses) {
        client::verify(
            query,
            &response.records,
            &response.vo,
            &dataset.template,
            verifier.as_ref(),
        )
        .unwrap_or_else(|e| panic!("batch item {query}: {e:?}"));
    }

    // Batch items populate the same per-item cache entries singles use: a
    // single query for a batch member is a hit, and re-sending the whole
    // batch recomputes nothing.
    let before = client.stats_deep().unwrap().snapshot;
    assert_eq!(before.cache_misses, queries.len() as u64);
    let single = client.query(&queries[0]).unwrap();
    assert_eq!(single.records, responses[0].records);
    client.batch(&queries).unwrap();
    let after = client.stats_deep().unwrap().snapshot;
    assert_eq!(after.cache_misses, before.cache_misses, "no recomputation");
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 1 + queries.len() as u64
    );

    // An epoch-pinned batch at the serving epoch answers identically; a
    // stale pin is refused typed.
    let pinned = client.batch_at(service.epoch(), &queries).unwrap();
    assert_eq!(pinned.len(), queries.len());
    assert_eq!(pinned[0].records, responses[0].records);
    let err = client
        .batch_at(service.epoch() + 1, &queries)
        .expect_err("wrong pin");
    assert!(err.is_stale_epoch(), "expected stale-epoch, got {err}");
    service.shutdown();
}

#[test]
fn batches_past_the_length_limit_are_rejected_with_a_typed_bad_query() {
    // The service answers at most 256 queries a batch: a batch of exactly
    // that many is served, one more gets a typed BadQuery and leaves the
    // connection usable.
    const LIMIT: usize = 256;
    let (_, server, _) = owner_setup(10, 1, 23);
    let service = QueryService::bind(ServiceConfig::ephemeral(), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    let queries: Vec<Query> = (0..=LIMIT)
        .map(|i| Query::top_k(vec![i as f64 / LIMIT as f64], 1))
        .collect();

    match client.batch(&queries).expect_err("oversized batch") {
        ServiceError::Remote(reply) => {
            assert_eq!(reply.code, ErrorCode::BadQuery);
            assert!(reply.message.contains("limit"), "{}", reply.message);
        }
        other => panic!("expected a remote BadQuery, got {other}"),
    }
    let answers = client.batch(&queries[..LIMIT]).expect("batch at the limit");
    assert_eq!(answers.len(), LIMIT);
    service.shutdown();
}

#[test]
fn empty_batches_are_rejected_with_a_typed_bad_query() {
    // Regression: an empty batch sailed under the max-batch-length check,
    // computed nothing, and still cached a useless empty response. Both the
    // plain and the epoch-pinned path must reject it typed instead.
    let (_, server, _) = owner_setup(10, 1, 22);
    let service = QueryService::bind(ServiceConfig::ephemeral(), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();

    for err in [
        client.batch(&[]).expect_err("empty batch"),
        client
            .batch_at(service.epoch(), &[])
            .expect_err("empty pinned batch"),
    ] {
        match err {
            ServiceError::Remote(reply) => {
                assert_eq!(reply.code, ErrorCode::BadQuery);
                assert!(reply.message.contains("no queries"), "{}", reply.message);
            }
            other => panic!("expected a remote BadQuery, got {other}"),
        }
    }

    // The connection survives the typed errors, and nothing was cached or
    // counted as computed.
    client.ping().unwrap();
    let stats = client.stats_deep().unwrap().snapshot;
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    service.shutdown();
}

#[test]
fn mismatched_batch_arity_is_a_typed_protocol_violation() {
    use std::net::TcpListener;
    // Regression: a malicious (or buggy) server answering a 2-query batch
    // with 1 response used to be silently zip-truncated by callers. The
    // client must reject the frame with a typed arity error — and, since
    // exactly one frame answered the batch, stay usable afterwards.
    let (_, server, _) = owner_setup(10, 1, 23);
    let genuine = std::sync::Arc::new(server);

    // A hand-rolled server that strips the last response from every batch.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let truncating = {
        let genuine = std::sync::Arc::clone(&genuine);
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            loop {
                let request: Request = match vaq_service::frame::read_message(&mut stream, 1 << 20)
                {
                    Ok(Some(request)) => request,
                    _ => return,
                };
                let reply = match request {
                    Request::Batch(queries) => {
                        let mut responses: Vec<_> =
                            queries.iter().map(|q| genuine.process(q)).collect();
                        responses.pop();
                        Response::Batch {
                            epoch: 0,
                            responses,
                        }
                    }
                    Request::Ping => Response::Pong,
                    _ => return,
                };
                if vaq_service::frame::write_message(&mut stream, &reply).is_err() {
                    return;
                }
            }
        })
    };

    let mut client = ServiceClient::connect(addr).unwrap();
    let queries = vec![Query::top_k(vec![0.7], 3), Query::top_k(vec![0.2], 2)];
    match client.batch(&queries).expect_err("truncated batch") {
        ServiceError::BatchArity { expected, got } => {
            assert_eq!((expected, got), (2, 1));
        }
        other => panic!("expected BatchArity, got {other}"),
    }
    // One request, one frame: the connection is still aligned and usable.
    client.ping().unwrap();
    drop(client);
    truncating.join().unwrap();
}

#[test]
fn wrong_dimensionality_gets_a_typed_bad_query_reply() {
    let (_, server, _) = owner_setup(10, 2, 31);
    let service = QueryService::bind(ServiceConfig::ephemeral(), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();

    let err = client.query(&Query::top_k(vec![0.5], 2)).unwrap_err();
    match err {
        ServiceError::Remote(reply) => {
            assert_eq!(reply.code, ErrorCode::BadQuery);
            assert!(reply.message.contains("dims"), "{}", reply.message);
        }
        other => panic!("expected a remote BadQuery, got {other}"),
    }
    // The connection survives a typed error.
    client.ping().unwrap();
    let stats = client.stats_deep().unwrap().snapshot;
    assert_eq!(stats.errors, 1);
    service.shutdown();
}

#[test]
fn oversized_and_garbage_frames_are_rejected() {
    use std::io::Write;
    let (_, server, _) = owner_setup(10, 1, 41);
    let config = ServiceConfig::ephemeral().max_frame_bytes(1024);
    let service = QueryService::bind(config, server).unwrap();
    let addr = service.local_addr();

    // Oversized: an honest header declaring a payload above the limit.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&vaq_wire::MAGIC);
    header.extend_from_slice(&vaq_wire::VERSION.to_le_bytes());
    header.extend_from_slice(&(1u32 << 30).to_le_bytes());
    stream.write_all(&header).unwrap();
    let reply: Response = vaq_service::frame::read_message(&mut stream, 1 << 20)
        .unwrap()
        .unwrap();
    match reply {
        Response::Error(reply) => assert_eq!(reply.code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    // Garbage: not even a VAQ1 frame.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let reply: Result<Option<Response>, _> = vaq_service::frame::read_message(&mut stream, 1 << 20);
    match reply {
        Ok(Some(Response::Error(reply))) => assert_eq!(reply.code, ErrorCode::Malformed),
        Ok(Some(other)) => panic!("expected Malformed, got {other:?}"),
        // The service may also just drop the connection.
        Ok(None) | Err(_) => {}
    }

    // A well-formed frame whose request tag does not decode — an unknown
    // one, or 2, the retired flat-stats scrape — gets a Malformed reply and
    // keeps the connection.
    for tag in [0xEE, 0x02] {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(&RawBytes(vec![tag]).to_framed_bytes())
            .unwrap();
        let reply: Option<Response> =
            vaq_service::frame::read_message(&mut stream, 1 << 20).unwrap();
        match reply {
            Some(Response::Error(reply)) => assert_eq!(reply.code, ErrorCode::Malformed),
            other => panic!("tag {tag}: expected Malformed, got {other:?}"),
        }
        stream.write_all(&Request::Ping.to_framed_bytes()).unwrap();
        let reply: Option<Response> =
            vaq_service::frame::read_message(&mut stream, 1 << 20).unwrap();
        assert!(matches!(reply, Some(Response::Pong)), "tag {tag}");
    }
    service.shutdown();
}

#[test]
fn a_frame_of_twenty_thousand_nested_tags_gets_a_typed_malformed_reply() {
    // 180,011 bytes, well inside the frame limit: 20,000 tagged envelopes
    // around a ping. A decoder that recursed into each level before refusing
    // the nesting overflowed the worker's stack and aborted the whole
    // process; the reply must be a typed error and the service must live on.
    use std::io::Write;
    let (_, server, _) = owner_setup(10, 1, 43);
    let service = QueryService::bind(ServiceConfig::ephemeral(), server).unwrap();
    let mut payload = Vec::with_capacity(20_000 * 9 + 1);
    for level in 0..20_000u64 {
        payload.push(10); // `Request::Tagged`
        payload.extend_from_slice(&level.to_le_bytes());
    }
    payload.push(1); // `Request::Ping`
    let frame = RawBytes(payload).to_framed_bytes();
    assert_eq!(frame.len(), 180_011);

    let mut stream = std::net::TcpStream::connect(service.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(&frame).unwrap();
    let reply: Option<Response> = vaq_service::frame::read_message(&mut stream, 1 << 20).unwrap();
    // The service strips the outer envelope and answers under its tag.
    match reply {
        Some(Response::Tagged { tag: 0, response }) => match *response {
            Response::Error(reply) => assert_eq!(reply.code, ErrorCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        },
        other => panic!("expected a tagged reply, got {other:?}"),
    }
    let mut next = ServiceClient::connect(service.local_addr()).unwrap();
    next.ping().expect("the service outlives the frame");
    service.shutdown();
}

/// Helper to frame arbitrary payload bytes.
struct RawBytes(Vec<u8>);

impl WireEncode for RawBytes {
    fn encode(&self, w: &mut vaq_wire::Writer) {
        for byte in &self.0 {
            w.put_u8(*byte);
        }
    }
}

#[test]
fn shutdown_completes_when_bound_to_a_wildcard_address() {
    // Regression: the shutdown wakeup used to connect to the *bound*
    // address; for 0.0.0.0 that target is the unspecified address, which is
    // platform-dependent and can fail — leaving accept() blocked and join()
    // deadlocked. The wakeup must target loopback with the bound port.
    let (_, server, _) = owner_setup(10, 1, 61);
    let config = ServiceConfig::ephemeral().bind("0.0.0.0:0".parse().unwrap());
    let service = QueryService::bind(config, server).unwrap();
    let port = service.local_addr().port();

    // The wildcard-bound service is reachable via loopback.
    let mut client =
        ServiceClient::connect(std::net::SocketAddr::from(([127, 0, 0, 1], port))).unwrap();
    client.ping().unwrap();

    // Run the shutdown on a watchdog: the regression deadlocked here.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let stats = service.shutdown();
        done_tx.send(stats).unwrap();
    });
    let stats = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown of a 0.0.0.0-bound service must complete");
    assert!(stats.requests_served >= 1);
}

#[test]
fn concurrent_identical_queries_get_identical_verified_answers() {
    // N workers may miss the cache on the same key at the same instant and
    // each compute it. What the service promises is the outcome: every
    // client gets the same bytes, the answer verifies, and every lookup is
    // accounted a hit or a miss.
    const CLIENTS: usize = 6;
    let (dataset, server, scheme) = owner_setup(30, 1, 71);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(CLIENTS), server).unwrap();
    let addr = service.local_addr();
    let query = Query::range(vec![0.5], -1.0, 2.0);

    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let request = Request::Query(query.clone());
            let barrier = Arc::clone(&barrier);
            let mut client = ServiceClient::connect(addr).expect("connect");
            std::thread::spawn(move || {
                barrier.wait();
                client.call(&request).expect("query")
            })
        })
        .collect();
    let replies: Vec<Response> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let first = replies[0].to_wire_bytes();
    assert!(replies.iter().all(|reply| reply.to_wire_bytes() == first));
    match &replies[0] {
        Response::Query { response, .. } => client::verify(
            &query,
            &response.records,
            &response.vo,
            &dataset.template,
            scheme.verifier().as_ref(),
        )
        .expect("the shared answer must verify"),
        other => panic!("expected a query response, got {other:?}"),
    };

    let stats = service.shutdown();
    assert_eq!(stats.cache_hits + stats.cache_misses, CLIENTS as u64);
    assert!(
        (1..=CLIENTS as u64).contains(&stats.cache_misses),
        "cache_misses out of range: {}",
        stats.cache_misses
    );
}

#[test]
fn concurrent_batches_and_singles_share_per_item_cache_entries() {
    // Regression: the batch path used to cache on the whole batch payload,
    // so a batch never shared work with singles (or with batches differing
    // in any item). Each batch item resolves through the cache entry the
    // equivalent single query uses, so any mix of concurrent batches and
    // singles accounts every item lookup, and once the entries are warm a
    // batch with one changed query computes only that query.
    const BATCH_CLIENTS: usize = 3;
    const SINGLE_CLIENTS: usize = 3;
    let (_, server, _) = owner_setup(30, 1, 73);
    let service = QueryService::bind(
        ServiceConfig::ephemeral().workers(BATCH_CLIENTS + SINGLE_CLIENTS),
        server,
    )
    .unwrap();
    let addr = service.local_addr();
    let query_a = Query::range(vec![0.5], -1.0, 2.0);
    let query_b = Query::range(vec![0.25], -1.0, 2.0);
    let batch = vec![query_a.clone(), query_b.clone()];

    let barrier = Arc::new(std::sync::Barrier::new(BATCH_CLIENTS + SINGLE_CLIENTS));
    let mut threads = Vec::new();
    for _ in 0..BATCH_CLIENTS {
        let batch = batch.clone();
        let barrier = Arc::clone(&barrier);
        let mut client = ServiceClient::connect(addr).expect("connect");
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            client.batch(&batch).expect("batch").len()
        }));
    }
    for _ in 0..SINGLE_CLIENTS {
        let query = query_a.clone();
        let barrier = Arc::clone(&barrier);
        let mut client = ServiceClient::connect(addr).expect("connect");
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            client.query(&query).expect("single query");
            1
        }));
    }
    for thread in threads {
        thread.join().unwrap();
    }

    // Every item lookup is accounted: 2 per batch, 1 per single.
    let before = service.stats();
    assert_eq!(
        before.cache_hits + before.cache_misses,
        (2 * BATCH_CLIENTS + SINGLE_CLIENTS) as u64
    );
    assert!(before.cache_misses >= 2, "two distinct items were asked");

    // A repeated batch with one changed query recomputes only the changed
    // item.
    let mut client = ServiceClient::connect(addr).unwrap();
    let query_c = Query::range(vec![0.75], -1.0, 2.0);
    client
        .batch(&[query_a.clone(), query_c.clone()])
        .expect("changed batch");
    let stats = stats_once_served(&service, (BATCH_CLIENTS + SINGLE_CLIENTS + 1) as u64);
    assert_eq!(
        stats.cache_misses,
        before.cache_misses + 1,
        "one changed query must incur exactly one extra miss"
    );
    assert_eq!(stats.cache_hits, before.cache_hits + 1);

    // The whole-batch latency histogram saw every batch request.
    let batch_histogram = &stats
        .per_kind
        .iter()
        .find(|k| k.kind == "batch")
        .expect("batch kind tracked")
        .histogram;
    assert_eq!(batch_histogram.count, (BATCH_CLIENTS + 1) as u64);
    service.shutdown();
}

#[test]
fn republish_races_inflight_identical_queries_without_mixing_epochs() {
    // N clients hammer the *same* query while the owner hot-swaps the
    // dataset to the next epoch mid-run. Requirements: every response
    // verifies at its own envelope epoch (a mixed-epoch response — new
    // records under old signatures or vice versa — would fail), the epoch
    // stamp only ever moves forward per connection, and the cache counters
    // stay consistent (hits + misses == queries, with only a handful of
    // misses: the first reply of each epoch fills the cache for the rest).
    const CLIENTS: usize = 6;
    const QUERIES_PER_CLIENT: usize = 15;
    let dataset = uniform_dataset(30, 1, 2025);
    let scheme = SignatureScheme::test_rsa(2025);
    let service = QueryService::bind(
        ServiceConfig::ephemeral().workers(CLIENTS),
        Server::new(
            dataset.clone(),
            IfmhTree::build_at_epoch(&dataset, SigningMode::MultiSignature, &scheme, 0),
        ),
    )
    .unwrap();
    let addr = service.local_addr();
    assert_eq!(service.epoch(), 0);

    // The republished dataset: same records, two attributes nudged.
    let mut updated = dataset.clone();
    updated.records[5].attrs[0] = (updated.records[5].attrs[0] + 0.31) % 1.0;
    updated.records[17].attrs[0] = (updated.records[17].attrs[0] + 0.53) % 1.0;
    let updated = Dataset::new(updated.records, updated.template, updated.domain);
    let updated_tree = IfmhTree::build_at_epoch(&updated, SigningMode::MultiSignature, &scheme, 1);

    // A wide range query keeps each computation slow enough for genuine
    // overlap between the clients and the swap.
    let query = Query::range(vec![0.5], -1.0, 2.0);
    let template = Arc::new(dataset.template.clone());
    let public_key: Arc<PublicKey> = Arc::new(scheme.public_key());
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS + 1));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let query = query.clone();
            let template = Arc::clone(&template);
            let public_key = Arc::clone(&public_key);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                barrier.wait();
                let mut epochs_seen = Vec::new();
                for round in 0..QUERIES_PER_CLIENT {
                    let (epoch, response) = client
                        .query_with_epoch(&query)
                        .unwrap_or_else(|e| panic!("client {i} round {round}: {e}"));
                    // The response must be internally consistent with its
                    // own stamp: records, VO and signatures all from one
                    // epoch's structure.
                    vaq_authquery::verify_at_epoch(
                        &query,
                        &response.records,
                        &response.vo,
                        &template,
                        public_key.as_ref(),
                        epoch,
                    )
                    .unwrap_or_else(|e| {
                        panic!("client {i} round {round}: mixed-epoch response at {epoch}: {e:?}")
                    });
                    epochs_seen.push(epoch);
                }
                epochs_seen
            })
        })
        .collect();

    barrier.wait();
    std::thread::sleep(Duration::from_millis(30));
    service
        .republish(Server::new(updated.clone(), updated_tree))
        .expect("hot swap mid-load");

    let mut all_epochs = Vec::new();
    for thread in threads {
        let epochs = thread.join().unwrap();
        // Per connection the stamp is monotone: once a client saw the new
        // epoch it never sees the old one again.
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "epoch went backwards: {epochs:?}"
        );
        all_epochs.extend(epochs);
    }
    assert!(
        all_epochs.iter().all(|e| *e == 0 || *e == 1),
        "unexpected epoch in {all_epochs:?}"
    );

    let stats = service.shutdown();
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        total,
        "every query is accounted a hit or a miss"
    );
    // Once an epoch's first reply fills the cache every later ask hits, so
    // the misses are each epoch's concurrent first askers plus swap-window
    // stragglers (a request that resolved the old structure just before the
    // swap re-computes under the old epoch's key after the flush).
    assert!(
        stats.cache_misses >= 1 && stats.cache_misses <= 2 + CLIENTS as u64,
        "cache_misses inconsistent under republish race: {}",
        stats.cache_misses
    );
    assert_eq!(stats.epoch, 1, "final snapshot reports the new epoch");
}

#[test]
fn tagged_pipelining_races_a_republish_without_mixing_epochs() {
    // The multiplexed variant of the republish race: every client keeps a
    // *window* of tagged requests in flight on one connection (the service
    // dispatches them in parallel and may answer out of order) while the
    // owner hot-swaps to the next epoch mid-run. Each response must still
    // verify as one self-consistent epoch — records, VO and signatures from
    // one structure — and the cache counters must stay exact.
    const CLIENTS: usize = 4;
    const WINDOW: usize = 5;
    const ROUNDS: usize = 6;
    let dataset = uniform_dataset(30, 1, 3031);
    let scheme = SignatureScheme::test_rsa(3031);
    let service = QueryService::bind(
        ServiceConfig::ephemeral().workers(CLIENTS),
        Server::new(
            dataset.clone(),
            IfmhTree::build_at_epoch(&dataset, SigningMode::MultiSignature, &scheme, 0),
        ),
    )
    .unwrap();
    let addr = service.local_addr();

    let mut updated = dataset.clone();
    updated.records[3].attrs[0] = (updated.records[3].attrs[0] + 0.41) % 1.0;
    let updated = Dataset::new(updated.records, updated.template, updated.domain);
    let updated_tree = IfmhTree::build_at_epoch(&updated, SigningMode::MultiSignature, &scheme, 1);

    let query = Query::range(vec![0.5], -1.0, 2.0);
    let template = Arc::new(dataset.template.clone());
    let public_key: Arc<PublicKey> = Arc::new(scheme.public_key());
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS + 1));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let query = query.clone();
            let template = Arc::clone(&template);
            let public_key = Arc::clone(&public_key);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                barrier.wait();
                let mut epochs_seen = Vec::new();
                for round in 0..ROUNDS {
                    let tags: Vec<u64> = (0..WINDOW)
                        .map(|_| client.send_tagged(&Request::Query(query.clone())).unwrap())
                        .collect();
                    // Collect the window back to front: with out-of-order
                    // completion this exercises parking and re-association
                    // under the race, not just FIFO delivery.
                    for &tag in tags.iter().rev() {
                        let (epoch, response) = match client.receive_tagged(tag) {
                            Ok(Response::Query { epoch, response }) => (epoch, response),
                            other => panic!("client {i} round {round}: {other:?}"),
                        };
                        vaq_authquery::verify_at_epoch(
                            &query,
                            &response.records,
                            &response.vo,
                            &template,
                            public_key.as_ref(),
                            epoch,
                        )
                        .unwrap_or_else(|e| {
                            panic!(
                                "client {i} round {round}: mixed-epoch response at {epoch}: {e:?}"
                            )
                        });
                        epochs_seen.push(epoch);
                    }
                }
                epochs_seen
            })
        })
        .collect();

    barrier.wait();
    std::thread::sleep(Duration::from_millis(25));
    service
        .republish(Server::new(updated.clone(), updated_tree))
        .expect("hot swap mid-load");

    let mut all_epochs = Vec::new();
    for thread in threads {
        all_epochs.extend(thread.join().unwrap());
    }
    // Tagged requests dispatch in parallel, so unlike the serialized path
    // there is no per-connection receive-order monotonicity to assert — but
    // every stamp is one of the two published epochs, and both sides of the
    // swap were actually exercised somewhere in the run.
    assert!(
        all_epochs.iter().all(|e| *e == 0 || *e == 1),
        "unexpected epoch in {all_epochs:?}"
    );

    let stats = service.shutdown();
    let total = (CLIENTS * WINDOW * ROUNDS) as u64;
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        total,
        "every query is accounted a hit or a miss"
    );
    // The misses are each epoch's concurrent first askers plus swap-window
    // stragglers — never once per in-flight tag.
    assert!(
        stats.cache_misses >= 1 && stats.cache_misses <= 2 + (2 * CLIENTS) as u64,
        "cache_misses inconsistent under a multiplexed republish race: {}",
        stats.cache_misses
    );
    assert_eq!(stats.epoch, 1, "final snapshot reports the new epoch");
}

#[test]
fn query_verified_follows_a_republication_and_refuses_a_replayed_epoch() {
    use std::net::TcpListener;
    // Regression: `query_verified` verified every answer at a literal epoch
    // 0, so after one republication (the epoch is bound into every
    // signature) each honest answer was rejected as a signature mismatch.
    let dataset = uniform_dataset(20, 1, 606);
    let scheme = SignatureScheme::test_rsa(606);
    let public_key = scheme.public_key();
    let tree_at =
        |epoch| IfmhTree::build_at_epoch(&dataset, SigningMode::MultiSignature, &scheme, epoch);
    let service = QueryService::bind(
        ServiceConfig::ephemeral(),
        Server::new(dataset.clone(), tree_at(0)),
    )
    .unwrap();
    let query = Query::top_k(vec![0.4], 3);

    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    let (at_epoch_0, _) = client
        .query_verified(&query, &dataset.template, &public_key)
        .expect("the epoch-0 answer verifies");
    service
        .republish(Server::new(dataset.clone(), tree_at(1)))
        .unwrap();
    let (at_epoch_1, _) = client
        .query_verified(&query, &dataset.template, &public_key)
        .expect("the honest epoch-1 answer verifies on the same connection");
    service.shutdown();

    // A hostile server that holds both genuinely signed answers: it serves
    // the current one, then replays the superseded one under its true
    // stamp, then under a forged current stamp.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let replies = [(1, at_epoch_1), (0, at_epoch_0.clone()), (1, at_epoch_0)];
    let replaying = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        for (epoch, response) in replies {
            let _: Request = vaq_service::frame::read_message(&mut stream, 1 << 20)
                .unwrap()
                .expect("one request per reply");
            let reply = Response::Query { epoch, response };
            vaq_service::frame::write_message(&mut stream, &reply).unwrap();
        }
    });
    let mut client = ServiceClient::connect(addr).unwrap();
    client
        .query_verified(&query, &dataset.template, &public_key)
        .expect("the genuine epoch-1 answer anchors the connection at epoch 1");
    match client
        .query_verified(&query, &dataset.template, &public_key)
        .expect_err("a replayed epoch-0 answer")
    {
        ServiceError::StaleEpoch { expected, got } => assert_eq!((expected, got), (1, 0)),
        other => panic!("expected a typed StaleEpoch refusal, got {other}"),
    }
    match client
        .query_verified(&query, &dataset.template, &public_key)
        .expect_err("an epoch-0 answer under a forged epoch-1 stamp")
    {
        ServiceError::Verification(_) => {}
        other => panic!("expected a verification failure, got {other}"),
    }
    replaying.join().unwrap();
}

#[test]
fn connection_fatal_error_reply_desyncs_the_client() {
    // Regression: after a FrameTooLarge/Malformed/ShuttingDown reply the
    // server closes the connection, but the client left `desynced == false`
    // — so the next call failed confusingly on the dead socket instead of
    // with the explicit reconnect error.
    let (_, server, _) = owner_setup(10, 1, 81);
    let service =
        QueryService::bind(ServiceConfig::ephemeral().max_frame_bytes(64), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();

    // 50 weights encode to well over the 64-byte frame limit.
    let oversized = Query::top_k(vec![0.5; 50], 2);
    match client.query(&oversized).unwrap_err() {
        ServiceError::Remote(reply) => assert_eq!(reply.code, ErrorCode::FrameTooLarge),
        other => panic!("expected a remote FrameTooLarge, got {other}"),
    }

    // The connection is now marked desynced: the next call fails with the
    // explicit reconnect error before touching the socket.
    match client.ping().unwrap_err() {
        ServiceError::Io(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe);
            assert!(e.to_string().contains("reconnect"), "{e}");
        }
        other => panic!("expected the desynced reconnect error, got {other}"),
    }

    // A fresh connection works.
    let mut fresh = ServiceClient::connect(service.local_addr()).unwrap();
    fresh.ping().unwrap();
    service.shutdown();
}

#[test]
fn rejected_frames_still_count_inbound_bytes() {
    use std::io::Write;
    // Regression: bytes_in was only counted for frames that decoded; the
    // header (and any partial payload) of malformed or oversized frames was
    // read off the wire but never accounted.
    let (_, server, _) = owner_setup(10, 1, 91);
    let service =
        QueryService::bind(ServiceConfig::ephemeral().max_frame_bytes(1024), server).unwrap();
    let addr = service.local_addr();
    let before = service.stats().bytes_in;

    // Garbage: 12 bytes of non-VAQ1 traffic.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"GARBAGEBYTES").unwrap();
    let _: Result<Option<Response>, _> = vaq_service::frame::read_message(&mut stream, 1 << 20);
    drop(stream);

    // Oversized: an honest header declaring a payload above the limit.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&vaq_wire::MAGIC);
    header.extend_from_slice(&vaq_wire::VERSION.to_le_bytes());
    header.extend_from_slice(&(1u32 << 30).to_le_bytes());
    stream.write_all(&header).unwrap();
    let _: Result<Option<Response>, _> = vaq_service::frame::read_message(&mut stream, 1 << 20);
    drop(stream);

    // Both rejected frames consumed at least their 10-byte headers.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let after = service.stats().bytes_in;
        if after >= before + 20 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "bytes_in only grew from {before} to {after}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    service.shutdown();
}
