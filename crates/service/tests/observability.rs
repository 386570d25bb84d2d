//! Observability integration suite: request-scoped stage tracing, deep
//! stats over the wire, per-error counters, cache gauges, the slow-request
//! log, and client-side scatter observability on the sharded tier.
//!
//! The load-bearing invariants:
//!
//! * every request is traced — each per-stage histogram holds exactly one
//!   observation per served request;
//! * stage spans are disjoint sub-intervals of the request, so per-kind
//!   stage sums stay within the kind's whole-request histogram bounds;
//! * cache probes, error codes and cache occupancy reconcile with the
//!   requests that were actually issued.

use std::io::Write;

use vaq_authquery::{IfmhTree, Query, Server, SigningMode};
use vaq_crypto::SignatureScheme;
use vaq_funcdb::Dataset;
use vaq_service::frame::read_message;
use vaq_service::{
    QueryService, ServiceClient, ServiceConfig, ServiceError, ShardedDeployment, SlowLogSink, Stage,
};
use vaq_wire::{ErrorCode, Response, StatsDeep, StatsSnapshot};
use vaq_workload::uniform_dataset;

/// Owner-side setup: dataset and a served authenticated structure.
fn owner_setup(n: usize, seed: u64) -> (Dataset, Server) {
    let dataset = uniform_dataset(n, 1, seed);
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let server = Server::new(dataset.clone(), tree);
    (dataset, server)
}

/// Drives a deterministic mixed workload over one connection: 3 top-k (one
/// repeated, so the cache must hit), 2 range, 2 KNN, and one 3-query batch
/// of one query per kind. Returns (requests issued, query-shaped items
/// issued).
fn drive_mixed_workload(client: &mut ServiceClient) -> (u64, u64) {
    let topk = Query::top_k(vec![0.5], 3);
    client.query(None, &topk).expect("topk");
    client
        .query(None, &topk)
        .expect("repeated topk hits the cache");
    client
        .query(None, &Query::top_k(vec![0.25], 2))
        .expect("topk");
    client
        .query(None, &Query::range(vec![0.5], 0.0, 10.0))
        .expect("range");
    client
        .query(None, &Query::range(vec![0.75], -5.0, 5.0))
        .expect("range");
    client
        .query(None, &Query::knn(vec![0.5], 2, 1.0))
        .expect("knn");
    client
        .query(None, &Query::knn(vec![0.25], 1, 0.5))
        .expect("knn");
    client
        .batch(
            None,
            &[
                Query::top_k(vec![0.125], 1),
                Query::range(vec![0.5], 0.0, 1.0),
                Query::knn(vec![0.75], 1, 2.0),
            ],
        )
        .expect("batch");
    // A batch item is a request of its own: 7 + 3 requests, each one a
    // cache-probed query.
    (10, 10)
}

/// Every hot-path stage label, in hot-path order — the vocabulary the deep
/// snapshot must speak.
fn stage_labels() -> Vec<&'static str> {
    Stage::ALL.iter().map(|s| s.label()).collect()
}

#[test]
fn every_request_lands_in_every_stage_histogram() {
    let (_, server) = owner_setup(14, 0xb5);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(2), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    let (requests, query_items) = drive_mixed_workload(&mut client);

    let deep: StatsDeep = client.stats_deep().expect("deep stats over the wire");
    let snapshot = &deep.snapshot;
    assert_eq!(snapshot.requests_served, requests);
    assert_eq!(snapshot.errors, 0);
    assert_eq!(snapshot.cache_hits + snapshot.cache_misses, query_items);
    assert!(snapshot.cache_hits >= 1, "repeated query must hit");

    // One observation per request in every stage histogram: the trace is
    // recorded exactly once per served request, for all stages at once.
    assert_eq!(
        deep.per_stage
            .iter()
            .map(|s| s.stage.as_str())
            .collect::<Vec<_>>(),
        stage_labels(),
    );
    for stage in &deep.per_stage {
        assert_eq!(
            stage.histogram.count, requests,
            "stage {} must hold one observation per request",
            stage.stage
        );
        assert_eq!(
            stage.histogram.bucket_counts.iter().sum::<u64>(),
            stage.histogram.count,
            "stage {} buckets must sum to its count",
            stage.stage
        );
    }

    // Whole-request per-kind histograms, each batch item under its kind:
    // 3 + 1 topk, 2 + 1 range, 2 + 1 knn.
    for (kind, expected) in [("topk", 4), ("range", 3), ("knn", 3)] {
        let histogram = &snapshot
            .per_kind
            .iter()
            .find(|k| k.kind == kind)
            .unwrap_or_else(|| panic!("missing kind {kind}"))
            .histogram;
        assert_eq!(histogram.count, expected, "kind {kind}");
    }
    service.shutdown();
}

#[test]
fn stage_spans_sum_within_whole_request_bounds_for_every_kind() {
    let (_, server) = owner_setup(14, 0xb6);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(2), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    drive_mixed_workload(&mut client);

    let deep = client.stats_deep().unwrap();
    for kind in ["topk", "range", "knn"] {
        let whole = &deep
            .snapshot
            .per_kind
            .iter()
            .find(|k| k.kind == kind)
            .unwrap_or_else(|| panic!("missing whole-request histogram for {kind}"))
            .histogram;
        let stages = &deep
            .per_kind_stage
            .iter()
            .find(|k| k.kind == kind)
            .unwrap_or_else(|| panic!("missing stage attribution for {kind}"))
            .stages;
        assert_eq!(
            stages.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>(),
            stage_labels(),
        );
        // The stages are disjoint sub-intervals of the request, so their
        // summed micros can never exceed the whole-request histogram's sum,
        // and no single stage can outlast the slowest whole request.
        let stage_sum: u64 = stages.iter().map(|s| s.sum_micros).sum();
        assert!(
            stage_sum <= whole.sum_micros,
            "{kind}: stage sum {stage_sum}us exceeds whole-request sum {}us",
            whole.sum_micros
        );
        for stage in stages {
            assert_eq!(
                stage.count, whole.count,
                "{kind}/{}: every request of the kind records every stage",
                stage.stage
            );
            assert!(
                stage.max_micros <= whole.max_micros,
                "{kind}/{}: stage max {}us exceeds whole-request max {}us",
                stage.stage,
                stage.max_micros,
                whole.max_micros
            );
        }
    }
    service.shutdown();
}

#[test]
fn metrics_stay_consistent_under_concurrent_clients() {
    let (_, server) = owner_setup(14, 0xc0);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(4), server).unwrap();
    let addr = service.local_addr();

    const CLIENTS: usize = 4;
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                drive_mixed_workload(&mut client)
            })
        })
        .collect();
    let (mut requests, mut query_items) = (0u64, 0u64);
    for thread in threads {
        let (r, q) = thread.join().expect("client thread");
        requests += r;
        query_items += q;
    }

    // A worker bumps the trace into the metrics just after writing the
    // response, so the last in-flight request may land an instant after its
    // client returned; wait for the counters to quiesce before asserting.
    let mut scraper = ServiceClient::connect(addr).unwrap();
    let mut deep = scraper.stats_deep().unwrap();
    for _ in 0..50 {
        if deep.snapshot.requests_served >= requests {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        deep = scraper.stats_deep().unwrap();
    }

    let snapshot = &deep.snapshot;
    assert!(snapshot.requests_served >= requests);
    assert_eq!(snapshot.errors, 0);
    // Cache probes reconcile exactly: one hit-or-miss per query-shaped item.
    assert_eq!(snapshot.cache_hits + snapshot.cache_misses, query_items);
    for stage in &deep.per_stage {
        assert_eq!(
            stage.histogram.count, snapshot.requests_served,
            "stage {} counts must equal requests served",
            stage.stage
        );
    }
    // Per-kind whole-request histograms account for every query request.
    let per_kind_total: u64 = snapshot.per_kind.iter().map(|k| k.histogram.count).sum();
    assert_eq!(per_kind_total, query_items);

    // A second scrape is monotone in every counter.
    let later = scraper.stats_deep().unwrap();
    assert!(later.snapshot.requests_served > snapshot.requests_served);
    assert!(later.snapshot.uptime_micros >= snapshot.uptime_micros);
    assert!(later.snapshot.bytes_in > snapshot.bytes_in);
    for (before, after) in deep.per_stage.iter().zip(&later.per_stage) {
        assert!(after.histogram.count >= before.histogram.count);
        assert!(after.histogram.sum_micros >= before.histogram.sum_micros);
        assert!(after.histogram.max_micros >= before.histogram.max_micros);
    }
    service.shutdown();
}

#[test]
fn error_replies_break_out_per_code() {
    let (_, server) = owner_setup(10, 0xb7);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(1), server).unwrap();
    let addr = service.local_addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    // The code of a typed reply, read off a client call or off the first
    // frame a fresh connection gets back for raw bytes.
    let remote = |error: Option<ServiceError>| match error {
        Some(ServiceError::Remote(reply)) => reply.code,
        other => panic!("expected a typed reply, got {other:?}"),
    };
    let raw = |bytes: &[u8]| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(bytes).unwrap();
        match read_message::<Response>(&mut stream, 1 << 20) {
            Ok(Some(Response::Error(reply))) => reply.code,
            other => panic!("expected a typed reply, got {other:?}"),
        }
    };
    let count = |stats: &StatsSnapshot, code: ErrorCode| {
        let entry = stats.per_error.iter().find(|e| e.code == code.label());
        entry.unwrap_or_else(|| panic!("missing {code:?}")).count
    };

    // No `_` arm: a new error code does not compile until it is provoked
    // and counted here, or pointed at the test that does.
    for code in ErrorCode::ALL {
        let provoked = match code {
            ErrorCode::Malformed => Some(raw(b"GET / HTTP/1.1\r\n\r\n")),
            ErrorCode::BadQuery => Some(remote(
                client.query(None, &Query::top_k(vec![2.0], 2)).err(),
            )),
            ErrorCode::FrameTooLarge => Some(raw(&vaq_wire::frame_header(1 << 30))),
            // Only a panic inside query processing, or an answer too large
            // to frame, is answered Internal: no request provokes it.
            ErrorCode::Internal => None,
            // One goodbye per reactor, counted by the shutdown below.
            ErrorCode::ShuttingDown => None,
            ErrorCode::NotSharded => Some(remote(client.shard_info().err())),
            ErrorCode::StaleEpoch => Some(remote(
                client.query(Some(7), &Query::top_k(vec![0.5], 2)).err(),
            )),
            // A connection limit or a reader that stops reading:
            // `shed_connections_get_a_typed_overloaded_reply` and
            // `slow_reader_is_shed_with_a_typed_overloaded_reply` in
            // multiplexed.rs assert this count.
            ErrorCode::Overloaded => None,
            // A mid-frame stall past the patience timer:
            // `mid_frame_stall_gets_a_typed_stalled_reply` in multiplexed.rs
            // asserts this count.
            ErrorCode::Stalled => None,
        };
        if let Some(replied) = provoked {
            assert_eq!(replied, code);
        }
        let stats = client.stats_deep().unwrap().snapshot;
        assert_eq!(
            count(&stats, code),
            u64::from(provoked.is_some()),
            "{code:?}"
        );
    }
    client
        .query(None, &Query::top_k(vec![0.5], 2))
        .expect("healthy after errors");

    let stats = service.shutdown();
    assert_eq!(count(&stats, ErrorCode::ShuttingDown), 1);
    assert_eq!(stats.errors, 6);
    assert_eq!(
        stats.per_error.iter().map(|e| e.count).sum::<u64>(),
        stats.errors,
        "per-code counts must reconcile with the error total"
    );
}

#[test]
fn cache_gauges_and_uptime_are_scraped_and_monotone() {
    let (_, server) = owner_setup(12, 0xb8);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(1), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();

    let before = client.stats_deep().unwrap().snapshot;
    assert_eq!(before.cache_entries, 0);
    assert_eq!(before.cache_bytes, 0);

    client.query(None, &Query::top_k(vec![0.5], 3)).unwrap();
    client.query(None, &Query::top_k(vec![0.25], 2)).unwrap();
    let after = client.stats_deep().unwrap().snapshot;
    assert_eq!(after.cache_entries, 2, "both responses stay resident");
    assert!(after.cache_bytes > 0);
    assert_eq!(after.cache_evictions, 0);
    assert!(
        after.uptime_micros >= before.uptime_micros,
        "uptime must be monotone across scrapes"
    );
    assert!(after.requests_served > before.requests_served);
    service.shutdown();
}

#[test]
fn slow_request_log_emits_structured_json_lines() {
    let (_, server) = owner_setup(12, 0xb9);
    let (sink, buffer) = SlowLogSink::buffer();
    let config = ServiceConfig::ephemeral()
        .workers(1)
        .slow_request_micros(0) // every request is "slow": deterministic capture
        .slow_log_sink(sink);
    let service = QueryService::bind(config, server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    client.query(None, &Query::top_k(vec![0.5], 2)).unwrap();
    client
        .query(None, &Query::range(vec![0.5], 0.0, 5.0))
        .unwrap();
    service.shutdown();

    let log = String::from_utf8(buffer.lock().clone()).expect("utf-8 log");
    let lines: Vec<&str> = log.lines().collect();
    assert!(lines.len() >= 2, "both requests logged:\n{log}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSON object: {line}"
        );
        assert!(line.contains("\"event\":\"slow_request\""), "{line}");
        assert!(line.contains("\"epoch\":0"), "{line}");
        assert!(line.contains("\"total_micros\":"), "{line}");
        for stage in stage_labels() {
            assert!(line.contains(&format!("\"{stage}\":")), "{stage} in {line}");
        }
    }
    assert!(lines[0].contains("\"kind\":\"topk\""), "{}", lines[0]);
    assert!(lines[1].contains("\"kind\":\"range\""), "{}", lines[1]);
}

#[test]
fn sharded_deep_stats_and_client_observability_reconcile() {
    let dataset = uniform_dataset(18, 1, 0xba);
    let mut deployment = ShardedDeployment::launch(
        &dataset,
        2,
        SigningMode::MultiSignature,
        0xba,
        ServiceConfig::ephemeral().workers(2),
    )
    .unwrap();
    let mut client = deployment.client().unwrap();

    for k in 1..=3 {
        client.query_verified(&Query::top_k(vec![0.5], k)).unwrap();
    }
    client
        .batch_verified(&[
            Query::top_k(vec![0.25], 2),
            Query::range(vec![0.5], 0.0, 10.0),
        ])
        .unwrap();

    // Client-side: 4 scatter rounds, every leg accounted on both shards.
    let obs = client.observability().clone();
    assert_eq!(obs.scatters, 4);
    assert_eq!(obs.leg_latency.len(), 2);
    for leg in &obs.leg_latency {
        assert_eq!(leg.legs, 4, "every scatter crosses every shard");
        assert!(leg.max_micros >= leg.mean_micros());
        assert!(leg.total_micros >= leg.max_micros);
    }
    assert_eq!(obs.failovers, 0);
    assert_eq!(obs.stale_rejections, 0);
    assert_eq!(obs.map_refreshes, 0);
    assert_eq!(
        obs.max_leg_micros(),
        obs.leg_latency.iter().map(|l| l.max_micros).max().unwrap()
    );

    // Server-side: every shard serves deep stats over the wire, and every
    // shard saw all 4 scattered requests (plus its handshake).
    let all = client.stats_deep_all().unwrap();
    assert_eq!(all.len(), 2);
    for deep in &all {
        assert!(deep.snapshot.requests_served >= 4);
        for stage in &deep.per_stage {
            assert_eq!(stage.histogram.count, deep.snapshot.requests_served);
        }
    }

    // Update churn: a republish turns the pinned epoch stale; the rejection
    // and the adopted refresh both land in the client-side counters.
    deployment.republish(&dataset).unwrap();
    let err = client
        .query_verified(&Query::top_k(vec![0.5], 2))
        .expect_err("pinned epoch went stale");
    assert!(err.is_stale_epoch());
    assert_eq!(client.refresh().unwrap(), 1);
    client.query_verified(&Query::top_k(vec![0.5], 2)).unwrap();

    let obs = client.observability();
    assert!(obs.stale_rejections >= 1, "stale legs counted");
    assert_eq!(obs.map_refreshes, 1, "one adopted refresh");
    deployment.shutdown();
}
