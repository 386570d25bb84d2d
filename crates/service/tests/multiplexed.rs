//! Integration tests for the evented multiplexed service core: tagged
//! request pipelining with out-of-order completion, connection shedding at
//! the configured limit, and typed mid-frame stall detection.

use std::io::Write;
use std::time::Duration;

use vaq_authquery::{IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_funcdb::Dataset;
use vaq_service::{QueryService, ServiceClient, ServiceConfig, ServiceError};
use vaq_wire::{ErrorCode, Request, Response, WireEncode};
use vaq_workload::uniform_dataset;

/// Owner-side setup: dataset, signed tree, scheme.
fn owner_setup(n: usize, dims: usize, seed: u64) -> (Dataset, Server, SignatureScheme) {
    let dataset = uniform_dataset(n, dims, seed);
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let server = Server::new(dataset.clone(), tree);
    (dataset, server, scheme)
}

#[test]
fn tagged_pipelining_reassociates_out_of_order_receives() {
    // N distinguishable queries (top-k with k = i + 1) go out back to back
    // on one connection; the responses are then collected in several
    // receive orders that disagree with the send order. Every response must
    // land with its own request — record count k is the witness.
    const N: usize = 12;
    let (_, server, _) = owner_setup(2 * N, 1, 4242);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(4), server).unwrap();
    let addr = service.local_addr();

    // A deterministic family of permutations of 0..N (7 and 5 are coprime
    // with 12): reverse order, strided orders, and identity.
    let orders: Vec<Vec<usize>> = vec![
        (0..N).rev().collect(),
        (0..N).map(|i| (i * 7) % N).collect(),
        (0..N).map(|i| (i * 5) % N).collect(),
        (0..N).collect(),
    ];
    for order in orders {
        let mut client = ServiceClient::connect(addr).unwrap();
        let tags: Vec<u64> = (0..N)
            .map(|i| {
                client
                    .send_tagged(&Request::Query(Query::top_k(vec![0.5], i + 1)))
                    .unwrap()
            })
            .collect();
        for &i in &order {
            let response = client.receive_tagged(tags[i]).unwrap();
            match response {
                Response::Query { response, .. } => assert_eq!(
                    response.records.len(),
                    i + 1,
                    "tag {} answered with the wrong response",
                    tags[i]
                ),
                other => panic!(
                    "expected a query response for tag {}, got {other:?}",
                    tags[i]
                ),
            }
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.requests_served, (4 * N) as u64);
}

#[test]
fn untagged_pipeline_keeps_send_order_ahead_of_a_trailing_tagged_frame() {
    // The single pending queue's contract: N untagged queries written back
    // to back without reading a reply, then one tagged query behind them.
    // The untagged replies must come back in send order (record count k is
    // the witness), the tagged reply must echo its tag wherever it lands in
    // the stream, and every frame counts as served.
    const N: usize = 10;
    const TAG: u64 = 0xC0FFEE;
    let (_, server, _) = owner_setup(2 * N, 1, 1717);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(4), server).unwrap();
    let mut stream = std::net::TcpStream::connect(service.local_addr()).unwrap();

    let mut bytes = Vec::new();
    for i in 0..N {
        bytes.extend_from_slice(&Request::Query(Query::top_k(vec![0.5], i + 1)).to_framed_bytes());
    }
    let tagged = Request::Tagged {
        tag: TAG,
        request: Box::new(Request::Query(Query::top_k(vec![0.5], N + 1))),
    };
    bytes.extend_from_slice(&tagged.to_framed_bytes());
    stream.write_all(&bytes).unwrap();

    let mut untagged_sizes = Vec::new();
    let mut tagged_size = None;
    for _ in 0..=N {
        let reply = vaq_service::frame::read_message::<Response>(&mut stream, 1 << 20)
            .unwrap()
            .expect("service closed before answering every frame");
        match reply {
            Response::Query { response, .. } => untagged_sizes.push(response.records.len()),
            Response::Tagged { tag, response } => {
                assert_eq!(tag, TAG);
                match *response {
                    Response::Query { response, .. } => tagged_size = Some(response.records.len()),
                    other => panic!("unexpected tagged payload: {other:?}"),
                }
            }
            other => panic!("expected query replies, got {other:?}"),
        }
    }
    assert_eq!(untagged_sizes, (1..=N).collect::<Vec<_>>());
    assert_eq!(tagged_size, Some(N + 1));
    let stats = service.shutdown();
    assert_eq!(stats.requests_served, (N + 1) as u64);
}

#[test]
fn saturated_worker_pool_answers_every_connection() {
    // One worker means a job queue of two: sixteen requests arriving at
    // once overflow it, so most of them wait in the reactor's dispatch
    // backlog and are admitted as the worker frees slots. Every one must
    // still be answered, on its own connection, with an answer that
    // verifies.
    const CONNS: usize = 8;
    const PIPELINED: usize = 8;
    let (dataset, server, scheme) = owner_setup(40, 1, 808);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(1), server).unwrap();
    let addr = service.local_addr();
    let verifier = scheme.verifier();
    let verify = |query: &Query, reply: Response| match reply {
        Response::Query { response, .. } => vaq_authquery::client::verify(
            query,
            &response.records,
            &response.vo,
            &dataset.template,
            verifier.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{query}: {e:?}")),
        other => panic!("expected a query response to {query}, got {other:?}"),
    };
    // Distinct wide ranges: every request is a cache miss.
    let wide = |i: usize| Query::range(vec![0.5], -1.0 - i as f64, 2.0);

    let mut singles: Vec<(ServiceClient, Query)> = (0..CONNS)
        .map(|i| (ServiceClient::connect(addr).unwrap(), wide(i)))
        .collect();
    for (client, query) in &mut singles {
        client.send(&Request::Query(query.clone())).unwrap();
    }
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let pipelined: Vec<Query> = (0..PIPELINED).map(|i| wide(CONNS + i)).collect();
    let mut bytes = Vec::new();
    for (tag, query) in pipelined.iter().enumerate() {
        let tagged = Request::Tagged {
            tag: tag as u64,
            request: Box::new(Request::Query(query.clone())),
        };
        bytes.extend_from_slice(&tagged.to_framed_bytes());
    }
    stream.write_all(&bytes).unwrap();

    for (client, query) in &mut singles {
        verify(query, client.receive().unwrap());
    }
    let mut answered = [false; PIPELINED];
    for _ in 0..PIPELINED {
        let reply = vaq_service::frame::read_message::<Response>(&mut stream, 1 << 20)
            .unwrap()
            .expect("service closed before answering every tagged frame");
        match reply {
            Response::Tagged { tag, response } => {
                let tag = tag as usize;
                assert!(!answered[tag], "tag {tag} answered twice");
                answered[tag] = true;
                verify(&pipelined[tag], *response);
            }
            other => panic!("expected a tagged reply, got {other:?}"),
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.requests_served, (CONNS + PIPELINED) as u64);
}

#[test]
fn unknown_tag_is_a_typed_error_that_keeps_the_connection() {
    let (_, server, _) = owner_setup(10, 1, 7);
    let service = QueryService::bind(ServiceConfig::ephemeral(), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();

    // Asking for a tag that was never sent is a caller bug, reported
    // without touching (or desyncing) the stream.
    match client.receive_tagged(999).unwrap_err() {
        ServiceError::UnknownTag { tag } => assert_eq!(tag, 999),
        other => panic!("expected a typed unknown-tag error, got {other}"),
    }
    client.ping().unwrap();

    // A tag already collected is no longer pending either: the pairing
    // state refuses a double receive instead of stealing another tag's
    // frame.
    let tag = client.send_tagged(&Request::Ping).unwrap();
    assert!(matches!(client.receive_tagged(tag), Ok(Response::Pong)));
    match client.receive_tagged(tag).unwrap_err() {
        ServiceError::UnknownTag { tag: got } => assert_eq!(got, tag),
        other => panic!("expected a typed unknown-tag error, got {other}"),
    }
    client.ping().unwrap();
    service.shutdown();
}

#[test]
fn duplicate_in_flight_tag_gets_a_typed_reply_from_the_service() {
    // Two frames carrying the *same* correlation tag go out in one write: a
    // slow query and a ping. The service must answer the first and reject
    // the second with a tagged Malformed reply naming the collision — never
    // two responses under one tag.
    let (_, server, _) = owner_setup(24, 1, 77);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(2), server).unwrap();
    let mut stream = std::net::TcpStream::connect(service.local_addr()).unwrap();

    let slow = Request::Tagged {
        tag: 7,
        request: Box::new(Request::Query(Query::range(vec![0.5], -1.0, 2.0))),
    };
    let dup = Request::Tagged {
        tag: 7,
        request: Box::new(Request::Ping),
    };
    let mut bytes = slow.to_framed_bytes();
    bytes.extend_from_slice(&dup.to_framed_bytes());
    stream.write_all(&bytes).unwrap();

    let mut saw_answer = false;
    let mut saw_collision = false;
    for _ in 0..2 {
        let response = vaq_service::frame::read_message::<Response>(&mut stream, 1 << 20)
            .unwrap()
            .expect("service closed before answering both frames");
        match response {
            Response::Tagged { tag, response } => {
                assert_eq!(tag, 7);
                match *response {
                    Response::Error(reply) => {
                        assert_eq!(reply.code, ErrorCode::Malformed);
                        assert!(reply.message.contains("already in flight"), "{reply:?}");
                        saw_collision = true;
                    }
                    Response::Query { .. } => saw_answer = true,
                    other => panic!("unexpected tagged payload: {other:?}"),
                }
            }
            other => panic!("expected tagged replies, got {other:?}"),
        }
    }
    assert!(saw_answer && saw_collision);
    service.shutdown();
}

#[test]
fn shed_connections_get_a_typed_overloaded_reply() {
    // Regression: over the limit the accept loop used to drop the socket on
    // the floor — the client saw a bare EOF with no way to distinguish
    // overload from a crash. Now the connection is counted, answered with a
    // typed Overloaded reply, and closed.
    let (_, server, _) = owner_setup(10, 1, 33);
    let service =
        QueryService::bind(ServiceConfig::ephemeral().max_connections(1), server).unwrap();
    let addr = service.local_addr();

    let mut first = ServiceClient::connect(addr).unwrap();
    first.ping().unwrap(); // the slot is definitely taken once this answers

    // Read the shed reply without sending anything first: the service
    // writes Overloaded and closes immediately, so a request racing the
    // close could RST the unread reply away.
    let mut second = ServiceClient::connect(addr).unwrap();
    match second.receive().unwrap_err() {
        ServiceError::Remote(reply) => {
            assert_eq!(reply.code, ErrorCode::Overloaded);
            assert!(reply.message.contains("connection limit"), "{reply:?}");
        }
        other => panic!("expected a remote Overloaded reply, got {other}"),
    }
    // The shed connection is desynced (the service closed it); the
    // surviving connection is untouched.
    assert!(second.ping().is_err());
    first.ping().unwrap();

    let deep = service.stats_deep();
    assert_eq!(deep.reactor.connections_shed, 1);
    let overloaded = deep
        .snapshot
        .per_error
        .iter()
        .find(|e| e.code == ErrorCode::Overloaded.label())
        .map(|e| e.count)
        .unwrap_or(0);
    assert_eq!(overloaded, 1, "shed reply missing from per-error breakdown");

    // Freeing the slot makes room for a fresh connection.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = ServiceClient::connect(addr).unwrap();
        if retry.ping().is_ok() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after the first client disconnected"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    service.shutdown();
}

#[test]
fn mid_frame_stall_gets_a_typed_stalled_reply() {
    // Regression: a peer that died (or dribbled) mid-frame used to occupy
    // its connection silently until the blanket read timeout. Now a started
    // frame that stops making progress for `mid_frame_patience` is answered
    // with a typed Stalled reply, counted per error code, and closed.
    let (_, server, _) = owner_setup(10, 1, 55);
    let service = QueryService::bind(
        ServiceConfig::ephemeral()
            .mid_frame_patience(Duration::from_millis(50))
            .read_timeout(Some(Duration::from_secs(30))),
        server,
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(service.local_addr()).unwrap();
    // Half a header, then silence: the frame is started but never finishes.
    stream.write_all(&vaq_wire::MAGIC).unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = vaq_service::frame::read_message::<Response>(&mut stream, 1 << 20)
        .unwrap()
        .expect("service closed without a stall reply");
    match reply {
        Response::Error(reply) => {
            assert_eq!(reply.code, ErrorCode::Stalled);
            assert!(reply.message.contains("reconnect"), "{reply:?}");
        }
        other => panic!("expected a Stalled error reply, got {other:?}"),
    }

    let deep = service.stats_deep();
    let stalled = deep
        .snapshot
        .per_error
        .iter()
        .find(|e| e.code == ErrorCode::Stalled.label())
        .map(|e| e.count)
        .unwrap_or(0);
    assert_eq!(stalled, 1, "stall missing from per-error breakdown");
    service.shutdown();
}

#[test]
fn fifty_connections_each_hold_a_tagged_query_in_flight() {
    // 50 sockets, one tagged query sent on every one of them before the
    // first reply is read: the reactor serves the whole fleet concurrently
    // and every reply comes back on its own connection, verified.
    const CONNS: usize = 50;
    let (dataset, server, scheme) = owner_setup(12, 1, 99);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(2), server).unwrap();
    let public_key = scheme.public_key();

    let mut in_flight = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut client = ServiceClient::connect(service.local_addr()).unwrap();
        let query = Query::top_k(vec![0.5], i % 12 + 1);
        let tag = client.send_tagged(&Request::Query(query.clone())).unwrap();
        in_flight.push((client, tag, query));
    }
    for (mut client, tag, query) in in_flight {
        match client.receive_tagged(tag).unwrap() {
            Response::Query { response, .. } => {
                vaq_authquery::client::verify(
                    &query,
                    &response.records,
                    &response.vo,
                    &dataset.template,
                    &public_key,
                )
                .unwrap_or_else(|e| panic!("{query} failed verification: {e:?}"));
            }
            other => panic!("expected a query response, got {other:?}"),
        }
    }
    let stats = service.shutdown();
    assert!(stats.requests_served >= CONNS as u64);
}

#[test]
fn slow_reader_is_shed_with_a_typed_overloaded_reply() {
    // Regression for the write-queue byte budget (ROADMAP 2b): a peer whose
    // responses would overflow its per-connection budget is shed with a
    // typed Overloaded reply and counted, while other connections on the
    // same service keep working. The 300-record response is far larger than
    // the 4 KiB budget, so the very first completion triggers the shed —
    // deterministically, with no dependence on kernel socket buffering.
    let (_, server, _) = owner_setup(300, 1, 91);
    let service = QueryService::bind(
        ServiceConfig::ephemeral()
            .workers(2)
            .write_queue_budget_bytes(4096),
        server,
    )
    .unwrap();
    let addr = service.local_addr();

    let mut healthy = ServiceClient::connect(addr).unwrap();
    healthy.ping().unwrap();

    let mut slow = ServiceClient::connect(addr).unwrap();
    slow.send_tagged(&Request::Query(Query::top_k(vec![0.5], 300)))
        .unwrap();
    match slow.receive().unwrap_err() {
        ServiceError::Remote(reply) => {
            assert_eq!(reply.code, ErrorCode::Overloaded);
            assert!(reply.message.contains("write-queue"), "{reply:?}");
        }
        other => panic!("expected a remote Overloaded reply, got {other}"),
    }
    // The shed connection is closed after the goodbye; the healthy one is
    // untouched and the shed is accounted in the deep stats.
    assert!(slow.ping().is_err());
    healthy.ping().unwrap();
    let deep = service.stats_deep();
    assert_eq!(deep.reactor.slow_readers_shed, 1);
    let overloaded = deep
        .snapshot
        .per_error
        .iter()
        .find(|e| e.code == ErrorCode::Overloaded.label())
        .map(|e| e.count)
        .unwrap_or(0);
    assert_eq!(overloaded, 1, "shed reply missing from per-error breakdown");
    service.shutdown();
}

#[test]
fn sweep_watchdog_feeds_the_deep_stats_over_the_wire() {
    // A zero stall threshold counts every reactor turn as a stall, making the
    // watchdog plumbing observable without manufacturing a real stall.
    let (_, server, _) = owner_setup(10, 1, 5);
    let service =
        QueryService::bind(ServiceConfig::ephemeral().reactor_stall_micros(0), server).unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    client.ping().unwrap();

    let deep = client.stats_deep().unwrap();
    assert!(deep.reactor.sweeps.count > 0, "sweep histogram never fed");
    assert!(deep.reactor.reactor_stalls > 0, "zero threshold must tick");
    assert!(
        deep.reactor.reactor_stalls <= deep.reactor.sweeps.count,
        "stalls cannot outnumber sweeps: {:?}",
        deep.reactor
    );
    assert_eq!(deep.reactor.slow_readers_shed, 0);
    assert!(service.stats_deep().reactor.reactor_stalls > 0);
    service.shutdown();
}
