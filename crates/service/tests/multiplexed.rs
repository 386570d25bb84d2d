//! Integration tests for the evented multiplexed service core: in-order
//! request pipelining, a saturated reactor, connection shedding at the
//! configured limit, and typed mid-frame stall detection.

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
fn untagged_pipeline_keeps_send_order_ahead_of_a_trailing_tagged_frame() {
    // The single pending queue's contract: N queries written back to back
    // without reading a reply, then one frame in the retired correlation-tag
    // envelope behind them, then a ping. The query replies must come back in
    // send order (record count k is the witness), the tagged frame gets a
    // typed Malformed reply in its turn, the ping is still answered, and
    // every frame counts as served.
    const N: usize = 10;
    let (_, server, _) = owner_setup(2 * N, 1, 1717);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(4), server).unwrap();
    let mut stream = std::net::TcpStream::connect(service.local_addr()).unwrap();

    let mut bytes = Vec::new();
    for i in 0..N {
        bytes.extend_from_slice(&Request::Query(Query::top_k(vec![0.5], i + 1)).to_framed_bytes());
    }
    let mut tagged = vec![10]; // the retired `Request::Tagged` tag byte
    tagged.extend_from_slice(&0xC0FFEEu64.to_le_bytes());
    tagged.extend_from_slice(&Request::Query(Query::top_k(vec![0.5], N + 1)).to_wire_bytes());
    bytes.extend_from_slice(&vaq_wire::frame_header(tagged.len()));
    bytes.extend_from_slice(&tagged);
    bytes.extend_from_slice(&Request::Ping.to_framed_bytes());
    stream.write_all(&bytes).unwrap();

    let mut read = || {
        vaq_service::frame::read_message::<Response>(&mut stream, 1 << 20)
            .unwrap()
            .expect("service closed before answering every frame")
    };
    for i in 0..N {
        match read() {
            Response::Query { response, .. } => assert_eq!(response.records.len(), i + 1),
            other => panic!("reply {i}: expected a query reply, got {other:?}"),
        }
    }
    match read() {
        Response::Error(reply) => assert_eq!(reply.code, ErrorCode::Malformed),
        other => panic!("expected a Malformed reply to the tagged frame, got {other:?}"),
    }
    assert!(matches!(read(), Response::Pong));
    let stats = service.shutdown();
    assert_eq!(stats.requests_served, (N + 2) as u64);
}

#[test]
fn saturated_reactor_answers_every_connection() {
    // One reactor owns all nine connections: eight single requests plus an
    // eight-request pipeline arrive at once, and it computes each in turn
    // while the others wait in their sockets. Every one must still be
    // answered, on its own connection and in order, with an answer that
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
    let mut pipelining = ServiceClient::connect(addr).unwrap();
    let pipelined: Vec<Query> = (0..PIPELINED).map(|i| wide(CONNS + i)).collect();
    for query in &pipelined {
        pipelining.send(&Request::Query(query.clone())).unwrap();
    }

    for (client, query) in &mut singles {
        verify(query, client.receive().unwrap());
    }
    for query in &pipelined {
        verify(query, pipelining.receive().unwrap());
    }
    let stats = service.shutdown();
    assert_eq!(stats.requests_served, (CONNS + PIPELINED) as u64);
}

#[test]
fn shed_connections_get_a_typed_overloaded_reply() {
    // Regression: over the limit the accept loop used to drop the socket on
    // the floor — the client saw a bare EOF with no way to distinguish
    // overload from a crash. Now the connection is counted, answered with a
    // typed Overloaded reply, and closed. The limit is the service's, so it
    // holds however many reactors share the connections.
    for workers in [1, 4] {
        let (_, server, _) = owner_setup(10, 1, 33);
        let config = ServiceConfig::ephemeral()
            .workers(workers)
            .max_connections(1);
        let service = QueryService::bind(config, server).unwrap();
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
            other => panic!("workers {workers}: expected a remote Overloaded reply, got {other}"),
        }
        // The shed connection is desynced (the service closed it); the
        // surviving connection is untouched.
        assert!(second.ping().is_err());
        first.ping().unwrap();

        let deep = service.stats_deep();
        assert_eq!(deep.reactor.connections_shed, 1, "workers {workers}");
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
                "workers {workers}: slot never freed after the first client disconnected"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        service.shutdown();
    }
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
fn fifty_connections_each_hold_a_query_in_flight() {
    // 50 sockets, one query sent on every one of them before the first
    // reply is read: the reactor serves the whole fleet concurrently and
    // every reply comes back on its own connection, verified.
    const CONNS: usize = 50;
    let (dataset, server, scheme) = owner_setup(12, 1, 99);
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(2), server).unwrap();
    let public_key = scheme.public_key();

    let mut in_flight = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut client = ServiceClient::connect(service.local_addr()).unwrap();
        let query = Query::top_k(vec![0.5], i % 12 + 1);
        client.send(&Request::Query(query.clone())).unwrap();
        in_flight.push((client, query));
    }
    for (mut client, query) in in_flight {
        match client.receive().unwrap() {
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
    slow.send(&Request::Query(Query::top_k(vec![0.5], 300)))
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
