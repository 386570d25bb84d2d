//! What the old readiness sweep gave for free and a reactor blocked in the
//! kernel has to earn: with edge-triggered sockets nothing is looked at
//! again unless an event or a deadline says so. Each test here hangs or
//! fails when one of those is forgotten, or when one connection holds up
//! the others on its reactor, or one reactor misses shutdown. Real sockets;
//! every wait is a blocking read with a generous timeout, except where the
//! point of the test is that time passes with no traffic at all.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vaq_authquery::{IfmhTree, Query, Server, SigningMode};
use vaq_crypto::SignatureScheme;
use vaq_service::frame::read_message;
use vaq_service::{QueryService, ServiceClient, ServiceConfig, ServiceError};
use vaq_wire::{ErrorCode, Request, Response, WireEncode};
use vaq_workload::uniform_dataset;

/// The longest any single read below may take before the test fails
/// instead of hanging.
const HANG: Duration = Duration::from_secs(20);

fn server(n: usize, seed: u64) -> Server {
    let dataset = uniform_dataset(n, 1, seed);
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
    Server::new(dataset, tree)
}

fn connect(service: &QueryService) -> TcpStream {
    let stream = TcpStream::connect(service.local_addr()).unwrap();
    stream.set_read_timeout(Some(HANG)).unwrap();
    stream
}

fn client(service: &QueryService) -> ServiceClient {
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    client.set_read_timeout(Some(HANG)).unwrap();
    client
}

/// Blocks until the peer closes; any byte or error instead is a failure.
fn await_eof(stream: &mut TcpStream) -> Instant {
    assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "expected EOF");
    Instant::now()
}

/// Polls the in-process counters (no traffic) until `done` holds.
fn settle(service: &QueryService, mut done: impl FnMut(&vaq_wire::StatsSnapshot) -> bool) {
    let deadline = Instant::now() + HANG;
    while !done(&service.stats_deep().snapshot) {
        assert!(
            Instant::now() < deadline,
            "{:?}",
            service.stats_deep().snapshot
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_pipeline_longer_than_the_connection_backlog_is_answered_in_order() {
    // 400 requests arrive in one burst; the reactor stops reading at 128
    // buffered requests and the socket raises no further event, so reads
    // must resume as completions drain the queue. A reactor that only
    // writes on completion answers 128 and hangs.
    const N: usize = 400;
    let service = QueryService::bind(ServiceConfig::ephemeral().workers(2), server(12, 7)).unwrap();
    let mut stream = connect(&service);
    let burst: Vec<u8> = (0..N)
        .flat_map(|i| Request::Query(Query::top_k(vec![0.5], i % 12 + 1)).to_framed_bytes())
        .collect();
    stream.write_all(&burst).unwrap();
    for i in 0..N {
        match read_message::<Response>(&mut stream, 1 << 20) {
            Ok(Some(Response::Query { response, .. })) => {
                assert_eq!(response.records.len(), i % 12 + 1, "reply {i} out of order")
            }
            other => panic!("reply {i}: {other:?}"),
        }
    }
    settle(&service, |stats| stats.requests_served == N as u64);
    assert_eq!(service.shutdown().requests_served, N as u64);
}

#[test]
fn replies_past_the_socket_buffers_resume_when_the_peer_reads() {
    // ~15 MB of replies to a peer that is not reading yet: the write pump
    // runs into `WouldBlock` with most of it still queued, and only the
    // socket turning writable again can restart it.
    const N: usize = 2400;
    let service =
        QueryService::bind(ServiceConfig::ephemeral().workers(2), server(300, 91)).unwrap();
    let mut client = client(&service);
    let request = Request::Query(Query::top_k(vec![0.5], 300));
    for _ in 0..N {
        client.send(&request).unwrap();
    }
    // Wait (off the socket) until two samples 20 ms apart agree: the
    // service has stopped making progress.
    let mut last = 0;
    settle(&service, |stats| {
        let stuck = stats.bytes_out > 0 && stats.bytes_out == last;
        last = stats.bytes_out;
        stuck
    });
    let served = service.stats_deep().snapshot.requests_served;
    assert!(
        served < N as u64,
        "the socket never filled: {served} served"
    );
    for i in 0..N {
        match client.receive().unwrap() {
            Response::Query { response, .. } => assert_eq!(response.records.len(), 300),
            other => panic!("reply {i}: {other:?}"),
        }
    }
    settle(&service, |stats| stats.requests_served == N as u64);
    service.shutdown();
}

#[test]
fn a_quiet_connection_is_reaped_by_the_read_timeout_with_no_other_traffic() {
    // Nothing happens on the service after the pong, so only an armed
    // deadline can close these two connections.
    let config = ServiceConfig::ephemeral().read_timeout(Some(Duration::from_millis(150)));
    let service = QueryService::bind(config, server(10, 3)).unwrap();
    let silent = connect(&service);
    let connected = Instant::now();
    let mut pinged = connect(&service);
    pinged.write_all(&Request::Ping.to_framed_bytes()).unwrap();
    let pong = read_message::<Response>(&mut pinged, 1 << 20).unwrap();
    assert!(matches!(pong, Some(Response::Pong)), "{pong:?}");
    let ponged = Instant::now();
    for (mut stream, since) in [(silent, connected), (pinged, ponged)] {
        let quiet_for = await_eof(&mut stream).duration_since(since);
        assert!(
            (Duration::from_millis(100)..Duration::from_secs(2)).contains(&quiet_for),
            "closed after {quiet_for:?} of silence, read_timeout is 150 ms"
        );
    }
    service.shutdown();
}

#[test]
fn a_deep_pipeline_holds_up_another_connection_for_a_backlog_not_its_whole_burst() {
    // One reactor, two connections. A writes 1,000 distinct wide-range
    // queries in one burst and reads nothing; a read pass stops at the
    // 128-request backlog and comes back through the deadline heap, so B's
    // ping is answered between two of A's backlogs. A reactor that reads
    // until `WouldBlock` computes all of A's burst first; one that stops at
    // the backlog without re-arming never answers A's tail.
    const N: u64 = 1000;
    let service =
        QueryService::bind(ServiceConfig::ephemeral().workers(1), server(64, 13)).unwrap();
    let mut a = connect(&service);
    let mut b = client(&service);
    b.ping().unwrap();
    let burst: Vec<u8> = (0..N)
        .map(|i| Query::range(vec![0.5], -1.0 - i as f64, 2.0))
        .flat_map(|query| Request::Query(query).to_framed_bytes())
        .collect();
    a.write_all(&burst).unwrap();
    b.ping().unwrap();
    let computed = service.stats_deep().snapshot.cache_misses;
    assert!(
        computed < N,
        "B's ping waited for all {computed} of A's queries"
    );
    for i in 0..N {
        match read_message::<Response>(&mut a, 1 << 20) {
            Ok(Some(Response::Query { response, .. })) => assert!(!response.records.is_empty()),
            other => panic!("reply {i}: {other:?}"),
        }
    }
    assert_eq!(service.shutdown().cache_misses, N);
}

#[test]
fn a_shed_slow_reader_that_never_closes_is_dropped_at_the_linger_deadline() {
    // The shed connection reads its typed goodbye and then just sits there,
    // holding the service's only slot; nothing else talks to the service,
    // so only the linger deadline can free it. With several reactors the
    // next connection may land on another one, which sees the slot free
    // only through the service-wide count.
    for workers in [1, 4] {
        let config = ServiceConfig::ephemeral()
            .workers(workers)
            .max_connections(1)
            .write_queue_budget_bytes(4096)
            .mid_frame_patience(Duration::from_millis(100));
        let service = QueryService::bind(config, server(300, 91)).unwrap();
        let mut slow = client(&service);
        let request = Request::Query(Query::top_k(vec![0.5], 300));
        slow.send(&request).unwrap();
        match slow.receive().unwrap_err() {
            ServiceError::Remote(reply) => assert_eq!(reply.code, ErrorCode::Overloaded),
            other => panic!("workers {workers}: expected a remote Overloaded reply, got {other}"),
        }
        std::thread::sleep(Duration::from_millis(600));
        let mut next = client(&service);
        next.ping()
            .unwrap_or_else(|e| panic!("workers {workers}: the slot was never freed: {e}"));
        drop(slow);
        service.shutdown();
    }
}

#[test]
fn a_shed_peer_that_keeps_sending_holds_up_no_one_else() {
    // A shed connection is still read, and what it sends discarded, so the
    // close cannot reset the peer over unread bytes. This peer never stops
    // sending, in 64 KiB writes that the reactor reads back two system
    // calls per 11-byte frame: its socket never runs dry. A read pump that
    // runs until `WouldBlock` therefore never returns — nobody else is
    // served, no deadline fires and `shutdown()` waits in `join` forever.
    let config = ServiceConfig::ephemeral()
        .write_queue_budget_bytes(4096)
        // The shed connection lingers, reading, for longer than the test.
        .mid_frame_patience(HANG * 3);
    let service = QueryService::bind(config, server(300, 91)).unwrap();
    let mut flooder = connect(&service);
    let too_big_to_queue = Request::Query(Query::top_k(vec![0.5], 300));
    flooder
        .write_all(&too_big_to_queue.to_framed_bytes())
        .unwrap();
    settle(&service, |_| {
        service.stats_deep().reactor.slow_readers_shed == 1
    });
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let batch = Request::Ping.to_framed_bytes().repeat(6000);
            // Ends at the first failed write (the service closed the
            // connection), and on its own should an assertion below fail.
            let give_up = Instant::now() + HANG + Duration::from_secs(5);
            while !stop.load(Ordering::SeqCst) && Instant::now() < give_up {
                if flooder.write_all(&batch).is_err() {
                    break;
                }
            }
        });
        let before = service.stats_deep().snapshot.bytes_in;
        settle(&service, |stats| stats.bytes_in > before + (256 << 10));
        client(&service)
            .ping()
            .expect("a second client is served while the flood goes on");
        let started = Instant::now();
        service.shutdown();
        let took = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    });
}

#[test]
fn an_idle_service_does_not_turn() {
    // The regression test for blocking in the kernel, and for any future
    // timer that forgets to disarm: 50 connected, silent clients cost no
    // reactor turns at all. (The sweep turned ~1,500 times a second.)
    let service = QueryService::bind(ServiceConfig::ephemeral(), server(10, 5)).unwrap();
    let fleet: Vec<TcpStream> = (0..50).map(|_| connect(&service)).collect();
    // Accepts are FIFO: once this later connection is answered, the fleet
    // has been admitted.
    let mut last = client(&service);
    last.ping().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let before = service.stats_deep().reactor.sweeps.count;
    std::thread::sleep(Duration::from_millis(400));
    let turns = service.stats_deep().reactor.sweeps.count - before;
    assert!(turns <= 2, "{turns} turns in 400 ms with nothing to do");
    drop(fleet);
    service.shutdown();
}

#[test]
fn shutdown_wakes_every_reactor_and_says_a_typed_goodbye_on_every_connection() {
    // Sixteen connections over four reactors, each admitted (one ping) and
    // then holding a query whose answer it has not read. Shutdown has to
    // wake every reactor, and each connection reads its answer, if its
    // reactor read the query first, and then the typed goodbye — never a
    // bare close.
    const CONNS: usize = 16;
    let service =
        QueryService::bind(ServiceConfig::ephemeral().workers(4), server(12, 21)).unwrap();
    let read = |stream: &mut TcpStream| read_message::<Response>(stream, 1 << 20).unwrap();
    let mut streams: Vec<TcpStream> = (0..CONNS).map(|_| connect(&service)).collect();
    for (i, stream) in streams.iter_mut().enumerate() {
        stream.write_all(&Request::Ping.to_framed_bytes()).unwrap();
        assert!(
            matches!(read(stream), Some(Response::Pong)),
            "connection {i}"
        );
        let query = Request::Query(Query::top_k(vec![0.5], i % 12 + 1));
        stream.write_all(&query.to_framed_bytes()).unwrap();
    }
    // On its own thread, so a reactor left asleep fails the test instead
    // of hanging it.
    let (done, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        service.shutdown();
        let _ = done.send(());
    });
    returned
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown returns within 2 s, every reactor woken");
    for (i, stream) in streams.iter_mut().enumerate() {
        let mut reply = read(stream);
        if let Some(Response::Query { response, .. }) = &reply {
            assert_eq!(response.records.len(), i % 12 + 1, "connection {i}");
            reply = read(stream);
        }
        match reply {
            Some(Response::Error(reply)) => assert_eq!(reply.code, ErrorCode::ShuttingDown),
            other => panic!("connection {i}: expected the typed goodbye, got {other:?}"),
        }
    }
}

#[test]
fn shutdown_of_an_idle_service_waits_for_no_timer() {
    // The reactor is blocked with no deadline near: shutdown has to wake
    // it, and the goodbye flush has to end when the last frame is out
    // rather than when its one-second budget is.
    let service = QueryService::bind(ServiceConfig::ephemeral(), server(10, 9)).unwrap();
    let mut idle = connect(&service);
    let mut last = client(&service);
    last.ping().unwrap();
    let started = Instant::now();
    service.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    match read_message::<Response>(&mut idle, 1 << 20) {
        Ok(Some(Response::Error(reply))) => assert_eq!(reply.code, ErrorCode::ShuttingDown),
        other => panic!("expected the typed goodbye, got {other:?}"),
    }
}
