//! The five workloads: their sizes, the set-up that deploys each, and the
//! load passes that drive them.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::layers::{
    self, Conn, Dataset, IdleConnection, Metrics, MixSpec, Query, QueryStream, ServerCounters,
    Service, ShardView, SigningKey, SigningMode, StreamSource, TraceInto, Tree,
};
use crate::procfs::{self, CpuSample};
use crate::trace::SpanLog;

/// Load threads of every workload. One closed loop keeps at most two threads
/// runnable at a time (the client or a worker, and the reactor), which is
/// what the two-core sandbox can run without the scheduler choosing who
/// waits: with two load threads the same code's throughput and tail spread
/// by 0.23 to 0.5 of their median beside one other busy process, with one
/// by under 0.1.
pub const CLIENTS: usize = 1;

/// Queries of a connection's working set on the cache-hit workloads; it fits
/// the service's 1,024-entry response cache four times over.
const WORKING_SET: usize = 256;

/// Fresh queries each connection sends before the first measured one on
/// the cache-miss workloads, to page in the structure and the socket path.
const WARM_UP_REQUESTS: usize = 100;

/// How long a smoke pass lasts at most; `--seconds` is ignored. A fifth of
/// it is the republication gap, short enough for a republication to land
/// among a connection's 25 requests in an unoptimised build.
pub const SMOKE_PASS: Duration = Duration::from_millis(200);

/// How a connection chooses its next query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reuse {
    /// Fresh weights every request: every request misses the response cache.
    Fresh,
    /// Cycle a working set warmed during set-up: every request hits it.
    WorkingSet,
}

/// One workload's shape. Everything else derives from the seed.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub records: usize,
    pub dims: usize,
    pub mode: SigningMode,
    /// RSA modulus of a single service's key; a sharded deployment fixes
    /// its own.
    pub key_bits: usize,
    pub mix: MixSpec,
    pub reuse: Reuse,
    pub idle_connections: usize,
    /// 1 is a single service; more is a sharded deployment.
    pub shards: usize,
    /// The owner republishes this often during a pass, first at half the
    /// gap, so passes of any whole number of gaps carry the same churn.
    pub republish_every: Option<Duration>,
    /// Requests after which a connection stops before the pass's time is
    /// up; only the smoke sizes set it.
    pub request_cap: Option<u64>,
    /// Queries each request-path probe walks.
    pub probe_queries: usize,
}

const POINT_MIX: MixSpec = MixSpec {
    topk: 1,
    range: 1,
    knn: 1,
    k: 10,
    range_width: 0.2,
};

/// The workload called `name`, at full or smoke size.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    // 76 two-dimensional records give about 1,300 subdomains (never under
    // 1,000 on the seeds tried), so locate, ProofCache and multi-signature
    // mode are on the path, and three RSA-1024 set-ups still fit a run.
    let point = Spec {
        name: "point_cold",
        records: 76,
        dims: 2,
        mode: SigningMode::MultiSignature,
        key_bits: 1024,
        mix: POINT_MIX,
        reuse: Reuse::Fresh,
        idle_connections: 0,
        shards: 1,
        republish_every: None,
        request_cap: None,
        probe_queries: 2000,
    };
    let full = match name {
        "point_cold" => point,
        "point_hot" => Spec {
            name: "point_hot",
            reuse: Reuse::WorkingSet,
            ..point
        },
        "idle_fleet" => Spec {
            name: "idle_fleet",
            reuse: Reuse::WorkingSet,
            idle_connections: 2000,
            ..point
        },
        // One dimension means one subdomain and one 4,098-leaf FMH-tree; a
        // quarter-width range returns hundreds of records per reply.
        "wide_range" => Spec {
            name: "wide_range",
            records: 4096,
            dims: 1,
            mode: SigningMode::OneSignature,
            mix: MixSpec {
                topk: 0,
                range: 1,
                knn: 0,
                k: 10,
                range_width: 0.25,
            },
            ..point
        },
        "sharded_churn" => Spec {
            name: "sharded_churn",
            records: 128,
            shards: 2,
            republish_every: Some(Duration::from_secs(2)),
            ..point
        },
        _ => return None,
    };
    if !smoke {
        return Some(full);
    }
    Some(Spec {
        records: 16,
        key_bits: 256,
        idle_connections: full.idle_connections.min(20),
        republish_every: full.republish_every.map(|_| SMOKE_PASS / 5),
        request_cap: Some(25),
        probe_queries: 50,
        ..full
    })
}

/// A connection's traffic.
enum Traffic {
    Fresh(QueryStream),
    Cycle { set: Vec<Query>, next: usize },
}

impl Traffic {
    fn next_query(&mut self) -> Query {
        match self {
            Traffic::Fresh(stream) => stream.next_query(),
            Traffic::Cycle { set, next } => {
                let query = set[*next % set.len()].clone();
                *next += 1;
                query
            }
        }
    }
}

/// One load thread's state, kept across the passes of a run.
struct Load {
    conn: Conn,
    traffic: Traffic,
}

/// What a probe run keeps from set-up to probe the owner's side with.
struct ProbeKit {
    tree: Tree,
    scheme: SigningKey,
}

/// What outlives a deployment for the probes.
pub struct ProbeInputs {
    spec: Spec,
    dataset: Arc<Dataset>,
    source: StreamSource,
    kit: Option<ProbeKit>,
}

/// A deployed workload, ready to be driven.
pub struct Bench {
    pub spec: Spec,
    dataset: Arc<Dataset>,
    source: StreamSource,
    service: Service,
    loads: Vec<Load>,
    /// Held open and silent for the whole run.
    fleet: Vec<IdleConnection>,
    probe_kit: Option<ProbeKit>,
    pub keygen: Duration,
    pub build: Duration,
    pub setup: Duration,
}

/// Deploys `spec` from `seed`: dataset, key, owner build, bind, connects,
/// correctness gate, warm-up and idle fleet. Everything before the first
/// measured request is set-up and is in `Bench::setup`.
pub fn set_up(spec: Spec, seed: u64, keep_probe_kit: bool) -> Result<Bench, String> {
    let started = Instant::now();
    let dataset = Arc::new(layers::dataset(spec.records, spec.dims, seed));
    let (service, probe_kit, keygen, build) = if spec.shards > 1 {
        let build_started = Instant::now();
        let service = Service::launch_sharded(&dataset, spec.shards, spec.mode, seed)
            .map_err(|e| format!("launching the sharded deployment: {e}"))?;
        (service, None, Duration::ZERO, build_started.elapsed())
    } else {
        let keygen_started = Instant::now();
        let scheme = layers::signing_key(spec.key_bits, seed);
        let keygen = keygen_started.elapsed();
        let build_started = Instant::now();
        let tree = layers::build_tree(&dataset, spec.mode, &scheme);
        let build = build_started.elapsed();
        let probe_tree = keep_probe_kit.then(|| tree.clone());
        let service = Service::bind_single(&dataset, tree, &scheme, spec.idle_connections)
            .map_err(|e| format!("binding the service: {e}"))?;
        let kit = probe_tree.map(|tree| ProbeKit { tree, scheme });
        (service, kit, keygen, build)
    };

    let source = StreamSource::new(&dataset, spec.mix, seed);
    let mut loads = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS as u64 {
        let conn = service
            .connect()
            .map_err(|e| format!("connecting load client {i}: {e}"))?;
        let mut stream = source.stream(seed + i);
        let traffic = match spec.reuse {
            Reuse::Fresh => Traffic::Fresh(stream),
            Reuse::WorkingSet => Traffic::Cycle {
                set: (0..WORKING_SET).map(|_| stream.next_query()).collect(),
                next: 0,
            },
        };
        loads.push(Load { conn, traffic });
    }

    let (first, second) = source.gate_queries(seed);
    service
        .tamper_gate(&first, &second)
        .map_err(|e| format!("correctness gate: {e}"))?;

    for (i, load) in loads.iter_mut().enumerate() {
        // Warm-up draws from its own stream, so the measured stream of a
        // cache-miss workload starts at its first query.
        let mut warm = source.stream(seed + 1000 + i as u64);
        let requests = match &load.traffic {
            Traffic::Fresh(_) => {
                WARM_UP_REQUESTS.min(spec.request_cap.unwrap_or(u64::MAX) as usize)
            }
            Traffic::Cycle { set, .. } => set.len(),
        };
        for _ in 0..requests {
            let query = match &mut load.traffic {
                Traffic::Fresh(_) => warm.next_query(),
                cycle => cycle.next_query(),
            };
            load.conn
                .verified(&query)
                .map_err(|e| format!("warm-up request on client {i}: {e}"))?;
        }
    }

    // The fleet comes last so that the warm-up does not pay for it.
    let fleet = service
        .open_idle(fleet_size(spec.idle_connections))
        .map_err(|e| format!("opening the idle fleet: {e}"))?;

    Ok(Bench {
        spec,
        dataset,
        source,
        service,
        loads,
        fleet,
        probe_kit,
        keygen,
        build,
        setup: started.elapsed(),
    })
}

/// The fleet the open-file limit leaves room for: each idle connection is
/// two descriptors in this one process.
fn fleet_size(wanted: usize) -> usize {
    let Some(limit) = procfs::open_file_limit() else {
        return wanted;
    };
    let room = limit.saturating_sub(256) / 2;
    if room < wanted {
        eprintln!("vaq_bench: open-file limit {limit} holds {room} of {wanted} idle connections");
    }
    wanted.min(room)
}

impl Bench {
    pub fn idle_connections(&self) -> usize {
        self.fleet.len()
    }

    /// Stops every connection and service, and hands back what the probes
    /// need, so that they run with nothing else on the cores.
    pub fn shut_down(self) -> ProbeInputs {
        // Clients first, so the services drain nothing.
        drop(self.loads);
        drop(self.fleet);
        self.service.shutdown();
        ProbeInputs {
            spec: self.spec,
            dataset: self.dataset,
            source: self.source,
            kit: self.probe_kit,
        }
    }
}

/// How long and how one pass drives the deployment.
#[derive(Clone, Copy, Debug)]
pub struct PassPlan {
    pub duration: Duration,
    pub traced: bool,
}

/// One slice of a pass. A pass is cut into equal windows and the
/// throughput and CPU metrics are a quartile or the median over them, so
/// that interference from outside the sandbox spoils windows, not the run.
pub struct Window {
    pub seconds: f64,
    /// Answers verified in this window.
    pub answers: u64,
    /// CPU the thread groups spent in this window; `None` without `/proc`.
    pub cpu: Option<CpuSample>,
}

/// What one pass measured.
#[derive(Default)]
pub struct PassOutcome {
    /// Nanoseconds from sent to verified, one per verified answer, sorted.
    pub latencies_ns: Vec<u64>,
    pub windows: Vec<Window>,
    pub attempted: u64,
    /// Failed requests by label.
    pub failures: BTreeMap<&'static str, u64>,
    /// Server counters over the pass.
    pub server: ServerCounters,
    pub logs: Vec<SpanLog>,
    pub generate: Duration,
    pub republish_ms: Vec<f64>,
    pub republish_failures: u64,
    pub shard: Option<ShardView>,
}

impl PassOutcome {
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn verified(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Folds another pass's requests into this one: latencies, attempts and
    /// failures. What is measured over one pass only (windows, server
    /// counters, spans) stays this pass's.
    pub fn absorb(&mut self, other: &PassOutcome) {
        self.latencies_ns.extend(&other.latencies_ns);
        self.latencies_ns.sort_unstable();
        self.attempted += other.attempted;
        for (label, count) in &other.failures {
            *self.failures.entry(label).or_default() += count;
        }
        self.republish_failures += other.republish_failures;
    }
}

#[derive(Default)]
struct ClientOutcome {
    /// `(verified at, latency)`, both in nanoseconds, the first since the
    /// thread left the start barrier.
    answers: Vec<(u64, u64)>,
    attempted: u64,
    failures: BTreeMap<&'static str, u64>,
    generate: Duration,
    log: Option<SpanLog>,
    shard: Option<ShardView>,
}

/// The windows of a pass: one per republication gap where the owner
/// republishes, so that every window holds the same churn, else one a
/// second; always a whole number of them.
fn window_plan(spec: &Spec, pass: Duration) -> (usize, Duration) {
    let nominal = spec.republish_every.unwrap_or(Duration::from_secs(1));
    let count = ((pass.as_nanos() / nominal.as_nanos()) as usize).max(1);
    (count, pass / count as u32)
}

/// Drives every load thread (and the republishing owner, if the workload
/// has one) for `plan.duration`.
pub fn run_pass(bench: &mut Bench, plan: PassPlan) -> PassOutcome {
    let spec = bench.spec;
    let start = Barrier::new(CLIENTS + 1 + usize::from(spec.republish_every.is_some()));
    // Load threads park here when done, so that they are still alive (and
    // listed in `/proc`) when the last window's CPU clocks are read.
    let finish = Barrier::new(CLIENTS + 1);
    let (window_count, window) = window_plan(&spec, plan.duration);
    let origin = Instant::now();
    let before = bench.service.counters();
    let service = &mut bench.service;
    let mut outcome = PassOutcome::default();

    std::thread::scope(|scope| {
        let mut clients = Vec::with_capacity(CLIENTS);
        for (i, load) in bench.loads.iter_mut().enumerate() {
            let (start, finish) = (&start, &finish);
            let spawned = std::thread::Builder::new()
                .name(format!("{}{i}", procfs::CLIENT_PREFIX))
                .spawn_scoped(scope, move || {
                    let shard_before = load.conn.shard_view();
                    start.wait();
                    let log = plan.traced.then(|| SpanLog::new(origin));
                    let mut out = drive(load, &spec, plan.duration, log, i as u64);
                    out.shard = load
                        .conn
                        .shard_view()
                        .zip(shard_before)
                        .map(|(now, before)| now.since(&before));
                    finish.wait();
                    out
                });
            clients.push(spawned.expect("spawning a load thread"));
        }
        let owner_thread = spec.republish_every.map(|every| {
            let start = &start;
            std::thread::Builder::new()
                .name("bench-owner".into())
                .spawn_scoped(scope, move || {
                    start.wait();
                    republish_on_schedule(service, every, plan.duration)
                })
                .expect("spawning the owner thread")
        });

        // This thread reads the CPU clocks at every window boundary, while
        // the load threads are alive to be read. A boundary is where the
        // read happened, not where it was due.
        let mut cpu_marks = vec![CpuSample::read()];
        start.wait();
        let started = Instant::now();
        let mut ends_ns = Vec::with_capacity(window_count);
        for w in 1..=window_count as u32 {
            std::thread::sleep((started + window * w).saturating_duration_since(Instant::now()));
            cpu_marks.push(CpuSample::read());
            ends_ns.push(started.elapsed().as_nanos() as u64);
        }
        finish.wait();
        let mut begin_ns = 0;
        for (pair, &end_ns) in cpu_marks.windows(2).zip(&ends_ns) {
            outcome.windows.push(Window {
                seconds: (end_ns - begin_ns) as f64 / 1e9,
                answers: 0,
                cpu: pair[1]
                    .zip(pair[0])
                    .map(|(after, before)| after.since(&before)),
            });
            begin_ns = end_ns;
        }

        for client in clients {
            let Ok(out) = client.join() else {
                *outcome.failures.entry("load_thread_panic").or_default() += 1;
                continue;
            };
            for (verified_at, latency) in out.answers {
                // The request in flight at the deadline ends just past it.
                let w = ends_ns.partition_point(|&end| end <= verified_at);
                outcome.windows[w.min(window_count - 1)].answers += 1;
                outcome.latencies_ns.push(latency);
            }
            outcome.attempted += out.attempted;
            outcome.generate += out.generate;
            for (label, count) in out.failures {
                *outcome.failures.entry(label).or_default() += count;
            }
            outcome.logs.extend(out.log);
            if let Some(view) = out.shard {
                outcome.shard.get_or_insert_default().add(&view);
            }
        }
        if let Some(owner_thread) = owner_thread {
            match owner_thread.join() {
                Ok((times, failures)) => {
                    outcome.republish_ms = times;
                    outcome.republish_failures = failures;
                }
                Err(_) => outcome.republish_failures = 1,
            }
        }
    });

    outcome.server = bench.service.counters().since(&before);
    outcome.latencies_ns.sort_unstable();
    outcome
}

/// The owner's side of a churn pass: a republication due at `every / 2` and
/// then every `every` while the pass lasts. Returns their wall times in ms
/// and how many failed.
fn republish_on_schedule(
    service: &mut Service,
    every: Duration,
    pass: Duration,
) -> (Vec<f64>, u64) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut failures = 0;
    for j in 0.. {
        let offset = every / 2 + every * j;
        if offset >= pass {
            break;
        }
        std::thread::sleep((t0 + offset).saturating_duration_since(Instant::now()));
        match service.republish() {
            Ok(took) => times.push(took.as_secs_f64() * 1e3),
            Err(e) => {
                eprintln!("vaq_bench: republish {j} failed: {e}");
                failures += 1;
            }
        }
    }
    (times, failures)
}

/// One load thread's closed loop: the next request goes out when the last
/// answer is verified. Latency runs from the moment the request is sent
/// until its answer is verified; a failed request has no latency and is
/// counted under its label instead.
fn drive(
    load: &mut Load,
    spec: &Spec,
    duration: Duration,
    mut log: Option<SpanLog>,
    thread: u64,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let t0 = Instant::now();
    let deadline = t0 + duration;
    for k in 0..spec.request_cap.unwrap_or(u64::MAX) {
        let generate_started = Instant::now();
        if generate_started >= deadline {
            break;
        }
        let query = load.traffic.next_query();
        let sent = Instant::now();
        out.generate += sent - generate_started;
        out.attempted += 1;
        let request = thread << 32 | k;
        let result = match &mut log {
            None => load.conn.verified(&query),
            Some(log) => {
                log.record("workload.generate", generate_started, sent, None, request);
                let root = log.open("request", sent, request);
                let result = load.conn.traced(&query, TraceInto { log, root, request });
                log.close(root, Instant::now());
                result
            }
        };
        match result {
            Ok(()) => {
                let verified = Instant::now();
                out.answers.push((
                    (verified - t0).as_nanos() as u64,
                    (verified - sent).as_nanos() as u64,
                ));
            }
            Err(e) => {
                *out.failures.entry(layers::failure_label(&e)).or_default() += 1;
                if !load.conn.recover(&e) {
                    break;
                }
            }
        }
    }
    out.log = log;
    out
}

/// The (P) probes on the workload's own dataset and the first queries of
/// client 0's stream, plus the fixed d = 3 false-reject probe.
pub fn run_probes(inputs: ProbeInputs, seed: u64, metrics: &mut Metrics) {
    let ProbeInputs {
        spec,
        dataset,
        source,
        kit,
    } = inputs;
    let mut stream = source.stream(seed);
    let queries: Vec<Query> = (0..spec.probe_queries)
        .map(|_| stream.next_query())
        .collect();

    let (tree, scheme) = match kit {
        Some(kit) => {
            // A single service has no sharding to probe.
            for name in [
                "service.partition.split_us",
                "service.shard.build_per_shard_ms",
                "service.shard.build_speedup",
            ] {
                metrics.insert(name, Some(0.0));
            }
            (kit.tree, kit.scheme)
        }
        None => layers::probe_sharding(&dataset, spec.shards, spec.mode, seed, metrics),
    };
    layers::probe_structure(&tree, metrics);
    layers::probe_itree_build(&dataset, metrics);
    layers::probe_crypto(&scheme, spec.probe_queries.min(200), metrics);
    layers::probe_request_path(&dataset, tree, &scheme, &queries, metrics);
    layers::probe_false_rejects_d3(seed, spec.probe_queries, metrics);
}
