//! Lock-free service metrics: counters, fixed-bucket latency histograms,
//! and per-stage attribution of the server hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vaq_wire::{
    ErrorCode, ErrorCount, KindLatency, KindStages, LatencyHistogram, ReactorStats, StageLatency,
    StageMicros, StatsDeep, StatsSnapshot, LATENCY_BUCKET_BOUNDS_MICROS,
};

/// Number of histogram buckets: one per bound plus an overflow bucket.
pub const BUCKETS: usize = LATENCY_BUCKET_BOUNDS_MICROS.len() + 1;

/// Number of hot-path stages a request is attributed to.
pub const STAGES: usize = 7;

/// One stage of the server hot path, in request order. Every request's
/// wall-clock time decomposes into disjoint spans of these stages (plus
/// untimed glue), so per-stage sums never exceed whole-request time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Per request: from the end of the read pass that brought its frame
    /// to the moment its reactor starts it — the wait behind the earlier
    /// frames of the same pass, ≈0 for a request that arrives alone. The
    /// only stage in which a request waits on other requests.
    QueueWait,
    /// Decoding the request payload into a [`vaq_wire::Request`].
    Decode,
    /// The response-cache probe, including lock acquisition.
    CacheLookup,
    /// Query execution: subdomain location, scoring, window selection.
    Execute,
    /// Verification-object construction and signature binding.
    VoBuild,
    /// Encoding the response into a framed byte vector.
    Encode,
    /// Writing the response frame to the socket.
    Write,
}

impl Stage {
    /// Every stage, in hot-path order.
    pub const ALL: [Stage; STAGES] = [
        Stage::QueueWait,
        Stage::Decode,
        Stage::CacheLookup,
        Stage::Execute,
        Stage::VoBuild,
        Stage::Encode,
        Stage::Write,
    ];

    /// Stable position of this stage in [`Stage::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Decode => 1,
            Stage::CacheLookup => 2,
            Stage::Execute => 3,
            Stage::VoBuild => 4,
            Stage::Encode => 5,
            Stage::Write => 6,
        }
    }

    /// Stable snake_case label used in stats payloads and slow-request log
    /// lines.
    pub fn label(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Decode => "decode",
            Stage::CacheLookup => "cache_lookup",
            Stage::Execute => "execute",
            Stage::VoBuild => "vo_build",
            Stage::Encode => "encode",
            Stage::Write => "write",
        }
    }
}

/// A fixed-bucket latency histogram updated with relaxed atomics.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Histogram {
    /// Records one latency observation.
    pub fn observe(&self, latency: Duration) {
        self.observe_micros(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one latency observation already truncated to microseconds.
    pub fn observe_micros(&self, micros: u64) {
        let bucket = LATENCY_BUCKET_BOUNDS_MICROS
            .iter()
            .position(|bound| micros <= *bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Snapshot of the histogram as a wire message.
    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            bucket_counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// Count/sum/max accumulator for one (request kind, stage) cell — cheaper
/// than a full histogram, and sums are what the bounds invariant needs.
#[derive(Debug, Default)]
struct StageAccum {
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl StageAccum {
    fn record(&self, micros: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    fn snapshot(&self, stage: Stage) -> StageMicros {
        StageMicros {
            stage: stage.label().to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// Request kinds the service tracks latency for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Top-k query.
    TopK,
    /// Range query.
    Range,
    /// KNN query.
    Knn,
}

impl RequestKind {
    /// Every kind, in label order.
    pub const ALL: [RequestKind; 3] = [RequestKind::TopK, RequestKind::Range, RequestKind::Knn];

    /// Stable position of this kind in [`RequestKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            RequestKind::TopK => 0,
            RequestKind::Range => 1,
            RequestKind::Knn => 2,
        }
    }

    /// Stable label used in stats payloads (`"topk"`, `"range"`, `"knn"`).
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::TopK => "topk",
            RequestKind::Range => "range",
            RequestKind::Knn => "knn",
        }
    }
}

/// Point-in-time occupancy of the serving publication's response cache,
/// sampled by whoever holds the cache lock and handed to
/// [`Metrics::snapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheGauges {
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident.
    pub bytes: u64,
}

/// All counters of one running service.
#[derive(Debug)]
pub struct Metrics {
    /// Requests fully served (including error replies).
    pub requests_served: AtomicU64,
    /// Query responses served from the cache.
    pub cache_hits: AtomicU64,
    /// Query responses that were computed.
    pub cache_misses: AtomicU64,
    /// Response-cache entries evicted under entry-count or byte-budget
    /// pressure, summed over every publication's cache. A republication
    /// retires its predecessor's cache whole, which is not counted.
    pub cache_evictions: AtomicU64,
    /// Request-frame bytes read.
    pub bytes_in: AtomicU64,
    /// Response-frame bytes written.
    pub bytes_out: AtomicU64,
    /// Error replies sent.
    pub errors: AtomicU64,
    /// Connections shed at the configured connection limit (each also
    /// records a typed [`ErrorCode::Overloaded`] reply in the per-code
    /// breakdown).
    pub connections_shed: AtomicU64,
    /// Connections shed because their queued response bytes exceeded the
    /// per-connection write-queue budget (slow readers); each also records
    /// a typed [`ErrorCode::Overloaded`] reply in the per-code breakdown.
    pub slow_readers_shed: AtomicU64,
    /// Reactor turns that ran past the configured stall threshold.
    pub reactor_stalls: AtomicU64,
    per_error: [AtomicU64; ErrorCode::ALL.len()],
    latency: [Histogram; 3],
    stage_latency: [Histogram; STAGES],
    kind_stage: [[StageAccum; STAGES]; 3],
    sweep_latency: Histogram,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests_served: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            slow_readers_shed: AtomicU64::new(0),
            reactor_stalls: AtomicU64::new(0),
            per_error: Default::default(),
            latency: Default::default(),
            stage_latency: Default::default(),
            kind_stage: Default::default(),
            sweep_latency: Default::default(),
            started: Instant::now(),
        }
    }
}

impl Metrics {
    /// Folds one finished request trace into the per-stage histograms, and
    /// — when the request was query-shaped — into its kind's whole-request
    /// histogram and per-kind stage attribution.
    pub fn observe_request(
        &self,
        stage_micros: &[u64; STAGES],
        kind: Option<RequestKind>,
        total: Duration,
    ) {
        for stage in Stage::ALL {
            self.stage_latency[stage.index()].observe_micros(stage_micros[stage.index()]);
        }
        if let Some(kind) = kind {
            self.latency[kind.index()].observe(total);
            for stage in Stage::ALL {
                self.kind_stage[kind.index()][stage.index()].record(stage_micros[stage.index()]);
            }
        }
    }

    /// Records one reactor turn's duration (the time away from the poller,
    /// executing the requests it read included, not the time blocked in
    /// it; "sweep" is the name the wire format kept), counting it as a
    /// stall when it ran for at least `stall_threshold_micros`: a blocking
    /// call on a reactor surfaces here as a stall tick.
    pub fn observe_sweep(&self, duration: Duration, stall_threshold_micros: u64) {
        let micros = duration.as_micros().min(u64::MAX as u128) as u64;
        self.sweep_latency.observe_micros(micros);
        if micros >= stall_threshold_micros {
            self.reactor_stalls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bumps the flat error counter and the per-code breakdown together.
    pub fn record_error(&self, code: ErrorCode) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.per_error[code.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Micros since this metrics registry (and hence the service carrying
    /// it) was created.
    pub fn uptime_micros(&self) -> u64 {
        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Adds to a counter.
    pub fn add(counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter as a wire message, stamped with the
    /// publication epoch the service currently serves and the sampled
    /// response-cache occupancy.
    pub fn snapshot(&self, workers: usize, epoch: u64, cache: CacheGauges) -> StatsSnapshot {
        StatsSnapshot {
            requests_served: Self::get(&self.requests_served),
            cache_hits: Self::get(&self.cache_hits),
            cache_misses: Self::get(&self.cache_misses),
            bytes_in: Self::get(&self.bytes_in),
            bytes_out: Self::get(&self.bytes_out),
            errors: Self::get(&self.errors),
            workers: workers as u32,
            epoch,
            per_kind: RequestKind::ALL
                .iter()
                .map(|kind| KindLatency {
                    kind: kind.label().to_string(),
                    histogram: self.latency[kind.index()].snapshot(),
                })
                .collect(),
            uptime_micros: self.uptime_micros(),
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_evictions: Self::get(&self.cache_evictions),
            per_error: ErrorCode::ALL
                .iter()
                .map(|code| ErrorCount {
                    code: code.label().to_string(),
                    count: self.per_error[code.index()].load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Deep snapshot: the flat snapshot plus per-stage histograms,
    /// per-kind stage attribution, and reactor health telemetry.
    pub fn deep_snapshot(&self, workers: usize, epoch: u64, cache: CacheGauges) -> StatsDeep {
        StatsDeep {
            snapshot: self.snapshot(workers, epoch, cache),
            per_stage: Stage::ALL
                .iter()
                .map(|stage| StageLatency {
                    stage: stage.label().to_string(),
                    histogram: self.stage_latency[stage.index()].snapshot(),
                })
                .collect(),
            per_kind_stage: RequestKind::ALL
                .iter()
                .map(|kind| KindStages {
                    kind: kind.label().to_string(),
                    stages: Stage::ALL
                        .iter()
                        .map(|stage| self.kind_stage[kind.index()][stage.index()].snapshot(*stage))
                        .collect(),
                })
                .collect(),
            reactor: ReactorStats {
                sweeps: self.sweep_latency.snapshot(),
                reactor_stalls: Self::get(&self.reactor_stalls),
                slow_readers_shed: Self::get(&self.slow_readers_shed),
                connections_shed: Self::get(&self.connections_shed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_bucket() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(40)); // <= 50: bucket 0
        h.observe(Duration::from_micros(50)); // <= 50: bucket 0
        h.observe(Duration::from_micros(51)); // <= 100: bucket 1
        h.observe(Duration::from_secs(10)); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.bucket_counts[0], 2);
        assert_eq!(snap.bucket_counts[1], 1);
        assert_eq!(snap.bucket_counts[BUCKETS - 1], 1);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.max_micros, 10_000_000);
        assert_eq!(snap.bucket_counts.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn metrics_snapshot_carries_all_kinds() {
        let m = Metrics::default();
        let stages = [0u64; STAGES];
        m.observe_request(&stages, Some(RequestKind::TopK), Duration::from_micros(10));
        m.observe_request(&stages, Some(RequestKind::Knn), Duration::from_micros(20));
        Metrics::add(&m.requests_served, 2);
        let snap = m.snapshot(8, 5, CacheGauges::default());
        assert_eq!(snap.workers, 8);
        assert_eq!(snap.epoch, 5);
        assert_eq!(snap.requests_served, 2);
        assert_eq!(snap.per_kind.len(), 3);
        let labels: Vec<&str> = snap.per_kind.iter().map(|k| k.kind.as_str()).collect();
        assert_eq!(labels, ["topk", "range", "knn"]);
        assert_eq!(snap.per_kind[0].histogram.count, 1);
        assert_eq!(snap.per_kind[2].histogram.count, 1);
    }

    #[test]
    fn per_error_counters_break_out_the_flat_counter() {
        let m = Metrics::default();
        m.record_error(ErrorCode::BadQuery);
        m.record_error(ErrorCode::BadQuery);
        m.record_error(ErrorCode::StaleEpoch);
        assert_eq!(Metrics::get(&m.errors), 3);
        let snap = m.snapshot(1, 1, CacheGauges::default());
        let total: u64 = snap.per_error.iter().map(|e| e.count).sum();
        assert_eq!(total, snap.errors);
        let count = |code: ErrorCode| {
            let entry = snap.per_error.iter().find(|e| e.code == code.label());
            entry.expect("every code has an entry").count
        };
        assert_eq!(count(ErrorCode::BadQuery), 2);
        assert_eq!(count(ErrorCode::StaleEpoch), 1);
        assert_eq!(count(ErrorCode::Internal), 0);
    }

    #[test]
    fn observe_request_attributes_stages_to_kinds() {
        let m = Metrics::default();
        let mut micros = [0u64; STAGES];
        micros[Stage::Execute.index()] = 300;
        micros[Stage::VoBuild.index()] = 200;
        micros[Stage::Write.index()] = 10;
        m.observe_request(
            &micros,
            Some(RequestKind::Range),
            Duration::from_micros(600),
        );
        // A kind-less request (e.g. a stats scrape) still feeds the global
        // per-stage histograms.
        m.observe_request(&[0u64; STAGES], None, Duration::from_micros(5));

        let deep = m.deep_snapshot(2, 7, CacheGauges::default());
        assert_eq!(deep.per_stage.len(), STAGES);
        for stage in &deep.per_stage {
            assert_eq!(stage.histogram.count, 2, "stage {}", stage.stage);
        }
        let range = deep
            .per_kind_stage
            .iter()
            .find(|k| k.kind == "range")
            .unwrap();
        let stage_sum: u64 = range.stages.iter().map(|s| s.sum_micros).sum();
        assert_eq!(stage_sum, 510);
        let whole = &deep.snapshot.per_kind[RequestKind::Range.index()].histogram;
        assert_eq!(whole.count, 1);
        assert!(stage_sum <= whole.sum_micros);
    }

    #[test]
    fn sweep_watchdog_counts_stalls_above_the_threshold() {
        let m = Metrics::default();
        m.observe_sweep(Duration::from_micros(40), 1000);
        m.observe_sweep(Duration::from_micros(1000), 1000); // at threshold: stall
        m.observe_sweep(Duration::from_micros(2500), 1000);
        assert_eq!(Metrics::get(&m.reactor_stalls), 2);
        let deep = m.deep_snapshot(1, 0, CacheGauges::default());
        assert_eq!(deep.reactor.sweeps.count, 3);
        assert_eq!(deep.reactor.sweeps.max_micros, 2500);
        assert_eq!(deep.reactor.reactor_stalls, 2);
        assert_eq!(deep.reactor.slow_readers_shed, 0);
    }

    #[test]
    fn uptime_is_monotone() {
        let m = Metrics::default();
        let a = m.uptime_micros();
        let b = m.uptime_micros();
        assert!(b >= a);
    }
}
