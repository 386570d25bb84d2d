//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repo root states
//! the same lists; a test keeps the two equal.

use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. `None` for per-layer metrics, which
    /// explain a result and are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "point_cold",
        why: "fresh top-k/range/KNN queries over >1000 subdomains: every request misses the response cache, so I-tree locate, ProofCache, VO build and one RSA-1024 check are on the path",
    },
    WorkloadDef {
        name: "point_hot",
        why: "same publication, the connection cycling a 256-query working set: 100% cache hits, authquery idle, so the trip is socket + reactor + cache + client verify",
    },
    WorkloadDef {
        name: "idle_fleet",
        why: "point_hot beside 2000 silent connections: the reactor's O(n) readiness sweep is the only layer that differs",
    },
    WorkloadDef {
        name: "wide_range",
        why: "range queries returning hundreds of records from one 4096-record subdomain: O(n) scoring, range proofs, per-record SHA-256, wire encode/decode and multi-write flushes dominate",
    },
    WorkloadDef {
        name: "sharded_churn",
        why: "two shards scatter-gathered while the owner republishes on the serving cores: partition, per-leg verify, merge, StaleEpoch rejections and map refreshes; build-time work shows as latency",
    },
];

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("verified_qps", "1/s", Better::Higher, 0.25),
    e2e("verified_p50_us", "us", Better::Lower, 0.25),
    e2e("response_bytes_per_query", "B", Better::Lower, 0.2),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

pub const PER_LAYER: &[MetricDef] = &[
    // (T) spans the benchmark records around public calls.
    layer("workload.generate_us", "us", Lower),
    layer("workload.idle_connections", "count", Lower),
    layer("workload.traced_requests", "count", Higher),
    layer("workload.failed_share", "ratio", Lower),
    layer("workload.p95_us", "us", Lower),
    layer("workload.p99_us", "us", Lower),
    layer("service.server.cpu_us_per_query", "us", Lower),
    layer("service.client.cpu_us_per_query", "us", Lower),
    layer("service.client.send_us", "us", Lower),
    layer("service.client.receive_us", "us", Lower),
    layer("authquery.verify_us", "us", Lower),
    layer("service.shard.query_verified_us", "us", Lower),
    layer("service.shard.leg_mean_us", "us", Lower),
    layer("service.shard.gather_overhead_us", "us", Lower),
    layer("service.shard.stale_rejections", "count", Lower),
    layer("service.shard.map_refreshes", "count", Lower),
    layer("service.shard.failovers", "count", Lower),
    layer("service.shard.republishes", "count", Higher),
    layer("service.shard.republish_p50_ms", "ms", Lower),
    // (S) the server's stage counters, as a difference over the traced pass.
    layer("service.server.queue_wait_us", "us", Lower),
    layer("service.server.decode_us", "us", Lower),
    layer("service.server.flight_wait_us", "us", Lower),
    layer("service.server.error_replies", "count", Lower),
    layer("service.cache.lookup_us", "us", Lower),
    layer("service.cache.hit_ratio", "ratio", Higher),
    layer("service.cache.evictions", "count", Lower),
    layer("authquery.execute_us", "us", Lower),
    layer("authquery.vo_build_us", "us", Lower),
    layer("wire.encode_us", "us", Lower),
    layer("service.conn.write_us", "us", Lower),
    layer("service.reactor.sweeps_per_request", "count", Lower),
    layer("service.reactor.sweep_mean_us", "us", Lower),
    layer("service.reactor.stalls", "count", Lower),
    layer("service.reactor.connections_shed", "count", Lower),
    layer("service.reactor.slow_readers_shed", "count", Lower),
    layer("service.reactor.unattributed_us", "us", Lower),
    // (P) single-thread probes, no socket.
    layer("authquery.build_ms", "ms", Lower),
    layer("itree.build_ms", "ms", Lower),
    layer("itree.oracle_calls", "count", Lower),
    layer("authquery.subdomains", "count", Lower),
    layer("authquery.signatures", "count", Lower),
    layer("authquery.build_hash_ops", "count", Lower),
    layer("authquery.structure_bytes", "B", Lower),
    layer("authquery.proof_cache_bytes", "B", Lower),
    layer("crypto.keygen_ms", "ms", Lower),
    layer("crypto.sign_us", "us", Lower),
    layer("crypto.verify_us", "us", Lower),
    layer("crypto.sha256_mb_s", "MB/s", Higher),
    layer("itree.locate_ns", "ns", Lower),
    layer("itree.nodes_per_locate", "count", Lower),
    layer("mht.prove_range_ns", "ns", Lower),
    layer("authquery.process_us", "us", Lower),
    layer("authquery.imh_nodes_per_query", "count", Lower),
    layer("authquery.fmh_nodes_per_query", "count", Lower),
    layer("authquery.result_len_mean", "count", Lower),
    layer("authquery.verify_hash_ops", "count", Lower),
    layer("authquery.vo_bytes", "B", Lower),
    layer("wire.request_encode_ns", "ns", Lower),
    layer("wire.response_encode_ns", "ns", Lower),
    layer("wire.response_decode_ns", "ns", Lower),
    layer("wire.response_bytes", "B", Lower),
    layer("service.cache.get_ns", "ns", Lower),
    layer("service.cache.insert_ns", "ns", Lower),
    layer("service.partition.split_us", "us", Lower),
    layer("service.shard.build_per_shard_ms", "ms", Lower),
    layer("service.shard.build_speedup", "ratio", Higher),
    layer("authquery.false_reject_share_d3", "ratio", Lower),
    // Traced against untraced p50 of the same invocation.
    layer("trace.untraced_p50_us", "us", Lower),
    layer("trace.traced_p50_us", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.budget_closure", "ratio", Higher),
];

/// Looks a metric up in either list.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
