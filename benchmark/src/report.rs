//! Turns pass outcomes into the named metrics of the catalog, prints them,
//! and writes the result line the driver reads.

use std::fmt::Write as _;

use crate::bench::{Bench, PassOutcome, Window};
use crate::catalog::{self, MetricDef};
use crate::layers::{Metrics, SERVER_STAGES};
use crate::procfs::{self, CpuSample};
use crate::trace;

/// Nearest-rank quantile of a sorted list: the value at 1-based rank
/// `ceil(q·n)`; 0 when the list is empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn p50_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    us(quantile(&ns, 0.5))
}

/// What `f` reads from each of a pass's windows; windows in which nothing
/// was verified are left out.
fn window_values(pass: &PassOutcome, f: impl Fn(&Window) -> Option<f64>) -> Option<Vec<f64>> {
    pass.windows
        .iter()
        .filter(|w| w.answers > 0)
        .map(f)
        .collect()
}

/// The median over a pass's windows of what `f` reads from each.
fn over_windows(pass: &PassOutcome, f: impl Fn(&Window) -> Option<f64>) -> Option<f64> {
    window_values(pass, f).map(|v| median(&v))
}

/// The value a quarter of the way down from the highest of `values`
/// (nearest rank); 0 when there are none. Interference from outside the
/// sandbox only ever takes answers away from a window, so this reads the
/// program undisturbed as long as a quarter of the windows were, where the
/// median needs half of them.
pub fn upper_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let rank = (sorted.len() as f64 / 4.0).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// The end-to-end metrics of a measured (untraced) pass. Throughput is the
/// upper quartile over the pass's windows; the median latency is over every
/// answer.
pub fn end_to_end(setups_s: &[f64], pass: &PassOutcome) -> Metrics {
    let mut m = Metrics::new();
    m.insert("setup_s", Some(median(setups_s)));
    m.insert(
        "verified_qps",
        window_values(pass, |w| Some(w.answers as f64 / w.seconds)).map(|v| upper_quartile(&v)),
    );
    m.insert(
        "verified_p50_us",
        Some(us(quantile(&pass.latencies_ns, 0.5))),
    );
    m.insert(
        "response_bytes_per_query",
        Some(per(pass.server.bytes_out as f64, pass.verified())),
    );
    m.insert("peak_rss_mb", procfs::peak_rss_mib());
    m
}

/// The (T) and (S) layer metrics of a traced pass, set against the untraced
/// passes of the same invocation. Returns the budget line with them.
pub fn per_layer(bench: &Bench, untraced: &PassOutcome, traced: &PassOutcome) -> (Metrics, String) {
    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64| {
        m.insert(name, Some(value));
    };
    let attempted = traced.attempted;
    let span_p50 = |name: &str| p50_us(trace::durations_ns(&traced.logs, name));

    // (T) client-side spans.
    put(
        "workload.generate_us",
        per(traced.generate.as_secs_f64() * 1e6, attempted),
    );
    put("workload.idle_connections", bench.idle_connections() as f64);
    put("workload.traced_requests", attempted as f64);
    put(
        "workload.failed_share",
        per(traced.failed() as f64, attempted),
    );
    put("workload.p95_us", us(quantile(&traced.latencies_ns, 0.95)));
    put("workload.p99_us", us(quantile(&traced.latencies_ns, 0.99)));
    let send = span_p50("service.client.send");
    let receive = span_p50("service.client.receive");
    let verify = span_p50("authquery.verify");
    let scatter = span_p50("service.shard.query_verified");
    put("service.client.send_us", send);
    put("service.client.receive_us", receive);
    put("authquery.verify_us", verify);
    put("service.shard.query_verified_us", scatter);

    let shard = traced.shard.unwrap_or_default();
    let scatter_mean = {
        let all = trace::durations_ns(&traced.logs, "service.shard.query_verified");
        per(all.iter().sum::<u64>() as f64 / 1e3, all.len() as u64)
    };
    let leg_mean = per(shard.leg_total_us as f64, shard.legs);
    put("service.shard.leg_mean_us", leg_mean);
    // Legs are gathered one after the other, so what a scatter spends
    // outside them (sends, merge, bookkeeping) is its total less their sum.
    put(
        "service.shard.gather_overhead_us",
        if shard.legs == 0 {
            0.0
        } else {
            (scatter_mean - leg_mean * bench.spec.shards as f64).max(0.0)
        },
    );
    put(
        "service.shard.stale_rejections",
        shard.stale_rejections as f64,
    );
    put("service.shard.map_refreshes", shard.map_refreshes as f64);
    put("service.shard.failovers", shard.failovers as f64);
    put(
        "service.shard.republishes",
        traced.republish_ms.len() as f64,
    );
    put(
        "service.shard.republish_p50_ms",
        median(&traced.republish_ms),
    );

    // (S) server stage counters over exactly the traced requests.
    let server = &traced.server;
    let mut stage_sum = 0.0;
    let mut stage_terms = String::new();
    for (stage, metric) in SERVER_STAGES {
        let mean = server.stage_mean_us(stage);
        stage_sum += mean;
        put(metric, mean);
        let _ = write!(stage_terms, "{stage} {mean:.1} + ");
    }
    put("service.server.error_replies", server.errors as f64);
    put(
        "service.cache.hit_ratio",
        per(
            server.cache_hits as f64,
            server.cache_hits + server.cache_misses,
        ),
    );
    put("service.cache.evictions", server.cache_evictions as f64);
    put(
        "service.reactor.sweeps_per_request",
        per(server.sweeps as f64, server.requests),
    );
    put(
        "service.reactor.sweep_mean_us",
        per(server.sweep_us as f64, server.sweeps),
    );
    put("service.reactor.stalls", server.stalls as f64);
    put(
        "service.reactor.connections_shed",
        server.connections_shed as f64,
    );
    put(
        "service.reactor.slow_readers_shed",
        server.slow_readers_shed as f64,
    );
    // What the client waited for that no server stage accounts for: the time
    // a complete frame waited for a readiness sweep, loopback, and client
    // decode. On a sharded deployment the wait is the whole scatter, so it
    // also holds per-leg verification and the merge.
    let (wait_name, waited) = if bench.spec.shards > 1 {
        ("query_verified", scatter)
    } else {
        ("receive", receive)
    };
    let unattributed = (waited - stage_sum).max(0.0);
    put("service.reactor.unattributed_us", unattributed);

    // Traced against untraced.
    let untraced_p50 = us(quantile(&untraced.latencies_ns, 0.5));
    let traced_p50 = us(quantile(&traced.latencies_ns, 0.5));
    let share_of_untraced = |value: f64| {
        if untraced_p50 > 0.0 {
            value / untraced_p50
        } else {
            0.0
        }
    };
    put("trace.untraced_p50_us", untraced_p50);
    put("trace.traced_p50_us", traced_p50);
    put(
        "trace.overhead_share",
        share_of_untraced(traced_p50 - untraced_p50),
    );
    let parts = send + waited + verify;
    let closure = share_of_untraced(parts);
    put("trace.budget_closure", closure);

    // CPU per answer by thread group, median over the traced windows; `None`
    // without `/proc`.
    let cpu_per_answer = |pick: fn(&CpuSample) -> u64| {
        over_windows(traced, |w| Some(per(pick(&w.cpu?) as f64 / 1e3, w.answers)))
    };
    m.insert(
        "service.server.cpu_us_per_query",
        cpu_per_answer(|c| c.server_ns),
    );
    m.insert(
        "service.client.cpu_us_per_query",
        cpu_per_answer(|c| c.client_ns),
    );

    let budget = format!(
        "budget {}: verified_p50_us {untraced_p50:.1} ~ send {send:.1} + {wait_name} {waited:.1} \
         [{stage_terms}unattributed {unattributed:.1}] + verify {verify:.1} = {parts:.1} \
         (closure {closure:.3})",
        bench.spec.name
    );
    (m, budget)
}

fn format_value(value: Option<f64>) -> String {
    // `{}` on an f64 prints the shortest digits that read back exactly.
    value.map_or("null".to_string(), |v| format!("{v}"))
}

/// Prints every metric of `defs` by name with its unit, one per line.
pub fn print_table(out: &mut impl std::io::Write, defs: &[MetricDef], metrics: &Metrics) {
    for def in defs {
        let value = metrics.get(def.name).copied().flatten();
        let _ = writeln!(
            out,
            "{:<40} {:>20} {}",
            def.name,
            format_value(value),
            def.unit
        );
    }
}

/// The `metrics` object both output lines carry: every metric of `defs`
/// with its value and unit.
fn metrics_object(defs: &[MetricDef], metrics: &Metrics) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|def| {
            let value = metrics.get(def.name).copied().flatten();
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                format_value(value),
                def.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `defs`.
pub fn result_line(
    defs: &[MetricDef],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_object(defs, metrics)
    )
}

/// One record of a results file: the result line's metrics with the run
/// they came from, for `--compare`.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    defs: &[MetricDef],
    metrics: &Metrics,
) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"metrics\": {}}}",
        u8::from(trace),
        metrics_object(defs, metrics)
    )
}

/// Every metric the catalog lists for the chosen kind of run.
pub fn defs_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(quantile(&sorted, 0.5), 20);
        assert_eq!(quantile(&sorted, 0.99), 40);
        assert_eq!(quantile(&sorted, 0.0), 10);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn upper_quartile_counts_down_from_the_highest() {
        let values: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(upper_quartile(&values), 13.0);
        assert_eq!(upper_quartile(&[3.0, 9.0, 5.0]), 9.0);
        assert_eq!(upper_quartile(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        for def in catalog::END_TO_END {
            metrics.insert(def.name, Some(1.5));
        }
        metrics.insert("peak_rss_mb", None);
        let line = result_line(catalog::END_TO_END, &metrics, true, 10, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": null, \"unit\": \"MiB\"}"));
    }
}
