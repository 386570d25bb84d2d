//! Request-scoped stage tracing for the server hot path.
//!
//! A [`Trace`] rides along with one request from its reactor's pickup to
//! the socket write and accumulates wall-clock time per [`Stage`]. Stages are timed as
//! disjoint sub-intervals of the request, so their sum is always bounded by
//! the whole-request time — which is what lets the per-kind stage
//! attribution in deep stats be read as "where did the latency go".
//!
//! Tracing is always on: a trace is a fixed-size stack value and each stage
//! costs two `Instant::now()` calls, which is noise next to a signature
//! verification. The slow-request log ([`Trace::slow_log_line`]) is the
//! only conditional part, gated by
//! [`ServiceConfig::slow_request_micros`](crate::ServiceConfig).

use crate::metrics::{RequestKind, Stage, STAGES};
use std::time::{Duration, Instant};

/// Wall-clock stage recorder for one request.
#[derive(Clone, Debug)]
pub struct Trace {
    started: Instant,
    stages: [Duration; STAGES],
    kind: Option<RequestKind>,
}

impl Trace {
    /// Starts a trace for a request whose payload has just been read.
    ///
    /// `queue_wait` is time already spent before the reactor picked the
    /// request up (behind earlier frames of its read pass); it is folded
    /// into the total.
    pub fn begin(queue_wait: Duration) -> Self {
        let mut stages = [Duration::ZERO; STAGES];
        stages[Stage::QueueWait.index()] = queue_wait;
        Trace {
            started: Instant::now(),
            stages,
            kind: None,
        }
    }

    /// Times `f` and charges its wall-clock duration to `stage`.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stages[stage.index()] += start.elapsed();
        out
    }

    /// Charges an externally measured duration to `stage`.
    pub fn add(&mut self, stage: Stage, duration: Duration) {
        self.stages[stage.index()] += duration;
    }

    /// Tags the trace with the request kind it turned out to be. Only set
    /// for successfully answered query-shaped requests; error replies and
    /// non-query requests stay untagged and feed only the global per-stage
    /// histograms.
    pub fn set_kind(&mut self, kind: RequestKind) {
        self.kind = Some(kind);
    }

    /// The kind this trace was tagged with, if any.
    pub fn kind(&self) -> Option<RequestKind> {
        self.kind
    }

    /// Whole-request wall-clock so far: queue wait plus time since the
    /// payload was read.
    pub fn total(&self) -> Duration {
        self.stages[Stage::QueueWait.index()] + self.started.elapsed()
    }

    /// Per-stage micros, indexed by [`Stage::index`]. Each stage truncates
    /// independently, so the array sums to at most [`Trace::total`] in
    /// micros.
    pub fn stage_micros(&self) -> [u64; STAGES] {
        let mut out = [0u64; STAGES];
        for stage in Stage::ALL {
            out[stage.index()] =
                self.stages[stage.index()].as_micros().min(u64::MAX as u128) as u64;
        }
        out
    }

    /// One structured JSON line describing this request, for the
    /// slow-request log.
    pub fn slow_log_line(&self, epoch: u64, total: Duration) -> String {
        let micros = self.stage_micros();
        let mut line = String::with_capacity(256);
        line.push_str("{\"event\":\"slow_request\",\"epoch\":");
        line.push_str(&epoch.to_string());
        line.push_str(",\"kind\":");
        match self.kind {
            Some(kind) => {
                line.push('"');
                line.push_str(kind.label());
                line.push('"');
            }
            None => line.push_str("null"),
        }
        line.push_str(",\"total_micros\":");
        line.push_str(&(total.as_micros().min(u64::MAX as u128) as u64).to_string());
        line.push_str(",\"stages\":{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            line.push_str(stage.label());
            line.push_str("\":");
            line.push_str(&micros[stage.index()].to_string());
        }
        line.push_str("}}");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn stage_sums_stay_within_total() {
        let mut trace = Trace::begin(Duration::from_micros(120));
        trace.time(Stage::Decode, || thread::sleep(Duration::from_millis(2)));
        trace.time(Stage::Execute, || thread::sleep(Duration::from_millis(3)));
        trace.add(Stage::Write, Duration::from_micros(40));
        // `add` charges time that did elapse inside the request window in
        // the real server; emulate that window here.
        thread::sleep(Duration::from_micros(50));
        let total = trace.total();
        let micros = trace.stage_micros();
        let stage_sum: u64 = micros.iter().sum();
        assert!(micros[Stage::Decode.index()] >= 2_000);
        assert!(micros[Stage::Execute.index()] >= 3_000);
        assert_eq!(micros[Stage::QueueWait.index()], 120);
        assert!(
            u128::from(stage_sum) <= total.as_micros(),
            "stage sum {stage_sum} exceeds total {}",
            total.as_micros()
        );
    }

    #[test]
    fn slow_log_line_is_structured() {
        let mut trace = Trace::begin(Duration::from_micros(7));
        trace.set_kind(RequestKind::TopK);
        trace.add(Stage::Execute, Duration::from_micros(900));
        let line = trace.slow_log_line(42, Duration::from_micros(1_000));
        assert!(line.starts_with("{\"event\":\"slow_request\""));
        assert!(line.contains("\"epoch\":42"));
        assert!(line.contains("\"kind\":\"topk\""));
        assert!(line.contains("\"total_micros\":1000"));
        assert!(line.contains("\"queue_wait\":7"));
        assert!(line.contains("\"execute\":900"));

        let untagged = Trace::begin(Duration::ZERO).slow_log_line(1, Duration::ZERO);
        assert!(untagged.contains("\"kind\":null"));
    }
}
