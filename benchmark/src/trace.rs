//! Spans recorded by the benchmark around its calls into each layer.
//!
//! One [`SpanLog`] per load thread, held in memory during the traced pass and
//! written out as JSON lines when the benchmark ends. All spans of one
//! request share its request id; a child names its parent span.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the log's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of this span in its thread's log.
    pub id: u32,
    /// Index of the span that caused this one; `None` for a request's root.
    pub parent: Option<u32>,
    /// Shared by all spans of one request; unique across threads.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread's span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// All logs of one pass share `origin`, so their spans line up.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            id,
            parent,
            request,
        });
        id
    }

    /// Opens a root span whose end is not known yet; close it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, request: u64) -> u32 {
        self.record(name, start, start, None, request)
    }

    /// Sets the end of a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }
}

/// Durations (ns) of every span called `name` across `logs`.
pub fn durations_ns(logs: &[SpanLog], name: &str) -> Vec<u64> {
    logs.iter()
        .flat_map(|log| log.spans.iter())
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Writes every span as one JSON object per line. `thread` disambiguates the
/// per-thread span ids.
pub fn write_jsonl(path: &Path, logs: &[SpanLog]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (thread, log) in logs.iter().enumerate() {
        for s in &log.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_their_root_and_share_its_request() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        let root = log.open("request", origin, 7);
        let t1 = origin + Duration::from_micros(5);
        let t2 = origin + Duration::from_micros(9);
        let child = log.record("service.client.send", origin, t1, Some(root), 7);
        log.close(root, t2);
        assert_eq!(log.spans[root as usize].duration_ns(), 9_000);
        assert_eq!(log.spans[child as usize].parent, Some(root));
        assert_eq!(log.spans[child as usize].request, 7);
        assert_eq!(durations_ns(&[log], "service.client.send"), vec![5_000]);
    }
}
