//! Service configuration.

use crate::sync::{rank, OrderedMutex};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Where the slow-request log writes its JSON lines.
///
/// An enum rather than a boxed writer so [`ServiceConfig`] stays `Clone +
/// Debug`; the buffer variant exists so tests (and embedders) can capture
/// the log without redirecting stderr.
#[derive(Clone, Debug, Default)]
pub enum SlowLogSink {
    /// Write lines to the process stderr.
    #[default]
    Stderr,
    /// Append lines (newline-terminated) to a shared in-memory buffer.
    Buffer(Arc<OrderedMutex<Vec<u8>>>),
}

impl SlowLogSink {
    /// Creates a buffer-backed sink plus the shared handle for reading what
    /// was captured (via `handle.lock().clone()`).
    pub fn buffer() -> (SlowLogSink, Arc<OrderedMutex<Vec<u8>>>) {
        let buffer = Arc::new(OrderedMutex::new(rank::BUFFER, "buffer", Vec::new()));
        (SlowLogSink::Buffer(Arc::clone(&buffer)), buffer)
    }

    /// Writes one log line (adding the trailing newline).
    pub fn write_line(&self, line: &str) {
        match self {
            SlowLogSink::Stderr => {
                // `writeln!` to an unlocked stderr handle: logging must
                // never panic or hold a lock across the write.
                let _ = writeln!(std::io::stderr(), "{line}");
            }
            SlowLogSink::Buffer(buffer) => {
                let mut buffer = buffer.lock();
                buffer.extend_from_slice(line.as_bytes());
                buffer.push(b'\n');
            }
        }
    }
}

/// Which shard of a sharded deployment a service instance hosts.
///
/// Attached to [`ServiceConfig::shard`] by the owner-side partitioner; the
/// service reports it in reply to [`vaq_wire::Request::ShardInfo`] so a
/// scatter-gather client can check it connected each socket to the shard the
/// attested shard map says lives there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRole {
    /// This shard's index in `0..shard_count`.
    pub shard_id: u32,
    /// Total shards in the deployment.
    pub shard_count: u32,
}

/// Configuration of a [`crate::QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub bind_addr: SocketAddr,
    /// Reactor threads, each answering its own connections (at least 1):
    /// a reactor accepts, reads, executes and writes on its own thread, so
    /// this bounds concurrent request *execution*, not concurrent
    /// connections — thousands of idle connections cost no thread.
    pub workers: usize,
    /// Largest accepted (and produced) frame payload, in bytes.
    pub max_frame_bytes: usize,
    /// The reactor's quiet-connection reap budget: a connection with no
    /// frame started, nothing queued to write, and no byte moved for this
    /// long is closed silently. `None` keeps quiet
    /// connections open for as long as the peer does.
    pub read_timeout: Option<Duration>,
    /// The shard this instance hosts, when part of a sharded deployment;
    /// `None` makes the service answer `ShardInfo` requests with a typed
    /// `NotSharded` error.
    pub shard: Option<ShardRole>,
    /// Whole-request latency threshold, in micros, above which a request is
    /// written to the slow-request log as a structured JSON line; `None`
    /// disables the log.
    pub slow_request_micros: Option<u64>,
    /// Where slow-request log lines go.
    pub slow_log: SlowLogSink,
    /// How long a peer may stall mid-frame (no byte of progress inside a
    /// started frame) before the service gives up on the connection with a
    /// typed [`vaq_wire::ErrorCode::Stalled`] reply.
    pub mid_frame_patience: Duration,
    /// Most connections the service holds at once, across every reactor; a
    /// connection accepted beyond this limit is never read and is closed
    /// behind a typed [`vaq_wire::ErrorCode::Overloaded`] reply.
    pub max_connections: usize,
    /// Per-connection write-queue byte budget: the most queued-but-unflushed
    /// response bytes one connection may hold. A peer that requests faster
    /// than it reads (a slow reader) is shed with a typed
    /// [`vaq_wire::ErrorCode::Overloaded`] reply once its queue would exceed
    /// this budget, bounding reactor memory per connection. The budget
    /// should be at least `max_frame_bytes`, or any single response larger
    /// than it sheds the connection.
    pub write_queue_budget_bytes: usize,
    /// Reactor stall watchdog threshold, in micros: a single reactor turn
    /// (everything between two waits in the poller — the ready sockets and
    /// due deadlines one wake-up brought, and executing every request they
    /// carried) taking at least this long counts as a `reactor_stalls` tick
    /// in the deep stats (every turn also feeds the `sweeps` duration
    /// histogram, so its mean includes execution time). One stalled turn
    /// delays every connection on that reactor, so the threshold is
    /// deliberately coarse — it flags blocking calls and pathological
    /// bursts, not routine jitter.
    pub reactor_stall_micros: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            bind_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            max_frame_bytes: 16 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            shard: None,
            slow_request_micros: None,
            slow_log: SlowLogSink::default(),
            mid_frame_patience: crate::frame::DEFAULT_MID_FRAME_PATIENCE,
            max_connections: 10_000,
            write_queue_budget_bytes: 64 << 20,
            reactor_stall_micros: 100_000,
        }
    }
}

impl ServiceConfig {
    /// Starts from defaults binding an ephemeral localhost port.
    pub fn ephemeral() -> Self {
        Self::default()
    }

    /// Sets the bind address.
    pub fn bind(mut self, addr: SocketAddr) -> Self {
        self.bind_addr = addr;
        self
    }

    /// Sets the reactor-thread count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the frame-size limit.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Sets the quiet-connection reap budget (`None` never reaps).
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Declares which shard of a sharded deployment this instance hosts.
    pub fn shard_role(mut self, role: ShardRole) -> Self {
        self.shard = Some(role);
        self
    }

    /// Enables the slow-request log for requests at or above `micros` of
    /// whole-request latency.
    pub fn slow_request_micros(mut self, micros: u64) -> Self {
        self.slow_request_micros = Some(micros);
        self
    }

    /// Routes slow-request log lines to `sink`.
    pub fn slow_log_sink(mut self, sink: SlowLogSink) -> Self {
        self.slow_log = sink;
        self
    }

    /// Sets how long a peer may stall mid-frame before the connection is
    /// dropped with a typed stall reply.
    pub fn mid_frame_patience(mut self, patience: Duration) -> Self {
        self.mid_frame_patience = patience;
        self
    }

    /// Sets the connection limit (clamped to at least 1); connections
    /// beyond it are shed with a typed overload reply.
    pub fn max_connections(mut self, limit: usize) -> Self {
        self.max_connections = limit.max(1);
        self
    }

    /// Sets the per-connection write-queue byte budget; a connection whose
    /// queued response bytes would exceed it is shed with a typed overload
    /// reply.
    pub fn write_queue_budget_bytes(mut self, bytes: usize) -> Self {
        self.write_queue_budget_bytes = bytes;
        self
    }

    /// Sets the reactor stall watchdog threshold in micros; a reactor turn
    /// at or above it counts as a stall in the deep stats.
    pub fn reactor_stall_micros(mut self, micros: u64) -> Self {
        self.reactor_stall_micros = micros;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ServiceConfig::default();
        assert_eq!(config.bind_addr.port(), 0);
        assert!(config.workers >= 1);
        assert!(config.max_frame_bytes >= 1 << 20);
        assert!(
            config.write_queue_budget_bytes >= config.max_frame_bytes,
            "the default budget must admit at least one max-size response"
        );
        assert!(config.reactor_stall_micros > 0);
    }

    #[test]
    fn builder_methods_apply() {
        let config = ServiceConfig::ephemeral()
            .workers(0)
            .max_frame_bytes(4096)
            .read_timeout(None)
            .mid_frame_patience(Duration::from_millis(250))
            .max_connections(0)
            .write_queue_budget_bytes(8192)
            .reactor_stall_micros(250_000);
        assert_eq!(config.workers, 1, "worker count clamps to 1");
        assert_eq!(config.max_frame_bytes, 4096);
        assert!(config.read_timeout.is_none());
        assert_eq!(config.mid_frame_patience, Duration::from_millis(250));
        assert_eq!(config.max_connections, 1, "connection limit clamps to 1");
        assert_eq!(config.write_queue_budget_bytes, 8192);
        assert_eq!(config.reactor_stall_micros, 250_000);
    }
}
