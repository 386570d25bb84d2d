//! Blocking client for the VAQ1 query service.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use vaq_authquery::{client, Query, QueryResponse, VerifiedResult, VerifyScratch};
use vaq_crypto::Verifier;
use vaq_funcdb::FunctionTemplate;
use vaq_wire::{Epoch, ErrorCode, Request, Response, ShardInfo, SignedShardMap, StatsDeep};
use vaq_workload::QuerySpec;

use crate::error::ServiceError;
use crate::frame::{read_message, write_message};

/// Default frame-size limit accepted by a client.
const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Most queries a batch keeps in flight on one connection before reading
/// their replies. Well under the 128 requests one service read pass takes
/// off a connection, so a window never reaches that bound, and a long batch
/// never queues more than a window of unread replies on the service side.
pub(crate) const PIPELINE_WINDOW: usize = 64;

/// A blocking connection to a [`crate::QueryService`].
///
/// One connection carries any number of requests, answered in the order
/// they were sent, so a caller may pipeline: [`ServiceClient::send`]
/// several requests, then [`ServiceClient::receive`] their replies in the
/// same order ([`ServiceClient::batch`] does this for many queries). The
/// verification entry point [`ServiceClient::query_verified`] feeds the
/// remote response straight into [`vaq_authquery::client::verify`], so a
/// network round-trip gives the same soundness/completeness guarantees as a
/// local call — the service is untrusted, exactly like the paper's server.
#[derive(Debug)]
pub struct ServiceClient {
    stream: TcpStream,
    max_frame_bytes: usize,
    /// Set once a response read fails (timeout or I/O error): the stream may
    /// still carry the late response, so pairing a new request with the next
    /// frame would silently return the wrong response. Desynced connections
    /// refuse further calls; reconnect instead.
    desynced: bool,
    /// Reusable verification scratch: repeated `query_verified` calls on one
    /// connection share the leaf-digest buffer instead of reallocating it.
    verify_scratch: VerifyScratch,
    /// Highest publication epoch [`ServiceClient::query_verified`] has
    /// verified an answer at on this connection — its rollback anchor.
    verified_epoch: Epoch,
}

impl ServiceClient {
    fn over(stream: TcpStream) -> ServiceClient {
        ServiceClient {
            stream,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            desynced: false,
            verify_scratch: VerifyScratch::default(),
            verified_epoch: Epoch::new(0),
        }
    }

    /// Connects to a service.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServiceClient::over(stream))
    }

    /// Connects with a timeout on the TCP handshake.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(ServiceClient::over(stream))
    }

    /// Sets a read timeout for responses.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServiceError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Round-trips a liveness probe, returning its latency.
    pub fn ping(&mut self) -> Result<Duration, ServiceError> {
        let start = Instant::now();
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(start.elapsed()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the service's deep-telemetry snapshot: the flat counters
    /// plus per-stage latency histograms and per-kind stage attribution.
    pub fn stats_deep(&mut self) -> Result<StatsDeep, ServiceError> {
        match self.call(&Request::StatsDeep)? {
            Response::StatsDeep(deep) => Ok(deep),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks one query and returns the publication epoch the service stamped
    /// its answer with, together with the raw (unverified) response.
    ///
    /// With a `pin`, the service answers only while it serves exactly that
    /// epoch; otherwise it replies with a typed [`ErrorCode::StaleEpoch`]
    /// error (surfaced as [`ServiceError::Remote`] — check
    /// [`ServiceError::is_stale_epoch`]), which keeps the connection usable:
    /// re-fetch the signed shard map and retry at the new epoch. Without
    /// one, the stamp is unauthenticated: verify the response with
    /// [`vaq_authquery::verify_at_epoch`] at the epoch the owner's attested
    /// publication promises — the signatures bind it.
    pub fn query(
        &mut self,
        pin: Option<u64>,
        query: &Query,
    ) -> Result<(u64, QueryResponse), ServiceError> {
        self.send_queries(pin, std::slice::from_ref(query))?;
        self.receive_query(&mut { pin })
    }

    /// Sends one query and verifies the response against the owner's
    /// published template and public key before returning it.
    ///
    /// The response is verified at the epoch its envelope is stamped with:
    /// the stamp itself is unauthenticated, but every signature binds the
    /// real publication epoch, so a forged stamp fails verification. The
    /// connection remembers the highest epoch it has verified an answer at
    /// and refuses a reply stamped below it with a typed
    /// [`ServiceError::StaleEpoch`] before verifying — a server cannot
    /// replay a superseded (but genuinely signed) publication to a client
    /// that has already seen a newer one. A fresh connection has no such
    /// anchor: it accepts whichever genuine publication the server presents
    /// first. Callers that know the epoch the owner currently attests
    /// should pin it with [`ServiceClient::query`] instead.
    pub fn query_verified(
        &mut self,
        query: &Query,
        template: &FunctionTemplate,
        verifier: &dyn Verifier,
    ) -> Result<(QueryResponse, VerifiedResult), ServiceError> {
        let (stamped, response) = self.query(None, query)?;
        if Epoch::new(stamped).rolls_back(self.verified_epoch) {
            return Err(ServiceError::StaleEpoch {
                expected: self.verified_epoch.get(),
                got: stamped,
            });
        }
        let verified = client::verify_at_epoch_with_scratch(
            query,
            &response.records,
            &response.vo,
            template,
            verifier,
            stamped,
            &mut self.verify_scratch,
        )?;
        self.verified_epoch = Epoch::new(stamped);
        Ok((response, verified))
    }

    /// Asks a batch of queries, answered in order, all at one epoch.
    ///
    /// The batch is a pipeline of [`ServiceClient::query`]'s frames, a
    /// bounded window of them in flight at a time; an empty batch sends
    /// nothing. A pin is refused as for one query. Unpinned, every answer
    /// must carry the first answer's stamp: a republication landing
    /// mid-batch fails it with a typed [`ServiceError::StaleEpoch`], so a
    /// batch never spans epochs. A connection that closes before every
    /// query is answered is an I/O error, never a short list.
    pub fn batch(
        &mut self,
        pin: Option<u64>,
        queries: &[Query],
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        let mut stamp = pin;
        let mut responses = Vec::with_capacity(queries.len());
        for window in queries.chunks(PIPELINE_WINDOW) {
            self.send_queries(pin, window)?;
            responses.extend(self.receive_queries(&mut stamp, window.len())?);
        }
        Ok(responses)
    }

    /// Puts one query frame per query in flight without reading a reply:
    /// [`Request::QueryAt`] pinned at `pin`, or [`Request::Query`]. Every
    /// query frame this client sends is built here.
    pub(crate) fn send_queries(
        &mut self,
        pin: Option<u64>,
        queries: &[Query],
    ) -> Result<(), ServiceError> {
        for query in queries {
            let query = query.clone();
            self.send(&match pin {
                Some(epoch) => Request::QueryAt { epoch, query },
                None => Request::Query(query),
            })?;
        }
        Ok(())
    }

    /// Reads the replies to `count` queries put in flight by
    /// [`ServiceClient::send_queries`], in order, each through
    /// [`ServiceClient::receive_query`] with the one `stamp`. After a typed
    /// error reply (or a wrong stamp) the rest of the replies are still
    /// read, so the connection stays aligned, and the first failure is
    /// returned; a failure that desyncs the connection is returned at once.
    pub(crate) fn receive_queries(
        &mut self,
        stamp: &mut Option<u64>,
        count: usize,
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        let mut responses = Vec::with_capacity(count);
        let mut failure = None;
        for _ in 0..count {
            match self.receive_query(stamp) {
                Ok((_, response)) => responses.push(response),
                Err(e) if self.desynced => return Err(e),
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        failure.map_or(Ok(responses), Err)
    }

    /// Reads one query reply, as every query reply is read, and returns it
    /// with its epoch stamp, which must equal `stamp` (or, while `stamp` is
    /// `None`, becomes it). Any other reply kind is unexpected.
    fn receive_query(
        &mut self,
        stamp: &mut Option<u64>,
    ) -> Result<(u64, QueryResponse), ServiceError> {
        match self.receive()? {
            Response::Query { epoch, response } => {
                check_served_epoch(*stamp.get_or_insert(epoch), epoch)?;
                Ok((epoch, response))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Asks which shard of a sharded deployment the service hosts.
    ///
    /// A standalone service answers with a typed
    /// [`ErrorCode::NotSharded`] error.
    pub fn shard_info(&mut self) -> Result<ShardInfo, ServiceError> {
        match self.call(&Request::ShardInfo)? {
            Response::ShardInfo(info) => Ok(info),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the owner-signed shard map the service currently publishes.
    ///
    /// The returned map is untrusted until verified against the owner's
    /// master key (and checked for rollback against any epoch the caller
    /// already holds) — see [`crate::verify_shard_map`].
    pub fn shard_map(&mut self) -> Result<SignedShardMap, ServiceError> {
        match self.call(&Request::ShardMap)? {
            Response::ShardMap(map) => Ok(map),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends one request frame without reading the response.
    ///
    /// Pair every `send` with exactly one [`ServiceClient::receive`], in
    /// order; the split exists so a caller can pipeline several requests on
    /// one connection, or put one in flight on every shard connection,
    /// before blocking on the first response. A failed write leaves the
    /// stream offset unknown, so it marks the connection desynced.
    pub fn send(&mut self, request: &Request) -> Result<(), ServiceError> {
        if self.desynced {
            return Err(desynced_error());
        }
        if let Err(e) = write_message(&mut self.stream, request) {
            self.desynced = true;
            return Err(e);
        }
        Ok(())
    }

    /// Reads one response frame for a previously [`ServiceClient::send`]-sent
    /// request, with the same desync bookkeeping as [`ServiceClient::call`].
    /// A failed read (timeout, I/O error, frame error) or a close leaves no
    /// way to pair a later frame with its request, so either marks the
    /// connection desynced.
    pub fn receive(&mut self) -> Result<Response, ServiceError> {
        if self.desynced {
            return Err(desynced_error());
        }
        let read = read_message::<Response>(&mut self.stream, self.max_frame_bytes);
        let response = read.and_then(|frame| {
            frame.ok_or_else(|| {
                ServiceError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "service closed the connection",
                ))
            })
        });
        self.desynced |= response.is_err();
        match response? {
            Response::Error(reply) => Err(self.remote_error(reply)),
            response => Ok(response),
        }
    }

    /// Sends one request frame and reads one response frame.
    ///
    /// After a failed response read (timeout or I/O error) — or a remote
    /// error reply after which the server closes the connection
    /// ([`ErrorCode::FrameTooLarge`], [`ErrorCode::Malformed`],
    /// [`ErrorCode::ShuttingDown`]) — the connection is marked desynced and
    /// every further call errors. Reconnect to recover.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.send(request)?;
        self.receive()
    }

    /// Turns a remote error reply into [`ServiceError::Remote`]. After a
    /// frame-level FrameTooLarge/Malformed reply (the stream offset is
    /// unknown) and after ShuttingDown the server closes the connection, so
    /// pairing another request with this socket would fail confusingly — or
    /// worse, mis-pair a late frame: such replies desync the connection and
    /// make the caller reconnect. (A Malformed reply to a well-framed but
    /// undecodable payload keeps the server-side connection; this client
    /// never produces such payloads, and desyncing is the safe conservative
    /// reading either way.)
    fn remote_error(&mut self, reply: vaq_wire::ErrorReply) -> ServiceError {
        self.desynced |= is_fatal_reply(reply.code);
        ServiceError::Remote(reply)
    }
}

/// Remote error codes after which the server closes the connection (or the
/// stream offset is unknown), so pairing another request with this socket
/// would fail confusingly — or worse, mis-pair a late frame.
fn is_fatal_reply(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::FrameTooLarge
            | ErrorCode::Malformed
            | ErrorCode::ShuttingDown
            | ErrorCode::Overloaded
            | ErrorCode::Stalled
    )
}

/// Rejects a reply whose envelope stamp disagrees with the epoch the request
/// was pinned to (shared with the sharded scatter-gather client). The stamp
/// is unauthenticated, so this is only a cheap early reject — a *forged*
/// stamp still fails verification, because the response's signatures bind
/// the real epoch.
pub(crate) fn check_served_epoch(pinned: u64, served: u64) -> Result<(), ServiceError> {
    if served != pinned {
        return Err(ServiceError::StaleEpoch {
            expected: pinned,
            got: served,
        });
    }
    Ok(())
}

fn desynced_error() -> ServiceError {
    ServiceError::Io(std::io::Error::new(
        std::io::ErrorKind::BrokenPipe,
        "connection desynced by an earlier failure; reconnect",
    ))
}

/// Maps a response of the wrong kind to a typed error.
fn unexpected(response: &Response) -> ServiceError {
    ServiceError::UnexpectedResponse(match response {
        Response::Pong => "pong",
        Response::Query { .. } => "query",
        Response::ShardInfo(_) => "shard-info",
        Response::ShardMap(_) => "shard-map",
        Response::Error(_) => "error",
        Response::StatsDeep(_) => "stats-deep",
    })
}

/// Converts a workload query spec into a protocol query.
pub fn spec_to_query(spec: &QuerySpec) -> Query {
    match spec {
        QuerySpec::TopK { weights, k } => Query::top_k(weights.clone(), *k),
        QuerySpec::Range {
            weights,
            lower,
            upper,
        } => Query::range(weights.clone(), *lower, *upper),
        QuerySpec::Knn { weights, k, target } => Query::knn(weights.clone(), *k, *target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_conversion_preserves_parameters() {
        let spec = QuerySpec::Range {
            weights: vec![0.25, 0.75],
            lower: 0.1,
            upper: 0.6,
        };
        let query = spec_to_query(&spec);
        assert_eq!(query, Query::range(vec![0.25, 0.75], 0.1, 0.6));
    }
}
