//! Blocking client for the VAQ1 query service.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use vaq_authquery::{client, Query, QueryResponse, VerifiedResult, VerifyScratch};
use vaq_crypto::Verifier;
use vaq_funcdb::FunctionTemplate;
use vaq_wire::{epoch, ErrorCode, Request, Response, ShardInfo, SignedShardMap, StatsDeep};
use vaq_workload::QuerySpec;

use crate::error::ServiceError;
use crate::frame::{read_message, write_message};

/// Default frame-size limit accepted by a client.
const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// A blocking connection to a [`crate::QueryService`].
///
/// One connection carries any number of requests, answered in order. The
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
    /// Next correlation tag handed out by [`ServiceClient::send_tagged`].
    next_tag: u64,
    /// Tags sent but not yet received. A tagged response must carry one of
    /// these, or the server is answering a request this client never made.
    pending_tags: HashSet<u64>,
    /// Responses that arrived while waiting for a *different* tag, parked
    /// until their own [`ServiceClient::receive_tagged`] asks for them.
    parked: HashMap<u64, Response>,
    /// Reusable verification scratch: repeated `query_verified` calls on one
    /// connection share the leaf-digest buffer instead of reallocating it.
    verify_scratch: VerifyScratch,
    /// Highest publication epoch [`ServiceClient::query_verified`] has
    /// verified an answer at on this connection — its rollback anchor.
    verified_epoch: u64,
}

impl ServiceClient {
    fn over(stream: TcpStream) -> ServiceClient {
        ServiceClient {
            stream,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            desynced: false,
            next_tag: 0,
            pending_tags: HashSet::new(),
            parked: HashMap::new(),
            verify_scratch: VerifyScratch::default(),
            verified_epoch: 0,
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

    /// Sends one query and returns the raw (unverified) response.
    pub fn query(&mut self, query: &Query) -> Result<QueryResponse, ServiceError> {
        self.query_with_epoch(query).map(|(_, response)| response)
    }

    /// Sends one query and returns the raw (unverified) response together
    /// with the publication epoch the service served it at.
    ///
    /// The envelope stamp is unauthenticated; verify the response with
    /// [`vaq_authquery::verify_at_epoch`] at the epoch the owner's attested
    /// publication promises — the signatures bind it.
    pub fn query_with_epoch(
        &mut self,
        query: &Query,
    ) -> Result<(u64, QueryResponse), ServiceError> {
        match self.call(&Request::Query(query.clone()))? {
            Response::Query { epoch, response } => Ok((epoch, response)),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends one query pinned to a publication epoch.
    ///
    /// The service answers only while it serves exactly `epoch`; otherwise
    /// it replies with a typed [`ErrorCode::StaleEpoch`] error (surfaced as
    /// [`ServiceError::Remote`] — check [`ServiceError::is_stale_epoch`]),
    /// which keeps the connection usable: re-fetch the signed shard map and
    /// retry at the new epoch.
    pub fn query_at(&mut self, epoch: u64, query: &Query) -> Result<QueryResponse, ServiceError> {
        match self.call(&Request::QueryAt {
            epoch,
            query: query.clone(),
        })? {
            Response::Query {
                epoch: served,
                response,
            } => check_served_epoch(epoch, served).map(|()| response),
            other => Err(unexpected(&other)),
        }
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
    /// should pin it with [`ServiceClient::query_at`] instead.
    pub fn query_verified(
        &mut self,
        query: &Query,
        template: &FunctionTemplate,
        verifier: &dyn Verifier,
    ) -> Result<(QueryResponse, VerifiedResult), ServiceError> {
        let (stamped, response) = self.query_with_epoch(query)?;
        if epoch::rolls_back(self.verified_epoch, stamped) {
            return Err(ServiceError::StaleEpoch {
                expected: self.verified_epoch,
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
        self.verified_epoch = stamped;
        Ok((response, verified))
    }

    /// Sends a batch of queries, answered in order.
    ///
    /// A reply whose answer count disagrees with the query count is rejected
    /// with a typed [`ServiceError::BatchArity`] error: zipping a short (or
    /// long) reply against the queries would silently misattribute answers.
    /// The connection stays usable — exactly one frame answered the batch.
    pub fn batch(&mut self, queries: &[Query]) -> Result<Vec<QueryResponse>, ServiceError> {
        match self.call(&Request::Batch(queries.to_vec()))? {
            Response::Batch { responses, .. } => {
                check_batch_arity(queries.len(), &responses)?;
                Ok(responses)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Sends a batch of queries pinned to a publication epoch, mirroring
    /// [`ServiceClient::query_at`].
    ///
    /// The service answers only while it serves exactly `epoch`; otherwise
    /// it replies with a typed [`ErrorCode::StaleEpoch`] error (surfaced as
    /// [`ServiceError::Remote`] — check [`ServiceError::is_stale_epoch`]),
    /// which keeps the connection usable: re-fetch the signed shard map and
    /// retry at the new epoch. Arity mismatches are rejected like
    /// [`ServiceClient::batch`].
    pub fn batch_at(
        &mut self,
        epoch: u64,
        queries: &[Query],
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        match self.call(&Request::BatchAt {
            epoch,
            queries: queries.to_vec(),
        })? {
            Response::Batch {
                epoch: served,
                responses,
            } => {
                check_served_epoch(epoch, served)?;
                check_batch_arity(queries.len(), &responses)?;
                Ok(responses)
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
    /// Pair every `send` with exactly one [`ServiceClient::receive`]; the
    /// split exists so a scatter-gather front-end can put one request in
    /// flight on every shard connection before blocking on the first
    /// response. A failed write leaves the stream offset unknown, so it
    /// marks the connection desynced.
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
    pub fn receive(&mut self) -> Result<Response, ServiceError> {
        if self.desynced {
            return Err(desynced_error());
        }
        match self.read_response()? {
            Response::Error(reply) => Err(self.remote_error(reply)),
            response => Ok(response),
        }
    }

    /// Reads one response frame off the stream. A failed read (timeout, I/O
    /// error, frame error) or a close leaves no way to pair a later frame
    /// with its request, so either marks the connection desynced.
    fn read_response(&mut self) -> Result<Response, ServiceError> {
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
        response
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

    /// Sends one request wrapped in a tagged VAQ1 envelope and returns the
    /// correlation tag, without reading the response.
    ///
    /// Tagged requests pipeline: any number may be in flight on one
    /// connection, and the service may answer them **out of order** (tagged
    /// responses carry the tag back). Pair every `send_tagged` with exactly
    /// one [`ServiceClient::receive_tagged`] for the returned tag. `request`
    /// must not itself be a [`Request::Tagged`] envelope — the protocol
    /// rejects nesting. A failed write leaves the stream offset unknown, so
    /// it marks the connection desynced.
    pub fn send_tagged(&mut self, request: &Request) -> Result<u64, ServiceError> {
        let tag = self.next_tag;
        self.send(&Request::Tagged {
            tag,
            request: Box::new(request.clone()),
        })?;
        self.next_tag = self.next_tag.wrapping_add(1);
        self.pending_tags.insert(tag);
        Ok(tag)
    }

    /// Reads the response for one previously [`ServiceClient::send_tagged`]
    /// request, identified by its correlation tag.
    ///
    /// Responses for *other* in-flight tags that arrive first are parked and
    /// handed out when their own `receive_tagged` asks for them, so callers
    /// may collect tags in any order. Asking for a tag that was never sent
    /// (or already received) fails with [`ServiceError::UnknownTag`] without
    /// touching the stream. A response carrying a tag this client never sent
    /// desyncs the connection ([`ServiceError::UnknownTag`]), as does a
    /// second response for an already-parked tag
    /// ([`ServiceError::DuplicateTag`]) — both mean the correlation state no
    /// longer matches the peer's.
    pub fn receive_tagged(&mut self, tag: u64) -> Result<Response, ServiceError> {
        if self.desynced {
            return Err(desynced_error());
        }
        if !self.pending_tags.contains(&tag) {
            // Caller bug (bad tag), not a stream fault: the connection is
            // still perfectly paired, so don't desync it.
            return Err(ServiceError::UnknownTag { tag });
        }
        if let Some(parked) = self.parked.remove(&tag) {
            self.pending_tags.remove(&tag);
            return self.open_inner(parked);
        }
        loop {
            match self.read_response()? {
                Response::Tagged { tag: got, response } => {
                    if got == tag {
                        self.pending_tags.remove(&tag);
                        return self.open_inner(*response);
                    }
                    if !self.pending_tags.contains(&got) {
                        // The server answered a request this client never
                        // made; every subsequent pairing is suspect.
                        self.desynced = true;
                        return Err(ServiceError::UnknownTag { tag: got });
                    }
                    if self.parked.insert(got, *response).is_some() {
                        self.desynced = true;
                        return Err(ServiceError::DuplicateTag { tag: got });
                    }
                }
                // An untagged error while tagged requests are in flight is
                // frame-level (the server could not attribute it to a
                // request): Malformed, FrameTooLarge, Stalled, Overloaded,
                // ShuttingDown. The server closes after these, so the
                // in-flight tags will never be answered.
                Response::Error(reply) => return Err(self.remote_error(reply)),
                other => {
                    // An untagged success reply cannot belong to any tagged
                    // request — the pairing is broken.
                    self.desynced = true;
                    return Err(unexpected(&other));
                }
            }
        }
    }

    /// Unwraps the inner response of a tagged envelope, surfacing remote
    /// error replies exactly like [`ServiceClient::receive`] does.
    fn open_inner(&mut self, response: Response) -> Result<Response, ServiceError> {
        match response {
            Response::Error(reply) => Err(self.remote_error(reply)),
            Response::Tagged { .. } => {
                // The protocol rejects nested envelopes at decode, so a
                // nested tag here means the peer is not speaking VAQ1.
                self.desynced = true;
                Err(unexpected(&response))
            }
            other => Ok(other),
        }
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

/// Rejects a batch reply whose answer count disagrees with the query count
/// (shared with the sharded scatter-gather client).
pub(crate) fn check_batch_arity(
    expected: usize,
    responses: &[QueryResponse],
) -> Result<(), ServiceError> {
    if responses.len() != expected {
        return Err(ServiceError::BatchArity {
            expected,
            got: responses.len(),
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

/// Maps a response of the wrong kind to a typed error (shared with the
/// sharded scatter-gather client).
pub(crate) fn unexpected(response: &Response) -> ServiceError {
    ServiceError::UnexpectedResponse(match response {
        Response::Pong => "pong",
        Response::Query { .. } => "query",
        Response::Batch { .. } => "batch",
        Response::ShardInfo(_) => "shard-info",
        Response::ShardMap(_) => "shard-map",
        Response::Error(_) => "error",
        Response::StatsDeep(_) => "stats-deep",
        Response::Tagged { .. } => "tagged",
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
