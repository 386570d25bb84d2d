//! Error type shared by the service client and server.

use vaq_authquery::VerifyError;
use vaq_wire::{ErrorReply, WireError};

/// Why a service operation failed.
#[derive(Debug)]
pub enum ServiceError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A frame or message could not be encoded/decoded.
    Wire(WireError),
    /// The peer sent a frame larger than the configured limit.
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// The server answered with a typed error reply.
    Remote(ErrorReply),
    /// The server answered with a response of the wrong kind.
    UnexpectedResponse(&'static str),
    /// A remote response failed client-side cryptographic verification.
    Verification(VerifyError),
    /// The shard map (or a shard's handshake against it) failed validation:
    /// bad master signature, wrong shard count, or a shard reporting an
    /// identity that contradicts the attested map.
    ShardMap(String),
    /// One shard of a scatter-gather query failed — connection down, remote
    /// error reply, or a per-shard verification failure. A sharded query
    /// never silently drops a shard's contribution: the whole query fails
    /// with this typed error instead.
    ShardFailed {
        /// Which shard failed.
        shard_id: u32,
        /// What went wrong on that shard.
        error: Box<ServiceError>,
    },
    /// An epoch mismatch the client detected locally: a response stamped
    /// with a different publication epoch than the verified map promises, or
    /// an offered signed map that would roll the client back to an older
    /// (superseded) publication. Server-side epoch rejections arrive as
    /// [`ServiceError::Remote`] with [`vaq_wire::ErrorCode::StaleEpoch`];
    /// use [`ServiceError::is_stale_epoch`] to catch both.
    StaleEpoch {
        /// The epoch the client expects (from its verified publication).
        expected: u64,
        /// The epoch actually offered or served.
        got: u64,
    },
    /// The peer stopped sending mid-frame for longer than the patience
    /// window. The stream offset is stuck inside a frame, so the connection
    /// is unusable; reconnect to recover. The server-side twin is a typed
    /// [`vaq_wire::ErrorCode::Stalled`] reply.
    Stalled {
        /// How long the reader waited without a byte of progress.
        patience: std::time::Duration,
    },
}

impl ServiceError {
    /// True when this error (or the per-shard error it wraps) reports an
    /// epoch mismatch — locally detected or served as a typed remote
    /// [`vaq_wire::ErrorCode::StaleEpoch`] reply. Callers react by
    /// re-fetching the signed shard map and retrying at the new epoch.
    pub fn is_stale_epoch(&self) -> bool {
        match self {
            ServiceError::StaleEpoch { .. } => true,
            ServiceError::Remote(reply) => reply.code == vaq_wire::ErrorCode::StaleEpoch,
            ServiceError::ShardFailed { error, .. } => error.is_stale_epoch(),
            _ => false,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "socket error: {e}"),
            ServiceError::Wire(e) => write!(f, "wire error: {e}"),
            ServiceError::FrameTooLarge { declared, limit } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            ServiceError::Remote(reply) => {
                write!(f, "server error ({:?}): {}", reply.code, reply.message)
            }
            ServiceError::UnexpectedResponse(kind) => {
                write!(f, "unexpected response kind: {kind}")
            }
            ServiceError::Verification(e) => write!(f, "verification failed: {e}"),
            ServiceError::ShardMap(reason) => write!(f, "shard map rejected: {reason}"),
            ServiceError::ShardFailed { shard_id, error } => {
                write!(f, "shard {shard_id} failed: {error}")
            }
            ServiceError::StaleEpoch { expected, got } => {
                write!(
                    f,
                    "stale epoch: expected publication epoch {expected}, got {got}; \
                     re-fetch the signed shard map"
                )
            }
            ServiceError::Stalled { patience } => {
                write!(f, "peer stalled mid-frame for over {patience:?}; reconnect")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

impl From<VerifyError> for ServiceError {
    fn from(e: VerifyError) -> Self {
        ServiceError::Verification(e)
    }
}
