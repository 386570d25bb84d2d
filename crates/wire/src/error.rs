//! Wire-format errors.

/// Why a message could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// The frame does not start with the `VAQ1` magic.
    BadMagic,
    /// The frame's format version is not supported by this build.
    UnsupportedVersion(u16),
    /// A frame's payload length disagrees with the buffer, or a record's
    /// length with its arity.
    LengthMismatch {
        /// Length declared in the frame header or the record's prefix.
        declared: usize,
        /// Actual remaining bytes, or the bytes the record's arity needs.
        actual: usize,
    },
    /// A varint length spelled in more bytes than it needs, or past `u32`.
    NonCanonicalLength,
    /// Unframed decoding left unread bytes behind.
    TrailingBytes(usize),
    /// An enum tag byte had no corresponding variant (a `bool` flag is a
    /// two-variant tag: `0` or `1`).
    InvalidTag {
        /// Name of the type being decoded.
        type_name: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A declared collection length exceeds the sanity limit (protects
    /// against memory-exhaustion on malformed input).
    LengthLimitExceeded(usize),
    /// A string field did not contain valid UTF-8.
    InvalidUtf8,
    /// A floating-point field decoded to NaN where NaN is not meaningful.
    InvalidFloat,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "frame length mismatch: declared {declared}, actual {actual}"
                )
            }
            WireError::NonCanonicalLength => write!(f, "non-canonical varint length"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::InvalidTag { type_name, tag } => {
                write!(f, "invalid tag {tag} while decoding {type_name}")
            }
            WireError::LengthLimitExceeded(n) => {
                write!(f, "declared collection length {n} exceeds the sanity limit")
            }
            WireError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::InvalidFloat => write!(f, "invalid floating-point value"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::InvalidTag {
            type_name: "Query",
            tag: 9
        }
        .to_string()
        .contains("Query"));
        assert!(WireError::LengthMismatch {
            declared: 5,
            actual: 3
        }
        .to_string()
        .contains("5"));
    }
}
