//! The protocol error taxonomy.
//!
//! Every failure the placement service can hand back is one of these
//! variants, and each variant owns three stable projections:
//!
//! * a kebab-case [`code`](ProtocolError::code) string on the wire,
//! * an HTTP [`status`](ProtocolError::http_status) for the HTTP/1.1
//!   front end,
//! * a process [`exit code`](ProtocolError::exit_code) matching the
//!   CLI's `CliError` classes, so a scripted client fails the same way
//!   an offline invocation would.
//!
//! The full table lives in `docs/api-versioning.md`; a conformance test
//! keeps the two in sync.

use crate::json::DecodeError;
use std::fmt;

/// A protocol-level failure, serialized as an `"op":"error"` envelope.
///
/// Marked `#[non_exhaustive]`: new failure classes may appear in minor
/// releases; match with a wildcard arm and branch on
/// [`code`](ProtocolError::code) for forward compatibility.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The body was not a valid protocol message: bad JSON, a non-object
    /// envelope, a missing/mistyped required field.
    Malformed(String),
    /// The envelope named a schema this endpoint does not speak.
    UnknownSchema(String),
    /// Strict mode only: the message carried a field this version does
    /// not define. (Lenient mode ignores unknown fields by design.)
    UnknownField(String),
    /// The request referenced an entity — VM, node, availability zone,
    /// transaction token, or URL path — that does not exist.
    NotFound(String),
    /// The HTTP method is not valid for the path (e.g. `GET` on
    /// `/v1/request`).
    MethodNotAllowed(String),
    /// The message parsed but describes an impossible operation (zero
    /// vCPUs, batch larger than the cap, non-positive lifetime, ...).
    Invalid(String),
    /// Optimistic concurrency failure: the engine state advanced between
    /// `dry_run` and `commit`, so the prepared plan is stale.
    Conflict(String),
    /// The body (or header section) exceeded the configured size cap.
    TooLarge {
        /// Configured maximum in bytes.
        limit: usize,
        /// What the client tried to send (as declared or observed).
        got: usize,
    },
    /// The peer fed bytes too slowly (slow-loris) or stalled mid-body.
    Timeout(String),
    /// The service itself failed; the body carries no internal detail
    /// beyond this message.
    Internal(String),
}

impl ProtocolError {
    /// The stable kebab-case discriminator written to the wire.
    pub const fn code(&self) -> &'static str {
        match self {
            ProtocolError::Malformed(_) => "bad-request",
            ProtocolError::UnknownSchema(_) => "unknown-schema",
            ProtocolError::UnknownField(_) => "unknown-field",
            ProtocolError::NotFound(_) => "not-found",
            ProtocolError::MethodNotAllowed(_) => "method-not-allowed",
            ProtocolError::Invalid(_) => "invalid-request",
            ProtocolError::Conflict(_) => "conflict",
            ProtocolError::TooLarge { .. } => "too-large",
            ProtocolError::Timeout(_) => "timeout",
            ProtocolError::Internal(_) => "internal",
        }
    }

    /// The HTTP status the HTTP front end answers with.
    pub const fn http_status(&self) -> u16 {
        match self {
            ProtocolError::Malformed(_) => 400,
            ProtocolError::UnknownSchema(_) => 400,
            ProtocolError::UnknownField(_) => 400,
            ProtocolError::NotFound(_) => 404,
            ProtocolError::MethodNotAllowed(_) => 405,
            ProtocolError::Invalid(_) => 422,
            ProtocolError::Conflict(_) => 409,
            ProtocolError::TooLarge { .. } => 413,
            ProtocolError::Timeout(_) => 408,
            ProtocolError::Internal(_) => 500,
        }
    }

    /// The process exit code a CLI client maps this failure onto —
    /// the same classes `CliError` uses: `2` usage, `3` configuration,
    /// `4` I/O, `5` malformed data.
    pub const fn exit_code(&self) -> i32 {
        match self {
            ProtocolError::Malformed(_)
            | ProtocolError::UnknownSchema(_)
            | ProtocolError::UnknownField(_)
            | ProtocolError::NotFound(_)
            | ProtocolError::TooLarge { .. } => 5,
            ProtocolError::MethodNotAllowed(_) => 2,
            ProtocolError::Invalid(_) | ProtocolError::Conflict(_) => 3,
            ProtocolError::Timeout(_) | ProtocolError::Internal(_) => 4,
        }
    }

    /// One representative of every variant, in wire-code order — the
    /// conformance suite iterates this to prove the whole taxonomy is
    /// exercised and documented.
    pub fn samples() -> Vec<ProtocolError> {
        vec![
            ProtocolError::Malformed("sample".into()),
            ProtocolError::UnknownSchema("sample".into()),
            ProtocolError::UnknownField("sample".into()),
            ProtocolError::NotFound("sample".into()),
            ProtocolError::MethodNotAllowed("sample".into()),
            ProtocolError::Invalid("sample".into()),
            ProtocolError::Conflict("sample".into()),
            ProtocolError::TooLarge { limit: 1, got: 2 },
            ProtocolError::Timeout("sample".into()),
            ProtocolError::Internal("sample".into()),
        ]
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Malformed(msg)
            | ProtocolError::UnknownSchema(msg)
            | ProtocolError::UnknownField(msg)
            | ProtocolError::NotFound(msg)
            | ProtocolError::MethodNotAllowed(msg)
            | ProtocolError::Invalid(msg)
            | ProtocolError::Conflict(msg)
            | ProtocolError::Timeout(msg)
            | ProtocolError::Internal(msg) => f.write_str(msg),
            ProtocolError::TooLarge { limit, got } => {
                write!(f, "body of {got} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A value outside its range or set is [`Invalid`](ProtocolError::Invalid);
/// a shape error is [`Malformed`](ProtocolError::Malformed).
impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        if e.is_value_error() {
            ProtocolError::Invalid(e.to_string())
        } else {
            ProtocolError::Malformed(e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_projections_are_pinned() {
        let table: Vec<(&str, u16, i32)> = ProtocolError::samples()
            .iter()
            .map(|e| (e.code(), e.http_status(), e.exit_code()))
            .collect();
        assert_eq!(
            table,
            vec![
                ("bad-request", 400, 5),
                ("unknown-schema", 400, 5),
                ("unknown-field", 400, 5),
                ("not-found", 404, 5),
                ("method-not-allowed", 405, 2),
                ("invalid-request", 422, 3),
                ("conflict", 409, 3),
                ("too-large", 413, 5),
                ("timeout", 408, 4),
                ("internal", 500, 4),
            ]
        );
    }

    #[test]
    fn samples_cover_every_code_exactly_once() {
        let mut codes: Vec<_> = ProtocolError::samples().iter().map(|e| e.code()).collect();
        let len = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), len, "duplicate code in samples");
        assert_eq!(len, 10);
    }

    #[test]
    fn too_large_formats_both_numbers() {
        let e = ProtocolError::TooLarge { limit: 64, got: 128 };
        assert_eq!(e.to_string(), "body of 128 bytes exceeds the 64-byte limit");
    }
}
