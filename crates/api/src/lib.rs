//! # sapsim-api — the versioned wire contract
//!
//! One crate owns every schema the workspace speaks: the
//! [`SchemaId`] registry, the envelope writer ([`envelope`]), the typed
//! placement-service requests/responses ([`ApiRequest`], [`ApiResponse`]),
//! and the [`ProtocolError`] taxonomy whose variants project onto HTTP
//! statuses and CLI exit codes from a single table.
//!
//! The crate is deliberately dependency-light (only the metrics
//! registry and the JSON codec), so external clients of `sapsim serve`
//! can embed it without dragging in the simulator. All JSON is read and
//! written by the workspace codec, re-exported as [`json`] —
//! deterministic bytes in, canonical bytes out.
//!
//! Versioning rules (the full contract lives in
//! `docs/api-versioning.md`):
//!
//! * Fields are **add-only** within `/v1`; readers tolerate unknown
//!   fields unless strict mode is requested.
//! * Renaming/removing a field, changing a type, or changing the
//!   meaning of an existing field requires a new schema id (`/v2`).
//! * Every request and response struct is `#[non_exhaustive]` with
//!   builders, so the Rust surface can grow with the wire surface.

pub mod envelope;
mod error;
pub use sapsim_json as json;
mod request;
mod response;
mod schema;

pub use error::ProtocolError;
pub use request::{
    ApiRequest, CommitRequest, EvacuateRequest, PlaceRequest, ResizeRequest, ShutdownRequest,
    StateRequest, VmClass, MAX_BATCH,
};
pub use response::{
    ApiResponse, CommitResponse, EvacuateResponse, Moved, PlaceResponse, Placement, ResizeOutcome,
    ResizeResponse, ShutdownResponse, StateResponse,
};
pub use schema::SchemaId;

/// The 64-bit FNV-1a hash the protocol uses for transaction tokens
/// (same function the core crate uses for canonical state hashes).
pub(crate) use sapsim_json::fnv1a_64;

/// Derive the dry-run transaction token for `request` planned at engine
/// `version`: 16 hex digits over the canonical request bytes, salted
/// with the version so the same plan at a later state is a different
/// token.
pub fn txn_token(version: u64, request: &ApiRequest) -> String {
    let line = request.to_json_line();
    let hash = fnv1a_64(format!("{version}:{line}").as_bytes());
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_tokens_differ_by_version_and_request() {
        let a = ApiRequest::Place(PlaceRequest::new(2, 2048).dry_run());
        let b = ApiRequest::Place(PlaceRequest::new(4, 2048).dry_run());
        assert_eq!(txn_token(1, &a), txn_token(1, &a));
        assert_ne!(txn_token(1, &a), txn_token(2, &a));
        assert_ne!(txn_token(1, &a), txn_token(1, &b));
        let token = txn_token(1, &a);
        assert_eq!(token.len(), 16);
        assert!(token.bytes().all(|c| c.is_ascii_hexdigit()));
    }
}
