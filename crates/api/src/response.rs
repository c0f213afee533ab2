//! Typed placement-service responses and their wire shape.
//!
//! Responses mirror requests: one `sapsim.api/v1` envelope object per
//! answer, fixed field order, `#[non_exhaustive]` structs built through
//! chainable constructors so the service (a different crate) can
//! assemble them without freezing the field set.
//!
//! Each struct declares its members once with [`json_codec!`], in wire
//! order; [`ApiResponse`] is tagged by `op`. A commit nests the applied
//! operation's full envelope, so [`ApiResponse`] encodes and decodes as
//! an envelope wherever it appears.

use crate::error::ProtocolError;
use crate::json::{self, json_codec, DecodeError, FromJson, JsonValue, TaggedJson, ToJson};
use crate::schema::SchemaId;
use std::fmt;
use std::str::FromStr;

/// One successfully placed VM inside a [`PlaceResponse`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement {
    /// The VM id the engine assigned.
    pub vm: u64,
    /// Hosting node, by topology name.
    pub node: String,
    /// The node's building block.
    pub bb: String,
    /// The node's availability zone.
    pub az: String,
    /// Fragmentation retries the greedy walk needed before this VM fit.
    pub retries: u64,
}

/// One VM of a batch that could not be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceFailure {
    /// Zero-based index into the requested batch.
    pub(crate) index: u64,
    /// `"no-candidate"` (no host passed the filters) or `"fragmented"`
    /// (hosts ranked but none could actually fit the VM).
    pub(crate) reason: String,
}

json_codec!(struct Placement { vm, node, bb, az, #[default] retries });
json_codec!(struct PlaceFailure { index, reason });

/// One migration inside an [`EvacuateResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Moved {
    /// The VM that moved.
    pub vm: u64,
    /// Its new node.
    pub node: String,
}

json_codec!(struct Moved { vm, node });

/// Answer to a `place` request.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct PlaceResponse {
    /// Echo of the request id.
    pub(crate) id: Option<String>,
    /// Whether this was a plan (`dry_run`) or a live mutation.
    pub dry_run: bool,
    /// The commit token (dry-run only).
    pub txn: Option<String>,
    /// Engine version: the base version for a dry-run plan, the version
    /// after the mutation for a live request.
    pub version: u64,
    /// Successfully placed VMs, in batch order.
    pub placed: Vec<Placement>,
    /// Batch slots that could not be placed.
    pub failed: Vec<PlaceFailure>,
}

impl PlaceResponse {
    /// A response at the given engine version.
    pub fn new(version: u64) -> Self {
        PlaceResponse {
            version,
            ..PlaceResponse::default()
        }
    }

    /// Append one placement.
    pub fn push_placed(&mut self, placement: Placement) {
        self.placed.push(placement);
    }

    /// Append one failed batch slot.
    pub fn push_failed(&mut self, index: u64, reason: &str) {
        self.failed.push(PlaceFailure {
            index,
            reason: reason.to_string(),
        });
    }
}

json_codec!(struct PlaceResponse {
    #[default] id: Option::is_none, #[default] dry_run, #[default] txn: Option::is_none,
    version, placed, failed,
});

/// How a `resize` was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeOutcome {
    /// The current host absorbed the new shape.
    InPlace,
    /// The VM moved to a new host through the placement pipeline.
    Migrated,
    /// No host (old or new) could take the new shape; state unchanged.
    Failed,
}

impl ResizeOutcome {
    /// Every outcome.
    pub(crate) const ALL: [Self; 3] = [Self::InPlace, Self::Migrated, Self::Failed];

    /// The wire spelling.
    pub(crate) const fn as_str(self) -> &'static str {
        match self {
            ResizeOutcome::InPlace => "in-place",
            ResizeOutcome::Migrated => "migrated",
            ResizeOutcome::Failed => "failed",
        }
    }
}

impl fmt::Display for ResizeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ResizeOutcome {
    type Err = ProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let found = ResizeOutcome::ALL.into_iter().find(|o| o.as_str() == s);
        found.ok_or_else(|| ProtocolError::Malformed(format!("unknown resize outcome `{s}`")))
    }
}

json_codec!(str ResizeOutcome: as_str);

/// Answer to a `resize` request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ResizeResponse {
    /// Echo of the request id.
    pub(crate) id: Option<String>,
    /// Whether this was a plan or a live mutation.
    pub dry_run: bool,
    /// The commit token (dry-run only).
    pub txn: Option<String>,
    /// Engine version (see [`PlaceResponse::version`]).
    pub version: u64,
    /// The VM that was resized.
    pub vm: u64,
    /// How the resize was satisfied.
    pub outcome: ResizeOutcome,
    /// The hosting node after the operation (absent when it failed).
    pub node: Option<String>,
}

impl ResizeResponse {
    /// A response for `vm` with the given outcome.
    pub fn new(version: u64, vm: u64, outcome: ResizeOutcome) -> Self {
        ResizeResponse {
            id: None,
            dry_run: false,
            txn: None,
            version,
            vm,
            outcome,
            node: None,
        }
    }

    /// Record the hosting node after the operation.
    pub fn on_node(mut self, node: impl Into<String>) -> Self {
        self.node = Some(node.into());
        self
    }
}

json_codec!(struct ResizeResponse {
    #[default] id: Option::is_none, #[default] dry_run, #[default] txn: Option::is_none,
    version, vm, outcome, #[default] node: Option::is_none,
});

/// Answer to an `evacuate` request.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct EvacuateResponse {
    /// Echo of the request id.
    pub(crate) id: Option<String>,
    /// Whether this was a plan or a live mutation.
    pub dry_run: bool,
    /// The commit token (dry-run only).
    pub txn: Option<String>,
    /// Engine version (see [`PlaceResponse::version`]).
    pub version: u64,
    /// The drained node.
    pub node: String,
    /// Every VM that found a new host, in eviction order.
    pub moved: Vec<Moved>,
    /// VMs no host could absorb (terminated by the drain).
    pub lost: Vec<u64>,
}

impl EvacuateResponse {
    /// A response for draining `node`.
    pub fn new(version: u64, node: impl Into<String>) -> Self {
        EvacuateResponse {
            version,
            node: node.into(),
            ..EvacuateResponse::default()
        }
    }
}

json_codec!(struct EvacuateResponse {
    #[default] id: Option::is_none, #[default] dry_run, #[default] txn: Option::is_none,
    version, node, moved, lost,
});

/// Answer to a `commit` request: the replayed operation's own response,
/// wrapped with the consumed token.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CommitResponse {
    /// Echo of the request id.
    pub(crate) id: Option<String>,
    /// The token that was consumed.
    pub txn: String,
    /// The live response of the replayed operation.
    pub applied: Box<ApiResponse>,
}

impl CommitResponse {
    /// A commit that applied `applied` under `txn`.
    pub fn new(txn: impl Into<String>, applied: ApiResponse) -> Self {
        CommitResponse {
            id: None,
            txn: txn.into(),
            applied: Box::new(applied),
        }
    }
}

json_codec!(struct CommitResponse { #[default] id: Option::is_none, txn, applied });

/// Answer to a `state` request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StateResponse {
    /// Echo of the request id.
    pub(crate) id: Option<String>,
    /// Engine version (bumps once per applied mutation).
    pub version: u64,
    /// Live VM count.
    pub(crate) vms: u64,
    /// Total compute nodes in the estate.
    pub(crate) nodes: u64,
    /// Nodes currently in the `Active` state.
    pub(crate) active_nodes: u64,
    /// 16-hex-digit canonical hash of the full cloud state.
    pub hash: String,
}

impl StateResponse {
    /// A state snapshot.
    pub fn new(version: u64, vms: u64, nodes: u64, active_nodes: u64, hash: String) -> Self {
        StateResponse {
            id: None,
            version,
            vms,
            nodes,
            active_nodes,
            hash,
        }
    }
}

json_codec!(struct StateResponse {
    #[default] id: Option::is_none, version, vms, nodes, active_nodes, hash,
});

/// Answer to a `shutdown` request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShutdownResponse {
    /// Echo of the request id.
    pub id: Option<String>,
    /// Always `true`; the connection closes after this line.
    pub ok: bool,
}

impl ShutdownResponse {
    /// An acknowledged shutdown.
    pub fn new() -> Self {
        ShutdownResponse { id: None, ok: true }
    }
}

impl Default for ShutdownResponse {
    fn default() -> Self {
        ShutdownResponse::new()
    }
}

json_codec!(struct ShutdownResponse { #[default] id: Option::is_none, ok });

/// The builders every response shares: `with_id`, and `as_dry_run` for
/// the answers to ops that can plan.
macro_rules! builders {
    ($($ty:ident $(+ $as_dry_run:ident)?),*) => {$(
        impl $ty {
            /// Echo the request id.
            pub fn with_id(mut self, id: Option<String>) -> Self {
                self.id = id;
                self
            }
            $(
                /// Mark as a dry-run plan carrying a commit token.
                pub fn $as_dry_run(mut self, txn: String) -> Self {
                    self.dry_run = true;
                    self.txn = Some(txn);
                    self
                }
            )?
        }
    )*};
}

builders!(
    PlaceResponse + as_dry_run, ResizeResponse + as_dry_run, EvacuateResponse + as_dry_run,
    CommitResponse, StateResponse, ShutdownResponse
);

/// A protocol failure on the wire (see [`ProtocolError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ErrorResponse {
    /// Echo of the request id, when the request parsed far enough to
    /// recover one.
    pub(crate) id: Option<String>,
    /// Stable kebab-case code ([`ProtocolError::code`]).
    pub code: String,
    /// The HTTP status this failure maps onto.
    pub status: u16,
    /// Human-readable detail.
    pub error: String,
}

json_codec!(struct ErrorResponse { #[default] id: Option::is_none, code, status, error });

/// Any protocol response.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ApiResponse {
    /// Answer to `place`.
    Place(PlaceResponse),
    /// Answer to `resize`.
    Resize(ResizeResponse),
    /// Answer to `evacuate`.
    Evacuate(EvacuateResponse),
    /// Answer to `commit`.
    Commit(CommitResponse),
    /// Answer to `state`.
    State(StateResponse),
    /// Answer to `shutdown`.
    Shutdown(ShutdownResponse),
    /// A protocol failure.
    Error(ErrorResponse),
}

json_codec!(enum ApiResponse: tag op {
    Place(PlaceResponse) = "place", Resize(ResizeResponse) = "resize",
    Evacuate(EvacuateResponse) = "evacuate", Commit(CommitResponse) = "commit",
    State(StateResponse) = "state", Shutdown(ShutdownResponse) = "shutdown",
    Error(ErrorResponse) = "error",
});

/// A response is always a whole envelope, nested in a commit too.
impl ToJson for ApiResponse {
    fn write_json(&self, out: &mut String) {
        crate::envelope::write_api(self, out);
    }
}

/// A nested envelope ([`CommitResponse::applied`]) must name `/v1` too.
impl FromJson for ApiResponse {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        let schema = json::member_str(value, "schema")?;
        if schema != SchemaId::ApiV1.as_str() {
            let known = vec![SchemaId::ApiV1.as_str()];
            return Err(DecodeError::unknown_name(schema, known).at("schema"));
        }
        ApiResponse::from_members(value)
    }
}

impl ApiResponse {
    /// Build the wire form of a [`ProtocolError`], echoing the request
    /// id when one was recovered before the failure.
    pub fn from_error(err: &ProtocolError, id: Option<String>) -> ApiResponse {
        ApiResponse::Error(ErrorResponse {
            id,
            code: err.code().to_string(),
            status: err.http_status(),
            error: err.to_string(),
        })
    }

    /// The HTTP status for this response: the error's mapped status, or
    /// `200` for every success.
    pub fn http_status(&self) -> u16 {
        match self {
            ApiResponse::Error(e) => e.status,
            _ => 200,
        }
    }

    /// Serialize as one envelope line (no trailing newline); fixed
    /// field order, so equal responses are equal bytes.
    pub fn to_json_line(&self) -> String {
        self.to_json_string()
    }

    /// Decode one response line. Unknown fields are always tolerated
    /// (responses flow server→client; a newer server may say more).
    pub fn parse_line(text: &str) -> Result<ApiResponse, ProtocolError> {
        let value =
            json::parse(text).map_err(|e| ProtocolError::Malformed(format!("bad JSON: {e}")))?;
        let bad = |e: DecodeError| ProtocolError::Malformed(format!("bad response: {e}"));
        let schema = json::member_str(&value, "schema").map_err(bad)?;
        crate::envelope::expect_schema(schema, SchemaId::ApiV1)?;
        ApiResponse::from_members(&value).map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_response_round_trips_through_the_codec() {
        let mut place = PlaceResponse::new(7).with_id(Some("r1".into()));
        place.push_placed(Placement {
            vm: 12,
            node: "bb-000-n001".into(),
            bb: "bb-000".into(),
            az: "az-a".into(),
            retries: 2,
        });
        place.push_failed(1, "no-candidate");
        let dry =
            PlaceResponse::new(3).as_dry_run("00000000000000ff".into());
        let mut evac = EvacuateResponse::new(9, "bb-001-n000");
        evac.moved.push(Moved {
            vm: 4,
            node: "bb-001-n001".into(),
        });
        evac.lost.push(5);
        let responses = vec![
            ApiResponse::Place(place),
            ApiResponse::Place(dry),
            ApiResponse::Resize(
                ResizeResponse::new(4, 7, ResizeOutcome::Migrated).on_node("bb-000-n002"),
            ),
            ApiResponse::Resize(ResizeResponse::new(4, 7, ResizeOutcome::Failed)),
            ApiResponse::Evacuate(evac),
            ApiResponse::Commit(CommitResponse::new(
                "0123456789abcdef",
                ApiResponse::Resize(ResizeResponse::new(5, 7, ResizeOutcome::InPlace)),
            )),
            ApiResponse::State(StateResponse::new(
                11,
                100,
                1823,
                1820,
                "00ff00ff00ff00ff".into(),
            )),
            ApiResponse::Shutdown(ShutdownResponse::new().with_id(Some("bye".into()))),
            ApiResponse::from_error(
                &ProtocolError::Conflict("state moved".into()),
                Some("r9".into()),
            ),
        ];
        for resp in responses {
            let line = resp.to_json_line();
            assert!(line.starts_with("{\"schema\":\"sapsim.api/v1\",\"op\":"), "{line}");
            let back = ApiResponse::parse_line(&line).expect("round trip");
            assert_eq!(back, resp, "line: {line}");
            assert_eq!(back.to_json_line(), line);
        }
    }

    #[test]
    fn error_responses_carry_the_three_projections() {
        for err in ProtocolError::samples() {
            let resp = ApiResponse::from_error(&err, None);
            assert_eq!(resp.http_status(), err.http_status());
            let line = resp.to_json_line();
            assert!(line.contains(&format!("\"code\":\"{}\"", err.code())), "{line}");
        }
    }

    #[test]
    fn resize_outcome_round_trips() {
        for o in [
            ResizeOutcome::InPlace,
            ResizeOutcome::Migrated,
            ResizeOutcome::Failed,
        ] {
            assert_eq!(o.to_string().parse::<ResizeOutcome>().unwrap(), o);
        }
        assert!("sideways".parse::<ResizeOutcome>().is_err());
    }

    #[test]
    fn success_status_is_200() {
        assert_eq!(
            ApiResponse::State(StateResponse::new(0, 0, 0, 0, "0".into())).http_status(),
            200
        );
    }
}
