//! Typed placement-service requests and their wire shape.
//!
//! Every request is one `sapsim.api/v1` envelope object — over HTTP as
//! a POST body, over the TCP fast path as one JSON line. The structs
//! are `#[non_exhaustive]` with chainable builders, so fields can be
//! added in `/v1` without breaking callers; the reader tolerates
//! unknown fields by default and rejects them in strict mode.
//!
//! Each struct declares its members once, in wire order, with
//! [`json_codec!`]; [`ApiRequest`] is tagged by `op`. The line codec
//! adds only the envelope: `schema` first, the strict unknown-field
//! check, and the map from codec errors to [`ProtocolError`]s.

use crate::error::ProtocolError;
use crate::json::{self, json_codec, TaggedJson, ToJson};
use crate::schema::SchemaId;
use std::fmt;
use std::str::FromStr;

/// Largest `count` accepted for a batched (Nova multi-create style)
/// placement.
pub const MAX_BATCH: u64 = 128;

/// The workload class of a placement request, deciding which
/// building-block purpose the scheduler may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmClass {
    /// Ordinary workloads on general-purpose (overcommitted) capacity.
    #[default]
    GeneralPurpose,
    /// SAP HANA: dedicated, non-overcommitted building blocks.
    Hana,
    /// CI farm batch capacity (falls back to general purpose when the
    /// estate has no CI-farm blocks).
    CiFarm,
}

impl VmClass {
    /// Every class, in wire-documentation order.
    pub(crate) const ALL: [VmClass; 3] = [VmClass::GeneralPurpose, VmClass::Hana, VmClass::CiFarm];

    /// The wire spelling.
    pub(crate) const fn as_str(self) -> &'static str {
        match self {
            VmClass::GeneralPurpose => "general-purpose",
            VmClass::Hana => "hana",
            VmClass::CiFarm => "ci-farm",
        }
    }
}

impl fmt::Display for VmClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for VmClass {
    type Err = ProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VmClass::ALL.into_iter().find(|class| class.as_str() == s).ok_or_else(|| {
            let names = VmClass::ALL.map(VmClass::as_str).join("|");
            ProtocolError::Invalid(format!("unknown class `{s}` (use {names})"))
        })
    }
}

json_codec!(str VmClass: as_str);

/// Place one VM — or `count` identical VMs, Nova multi-create style.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PlaceRequest {
    /// Optional client correlation id, echoed on the response.
    pub id: Option<String>,
    /// Virtual CPU cores per VM (must be ≥ 1).
    pub vcpus: u32,
    /// Memory per VM in MiB (must be ≥ 1).
    pub memory_mib: u64,
    /// Disk per VM in GiB.
    pub disk_gib: u64,
    /// Workload class.
    pub class: VmClass,
    /// Pin to an availability zone by name (e.g. `"az-a"`).
    pub az: Option<String>,
    /// How many identical VMs to place (1..=[`MAX_BATCH`]).
    pub count: u64,
    /// Expected lifetime in days, feeding the lifetime-aware weigher.
    pub lifetime_days: Option<f64>,
    /// Plan only: run on a snapshot fork and return a `txn` token for a
    /// later `commit`.
    pub dry_run: bool,
}

impl PlaceRequest {
    /// A single general-purpose placement of the given shape.
    pub fn new(vcpus: u32, memory_mib: u64) -> Self {
        PlaceRequest {
            id: None,
            vcpus,
            memory_mib,
            disk_gib: 0,
            class: VmClass::GeneralPurpose,
            az: None,
            count: 1,
            lifetime_days: None,
            dry_run: false,
        }
    }

    /// Set the per-VM disk size.
    pub fn with_disk_gib(mut self, gib: u64) -> Self {
        self.disk_gib = gib;
        self
    }

    /// Set the workload class.
    pub fn with_class(mut self, class: VmClass) -> Self {
        self.class = class;
        self
    }

    /// Pin the placement to an availability zone.
    pub fn in_az(mut self, az: impl Into<String>) -> Self {
        self.az = Some(az.into());
        self
    }

    /// Batch: place `count` identical VMs.
    pub fn with_count(mut self, count: u64) -> Self {
        self.count = count;
        self
    }
}

json_codec!(struct PlaceRequest {
    #[default] id: Option::is_none, vcpus, memory_mib, #[default] disk_gib, #[default] class,
    #[default] az: Option::is_none, #[default(1)] count,
    #[default] lifetime_days: Option::is_none, #[default] dry_run,
});

/// Resize an existing VM (in place when the host fits, otherwise a
/// migration through the full placement pipeline).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ResizeRequest {
    /// Optional client correlation id, echoed on the response.
    pub id: Option<String>,
    /// The VM to resize.
    pub vm: u64,
    /// New vCPU count (must be ≥ 1).
    pub vcpus: u32,
    /// New memory in MiB (must be ≥ 1).
    pub memory_mib: u64,
    /// New disk in GiB; `None` keeps the current allocation.
    pub disk_gib: Option<u64>,
    /// Plan only (see [`PlaceRequest::dry_run`]).
    pub dry_run: bool,
}

impl ResizeRequest {
    /// Resize `vm` to the given shape.
    pub fn new(vm: u64, vcpus: u32, memory_mib: u64) -> Self {
        ResizeRequest {
            id: None,
            vm,
            vcpus,
            memory_mib,
            disk_gib: None,
            dry_run: false,
        }
    }
}

json_codec!(struct ResizeRequest {
    #[default] id: Option::is_none, vm, vcpus, memory_mib,
    #[default] disk_gib: Option::is_none, #[default] dry_run,
});

/// Drain a compute node: mark it under maintenance and re-place every
/// resident VM through the scheduler (restart semantics).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EvacuateRequest {
    /// Optional client correlation id, echoed on the response.
    pub id: Option<String>,
    /// The node to drain, by topology name (e.g. `"bb-042-n003"`).
    pub node: String,
    /// Plan only (see [`PlaceRequest::dry_run`]).
    pub dry_run: bool,
}

impl EvacuateRequest {
    /// Evacuate the named node.
    pub fn new(node: impl Into<String>) -> Self {
        EvacuateRequest {
            id: None,
            node: node.into(),
            dry_run: false,
        }
    }
}

json_codec!(struct EvacuateRequest { #[default] id: Option::is_none, node, #[default] dry_run });

/// Apply a previously dry-run plan, if the engine state has not moved.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CommitRequest {
    /// Optional client correlation id, echoed on the response.
    pub id: Option<String>,
    /// The 16-hex-digit token a dry-run response returned.
    pub txn: String,
}

impl CommitRequest {
    /// Commit the plan identified by `txn`.
    pub fn new(txn: impl Into<String>) -> Self {
        CommitRequest {
            id: None,
            txn: txn.into(),
        }
    }
}

json_codec!(struct CommitRequest { #[default] id: Option::is_none, txn });

/// Read the engine's summary state (version, counts, canonical hash).
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct StateRequest {
    /// Optional client correlation id, echoed on the response.
    pub id: Option<String>,
}

impl StateRequest {
    /// A plain state query.
    pub fn new() -> Self {
        StateRequest::default()
    }
}

json_codec!(struct StateRequest { #[default] id: Option::is_none });

/// Ask the service to stop accepting requests and exit.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct ShutdownRequest {
    /// Optional client correlation id, echoed on the response.
    pub id: Option<String>,
}

impl ShutdownRequest {
    /// A shutdown request.
    pub fn new() -> Self {
        ShutdownRequest::default()
    }
}

json_codec!(struct ShutdownRequest { #[default] id: Option::is_none });

/// The builders every request shares: `with_id`, and `dry_run` for the
/// ops that can plan.
macro_rules! builders {
    ($($ty:ident $(+ $dry_run:ident)?),*) => {$(
        impl $ty {
            /// Set the client correlation id.
            pub fn with_id(mut self, id: impl Into<String>) -> Self {
                self.id = Some(id.into());
                self
            }
            $(
                /// Plan without mutating: the response carries a `txn`
                /// token to `commit`.
                pub fn $dry_run(mut self) -> Self {
                    self.dry_run = true;
                    self
                }
            )?
        }
    )*};
}

builders!(
    PlaceRequest + dry_run, ResizeRequest + dry_run, EvacuateRequest + dry_run,
    CommitRequest, StateRequest, ShutdownRequest
);

/// Any protocol request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ApiRequest {
    /// Place one VM or a batch.
    Place(PlaceRequest),
    /// Resize an existing VM.
    Resize(ResizeRequest),
    /// Drain a node.
    Evacuate(EvacuateRequest),
    /// Apply a dry-run plan.
    Commit(CommitRequest),
    /// Read engine state.
    State(StateRequest),
    /// Stop the service.
    Shutdown(ShutdownRequest),
}

json_codec!(enum ApiRequest: tag op {
    Place(PlaceRequest) = "place", Resize(ResizeRequest) = "resize",
    Evacuate(EvacuateRequest) = "evacuate", Commit(CommitRequest) = "commit",
    State(StateRequest) = "state", Shutdown(ShutdownRequest) = "shutdown",
});

/// A request is written as a whole `sapsim.api/v1` envelope.
impl ToJson for ApiRequest {
    fn write_json(&self, out: &mut String) {
        crate::envelope::write_api(self, out);
    }
}

impl ApiRequest {
    /// The wire `op` label.
    pub fn op(&self) -> &'static str {
        self.tag()
    }

    /// The client correlation id, if one was set.
    pub fn client_id(&self) -> Option<&str> {
        match self {
            ApiRequest::Place(r) => r.id.as_deref(),
            ApiRequest::Resize(r) => r.id.as_deref(),
            ApiRequest::Evacuate(r) => r.id.as_deref(),
            ApiRequest::Commit(r) => r.id.as_deref(),
            ApiRequest::State(r) => r.id.as_deref(),
            ApiRequest::Shutdown(r) => r.id.as_deref(),
        }
    }

    /// Semantic validation beyond shape: ranges, batch caps, token
    /// format. [`parse_line`](Self::parse_line) calls this; callers
    /// constructing requests with builders can run it themselves before
    /// dispatch.
    pub(crate) fn validate(&self) -> Result<(), ProtocolError> {
        let at_least_one = |vcpus: u32, memory_mib: u64| match (vcpus, memory_mib) {
            (0, _) => Err(ProtocolError::Invalid("vcpus must be at least 1".into())),
            (_, 0) => Err(ProtocolError::Invalid("memory_mib must be at least 1".into())),
            _ => Ok(()),
        };
        match self {
            ApiRequest::Place(r) => {
                at_least_one(r.vcpus, r.memory_mib)?;
                if r.count == 0 || r.count > MAX_BATCH {
                    return Err(ProtocolError::Invalid(format!(
                        "count must be in 1..={MAX_BATCH}, got {}",
                        r.count
                    )));
                }
                if let Some(days) = r.lifetime_days {
                    if !days.is_finite() || days <= 0.0 {
                        return Err(ProtocolError::Invalid(format!(
                            "lifetime_days must be positive and finite, got {days}"
                        )));
                    }
                }
            }
            ApiRequest::Resize(r) => at_least_one(r.vcpus, r.memory_mib)?,
            ApiRequest::Evacuate(r) => {
                if r.node.is_empty() {
                    return Err(ProtocolError::Invalid("node must be non-empty".into()));
                }
            }
            ApiRequest::Commit(r) => {
                if r.txn.len() != 16 || !r.txn.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(ProtocolError::Invalid(format!(
                        "txn must be 16 hex digits, got `{}`",
                        r.txn
                    )));
                }
            }
            ApiRequest::State(_) | ApiRequest::Shutdown(_) => {}
        }
        Ok(())
    }

    /// Serialize as one canonical envelope line (no trailing newline).
    /// Field order is fixed and defaults are spelled out, so equal
    /// requests produce equal bytes — the dry-run transaction token
    /// hashes these bytes.
    pub fn to_json_line(&self) -> String {
        self.to_json_string()
    }

    /// Decode one envelope line (or HTTP body).
    ///
    /// Unknown fields are ignored unless `strict` is set, in which case
    /// they are a [`ProtocolError::UnknownField`]. Shape errors (bad
    /// JSON, missing/mistyped fields, an unknown `op`) are
    /// [`Malformed`](ProtocolError::Malformed); an unrecognized
    /// `schema` is [`UnknownSchema`](ProtocolError::UnknownSchema);
    /// out-of-range values and semantic violations are
    /// [`Invalid`](ProtocolError::Invalid).
    pub fn parse_line(text: &str, strict: bool) -> Result<ApiRequest, ProtocolError> {
        let value =
            json::parse(text).map_err(|e| ProtocolError::Malformed(format!("bad JSON: {e}")))?;
        let pairs = value
            .as_obj()
            .ok_or_else(|| ProtocolError::Malformed("request must be a JSON object".into()))?;
        crate::envelope::expect_schema(json::member_str(&value, "schema")?, SchemaId::ApiV1)?;
        let op = json::member_str(&value, "op")?;
        // Every op carries `id`, so a mistyped one is reported first.
        json::optional::<String>(&value, "id")?;
        let members = ApiRequest::members_for(op)
            .map_err(|e| ProtocolError::Malformed(e.to_string()))?;
        if strict {
            if let Some(key) = json::unknown_key(pairs, &[&["schema", "op"], members].concat()) {
                let message = format!("unknown field `{key}` for op `{op}`");
                return Err(ProtocolError::UnknownField(message));
            }
        }
        let request = ApiRequest::from_members(&value)?;
        request.validate()?;
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_round_trips_through_the_codec() {
        let requests = vec![
            ApiRequest::Place(PlaceRequest {
                lifetime_days: Some(30.5),
                ..PlaceRequest::new(4, 32_768)
                    .with_id("r1")
                    .with_disk_gib(100)
                    .with_class(VmClass::Hana)
                    .in_az("az-a")
                    .with_count(3)
                    .dry_run()
            }),
            ApiRequest::Place(PlaceRequest::new(1, 1024)),
            ApiRequest::Resize(
                ResizeRequest {
                    disk_gib: Some(50),
                    ..ResizeRequest::new(7, 8, 65_536)
                }
                .dry_run(),
            ),
            ApiRequest::Resize(ResizeRequest::new(0, 2, 2048).with_id("r2")),
            ApiRequest::Evacuate(EvacuateRequest::new("bb-000-n001").with_id("r3").dry_run()),
            ApiRequest::Commit(CommitRequest::new("0123456789abcdef")),
            ApiRequest::State(StateRequest::new().with_id("q")),
            ApiRequest::Shutdown(ShutdownRequest::new()),
        ];
        for req in requests {
            let line = req.to_json_line();
            assert!(line.starts_with("{\"schema\":\"sapsim.api/v1\",\"op\":"), "{line}");
            let back = ApiRequest::parse_line(&line, true).expect("round trip");
            assert_eq!(back, req, "line: {line}");
            // Canonical: emit(parse(emit(x))) == emit(x).
            assert_eq!(back.to_json_line(), line);
        }
    }

    #[test]
    fn defaults_are_applied_on_read() {
        let req = ApiRequest::parse_line(
            r#"{"schema":"sapsim.api/v1","op":"place","vcpus":2,"memory_mib":4096}"#,
            true,
        )
        .unwrap();
        let ApiRequest::Place(p) = &req else { panic!() };
        assert_eq!(p.disk_gib, 0);
        assert_eq!(p.class, VmClass::GeneralPurpose);
        assert_eq!(p.count, 1);
        assert_eq!(p.lifetime_days, None);
        assert!(!p.dry_run);
    }

    #[test]
    fn shape_errors_are_malformed() {
        let cases = [
            ("{not json", "bad JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"op":"state"}"#, "missing field `schema`"),
            (r#"{"schema":"sapsim.api/v1"}"#, "missing field `op`"),
            (
                r#"{"schema":"sapsim.api/v1","op":"nope"}"#,
                "unknown op `nope`",
            ),
            (
                r#"{"schema":"sapsim.api/v1","op":"place","vcpus":"four","memory_mib":1}"#,
                "field `vcpus` must be a non-negative integer",
            ),
            (
                r#"{"schema":"sapsim.api/v1","op":"place","memory_mib":1}"#,
                "missing field `vcpus`",
            ),
        ];
        for (line, needle) in cases {
            let err = ApiRequest::parse_line(line, false).unwrap_err();
            assert_eq!(err.code(), "bad-request", "line: {line}");
            assert!(err.to_string().contains(needle), "{err} !~ {needle}");
        }
    }

    #[test]
    fn schema_mismatch_is_unknown_schema() {
        let err = ApiRequest::parse_line(
            r#"{"schema":"sapsim.api/v2","op":"state"}"#,
            false,
        )
        .unwrap_err();
        assert_eq!(err.code(), "unknown-schema");
        assert_eq!(
            err.to_string(),
            "unsupported schema `sapsim.api/v2` (expected `sapsim.api/v1`)"
        );
    }

    #[test]
    fn unknown_fields_tolerated_lenient_rejected_strict() {
        let line = r#"{"schema":"sapsim.api/v1","op":"state","future_flag":true}"#;
        assert!(ApiRequest::parse_line(line, false).is_ok());
        let err = ApiRequest::parse_line(line, true).unwrap_err();
        assert_eq!(err.code(), "unknown-field");
        assert_eq!(err.to_string(), "unknown field `future_flag` for op `state`");
    }

    #[test]
    fn semantic_violations_are_invalid() {
        let cases = [
            r#"{"schema":"sapsim.api/v1","op":"place","vcpus":0,"memory_mib":1}"#,
            r#"{"schema":"sapsim.api/v1","op":"place","vcpus":1,"memory_mib":0}"#,
            r#"{"schema":"sapsim.api/v1","op":"place","vcpus":1,"memory_mib":1,"count":0}"#,
            r#"{"schema":"sapsim.api/v1","op":"place","vcpus":1,"memory_mib":1,"count":129}"#,
            r#"{"schema":"sapsim.api/v1","op":"place","vcpus":1,"memory_mib":1,"lifetime_days":-1}"#,
            r#"{"schema":"sapsim.api/v1","op":"place","vcpus":1,"memory_mib":1,"class":"mystery"}"#,
            r#"{"schema":"sapsim.api/v1","op":"resize","vm":1,"vcpus":0,"memory_mib":1}"#,
            r#"{"schema":"sapsim.api/v1","op":"evacuate","node":""}"#,
            r#"{"schema":"sapsim.api/v1","op":"commit","txn":"xyz"}"#,
            r#"{"schema":"sapsim.api/v1","op":"commit","txn":"0123456789abcdeg"}"#,
        ];
        for line in cases {
            let err = ApiRequest::parse_line(line, false).unwrap_err();
            assert_eq!(err.code(), "invalid-request", "line: {line}");
        }
    }

    #[test]
    fn vm_class_round_trips() {
        for class in [VmClass::GeneralPurpose, VmClass::Hana, VmClass::CiFarm] {
            assert_eq!(class.to_string().parse::<VmClass>().unwrap(), class);
        }
        assert!("spicy".parse::<VmClass>().is_err());
    }
}
