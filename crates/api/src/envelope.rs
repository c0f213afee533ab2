//! The envelope writer: every versioned JSON line starts
//! `{"schema":"<id>",...}` and there is exactly one place that spells
//! that out.
//!
//! Emitters that encode a whole record (run summaries, sweep reports:
//! field order is part of their golden contract) route the finished line
//! through [`checked_line`], which asserts the envelope prefix against
//! the registry. Field-by-field emitters build the line here directly
//! with [`object_line`] / [`metrics_line`]; the placement-service
//! messages write `schema` and then their tagged members.

use crate::error::ProtocolError;
use crate::json::{self, ObjectWriter, TaggedJson};
use crate::schema::SchemaId;
use sapsim_obs::MetricsRegistry;

/// The opening bytes of every line carrying `schema`:
/// `{"schema":"<id>"`.
pub fn line_prefix(schema: SchemaId) -> String {
    let mut out = String::with_capacity(16 + schema.as_str().len());
    out.push_str("{\"schema\":");
    json::push_str(&mut out, schema.as_str());
    out
}

/// Wrap pre-rendered body fields (without braces, e.g.
/// `"counters":[...]`) into a complete envelope line.
pub fn object_line(schema: SchemaId, fields: &str) -> String {
    let mut out = line_prefix(schema);
    if !fields.is_empty() {
        out.push(',');
        out.push_str(fields);
    }
    out.push('}');
    out
}

/// Verify that `line` (produced by an external serializer) opens with
/// the registered envelope for `schema`, then pass it through.
///
/// # Panics
///
/// Panics if the prefix does not match — an emitter producing a line
/// whose schema field disagrees with the registry is a programming
/// error, not an input error.
pub fn checked_line(schema: SchemaId, line: String) -> String {
    let prefix = line_prefix(schema);
    assert!(
        line.starts_with(&prefix),
        "emitter produced a line that does not open with the `{schema}` envelope"
    );
    line
}

/// Append `message` as a `sapsim.api/v1` envelope object: `schema`
/// first, then the `op` tag and the variant's members.
pub(crate) fn write_api<T: TaggedJson>(message: &T, out: &mut String) {
    let mut object = ObjectWriter::new(out);
    object.field("schema", SchemaId::ApiV1.as_str());
    message.write_members(&mut object);
    object.end();
}

/// Render a metrics registry as its `sapsim.metrics/v1` envelope line —
/// byte-identical to [`MetricsRegistry::to_json`], but spelled through
/// the registry so the schema id has one owner.
pub fn metrics_line(registry: &MetricsRegistry) -> String {
    object_line(SchemaId::MetricsV1, &registry.fields_json())
}

/// Check a decoded `schema` field against the expected id.
pub fn expect_schema(found: &str, want: SchemaId) -> Result<(), ProtocolError> {
    if found == want.as_str() {
        Ok(())
    } else {
        Err(ProtocolError::UnknownSchema(format!(
            "unsupported schema `{found}` (expected `{want}`)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_line_matches_the_registry_serializer() {
        let mut reg = MetricsRegistry::new();
        reg.counter("requests", 3);
        reg.gauge("load", 0.5);
        reg.observe("latency_us", 120);
        assert_eq!(metrics_line(&reg), reg.to_json());

        let empty = MetricsRegistry::new();
        assert_eq!(
            metrics_line(&empty),
            "{\"schema\":\"sapsim.metrics/v1\",\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
    }

    #[test]
    fn object_line_handles_empty_bodies() {
        assert_eq!(
            object_line(SchemaId::ApiV1, ""),
            "{\"schema\":\"sapsim.api/v1\"}"
        );
        assert_eq!(
            object_line(SchemaId::ApiV1, "\"op\":\"state\""),
            "{\"schema\":\"sapsim.api/v1\",\"op\":\"state\"}"
        );
    }

    #[test]
    fn checked_line_accepts_matching_and_rejects_mismatched() {
        let ok = checked_line(
            SchemaId::RunSummaryV1,
            "{\"schema\":\"sapsim.run-summary/v1\",\"x\":1}".to_string(),
        );
        assert!(ok.contains("run-summary"));
        let r = std::panic::catch_unwind(|| {
            checked_line(
                SchemaId::RunSummaryV1,
                "{\"schema\":\"sapsim.metrics/v1\"}".to_string(),
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn expect_schema_formats_the_legacy_message() {
        assert!(expect_schema("sapsim.api/v1", SchemaId::ApiV1).is_ok());
        let err = expect_schema("bogus/v0", SchemaId::RunSummaryV1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported schema `bogus/v0` (expected `sapsim.run-summary/v1`)"
        );
    }
}
