//! The envelope writer: every versioned JSON line starts
//! `{"schema":"<id>",...}` and there is exactly one place that spells
//! that out.
//!
//! Emitters that encode a whole record (run summaries, sweep reports:
//! field order is part of their golden contract) route the finished line
//! through [`checked_line`], which asserts the envelope prefix against
//! the registry; the placement-service messages write `schema` and then
//! their tagged members. The `sapsim.metrics/v1` line is written and read
//! by `MetricsRegistry` itself, which owns that schema id.

use crate::error::ProtocolError;
use crate::json::{ObjectWriter, TaggedJson, ToJson};
use crate::schema::SchemaId;

/// Verify that `line` (produced by an external serializer) opens with
/// the registered envelope for `schema`, then pass it through.
///
/// # Panics
///
/// Panics if the prefix does not match — an emitter producing a line
/// whose schema field disagrees with the registry is a programming
/// error, not an input error.
pub fn checked_line(schema: SchemaId, line: String) -> String {
    let prefix = format!("{{\"schema\":{}", schema.as_str().to_json_string());
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
