//! Dataset input/output.
//!
//! The published SAP Cloud Infrastructure dataset (Zenodo
//! 10.5281/zenodo.17141306) is "anonymized telemetry data in CSV format"
//! (paper Appendix B), with metadata "consistently hashed or removed"
//! (Appendix A). This module implements that interchange format for the
//! simulator:
//!
//! * [`TraceWriter`] — export a recorded [`TsdbStore`](sapsim_telemetry::TsdbStore) to CSV using the
//!   exact Table 4 metric names, one sample per row.
//! * [`TraceReader`] — stream a CSV trace back into a `TsdbStore`, so the
//!   figure/table pipelines of this crate can run unchanged on the
//!   real dataset once it is dropped in.
//! * `Anonymizer` — the consistent (salted) hashing applied to entity
//!   names on export.
//!
//! They live in the crate-private `reader`, `writer` and `anonymize`
//! modules; this module is their public face.
//!
//! The CSV schema is one row per sample:
//!
//! ```csv
//! timestamp_ms,metric,entity,value
//! 300000,vrops_hostsystem_cpu_contention_percentage,node-42,1.25
//! ```

pub use crate::reader::TraceReader;
pub use crate::writer::TraceWriter;

/// The CSV header line shared by writer and reader.
pub const CSV_HEADER: &str = "timestamp_ms,metric,entity,value";
