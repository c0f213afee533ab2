//! Deterministic snapshot/restore of a simulation in flight.
//!
//! A [`SimSnapshot`] is the full mutable state of a run at one instant:
//! the cloud's occupancy and accounting, the pending-event set with its
//! original seq numbers, the execution counters, the driver's stats and
//! pending-evacuation queue, every per-VM usage summary, and the TSDB
//! tables. Everything that is a pure function of the config — topology,
//! workload, RNG-derived assignment streams, the fault plan — is *not*
//! captured; a restore re-derives it bit-for-bit from the carried config
//! (every RNG stream is a stateless lineage split of the seed, so
//! derivation order is irrelevant).
//!
//! # File format (`sapsim.snapshot/v1`)
//!
//! Two JSON lines:
//!
//! 1. a header `{"schema":"sapsim.snapshot/v1","canonical_hash":"…"}`
//!    where `canonical_hash` is the FNV-1a-64 digest of the body line
//!    (16 lowercase hex digits) — the witness that the state survived
//!    the trip intact;
//! 2. the serialized snapshot state, newline-terminated.
//!
//! Truncation, schema drift, and tampering all surface as typed
//! [`SimError::Snapshot`] values — never a panic.

use crate::cloud::CloudState;
use crate::config::SimConfig;
use crate::driver::{Event, PendingEvac};
use crate::error::SimError;
use crate::result::{DriverStats, VmUsageSummary};
use crate::scenario::fnv1a_64;
use sapsim_faults::FaultSpec;
use sapsim_json::{decode, json_codec, ToJson};
use sapsim_sim::{SimTime, SimulationStats};
use sapsim_telemetry::TsdbStore;

/// Schema identifier on the first line of every snapshot file. Bump the
/// version when the serialized state changes shape; old readers reject
/// new files by name instead of misparsing them.
pub const SNAPSHOT_SCHEMA: &str = "sapsim.snapshot/v1";

/// First line of the file format: schema name plus the witness hash of
/// the body line.
#[derive(Debug)]
struct SnapshotHeader {
    schema: String,
    canonical_hash: String,
}

json_codec!(struct SnapshotHeader { schema, canonical_hash });

/// A simulation captured mid-flight, resumable via
/// [`SimDriver::resume`](crate::SimDriver::resume).
///
/// Snapshots are produced by
/// [`SimDriver::snapshot_at`](crate::SimDriver::snapshot_at) /
/// [`run_with_snapshot`](crate::SimDriver::run_with_snapshot), travel as
/// files through [`to_file_string`](Self::to_file_string) /
/// [`from_file_str`](Self::from_file_str). A snapshot is immutable:
/// every resume deep-copies its tables, so one snapshot can seed any
/// number of independent continuations.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    pub(crate) config: SimConfig,
    pub(crate) now: SimTime,
    pub(crate) sim_stats: SimulationStats,
    pub(crate) next_seq: u64,
    pub(crate) events: Vec<(SimTime, u64, Event)>,
    pub(crate) init_scheduled: u64,
    pub(crate) cloud: CloudState,
    pub(crate) stats: DriverStats,
    pub(crate) vm_stats: Vec<VmUsageSummary>,
    pub(crate) store: TsdbStore,
    pub(crate) pending: Vec<PendingEvac>,
    pub(crate) region_placed: Vec<u64>,
    pub(crate) region_departed: Vec<u64>,
}

json_codec!(struct SimSnapshot {
    config, now, sim_stats, next_seq, events, init_scheduled, cloud, stats, vm_stats, store,
    pending, region_placed, region_departed,
});

impl SimSnapshot {
    /// The configuration the snapshot was captured under. A resume runs
    /// this exact config.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The capture instant on the warmup-inclusive timeline.
    pub fn at(&self) -> SimTime {
        self.now
    }

    /// Serialize to the two-line `sapsim.snapshot/v1` file format.
    pub fn to_file_string(&self) -> String {
        let body = self.to_json_string();
        let header = SnapshotHeader {
            schema: SNAPSHOT_SCHEMA.to_string(),
            canonical_hash: format!("{:016x}", fnv1a_64(body.as_bytes())),
        }
        .to_json_string();
        format!("{header}\n{body}\n")
    }

    /// Parse the two-line file format, verifying schema and witness hash
    /// before touching the body. Every failure mode — missing body,
    /// unparseable header, schema drift, hash mismatch, malformed state —
    /// is a typed [`SimError::Snapshot`].
    pub fn from_file_str(text: &str) -> Result<SimSnapshot, SimError> {
        let Some((header_line, rest)) = text.split_once('\n') else {
            return Err(SimError::Snapshot(
                "truncated snapshot: missing body".into(),
            ));
        };
        let header: SnapshotHeader = decode(header_line)
            .map_err(|e| SimError::Snapshot(format!("malformed snapshot header: {e}")))?;
        if header.schema != SNAPSHOT_SCHEMA {
            return Err(SimError::Snapshot(format!(
                "unsupported snapshot schema `{}` (this build reads {SNAPSHOT_SCHEMA})",
                header.schema
            )));
        }
        let body = rest.strip_suffix('\n').unwrap_or(rest);
        if body.is_empty() {
            return Err(SimError::Snapshot(
                "truncated snapshot: missing body".into(),
            ));
        }
        let actual = format!("{:016x}", fnv1a_64(body.as_bytes()));
        if actual != header.canonical_hash {
            return Err(SimError::Snapshot(format!(
                "canonical_hash mismatch: header says {}, body hashes to {actual}",
                header.canonical_hash
            )));
        }
        decode(body).map_err(|e| SimError::Snapshot(format!("malformed snapshot body: {e}")))
    }

    /// Enforce the fault-restatement rule for resuming from a file: a
    /// snapshot taken under fault injection must be resumed with the
    /// *same* spec restated (`None` means the caller gave no spec). This
    /// keeps a fault-injected capture from being silently replayed as if
    /// it were a clean run, or under a different fault regime than the
    /// one already baked into its scheduled events.
    pub fn verify_fault_spec(&self, given: Option<&FaultSpec>) -> Result<(), SimError> {
        match given {
            None if self.config.faults.is_none() => Ok(()),
            None => Err(SimError::Snapshot(
                "snapshot carries a fault spec; restate --faults to resume".into(),
            )),
            Some(spec) if *spec == self.config.faults => Ok(()),
            Some(_) => Err(SimError::Snapshot(
                "the given fault spec does not match the one the snapshot was taken under".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, SimDriver};
    use sapsim_sim::MILLIS_PER_DAY;

    fn snap() -> SimSnapshot {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 41;
        cfg.days = 1;
        SimDriver::new(cfg)
            .unwrap()
            .snapshot_at(SimTime::from_millis(MILLIS_PER_DAY / 2))
            .unwrap()
    }

    #[test]
    fn file_round_trip_preserves_state() {
        let s = snap();
        let text = s.to_file_string();
        assert!(
            text.starts_with("{\"schema\":\"sapsim.snapshot/v1\",\"canonical_hash\":\""),
            "header leads the file: {}",
            text.lines().next().unwrap()
        );
        let back = SimSnapshot::from_file_str(&text).unwrap();
        assert_eq!(back.now, s.now);
        assert_eq!(back.next_seq, s.next_seq);
        assert_eq!(back.events, s.events);
        // Nothing the serializer can see changed across the round trip.
        assert_eq!(
            back.to_json_string(),
            s.to_json_string()
        );
    }

    #[test]
    fn truncated_files_are_typed_errors() {
        let text = snap().to_file_string();
        // Header with no newline (and so no body) at all.
        let header_only = text.split_once('\n').unwrap().0;
        let err = SimSnapshot::from_file_str(header_only).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        // Header plus newline, empty body.
        let err = SimSnapshot::from_file_str(&format!("{header_only}\n")).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Body cut mid-JSON: the witness hash catches it before parsing.
        let cut = &text[..text.len() - text.len() / 3];
        let err = SimSnapshot::from_file_str(cut).unwrap_err();
        assert!(err.to_string().contains("canonical_hash mismatch"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected_by_name() {
        let text = snap().to_file_string();
        let tampered = text.replacen("sapsim.snapshot/v1", "sapsim.snapshot/v0", 1);
        let err = SimSnapshot::from_file_str(&tampered).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("sapsim.snapshot/v0"), "{err}");
    }

    #[test]
    fn tampered_hash_is_rejected() {
        let text = snap().to_file_string();
        let (header_line, rest) = text.split_once('\n').unwrap();
        let mut header: SnapshotHeader = decode(header_line).unwrap();
        header.canonical_hash = "0000000000000000".into();
        let tampered = format!("{}\n{rest}", header.to_json_string());
        let err = SimSnapshot::from_file_str(&tampered).unwrap_err();
        assert!(err.to_string().contains("canonical_hash mismatch"), "{err}");
    }

    #[test]
    fn fault_spec_restatement_rules() {
        let plain = snap();
        assert!(plain.verify_fault_spec(None).is_ok());
        assert!(plain.verify_fault_spec(Some(&FaultSpec::none())).is_ok());
        let other = FaultSpec {
            host_fail_rate_per_month: 1.0,
            ..FaultSpec::none()
        };
        assert!(plain.verify_fault_spec(Some(&other)).is_err());

        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 42;
        cfg.days = 1;
        cfg.faults = FaultSpec {
            host_fail_rate_per_month: 10.0,
            ..FaultSpec::none()
        };
        let faulted = SimDriver::new(cfg)
            .unwrap()
            .snapshot_at(SimTime::ZERO)
            .unwrap();
        let err = faulted.verify_fault_spec(None).unwrap_err();
        assert!(err.to_string().contains("restate --faults"), "{err}");
        assert!(faulted.verify_fault_spec(Some(&cfg.faults)).is_ok());
        assert!(faulted.verify_fault_spec(Some(&FaultSpec::none())).is_err());
    }
}
