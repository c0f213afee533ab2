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
//!
//! # Forking (`refault`)
//!
//! A warm-started sweep runs one fault-free base prefix to the end of
//! warm-up, snapshots it, and then [`SimSnapshot::refault`]s the capture
//! once per fault branch: the branch's fault plan is re-drawn from its
//! own lineage-split stream and its failure/recovery events are spliced
//! into the event queue at exactly the seq numbers a cold build of the
//! branch would have used. The resumed branch is byte-identical to the
//! cold branch run — the differential suite pins this.

use crate::cloud::CloudState;
use crate::config::SimConfig;
use crate::driver::{Event, PendingEvac};
use crate::error::SimError;
use crate::result::{DriverStats, VmUsageSummary};
use crate::scenario::fnv1a_64;
use sapsim_faults::{FaultPlan, FaultSpec};
use sapsim_json::{decode, json_codec, ToJson};
use sapsim_sim::{SimRng, SimTime, SimulationStats};
use sapsim_telemetry::TsdbStore;
use sapsim_topology::NodeId;

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
/// [`from_file_str`](Self::from_file_str), and fork into fault branches
/// through [`refault`](Self::refault). A snapshot is immutable: every
/// resume deep-copies its tables, so one snapshot can seed any number of
/// independent continuations.
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
    /// this exact config; execution-only knobs (host-view oracle, queue
    /// backend) are free to differ because they are byte-identical by
    /// contract and excluded from serialization.
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

    /// Fork a fault-free, end-of-warm-up capture into a fault branch:
    /// returns a new snapshot that resumes exactly like a cold run of
    /// `branch` would continue from the same instant.
    ///
    /// Sound because the fault plan draws from its own lineage-split RNG
    /// stream (enabling faults reshuffles nothing else), host failures
    /// land strictly after warm-up, and dropouts only suppress recording
    /// (off during warm-up) — so the fault-free warm-up prefix is shared
    /// verbatim. Stragglers are the exception: they degrade every scrape
    /// including warm-up, so straggler branches cannot fork and are
    /// rejected here.
    ///
    /// `branch` must be identical to the snapshot's config except for the
    /// fault spec. The branch's failure/recovery events are spliced in at
    /// the seq numbers a cold build would have assigned (immediately
    /// after the base build's own events), with every handler-scheduled
    /// seq shifted up to make room — relative order is untouched, so the
    /// replay is bit-identical.
    pub fn refault(&self, branch: &SimConfig) -> Result<SimSnapshot, SimError> {
        branch.validate()?;
        if !self.config.faults.is_none() {
            return Err(SimError::Snapshot(
                "fork base must be fault-free: this snapshot was taken under a fault spec".into(),
            ));
        }
        if branch.faults.straggler_fraction > 0.0 {
            return Err(SimError::Snapshot(
                "cannot fork a straggler branch: stragglers degrade warm-up scrapes, so the \
                 shared prefix would differ from a cold run"
                    .into(),
            ));
        }
        let warmup = SimTime::from_days(self.config.warmup_days);
        if self.config.warmup_days == 0 || self.now != warmup {
            return Err(SimError::Snapshot(format!(
                "fault forks attach at the end of warm-up (day {}); this snapshot sits at {}",
                self.config.warmup_days, self.now
            )));
        }
        // Same run in every respect but the fault spec: compare the
        // configs with both specs zeroed. The serialized form also drops
        // execution-only knobs, which are byte-identical by contract.
        let mut branch_base = *branch;
        branch_base.faults = FaultSpec::none();
        if self.config.to_json_string() != branch_base.to_json_string() {
            return Err(SimError::Snapshot(
                "fork branch config differs from the snapshot beyond the fault spec".into(),
            ));
        }

        let horizon = SimTime::from_days(branch.warmup_days + branch.days);
        let plan = FaultPlan::generate(
            &branch.faults,
            self.cloud.node_states.len(),
            warmup,
            horizon,
            &SimRng::seed_from(branch.seed),
        );
        let k = self.init_scheduled;
        let n_inject: u64 = plan
            .host_failures
            .iter()
            .map(|hf| 1 + hf.recover_at.is_some() as u64)
            .sum();
        let mut events: Vec<(SimTime, u64, Event)> = self
            .events
            .iter()
            .map(|&(t, seq, ev)| (t, if seq < k { seq } else { seq + n_inject }, ev))
            .collect();
        let mut seq = k;
        for hf in &plan.host_failures {
            let node = NodeId::from_raw(hf.node);
            events.push((hf.at, seq, Event::HostFail(node)));
            seq += 1;
            if let Some(t) = hf.recover_at {
                events.push((t, seq, Event::HostRecover(node)));
                seq += 1;
            }
        }
        let mut sim_stats = self.sim_stats;
        sim_stats.scheduled += n_inject;
        let mut stats = self.stats;
        stats.faults.straggler_nodes = plan.straggler_count() as u64;
        stats.faults.dropout_windows = plan.dropout_window_count() as u64;
        Ok(SimSnapshot {
            config: *branch,
            now: self.now,
            sim_stats,
            next_seq: self.next_seq + n_inject,
            events,
            init_scheduled: k + n_inject,
            cloud: self.cloud.clone(),
            stats,
            vm_stats: self.vm_stats.clone(),
            store: self.store.clone(),
            pending: self.pending.clone(),
            region_placed: self.region_placed.clone(),
            region_departed: self.region_departed.clone(),
        })
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

    #[test]
    fn refault_guards_its_preconditions() {
        // Mid-run snapshot with no warm-up: not a fork point.
        let s = snap();
        let mut branch = *s.config();
        branch.faults = FaultSpec {
            host_fail_rate_per_month: 5.0,
            ..FaultSpec::none()
        };
        let err = s.refault(&branch).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "{err}");

        // Warmed-up fault-free base: a clean branch forks, a straggler
        // branch and a config-drifted branch do not.
        let mut base = SimConfig::smoke_test();
        base.seed = 43;
        base.warmup_days = 7;
        base.days = 1;
        let s = SimDriver::new(base)
            .unwrap()
            .snapshot_at(SimTime::from_days(base.warmup_days))
            .unwrap();
        let mut branch = base;
        branch.faults = FaultSpec {
            host_fail_rate_per_month: 5.0,
            ..FaultSpec::none()
        };
        let forked = s.refault(&branch).unwrap();
        assert_eq!(forked.config().faults, branch.faults);
        assert!(forked.next_seq >= s.next_seq);

        let mut straggler = branch;
        straggler.faults.straggler_fraction = 0.5;
        let err = s.refault(&straggler).unwrap_err();
        assert!(err.to_string().contains("straggler"), "{err}");

        let mut drifted = branch;
        drifted.seed = 99;
        let err = s.refault(&drifted).unwrap_err();
        assert!(err.to_string().contains("beyond the fault spec"), "{err}");
    }
}
