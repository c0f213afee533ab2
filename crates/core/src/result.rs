//! Outputs of a simulation run.

use crate::cloud::Cloud;
use crate::config::SimConfig;
use sapsim_json::{json_codec, ObjectWriter};
use sapsim_obs::RunProfile;
use sapsim_telemetry::{RunningStat, TsdbStore};
use sapsim_workload::{VmId, VmSpec};

/// Per-VM utilization summary over the whole window — the input to the
/// Figure 14 CDFs and the Table 1/2 classifications.
#[derive(Debug, Clone)]
pub struct VmUsageSummary {
    /// The VM.
    pub id: VmId,
    /// Index into [`RunResult::specs`].
    pub spec_index: usize,
    /// Whether the VM was ever successfully placed.
    pub placed: bool,
    /// Statistics of `vrops_virtualmachine_cpu_usage_ratio` samples.
    pub cpu_ratio: RunningStat,
    /// Statistics of `vrops_virtualmachine_memory_consumed_ratio` samples.
    pub mem_ratio: RunningStat,
}

json_codec!(struct VmUsageSummary { id, spec_index, placed, cpu_ratio, mem_ratio });

/// Counters describing one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriverStats {
    /// Placement attempts (VM arrivals).
    pub placements_attempted: u64,
    /// Successful placements.
    pub placed: u64,
    /// Failures with an empty candidate list.
    pub failed_no_candidate: u64,
    /// Failures after exhausting all ranked candidates (fragmentation).
    pub failed_fragmented: u64,
    /// Cluster candidates tried and rejected before success — Nova's
    /// greedy retries; nonzero values at BB granularity measure
    /// intra-cluster fragmentation.
    pub placement_retries: u64,
    /// Migrations executed by the DRS-style intra-BB rebalancer.
    pub drs_migrations: u64,
    /// Migrations executed by the cross-BB rebalancer.
    pub cross_bb_migrations: u64,
    /// Resize events processed.
    pub resizes_attempted: u64,
    /// Resizes that fit on the VM's current node.
    pub resizes_in_place: u64,
    /// Resizes that required a migration (Nova re-schedule).
    pub resizes_migrated: u64,
    /// Resizes that found no capacity anywhere (VM keeps its old size).
    pub resizes_failed: u64,
    /// Maintenance windows that started (node evacuated and silenced).
    pub maintenance_windows: u64,
    /// Maintenance windows aborted because a VM could not be evacuated.
    pub maintenance_aborted: u64,
    /// VMs live-migrated by evacuations.
    pub evacuations: u64,
    /// VM deletions processed.
    pub departures: u64,
    /// Telemetry scrape rounds.
    pub scrapes: u64,
    /// Maximum concurrent VM count observed.
    pub peak_vm_count: usize,
    /// VM count at window end.
    pub final_vm_count: usize,
    /// Fault-injection counters. All-zero (and skipped when serialized)
    /// unless the run had a non-empty fault plan, so pre-fault output
    /// stays byte-identical.
    pub faults: FaultStats,
}

json_codec!(struct DriverStats: default {
    placements_attempted, placed, failed_no_candidate, failed_fragmented, placement_retries,
    drs_migrations, cross_bb_migrations, resizes_attempted, resizes_in_place, resizes_migrated,
    resizes_failed, maintenance_windows, maintenance_aborted, evacuations, departures, scrapes,
    peak_vm_count, final_vm_count, faults: FaultStats::is_zero,
});

/// Counters describing the injected faults and their consequences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Abrupt host failures applied (a planned failure on a node already
    /// out of service is skipped and not counted).
    pub host_failures: u64,
    /// Failed hosts that rejoined the fleet within the run.
    pub host_recoveries: u64,
    /// VMs displaced from failing hosts.
    pub evacuated: u64,
    /// Displaced VMs re-placed through the scheduling pipeline
    /// (immediately or after retries).
    pub evac_replaced: u64,
    /// Retry attempts consumed by the pending-evacuation queue.
    pub evac_retries: u64,
    /// Largest pending-evacuation queue observed.
    pub evac_pending_peak: u64,
    /// Evacuations still pending when the run ended.
    pub evac_pending_end: u64,
    /// Evacuations abandoned after exhausting the retry budget.
    pub evac_lost: u64,
    /// Nodes running with degraded pCPU throughput.
    pub straggler_nodes: u64,
    /// Telemetry dropout windows in the fault plan.
    pub dropout_windows: u64,
    /// Node scrape samples suppressed by dropout windows.
    pub dropped_samples: u64,
}

json_codec!(struct FaultStats {
    host_failures, host_recoveries, evacuated, evac_replaced, evac_retries, evac_pending_peak,
    evac_pending_end, evac_lost, straggler_nodes, dropout_windows, dropped_samples,
});

impl FaultStats {
    /// True when no fault machinery left any trace in this run.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

impl DriverStats {
    /// Fraction of attempted placements that succeeded.
    pub fn placement_success_rate(&self) -> f64 {
        if self.placements_attempted == 0 {
            return 1.0;
        }
        self.placed as f64 / self.placements_attempted as f64
    }
}

/// Everything a run produces. Consumed by `sapsim-analysis` to regenerate
/// the paper's figures and tables.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration that produced this result.
    pub config: SimConfig,
    /// The recorded telemetry (Table 4 metrics).
    pub store: TsdbStore,
    /// Per-VM usage summaries, indexed like `specs`.
    pub vm_stats: Vec<VmUsageSummary>,
    /// The generated workload (for lifetime and classification analyses).
    pub specs: Vec<VmSpec>,
    /// Run counters.
    pub stats: DriverStats,
    /// Final cloud state (topology + residency).
    pub cloud: Cloud,
    /// Wall-clock profile of the event loop (empty unless the run used an
    /// enabled recorder). Excluded from [`RunResult::canonical_bytes`]:
    /// wall-clock time describes how the run executed, not what it
    /// simulated.
    pub profile: RunProfile,
}

impl RunResult {
    /// Canonical byte serialization of everything the simulation computed,
    /// for determinism assertions and content hashing.
    ///
    /// Two properties define "canonical":
    ///
    /// * **Deterministic** — every container serialized here iterates in a
    ///   fixed order (dense telemetry tables, `BTreeMap` fallbacks, the
    ///   spec-ordered placement list), so equal results always produce
    ///   equal bytes.
    /// * **Execution-independent** — the config is written whole (every
    ///   [`SimConfig`] field states the experiment) and the wall-clock
    ///   [`RunResult::profile`] is omitted entirely, so runs that must be
    ///   bit-identical across recorders and worker counts compare equal.
    ///
    /// The final cloud state is represented by the `(vm uid, node index)`
    /// placement list in id order; per-VM RNG internals are execution
    /// machinery and are not part of the canonical form.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let placements: Vec<(u64, u32)> = self
            .specs
            .iter()
            .filter_map(|s| self.cloud.vm(s.id))
            .map(|vm| (vm.id.raw(), vm.node.index() as u32))
            .collect();
        let mut out = String::new();
        let mut canonical = ObjectWriter::new(&mut out);
        canonical.field("config", &self.config);
        canonical.field("store", &self.store);
        canonical.field("vm_stats", &self.vm_stats);
        canonical.field("specs", &self.specs);
        canonical.field("stats", &self.stats);
        canonical.field("placements", &placements);
        canonical.end();
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::{decode, ToJson};

    #[test]
    fn success_rate_handles_zero_attempts() {
        let s = DriverStats::default();
        assert_eq!(s.placement_success_rate(), 1.0);
        let s = DriverStats {
            placements_attempted: 10,
            placed: 9,
            ..Default::default()
        };
        assert!((s.placement_success_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_fault_stats_vanish_from_serialized_stats() {
        let clean = DriverStats::default().to_json_string();
        assert!(
            !clean.contains("faults"),
            "fault-free stats must serialize exactly like the pre-fault format: {clean}"
        );
        // The pre-fault wire format (no `faults` key) still deserializes.
        let back: DriverStats = decode(&clean).expect("deserializes");
        assert!(back.faults.is_zero());

        let faulty = DriverStats {
            faults: FaultStats {
                host_failures: 2,
                evacuated: 5,
                ..FaultStats::default()
            },
            ..DriverStats::default()
        };
        let json = faulty.to_json_string();
        assert!(json.contains("\"host_failures\":2"));
        let back: DriverStats = decode(&json).expect("deserializes");
        assert_eq!(back, faulty);
    }
}
