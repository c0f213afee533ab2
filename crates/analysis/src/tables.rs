//! Tables 3, 4, and 5: the dataset-comparison matrix, the metric catalog,
//! and the data-center overview.

use sapsim_telemetry::{metric_catalog, MetricKind, Subsystem};
use sapsim_topology::paper_table5;
use std::fmt::Write as _;

/// One row of Table 3 (dataset comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DatasetRow {
    /// Dataset name.
    pub(crate) name: &'static str,
    /// Resource coverage: CPU, memory, network, storage, GPU.
    pub(crate) resources: [bool; 5],
    /// Workload coverage: batch jobs, VMs, lifetime info.
    pub(crate) batch_jobs: bool,
    /// Contains VM workloads.
    pub(crate) vms: bool,
    /// Lifetime range description.
    pub(crate) lifetime: &'static str,
    /// Scale description.
    pub(crate) scale: &'static str,
    /// Duration description.
    pub(crate) duration: &'static str,
    /// Sampling description.
    pub(crate) sampling: &'static str,
    /// Publicly available.
    pub(crate) public: bool,
}

/// Table 3 as printed in the paper: prior traces vs. the SAP dataset.
pub(crate) fn table3_dataset_comparison() -> Vec<DatasetRow> {
    let row = |name,
               resources,
               batch_jobs,
               vms,
               lifetime,
               scale,
               duration,
               sampling,
               public| DatasetRow {
        name,
        resources,
        batch_jobs,
        vms,
        lifetime,
        scale,
        duration,
        sampling,
        public,
    };
    vec![
        // [cpu, memory, network, storage, gpu]
        row("Google", [true, true, false, false, false], true, false, "sec-days", "672,074 jobs", "29 days", "5 min", true),
        row("Alibaba", [true, true, true, false, true], true, false, "min-days", "~4k nodes", "8 days", "n/a", true),
        row("Philly", [true, true, true, false, true], true, false, "min-weeks", "117,325 jobs", "75 days", "1 min", true),
        row("Atlas", [true, true, false, false, true], true, false, "n/a", "96,260 jobs", "90-1,800 days", "1 min", true),
        row("MIT", [true, true, false, false, true], true, false, "min-days", "441-9k nodes", "90-180+ days", "n/a", true),
        row("Azure", [true, true, true, true, false], false, true, "min-weeks", ">1M VMs", "14 days", "5 min", false),
        row("SAP (this work)", [true, true, true, true, false], false, true, "min-years", "1.8k nodes, 48k VMs", "30 days", "30s-300s", true),
    ]
}

/// Render Table 3.
pub fn render_table3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<3} {:<3} {:<3} {:<3} {:<3} | {:<5} {:<3} {:<10} | {:<20} {:<14} {:<9} {:<6}",
        "Dataset", "CPU", "Mem", "Net", "Sto", "GPU", "Batch", "VMs", "Lifetime", "Scale", "Duration", "Sampling", "Public"
    );
    let mark = |b: bool| if b { "Y" } else { "-" };
    for r in table3_dataset_comparison() {
        let _ = writeln!(
            out,
            "{:<18} {:<3} {:<3} {:<3} {:<3} {:<3} | {:<5} {:<3} {:<10} | {:<20} {:<14} {:<9} {:<6}",
            r.name,
            mark(r.resources[0]),
            mark(r.resources[1]),
            mark(r.resources[2]),
            mark(r.resources[3]),
            mark(r.resources[4]),
            mark(r.batch_jobs),
            mark(r.vms),
            r.lifetime,
            r.scale,
            r.duration,
            r.sampling,
            mark(r.public)
        );
    }
    out
}

/// Render Table 4 (the metric catalog) from the telemetry registry.
pub fn render_table4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:<10} {:<13} Description",
        "Metric", "Resource", "Subsystem"
    );
    for info in metric_catalog() {
        let kind = match info.kind {
            MetricKind::Cpu => "CPU",
            MetricKind::Memory => "Memory",
            MetricKind::Network => "Network",
            MetricKind::Storage => "Storage",
            MetricKind::Inventory => "Inventory",
        };
        let sub = match info.subsystem {
            Subsystem::ComputeHost => "Compute host",
            Subsystem::Vm => "VM",
            Subsystem::Region => "Region",
        };
        let _ = writeln!(out, "{:<52} {:<10} {:<13} {}", info.name, kind, sub, info.description);
    }
    out
}

/// Render Table 5 (the data-center overview) from the topology presets.
pub fn render_table5() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<12} {:>14} {:>20}",
        "Region ID", "Datacenter", "Hypervisors", "Virtual Machines"
    );
    for dc in paper_table5() {
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:>14} {:>20}",
            dc.region_id, dc.dc_name, dc.hypervisors, dc.vms
        );
    }
    let hv: u32 = paper_table5().iter().map(|d| d.hypervisors).sum();
    let vms: u32 = paper_table5().iter().map(|d| d.vms).sum();
    let _ = writeln!(out, "{:<10} {:<12} {:>14} {:>20}", "total", "", hv, vms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_seven_rows_and_sap_is_unique() {
        let t = table3_dataset_comparison();
        assert_eq!(t.len(), 7);
        let sap = t.last().unwrap();
        assert_eq!(sap.name, "SAP (this work)");
        // The claim of the caption: the only public dataset with VM
        // workloads (Azure has VMs but is not public).
        let public_vm: Vec<_> = t.iter().filter(|r| r.vms && r.public).collect();
        assert_eq!(public_vm.len(), 1);
        assert_eq!(public_vm[0].name, "SAP (this work)");
        // And the only one covering min-to-years lifetimes.
        assert_eq!(sap.lifetime, "min-years");
    }

    #[test]
    fn renders_are_complete() {
        let t3 = render_table3();
        assert_eq!(t3.lines().count(), 8);
        assert!(t3.contains("SAP (this work)"));
        let t4 = render_table4();
        assert_eq!(t4.lines().count(), 15, "header + 14 metrics");
        assert!(t4.contains("vrops_hostsystem_cpu_contention_percentage"));
        let t5 = render_table5();
        assert_eq!(t5.lines().count(), 31, "header + 29 DCs + total");
        assert!(t5.contains("1072"));
    }
}
