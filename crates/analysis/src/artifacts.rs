//! Every figure and table of the paper's evaluation from one finished
//! run.
//!
//! [`paper_artifacts`] turns a [`RunResult`] into the files `sapsim
//! simulate --out DIR` writes: one CSV per figure (Fig. 5–15, with 11/12
//! and 14a/b split), the static Tables 3–5 as text, and `report.txt` —
//! the ASCII heatmaps, Tables 1/2, and each artifact's check against the
//! paper's numbers, in figure-then-table order.

use crate::cdf::{utilization_cdf, VmResource};
use crate::classify::{render_table1, render_table2, table1_by_vcpu, table2_by_ram};
use crate::contention::contention_aggregate;
use crate::heatmap::{build_heatmap, HeatmapQuantity, HeatmapScope};
use crate::lifetime::{lifetime_per_flavor, render_lifetimes, size_lifetime_correlation};
use crate::ready_time::top_ready_nodes;
use crate::storage::storage_distribution;
use crate::tables::{render_table3, render_table4, render_table5};
use sapsim_core::RunResult;
use sapsim_telemetry::{EntityRef, MetricId};
use sapsim_topology::{BbPurpose, NodeId};
use std::fmt::{self, Write as _};

/// One named output file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// File name inside the output directory, e.g. `fig5_cpu_heatmap.csv`.
    pub name: &'static str,
    /// The file's contents.
    pub contents: String,
}

/// Every artifact of the paper's evaluation computed from `run`: the 12
/// figure CSVs, `table{3,4,5}_*.txt`, and last `report.txt`. The output
/// is a pure function of the run, so a config and a seed reproduce every
/// byte.
pub fn paper_artifacts(run: &RunResult) -> Vec<Artifact> {
    let sections: [fn(&RunResult, &mut Artifacts); 15] = [
        fig5, fig6, fig7, fig8, fig9, fig10, fig11_12, fig13, fig14, fig15, table1, table2,
        table3, table4, table5,
    ];
    let mut out = Artifacts::default();
    for section in sections {
        section(run, &mut out);
    }
    out.files.push(Artifact {
        name: "report.txt",
        contents: out.report,
    });
    out.files
}

/// The files collected so far plus the report text; `write!` appends to
/// the report.
#[derive(Default)]
struct Artifacts {
    report: String,
    files: Vec<Artifact>,
}

impl Artifacts {
    fn file(&mut self, name: &'static str, contents: String) {
        self.files.push(Artifact { name, contents });
    }
}

impl fmt::Write for Artifacts {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.report.push_str(s);
        Ok(())
    }
}

/// Figure 5: daily average percentage of free CPU per compute node within
/// a single data center, over the observation window.
fn fig5(run: &RunResult, out: &mut Artifacts) {
    let dc = run.cloud.topology().dcs()[0].id;
    let hm = build_heatmap(
        run,
        HeatmapScope::NodesOfDc(dc),
        HeatmapQuantity::FreePercentOf(MetricId::HostCpuUtilPct),
        "Figure 5: daily avg % free CPU per node, one data center",
        |_| 1.0,
    );
    let _ = writeln!(out, "{}", hm.render_ascii());
    if let Some((min, max)) = hm.mean_spread() {
        let _ = writeln!(
            out,
            "spread of per-node mean free CPU: {:.1}% (most loaded) .. {:.1}% (least loaded)",
            min, max
        );
    }
    // The paper's observation is cell-level: "some nodes are considerably
    // utilized with less than 20% free resources, other nodes show ...
    // 90% or more free resources at the same day".
    let mut dark_cells = 0usize;
    let mut light_cells = 0usize;
    for d in 0..hm.days() {
        for c in 0..hm.width() {
            match hm.get(d, c) {
                Some(v) if v < 20.0 => dark_cells += 1,
                Some(v) if v > 90.0 => light_cells += 1,
                _ => {}
            }
        }
    }
    let _ = writeln!(
        out,
        "node-days below 20% free: {dark_cells}; node-days above 90% free: {light_cells}"
    );
    let _ = writeln!(
        out,
        "paper shape check: both extremes present -> {}",
        if dark_cells > 0 && light_cells > 0 {
            "reproduced (strong imbalance)"
        } else {
            "weaker than paper (tune scale/seed)"
        }
    );
    out.file("fig5_cpu_heatmap.csv", hm.to_csv());
}

/// Figure 6: daily average percentage of free CPU per building block
/// within a data center.
fn fig6(run: &RunResult, out: &mut Artifacts) {
    let dc = run.cloud.topology().dcs()[0].id;
    let hm = build_heatmap(
        run,
        HeatmapScope::BbsOfDc(dc),
        HeatmapQuantity::FreePercentOf(MetricId::HostCpuUtilPct),
        "Figure 6: daily avg % free CPU per building block, one data center",
        |_| 1.0,
    );
    let _ = writeln!(out, "{}", hm.render_ascii());
    if let Some((min, max)) = hm.mean_spread() {
        let _ = writeln!(
            out,
            "spread of per-BB mean free CPU: {:.1}% .. {:.1}% — \
             bin-packed HANA blocks sit at the dark end, the general pool at the light end",
            min, max
        );
    }
    out.file("fig6_bb_cpu_heatmap.csv", hm.to_csv());
}

/// Figure 7: daily average percentage of free CPU per node within one
/// building block — the intra-cluster imbalance view ("a maximum CPU
/// utilization on intra-building block hosts of up to 99%", paper
/// abstract).
fn fig7(run: &RunResult, out: &mut Artifacts) {
    // Pick the busiest general-purpose block (most allocated CPU) so the
    // intra-block contrast is visible, like the paper's selected block.
    let topo = run.cloud.topology();
    let bb = topo
        .bbs()
        .iter()
        .filter(|b| b.purpose == BbPurpose::GeneralPurpose)
        .max_by_key(|b| run.cloud.bb_allocated(b.id).cpu_cores)
        .expect("a general-purpose block exists")
        .id;
    let hm = build_heatmap(
        run,
        HeatmapScope::NodesOfBb(bb),
        HeatmapQuantity::FreePercentOf(MetricId::HostCpuUtilPct),
        format!("Figure 7: daily avg % free CPU per node within {}", topo.bb(bb).name),
        |_| 1.0,
    );
    let _ = writeln!(out, "{}", hm.render_ascii());
    if let Some((min, max)) = hm.mean_spread() {
        let _ = writeln!(
            out,
            "intra-block spread of mean free CPU: {:.1}% .. {:.1}%",
            min, max
        );
    }
    out.file("fig7_bb_nodes_heatmap.csv", hm.to_csv());
}

/// Figure 8: aggregated CPU ready time of the 10 nodes with the highest
/// CPU ready time across the region.
fn fig8(run: &RunResult, out: &mut Artifacts) {
    let top = top_ready_nodes(run, 10);
    let _ = writeln!(out, "{}", top.render_summary());
    let topo = run.cloud.topology();
    for n in &top.nodes {
        if let EntityRef::Node(i) = n.entity {
            let node = NodeId::from_raw(i);
            let bb = topo.bb(topo.node(node).bb);
            let _ = writeln!(
                out,
                "  {} -> {} ({:?}, {}), allocated {} of {}",
                n.entity,
                bb.name,
                bb.purpose,
                bb.profile.name,
                run.cloud.node_allocated(node),
                run.cloud.node_capacity(node),
            );
        }
    }
    let (weekday, weekend) = top.weekday_weekend_means();
    let _ = writeln!(
        out,
        "temporal effect: mean ready {weekday:.1}s on weekdays vs {weekend:.1}s on weekends \
         (paper: less contention on weekends)"
    );
    let over_30s: usize = top
        .nodes
        .iter()
        .map(|n| n.points.iter().filter(|&&(_, s)| s > 30.0).count())
        .sum();
    let _ = writeln!(
        out,
        "intervals exceeding the 30 s baseline across the top-10 nodes: {over_30s} \
         (paper: various hypervisors exceed it several times a month)"
    );
    let peak = top
        .nodes
        .iter()
        .map(|n| n.max_ready_s)
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "peak single-interval ready time: {:.0}s (paper reports spikes up to 220 s with ~30 min outliers)",
        peak
    );
    out.file("fig8_ready_time.csv", top.to_csv());
}

/// Figure 9: aggregated CPU contention over all nodes within the region —
/// daily mean / 95th percentile / maximum.
fn fig9(run: &RunResult, out: &mut Artifacts) {
    let agg = contention_aggregate(run);
    let _ = writeln!(out, "{}", agg.render());
    let _ = writeln!(
        out,
        "peaks over the window: mean {:.2}%, p95 {:.2}%, max {:.2}%",
        agg.peak_mean(),
        agg.peak_p95(),
        agg.peak_max()
    );
    let _ = writeln!(
        out,
        "paper shape check: daily mean below 5% -> {}; p95 near/below 5% -> {}; node maxima \
         in the 10-40% band -> {}",
        if agg.peak_mean() < 5.0 { "reproduced" } else { "off (tune)" },
        if agg.peak_p95() < 5.0 {
            "reproduced"
        } else if agg.peak_p95() < 6.5 {
            "close (within ~1.5 points; the tail of busy nodes is slightly heavier than the paper's)"
        } else {
            "off (tune)"
        },
        if agg.peak_max() >= 10.0 { "reproduced" } else { "quieter than paper at this scale" },
    );
    out.file("fig9_contention.csv", agg.to_csv());
}

/// Figure 10: daily average percentage of free memory per node within a
/// single data center.
fn fig10(run: &RunResult, out: &mut Artifacts) {
    let dc = run.cloud.topology().dcs()[0].id;
    let hm = build_heatmap(
        run,
        HeatmapScope::NodesOfDc(dc),
        HeatmapQuantity::FreePercentOf(MetricId::HostMemUsagePct),
        "Figure 10: daily avg % free memory per node, one data center",
        |_| 1.0,
    );
    let _ = writeln!(out, "{}", hm.render_ascii());
    let means: Vec<f64> = hm.column_means().into_iter().flatten().collect();
    let nearly_full = means.iter().filter(|&&f| f < 20.0).count();
    let roomy = means.iter().filter(|&&f| f > 60.0).count();
    let _ = writeln!(
        out,
        "{} of {} nodes below 20% free memory (almost fully utilized), {} above 60% free \
         (paper: roughly comparable groups of full and idle nodes)",
        nearly_full,
        means.len(),
        roomy
    );
    out.file("fig10_memory_heatmap.csv", hm.to_csv());
}

/// Figures 11 and 12: daily average percentage of free network TX/RX
/// bandwidth per node within a single data center. Every node has a
/// 200 Gbps NIC; the paper's observation is that load is far below line
/// rate, making network a non-constraint for scheduling.
fn fig11_12(run: &RunResult, out: &mut Artifacts) {
    const LINE_RATE_KBPS: f64 = 200_000_000.0; // 200 Gbps
    let dc = run.cloud.topology().dcs()[0].id;
    for (fig, metric, name, file) in [
        (11, MetricId::HostNetTxKbps, "TX", "fig11_net_tx_heatmap.csv"),
        (12, MetricId::HostNetRxKbps, "RX", "fig12_net_rx_heatmap.csv"),
    ] {
        let hm = build_heatmap(
            run,
            HeatmapScope::NodesOfDc(dc),
            HeatmapQuantity::FreeFractionOf(metric),
            format!("Figure {fig}: daily avg % free network {name} bandwidth per node"),
            |_| LINE_RATE_KBPS,
        );
        let _ = writeln!(out, "{}", hm.render_ascii());
        if let Some((min, _)) = hm.mean_spread() {
            let _ = writeln!(
                out,
                "least free {name} bandwidth on any node: {min:.2}% free \
                 (paper: load notably below the 200 Gbps line rate)\n"
            );
        }
        out.file(file, hm.to_csv());
    }
}

/// Figure 13: daily average percentage of free local storage per node,
/// plus the paper's headline distribution statistics.
fn fig13(run: &RunResult, out: &mut Artifacts) {
    let topo = run.cloud.topology();
    let dc = topo.dcs()[0].id;
    // Per-node disk capacity for the free-fraction transform.
    let caps: Vec<f64> = topo
        .nodes()
        .iter()
        .map(|n| topo.node_physical_capacity(n.id).disk_gib as f64)
        .collect();
    let hm = build_heatmap(
        run,
        HeatmapScope::NodesOfDc(dc),
        HeatmapQuantity::FreeFractionOf(MetricId::HostDiskUsageGb),
        "Figure 13: daily avg % free local storage per node, one data center",
        |e| match e {
            EntityRef::Node(i) => caps[i as usize],
            _ => 1.0,
        },
    );
    let _ = writeln!(out, "{}", hm.render_ascii());
    let _ = writeln!(out, "{}", storage_distribution(run).summary_line());
    let _ = writeln!(
        out,
        "paper reference: 18% of hosts >90% free storage; 7% of hosts using more than 30%"
    );
    out.file("fig13_storage_heatmap.csv", hm.to_csv());
}

/// Figure 14: cumulative distribution of average VM utilization ratio per
/// resource, with the under (<70%) / optimal (70–85%) / over (>85%)
/// classification.
fn fig14(run: &RunResult, out: &mut Artifacts) {
    let cpu = utilization_cdf(run, VmResource::Cpu);
    let mem = utilization_cdf(run, VmResource::Memory);
    let _ = writeln!(out, "{}", cpu.summary_line());
    let _ = writeln!(out, "{}", mem.summary_line());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "paper reference (Fig. 14): CPU — over 80% of VMs below 70% of requested CPU \
         (heavy overprovisioning); memory — ~38% under, ~10% optimal, ~52% over 85%."
    );
    let _ = writeln!(
        out,
        "shape check: CPU under-fraction {:.0}% (>80% expected) -> {}; \
         memory over-fraction {:.0}% (~52% expected) -> {}",
        cpu.under * 100.0,
        if cpu.under > 0.8 { "reproduced" } else { "close" },
        mem.over * 100.0,
        if mem.over > 0.4 { "reproduced" } else { "close" },
    );
    out.file("fig14a_cpu_cdf.csv", cpu.to_csv());
    out.file("fig14b_mem_cdf.csv", mem.to_csv());
}

/// Figure 15: VM lifetime per flavor grouped by vCPU and RAM class,
/// restricted to flavors with at least 30 instances, annotated with
/// instance counts.
fn fig15(run: &RunResult, out: &mut Artifacts) {
    let flavors = lifetime_per_flavor(run, 30);
    let _ = writeln!(out, "{}", render_lifetimes(&flavors));
    let min = flavors.iter().map(|f| f.min_days).fold(f64::INFINITY, f64::min);
    let max = flavors.iter().map(|f| f.max_days).fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "observed lifetimes span {:.1} minutes to {:.2} years \
         (paper: 'from few minutes to multiple years')",
        min * 24.0 * 60.0,
        max / 365.0
    );
    let rho = size_lifetime_correlation(run, 30);
    let _ = writeln!(
        out,
        "size→lifetime correlation (log-log Pearson): {rho:.2} \
         (paper: no consistent relationship)"
    );
    let mut csv = String::from("flavor,cpu_class,ram_class,instances,mean_days,min_days,max_days\n");
    for f in &flavors {
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.3},{:.4},{:.2}",
            f.flavor, f.cpu_class, f.ram_class, f.instances, f.mean_days, f.min_days, f.max_days
        );
    }
    out.file("fig15_lifetimes.csv", csv);
}

/// Table 1: average VM classification by number of vCPUs.
fn table1(run: &RunResult, out: &mut Artifacts) {
    let rows = table1_by_vcpu(run);
    let _ = writeln!(out, "{}", render_table1(&rows));
    let _ = writeln!(
        out,
        "paper reference at full scale: Small 28,446 / Medium 14,340 / Large 1,831 / XL 738 \
         (this run is at scale {:.2}; shares should match)",
        run.config.scale
    );
    let total: f64 = rows.iter().map(|&(_, n)| n).sum();
    for (c, n) in rows {
        let _ = writeln!(out, "  {:<12} share {:.1}%", c.label(), n / total * 100.0);
    }
    let _ = writeln!(out, "paper shares: Small 62.7% / Medium 31.6% / Large 4.0% / XL 1.6%");
}

/// Table 2: average VM classification by memory resources.
fn table2(run: &RunResult, out: &mut Artifacts) {
    let rows = table2_by_ram(run);
    let _ = writeln!(out, "{}", render_table2(&rows));
    let _ = writeln!(
        out,
        "paper reference at full scale: Small 991 / Medium 41,395 / Large 787 / XL 2,184 \
         (this run is at scale {:.2}; shares should match)",
        run.config.scale
    );
    let total: f64 = rows.iter().map(|&(_, n)| n).sum();
    for (c, n) in rows {
        let _ = writeln!(out, "  {:<12} share {:.1}%", c.label(), n / total * 100.0);
    }
    let _ = writeln!(out, "paper shares: Small 2.2% / Medium 91.2% / Large 1.7% / XL 4.8%");
}

/// Table 3: comparison of prior datasets with the SAP Cloud
/// Infrastructure dataset.
fn table3(_: &RunResult, out: &mut Artifacts) {
    let text = render_table3();
    let _ = writeln!(out, "{text}");
    let _ = writeln!(
        out,
        "The SAP dataset is the only publicly available dataset that provides VM workloads, \
         memory allocations up to 12 TB per VM, and 30s-300s sampling on nodes and VMs."
    );
    out.file("table3_comparison.txt", text);
}

/// Table 4: metric details for vROps and OpenStack Compute, regenerated
/// from the telemetry registry (the same catalog the simulator records).
fn table4(_: &RunResult, out: &mut Artifacts) {
    let text = render_table4();
    let _ = writeln!(out, "{text}");
    out.file("table4_metrics.txt", text);
}

/// Table 5 (Appendix D): hypervisor and VM distribution across SAP data
/// centers, regenerated from the topology presets.
fn table5(_: &RunResult, out: &mut Artifacts) {
    let text = render_table5();
    let _ = writeln!(out, "{text}");
    out.file("table5_datacenters.txt", text);
}
