//! Arena-backed storage of the full infrastructure hierarchy.

use crate::capacity::Resources;
use crate::hardware::{HardwareProfile, OvercommitPolicy};
use crate::ids::{AzId, BbId, DcId, NodeId, RegionId};
use std::fmt;

/// A broken cross-reference found by [`Topology::validate`].
///
/// Marked `#[non_exhaustive]`; keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// An arena invariant does not hold. The payload is the full
    /// human-readable message.
    Invariant(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Invariant(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A geographic region, the top of the hierarchy (paper Figure 1).
#[derive(Debug, Clone)]
pub struct Region {
    /// Arena id.
    pub id: RegionId,
    /// Human-readable name (anonymized in the dataset, e.g. `"region-9"`).
    pub name: String,
    /// Availability zones in this region.
    pub azs: Vec<AzId>,
}

/// A logical grouping of independent, co-located data centers.
#[derive(Debug, Clone)]
pub struct AvailabilityZone {
    /// Arena id.
    pub id: AzId,
    /// Owning region.
    pub region: RegionId,
    /// Name, e.g. `"az-a"`.
    pub name: String,
    /// Data centers in this AZ.
    pub dcs: Vec<DcId>,
}

/// A data center — the placement and scheduling domain of the study
/// (cross-DC migration is out of scope, paper Section 3.1).
#[derive(Debug, Clone)]
pub struct DataCenter {
    /// Arena id.
    pub id: DcId,
    /// Owning availability zone.
    pub az: AzId,
    /// Name following the paper's Appendix D convention (`"A"`, `"B"`, `"D"`).
    pub name: String,
    /// Building blocks hosted in this DC.
    pub bbs: Vec<BbId>,
}

/// What a building block is reserved for.
///
/// Paper Section 3.1: "a subset of building blocks is reserved allowing VM
/// flavors with special requirements such as GPU workload and more than 3 TB
/// of memory. These special purpose building blocks do not accommodate other
/// VMs."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BbPurpose {
    /// Default pool for general-purpose VMs; load-balanced placement.
    GeneralPurpose,
    /// Reserved for memory-intensive SAP HANA flavors; bin-packed placement
    /// to maximize the number of placeable VMs.
    Hana,
    /// Reserved for GPU flavors (modeled but carrying no GPU inventory —
    /// the paper's dataset has no GPU metrics, Table 3).
    Gpu,
    /// Dedicated continuous-integration farm: CI/CD executors are pinned
    /// to their own blocks (tenant isolation, paper Section 3.2), which
    /// concentrates their bursty demand — one real-world source of the
    /// heavily-utilized columns in Figure 5.
    CiFarm,
}

impl BbPurpose {
    /// True if a VM of the other purpose class may land here.
    /// Special-purpose BBs accept only their own class; the general pool
    /// accepts only general-purpose VMs.
    pub fn accepts(self, workload: BbPurpose) -> bool {
        self == workload
    }
}

/// A building block: a vSphere cluster of homogeneous nodes, surfaced to
/// Nova as a single *compute host*.
#[derive(Debug, Clone)]
pub struct BuildingBlock {
    /// Arena id.
    pub id: BbId,
    /// Owning data center.
    pub dc: DcId,
    /// Name, e.g. `"bb-042"`.
    pub name: String,
    /// Reservation class.
    pub purpose: BbPurpose,
    /// Hardware profile shared by every node in the block (homogeneous
    /// within a BB, paper Section 3.2).
    pub profile: HardwareProfile,
    /// Overcommit policy applied to each node.
    pub overcommit: OvercommitPolicy,
    /// Member nodes.
    pub nodes: Vec<NodeId>,
}

impl BuildingBlock {
    /// Schedulable (virtual) capacity of one member node.
    pub fn node_virtual_capacity(&self) -> Resources {
        self.overcommit.virtual_capacity(&self.profile.physical)
    }

    /// Total schedulable capacity of the whole block.
    pub fn total_virtual_capacity(&self) -> Resources {
        let per_node = self.node_virtual_capacity();
        Resources {
            cpu_cores: per_node.cpu_cores * self.nodes.len() as u32,
            memory_mib: per_node.memory_mib * self.nodes.len() as u64,
            disk_gib: per_node.disk_gib * self.nodes.len() as u64,
        }
    }
}

/// Operational state of a compute node. White cells in the paper's heatmaps
/// correspond to nodes that were absent or in maintenance on a given day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// In service, accepting and running VMs.
    Active,
    /// Temporarily out of service (planned maintenance); VMs must be
    /// evacuated before entering this state.
    Maintenance,
    /// Abruptly down (unplanned host failure injected by the fault
    /// layer); resident VMs are evacuated through the normal scheduling
    /// pipeline and the node is silent in telemetry until it recovers.
    Failed,
}

sapsim_json::json_codec!(enum NodeState { Active, Maintenance, Failed });

/// A physical hypervisor host (VMware ESXi in the paper).
#[derive(Debug, Clone)]
pub struct ComputeNode {
    /// Arena id.
    pub id: NodeId,
    /// Owning building block.
    pub bb: BbId,
    /// Name (consistently hashed in the public dataset).
    pub name: String,
    /// Operational state.
    pub state: NodeState,
}

/// The complete infrastructure inventory: flat arenas with typed indices.
///
/// All cross-references (`ComputeNode::bb`, `BuildingBlock::dc`, …) are
/// maintained by the `add_*` methods; constructing hierarchy by hand is
/// possible but the [`TopologyBuilder`](crate::TopologyBuilder) and
/// [`paper_region`](crate::paper_region) presets are the intended entry
/// points.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    regions: Vec<Region>,
    azs: Vec<AvailabilityZone>,
    dcs: Vec<DataCenter>,
    bbs: Vec<BuildingBlock>,
    nodes: Vec<ComputeNode>,
}

impl Topology {
    /// An empty inventory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a region.
    pub fn add_region(&mut self, name: impl Into<String>) -> RegionId {
        let id = RegionId::from_raw(self.regions.len() as u32);
        self.regions.push(Region {
            id,
            name: name.into(),
            azs: Vec::new(),
        });
        id
    }

    /// Append an availability zone to `region`.
    pub fn add_az(&mut self, region: RegionId, name: impl Into<String>) -> AzId {
        let id = AzId::from_raw(self.azs.len() as u32);
        self.azs.push(AvailabilityZone {
            id,
            region,
            name: name.into(),
            dcs: Vec::new(),
        });
        self.regions[region.index()].azs.push(id);
        id
    }

    /// Append a data center to `az`.
    pub fn add_dc(&mut self, az: AzId, name: impl Into<String>) -> DcId {
        let id = DcId::from_raw(self.dcs.len() as u32);
        self.dcs.push(DataCenter {
            id,
            az,
            name: name.into(),
            bbs: Vec::new(),
        });
        self.azs[az.index()].dcs.push(id);
        id
    }

    /// Append a building block to `dc` with `node_count` fresh nodes.
    pub fn add_bb(
        &mut self,
        dc: DcId,
        name: impl Into<String>,
        purpose: BbPurpose,
        profile: HardwareProfile,
        overcommit: OvercommitPolicy,
        node_count: usize,
    ) -> BbId {
        let id = BbId::from_raw(self.bbs.len() as u32);
        let name = name.into();
        let mut nodes = Vec::with_capacity(node_count);
        for i in 0..node_count {
            let nid = NodeId::from_raw(self.nodes.len() as u32);
            self.nodes.push(ComputeNode {
                id: nid,
                bb: id,
                name: format!("{name}-n{i:03}"),
                state: NodeState::Active,
            });
            nodes.push(nid);
        }
        self.bbs.push(BuildingBlock {
            id,
            dc,
            name,
            purpose,
            profile,
            overcommit,
            nodes,
        });
        self.dcs[dc.index()].bbs.push(id);
        id
    }

    /// All regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// All availability zones.
    pub fn azs(&self) -> &[AvailabilityZone] {
        &self.azs
    }

    /// All data centers.
    pub fn dcs(&self) -> &[DataCenter] {
        &self.dcs
    }

    /// All building blocks.
    pub fn bbs(&self) -> &[BuildingBlock] {
        &self.bbs
    }

    /// All compute nodes.
    pub fn nodes(&self) -> &[ComputeNode] {
        &self.nodes
    }

    /// Look up a region.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Look up an availability zone.
    pub fn az(&self, id: AzId) -> &AvailabilityZone {
        &self.azs[id.index()]
    }

    /// Look up a data center.
    pub fn dc(&self, id: DcId) -> &DataCenter {
        &self.dcs[id.index()]
    }

    /// Look up a building block.
    pub fn bb(&self, id: BbId) -> &BuildingBlock {
        &self.bbs[id.index()]
    }

    /// Look up a compute node.
    pub fn node(&self, id: NodeId) -> &ComputeNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a compute node (state changes).
    pub fn node_mut(&mut self, id: NodeId) -> &mut ComputeNode {
        &mut self.nodes[id.index()]
    }

    /// The AZ a building block belongs to.
    pub fn bb_az(&self, id: BbId) -> AzId {
        self.dc(self.bb(id).dc).az
    }

    /// Physical capacity of a node (via its block's shared profile).
    pub fn node_physical_capacity(&self, id: NodeId) -> Resources {
        self.bb(self.node(id).bb).profile.physical
    }

    /// Schedulable (virtual) capacity of a node under its block's
    /// overcommit policy.
    pub fn node_virtual_capacity(&self, id: NodeId) -> Resources {
        self.bb(self.node(id).bb).node_virtual_capacity()
    }

    /// NIC line rate of a node in Gbps.
    pub fn node_network_gbps(&self, id: NodeId) -> f64 {
        self.bb(self.node(id).bb).profile.network_gbps
    }

    /// Iterator over the node ids of one data center.
    pub fn nodes_in_dc(&self, dc: DcId) -> impl Iterator<Item = NodeId> + '_ {
        self.dc(dc)
            .bbs
            .iter()
            .flat_map(move |&bb| self.bb(bb).nodes.iter().copied())
    }

    /// Iterator over the building-block ids of one availability zone.
    pub fn bbs_in_az(&self, az: AzId) -> impl Iterator<Item = BbId> + '_ {
        self.az(az)
            .dcs
            .iter()
            .flat_map(move |&dc| self.dc(dc).bbs.iter().copied())
    }

    /// Total number of hypervisor nodes in a DC (the paper's Table 5
    /// "Number of Hypervisors" column).
    pub fn dc_node_count(&self, dc: DcId) -> usize {
        self.dc(dc)
            .bbs
            .iter()
            .map(|&bb| self.bb(bb).nodes.len())
            .sum()
    }

    /// Aggregate physical capacity of the whole inventory.
    pub fn total_physical_capacity(&self) -> Resources {
        self.bbs.iter().fold(Resources::ZERO, |acc, bb| {
            let n = bb.nodes.len() as u64;
            acc + Resources {
                cpu_cores: bb.profile.physical.cpu_cores * n as u32,
                memory_mib: bb.profile.physical.memory_mib * n,
                disk_gib: bb.profile.physical.disk_gib * n,
            }
        })
    }

    /// Internal consistency check: every cross-reference resolves and
    /// every child points back at its parent. Used by tests and by the
    /// builders after construction.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let broken = |msg: String| Err(TopologyError::Invariant(msg));
        for (i, r) in self.regions.iter().enumerate() {
            if r.id.index() != i {
                return broken(format!("region arena id mismatch at {i}"));
            }
            for &az in &r.azs {
                if self.azs.get(az.index()).map(|a| a.region) != Some(r.id) {
                    return broken(format!("az {az} does not point back at {}", r.id));
                }
            }
        }
        for (i, az) in self.azs.iter().enumerate() {
            if az.id.index() != i {
                return broken(format!("az arena id mismatch at {i}"));
            }
            for &dc in &az.dcs {
                if self.dcs.get(dc.index()).map(|d| d.az) != Some(az.id) {
                    return broken(format!("dc {dc} does not point back at {}", az.id));
                }
            }
        }
        for (i, dc) in self.dcs.iter().enumerate() {
            if dc.id.index() != i {
                return broken(format!("dc arena id mismatch at {i}"));
            }
            for &bb in &dc.bbs {
                if self.bbs.get(bb.index()).map(|b| b.dc) != Some(dc.id) {
                    return broken(format!("bb {bb} does not point back at {}", dc.id));
                }
            }
        }
        for (i, bb) in self.bbs.iter().enumerate() {
            if bb.id.index() != i {
                return broken(format!("bb arena id mismatch at {i}"));
            }
            if bb.nodes.is_empty() {
                return broken(format!("bb {} has no nodes", bb.id));
            }
            for &n in &bb.nodes {
                if self.nodes.get(n.index()).map(|nd| nd.bb) != Some(bb.id) {
                    return broken(format!("node {n} does not point back at {}", bb.id));
                }
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.index() != i {
                return broken(format!("node arena id mismatch at {i}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        let mut t = Topology::new();
        let r = t.add_region("region-1");
        let az = t.add_az(r, "az-a");
        let dc = t.add_dc(az, "A");
        t.add_bb(
            dc,
            "bb-000",
            BbPurpose::GeneralPurpose,
            HardwareProfile::general_purpose(),
            OvercommitPolicy::general_purpose(),
            4,
        );
        t.add_bb(
            dc,
            "bb-001",
            BbPurpose::Hana,
            HardwareProfile::hana_large(),
            OvercommitPolicy::hana(),
            2,
        );
        t
    }

    #[test]
    fn construction_wires_hierarchy() {
        let t = tiny();
        t.validate().expect("valid");
        assert_eq!(t.regions().len(), 1);
        assert_eq!(t.dcs().len(), 1);
        assert_eq!(t.bbs().len(), 2);
        assert_eq!(t.nodes().len(), 6);
        let dc = t.dcs()[0].id;
        assert_eq!(t.dc_node_count(dc), 6);
        assert_eq!(t.nodes_in_dc(dc).count(), 6);
    }

    #[test]
    fn node_capacity_comes_from_block() {
        let t = tiny();
        let gp_node = t.bbs()[0].nodes[0];
        let hana_node = t.bbs()[1].nodes[0];
        assert_eq!(t.node_physical_capacity(gp_node).cpu_cores, 48);
        // 4:1 CPU overcommit on GP blocks.
        assert_eq!(t.node_virtual_capacity(gp_node).cpu_cores, 192);
        // No CPU overcommit on HANA blocks.
        assert_eq!(t.node_virtual_capacity(hana_node).cpu_cores, 224);
        assert_eq!(t.node_network_gbps(gp_node), 200.0);
    }

    #[test]
    fn bb_total_capacity_scales_with_node_count() {
        let t = tiny();
        let bb = &t.bbs()[0];
        let total = bb.total_virtual_capacity();
        assert_eq!(total.cpu_cores, 192 * 4);
        assert_eq!(total.memory_mib, 768 * 1024 * 4);
    }

    #[test]
    fn purpose_isolation() {
        assert!(BbPurpose::Hana.accepts(BbPurpose::Hana));
        assert!(!BbPurpose::Hana.accepts(BbPurpose::GeneralPurpose));
        assert!(!BbPurpose::GeneralPurpose.accepts(BbPurpose::Hana));
        assert!(BbPurpose::GeneralPurpose.accepts(BbPurpose::GeneralPurpose));
    }

    #[test]
    fn bb_az_resolves_through_dc() {
        let t = tiny();
        assert_eq!(t.bb_az(t.bbs()[0].id), t.azs()[0].id);
    }

    #[test]
    fn node_state_is_mutable() {
        let mut t = tiny();
        let n = t.bbs()[0].nodes[0];
        assert_eq!(t.node(n).state, NodeState::Active);
        t.node_mut(n).state = NodeState::Maintenance;
        assert_eq!(t.node(n).state, NodeState::Maintenance);
    }

    #[test]
    fn total_physical_capacity_sums_everything() {
        let t = tiny();
        let total = t.total_physical_capacity();
        assert_eq!(total.cpu_cores, 48 * 4 + 224 * 2);
        assert_eq!(total.memory_mib, (768 * 4 + 6144 * 2) * 1024);
    }

    #[test]
    fn validate_rejects_dangling_backref() {
        let mut t = tiny();
        // Corrupt a node's back-reference.
        let n = t.bbs()[0].nodes[0];
        t.node_mut(n).bb = BbId::from_raw(1);
        assert!(t.validate().is_err());
    }
}
