//! # sapsim-workload — synthetic enterprise workloads
//!
//! The public SAP dataset (Zenodo 10.5281/zenodo.17141306) is not available
//! offline, so this crate generates a statistically equivalent workload,
//! calibrated against every number the paper publishes:
//!
//! * **Flavor mix** — the catalog in [`flavor`] reproduces Table 1
//!   (VM counts by vCPU class: 28,446 / 14,340 / 1,831 / 738) and Table 2
//!   (by RAM class: 991 / 41,395 / 787 / 2,184) exactly at full scale
//!   (up to a ±2 reconciliation documented on
//!   [`flavor::paper_flavor_catalog`]).
//! * **Utilization** — per-VM demand models in [`usage`] target the
//!   Figure 14 CDFs: CPU heavily overprovisioned (>80 % of VMs below 70 %
//!   mean utilization), memory much better aligned (≈38 % below 70 %,
//!   ≈10 % in 70–85 %, the rest above 85 %).
//! * **Lifetime** — heavy-tailed per-archetype distributions in
//!   [`lifetime`] spanning minutes to years with no size→lifetime
//!   correlation (Figure 15).
//! * **Workload classes** — SAP HANA VMs (memory-intensive, long-lived,
//!   placed on reserved building blocks, bin-packed) vs. general-purpose
//!   VMs (dev/CI/CD/Kubernetes, load-balanced), per Sections 3.1–3.2.
//!
//! The generator emits plain [`VmSpec`] values; the simulator in
//! `sapsim-core` turns them into lifecycle events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archetype;
pub mod flavor;
pub mod lifetime;
pub mod usage;

mod generator;
mod vmspec;

pub use archetype::{Archetype, ArchetypeParams};
pub use flavor::{
    paper_flavor_catalog, CpuClass, Flavor, FlavorCatalog, RamClass, WorkloadClass,
};
pub use generator::{GeneratorConfig, WorkloadGenerator};
pub use lifetime::LifetimeModel;
pub use usage::{DayPhase, ScrapeTick, UsageModel, UsageState};
pub use vmspec::{ResizeSpec, VmId, VmSpec};
