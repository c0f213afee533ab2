//! # sapsim-analysis — figure and table regeneration
//!
//! Consumes a [`RunResult`](sapsim_core::RunResult) (or a trace imported
//! via [`trace`]) and reproduces every artifact of the paper's
//! evaluation. [`artifacts::paper_artifacts`] computes all of them from
//! one run; `sapsim simulate --out DIR` writes them:
//!
//! | Paper artifact | Module | File |
//! |---|---|---|
//! | Fig. 5–7 free-CPU heatmaps | [`heatmap`] | `fig5_cpu_heatmap.csv`, `fig6_bb_cpu_heatmap.csv`, `fig7_bb_nodes_heatmap.csv` |
//! | Fig. 8 top-10 CPU ready time | [`ready_time`] | `fig8_ready_time.csv` |
//! | Fig. 9 contention aggregates | [`contention`] | `fig9_contention.csv` |
//! | Fig. 10 free-memory heatmap | [`heatmap`] | `fig10_memory_heatmap.csv` |
//! | Fig. 11/12 network heatmaps | [`heatmap`] | `fig11_net_tx_heatmap.csv`, `fig12_net_rx_heatmap.csv` |
//! | Fig. 13 free-storage heatmap | [`heatmap`], `storage` | `fig13_storage_heatmap.csv` |
//! | Fig. 14 utilization CDFs | [`cdf`] | `fig14a_cpu_cdf.csv`, `fig14b_mem_cdf.csv` |
//! | Fig. 15 lifetime per flavor | [`lifetime`] | `fig15_lifetimes.csv` |
//! | Tables 1/2 VM classification | [`classify`] | `report.txt` |
//! | Table 3 dataset comparison | [`tables`] | `table3_comparison.txt` |
//! | Table 4 metric catalog | [`tables`] | `table4_metrics.txt` |
//! | Table 5 DC overview | [`tables`] | `table5_datacenters.txt` |
//! | Ablations A1–A3 | [`heatmap::cpu_imbalance`] and the sweep summary | `experiments/*.json`, run by `sapsim sweep` |
//!
//! `report.txt` also holds the ASCII heatmaps and each artifact's check
//! against the paper's numbers. Rendering is plain text (ASCII heatmap
//! shading + aligned tables) plus CSV emitters for external plotting.

mod anonymize;
pub mod artifacts;
pub mod cdf;
pub mod classify;
pub mod contention;
pub mod heatmap;
pub mod lifetime;
mod reader;
pub mod ready_time;
mod storage;
pub mod tables;
pub mod trace;
mod writer;
