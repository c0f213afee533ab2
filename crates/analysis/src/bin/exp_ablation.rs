//! Ablation A1: placement-policy comparison at both scheduling
//! granularities — the quantitative counterpart of the paper's Section 7
//! guidance (contention-aware placement, lifetime-aware placement, and a
//! holistic node-level scheduler vs. the two-layer production setup).

use sapsim_analysis::ablation::{ablation_csv, render_ablation, run_policy_ablation};
use sapsim_analysis::report;

fn main() {
    let base = report::experiment_config();
    eprintln!(
        "sapsim: A1 policy ablation — 5 policies x 2 granularities at scale {:.2}, {} days each",
        base.scale, base.days
    );
    let rows = run_policy_ablation(base);
    println!("{}", render_ablation(&rows));
    println!(
        "reading guide: 'bb' rows use the paper's two-layer Nova→DRS architecture; \
         'node' rows are the holistic single-layer scheduler (Section 7). \
         retries/k measures intra-cluster fragmentation; imbalance is the std-dev \
         of per-node mean CPU utilization behind Figures 5-7."
    );
    let path = report::write_artifact("ablation_policies.csv", &ablation_csv(&rows)).expect("write");
    println!("wrote {}", path.display());
}
