//! Ablation A3: rebalancing layers on/off — quantifies "imbalances caused
//! by infrastructure fragmentation should be addressed with continuous
//! migration mechanisms across BBs" (paper Section 7).

use sapsim_analysis::ablation::{ablation_csv, render_ablation, run_rebalance_ablation};
use sapsim_analysis::report;

fn main() {
    let base = report::experiment_config();
    eprintln!(
        "sapsim: A3 rebalancing ablation at scale {:.2}, {} days each",
        base.scale, base.days
    );
    let rows = run_rebalance_ablation(base);
    println!("{}", render_ablation(&rows));
    println!(
        "reading guide: 'drs-only' is the paper's production architecture; adding the \
         cross-BB rebalancer attacks the inter-block imbalance that the paper says \
         'requires manual intervention or external rebalancers'."
    );
    let path = report::write_artifact("ablation_rebalance.csv", &ablation_csv(&rows)).expect("write");
    println!("wrote {}", path.display());
}
