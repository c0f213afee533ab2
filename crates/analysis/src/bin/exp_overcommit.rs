//! Ablation A2: the vCPU:pCPU overcommit sweep — "the overcommit factor
//! should be reconsidered ... a more dynamic and workload-based approach
//! might help" (paper Section 7).

use sapsim_analysis::ablation::{ablation_csv, render_ablation, run_overcommit_sweep};
use sapsim_analysis::report;

fn main() {
    let base = report::experiment_config();
    let ratios = [1.0, 2.0, 4.0, 6.0, 8.0];
    eprintln!(
        "sapsim: A2 overcommit sweep over {ratios:?} at scale {:.2}, {} days each",
        base.scale, base.days
    );
    let rows = run_overcommit_sweep(base, &ratios);
    println!("{}", render_ablation(&rows));
    println!(
        "reading guide: low ratios refuse placements (placed% drops) but stay quiet; \
         high ratios accept everything and pay in contention and ready time — \
         the trade-off behind the paper's overcommit guidance. The production ratio is 4.0."
    );
    let path = report::write_artifact("ablation_overcommit.csv", &ablation_csv(&rows)).expect("write");
    println!("wrote {}", path.display());
}
