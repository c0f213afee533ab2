//! Scheduler comparison: run the same workload under vanilla spreading and
//! under the contention-aware extension, and compare what the paper's
//! Section 7 predicts — contention-aware placement should cut the worst
//! contention without hurting placeability.
//!
//! ```sh
//! cargo run --release --bin scheduler_comparison
//! ```

use sapsim_core::{SimConfig, SweepSpec};
use sapsim_scheduler::PolicyKind;
use sapsim_sweep::{run_sweep, SweepOptions};

fn main() {
    let base = SimConfig::builder()
        .scale(0.05)
        .days(4)
        .seed(7)
        .build()
        .expect("valid config");
    println!(
        "same workload (seed {}), two initial-placement policies, {} days at {:.0}% scale\n",
        base.seed,
        base.days,
        base.scale * 100.0
    );

    // A two-cell grid on the sweep pool: the same runs `sapsim sweep`
    // makes from a manifest with `"policies": ["spread", "contention-aware"]`.
    let mut spec = SweepSpec::new(base);
    spec.policies = vec![PolicyKind::Spread, PolicyKind::ContentionAware];
    let scenarios = spec.expand().expect("valid grid");
    let output = run_sweep(&scenarios, &SweepOptions::default()).expect("sweep runs");
    print!("{}", output.report.render());

    println!(
        "\nthe paper's guidance (Section 7): extend the Nova scheduler with \
         'current and historic utilization data, for example the contention \
         metrics' — this example is that extension, in ~40 lines of pipeline \
         configuration (see sapsim_scheduler::ContentionWeigher)."
    );
}
