//! Integration: the exact bytes `sapsim obs` prints for committed
//! fixtures, driven through the CLI entry point so the pages are pinned
//! whichever code renders them.
//!
//! * `obs metrics A B --prom` merges two `sapsim.metrics/v1` snapshots
//!   holding plain and labeled counters, a name outside the metric
//!   charset, a label value with `"`, `\` and a newline, integer,
//!   fractional and negative gauges, and labeled and unlabeled histograms,
//!   one of them with an observation in the top (`u64::MAX`) bucket.
//! * `obs summary LOG --prom` and plain `obs summary LOG` on lines taken
//!   from a `simulate --obs-out` log of a faulted run.
//!
//! The fixtures and expected pages are in `tests/golden/obs/`; a
//! mismatch is a failure, never a re-bless.

use std::path::PathBuf;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden/obs")
        .join(name)
}

fn sapsim(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    sapsim_cli::run_to(&argv, &mut out).expect("command succeeds");
    String::from_utf8(out).expect("utf8")
}

fn assert_golden(page: &str, expected: &str) {
    let want = std::fs::read_to_string(golden(expected)).expect("golden page");
    assert!(page == want, "{expected} drifted:\n--- got\n{page}--- want\n{want}");
}

#[test]
fn obs_metrics_prom_page_is_byte_stable() {
    let (a, b) = (golden("a.metrics.json"), golden("b.metrics.json"));
    let page = sapsim(&["obs", "metrics", a.to_str().unwrap(), b.to_str().unwrap(), "--prom"]);
    assert_golden(&page, "metrics.prom");
}

#[test]
fn obs_summary_prom_page_is_byte_stable() {
    let log = golden("run.obs.jsonl");
    let page = sapsim(&["obs", "summary", log.to_str().unwrap(), "--prom"]);
    assert_golden(&page, "summary.prom");
}

#[test]
fn obs_summary_report_is_byte_stable() {
    let log = golden("run.obs.jsonl");
    let page = sapsim(&["obs", "summary", log.to_str().unwrap()]);
    assert_golden(&page, "summary.txt");
}
