//! Integration: the sweep determinism contract, end to end.
//!
//! The acceptance grid is a 12-run manifest — 2 policies × 2 placement
//! granularities × 3 seeds — exercised with the fault layer both off and
//! on. The contract pinned here:
//!
//! 1. The canonical sweep output (report JSON + overlay CSVs) is
//!    byte-identical at 1, 2, and 8 workers.
//! 2. Every pooled outcome is identical to the same scenario executed
//!    sequentially on its own driver — the `sapsim simulate` path.
//! 3. Expansion order, names, and content-addressed ids are stable.

use sapsim_core::{fnv1a_64, Scenario};
use sapsim_sweep::{parse_manifest, run_sweep, RunSummary, SweepOptions, SWEEP_REPORT_SCHEMA};

/// The acceptance manifest: 2 policies × 2 granularities × 3 seeds = 12
/// scenarios, with the fault layer toggled by `faults`.
fn acceptance_manifest(faults: bool) -> String {
    let fault_axis = if faults {
        r#""faults": ["fail=2,downtime=6"],"#
    } else {
        ""
    };
    format!(
        r#"{{
            "name": "acceptance-grid",
            "scale": 0.01,
            "days": 1,
            "warmup_days": 0,
            {fault_axis}
            "seeds": [1, 2, 3],
            "policies": ["paper-default", "spread"],
            "granularities": ["bb", "node"]
        }}"#
    )
}

fn expand(faults: bool) -> Vec<Scenario> {
    let manifest = parse_manifest(&acceptance_manifest(faults)).expect("valid manifest");
    assert_eq!(manifest.name, "acceptance-grid");
    let scenarios = manifest.spec.expand().expect("valid grid");
    assert_eq!(scenarios.len(), 12, "the acceptance grid is 12 runs");
    scenarios
}

#[test]
fn twelve_run_grid_is_byte_identical_across_1_2_and_8_workers() {
    for faults in [false, true] {
        let scenarios = expand(faults);
        let outputs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let options = SweepOptions {
                    workers,
                    collect_artifacts: true,
                    ..SweepOptions::default()
                };
                run_sweep(&scenarios, &options).expect("sweep runs")
            })
            .collect();

        let reference = outputs[0].report.to_json();
        assert!(reference.contains(SWEEP_REPORT_SCHEMA));
        for (output, workers) in outputs.iter().zip([1, 2, 8]) {
            assert_eq!(
                output.report.to_json(),
                reference,
                "report drifted at {workers} workers (faults={faults})"
            );
            assert_eq!(
                output.cdf_overlay_csv(),
                outputs[0].cdf_overlay_csv(),
                "CDF overlay drifted at {workers} workers (faults={faults})"
            );
            assert_eq!(
                output.contention_overlay_csv(),
                outputs[0].contention_overlay_csv(),
                "contention overlay drifted at {workers} workers (faults={faults})"
            );
        }
    }
}

#[test]
fn pooled_outcomes_match_sequential_execution() {
    // The faults-on grid is the harder case: host failures stress the
    // per-run RNG streams, so any cross-run state leak in the pool would
    // show up here first.
    let scenarios = expand(true);
    let options = SweepOptions {
        workers: 8,
        ..SweepOptions::default()
    };
    let output = run_sweep(&scenarios, &options).expect("sweep runs");
    assert_eq!(output.report.scenarios.len(), scenarios.len());

    for (outcome, scenario) in output.report.scenarios.iter().zip(&scenarios) {
        assert_eq!(outcome.name, scenario.name());
        assert_eq!(outcome.id, scenario.id());

        // The same run, executed alone — the `sapsim simulate` path.
        let solo = scenario.run();
        let solo_summary = RunSummary::from_run(&solo);
        assert_eq!(
            outcome.summary,
            solo_summary,
            "pooled and sequential runs disagree for `{}`",
            scenario.name()
        );
        // The canonical hash really is the FNV-1a 64 of the run's
        // canonical bytes — the witness is re-derivable, not opaque.
        assert_eq!(
            outcome.summary.canonical_hash,
            format!("{:016x}", fnv1a_64(&solo.canonical_bytes())),
        );
    }
}

#[test]
fn expansion_is_stable_and_names_are_unique() {
    let first = expand(false);
    let second = expand(false);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.id(), b.id());
    }
    // Names double as artifact file stems, so they must be unique.
    let mut names: Vec<&str> = first.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 12);
    // Seed varies fastest, policy slowest — the documented nesting.
    assert_eq!(first[0].name(), "paper-default-bb-s1");
    assert_eq!(first[1].name(), "paper-default-bb-s2");
    assert_eq!(first[11].name(), "spread-node-s3");
}

/// The Section 7 ablations A1–A3 are committed manifests; each must
/// parse and expand to its grid (CI re-runs them against
/// `out/ablations/`).
#[test]
fn committed_experiment_manifests_parse_and_expand() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../experiments");
    let mut found: Vec<(String, usize)> = std::fs::read_dir(&dir)
        .expect("experiments/ exists")
        .map(|entry| {
            let path = entry.expect("readable entry").path();
            let text = std::fs::read_to_string(&path).expect("readable manifest");
            let manifest =
                parse_manifest(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                path.file_stem().and_then(|s| s.to_str()),
                Some(manifest.name.as_str()),
                "a manifest's name is its file stem (its out/ablations/ directory)"
            );
            let cells = manifest.spec.expand().expect("valid grid").len();
            (manifest.name, cells)
        })
        .collect();
    found.sort();
    let expected = [
        ("a1-policies", 10),
        ("a2-overcommit", 5),
        ("a3-rebalance", 4),
    ];
    let expected: Vec<(String, usize)> =
        expected.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    assert_eq!(found, expected);
}

/// `cpu_imbalance_pct` was appended to `sapsim.run-summary/v1`; a line
/// written before it still decodes, with the field at 0.
#[test]
fn a_run_summary_written_before_the_imbalance_field_still_decodes() {
    let line = include_str!("../golden/run_summary_v1_before_imbalance.json");
    assert!(!line.contains("cpu_imbalance_pct"));
    let summary = RunSummary::from_json_str(line.trim_end()).expect("decodes");
    assert_eq!(summary.canonical_hash, "0950fb7cb91f801d");
    assert_eq!(summary.config.seed, 3);
    let again = RunSummary::from_json_str(&summary.to_json()).expect("re-decodes");
    assert_eq!(again, summary);
}
