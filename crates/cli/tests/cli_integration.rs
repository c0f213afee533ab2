//! CLI integration: drive every subcommand through the library entry
//! point, including an export → import round trip through a temp file,
//! a sweep over a manifest grid, and the stable exit-code contract.

use sapsim_cli::{run_to, CliError};
use sapsim_sweep::{RunSummary, SweepReport};

fn run_capture(parts: &[&str]) -> Result<String, CliError> {
    let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run_to(&argv, &mut out).map(|()| String::from_utf8(out).expect("utf8"))
}

#[test]
fn help_prints_usage() {
    let text = run_capture(&["help"]).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("simulate"));
    assert!(text.contains("sweep"));
    // No command at all also prints usage.
    let text = run_capture(&[]).unwrap();
    assert!(text.contains("USAGE"));
}

#[test]
fn unknown_command_errors() {
    let err = run_capture(&["frobnicate"]).unwrap_err();
    assert!(err.to_string().contains("frobnicate"));
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn simulate_prints_headline_findings() {
    let text = run_capture(&[
        "simulate",
        "--scale",
        "0.02",
        "--days",
        "1",
        "--no-warmup",
        "--seed",
        "3",
    ])
    .unwrap();
    assert!(text.contains("hypervisors"), "{text}");
    assert!(text.contains("placements:"));
    assert!(text.contains("cpu:"));
    assert!(text.contains("memory:"));
    assert!(text.contains("contention:"));
}

#[test]
fn simulate_json_prints_one_versioned_summary_line() {
    let text = run_capture(&[
        "simulate",
        "--scale",
        "0.02",
        "--days",
        "1",
        "--no-warmup",
        "--seed",
        "3",
        "--json",
    ])
    .unwrap();
    assert_eq!(text.lines().count(), 1, "one JSON object, nothing else");
    let summary = RunSummary::from_json_str(text.trim()).expect("valid summary");
    assert_eq!(summary.config.seed, 3);
    assert!(
        text.contains(r#""warmup_days":0,"threads":0}"#),
        "the config echo keeps its add-only `threads` key: {text}"
    );
    assert!(summary.stats.placed > 0);
    assert_eq!(summary.canonical_hash.len(), 16);
}

#[test]
fn simulate_rejects_bad_arguments() {
    assert!(run_capture(&["simulate", "--scale", "900"]).is_err());
    assert!(run_capture(&["simulate", "--policy", "nope"]).is_err());
    assert!(run_capture(&["simulate", "stray-positional"]).is_err());
    assert!(run_capture(&["simulate", "--bogus"]).is_err());
}

#[test]
fn exit_codes_separate_failure_classes() {
    // Usage: unknown option.
    assert_eq!(
        run_capture(&["simulate", "--bogus"]).unwrap_err().exit_code(),
        2
    );
    // Config: parseable arguments describing an invalid run.
    assert_eq!(
        run_capture(&["simulate", "--scale", "900"])
            .unwrap_err()
            .exit_code(),
        3
    );
    // ... including horizons whose day arithmetic would wrap or whose
    // rollup tables would not fit in memory.
    for argv in [
        &["simulate", "--days", "18446744073709551615"][..],
        &["simulate", "--days", "213503982335", "--no-warmup"][..],
        &["simulate", "--days", "100000000"][..],
        &["simulate", "--days", "3651", "--no-warmup"][..],
    ] {
        let err = run_capture(argv).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{argv:?}: {err}");
        assert!(err.to_string().starts_with("invalid config: days "), "{err}");
    }
    // Io: missing input file, and an output directory under a regular
    // file.
    assert_eq!(
        run_capture(&["import", "/nonexistent/definitely-not-here.csv"])
            .unwrap_err()
            .exit_code(),
        4
    );
    let file = std::env::temp_dir().join(format!("sapsim-cli-out-file-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let under = file.join("artifacts");
    let argv = ["simulate", "--scale", "0.02", "--days", "1", "--no-warmup", "--out"];
    let err = run_capture(&[&argv[..], &[under.to_str().unwrap()]].concat()).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    assert!(err.to_string().contains("cannot create"), "{err}");
    std::fs::remove_file(&file).unwrap();
    // Data: readable file, malformed content.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("sapsim-cli-badlog-{}.jsonl", std::process::id()));
    std::fs::write(&path, "not json\n").unwrap();
    let err = run_capture(&["obs", "summary", path.to_str().unwrap()]).unwrap_err();
    assert_eq!(err.exit_code(), 5, "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sweep_runs_a_manifest_grid() {
    let dir = std::env::temp_dir().join(format!("sapsim-cli-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("grid.json");
    std::fs::write(
        &manifest,
        r#"{
            "name": "cli-grid",
            "scale": 0.01,
            "days": 1,
            "warmup_days": 0,
            "seeds": [1, 2],
            "drs": [true, false]
        }"#,
    )
    .unwrap();
    let manifest_str = manifest.to_str().unwrap();
    let out_dir = dir.join("artifacts");
    let out_str = out_dir.to_str().unwrap();

    let text = run_capture(&[
        "sweep",
        manifest_str,
        "--workers",
        "2",
        "--out",
        out_str,
    ])
    .unwrap();
    assert!(text.contains("sweep `cli-grid`: 4 scenarios"), "{text}");
    assert!(text.contains("sweep report — 4 scenarios"), "{text}");
    assert!(text.contains("deltas vs baseline"), "{text}");

    // --out writes the report and overlay artifacts.
    let report_text = std::fs::read_to_string(out_dir.join("report.json")).unwrap();
    let report = SweepReport::from_json_str(&report_text).expect("valid report");
    assert_eq!(report.scenarios.len(), 4);
    let overlay = std::fs::read_to_string(out_dir.join("cdf_overlay.csv")).unwrap();
    assert!(overlay.starts_with("scenario,resource,utilization,cumulative_fraction"));

    // --json mode emits exactly the report object and matches the file.
    let json = run_capture(&["sweep", manifest_str, "--json"]).unwrap();
    assert_eq!(json.lines().count(), 1);
    assert_eq!(json.trim(), report_text, "report bytes are worker-count- and mode-independent");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_rejects_bad_manifests() {
    let err = run_capture(&["sweep"]).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");

    let err = run_capture(&["sweep", "/nonexistent/grid.json"]).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");

    let dir = std::env::temp_dir();
    let path = dir.join(format!("sapsim-cli-badgrid-{}.json", std::process::id()));
    std::fs::write(&path, r#"{"policies": ["best-fit"]}"#).unwrap();
    let err = run_capture(&["sweep", path.to_str().unwrap()]).unwrap_err();
    assert_eq!(err.exit_code(), 5, "{err}");
    assert!(err.to_string().contains("unknown policy `best-fit`"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn export_then_import_roundtrip() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("sapsim-cli-test-{}.csv", std::process::id()));
    let path_str = path.to_str().expect("utf8 path");

    let text = run_capture(&[
        "export",
        "--scale",
        "0.02",
        "--days",
        "1",
        "--no-warmup",
        "--anonymize",
        "42",
        path_str,
    ])
    .unwrap();
    assert!(text.contains("wrote"), "{text}");

    let text = run_capture(&["import", path_str, "--days", "1"]).unwrap();
    assert!(text.contains("loaded"));
    assert!(text.contains("vrops_hostsystem_cpu_contention_percentage"));
    assert!(text.contains("openstack_compute_instances_total"));

    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn simulate_with_obs_writes_logs_and_profile() {
    let dir = std::env::temp_dir();
    let jsonl = dir.join(format!("sapsim-cli-obs-{}.jsonl", std::process::id()));
    let chrome = dir.join(format!("sapsim-cli-obs-{}.trace.json", std::process::id()));
    let jsonl_str = jsonl.to_str().expect("utf8 path");
    let chrome_str = chrome.to_str().expect("utf8 path");

    let text = run_capture(&[
        "simulate",
        "--scale",
        "0.02",
        "--days",
        "1",
        "--no-warmup",
        "--seed",
        "3",
        "--obs-out",
        jsonl_str,
        "--obs-chrome",
        chrome_str,
    ])
    .unwrap();
    assert!(text.contains("obs: wrote"), "{text}");
    assert!(text.contains("event-loop profile"), "{text}");
    assert!(text.contains("scrape"), "{text}");

    // The JSONL log round-trips through `obs summary`.
    let summary = run_capture(&["obs", "summary", jsonl_str]).unwrap();
    assert!(summary.contains("events buffered"), "{summary}");
    assert!(summary.contains("decisions:"), "{summary}");
    assert!(summary.contains("placed:"), "{summary}");
    assert!(summary.contains("placements:"), "{summary}");

    // And through `--prom` into Prometheus counter families.
    let prom = run_capture(&["obs", "summary", jsonl_str, "--prom"]).unwrap();
    assert!(prom.contains("# TYPE sapsim_placements counter"), "{prom}");

    // The Chrome trace is a JSON array of complete events.
    let trace = std::fs::read_to_string(&chrome).expect("trace written");
    assert!(trace.trim_start().starts_with('['));
    assert!(trace.contains("\"ph\":\"X\""));

    std::fs::remove_file(&jsonl).expect("cleanup");
    std::fs::remove_file(&chrome).expect("cleanup");
}

#[test]
fn simulate_with_faults_prints_the_fault_summary() {
    // 30 failures/month over 1 day ≈ probability 1.0 per node: the fault
    // section is guaranteed to report activity.
    let text = run_capture(&[
        "simulate",
        "--scale",
        "0.02",
        "--days",
        "1",
        "--no-warmup",
        "--seed",
        "3",
        "--faults",
        "fail=30.0,downtime=2,straggler=0.5,slowdown=0.6,dropout=15.0,dropout-hours=3",
    ])
    .unwrap();
    assert!(text.contains("faults:"), "{text}");
    assert!(text.contains("host failures:"), "{text}");
    assert!(text.contains("evacuations:"), "{text}");
    assert!(text.contains("dropout windows"), "{text}");
    assert!(
        !text.contains("host failures: 0 "),
        "failures occurred: {text}"
    );
}

#[test]
fn simulate_rejects_bad_fault_specs() {
    let err = run_capture(&["simulate", "--faults", "no-such-key=1"]).unwrap_err();
    assert!(err.to_string().contains("faults"), "{err}");
    assert_eq!(err.exit_code(), 2, "inline syntax is a usage error");
    let err = run_capture(&["simulate", "--faults", "slowdown=0"]).unwrap_err();
    assert!(err.to_string().contains("slowdown"), "{err}");
    assert_eq!(err.exit_code(), 3, "invalid knob values are config errors");
    let err = run_capture(&["simulate", "--overcommit", "nan"]).unwrap_err();
    assert!(err.to_string().contains("invalid config"), "{err}");
    assert_eq!(err.exit_code(), 3, "a non-finite ratio is a config error");
    for spec in [
        "backoff=18446744073709551615,fail=30",
        "fail=30,downtime=1e300",
        "dropout=5,dropout-hours=1e300",
    ] {
        let err = run_capture(&["simulate", "--faults", spec]).unwrap_err();
        assert!(err.to_string().starts_with("invalid config: faults: "), "{err}");
        assert_eq!(err.exit_code(), 3, "{spec}: a duration past the clock is a config error");
    }
}

#[test]
fn obs_summary_roundtrips_fault_events() {
    let dir = std::env::temp_dir();
    let jsonl = dir.join(format!("sapsim-cli-faults-{}.jsonl", std::process::id()));
    let jsonl_str = jsonl.to_str().expect("utf8 path");

    run_capture(&[
        "simulate",
        "--scale",
        "0.02",
        "--days",
        "1",
        "--no-warmup",
        "--seed",
        "3",
        "--faults",
        "fail=30.0,downtime=2",
        "--obs-out",
        jsonl_str,
    ])
    .unwrap();

    let summary = run_capture(&["obs", "summary", jsonl_str]).unwrap();
    assert!(summary.contains("fault events:"), "{summary}");
    assert!(summary.contains("host_fail:"), "{summary}");

    std::fs::remove_file(&jsonl).expect("cleanup");
}

#[test]
fn obs_knobs_without_output_error() {
    let err = run_capture(&["simulate", "--obs-sample", "0.5"]).unwrap_err();
    assert!(err.to_string().contains("--obs-out"), "{err}");
}

#[test]
fn obs_summary_missing_file_errors() {
    let err = run_capture(&["obs", "summary", "/nonexistent/definitely-not.jsonl"]).unwrap_err();
    assert!(err.to_string().contains("cannot read"));
    assert_eq!(err.exit_code(), 4);
}

#[test]
fn tables_prints_all_three() {
    let text = run_capture(&["tables"]).unwrap();
    assert!(text.contains("Table 3"));
    assert!(text.contains("SAP (this work)"));
    assert!(text.contains("vrops_hostsystem_cpu_ready_milliseconds"));
    assert!(text.contains("1072"), "table 5 data present");
}

#[test]
fn import_missing_file_errors() {
    let err = run_capture(&["import", "/nonexistent/definitely-not-here.csv"]).unwrap_err();
    assert!(err.to_string().contains("cannot open"));
}

#[test]
fn simulate_snapshot_then_resume_reproduces_the_run() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("sapsim-cli-snap-{}.snapshot", std::process::id()));
    let snap_str = snap.to_str().expect("utf8 path");
    let base = &[
        "simulate", "--scale", "0.02", "--days", "1", "--no-warmup", "--seed", "7", "--json",
    ];

    let cold = run_capture(base).unwrap();
    let argv: Vec<&str> = base
        .iter()
        .copied()
        .chain(["--snapshot-at", "0.5", "--snapshot-out", snap_str])
        .collect();
    let capturing = run_capture(&argv).unwrap();
    assert_eq!(
        capturing, cold,
        "pausing to capture must not move the run summary"
    );
    let text = std::fs::read_to_string(&snap).expect("snapshot written");
    assert!(text.starts_with("{\"schema\":\"sapsim.snapshot/v1\""), "{text}");

    let resumed = run_capture(&["simulate", "--resume", snap_str, "--json"]).unwrap();
    assert_eq!(resumed, cold, "resume must land on the cold run's summary");

    // The heartbeat observes a resumed run like a cold one: stderr only.
    let watched = run_capture(&["simulate", "--resume", snap_str, "--progress", "--json"]).unwrap();
    assert_eq!(watched, resumed, "--progress moved the resumed summary");

    // The human-readable resume path announces where it starts from.
    let human = run_capture(&["simulate", "--resume", snap_str]).unwrap();
    assert!(human.contains("resuming day 0.50 of 1"), "{human}");
    assert!(human.contains("placements:"), "{human}");

    std::fs::remove_file(&snap).expect("cleanup");
}

#[test]
fn the_removed_second_loop_option_is_a_usage_error() {
    // The option selected a second event loop that no longer exists; it is
    // refused like any unknown option, before any file is opened.
    const REMOVED: &str = "--shard-threads";
    for argv in [
        &["simulate", "--scale", "0.02", "--days", "1", REMOVED, "2"][..],
        &["simulate", "--resume", "never-read.snapshot", REMOVED, "2"][..],
        &["sweep", "never-read.json", REMOVED, "2"][..],
    ] {
        let err = run_capture(argv).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{argv:?}: {err}");
        assert!(err.to_string().contains(REMOVED), "{argv:?}: {err}");
    }
    assert!(!run_capture(&["help"]).unwrap().contains(REMOVED));
}

#[test]
fn snapshot_flags_must_come_in_pairs_and_not_with_resume() {
    let err = run_capture(&["simulate", "--snapshot-at", "0.5"]).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("--snapshot-out"), "{err}");

    let err = run_capture(&["simulate", "--snapshot-out", "x.snapshot"]).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");

    let err = run_capture(&[
        "simulate", "--resume", "x.snapshot", "--snapshot-at", "0.5", "--snapshot-out", "y",
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");

    let err = run_capture(&["simulate", "--snapshot-at", "nope", "--snapshot-out", "y"])
        .unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");

    // A capture instant past the horizon is a config error, not usage.
    let err = run_capture(&[
        "simulate", "--scale", "0.02", "--days", "1", "--no-warmup", "--snapshot-at", "5",
        "--snapshot-out", "never-written.snapshot",
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");
}

#[test]
fn resume_rejects_config_shaping_options() {
    // The conflict check fires before the file is even opened.
    let conflicts: [&[&str]; 5] = [
        &["--days", "3"],
        &["--seed", "9"],
        &["--policy", "spread"],
        &["--no-drs"],
        &["--no-warmup"],
    ];
    for conflicting in conflicts {
        let mut argv = vec!["simulate", "--resume", "missing.snapshot"];
        argv.extend(conflicting.iter());
        let err = run_capture(&argv).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--resume"), "{err}");
    }
}

#[test]
fn corrupt_snapshots_fail_with_typed_exit_codes() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("sapsim-cli-corrupt-{}.snapshot", std::process::id()));
    let snap_str = snap.to_str().expect("utf8 path");
    run_capture(&[
        "simulate", "--scale", "0.02", "--days", "1", "--no-warmup", "--seed", "7",
        "--snapshot-at", "0.5", "--snapshot-out", snap_str, "--json",
    ])
    .unwrap();
    let good = std::fs::read_to_string(&snap).unwrap();

    // Missing file: I/O.
    let err = run_capture(&["simulate", "--resume", "/nonexistent/x.snapshot"]).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");

    // Truncation, schema drift, hash tampering, and a re-signed body
    // queueing an arrival for a spec the config does not derive: data
    // errors, never a panic.
    let header_len = good.find('\n').unwrap();
    let bogus_body =
        good[header_len + 1..]
            .trim_end()
            .replacen("\"Scrape\"]", "{\"VmArrival\":99999999}]", 1);
    let cases: [String; 5] = [
        good[..header_len].to_string(),
        good.replacen("sapsim.snapshot/v1", "sapsim.snapshot/v0", 1),
        good.replacen(&good[..header_len], "", 1),
        {
            let mut tampered = good.clone();
            tampered.truncate(good.len() - good.len() / 3);
            tampered
        },
        format!(
            "{{\"schema\":\"sapsim.snapshot/v1\",\"canonical_hash\":\"{:016x}\"}}\n{bogus_body}\n",
            sapsim_core::fnv1a_64(bogus_body.as_bytes())
        ),
    ];
    for (i, case) in cases.iter().enumerate() {
        std::fs::write(&snap, case).unwrap();
        let err = run_capture(&["simulate", "--resume", snap_str]).unwrap_err();
        assert_eq!(err.exit_code(), 5, "case {i}: {err}");
    }

    std::fs::remove_file(&snap).expect("cleanup");
}

#[test]
fn resume_requires_restating_the_fault_spec() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("sapsim-cli-restate-{}.snapshot", std::process::id()));
    let snap_str = snap.to_str().expect("utf8 path");
    let spec = "fail=30.0,downtime=2";
    let base = &[
        "simulate", "--scale", "0.02", "--days", "1", "--no-warmup", "--seed", "7", "--faults",
        spec, "--json",
    ];
    let cold = run_capture(base).unwrap();
    let argv: Vec<&str> = base
        .iter()
        .copied()
        .chain(["--snapshot-at", "0.5", "--snapshot-out", snap_str])
        .collect();
    run_capture(&argv).unwrap();

    // Resuming without restating the spec (or with a different one) is a
    // configuration error; restating it reproduces the cold run.
    let err = run_capture(&["simulate", "--resume", snap_str]).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");
    assert!(err.to_string().contains("restate"), "{err}");
    let err = run_capture(&["simulate", "--resume", snap_str, "--faults", "fail=1.0"])
        .unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");
    let resumed =
        run_capture(&["simulate", "--resume", snap_str, "--faults", spec, "--json"]).unwrap();
    assert_eq!(resumed, cold);

    std::fs::remove_file(&snap).expect("cleanup");
}

/// The files of an output directory as sorted (name, contents) pairs.
fn read_dir_sorted(dir: &std::path::Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn simulate_out_writes_every_paper_artifact_of_the_run() {
    let dir = std::env::temp_dir().join(format!("sapsim-cli-out-{}", std::process::id()));
    let argv = ["simulate", "--scale", "0.02", "--days", "2", "--seed", "7", "--out"];
    let text = run_capture(&[&argv[..], &[dir.to_str().unwrap()]].concat()).unwrap();
    assert!(text.contains("contention:") && text.contains("wrote 16 paper artifacts"), "{text}");

    let mut cfg = sapsim_core::SimConfig::default();
    (cfg.scale, cfg.days, cfg.seed) = (0.02, 2, 7);
    let run = sapsim_core::SimDriver::new(cfg).unwrap().run();
    let mut want: Vec<(String, String)> = sapsim_analysis::artifacts::paper_artifacts(&run)
        .into_iter()
        .map(|a| (a.name.to_string(), a.contents))
        .collect();
    want.sort();
    let names: Vec<&str> = want.iter().map(|(name, _)| name.as_str()).collect();
    let expected = "fig10_memory_heatmap.csv fig11_net_tx_heatmap.csv fig12_net_rx_heatmap.csv \
        fig13_storage_heatmap.csv fig14a_cpu_cdf.csv fig14b_mem_cdf.csv fig15_lifetimes.csv \
        fig5_cpu_heatmap.csv fig6_bb_cpu_heatmap.csv fig7_bb_nodes_heatmap.csv \
        fig8_ready_time.csv fig9_contention.csv report.txt table3_comparison.txt \
        table4_metrics.txt table5_datacenters.txt";
    assert_eq!(names, expected.split_whitespace().collect::<Vec<_>>());
    assert!(read_dir_sorted(&dir) == want, "files differ from paper_artifacts of the same run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn simulate_out_is_the_same_cold_json_and_resumed() {
    let dir = std::env::temp_dir().join(format!("sapsim-cli-out-resume-{}", std::process::id()));
    let (cold, resumed, snap) = (dir.join("cold"), dir.join("resumed"), dir.join("run.snapshot"));
    let [cold_str, resumed_str, snap_str] = [&cold, &resumed, &snap].map(|p| p.to_str().unwrap());
    let base = ["simulate", "--scale", "0.02", "--days", "2", "--seed", "7", "--json"];

    // --json keeps stdout the one summary line with --out on.
    let json = run_capture(&base).unwrap();
    assert_eq!(run_capture(&[&base[..], &["--out", cold_str]].concat()).unwrap(), json);
    let capture = [&base[..], &["--snapshot-at", "8", "--snapshot-out", snap_str]].concat();
    assert_eq!(run_capture(&capture).unwrap(), json);
    let text = run_capture(&["simulate", "--resume", snap_str, "--out", resumed_str]).unwrap();
    assert!(text.contains("resuming day 8.00 of 2"), "{text}");

    let (cold, resumed) = (read_dir_sorted(&cold), read_dir_sorted(&resumed));
    assert_eq!(cold.len(), 16);
    for ((name, a), (other, b)) in cold.iter().zip(&resumed) {
        assert!(name == other && a == b, "{name}: resumed run wrote other bytes than its cold twin");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
