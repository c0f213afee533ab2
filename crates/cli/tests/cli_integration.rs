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
fn obs_summary_prom_emits_one_family_per_counter_name() {
    // Two `simulate --obs-out` logs concatenated: every counter twice.
    let log = concat!(
        "{\"type\":\"meta\",\"version\":1,\"decision_sample_rate\":1,",
        "\"ring_capacity\":8,\"events\":0,\"dropped\":0}\n",
        "{\"type\":\"counter\",\"name\":\"drs_migrations\",\"value\":4}\n",
        "{\"type\":\"counter\",\"name\":\"placements\",\"value\":812}\n",
    )
    .repeat(2);
    let path = std::env::temp_dir().join(format!("sapsim-cli-twice-{}.jsonl", std::process::id()));
    std::fs::write(&path, log).expect("write log");
    let page = run_capture(&["obs", "summary", path.to_str().unwrap(), "--prom"]).unwrap();
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(
        page,
        "# HELP sapsim_drs_migrations Simulator event counter\n\
         # TYPE sapsim_drs_migrations counter\n\
         sapsim_drs_migrations 8\n\
         # HELP sapsim_placements Simulator event counter\n\
         # TYPE sapsim_placements counter\n\
         sapsim_placements 1624\n"
    );
}

#[test]
fn obs_summary_folds_each_counter_once() {
    // The golden log concatenated with itself: the plain view adds each
    // counter by name, as `--prom` does, and prints it once.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/obs/run.obs.jsonl"
    );
    let log = std::fs::read_to_string(fixture)
        .expect("golden log")
        .repeat(2);
    let path = std::env::temp_dir().join(format!("sapsim-cli-fold-{}.jsonl", std::process::id()));
    std::fs::write(&path, log).expect("write log");
    let text = run_capture(&["obs", "summary", path.to_str().unwrap()]).unwrap();
    std::fs::remove_file(&path).expect("cleanup");
    let departures: Vec<_> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("departures:"))
        .collect();
    assert_eq!(departures, ["  departures: 166"], "{text}");
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
fn the_removed_second_loop_option_is_a_usage_error() {
    // The option selected a second event loop that no longer exists; it is
    // refused like any unknown option, before any file is opened.
    const REMOVED: &str = "--shard-threads";
    for argv in [
        &["simulate", "--scale", "0.02", "--days", "1", REMOVED, "2"][..],
        &["sweep", "never-read.json", REMOVED, "2"][..],
    ] {
        let err = run_capture(argv).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{argv:?}: {err}");
        assert!(err.to_string().contains(REMOVED), "{argv:?}: {err}");
    }
    assert!(!run_capture(&["help"]).unwrap().contains(REMOVED));
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
fn simulate_out_is_the_same_with_and_without_json() {
    let dir = std::env::temp_dir().join(format!("sapsim-cli-out-json-{}", std::process::id()));
    let (human, json_dir) = (dir.join("human"), dir.join("json"));
    let [human_str, json_str] = [&human, &json_dir].map(|p| p.to_str().unwrap());
    let base = ["simulate", "--scale", "0.02", "--days", "2", "--seed", "7"];

    // --json keeps stdout the one summary line with --out on.
    let json = run_capture(&[&base[..], &["--json"]].concat()).unwrap();
    let with_out = run_capture(&[&base[..], &["--json", "--out", json_str]].concat()).unwrap();
    assert_eq!(with_out, json);
    let text = run_capture(&[&base[..], &["--out", human_str]].concat()).unwrap();
    assert!(text.contains("wrote 16 paper artifacts"), "{text}");

    let (human, json_dir) = (read_dir_sorted(&human), read_dir_sorted(&json_dir));
    assert_eq!(human.len(), 16);
    for ((name, a), (other, b)) in human.iter().zip(&json_dir) {
        assert!(
            name == other && a == b,
            "{name}: the --json run wrote other bytes"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn the_removed_snapshot_options_are_usage_errors() {
    // Snapshots are gone: a run is reproduced from its config and seed.
    // The options are refused like any unknown option, before any file is
    // opened or written and before the run starts.
    let dir = std::env::temp_dir().join(format!("sapsim-cli-no-snap-{}", std::process::id()));
    let file = dir.join("run.snapshot");
    let file_str = file.to_str().unwrap();
    for (argv, named) in [
        (&["simulate", "--resume", file_str][..], "--resume"),
        (
            &["simulate", "--snapshot-at", "1", "--snapshot-out", file_str][..],
            "--snapshot-at",
        ),
        (
            &["simulate", "--snapshot-out", file_str][..],
            "--snapshot-out",
        ),
    ] {
        let mut out = Vec::new();
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let err = run_to(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{argv:?}: {err}");
        assert!(err.to_string().contains(named), "{argv:?}: {err}");
        assert!(out.is_empty(), "{argv:?}: the run started");
        assert!(
            !file.exists() && !dir.exists(),
            "{argv:?}: a file was written"
        );
    }
    let help = run_capture(&["help"]).unwrap();
    assert!(
        !help.contains("--resume") && !help.contains("SNAPSHOT OPTIONS"),
        "{help}"
    );
}

/// A reader that left before the command wrote (the read end of its
/// stdout pipe is closed before spawn) ends it quietly with 0.
#[test]
fn a_closed_stdout_pipe_ends_the_command_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_sapsim"))
        .arg("tables")
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn sapsim");
    let output = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
