//! `sapsim obs` — inspect observability artifacts offline.
//!
//! `sapsim obs summary run.jsonl` re-aggregates a decision/span log written
//! by `simulate --obs-out` into the run's diagnostic headline: span timing
//! per event-loop phase, placement outcomes, filter rejection totals, and
//! the event counters. The counters fold once into a [`MetricsRegistry`]
//! (same-name counters add, so a concatenation of logs still has one line
//! per name); the plain view lists that fold, and `--prom` prints it as
//! its Prometheus page.
//!
//! `sapsim obs metrics FILE...` merges one or more `sapsim.metrics/v1`
//! snapshots (from `simulate --metrics-out` or `sweep --metrics-dir`) into
//! a single view: counters add, gauges take the last file's value, and the
//! fixed-boundary histograms merge bucket-wise without loss. With `--prom`
//! the merged registry renders as a full Prometheus page (counter, gauge,
//! and histogram families). Both pages, like `serve`'s `/metrics`, come
//! from [`MetricsRegistry::to_prometheus`].
//!
//! Both read through the declarations that wrote the files:
//! [`LogLine`] for the log, [`MetricsRegistry`]'s own decoder for the
//! snapshots. Totals saturate, because the numbers come from files.

use crate::args::Parsed;
use crate::error::CliError;
use sapsim_json::decode;
use sapsim_obs::{Histogram, LogLine, MetricKey, MetricsRegistry};
use std::collections::BTreeMap;
use std::io::Write;

/// Per-span-kind aggregate rebuilt from the log.
#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// Everything `summary` extracts from one pass over the log.
#[derive(Default)]
struct Summary {
    meta: Option<(f64, u64, u64, u64)>, // (sample rate, ring capacity, events, dropped)
    spans: BTreeMap<&'static str, SpanAgg>,
    outcomes: BTreeMap<&'static str, u64>,
    rejections: BTreeMap<String, u64>,
    decisions: u64,
    retries_total: u64,
    retries_max: u64,
    candidates_total: u64,
    faults: BTreeMap<&'static str, u64>,
    /// The event counters, folded by name.
    counters: MetricsRegistry,
}

const USAGE: &str = "usage: sapsim obs summary <FILE.jsonl> [--prom]\n       sapsim obs metrics <FILE.json>... [--prom]";

/// Execute the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &["prom"])?;
    let Some((action, paths)) = parsed.positionals().split_first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
    };
    match action.as_str() {
        "summary" => {
            let [path] = paths else {
                return Err(CliError::Usage(USAGE.into()));
            };
            let summary = summarize(&read(path)?)?;
            if parsed.flag("prom") {
                let help = ["Simulator event counter"; 3];
                write!(out, "{}", summary.counters.to_prometheus(help))?;
                return Ok(());
            }
            render(&summary, out)?;
            Ok(())
        }
        "metrics" => {
            if paths.is_empty() {
                return Err(CliError::Usage(USAGE.into()));
            }
            let mut merged = MetricsRegistry::new();
            for path in paths {
                let snapshot: MetricsRegistry = decode(read(path)?.trim()).map_err(|e| {
                    CliError::Data(format!("{path}: not a sapsim.metrics/v1 snapshot: {e}"))
                })?;
                merged.merge(&snapshot);
            }
            if !parsed.flag("prom") {
                return Ok(metrics_table(&merged, paths.len(), out)?);
            }
            let help = [
                "Merged engine counter",
                "Merged engine gauge",
                "Merged engine histogram",
            ];
            write!(out, "{}", merged.to_prometheus(help))?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown obs action `{other}` (expected `summary` or `metrics`)"
        ))),
    }
}

/// One pass over the JSONL text, one [`LogLine`] per non-blank line.
/// Malformed lines are data errors: the file was readable, its content
/// was not.
fn summarize(text: &str) -> Result<Summary, CliError> {
    let mut s = Summary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: LogLine =
            decode(line).map_err(|e| CliError::Data(format!("line {}: {e}", lineno + 1)))?;
        match record {
            LogLine::Meta(m) => {
                // Concatenated logs carry one meta line each: their events
                // and drops add up like every other total here.
                let (events, dropped) = s.meta.map_or((0, 0), |(_, _, e, d)| (e, d));
                s.meta = Some((
                    m.decision_sample_rate,
                    m.ring_capacity,
                    events.saturating_add(m.events),
                    dropped.saturating_add(m.dropped),
                ));
            }
            LogLine::Span(span) => {
                let agg = s.spans.entry(span.kind.name()).or_default();
                agg.count += 1;
                agg.total_us = agg.total_us.saturating_add(span.dur_us);
                agg.max_us = agg.max_us.max(span.dur_us);
            }
            LogLine::Decision(d) => {
                s.decisions += 1;
                *s.outcomes.entry(d.outcome.name()).or_insert(0) += 1;
                s.retries_total = s.retries_total.saturating_add(d.retries.into());
                s.retries_max = s.retries_max.max(d.retries.into());
                s.candidates_total = s.candidates_total.saturating_add(d.candidates.into());
                for (reason, count) in &d.rejections.0 {
                    let total = s.rejections.entry(reason.to_string()).or_insert(0);
                    *total = total.saturating_add((*count).into());
                }
            }
            LogLine::Fault(fault) => *s.faults.entry(fault.kind.name()).or_insert(0) += 1,
            LogLine::Counter(c) => {
                let key = MetricKey {
                    name: c.name,
                    label: None,
                };
                s.counters.add_counter(key, c.value);
            }
        }
    }
    Ok(s)
}

/// `name` or `name{key="value"}` for the table rendering.
fn series_display(key: &MetricKey) -> String {
    match &key.label {
        None => key.name.to_string(),
        Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", key.name),
    }
}

/// Human-readable rendering of the registry merged from `files` snapshots.
fn metrics_table(
    merged: &MetricsRegistry,
    files: usize,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    writeln!(
        out,
        "metrics: {} series merged from {files} snapshot{}",
        merged.len(),
        if files == 1 { "" } else { "s" }
    )?;
    let histogram = |h: &Histogram| {
        let mean = h.mean().unwrap_or(0.0);
        let (count, sum, min, max) = (h.count(), h.sum(), h.min(), h.max());
        format!("count={count} sum={sum} min={min} max={max} mean={mean:.1}")
    };
    let counters = merged.counters().map(|(k, v)| (k, v.to_string()));
    let gauges = merged.gauges().map(|(k, v)| (k, v.to_string()));
    let histograms = merged.histograms().map(|(k, h)| (k, histogram(h)));
    let sections: [(&str, Vec<(&MetricKey, String)>); 3] = [
        ("counters", counters.collect()),
        ("gauges", gauges.collect()),
        ("histograms", histograms.collect()),
    ];
    for (title, rows) in sections.iter().filter(|(_, rows)| !rows.is_empty()) {
        writeln!(out, "\n{title}:")?;
        for (key, row) in rows {
            writeln!(out, "  {}: {row}", series_display(key))?;
        }
    }
    Ok(())
}

/// Human-readable rendering of a [`Summary`].
fn render(s: &Summary, out: &mut dyn Write) -> std::io::Result<()> {
    if let Some((rate, capacity, events, dropped)) = s.meta {
        writeln!(
            out,
            "log: {events} events buffered, {dropped} dropped (ring {capacity}, decision sample rate {rate})"
        )?;
    }

    if !s.spans.is_empty() {
        writeln!(out, "\nspans:")?;
        writeln!(
            out,
            "  {:<16} {:>10} {:>12} {:>10} {:>10}",
            "phase", "count", "total ms", "mean us", "max us"
        )?;
        for (kind, agg) in &s.spans {
            writeln!(
                out,
                "  {:<16} {:>10} {:>12.1} {:>10} {:>10}",
                kind,
                agg.count,
                agg.total_us as f64 / 1000.0,
                agg.total_us / agg.count.max(1),
                agg.max_us
            )?;
        }
    }

    if s.decisions > 0 {
        writeln!(out, "\ndecisions: {} sampled", s.decisions)?;
        for (outcome, count) in &s.outcomes {
            writeln!(out, "  {outcome}: {count}")?;
        }
        writeln!(
            out,
            "  retries: {} total, max {} | mean candidate set: {:.1}",
            s.retries_total,
            s.retries_max,
            s.candidates_total as f64 / s.decisions as f64
        )?;
    }

    if !s.rejections.is_empty() {
        writeln!(out, "\nfilter rejections (across sampled decisions):")?;
        let mut by_count: Vec<_> = s.rejections.iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (reason, count) in by_count {
            writeln!(out, "  {reason}: {count}")?;
        }
    }

    if !s.faults.is_empty() {
        writeln!(out, "\nfault events:")?;
        for (kind, count) in &s.faults {
            writeln!(out, "  {kind}: {count}")?;
        }
    }

    if !s.counters.is_empty() {
        writeln!(out, "\ncounters:")?;
        for (key, value) in s.counters.counters() {
            writeln!(out, "  {}: {value}", key.name)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = concat!(
        "{\"type\":\"meta\",\"version\":1,\"decision_sample_rate\":1,",
        "\"ring_capacity\":65536,\"events\":4,\"dropped\":0}\n",
        "{\"type\":\"span\",\"kind\":\"scrape\",\"ts_us\":10,\"dur_us\":200}\n",
        "{\"type\":\"span\",\"kind\":\"scrape\",\"ts_us\":500,\"dur_us\":100}\n",
        "{\"type\":\"decision\",\"sim_time_ms\":1000,\"vm_uid\":7,\"candidates\":12,",
        "\"retries\":1,\"outcome\":\"placed\",\"chosen_host\":3,",
        "\"rejections\":{\"insufficient_cpu\":2,\"wrong_az\":8},\"top_k\":[]}\n",
        "{\"type\":\"counter\",\"name\":\"placements\",\"value\":812}\n",
        "{\"type\":\"fault\",\"kind\":\"host_fail\",\"sim_time_ms\":500,",
        "\"node\":3,\"vm_uid\":null}\n",
        "{\"type\":\"fault\",\"kind\":\"evac_replaced\",\"sim_time_ms\":500,",
        "\"node\":5,\"vm_uid\":42}\n",
        "{\"type\":\"fault\",\"kind\":\"host_fail\",\"sim_time_ms\":900,",
        "\"node\":7,\"vm_uid\":null}\n",
    );

    #[test]
    fn summarize_aggregates_all_record_types() {
        let s = summarize(LOG).unwrap();
        assert_eq!(s.meta, Some((1.0, 65536, 4, 0)));
        let scrape = &s.spans["scrape"];
        assert_eq!(
            (scrape.count, scrape.total_us, scrape.max_us),
            (2, 300, 200)
        );
        assert_eq!(s.decisions, 1);
        assert_eq!(s.outcomes["placed"], 1);
        assert_eq!(s.rejections["wrong_az"], 8);
        assert_eq!(s.retries_total, 1);
        let counters: Vec<_> = s
            .counters
            .counters()
            .map(|(k, v)| (k.name.as_ref(), v))
            .collect();
        assert_eq!(counters, vec![("placements", 812)]);
        assert_eq!(s.faults["host_fail"], 2);
        assert_eq!(s.faults["evac_replaced"], 1);
    }

    #[test]
    fn summarize_rejects_malformed_lines() {
        assert!(summarize("not json\n").is_err());
        assert!(summarize("{\"type\":\"mystery\"}\n").is_err());
    }

    #[test]
    fn summarize_saturates_file_supplied_totals() {
        let log = concat!(
            "{\"type\":\"span\",\"kind\":\"scrape\",\"ts_us\":0,\"dur_us\":18446744073709551615}\n",
            "{\"type\":\"span\",\"kind\":\"scrape\",\"ts_us\":1,\"dur_us\":2}\n",
        );
        let s = summarize(log).unwrap();
        let scrape = &s.spans["scrape"];
        assert_eq!(
            (scrape.count, scrape.total_us, scrape.max_us),
            (2, u64::MAX, u64::MAX)
        );
        let mut buf = Vec::new();
        render(&s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains(" 18446744073709552.0 9223372036854775807 "),
            "{text}"
        );
    }

    #[test]
    fn run_requires_the_summary_action() {
        let argv: Vec<String> = vec!["frobnicate".into(), "x.jsonl".into()];
        let err = run(&argv, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("unknown obs action"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn render_mentions_each_section() {
        let s = summarize(LOG).unwrap();
        let mut buf = Vec::new();
        render(&s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("4 events buffered"));
        assert!(text.contains("scrape"));
        assert!(text.contains("placed: 1"));
        assert!(text.contains("wrong_az: 8"));
        assert!(text.contains("placements: 812"));
        assert!(text.contains("fault events:"));
        assert!(text.contains("host_fail: 2"));
    }

    fn snapshot_files(dir_name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        use sapsim_core::obs::MetricsRegistry;
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = MetricsRegistry::new();
        a.counter("placements", 5);
        a.counter_with("region_placements", "region", "0", 3);
        a.gauge("vm_final_live", 10.0);
        a.observe("scrape_us", 3);
        a.observe("scrape_us", 200);
        let mut b = MetricsRegistry::new();
        b.counter("placements", 7);
        b.gauge("vm_final_live", 12.0);
        b.observe("scrape_us", 3);
        let fa = dir.join("a.metrics.json");
        let fb = dir.join("b.metrics.json");
        std::fs::write(&fa, a.to_json()).unwrap();
        std::fs::write(&fb, b.to_json()).unwrap();
        (fa, fb)
    }

    #[test]
    fn metrics_action_merges_snapshots() {
        let (fa, fb) = snapshot_files("sapsim-obs-metrics-merge");
        let argv: Vec<String> = vec![
            "metrics".into(),
            fa.to_str().unwrap().into(),
            fb.to_str().unwrap().into(),
        ];
        let mut buf = Vec::new();
        run(&argv, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("merged from 2 snapshots"));
        assert!(text.contains("placements: 12"), "counters add: {text}");
        assert!(text.contains("region_placements{region=\"0\"}: 3"));
        assert!(
            text.contains("vm_final_live: 12"),
            "gauges take the last file's value: {text}"
        );
        assert!(text.contains("scrape_us: count=3 sum=206 min=3 max=200 mean=68.7"));
    }

    #[test]
    fn metrics_action_prom_mode_renders_all_families() {
        let (fa, _) = snapshot_files("sapsim-obs-metrics-prom");
        let argv: Vec<String> =
            vec!["metrics".into(), fa.to_str().unwrap().into(), "--prom".into()];
        let mut buf = Vec::new();
        run(&argv, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# TYPE sapsim_placements counter\n"));
        assert!(text.contains("sapsim_placements 5\n"));
        assert!(text.contains("sapsim_region_placements{region=\"0\"} 3\n"));
        assert!(text.contains("# TYPE sapsim_vm_final_live gauge\n"));
        assert!(text.contains("sapsim_vm_final_live 10\n"));
        assert!(text.contains("# TYPE sapsim_scrape_us histogram\n"));
        // Observations 3 and 200 land in buckets with inclusive upper
        // bounds 3 and 223; +Inf carries the total.
        assert!(text.contains("sapsim_scrape_us_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("sapsim_scrape_us_bucket{le=\"223\"} 2\n"));
        assert!(text.contains("sapsim_scrape_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("sapsim_scrape_us_sum 203\n"));
        assert!(text.contains("sapsim_scrape_us_count 2\n"));
    }

    #[test]
    fn metrics_action_rejects_bad_input() {
        // No files at all is a usage error.
        let err = run(&["metrics".to_string()], &mut Vec::new()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // A JSONL event log is not a metrics snapshot.
        let dir = std::env::temp_dir().join("sapsim-obs-metrics-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        std::fs::write(&path, "{\"type\":\"meta\"}\n").unwrap();
        let argv: Vec<String> = vec!["metrics".into(), path.to_str().unwrap().into()];
        let err = run(&argv, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("sapsim.metrics/v1"));
    }

    #[test]
    fn metrics_action_rejects_non_canonical_bucket_bounds() {
        let dir = std::env::temp_dir().join("sapsim-obs-metrics-badbound");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.metrics.json");
        // 8 is inside the (7, 9] bucket, not a boundary — a corrupt or
        // foreign snapshot, rejected as a data error rather than binned
        // somewhere silently.
        std::fs::write(
            &path,
            "{\"schema\":\"sapsim.metrics/v1\",\"counters\":[],\"gauges\":[],\
             \"histograms\":[{\"name\":\"lat\",\"count\":1,\"sum\":8,\"min\":8,\
             \"max\":8,\"buckets\":[[8,1]]}]}",
        )
        .unwrap();
        let argv: Vec<String> = vec!["metrics".into(), path.to_str().unwrap().into()];
        let err = run(&argv, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("canonical bucket boundary"));
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn metrics_action_accepts_top_octave_bounds() {
        // u64::MAX is the last bucket's inclusive bound; merging it used
        // to be out of bounds for the 248-bucket array.
        let dir = std::env::temp_dir().join("sapsim-obs-metrics-topbound");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("top.metrics.json");
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"sapsim.metrics/v1\",\"counters\":[],\"gauges\":[],\
                 \"histograms\":[{{\"name\":\"lat\",\"count\":1,\"sum\":{max},\
                 \"min\":{max},\"max\":{max},\"buckets\":[[{max},1]]}}]}}",
                max = u64::MAX
            ),
        )
        .unwrap();
        let argv: Vec<String> = vec!["metrics".into(), path.to_str().unwrap().into()];
        let mut buf = Vec::new();
        run(&argv, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("lat: count=1"), "{text}");
    }

    #[test]
    fn prom_mode_renders_counter_families() {
        let dir = std::env::temp_dir().join("sapsim-obs-cmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        std::fs::write(&path, LOG).unwrap();
        let argv: Vec<String> = vec![
            "summary".into(),
            path.to_str().unwrap().into(),
            "--prom".into(),
        ];
        let mut buf = Vec::new();
        run(&argv, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# TYPE sapsim_placements counter"));
        assert!(text.contains("sapsim_placements 812"));
    }
}
