//! `sapsim obs` — inspect observability artifacts offline.
//!
//! `sapsim obs summary run.jsonl` re-aggregates a decision/span log written
//! by `simulate --obs-out` into the run's diagnostic headline: span timing
//! per event-loop phase, placement outcomes, filter rejection totals, and
//! the event counters. With `--prom` the counters are re-rendered in
//! Prometheus text format instead, so a log can be pushed through the same
//! tooling as the telemetry exposition.
//!
//! `sapsim obs metrics FILE...` merges one or more `sapsim.metrics/v1`
//! snapshots (from `simulate --metrics-out` or `sweep --metrics-dir`) into
//! a single view: counters add, gauges take the last file's value, and the
//! fixed-boundary histograms merge bucket-wise without loss. With `--prom`
//! the merged registry renders as a full Prometheus page (counter, gauge,
//! and histogram families).

use crate::args::Parsed;
use crate::error::CliError;
use sapsim_core::obs::{bucket_index, bucket_upper_bound, Histogram};
use sapsim_telemetry::exposition::{
    render_counters, render_metrics, PromData, PromFamily, PromHistogram,
};
use sapsim_json::JsonValue;
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
    spans: BTreeMap<String, SpanAgg>,
    outcomes: BTreeMap<String, u64>,
    rejections: BTreeMap<String, u64>,
    decisions: u64,
    retries_total: u64,
    retries_max: u64,
    candidates_total: u64,
    faults: BTreeMap<String, u64>,
    counters: Vec<(String, u64)>,
}

const USAGE: &str = "usage: sapsim obs summary <FILE.jsonl> [--prom]\n       sapsim obs metrics <FILE.json>... [--prom]";

/// Execute the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &["prom"])?;
    let Some((action, paths)) = parsed.positionals().split_first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    match action.as_str() {
        "summary" => {
            let [path] = paths else {
                return Err(CliError::Usage(USAGE.into()));
            };
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            let summary = summarize(&text)?;
            if parsed.flag("prom") {
                let page =
                    render_counters(summary.counters.iter().map(|(name, v)| (name.as_str(), *v)));
                write!(out, "{page}")?;
                return Ok(());
            }
            render(&summary, out)?;
            Ok(())
        }
        "metrics" => {
            if paths.is_empty() {
                return Err(CliError::Usage(USAGE.into()));
            }
            let mut agg = MetricsAgg::default();
            for path in paths {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
                merge_snapshot(&text, path, &mut agg)?;
            }
            if parsed.flag("prom") {
                write!(out, "{}", render_metrics_prom(&agg))?;
            } else {
                render_metrics_table(&agg, out)?;
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown obs action `{other}` (expected `summary` or `metrics`)"
        ))),
    }
}

/// One pass over the JSONL text, dispatching on each line's `type`.
/// Malformed lines are data errors: the file was readable, its content
/// was not.
fn summarize(text: &str) -> Result<Summary, CliError> {
    let mut s = Summary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: JsonValue = sapsim_json::parse(line)
            .map_err(|e| CliError::Data(format!("line {}: invalid JSON: {e}", lineno + 1)))?;
        match v["type"].as_str() {
            Some("meta") => {
                s.meta = Some((
                    v["decision_sample_rate"].as_f64().unwrap_or(f64::NAN),
                    v["ring_capacity"].as_u64().unwrap_or(0),
                    v["events"].as_u64().unwrap_or(0),
                    v["dropped"].as_u64().unwrap_or(0),
                ));
            }
            Some("span") => {
                let kind = v["kind"].as_str().unwrap_or("?").to_string();
                let dur = v["dur_us"].as_u64().unwrap_or(0);
                let agg = s.spans.entry(kind).or_default();
                agg.count += 1;
                agg.total_us += dur;
                agg.max_us = agg.max_us.max(dur);
            }
            Some("decision") => {
                s.decisions += 1;
                let outcome = v["outcome"].as_str().unwrap_or("?").to_string();
                *s.outcomes.entry(outcome).or_insert(0) += 1;
                let retries = v["retries"].as_u64().unwrap_or(0);
                s.retries_total += retries;
                s.retries_max = s.retries_max.max(retries);
                s.candidates_total += v["candidates"].as_u64().unwrap_or(0);
                if let Some(rej) = v["rejections"].as_obj() {
                    for (reason, count) in rej {
                        *s.rejections.entry(reason.clone()).or_insert(0) +=
                            count.as_u64().unwrap_or(0);
                    }
                }
            }
            Some("fault") => {
                let kind = v["kind"].as_str().unwrap_or("?").to_string();
                *s.faults.entry(kind).or_insert(0) += 1;
            }
            Some("counter") => {
                if let (Some(name), Some(value)) = (v["name"].as_str(), v["value"].as_u64()) {
                    s.counters.push((name.to_string(), value));
                }
            }
            other => {
                return Err(CliError::Data(format!(
                    "line {}: unknown record type {:?}",
                    lineno + 1,
                    other.unwrap_or("<missing>")
                )));
            }
        }
    }
    Ok(s)
}

/// A series identity parsed from a snapshot: name plus optional label
/// pair. Owned strings (unlike [`sapsim_core::obs::MetricKey`], whose
/// names are `&'static str`), because these come from files.
type SeriesKey = (String, Option<(String, String)>);

/// The merged view of one or more `sapsim.metrics/v1` snapshots.
/// Counters add, gauges take the last file's value (matching registry
/// merge semantics), histograms merge bucket-wise.
#[derive(Default)]
struct MetricsAgg {
    files: usize,
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

/// Parse one snapshot file's text and fold it into `agg`. Malformed
/// content is a data error tagged with the file path.
fn merge_snapshot(text: &str, path: &str, agg: &mut MetricsAgg) -> Result<(), CliError> {
    let bad = |what: &str| CliError::Data(format!("{path}: {what}"));
    let v: JsonValue = sapsim_json::parse(text.trim())
        .map_err(|e| CliError::Data(format!("{path}: invalid JSON: {e}")))?;
    if v["schema"].as_str() != Some("sapsim.metrics/v1") {
        return Err(bad("not a sapsim.metrics/v1 snapshot"));
    }
    for entry in v["counters"].as_arr().into_iter().flatten() {
        let key = series_key(entry, path)?;
        let value = entry["value"]
            .as_u64()
            .ok_or_else(|| bad("counter value must be a u64"))?;
        // Saturating: file-supplied values near u64::MAX must degrade
        // deterministically, not overflow.
        let slot = agg.counters.entry(key).or_insert(0);
        *slot = slot.saturating_add(value);
    }
    for entry in v["gauges"].as_arr().into_iter().flatten() {
        let key = series_key(entry, path)?;
        let value = entry["value"]
            .as_f64()
            .ok_or_else(|| bad("gauge value must be a number"))?;
        agg.gauges.insert(key, value);
    }
    for entry in v["histograms"].as_arr().into_iter().flatten() {
        let key = series_key(entry, path)?;
        let field = |name: &str| {
            entry[name]
                .as_u64()
                .ok_or_else(|| bad(&format!("histogram {name} must be a u64")))
        };
        let (count, sum, min, max) = (field("count")?, field("sum")?, field("min")?, field("max")?);
        let mut buckets = Vec::new();
        for pair in entry["buckets"]
            .as_arr()
            .ok_or_else(|| bad("histogram buckets must be an array"))?
        {
            let (Some(ub), Some(n)) = (pair[0].as_u64(), pair[1].as_u64()) else {
                return Err(bad("histogram bucket must be [upper_bound, count]"));
            };
            // Only canonical log-linear bounds are valid: anything else
            // came from a corrupt or foreign snapshot and would silently
            // land in the wrong bucket.
            if ub != bucket_upper_bound(bucket_index(ub)) {
                return Err(bad(&format!(
                    "histogram bucket bound {ub} is not a canonical bucket boundary"
                )));
            }
            buckets.push((ub, n));
        }
        let parsed = Histogram::from_parts(buckets, sum, min, max);
        if parsed.count() != count {
            return Err(bad("histogram bucket counts do not add up to count"));
        }
        agg.histograms.entry(key).or_default().merge(&parsed);
    }
    agg.files += 1;
    Ok(())
}

/// The `name`/`label` identity of one snapshot entry.
fn series_key(entry: &JsonValue, path: &str) -> Result<SeriesKey, CliError> {
    let name = entry["name"]
        .as_str()
        .ok_or_else(|| CliError::Data(format!("{path}: metric entry without a name")))?;
    let label = match entry.get("label") {
        None => None,
        Some(obj) => {
            let Some([(k, v)]) = obj.as_obj() else {
                return Err(CliError::Data(format!(
                    "{path}: metric label must be a single-pair object"
                )));
            };
            let v = v.as_str().ok_or_else(|| {
                CliError::Data(format!("{path}: metric label value must be a string"))
            })?;
            Some((k.clone(), v.to_string()))
        }
    };
    Ok((name.to_string(), label))
}

/// `name` or `name{key="value"}` for the table rendering.
fn series_display((name, label): &SeriesKey) -> String {
    match label {
        None => name.clone(),
        Some((k, v)) => format!("{name}{{{k}=\"{v}\"}}"),
    }
}

/// Human-readable rendering of a [`MetricsAgg`].
fn render_metrics_table(agg: &MetricsAgg, out: &mut dyn Write) -> std::io::Result<()> {
    let series = agg.counters.len() + agg.gauges.len() + agg.histograms.len();
    writeln!(
        out,
        "metrics: {series} series merged from {} snapshot{}",
        agg.files,
        if agg.files == 1 { "" } else { "s" }
    )?;
    if !agg.counters.is_empty() {
        writeln!(out, "\ncounters:")?;
        for (key, value) in &agg.counters {
            writeln!(out, "  {}: {value}", series_display(key))?;
        }
    }
    if !agg.gauges.is_empty() {
        writeln!(out, "\ngauges:")?;
        for (key, value) in &agg.gauges {
            writeln!(out, "  {}: {value}", series_display(key))?;
        }
    }
    if !agg.histograms.is_empty() {
        writeln!(out, "\nhistograms:")?;
        for (key, h) in &agg.histograms {
            writeln!(
                out,
                "  {}: count={} sum={} min={} max={} mean={:.1}",
                series_display(key),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean().unwrap_or(0.0)
            )?;
        }
    }
    Ok(())
}

/// The merged registry as a full Prometheus page: one family per metric
/// name, one sample per label value. `BTreeMap` order means consecutive
/// entries with the same name form one family.
fn render_metrics_prom(agg: &MetricsAgg) -> String {
    let hists: Vec<_> = agg.histograms.iter().collect();
    // Cumulative bucket counts, precomputed so the families can borrow
    // slices. The top bucket (upper bound u64::MAX) is dropped: the
    // renderer's mandatory `le="+Inf"` sample already carries the total.
    let cumulative: Vec<Vec<(f64, u64)>> = hists
        .iter()
        .map(|(_, h)| {
            let mut cum = 0u64;
            h.buckets()
                .filter_map(|(ub, n)| {
                    cum += n;
                    (ub != u64::MAX).then_some((ub as f64, cum))
                })
                .collect()
        })
        .collect();

    let mut families = Vec::new();
    let counters: Vec<_> = agg.counters.iter().collect();
    let mut i = 0;
    while i < counters.len() {
        let name = counters[i].0 .0.as_str();
        let mut samples = Vec::new();
        while i < counters.len() && counters[i].0 .0 == name {
            samples.push((label_ref(counters[i].0), *counters[i].1));
            i += 1;
        }
        families.push(PromFamily {
            name,
            help: "Merged engine counter",
            data: PromData::Counter(samples),
        });
    }
    let gauges: Vec<_> = agg.gauges.iter().collect();
    let mut i = 0;
    while i < gauges.len() {
        let name = gauges[i].0 .0.as_str();
        let mut samples = Vec::new();
        while i < gauges.len() && gauges[i].0 .0 == name {
            samples.push((label_ref(gauges[i].0), *gauges[i].1));
            i += 1;
        }
        families.push(PromFamily {
            name,
            help: "Merged engine gauge",
            data: PromData::Gauge(samples),
        });
    }
    let mut i = 0;
    while i < hists.len() {
        let name = hists[i].0 .0.as_str();
        let mut samples = Vec::new();
        while i < hists.len() && hists[i].0 .0 == name {
            samples.push((
                label_ref(hists[i].0),
                PromHistogram {
                    cumulative: &cumulative[i],
                    sum: hists[i].1.sum() as f64,
                    count: hists[i].1.count(),
                },
            ));
            i += 1;
        }
        families.push(PromFamily {
            name,
            help: "Merged engine histogram",
            data: PromData::Histogram(samples),
        });
    }
    render_metrics(families)
}

/// Borrowed label pair of a [`SeriesKey`], in the renderer's shape.
fn label_ref((_, label): &SeriesKey) -> Option<(&str, &str)> {
    label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()))
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
        for (name, value) in &s.counters {
            writeln!(out, "  {name}: {value}")?;
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
        assert_eq!(s.counters, vec![("placements".to_string(), 812)]);
        assert_eq!(s.faults["host_fail"], 2);
        assert_eq!(s.faults["evac_replaced"], 1);
    }

    #[test]
    fn summarize_rejects_malformed_lines() {
        assert!(summarize("not json\n").is_err());
        assert!(summarize("{\"type\":\"mystery\"}\n").is_err());
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
