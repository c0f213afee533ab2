//! Printing and persisting results: the one-line result of a measured run,
//! the `BENCH_<utc>.json` report of a full suite, and the comparison of two
//! such reports.

use crate::catalog::{self, Better, Metric, Workload, END_TO_END, PER_LAYER};
use crate::harness::Outcome;
use crate::stats;
use sapsim_api::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

/// Close a run's outcome: restate the end-to-end metrics the workload's
/// family does not define, and count as failed every metric the run should
/// have measured and did not — a probe that broke must not read as a
/// perfect 0.
pub fn finish(outcome: &mut Outcome, workload: Workload, traced: bool) {
    let metrics: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    for m in metrics {
        if let Some((base, restate)) = catalog::alias(m.name, workload) {
            if let Some(&value) = outcome.metrics.get(base) {
                outcome.set(m.name, restate(value));
            }
        }
        let measured = outcome.metrics.get(m.name).is_some_and(|v| v.is_finite());
        if m.measured_on(workload) && !measured {
            outcome.failed += 1;
            outcome.findings.push(format!(
                "{} was not measured: {:?}",
                m.name,
                outcome.metrics.get(m.name)
            ));
        }
    }
}

fn metrics_json(metrics: &[Metric], outcome: &Outcome) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // The driver wants every name: a row of the other family reads 0,
        // and so does one `finish` has already counted as failed.
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

/// The last line of a measured run: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics, outcome)
    )
}

/// Every metric by name with its unit, for people.
pub fn print_metrics(workload: Workload, outcome: &Outcome, traced: bool) {
    let metrics: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "== {} ({}): {} attempted, {} failed, state {}",
        workload.name(),
        if traced { "traced" } else { "end to end" },
        outcome.attempted,
        outcome.failed,
        outcome.fingerprint
    );
    for m in metrics {
        if let Some(value) = outcome.metrics.get(m.name) {
            let note = match catalog::alias(m.name, workload) {
                Some((base, _)) => format!("   (restates {base})"),
                None => String::new(),
            };
            println!("{:<36} {:>16.4} {}{note}", m.name, value, m.unit);
        }
    }
    for finding in &outcome.findings {
        println!("  ! {finding}");
    }
}

/// `YYYYMMDDTHHMMSSZ` of now, from the days-to-civil algorithm.
pub fn utc_stamp() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}{month:02}{day:02}T{:02}{:02}{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

fn command_output(program: &str, arg: &str) -> String {
    std::process::Command::new(program)
        .arg(arg)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where the numbers were taken: they compare only on the same box.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let mut out = format!("{{\"nproc\": {nproc}, \"kernel\": ");
    json::push_str(&mut out, kernel.trim());
    out.push_str(", \"rustc\": ");
    json::push_str(&mut out, &command_output("rustc", "--version"));
    out.push('}');
    out
}

/// What a suite gathered for one workload.
pub struct WorkloadReport {
    pub workload: Workload,
    /// One untraced outcome per set.
    pub sets: Vec<Outcome>,
    pub traced: Option<Outcome>,
}

impl WorkloadReport {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.sets
            .iter()
            .filter_map(|o| o.metrics.get(metric).copied())
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.sets
            .iter()
            .chain(self.traced.iter())
            .map(|o| o.failed)
            .sum()
    }
}

/// The whole suite as one JSON document.
pub fn suite_json(
    reports: &[WorkloadReport],
    seed: u64,
    seconds: f64,
    quick: bool,
    fixups: u64,
) -> String {
    let mut out = format!(
        "{{\"schema\": \"sapsim.perfbench/v1\", \"utc\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"quick\": {quick}, \"build_fixups_applied\": {fixups}, \"host\": {},\n \"workloads\": {{",
        utc_stamp(),
        host_json()
    );
    for (i, report) in reports.iter().enumerate() {
        let first = &report.sets[0];
        let _ = write!(
            out,
            "{}\n  \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"fingerprint\": \"{}\",\n   \"end_to_end\": {{",
            if i > 0 { "," } else { "" },
            report.workload.name(),
            report.failed() == 0,
            report.sets.iter().map(|o| o.attempted).sum::<u64>(),
            report.failed(),
            first.fingerprint
        );
        // Per metric: the median over the sets, every set's value, and the
        // spread between them when there are at least two.
        for (k, m) in END_TO_END.iter().enumerate() {
            let values = report.values(m.name);
            if values.is_empty() {
                continue;
            }
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"sets\": {:?}",
                if k > 0 { ", " } else { "" },
                m.name,
                stats::median(&values),
                m.unit,
                values
            );
            if values.len() >= 2 {
                let _ = write!(out, ", \"spread\": {}", stats::spread(&values));
            }
            if let Some((base, _)) = catalog::alias(m.name, report.workload) {
                let _ = write!(out, ", \"restates\": \"{base}\"");
            }
            out.push('}');
        }
        out.push_str("},\n   \"per_layer\": ");
        match &report.traced {
            Some(traced) => out.push_str(&metrics_json(&PER_LAYER, traced)),
            None => out.push_str("{}"),
        }
        out.push_str(",\n   \"findings\": [");
        let findings = report
            .sets
            .iter()
            .chain(report.traced.iter())
            .flat_map(|o| &o.findings);
        for (k, finding) in findings.enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            json::push_str(&mut out, finding);
        }
        out.push_str("]}");
    }
    out.push_str("\n }}\n");
    out
}

/// Do the sets of one suite agree? Every state identical and, unless the
/// numbers are `--quick` ones, every measured end-to-end metric within its bound:
/// two sets may differ by no more than it, three or more may spread by no
/// more than it, judged as the acceptance driver judges ten runs — first to
/// third quartile over the median, `setup_s` exempt.
pub fn sets_disagree(reports: &[WorkloadReport], compare_metrics: bool) -> Vec<String> {
    let mut complaints = Vec::new();
    for report in reports {
        let name = report.workload.name();
        let prints: Vec<&str> = report.sets.iter().map(|o| o.fingerprint.as_str()).collect();
        if prints.windows(2).any(|w| w[0] != w[1]) {
            complaints.push(format!(
                "{name}: sets ended in different states: {prints:?}"
            ));
        }
        let measured = END_TO_END
            .iter()
            .filter(|m| compare_metrics && catalog::alias(m.name, report.workload).is_none());
        for m in measured {
            let values = stats::sorted(&report.values(m.name));
            let gap = match values[..] {
                [a, b] => (b - a) / stats::median(&values),
                [_, _, _, ..] if m.name != "setup_s" => stats::spread(&values),
                _ => continue,
            };
            if gap > m.bound {
                complaints.push(format!(
                    "{name}: {} differs by {:.1} % between sets, bound {:.0} %",
                    m.name,
                    gap * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }
    complaints
}

/// How one metric moved from report A to report B.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound, and the runs of the
    /// two sides overlap.
    Unresolved,
}

/// `a` and `b` are the per-set values of the two sides.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive when B is worse.
    let worsening = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    if spread(a).max(spread(b)) > metric.bound {
        let (sa, sb) = (stats::sorted(a), stats::sorted(b));
        let b_always_better = match metric.better {
            Better::Lower => sb[sb.len() - 1] < sa[0],
            Better::Higher => sb[0] > sa[sa.len() - 1],
        };
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load_sets(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_obj)
        .ok_or_else(|| format!("{path} has no `workloads`"))?;
    let mut out = BTreeMap::new();
    for (workload, body) in workloads {
        let rows = body
            .get("end_to_end")
            .and_then(JsonValue::as_obj)
            .unwrap_or(&[]);
        for (metric, row) in rows {
            let sets: Vec<f64> = row
                .get("sets")
                .and_then(JsonValue::as_arr)
                .map(|values| values.iter().filter_map(JsonValue::as_f64).collect())
                .unwrap_or_default();
            // A cell that restates another is judged once, as that other.
            if !sets.is_empty() && row.get("restates").is_none() {
                out.insert((workload.clone(), metric.clone()), sets);
            }
        }
    }
    Ok(out)
}

/// `--compare A.json B.json`: one line per metric and workload. Returns
/// the process exit code: 1 when anything got worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load_sets(path_a)?, load_sets(path_b)?);
    let mut worse = 0;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for ((workload, metric), values_a) in &a {
        let (Some(values_b), Some(def)) = (
            b.get(&(workload.clone(), metric.clone())),
            catalog::end_to_end(metric),
        ) else {
            continue;
        };
        let v = verdict(def, values_a, values_b);
        let (ma, mb) = (stats::median(values_a), stats::median(values_b));
        println!(
            "{workload:<18} {metric:<16} {ma:>14.4} {mb:>14.4} {:>+8.1}%  {}",
            (mb - ma) / ma * 100.0,
            match v {
                Verdict::Better => "better",
                Verdict::Worse => "WORSE",
                Verdict::WithinBound => "within bound",
                Verdict::Unresolved => "unresolved (spread wider than bound)",
            }
        );
        worse += i32::from(v == Verdict::Worse);
    }
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: Metric = END_TO_END[1];
    const RATE: Metric = END_TO_END[4];

    #[test]
    fn verdict_follows_direction_and_bound() {
        assert_eq!((WALL.name, RATE.name), ("wall_s", "req_per_s"));
        assert_eq!(
            verdict(&WALL, &[10.0, 10.1], &[11.5, 11.4]),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&WALL, &[10.0, 10.1], &[13.0, 13.1]), Verdict::Worse);
        assert_eq!(verdict(&WALL, &[10.0, 10.1], &[7.0, 7.1]), Verdict::Better);
        assert_eq!(verdict(&RATE, &[100.0], &[70.0]), Verdict::Worse);
        assert_eq!(verdict(&RATE, &[100.0], &[130.0]), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        // Side A spreads by far more than the bound.
        assert_eq!(
            verdict(&WALL, &[6.0, 14.0], &[9.0, 9.5]),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&WALL, &[6.0, 14.0], &[4.0, 4.5]), Verdict::Better);
    }

    #[test]
    fn utc_stamp_has_the_documented_shape() {
        let stamp = utc_stamp();
        assert_eq!(stamp.len(), 16);
        assert!(stamp.ends_with('Z') && stamp.as_bytes()[8] == b'T');
        assert!(stamp[..4].parse::<u32>().unwrap() >= 2024);
    }

    #[test]
    fn finish_restates_aliases_and_fails_what_is_missing() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for name in ["setup_s", "cpu_s", "peak_rss_mib"] {
            outcome.set(name, 1.5);
        }
        outcome.set("wall_s", 4.0);
        finish(&mut outcome, Workload::SimRegion, false);
        assert_eq!(outcome.failed, 0, "{:?}", outcome.findings);
        assert_eq!(outcome.metrics["req_per_s"], 0.25);
        assert_eq!(outcome.metrics["latency_p99_us"], 4e6);

        // The service measures rate and latency itself; without them the
        // run has failed, whatever else it reports.
        outcome.metrics.remove("req_per_s");
        outcome.set("latency_p50_us", f64::NAN);
        finish(&mut outcome, Workload::ServeHttp, false);
        assert_eq!(outcome.failed, 2, "{:?}", outcome.findings);
        assert!(!outcome.correct());

        // A traced simulation owes the serve rows nothing.
        let mut traced = Outcome::default();
        for m in PER_LAYER
            .iter()
            .filter(|m| m.measured_on(Workload::SimRegion))
        {
            traced.set(m.name, 1.0);
        }
        finish(&mut traced, Workload::SimRegion, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.findings);
        assert!(traced.metrics.len() < PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            outcome.set(m.name, 1.5);
        }
        let doc = json::parse(&result_line(&outcome, false)).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = doc.get("metrics").and_then(JsonValue::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // A traced line lists every per-layer metric, unmeasured ones as 0.
        let doc = json::parse(&result_line(&outcome, true)).unwrap();
        assert_eq!(
            doc.get("metrics")
                .and_then(JsonValue::as_obj)
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
    }
}
