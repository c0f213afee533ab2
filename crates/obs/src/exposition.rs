//! Prometheus text exposition of a [`MetricsRegistry`]: the `serve`
//! `/metrics` page, `sapsim obs metrics --prom` and `sapsim obs summary
//! --prom`.
//!
//! One `# HELP` and `# TYPE` line per family, then one line per sample:
//!
//! ```text
//! # HELP sapsim_serve_requests_total Placement-service counter
//! # TYPE sapsim_serve_requests_total counter
//! sapsim_serve_requests_total{op="place"} 3
//! ```

use crate::metrics::{MetricKey, MetricsRegistry};
use std::fmt::{Display, Write as _};

impl MetricsRegistry {
    /// Render the registry as a Prometheus text exposition page, with
    /// the help texts of its counter, gauge and histogram families.
    ///
    /// Each run of same-name keys is one family, in key order: counters,
    /// then gauges, then histograms. Family names are prefixed `sapsim_`
    /// and every character outside `[A-Za-z0-9_]` maps to `_`; label
    /// values get the backslash escapes of `\\`, `"` and line feed. A
    /// histogram renders its cumulative `le` buckets without the top
    /// (`u64::MAX`) one, then `le="+Inf"`, `_sum` and `_count`.
    pub fn to_prometheus(&self, help: [&str; 3]) -> String {
        let [counter, gauge, histogram] = help;
        let mut page = Page::default();
        for (key, value) in self.counters() {
            page.open(key, "counter", counter).sample("", None, value);
        }
        for (key, value) in self.gauges() {
            page.open(key, "gauge", gauge)
                .sample("", None, prom_float(value));
        }
        for (key, h) in self.histograms() {
            let family = page.open(key, "histogram", histogram);
            let mut cumulative = 0u64;
            for (bound, n) in h.buckets() {
                cumulative += n;
                if bound != u64::MAX {
                    family.sample("_bucket", Some(&prom_float(bound as f64)), cumulative);
                }
            }
            family.sample("_bucket", Some("+Inf"), h.count());
            family.sample("_sum", None, prom_float(h.sum() as f64));
            family.sample("_count", None, h.count());
        }
        page.out
    }
}

/// A page being written: the text so far, the family open at its end
/// (name and kind) and the key whose samples are being written.
#[derive(Default)]
struct Page<'a> {
    out: String,
    family: Option<(&'a str, &'static str)>,
    metric: String,
    label: Option<String>,
}

impl<'a> Page<'a> {
    /// Start `key`'s samples, under a new `# HELP`/`# TYPE` block unless
    /// the previous key had the same name and kind.
    fn open(&mut self, key: &'a MetricKey, kind: &'static str, help: &str) -> &mut Self {
        if self.family != Some((&key.name, kind)) {
            self.metric = metric_name(&key.name);
            let metric = &self.metric;
            let _ = writeln!(self.out, "# HELP {metric} {help}\n# TYPE {metric} {kind}");
            self.family = Some((&key.name, kind));
        }
        let escaped = |(k, v): &(_, String)| format!("{k}=\"{}\"", escape_label_value(v));
        self.label = key.label.as_ref().map(escaped);
        self
    }

    /// `metric[suffix]{label,le="…"} value`: the key's label first, then
    /// the bucket bound.
    fn sample(&mut self, suffix: &str, le: Option<&str>, value: impl Display) {
        let (out, metric) = (&mut self.out, &self.metric);
        let _ = match (&self.label, le) {
            (None, None) => writeln!(out, "{metric}{suffix} {value}"),
            (Some(label), None) => writeln!(out, "{metric}{suffix}{{{label}}} {value}"),
            (None, Some(le)) => writeln!(out, "{metric}{suffix}{{le=\"{le}\"}} {value}"),
            (Some(label), Some(le)) => {
                writeln!(out, "{metric}{suffix}{{{label},le=\"{le}\"}} {value}")
            }
        };
    }
}

/// `sapsim_`-prefixed, charset-sanitized family name.
fn metric_name(name: &str) -> String {
    let sanitized = name.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        }
    });
    "sapsim_".chars().chain(sanitized).collect()
}

/// Escape a label value: backslash, double quote and line feed get
/// backslash escapes.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Prometheus float spelling: integers without a trailing `.0`,
/// non-finite values as `NaN`, `+Inf` and `-Inf`.
fn prom_float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HELP: [&str; 3] = ["c", "g", "h"];

    #[test]
    fn exposition_has_help_type_and_latest_samples() {
        let mut registry = MetricsRegistry::new();
        registry.gauge("cpu_contention_percentage", 1.25);
        registry.gauge("cpu_contention_percentage", 2.5);
        let page = registry.to_prometheus(["c", "Observed CPU contention", "h"]);
        assert_eq!(
            page,
            "# HELP sapsim_cpu_contention_percentage Observed CPU contention\n\
             # TYPE sapsim_cpu_contention_percentage gauge\n\
             sapsim_cpu_contention_percentage 2.5\n"
        );
    }

    #[test]
    fn single_family_render() {
        let mut registry = MetricsRegistry::new();
        registry.counter_with("serve_requests_total", "op", "place", 3);
        let page = registry.to_prometheus(HELP);
        assert_eq!(page.lines().count(), 3, "HELP + TYPE + one series: {page}");
    }

    #[test]
    fn value_formatting_matches_prometheus() {
        assert_eq!(prom_float(42.0), "42");
        assert_eq!(prom_float(1.25), "1.25");
        assert_eq!(prom_float(f64::NAN), "NaN");
        assert_eq!(prom_float(f64::INFINITY), "+Inf");
        assert_eq!(prom_float(f64::NEG_INFINITY), "-Inf");
        assert_eq!(prom_float(-7.0), "-7");
        assert_eq!(prom_float(u64::MAX as f64), "18446744073709552000");
    }

    #[test]
    fn empty_store_renders_empty_page() {
        assert!(MetricsRegistry::new().to_prometheus(HELP).is_empty());
    }

    #[test]
    fn no_counters_render_empty() {
        let mut registry = MetricsRegistry::new();
        registry.gauge("g", 1.0);
        assert!(!registry.to_prometheus(HELP).contains("counter"));
    }

    #[test]
    fn counters_render_as_prometheus_counter_families() {
        let mut registry = MetricsRegistry::new();
        registry.counter("placements", 812);
        registry.counter("drs_migrations", 40);
        let page = registry.to_prometheus(["Simulator event counter", "g", "h"]);
        assert!(page.contains("# HELP sapsim_placements Simulator event counter\n"));
        assert!(page.contains("# TYPE sapsim_placements counter\n"));
        assert!(page.contains("\nsapsim_placements 812\n"));
        assert!(page.contains("sapsim_drs_migrations 40\n"));
        // Key order, not insertion order.
        assert!(
            page.find("sapsim_drs_migrations").unwrap() < page.find("sapsim_placements").unwrap()
        );
    }

    #[test]
    fn wrapper_output_is_unchanged() {
        // The one-counter page `obs summary --prom` has always printed.
        let mut registry = MetricsRegistry::new();
        registry.counter("placements", 812);
        assert_eq!(
            registry.to_prometheus(["Simulator event counter", "g", "h"]),
            "# HELP sapsim_placements Simulator event counter\n\
             # TYPE sapsim_placements counter\n\
             sapsim_placements 812\n"
        );
    }

    #[test]
    fn counter_names_are_sanitized_to_the_metric_charset() {
        let mut registry = MetricsRegistry::new();
        registry.counter("scrape.sample-time", 1);
        let page = registry.to_prometheus(HELP);
        assert!(
            page.contains("# TYPE sapsim_scrape_sample_time counter\n"),
            "{page}"
        );
        assert!(page.contains("sapsim_scrape_sample_time 1\n"), "{page}");
    }

    #[test]
    fn gauges_render_with_labels() {
        let mut registry = MetricsRegistry::new();
        registry.gauge_with("wheel_occupied_buckets", "level", "0", 3.0);
        registry.gauge_with("wheel_occupied_buckets", "level", "1", 1.5);
        let page = registry.to_prometheus(HELP);
        assert_eq!(
            page.matches("# TYPE sapsim_wheel_occupied_buckets gauge\n")
                .count(),
            1
        );
        assert!(page.contains("sapsim_wheel_occupied_buckets{level=\"0\"} 3\n"));
        assert!(page.contains("sapsim_wheel_occupied_buckets{level=\"1\"} 1.5\n"));
    }

    #[test]
    fn histograms_render_bucket_sum_count() {
        let mut registry = MetricsRegistry::new();
        for value in [3, 3, 5, 6, 2, u64::MAX] {
            registry.observe_with("span_us", "phase", "scrape", value);
        }
        let page = registry.to_prometheus(HELP);
        assert!(page.contains("# TYPE sapsim_span_us histogram\n"));
        assert!(page.contains("sapsim_span_us_bucket{phase=\"scrape\",le=\"2\"} 1\n"));
        assert!(page.contains("sapsim_span_us_bucket{phase=\"scrape\",le=\"3\"} 3\n"));
        assert!(page.contains("sapsim_span_us_bucket{phase=\"scrape\",le=\"5\"} 4\n"));
        assert!(page.contains("sapsim_span_us_bucket{phase=\"scrape\",le=\"6\"} 5\n"));
        // The u64::MAX bucket is carried by +Inf alone.
        assert!(!page.contains("le=\"18446744073709552000\""), "{page}");
        assert!(page.contains("sapsim_span_us_bucket{phase=\"scrape\",le=\"+Inf\"} 6\n"));
        assert!(page.contains("sapsim_span_us_sum{phase=\"scrape\"} 18446744073709552000\n"));
        assert!(page.contains("sapsim_span_us_count{phase=\"scrape\"} 6\n"));
    }

    #[test]
    fn a_counter_and_a_gauge_of_one_name_are_two_families() {
        let mut registry = MetricsRegistry::new();
        registry.counter("vm_live", 2);
        registry.gauge("vm_live", 3.0);
        let page = registry.to_prometheus(HELP);
        assert!(
            page.contains("# TYPE sapsim_vm_live counter\nsapsim_vm_live 2\n"),
            "{page}"
        );
        assert!(
            page.contains("# TYPE sapsim_vm_live gauge\nsapsim_vm_live 3\n"),
            "{page}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut registry = MetricsRegistry::new();
        registry.gauge_with("g", "k", "a\"b\\c\nd", 1.0);
        let page = registry.to_prometheus(HELP);
        assert!(
            page.contains("sapsim_g{k=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "{page}"
        );
    }
}
