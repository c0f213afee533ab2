//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the root of
//! the repository states the same; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads a metric is measured on. The driver wants every name
/// from every run; a run that lacks a metric it should have measured has
/// failed, one that lacks a metric of the other family reports 0 for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    Sim,
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics have none.
    pub bound: f64,
    pub on: On,
}

impl Metric {
    pub fn measured_on(&self, workload: Workload) -> bool {
        match self.on {
            On::All => true,
            On::Sim => workload.is_sim(),
            On::Serve => !workload.is_sim(),
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        on: On::All,
    }
}

const fn lower(on: On, name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        on,
    }
}

const fn higher(on: On, name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
        on,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimRegion,
    SimControlplane,
    ServeJsonl,
    ServeHttp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimRegion,
        Workload::SimControlplane,
        Workload::ServeJsonl,
        Workload::ServeHttp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimRegion => "sim-region",
            Workload::SimControlplane => "sim-controlplane",
            Workload::ServeJsonl => "serve-jsonl",
            Workload::ServeHttp => "serve-http",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sim(self) -> bool {
        matches!(self, Workload::SimRegion | Workload::SimControlplane)
    }

    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimRegion => {
                "the paper's region (1,823 nodes, ~47k VMs) at the paper's 300 s sampling for 3 days: telemetry-dominated, so scrape, usage-model and RNG changes show here and control-plane ones barely do"
            }
            Workload::SimControlplane => {
                "the same region over 37 simulated days with scrapes every 6 h: DRS, placement, event queue and cloud mutation dominate, scrape is a minority; the bypass workload for scrape optimisations"
            }
            Workload::ServeJsonl => {
                "placement service at 16,000 VMs over two persistent JSONL-TCP connections, one writer beside one reader: codec, engine, writer queue and snapshot republish with connection cost amortised"
            }
            Workload::ServeHttp => {
                "same server and scripts with one HTTP POST connection per request, as curl and SDK callers do: adds accept and HTTP parse per request, so connection-handling gains show here and not on serve-jsonl"
            }
        }
    }
}

/// What a user of the system sees. `setup_s`, `cpu_s` and `peak_rss_mib`
/// are measured on every workload; the others belong to one family, and the
/// other family restates them ([`alias`]) because the driver wants every
/// name from every workload.
///
/// Every bound is the widest the contract allows because the box is
/// shared: with nothing else running in the VM the same simulation took
/// between 4.97 s and 6.49 s within a minute, CPU time moving with it, and
/// such episodes outlast a run (README, "Spread").
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
    e2e("req_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("latency_p99_us", "us", Better::Lower, 0.25),
];

/// One layer each; the prefix is the crate. A traced run prints all of
/// them; a row of the other family reads 0.
pub const PER_LAYER: [Metric; 77] = [
    // Phase totals of the traced `SimDriver::run_with_recorder` (sim-*).
    lower(On::Sim, "core.driver.run_s", "s"),
    lower(On::Sim, "core.driver.scrape_sample_s", "s"),
    lower(On::Sim, "core.driver.scrape_reduce_s", "s"),
    lower(On::Sim, "core.driver.scrape_record_s", "s"),
    lower(On::Sim, "core.driver.drs_round_s", "s"),
    lower(On::Sim, "core.driver.os_gauge_s", "s"),
    lower(On::Sim, "core.driver.placement_s", "s"),
    lower(On::Sim, "core.driver.unattributed_ratio", "ratio"),
    lower(On::Sim, "core.driver.scrapes", "count"),
    lower(On::Sim, "core.driver.placements", "count"),
    lower(On::Sim, "core.driver.drs_migrations", "count"),
    lower(On::Sim, "core.driver.departures", "count"),
    higher(On::Sim, "core.viewcache.hit_ratio", "ratio"),
    higher(On::All, "scheduler.placed_ratio", "ratio"),
    lower(On::Sim, "scheduler.retry_ratio", "ratio"),
    lower(On::Sim, "telemetry.raw_samples", "count"),
    lower(On::Sim, "telemetry.series", "count"),
    lower(On::Sim, "analysis.summary_ms", "ms"),
    lower(On::Sim, "obs.recorder_overhead_ratio", "ratio"),
    // Layer probes on inputs made from the seed (every workload).
    lower(On::All, "workload.usage_sample_ns", "ns"),
    lower(On::All, "workload.lifetime_draw_ns", "ns"),
    lower(On::All, "workload.generate_ms", "ms"),
    lower(On::All, "workload.vms", "count"),
    lower(On::All, "simcore.rng.next_u64_ns", "ns"),
    lower(On::All, "simcore.rng.split_index_ns", "ns"),
    lower(On::All, "simcore.queue.push_ns", "ns"),
    lower(On::All, "simcore.queue.pop_ns", "ns"),
    lower(On::All, "simcore.queue.cancel_ns", "ns"),
    lower(On::All, "simcore.queue_heap.push_pop_ns", "ns"),
    lower(On::All, "telemetry.record_ns", "ns"),
    lower(On::All, "telemetry.record_rolled_ns", "ns"),
    lower(On::All, "telemetry.series_query_us", "us"),
    lower(On::All, "topology.build_ms", "ms"),
    lower(On::All, "topology.nodes", "count"),
    lower(On::All, "scheduler.rank_us", "us"),
    lower(On::All, "scheduler.rank_exhaustive_us", "us"),
    lower(On::All, "scheduler.index_build_us", "us"),
    lower(On::All, "scheduler.candidates_mean", "count"),
    lower(On::All, "scheduler.drs_plan_us", "us"),
    lower(On::All, "core.cloud.place_ns", "ns"),
    lower(On::All, "core.cloud.remove_ns", "ns"),
    lower(On::All, "core.cloud.migrate_ns", "ns"),
    lower(On::All, "core.cloud.host_views_cached_us", "us"),
    lower(On::All, "core.cloud.host_views_naive_us", "us"),
    lower(On::All, "core.engine.boot_ms", "ms"),
    lower(On::All, "core.engine.place_us", "us"),
    lower(On::All, "core.engine.resize_us", "us"),
    lower(On::All, "core.engine.evacuate_us", "us"),
    lower(On::All, "core.engine.fork_us", "us"),
    lower(On::All, "cli.service.execute_us", "us"),
    lower(On::All, "api.request_parse_ns", "ns"),
    lower(On::All, "api.request_encode_ns", "ns"),
    lower(On::All, "api.response_encode_ns", "ns"),
    lower(On::All, "api.response_parse_ns", "ns"),
    lower(On::All, "obs.histogram_record_ns", "ns"),
    lower(On::All, "obs.registry_observe_ns", "ns"),
    lower(On::All, "obs.recorder_event_ns", "ns"),
    // Client spans and the server's own `/metrics` (serve-*).
    lower(On::Serve, "cli.serve.boot_ms", "ms"),
    lower(On::Serve, "cli.serve.preload_s", "s"),
    lower(On::Serve, "cli.serve.dry_run_p50_us", "us"),
    lower(On::Serve, "cli.serve.dry_run_p99_us", "us"),
    lower(On::Serve, "cli.serve.commit_p50_us", "us"),
    lower(On::Serve, "cli.serve.commit_p99_us", "us"),
    lower(On::Serve, "cli.serve.place_p50_us", "us"),
    lower(On::Serve, "cli.serve.resize_p50_us", "us"),
    lower(On::Serve, "cli.serve.evacuate_p50_us", "us"),
    lower(On::Serve, "cli.serve.server_side_p50_us", "us"),
    lower(On::Serve, "cli.serve.transport_overhead_us", "us"),
    lower(On::Serve, "cli.serve.connect_us", "us"),
    lower(On::Serve, "cli.serve.healthz_us", "us"),
    lower(On::Serve, "cli.serve.metrics_render_us", "us"),
    lower(On::Serve, "cli.serve.client_encode_ns", "ns"),
    lower(On::Serve, "cli.serve.client_decode_ns", "ns"),
    // About the benchmark itself.
    lower(On::All, "bench.trace_overhead_ratio", "ratio"),
    lower(On::All, "bench.build_fixups_applied", "count"),
    lower(On::All, "bench.failed_ratio", "ratio"),
    higher(On::Sim, "bench.explained_ratio", "ratio"),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The metric a cell restates, and how its value follows from that one's.
pub type Alias = (&'static str, fn(f64) -> f64);

/// For an end-to-end metric `workload`'s family does not define: the metric
/// it restates there and how. A simulation has one timing, `wall_s`, so its
/// rate is runs per second and both latencies are that run; the service is
/// judged by rate and latency, so its `wall_s` is the seconds 1,000 answered
/// requests take. Such a cell is no measurement of its own: `--compare` and
/// `--sets` leave it out.
pub fn alias(metric: &str, workload: Workload) -> Option<Alias> {
    match (workload.is_sim(), metric) {
        (true, "req_per_s") => Some(("wall_s", |wall_s| 1.0 / wall_s)),
        (true, "latency_p50_us" | "latency_p99_us") => Some(("wall_s", |wall_s| wall_s * 1e6)),
        (false, "wall_s") => Some(("req_per_s", |req_per_s| 1000.0 / req_per_s)),
        _ => None,
    }
}

/// `BENCHMARK.json` as this catalog states it (`run.sh --benchmark-json`).
pub fn benchmark_json(run_seconds: u64) -> String {
    let rows = |metrics: &[Metric], bounded: bool| -> String {
        metrics
            .iter()
            .map(|m| {
                let bound = if bounded {
                    format!(", \"bound\": {}", m.bound)
                } else {
                    String::new()
                };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(&END_TO_END, true),
        rows(&PER_LAYER, false)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_api::json::{self, JsonValue};
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key).and_then(JsonValue::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the root of the repository");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");

        let workloads = doc.get("workloads").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, row) in Workload::ALL.iter().zip(workloads) {
            assert_eq!(field(row, "name"), w.name());
            assert_eq!(field(row, "why"), w.why());
        }

        let rows = doc.get("end_to_end").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for (m, row) in END_TO_END.iter().zip(rows) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(JsonValue::as_f64), Some(m.bound));
        }

        let rows = doc.get("per_layer").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        for (m, row) in PER_LAYER.iter().zip(rows) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better.as_str());
        }
    }
}
