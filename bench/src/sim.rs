//! The `sim-*` workloads: one repetition is one fresh child process that
//! builds a configuration, runs `SimDriver` to the horizon and computes the
//! summary `sapsim simulate` prints.

use crate::catalog::Workload;
use crate::harness::{child_command, Options, Outcome};
use crate::procfs;
use crate::stats;
use crate::trace::{self, PhaseRow, Span, Tracer};
use sapsim_analysis::cdf::{utilization_cdf, VmResource};
use sapsim_analysis::classify::{table1_by_vcpu, table2_by_ram};
use sapsim_analysis::contention::contention_aggregate;
use sapsim_api::json::{self, JsonValue};
use sapsim_core::{fnv1a_64, RunResult, SimConfig, SimDriver, SimDuration};
use sapsim_obs::{MetricsRecorder, SpanKind};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{Child, ChildStdout, Stdio};
use std::time::Instant;

/// Children started only to time their set-up, and stopped as soon as they
/// are ready: the driver's contract asks for set-up to be repeated within a
/// run and the median reported. A simulation's set-up is a millisecond of
/// process start; over the three or four repetitions of a run its median
/// spread by 25–34 % across ten runs, over this many more samples by 4–13 %.
const SETUP_SAMPLES: usize = 40;

/// The configuration a workload simulates. Everything not named here is
/// the paper default (300 s scrapes, 30 s OpenStack gauges, DRS on).
pub fn config(workload: Workload, seed: u64, scale: f64) -> SimConfig {
    let builder = SimConfig::builder().scale(scale).seed(seed);
    match workload {
        Workload::SimRegion => builder.days(3).warmup_days(0),
        Workload::SimControlplane => builder
            .days(30)
            .warmup_days(7)
            .scrape_interval(SimDuration::from_hours(6)),
        other => panic!("{} is not a simulation workload", other.name()),
    }
    .build()
    .expect("the benchmark's simulation configs are valid")
}

/// The summary analysis `sapsim simulate` computes for its report.
fn summary(result: &RunResult) {
    black_box(table1_by_vcpu(result));
    black_box(table2_by_ram(result));
    black_box(utilization_cdf(result, VmResource::Cpu));
    black_box(utilization_cdf(result, VmResource::Memory));
    black_box(contention_aggregate(result));
}

/// FNV-1a over what a run must reproduce for a fixed seed: the counters,
/// where every VM ended up, and how much telemetry was recorded.
fn fingerprint(result: &RunResult) -> u64 {
    let mut bytes = format!("{:?}", result.stats).into_bytes();
    for spec in &result.specs {
        if let Some(vm) = result.cloud.vm(spec.id) {
            bytes.extend_from_slice(&vm.id.raw().to_le_bytes());
            bytes.extend_from_slice(&(vm.node.index() as u64).to_le_bytes());
        }
    }
    for count in [
        result.store.raw_series_count(),
        result.store.rolled_series_count(),
        result.store.raw_sample_count(),
    ] {
        bytes.extend_from_slice(&(count as u64).to_le_bytes());
    }
    fnv1a_64(&bytes)
}

/// Entry point of the re-executed child:
/// `child-sim WORKLOAD SEED SCALE TRACED ORIGIN REP`.
pub fn child_main(args: &[String]) -> i32 {
    let parse = || -> Option<(Workload, u64, f64, bool, u64, u32)> {
        Some((
            Workload::from_name(args.first()?)?,
            args.get(1)?.parse().ok()?,
            args.get(2)?.parse().ok()?,
            args.get(3)? == "1",
            args.get(4)?.parse().ok()?,
            args.get(5)?.parse().ok()?,
        ))
    };
    let Some((workload, seed, scale, traced, origin, rep)) = parse() else {
        eprintln!("child-sim: bad arguments {args:?}");
        return 2;
    };
    let mut tracer = Tracer::new(traced, u64::from(rep + 1) << 32, Some(origin));
    tracer.set_run(rep);
    let stdout = std::io::stdout();

    let line = tracer.span("simulate", |t| {
        let cfg = t.span("core.config.build", |_| config(workload, seed, scale));
        let driver = t.span("core.driver.new", |_| {
            SimDriver::new(cfg).expect("a built config validates")
        });
        // Set-up ends here; the harness timestamps this line.
        writeln!(stdout.lock(), "ready").expect("stdout is open");

        let cpu_before = procfs::cpu_seconds("self").unwrap_or(f64::NAN);
        let started = Instant::now();
        let result = t.span("core.driver.run", |t| {
            if !t.enabled() {
                return driver.run();
            }
            // The run is opaque to the harness; the phase totals the program
            // itself returns hang under its span as counted rows.
            let mut recorder = MetricsRecorder::new();
            let result = driver.run_with_recorder(&mut recorder);
            for (kind, stat) in result.profile.phases() {
                if kind != SpanKind::Run {
                    t.phase(kind.name(), stat.count, stat.total_us * 1000);
                }
            }
            result
        });
        let run_s = started.elapsed().as_secs_f64();
        t.span("analysis.summary", |_| summary(&result));
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds("self").unwrap_or(f64::NAN) - cpu_before;

        let s = &result.stats;
        let cache = result.cloud.view_cache_stats();
        let refreshes = cache.node.refreshes + cache.bb.refreshes;
        let clean = cache.node.clean_refreshes + cache.bb.clean_refreshes;
        // What `/proc` would not say is left out, and the harness fails the
        // repetition for the missing number.
        let mut line = format!("{{\"fingerprint\":\"{:016x}\"", fingerprint(&result));
        let numbers = [
            ("wall_s", wall_s),
            ("run_s", run_s),
            ("cpu_s", cpu_s),
            (
                "peak_rss_mib",
                procfs::peak_rss_mib("self").unwrap_or(f64::NAN),
            ),
            ("attempted", s.placements_attempted as f64),
            ("placed", s.placed as f64),
            ("no_candidate", s.failed_no_candidate as f64),
            ("fragmented", s.failed_fragmented as f64),
            ("retries", s.placement_retries as f64),
            ("departures", s.departures as f64),
            ("scrapes", s.scrapes as f64),
            ("drs_migrations", s.drs_migrations as f64),
            ("raw_samples", result.store.raw_sample_count() as f64),
            (
                "series",
                (result.store.raw_series_count() + result.store.rolled_series_count()) as f64,
            ),
            ("cache_refreshes", refreshes as f64),
            ("cache_clean", clean as f64),
        ];
        assert!(numbers.iter().map(|(key, _)| *key).eq(REPORT_NUMBERS));
        for (key, value) in numbers {
            if value.is_finite() {
                line.push_str(&format!(",\"{key}\":{value}"));
            }
        }
        line
    });
    let (spans, phases) = tracer.to_json_arrays();
    writeln!(
        stdout.lock(),
        "{line},\"spans\":{spans},\"phases\":{phases}}}"
    )
    .expect("stdout is open");
    0
}

/// The numbers a finished child reports beside its fingerprint.
const REPORT_NUMBERS: [&str; 16] = [
    "wall_s",
    "run_s",
    "cpu_s",
    "peak_rss_mib",
    "attempted",
    "placed",
    "no_candidate",
    "fragmented",
    "retries",
    "departures",
    "scrapes",
    "drs_migrations",
    "raw_samples",
    "series",
    "cache_refreshes",
    "cache_clean",
];

/// What a finished child printed, checked to be complete.
struct Report {
    fingerprint: String,
    numbers: BTreeMap<&'static str, f64>,
    spans: Option<(Vec<Span>, Vec<PhaseRow>)>,
}

impl Report {
    fn parse(line: &str) -> Result<Report, String> {
        let doc = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let fingerprint = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .filter(|print| !print.is_empty())
            .ok_or("no fingerprint")?
            .to_string();
        let mut numbers = BTreeMap::new();
        for key in REPORT_NUMBERS {
            let value = doc
                .get(key)
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("no number `{key}`"))?;
            numbers.insert(key, value);
        }
        let spans = doc
            .get("spans")
            .zip(doc.get("phases"))
            .and_then(|(s, p)| trace::from_json_arrays(s, p));
        Ok(Report {
            fingerprint,
            numbers,
            spans,
        })
    }

    /// `key` is one of [`REPORT_NUMBERS`].
    fn num(&self, key: &str) -> f64 {
        self.numbers[key]
    }

    /// The counters of one run add up: every arrival was placed or failed
    /// for a stated reason.
    fn accounting_holds(&self) -> bool {
        self.num("placed") + self.num("no_candidate") + self.num("fragmented")
            == self.num("attempted")
    }
}

/// A started child that has finished its set-up.
struct ReadyChild {
    child: Child,
    lines: Lines<BufReader<ChildStdout>>,
    /// Spawn until the child said it was ready.
    setup_s: f64,
}

fn start_child(opts: &Options, traced: bool, origin: u64, rep: u32) -> Result<ReadyChild, String> {
    let started = Instant::now();
    let mut child = child_command("child-sim")
        .args([
            opts.workload.name(),
            &opts.seed.to_string(),
            &opts.scale().to_string(),
            if traced { "1" } else { "0" },
            &origin.to_string(),
            &rep.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the simulation child: {e}"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
    let ready = lines.next().and_then(Result::ok);
    let setup_s = started.elapsed().as_secs_f64();
    if ready.as_deref() != Some("ready") {
        let _ = child.kill();
        let status = child.wait();
        return Err(format!(
            "simulation child did not get ready: {ready:?}, {status:?}"
        ));
    }
    Ok(ReadyChild {
        child,
        lines,
        setup_s,
    })
}

/// One more sample of `setup_s`: a child stopped as soon as it is ready.
fn time_setup(opts: &Options) -> Result<f64, String> {
    let mut ready = start_child(opts, false, 0, 0)?;
    let _ = ready.child.kill();
    ready
        .child
        .wait()
        .map_err(|e| format!("cannot wait for the simulation child: {e}"))?;
    Ok(ready.setup_s)
}

/// One repetition: a child that runs to the end and reports.
fn run_rep(opts: &Options, traced: bool, origin: u64, rep: u32) -> Result<(f64, Report), String> {
    let mut ready = start_child(opts, traced, origin, rep)?;
    let line = ready.lines.next().and_then(Result::ok);
    let status = ready
        .child
        .wait()
        .map_err(|e| format!("cannot wait for the simulation child: {e}"))?;
    if !status.success() {
        return Err(format!("simulation child failed ({status})"));
    }
    let report = Report::parse(&line.ok_or("simulation child printed no result")?)
        .map_err(|e| format!("simulation child's result: {e}"))?;
    Ok((ready.setup_s, report))
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut reps: Vec<Report> = Vec::new();
    let mut measured_s = 0.0;

    // Untraced repetitions until the measured time is reached; one when
    // `--quick`, and one for a traced invocation, which keeps it as the
    // reference for the tracing overhead.
    let budget_s = if opts.traced || opts.quick {
        0.0
    } else {
        opts.seconds
    };
    loop {
        out.attempted += 1;
        match run_rep(opts, false, 0, reps.len() as u32) {
            Ok((setup_s, report)) => {
                measured_s += report.num("wall_s");
                setups.push(setup_s);
                reps.push(report);
            }
            Err(e) => {
                out.failed += 1;
                out.findings.push(e);
                break;
            }
        }
        if measured_s >= budget_s {
            break;
        }
    }
    if !opts.traced && !opts.quick {
        for _ in 0..SETUP_SAMPLES {
            match time_setup(opts) {
                Ok(setup_s) => setups.push(setup_s),
                Err(e) => {
                    out.failed += 1;
                    out.findings.push(e);
                }
            }
        }
    }

    let mut traced_report = None;
    if opts.traced {
        out.attempted += 1;
        let (origin, rep) = (tracer.origin(), reps.len() as u32);
        tracer.set_run(rep);
        match tracer.span("rep", |t| {
            let (_, mut report) = run_rep(opts, true, origin, rep)?;
            let (spans, phases) = report.spans.take().ok_or("traced child printed no spans")?;
            t.absorb(spans, phases);
            Ok::<_, String>(report)
        }) {
            Ok(report) => traced_report = Some(report),
            Err(e) => {
                out.failed += 1;
                out.findings.push(e);
            }
        }
    }

    // Correctness: the counters add up in every run, and every run of this
    // seed — traced or not — ends in the same state.
    let Some(first) = reps.first() else {
        return out;
    };
    out.fingerprint = first.fingerprint.clone();
    for (i, report) in reps.iter().chain(traced_report.iter()).enumerate() {
        if report.fingerprint != out.fingerprint {
            out.failed += 1;
            out.findings.push(format!(
                "run {i} ended in state {}, run 0 in {}",
                report.fingerprint, out.fingerprint
            ));
        } else if !report.accounting_holds() {
            out.failed += 1;
            out.findings
                .push(format!("run {i}: placed + failed does not equal attempted"));
        }
    }

    let column = |key: &str| -> Vec<f64> { reps.iter().map(|r| r.num(key)).collect() };
    // The repetitions do identical work, so the fastest one is the cost of
    // that work with the least interference from the host's other tenants.
    let wall_s = stats::min(&column("wall_s"));
    if opts.traced {
        if let Some(traced) = &traced_report {
            per_layer(
                &mut out,
                tracer,
                traced,
                wall_s,
                stats::min(&column("run_s")),
            );
        }
    } else {
        println!(
            "repetitions: wall_s {:?} cpu_s {:?}; {} samples of setup_s",
            column("wall_s"),
            column("cpu_s"),
            setups.len()
        );
        out.set("setup_s", stats::median(&setups));
        out.set("wall_s", wall_s);
        out.set("cpu_s", stats::min(&column("cpu_s")));
        out.set("peak_rss_mib", stats::median(&column("peak_rss_mib")));
    }
    out
}

/// Per-layer rows of a traced repetition, and the reconciliation of its
/// wall-clock against the spans and phases that should explain it.
fn per_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    traced: &Report,
    untraced_wall_s: f64,
    untraced_run_s: f64,
) {
    let phase_s = |name: &str| -> f64 {
        tracer
            .phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.total_ns)
            .sum::<u64>() as f64
            / 1e9
    };
    let run_s = tracer.total_s("core.driver.run");
    // Top-level phases only: the three scrape phases are inside `scrape`.
    let top_level: f64 = [
        "placement",
        "scrape",
        "os_gauge",
        "drs_round",
        "cross_bb_round",
    ]
    .iter()
    .map(|p| phase_s(p))
    .sum();
    out.set("core.driver.run_s", run_s);
    out.set("core.driver.scrape_sample_s", phase_s("scrape.sample"));
    out.set("core.driver.scrape_reduce_s", phase_s("scrape.reduce"));
    out.set("core.driver.scrape_record_s", phase_s("scrape.record"));
    out.set("core.driver.drs_round_s", phase_s("drs_round"));
    out.set("core.driver.os_gauge_s", phase_s("os_gauge"));
    out.set("core.driver.placement_s", phase_s("placement"));
    out.set("core.driver.unattributed_ratio", 1.0 - top_level / run_s);
    out.set("core.driver.scrapes", traced.num("scrapes"));
    out.set("core.driver.placements", traced.num("attempted"));
    out.set("core.driver.drs_migrations", traced.num("drs_migrations"));
    out.set("core.driver.departures", traced.num("departures"));
    out.set(
        "core.viewcache.hit_ratio",
        traced.num("cache_clean") / traced.num("cache_refreshes"),
    );
    out.set(
        "scheduler.placed_ratio",
        traced.num("placed") / traced.num("attempted"),
    );
    out.set(
        "scheduler.retry_ratio",
        traced.num("retries") / traced.num("attempted"),
    );
    out.set("telemetry.raw_samples", traced.num("raw_samples"));
    out.set("telemetry.series", traced.num("series"));
    out.set(
        "analysis.summary_ms",
        tracer.total_s("analysis.summary") * 1e3,
    );
    let traced_wall_s = traced.num("wall_s");
    out.set(
        "obs.recorder_overhead_ratio",
        traced.num("run_s") / untraced_run_s,
    );
    out.set(
        "bench.trace_overhead_ratio",
        traced_wall_s / untraced_wall_s,
    );

    // Harness spans plus the program's own phase totals against the
    // wall-clock they claim to explain.
    let explained = tracer.total_s("core.config.build")
        + tracer.total_s("core.driver.new")
        + tracer.total_s("analysis.summary")
        + top_level;
    let ratio = explained / traced_wall_s;
    out.set("bench.explained_ratio", ratio);
    println!(
        "reconciliation: spans and phases explain {:.1} % of the traced wall_s ({explained:.3} s of {traced_wall_s:.3} s)",
        ratio * 100.0
    );
    if ratio < 0.90 {
        let gap = format!(
            "finding: {:.3} s ({:.1} %) of wall_s is inside SimDriver::run but in none of its phases (world build, event dispatch, departures, finalize)",
            traced_wall_s - explained,
            (1.0 - ratio) * 100.0
        );
        out.findings.push(gap);
    }
}
