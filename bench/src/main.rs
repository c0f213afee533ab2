//! The repository benchmark's harness. `bench/run.sh` builds it and passes
//! its arguments through; `README.md` beside it describes the modes.

mod catalog;
mod harness;
mod mix;
mod probes;
mod procfs;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use catalog::Workload;
use harness::{Options, Outcome};
use report::WorkloadReport;
use trace::Tracer;

/// How long one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const OUT_DIR: &str = "bench/out";

const USAGE: &str = "\
usage: bench/run.sh --workload W --seed N --seconds S --trace 0|1   one measured run; last line is its JSON result
       bench/run.sh [--quick] [--sets N] [--workload W] [--seed N] [--seconds S]
                                                                  all workloads untraced, then traced; writes bench/out/
       bench/run.sh --compare A.json B.json                        verdict per metric and workload
workloads: sim-region sim-controlplane serve-jsonl serve-http";

/// One workload, measured once: end to end when untraced; spans, phase
/// totals and layer probes when traced.
fn run_workload(opts: &Options) -> Outcome {
    let mut tracer = Tracer::new(opts.traced, 0, None);
    let mut out = if opts.workload.is_sim() {
        sim::run(opts, &mut tracer)
    } else {
        serve::run(opts, &mut tracer)
    };
    if opts.traced {
        probes::run_all(opts, &mut tracer, &mut out);
        out.set("bench.build_fixups_applied", opts.fixups as f64);
        out.set(
            "bench.failed_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        let path = format!("{OUT_DIR}/trace-{}.jsonl", opts.workload.name());
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl(opts.workload.name())));
        match written {
            Ok(()) => println!("trace: {} spans in {path}", tracer.spans.len()),
            Err(e) => eprintln!("bench: cannot write {path}: {e}"),
        }
    }
    report::finish(&mut out, opts.workload, opts.traced);
    out
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("`{key} {raw}` is not a valid value")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value("--workload") {
            None => Ok(None),
            Some(name) => Workload::from_name(name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload `{name}`")),
        }
    }

    /// The options both modes share, for an untraced run of `workload`.
    fn options(&self, workload: Workload) -> Result<Options, String> {
        Ok(Options {
            workload,
            seed: self.parsed("--seed", 42)?,
            seconds: self.parsed("--seconds", DEFAULT_SECONDS)?,
            traced: false,
            quick: self.flag("--quick"),
            fixups: self.parsed("--build-fixups", 0)?,
        })
    }
}

/// The contract run: one workload, one JSON object as the last line.
fn measured_run(args: &Args) -> Result<i32, String> {
    let traced = match args.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let workload = args.workload()?.ok_or("--trace needs --workload")?;
    let opts = Options {
        traced,
        ..args.options(workload)?
    };
    let outcome = run_workload(&opts);
    report::print_metrics(opts.workload, &outcome, opts.traced);
    // A printed result exits 0; `correct` carries the checks' verdict.
    println!("{}", report::result_line(&outcome, opts.traced));
    Ok(0)
}

/// The full report: every workload untraced (once per set), then traced.
fn suite(args: &Args) -> Result<i32, String> {
    let sets: usize = args.parsed("--sets", 1usize)?.max(1);
    let chosen = args.workload()?;
    let base = args.options(Workload::SimRegion)?;
    let mut reports = Vec::new();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| chosen.is_none_or(|c| c == *w))
    {
        let mut report = WorkloadReport {
            workload,
            sets: Vec::new(),
            traced: None,
        };
        for _ in 0..sets {
            let outcome = run_workload(&Options { workload, ..base });
            report::print_metrics(workload, &outcome, false);
            report.sets.push(outcome);
        }
        let traced = run_workload(&Options {
            workload,
            traced: true,
            ..base
        });
        report::print_metrics(workload, &traced, true);
        report.traced = Some(traced);
        reports.push(report);
    }

    let path = format!("{OUT_DIR}/BENCH_{}.json", report::utc_stamp());
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::write(
                &path,
                report::suite_json(&reports, base.seed, base.seconds, base.quick, base.fixups),
            )
        })
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("report: {path}");

    let mut failures: Vec<String> = reports
        .iter()
        .filter(|r| r.failed() > 0)
        .map(|r| {
            format!(
                "{}: {} failed operations or checks",
                r.workload.name(),
                r.failed()
            )
        })
        .collect();
    if sets >= 2 {
        failures.extend(report::sets_disagree(&reports, !base.quick));
    }
    for failure in &failures {
        println!("FAILED {failure}");
    }
    Ok(i32::from(!failures.is_empty()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("child-sim") => sim::child_main(&argv[1..]),
        Some("child-serve") => serve::child_main(&argv[1..]),
        _ => {
            let args = Args(argv);
            let result = if args.flag("--help") {
                println!("{USAGE}");
                Ok(0)
            } else if let Some(at) = args.0.iter().position(|a| a == "--compare") {
                match (args.0.get(at + 1), args.0.get(at + 2)) {
                    (Some(a), Some(b)) => report::compare(a, b),
                    _ => Err("--compare takes two report files".to_string()),
                }
            } else if args.flag("--benchmark-json") {
                print!("{}", catalog::benchmark_json(DEFAULT_SECONDS as u64));
                Ok(0)
            } else if args.flag("--trace") {
                measured_run(&args)
            } else {
                suite(&args)
            };
            result.unwrap_or_else(|e| {
                eprintln!("bench: {e}\n{USAGE}");
                2
            })
        }
    };
    std::process::exit(code);
}
