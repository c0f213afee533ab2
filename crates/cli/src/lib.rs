//! # sapsim-cli — the `sapsim` command
//!
//! A small command-line front end over the workspace:
//!
//! ```text
//! sapsim simulate [OPTIONS]        run a simulation and print a summary
//! sapsim sweep    MANIFEST [OPTS]  run a deterministic scenario grid
//! sapsim export   [OPTIONS] FILE   run a simulation and export the dataset CSV
//! sapsim import   FILE [OPTIONS]   load a dataset CSV and print summary stats
//! sapsim obs summary FILE          summarize an --obs-out JSONL log
//! sapsim obs metrics FILE...       merge sapsim.metrics/v1 snapshots
//! sapsim serve    [OPTIONS]        run the placement service (or drive one)
//! sapsim tables                    print the static paper tables (3, 4, 5)
//! sapsim help                      this text
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's only CLI is this thin
//! wrapper; a parser dependency would outweigh it). Failures are typed
//! ([`CliError`]) and map to stable exit codes: `2` usage, `3` invalid
//! configuration, `4` I/O, `5` malformed input data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod args;
pub mod commands;
pub mod error;
pub mod serve;

pub use args::{ArgError, Parsed};
pub use error::CliError;

use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
sapsim — reproduction of the SAP Cloud Infrastructure dataset study (IMC '25)

USAGE:
    sapsim <COMMAND> [OPTIONS]

COMMANDS:
    simulate    run a simulation and print the headline findings
    sweep       run a scenario grid from a manifest and compare the runs
    export      run a simulation and write the telemetry as dataset CSV
    import      load a dataset CSV (simulated or real) and summarize it
    obs         inspect observability artifacts (obs summary | obs metrics)
    serve       run the incremental scheduler as a placement service
    tables      print the paper's static tables (3, 4, 5)
    help        show this message

SIMULATION OPTIONS (simulate, export):
    --scale <F>          fleet/workload scale, 0 < F <= 100 [default: 0.05]
                         values above 1 replicate the studied region into a
                         multi-region estate (e.g. 10 = ten regions)
    --days <N>           observed days                      [default: 5]
    --seed <N>           RNG seed                           [default: 0]
    --policy <NAME>      spread | pack-memory | paper-default |
                         contention-aware | lifetime-aware  [default: paper-default]
    --granularity <G>    bb | node                          [default: bb]
    --no-drs             disable the DRS-style rebalancer
    --cross-bb           enable the cross-building-block rebalancer
    --overcommit <F>     general-purpose vCPU:pCPU ratio    [default: 4.0]
    --no-warmup          skip the 7-day pre-observation ramp
    --progress           live heartbeat on stderr (sim-day, events/s, live
                         VMs, ETA); observation only, results unchanged
    --faults <SPEC>      inject deterministic faults: a JSON spec file, or
                         inline key=value pairs (fail, downtime, straggler,
                         slowdown, dropout, dropout-hours, retries, backoff),
                         e.g. --faults fail=6.0,downtime=12,dropout=2.0
    --json               (simulate only) print a single-line machine-readable
                         run summary (schema sapsim.run-summary/v1) instead
                         of the human-readable report
    --out <DIR>          (simulate only) also write every paper figure CSV
                         (Fig. 5-15), Tables 3-5 and report.txt computed
                         from this run into DIR

SWEEP OPTIONS:
    sweep <MANIFEST>     JSON grid manifest: base-config overrides plus axes
                         (seeds, policies, granularities, drs, faults, scales)
    --workers <N>        worker threads, 0 = one per CPU    [default: 0]
                         the report bytes are identical at any worker count
    --out <DIR>          also write report.json, report.txt, and the CDF /
                         contention overlay CSVs into DIR
    --obs-dir <DIR>      record each run and write per-scenario JSONL logs
                         (wall-clock timings; outside the byte-equality
                         contract)
    --metrics-dir <DIR>  write a sapsim.metrics/v1 snapshot per cell plus
                         sweep.metrics.json with pool health (per-worker
                         cells, busy time, claim depth); wall-clock data
    --json               print the sweep report as single-line JSON
                         (schema sapsim.sweep-report/v1)

OBSERVABILITY OPTIONS (simulate, export):
    --obs-out <FILE>     write the decision/span event log as JSON Lines
    --obs-chrome <FILE>  write a chrome://tracing span trace
    --obs-sample <F>     decision audit sampling rate in [0, 1] [default: 1.0]
    --obs-ring <N>       event ring-buffer capacity           [default: 65536]
    --metrics-out <FILE> write the engine-health metrics registry (wheel
                         occupancy, cache hit rates, prune effectiveness,
                         scrape timings) as a sapsim.metrics/v1 snapshot

OBS COMMAND:
    obs summary <FILE>   aggregate a JSONL log: span timing, decision
                         outcomes, rejection totals, counters
    obs metrics <FILE>.. merge one or more sapsim.metrics/v1 snapshots:
                         counters add, gauges last-write-wins, histograms
                         merge bucket-wise
    --prom               render in Prometheus text format (counters only
                         for summary; full families for metrics)

SERVE OPTIONS:
    --listen <ADDR>      HTTP bind address        [default: 127.0.0.1:7070]
                         endpoints: POST /v1/request (one sapsim.api/v1
                         envelope per body), GET /v1/state, GET /healthz,
                         GET /metrics (Prometheus text)
    --tcp <ADDR>         also serve JSONL-over-TCP (one envelope per line,
                         persistent connections, same codec as HTTP)
    --workers <N>        read-path worker threads          [default: 4]
                         mutations always serialize onto one writer thread
    --strict             reject unknown envelope fields (default tolerates)
    --max-body-kib <N>   largest request body / line, KiB  [default: 64]
    --read-timeout-ms <N> socket read budget per request   [default: 2000]
    --scale/--seed/--policy/--granularity/--overcommit
                         estate knobs, as for simulate
    --script <FILE>      without --connect: apply the script's envelope
                         lines to an in-process engine and print each
                         response (the offline differential oracle)
    --connect <ADDR>     drive a running server over HTTP with --script
    --connect-tcp <ADDR> drive a running server over TCP with --script

EXPORT OPTIONS:
    --anonymize <SALT>   consistently hash entity names (like the
                         published dataset)

IMPORT OPTIONS:
    --days <N>           rollup window of the loaded store  [default: 30]

EXIT CODES:
    0 success | 2 usage error | 3 invalid configuration |
    4 I/O error | 5 malformed input data
";

/// Entry point shared by the binary and the tests: returns the process
/// exit code (`0` on success, otherwise [`CliError::exit_code`]).
///
/// A command whose stdout reader went away (`sapsim obs summary F |
/// head -5`) ends quietly with `0`, as a filter does; a broken pipe
/// anywhere else — a `serve --connect` socket, say — is an I/O error.
pub fn run(argv: &[String]) -> i32 {
    let mut out = StdoutWatch {
        inner: std::io::stdout(),
        reader_left: false,
    };
    let result = run_to(argv, &mut out).and_then(|()| Ok(out.flush()?));
    exit_code(result, out.reader_left, &mut std::io::stderr())
}

/// The exit code of a finished command. A failure prints to `stderr`,
/// with the `sapsim help` hint for a usage error — unless stdout's reader
/// had already left, which ends the command quietly.
fn exit_code(result: Result<(), CliError>, reader_left: bool, stderr: &mut dyn Write) -> i32 {
    match result {
        Err(err) if !reader_left => {
            // Nothing is left to do if stderr is gone too.
            let _ = writeln!(stderr, "sapsim: error: {err}");
            if err.exit_code() == 2 {
                let _ = writeln!(stderr, "run `sapsim help` for usage");
            }
            err.exit_code()
        }
        _ => 0,
    }
}

/// Stdout that notes when a write finds its reader gone (`BrokenPipe`).
struct StdoutWatch<W> {
    inner: W,
    reader_left: bool,
}

impl<W: Write> StdoutWatch<W> {
    fn watch<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(err) = &result {
            self.reader_left |= err.kind() == std::io::ErrorKind::BrokenPipe;
        }
        result
    }
}

impl<W: Write> Write for StdoutWatch<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let result = self.inner.write(buf);
        self.watch(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let result = self.inner.flush();
        self.watch(result)
    }
}

/// Like [`run`], but writing to an arbitrary sink (testable).
pub fn run_to(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "simulate" => commands::simulate::run(rest, out),
        "sweep" => commands::sweep::run(rest, out),
        "export" => commands::export::run(rest, out),
        "import" => commands::import::run(rest, out),
        "obs" => commands::obs::run(rest, out),
        "serve" => serve::run(rest, out),
        "tables" => commands::tables::run(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    /// A sink whose reader has gone.
    struct Closed;

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(Error::from(ErrorKind::BrokenPipe))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(Error::from(ErrorKind::BrokenPipe))
        }
    }

    fn code_and_stderr(result: Result<(), CliError>, reader_left: bool) -> (i32, String) {
        let mut stderr = Vec::new();
        let code = exit_code(result, reader_left, &mut stderr);
        (code, String::from_utf8(stderr).expect("utf8"))
    }

    #[test]
    fn a_broken_stdout_ends_the_command_quietly() {
        let mut out = StdoutWatch {
            inner: Closed,
            reader_left: false,
        };
        let result = run_to(&["help".to_string()], &mut out);
        assert!(matches!(result, Err(CliError::Io(_))));
        assert!(out.reader_left);
        assert_eq!(code_and_stderr(result, out.reader_left), (0, String::new()));
    }

    #[test]
    fn other_broken_pipes_stay_io_errors_and_only_usage_errors_hint() {
        // What a `serve --connect` socket whose peer left reports.
        let socket = CliError::from(Error::from(ErrorKind::BrokenPipe));
        let (code, stderr) = code_and_stderr(Err(socket), false);
        assert_eq!(code, 4);
        assert!(stderr.starts_with("sapsim: error: "), "{stderr}");
        assert!(!stderr.contains("sapsim help"), "{stderr}");

        let usage = CliError::Usage("unknown command `x`".into());
        let (code, stderr) = code_and_stderr(Err(usage), false);
        assert_eq!(code, 2);
        assert_eq!(
            stderr,
            "sapsim: error: unknown command `x`\nrun `sapsim help` for usage\n"
        );
        assert_eq!(code_and_stderr(Ok(()), false), (0, String::new()));
    }
}
