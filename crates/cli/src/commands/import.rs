//! `sapsim import` — load a dataset CSV and summarize it. Works on both
//! simulator exports and (shape-wise) the published Zenodo dataset.

use crate::args::Parsed;
use crate::error::CliError;
use sapsim_analysis::trace::TraceReader;
use sapsim_telemetry::{summary, MetricId};
use std::fs::File;
use std::io::{BufReader, Write};

/// Execute the subcommand.
pub(crate) fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &["days"], &[])?;
    let [path] = parsed.positionals() else {
        return Err(CliError::Usage(
            "import requires exactly one input file argument".into(),
        ));
    };
    let days: usize = parsed.get_parsed("days", 30usize)?;

    let file = File::open(path).map_err(|e| CliError::Io(format!("cannot open {path}: {e}")))?;
    let (store, loaded) = TraceReader::new().read_into_store(&mut BufReader::new(file), days)?;
    writeln!(
        out,
        "loaded {} rows ({} skipped) into {} series",
        loaded.rows,
        loaded.skipped,
        store.raw_series_count()
    )?;

    writeln!(out, "\nper-metric coverage:")?;
    for metric in MetricId::ALL {
        let series = store.series_of(metric);
        if series.is_empty() {
            continue;
        }
        let means: Vec<f64> = series.iter().filter_map(|(_, s)| s.mean()).collect();
        let samples: usize = series.iter().map(|(_, s)| s.len()).sum();
        writeln!(
            out,
            "  {:<52} {:>6} series {:>10} samples  mean {:>12.3}  p95 {:>12.3}",
            metric.name(),
            series.len(),
            samples,
            summary::mean(&means).unwrap_or(0.0),
            summary::quantile(&means, 0.95).unwrap_or(0.0),
        )?;
    }
    Ok(())
}
