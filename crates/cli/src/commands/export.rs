//! `sapsim export` — run a simulation and write the dataset CSV.

use super::{execute_with_obs, obs_args_from, sim_config_from, SIM_BOOL_FLAGS, SIM_VALUE_OPTIONS};
use crate::args::Parsed;
use crate::error::CliError;
use sapsim_trace::TraceWriter;
use std::fs::File;
use std::io::{BufWriter, Write};

/// Execute the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, SIM_VALUE_OPTIONS, SIM_BOOL_FLAGS)?;
    let [path] = parsed.positionals() else {
        return Err(CliError::Usage(
            "export requires exactly one output file argument".into(),
        ));
    };
    let cfg = sim_config_from(&parsed)?;
    let obs = obs_args_from(&parsed)?;

    writeln!(
        out,
        "simulating {} days at scale {:.2} (seed {}) ...",
        cfg.days, cfg.scale, cfg.seed
    )?;
    let result = execute_with_obs(cfg, obs.as_ref(), out)?;

    let mut writer = match parsed.get("anonymize") {
        Some(salt_raw) => {
            let salt: u64 = salt_raw.parse().map_err(|_| {
                CliError::Usage(format!("invalid salt `{salt_raw}` for --anonymize"))
            })?;
            TraceWriter::anonymized(salt)
        }
        None => TraceWriter::plain(),
    };
    let file =
        File::create(path).map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
    let mut sink = BufWriter::new(file);
    let summary = writer.write_store(&result.store, &mut sink)?;
    sink.flush()?;
    writeln!(
        out,
        "wrote {} rows across {} series to {path}",
        summary.rows, summary.series
    )?;
    Ok(())
}
