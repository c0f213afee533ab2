//! `sapsim tables` — the paper's static tables.

use crate::args::Parsed;
use crate::error::CliError;
use sapsim_analysis::tables::{render_table3, render_table4, render_table5};
use std::io::Write;

/// Execute the subcommand.
pub(crate) fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &[])?;
    if !parsed.positionals().is_empty() {
        return Err(CliError::Usage("tables takes no arguments".into()));
    }
    writeln!(out, "## Table 3 — dataset comparison\n")?;
    writeln!(out, "{}", render_table3())?;
    writeln!(out, "## Table 4 — metric catalog\n")?;
    writeln!(out, "{}", render_table4())?;
    writeln!(out, "## Table 5 — data centers\n")?;
    writeln!(out, "{}", render_table5())?;
    Ok(())
}
