//! Output helpers shared by the ablation binaries (`exp_ablation`,
//! `exp_overcommit`, `exp_rebalance`): the `SAPSIM_*` base configuration
//! and a standard output directory.

use sapsim_core::SimConfig;
use std::fs;
use std::io;
use std::path::PathBuf;

/// The scale [`experiment_config`] falls back to: 10 % of the region
/// (≈182 nodes, ≈4.5k VMs) — laptop-friendly while preserving every
/// qualitative effect. Override with the `SAPSIM_SCALE` environment
/// variable (e.g. `SAPSIM_SCALE=1.0` for the paper's full deployment).
pub const DEFAULT_EXPERIMENT_SCALE: f64 = 0.10;

/// The observation window [`experiment_config`] falls back to. The
/// paper's is 30 days; the default here trades a shorter window for
/// iteration speed. Override with `SAPSIM_DAYS`.
pub const DEFAULT_EXPERIMENT_DAYS: u64 = 10;

/// Build the standard experiment configuration, honoring the
/// `SAPSIM_SCALE`, `SAPSIM_DAYS`, and `SAPSIM_SEED` environment variables.
pub fn experiment_config() -> SimConfig {
    let env = |key: &str| std::env::var(key).ok();
    let mut cfg = SimConfig::default();
    cfg.scale = env("SAPSIM_SCALE")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_EXPERIMENT_SCALE);
    cfg.days = env("SAPSIM_DAYS")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_EXPERIMENT_DAYS);
    cfg.seed = env("SAPSIM_SEED").and_then(|v| v.parse().ok()).unwrap_or(0);
    cfg
}

/// The output directory for experiment artifacts (`out/` under the
/// workspace root, or `SAPSIM_OUT`).
pub fn out_dir() -> PathBuf {
    std::env::var("SAPSIM_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("out"))
}

/// Write an artifact into the output directory, creating it if needed.
/// Returns the full path.
pub fn write_artifact(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = out_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_round_trip() {
        let unique = format!("test-artifact-{}.txt", std::process::id());
        let path = write_artifact(&unique, "hello").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "hello");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn experiment_config_defaults() {
        // Only check defaults when the env overrides are absent.
        if std::env::var("SAPSIM_SCALE").is_err() && std::env::var("SAPSIM_DAYS").is_err() {
            let cfg = experiment_config();
            assert_eq!(cfg.scale, DEFAULT_EXPERIMENT_SCALE);
            assert_eq!(cfg.days, DEFAULT_EXPERIMENT_DAYS);
            assert!(cfg.validate().is_ok());
        }
    }
}
