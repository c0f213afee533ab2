//! What a workload is asked to do and what it hands back.

use crate::catalog::Workload;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    /// Seeds every generated input; the program sees only the inputs.
    pub seed: u64,
    /// How long to measure. Repetitions and rounds are added until the
    /// measured time reaches it.
    pub seconds: f64,
    /// Record spans and run the layer probes (per-layer metrics) instead
    /// of measuring the end-to-end metrics.
    pub traced: bool,
    /// A tenth of the estate and a fraction of the work, to check that
    /// everything still runs; its numbers mean nothing.
    pub quick: bool,
    /// How many compile fix-ups `run.sh` had to apply to build the tree.
    pub fixups: u64,
}

impl Options {
    pub fn scale(&self) -> f64 {
        if self.quick {
            0.1
        } else {
            1.0
        }
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations tried: repetitions for sim-*, requests for serve-*.
    pub attempted: u64,
    /// Of those, how many failed, were refused, could not be parsed or
    /// violated a correctness check.
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// What must repeat exactly for a fixed seed.
    pub fingerprint: String,
    /// Checks that failed and reconciliation gaps, in words.
    pub findings: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The harness binary itself, re-executed for a child role.
pub fn child_command(role: &str) -> Command {
    let exe = std::env::current_exe().expect("the harness knows its own path");
    let mut cmd = Command::new(exe);
    cmd.arg(role);
    cmd
}

/// SplitMix64: the harness's own generator for workload inputs, so that
/// input generation does not depend on the program's random streams.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64) -> InputRng {
        InputRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}
