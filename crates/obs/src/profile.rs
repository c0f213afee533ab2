//! Aggregated event-loop wall-clock profile.

use crate::event::SpanKind;

/// Aggregated timing for one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans observed.
    pub count: u64,
    /// Total wall-clock time across all spans, in microseconds.
    pub total_us: u64,
    /// Longest single span, in microseconds.
    pub max_us: u64,
}

impl PhaseStat {
    /// Mean span duration in microseconds (0 when no spans were seen).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

/// Wall-clock profile of one simulation run, aggregated per event-loop
/// phase.
///
/// Carried on the driver's `RunResult` but **excluded from canonical
/// serialization**: wall-clock time is machine- and load-dependent, so
/// it must never influence the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProfile {
    enabled: bool,
    wall_us: u64,
    phases: [PhaseStat; SpanKind::COUNT],
}

impl Default for RunProfile {
    /// A disabled, empty profile — what a run without observability
    /// carries.
    fn default() -> Self {
        RunProfile::new(false)
    }
}

impl RunProfile {
    /// New empty profile. `enabled` records whether the run actually
    /// collected timings (a disabled profile is all zeros by
    /// construction).
    pub fn new(enabled: bool) -> Self {
        RunProfile {
            enabled,
            wall_us: 0,
            phases: [PhaseStat::default(); SpanKind::COUNT],
        }
    }

    /// Whether timings were collected for this run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Fold one span of `kind` lasting `dur_us` microseconds into the
    /// aggregate.
    pub fn add(&mut self, kind: SpanKind, dur_us: u64) {
        let p = &mut self.phases[kind.index()];
        p.count += 1;
        p.total_us += dur_us;
        p.max_us = p.max_us.max(dur_us);
    }

    /// Record the end-to-end wall-clock time of the run.
    pub fn set_wall_us(&mut self, wall_us: u64) {
        self.wall_us = wall_us;
    }

    /// End-to-end wall-clock time of the run, in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.wall_us
    }

    /// Aggregate for one span kind.
    pub fn phase(&self, kind: SpanKind) -> PhaseStat {
        self.phases[kind.index()]
    }

    /// Every `(kind, aggregate)` pair in display order.
    pub fn phases(&self) -> impl Iterator<Item = (SpanKind, PhaseStat)> + '_ {
        SpanKind::ALL.iter().map(move |&k| (k, self.phase(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_disabled_and_empty() {
        let p = RunProfile::default();
        assert!(!p.enabled());
        assert_eq!(p.wall_us(), 0);
        for (_, stat) in p.phases() {
            assert_eq!(stat, PhaseStat::default());
        }
    }

    #[test]
    fn add_aggregates_count_total_and_max() {
        let mut p = RunProfile::new(true);
        p.add(SpanKind::Scrape, 10);
        p.add(SpanKind::Scrape, 30);
        p.add(SpanKind::DrsRound, 5);
        let s = p.phase(SpanKind::Scrape);
        assert_eq!(s.count, 2);
        assert_eq!(s.total_us, 40);
        assert_eq!(s.max_us, 30);
        assert_eq!(s.mean_us(), 20);
        assert_eq!(p.phase(SpanKind::DrsRound).count, 1);
        assert_eq!(p.phase(SpanKind::Placement).count, 0);
    }

    #[test]
    fn mean_of_empty_phase_is_zero() {
        assert_eq!(PhaseStat::default().mean_us(), 0);
    }

    #[test]
    fn wall_clock_is_stored() {
        let mut p = RunProfile::new(true);
        p.set_wall_us(1234);
        assert_eq!(p.wall_us(), 1234);
    }
}
