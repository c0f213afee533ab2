//! The live `--progress` heartbeat: a recorder wrapper that prints where
//! a run stands on stderr.

use std::time::Instant;

use crate::event::ObsEvent;
use crate::metrics::MetricsRegistry;
use crate::recorder::{Recorder, RunProgress};

const MILLIS_PER_DAY: u64 = 86_400_000;

/// Wraps a recorder and prints a heartbeat on stderr at most once a
/// second, then one `run complete` line at the horizon. Everything else,
/// `ENABLED` included, passes through, so a wrapped
/// [`NullRecorder`](crate::NullRecorder) still compiles its
/// instrumentation away. It reads only the wall clock and writes only to
/// stderr: nothing flows back into the run.
#[derive(Debug)]
pub struct ProgressRecorder<'a, R> {
    inner: &'a mut R,
    started: Instant,
    last: Instant,
    events: u64,
}

impl<'a, R: Recorder> ProgressRecorder<'a, R> {
    /// Wrap `inner`; elapsed time and the ETA count from now.
    pub fn new(inner: &'a mut R) -> Self {
        let now = Instant::now();
        ProgressRecorder {
            inner,
            started: now,
            last: now,
            events: 0,
        }
    }
}

impl<R: Recorder> Recorder for ProgressRecorder<'_, R> {
    const ENABLED: bool = R::ENABLED;

    fn record(&mut self, event: ObsEvent) {
        self.inner.record(event);
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.inner.counter_add(name, delta);
    }

    fn wants_decision(&mut self, vm_uid: u64) -> bool {
        self.inner.wants_decision(vm_uid)
    }

    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.inner.metrics_mut()
    }

    /// Counts events and reads the clock every 8,192 of them.
    fn tick(&mut self, progress: impl FnOnce() -> RunProgress) {
        self.events += 1;
        if self.events & 0x1FFF == 0 && self.last.elapsed().as_secs() >= 1 {
            self.last = Instant::now();
            let elapsed = self.started.elapsed().as_secs_f64();
            eprintln!("{}", heartbeat_line(&progress(), elapsed));
        }
    }

    fn finish(&mut self, progress: RunProgress) {
        self.inner.finish(progress);
        let elapsed = self.started.elapsed().as_secs_f64();
        eprintln!("{}", complete_line(&progress, elapsed));
    }
}

/// Sim-day reached, events/s, live VMs, and a wall-clock ETA
/// extrapolated from the sim-time fraction covered so far.
fn heartbeat_line(p: &RunProgress, elapsed_s: f64) -> String {
    let frac = (p.now_ms as f64 / p.horizon_ms as f64).min(1.0);
    let eta_s = if frac > 0.0 {
        elapsed_s * (1.0 - frac) / frac
    } else {
        0.0
    };
    format!(
        "sapsim: day {:.1}/{} ({:4.1}%) | {} events, {:.0} ev/s | {} VMs live | ETA {eta_s:.0}s",
        p.now_ms as f64 / MILLIS_PER_DAY as f64,
        p.horizon_ms / MILLIS_PER_DAY,
        frac * 100.0,
        p.events,
        p.events as f64 / elapsed_s.max(1e-9),
        p.live_vms,
    )
}

fn complete_line(p: &RunProgress, elapsed_s: f64) -> String {
    format!(
        "sapsim: run complete | {} events in {elapsed_s:.1}s ({:.0} ev/s) | {} VMs live at horizon",
        p.events,
        p.events as f64 / elapsed_s.max(1e-9),
        p.live_vms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRecorder, NullRecorder};

    #[test]
    fn heartbeat_and_completion_lines_keep_their_format() {
        let p = RunProgress {
            now_ms: 9 * MILLIS_PER_DAY / 2,
            horizon_ms: 30 * MILLIS_PER_DAY,
            events: 120_000,
            live_vms: 4_321,
        };
        assert_eq!(
            heartbeat_line(&p, 3.0),
            "sapsim: day 4.5/30 (15.0%) | 120000 events, 40000 ev/s | 4321 VMs live | ETA 17s"
        );
        let start = RunProgress { now_ms: 0, ..p };
        assert_eq!(
            heartbeat_line(&start, 2.0),
            "sapsim: day 0.0/30 ( 0.0%) | 120000 events, 60000 ev/s | 4321 VMs live | ETA 0s"
        );
        assert_eq!(
            complete_line(&p, 2.5),
            "sapsim: run complete | 120000 events in 2.5s (48000 ev/s) | 4321 VMs live at horizon"
        );
    }

    #[test]
    fn the_wrapper_passes_everything_else_through() {
        const { assert!(!<ProgressRecorder<'_, NullRecorder> as Recorder>::ENABLED) };
        const { assert!(<ProgressRecorder<'_, MetricsRecorder> as Recorder>::ENABLED) };
        let mut inner = MetricsRecorder::new();
        let mut rec = ProgressRecorder::new(&mut inner);
        rec.counter_add("placements", 3);
        rec.metrics_mut().expect("registry").gauge("g", 1.0);
        let mut asked = false;
        rec.tick(|| {
            asked = true;
            RunProgress {
                now_ms: 0,
                horizon_ms: 1,
                events: 1,
                live_vms: 0,
            }
        });
        assert!(!asked, "the first tick does not read the run");
        assert_eq!(inner.registry().counter_value("placements"), Some(3));
        assert_eq!(inner.registry().gauge_value("g"), Some(1.0));
    }
}
