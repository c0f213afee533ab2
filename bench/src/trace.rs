//! Harness-side spans: recorded around calls into a layer's public
//! functions, kept in memory, written out when the run ends.
//!
//! The program under test is not instrumented. A disabled tracer reads no
//! clock, so the untraced runs that produce the end-to-end metrics pay
//! nothing for it.

use sapsim_api::json::{self, JsonValue};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One timed interval. `parent` is 0 for a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    /// Nanoseconds since the origin of the harness's tracer, which child
    /// processes are told, so all spans of one run share a time line.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Which repetition or round of the workload the span belongs to.
    pub run: u32,
    /// Request kind for per-request spans, empty otherwise.
    pub op: String,
}

/// A count and a total the program itself reported (a `RunProfile` phase),
/// attached under the opaque span that contains it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub parent: u64,
    pub name: String,
    pub run: u32,
    pub count: u64,
    pub total_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Unix time of the shared time line's zero, in nanoseconds.
    origin_unix_ns: u64,
    /// Where this tracer's `epoch` lies on that time line.
    epoch_ns: u64,
    next_id: u64,
    stack: Vec<u64>,
    run: u32,
    pub spans: Vec<Span>,
    pub phases: Vec<PhaseRow>,
}

impl Tracer {
    /// `id_base` keeps ids of different tracers (threads, child processes)
    /// apart once their spans are merged; `origin` is the
    /// [`Tracer::origin`] of the tracer they will be merged into.
    pub fn new(enabled: bool, id_base: u64, origin: Option<u64>) -> Tracer {
        let unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let origin_unix_ns = origin.unwrap_or(unix_ns);
        Tracer {
            enabled,
            epoch: Instant::now(),
            origin_unix_ns,
            epoch_ns: unix_ns.saturating_sub(origin_unix_ns),
            next_id: id_base + 1,
            stack: Vec::new(),
            run: 0,
            spans: Vec::new(),
            phases: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> u64 {
        self.origin_unix_ns
    }

    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch_ns + self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_op(name, "", f)
    }

    /// Like [`Tracer::span`], tagged with the request kind.
    pub fn span_op<T>(&mut self, name: &str, op: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            run: self.run,
            op: op.to_string(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Attach a program-reported phase total under the innermost open span.
    pub fn phase(&mut self, name: &str, count: u64, total_ns: u64) {
        if self.enabled {
            self.phases.push(PhaseRow {
                parent: self.stack.last().copied().unwrap_or(0),
                name: name.to_string(),
                run: self.run,
                count,
                total_ns,
            });
        }
    }

    /// Take over spans recorded elsewhere; roots among them become
    /// children of the innermost open span.
    pub fn absorb(&mut self, spans: Vec<Span>, phases: Vec<PhaseRow>) {
        let adopt = self.stack.last().copied().unwrap_or(0);
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent == 0 {
                s.parent = adopt;
            }
            s
        }));
        self.phases.extend(phases);
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Durations in nanoseconds of the spans called `name`; with `op`, only
    /// of those tagged with it.
    pub fn durations_ns(&self, name: &str, op: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && op.is_none_or(|op| s.op == op))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// One JSON object per line: every span with its self time (duration
    /// minus the part its children cover), then every phase row.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut children_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            *children_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out = String::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let covered = children_ns.get(&s.id).copied().unwrap_or(0);
            let _ = write!(out, "{{\"id\":{},\"parent\":{},\"name\":", s.id, s.parent);
            json::push_str(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"workload\":",
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(covered)
            );
            json::push_str(&mut out, workload);
            let _ = write!(out, ",\"run\":{}", s.run);
            if !s.op.is_empty() {
                out.push_str(",\"op\":");
                json::push_str(&mut out, &s.op);
            }
            out.push_str("}\n");
        }
        for p in &self.phases {
            let _ = write!(out, "{{\"phase_of\":{},\"name\":", p.parent);
            json::push_str(&mut out, &p.name);
            let _ = write!(
                out,
                ",\"count\":{},\"total_ns\":{},\"workload\":",
                p.count, p.total_ns
            );
            json::push_str(&mut out, workload);
            let _ = writeln!(out, ",\"run\":{}}}", p.run);
        }
        out
    }

    /// The spans and phase rows as one JSON array each, for a child process
    /// to hand to the harness that spawned it.
    pub fn to_json_arrays(&self) -> (String, String) {
        let mut spans = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            let _ = write!(spans, "[{},{},", s.id, s.parent);
            json::push_str(&mut spans, &s.name);
            let _ = write!(spans, ",{},{},{}]", s.start_ns, s.end_ns, s.run);
        }
        spans.push(']');
        let mut phases = String::from("[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            let _ = write!(phases, "[{},", p.parent);
            json::push_str(&mut phases, &p.name);
            let _ = write!(phases, ",{},{},{}]", p.run, p.count, p.total_ns);
        }
        phases.push(']');
        (spans, phases)
    }
}

/// Inverse of [`Tracer::to_json_arrays`].
pub fn from_json_arrays(
    spans: &JsonValue,
    phases: &JsonValue,
) -> Option<(Vec<Span>, Vec<PhaseRow>)> {
    let spans = spans
        .as_arr()?
        .iter()
        .map(|row| {
            let row = row.as_arr()?;
            Some(Span {
                id: row.first()?.as_u64()?,
                parent: row.get(1)?.as_u64()?,
                name: row.get(2)?.as_str()?.to_string(),
                start_ns: row.get(3)?.as_u64()?,
                end_ns: row.get(4)?.as_u64()?,
                run: row.get(5)?.as_u64()? as u32,
                op: String::new(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let phases = phases
        .as_arr()?
        .iter()
        .map(|row| {
            let row = row.as_arr()?;
            Some(PhaseRow {
                parent: row.first()?.as_u64()?,
                name: row.get(1)?.as_str()?.to_string(),
                run: row.get(2)?.as_u64()? as u32,
                count: row.get(3)?.as_u64()?,
                total_ns: row.get(4)?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some((spans, phases))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_closure() {
        let mut t = Tracer::new(false, 0, None);
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        t.phase("p", 1, 1);
        assert!(t.spans.is_empty() && t.phases.is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true, 100, None);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.phase("scrape", 3, 1_000);
        });
        assert_eq!(t.spans.len(), 2);
        let (outer, inner) = (&t.spans[0], &t.spans[1]);
        assert_eq!((outer.id, outer.parent), (101, 0));
        assert_eq!((inner.id, inner.parent), (102, 101));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.phases[0].parent, 101);

        let text = t.to_jsonl("w");
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        let self_ns = first.get("self_ns").unwrap().as_u64().unwrap();
        let outer_ns = outer.end_ns - outer.start_ns;
        let inner_ns = inner.end_ns - inner.start_ns;
        assert_eq!(self_ns, outer_ns - inner_ns);
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn spans_survive_the_trip_through_a_child_process_line() {
        let mut parent = Tracer::new(true, 0, None);
        let mut child = Tracer::new(true, 1 << 32, Some(parent.origin()));
        child.set_run(2);
        child.span("simulate", |t| {
            t.span("core.driver.run", |t| t.phase("placement", 5, 50));
        });
        let (spans, phases) = child.to_json_arrays();
        let (spans, phases) = from_json_arrays(
            &json::parse(&spans).unwrap(),
            &json::parse(&phases).unwrap(),
        )
        .unwrap();
        assert_eq!(spans, child.spans);
        assert_eq!(phases, child.phases);

        parent.span("rep", |t| t.absorb(spans, phases));
        assert_eq!(parent.spans[1].parent, parent.spans[0].id);
        assert_eq!(parent.spans[2].parent, child.spans[0].id);
    }
}
