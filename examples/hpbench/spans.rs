//! Spans recorded around the benchmark's calls into the program's
//! layers, kept in memory and written once when the traced run ends.
//!
//! A span is named after the layer it times (`trace.schema.parse`,
//! `busch_router.route`, ...). Spans named `hpbench.*` are the
//! benchmark's own structure (set-up, one repetition, one fleet run):
//! their self time is benchmark glue, not a layer.

use std::time::Instant;

/// Prefix of the benchmark's own structural spans.
pub const OWN: &str = "hpbench.";

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Counts taken at the span's boundary (bytes, events, moves, ...).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans. A recorder made with [`Recorder::off`] runs every
/// closure untimed, so one code path serves the untraced and the traced
/// run.
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Where the next packed child of each open span starts.
    packed_at: Vec<u64>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
            packed_at: Vec::new(),
        }
    }

    /// A recording recorder; recorders sharing an epoch (one per worker
    /// thread) produce comparable timestamps.
    pub fn on(epoch: Instant) -> Recorder {
        Recorder {
            epoch: Some(epoch),
            ..Recorder::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    fn now(&self) -> u64 {
        self.epoch.map_or(0, |e| {
            u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.is_on() {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
            counts: Vec::new(),
        });
        self.open.push(idx);
        self.packed_at.push(start);
        let out = f(self);
        self.open.pop();
        self.packed_at.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].counts.push((name, value));
        }
    }

    /// Adds a child of the innermost open span for `dur_ns` of work timed
    /// by other means: a profiler total, or the same call timed in a
    /// pre-pass. Packed children are laid back to back from the parent's
    /// start, so the parent's self time is its duration minus theirs.
    pub fn packed(&mut self, name: &'static str, dur_ns: u64) {
        let (Some(&parent), Some(at)) = (self.open.last(), self.packed_at.last_mut()) else {
            return;
        };
        let start = *at;
        *at += dur_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + dur_ns,
            counts: Vec::new(),
        });
    }

    /// A recorder for another thread, on this one's clock.
    pub fn fork(&self) -> Recorder {
        match self.epoch {
            Some(epoch) => Recorder::on(epoch),
            None => Recorder::off(),
        }
    }

    /// Appends a forked recorder's spans; its top-level spans become
    /// children of the innermost open span here.
    pub fn adopt(&mut self, forked: Recorder) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(forked.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `ivs` clipped to `[lo, hi)`.
fn union_len(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in ivs.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children may overlap (worker threads under one
/// parent); the covered part counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| s.dur() - union_len(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Wall time the layer spans cover, counted once however many threads
/// were inside a layer at the same moment.
pub fn layer_cover_ns(spans: &[Span]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !s.name.starts_with(OWN))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_len(&mut ivs, 0, u64::MAX)
}

/// Wall time of the top-level spans (the traced run's set-up and
/// repetition).
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum()
}

/// The spans file: one JSON object per span with its workload, the
/// repetition it belongs to, and its counts.
pub fn to_json(workload: &str, spans: &[Span]) -> serde_json::Value {
    use serde_json::{json, Value};
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "workload": workload,
                    "rep": 0u32,
                    "name": s.name,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "counts": Value::object(s.counts.iter().map(|&(k, v)| (k, json!(v)))),
                })
            })
            .collect(),
    )
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    hotpotato_trace::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Resets the peak resident set to the current one, so the next
/// [`peak_rss_mb`] reads the peak of the stage that follows. Where the
/// kernel refuses, the reading stays the process peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("hpbench.rep", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("a.inner", Some(1), 20, 30),
            span("b", Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // The layers cover 10..60 and 70..90 of the 100 ns repetition.
        assert_eq!(layer_cover_ns(&spans), 70);
        assert_eq!(root_wall_ns(&spans), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers inside one parent: 10..50 and 30..80 cover 70 ns.
        let spans = [
            span("hpbench.ladder", None, 0, 100),
            span("w0", Some(0), 10, 50),
            span("w1", Some(0), 30, 80),
            span("late", Some(0), 90, 120),
        ];
        // The child running past the parent's end is clipped to it.
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
        assert_eq!(layer_cover_ns(&spans), 70 + 30);
    }

    #[test]
    fn packed_children_lay_back_to_back_from_the_parent_start() {
        let mut rec = Recorder::on(Instant::now());
        rec.span("route", |rec| {
            rec.packed("conflict", 5);
            rec.packed("kinematics", 7);
            rec.count("moves", 3.0);
        });
        let spans = rec.into_spans();
        let route = &spans[0];
        assert_eq!(spans[1].start_ns, route.start_ns);
        assert_eq!(spans[2].start_ns, route.start_ns + 5);
        assert_eq!(spans[2].end_ns, route.start_ns + 12);
        assert_eq!(route.counts, vec![("moves", 3.0)]);
        assert_eq!(self_times(&spans)[0], route.dur().saturating_sub(12));
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let mut main = Recorder::on(Instant::now());
        let mut worker = main.fork();
        worker.span("run", |rec| rec.span("parse", |_| ()));
        main.span("ladder", |rec| rec.adopt(worker));
        let spans = main.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn an_off_recorder_runs_the_closure_and_keeps_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("x", |rec| rec.span("y", |_| 7)), 7);
        rec.packed("z", 3);
        assert!(rec.into_spans().is_empty());
    }
}
