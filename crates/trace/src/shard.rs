//! Sharded parallel trace verification and pipeline self-telemetry.
//!
//! The `snapshot` checkpoints recorded at every phase entry (see
//! [`crate::schema::Snapshot`]) split a trace into independently
//! replayable segments: segment `k` seeds a [`verify`] stream state from
//! snapshot `k` (already proven consistent by the segment before it),
//! replays its event range, and finishes by checking snapshot `k+1`
//! against the replayed state. Chaining the per-segment proofs
//! reproduces exactly what the sequential pass proves, so the fan-out
//! over scoped worker threads is free to complete in any order —
//! [`verify_trace_sharded`] still reports the **same first divergence**
//! (same line, same message) the sequential [`crate::verify_trace`]
//! would, at any job count:
//!
//! - a valid prefix up to line `L` means every snapshot before `L`
//!   passed its consistency check, so every seed before `L` is
//!   trustworthy and the owning segment reproduces the sequential
//!   failure at `L` verbatim;
//! - segments after the failing one can only fail at strictly later
//!   lines (their ranges start past `L`), so taking the minimum
//!   `(line, segment)` over all shard errors is order-independent.
//!
//! The stats/timeline cross-checks and the independent in-memory replay
//! auditor ride the same workers as auxiliary jobs, so the slowest single
//! job — not the sum — bounds wall-clock time.
//!
//! [`verify`]: crate::verify

use crate::schema::{Meta, Trace, TraceEvent};
use crate::timeline::{build_timelines, PacketTimeline};
use crate::verify::{
    check_timelines_against_stats, cross_check_replay, reconstruct, Model, StreamState,
    VerifiedInstance, VerifyError, VerifyReport,
};
use crate::ParseError;
use hotpotato_sim::configured_threads;
use serde::{Serialize as _, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Options for [`verify_trace_sharded`].
#[derive(Clone, Debug, Default)]
pub struct ShardOptions {
    /// Worker threads (0 = the workspace thread budget,
    /// [`configured_threads`]).
    pub jobs: usize,
    /// Emit periodic progress lines (events processed, shards done) to
    /// stderr.
    pub progress: bool,
}

/// Outcome of a sharded verification: the (sequentially identical)
/// verify report plus fan-out accounting for telemetry.
pub struct ShardRun {
    /// The verification report — field-for-field what the sequential
    /// [`crate::verify_trace`] returns on the same trace.
    pub report: VerifyReport,
    /// Segments the trace was split into (1 = no snapshots, whole-trace
    /// replay).
    pub shards: usize,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Summed busy time across all band jobs, for shard-utilization
    /// telemetry (`busy / (wall × jobs)`).
    pub busy_s: f64,
}

/// One snapshot-delimited replay unit.
struct Segment {
    /// Event index of the seeding snapshot (None = replay from line 1).
    seed: Option<usize>,
    /// Event-index range to replay (inclusive of the closing snapshot's
    /// consistency check, exclusive at the seeding snapshot).
    range: Range<usize>,
    /// The final segment also owns the trailing mid-step check.
    is_last: bool,
}

/// What one band's job returns; collected in band order so the result
/// is deterministic regardless of completion order.
enum JobOut {
    Segment(Box<StreamState>),
    Timelines(Vec<PacketTimeline>),
    CrossChecked,
}

type JobResult = (Result<JobOut, VerifyError>, f64);

/// Shared progress accounting printed to stderr when enabled.
struct Progress {
    enabled: bool,
    events_done: AtomicU64,
    events_total: u64,
    shards_done: AtomicU64,
    shards_total: usize,
    last_print: Mutex<Instant>,
}

impl Progress {
    fn new(enabled: bool, events_total: u64, shards_total: usize) -> Progress {
        Progress {
            enabled,
            events_done: AtomicU64::new(0),
            events_total,
            shards_done: AtomicU64::new(0),
            shards_total,
            last_print: Mutex::new(Instant::now()),
        }
    }

    fn tick(&self, delta: u64) {
        let done = self.events_done.fetch_add(delta, Ordering::Relaxed) + delta;
        self.maybe_print(done, false);
    }

    fn shard_done(&self) {
        self.shards_done.fetch_add(1, Ordering::Relaxed);
        self.maybe_print(self.events_done.load(Ordering::Relaxed), true);
    }

    fn maybe_print(&self, events_done: u64, force: bool) {
        if !self.enabled {
            return;
        }
        let Ok(mut last) = self.last_print.lock() else {
            return;
        };
        if !force && last.elapsed() < Duration::from_millis(500) {
            return;
        }
        *last = Instant::now();
        eprintln!(
            "verify progress: {events_done}/{} events replayed, {}/{} shards done",
            self.events_total,
            self.shards_done.load(Ordering::Relaxed),
            self.shards_total
        );
    }
}

/// Splits the event stream at its `snapshot` checkpoints.
fn plan_segments(trace: &Trace) -> Vec<Segment> {
    let last = trace.events.len();
    let mut segs = Vec::new();
    let mut start = 0usize;
    let mut seed = None;
    for (i, ev) in trace.events.iter().enumerate() {
        if matches!(ev, TraceEvent::Snapshot(_)) {
            segs.push(Segment {
                seed,
                range: start..i + 1,
                is_last: false,
            });
            seed = Some(i);
            start = i + 1;
        }
    }
    segs.push(Segment {
        seed,
        range: start..last,
        is_last: true,
    });
    segs
}

/// Replays one segment: seed (if any), range, trailing check (if last).
fn run_segment(
    trace: &Trace,
    instance: &VerifiedInstance,
    model: Model,
    streaming: bool,
    seg: &Segment,
    last: usize,
    tick: &(dyn Fn(u64) + Sync),
) -> Result<Box<StreamState>, VerifyError> {
    let mut s = StreamState::new(instance.problem.num_packets(), streaming);
    if let Some(idx) = seg.seed {
        let TraceEvent::Snapshot(snap) = &trace.events[idx] else {
            unreachable!("segment seeds are snapshot indices");
        };
        s.apply_snapshot(snap, idx + 1, instance)?;
    }
    s.run_range(trace, instance, model, seg.range.clone(), last, Some(tick))?;
    if seg.is_last {
        s.check_trailing(last)?;
    }
    Ok(Box::new(s))
}

/// The meta line of a trace that has both envelope events, or the
/// error naming the one it lacks.
fn envelope(trace: &Trace) -> Result<&Meta, VerifyError> {
    let Some(meta) = trace.meta() else {
        return Err(VerifyError {
            line: 1,
            msg: "trace has no meta line (re-record with --trace-out)".into(),
        });
    };
    if trace.stats().is_none() {
        return Err(VerifyError {
            line: trace.events.len(),
            msg: "trace has no final stats line (truncated?)".into(),
        });
    }
    Ok(meta)
}

/// Verifies a trace by fanning snapshot-delimited segments (plus the
/// timeline and replay-auditor cross-checks) out over scoped worker
/// threads. Equivalent to [`crate::verify_trace`] — same report on
/// success, same first divergence on failure — but bounded by the
/// slowest job instead of the sum.
pub fn verify_trace_sharded(trace: &Trace, opts: &ShardOptions) -> Result<ShardRun, VerifyError> {
    let instance = reconstruct(envelope(trace)?)?;
    verify_trace_sharded_with(trace, &instance, opts)
}

/// [`verify_trace_sharded`] against the instance the caller has already
/// rebuilt from the trace's meta line with [`reconstruct`] (or with
/// [`rebuild`](crate::verify::rebuild) and
/// [`check_shape`](crate::verify::check_shape), its two halves).
pub fn verify_trace_sharded_with(
    trace: &Trace,
    instance: &VerifiedInstance,
    opts: &ShardOptions,
) -> Result<ShardRun, VerifyError> {
    let meta = envelope(trace)?;
    let last = trace.events.len();
    let model = Model::for_algo(&meta.algo);
    let streaming = !meta.arrival.is_empty();

    let segs = plan_segments(trace);
    let cross = model == Model::Bufferless;
    let bands = segs.len() + 1 + usize::from(cross);
    let jobs = if opts.jobs == 0 {
        configured_threads()
    } else {
        opts.jobs
    };
    let workers = jobs.min(bands);
    let progress = Progress::new(opts.progress, last as u64, segs.len());

    // Band `b < segs.len()` replays segment `b`; the next band builds
    // the timelines and the last (bufferless only) runs the replay
    // auditor. Workers pull band indices from a shared counter, so the
    // fan-out may finish in any order; results are put back in band
    // order after the join.
    let run_band = |band: usize| -> Result<JobOut, VerifyError> {
        if let Some(seg) = segs.get(band) {
            let tick = |d: u64| progress.tick(d);
            let out = run_segment(trace, instance, model, streaming, seg, last, &tick)
                .map(JobOut::Segment);
            progress.shard_done();
            out
        } else if band == segs.len() {
            Ok(JobOut::Timelines(build_timelines(
                trace,
                instance.problem.num_packets(),
            )))
        } else {
            let stats = trace.stats().expect("stats presence checked above");
            cross_check_replay(&instance.problem, trace, stats).map(|()| JobOut::CrossChecked)
        }
    };
    let next = AtomicUsize::new(0);
    let joined: Vec<std::thread::Result<Vec<(usize, JobResult)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let band = next.fetch_add(1, Ordering::Relaxed);
                        if band >= bands {
                            return done;
                        }
                        let t0 = Instant::now();
                        let out = run_band(band);
                        done.push((band, (out, t0.elapsed().as_secs_f64())));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect()
    });
    let mut outs: Vec<(usize, JobResult)> = Vec::with_capacity(bands);
    for worker in joined {
        match worker {
            Ok(mut done) => outs.append(&mut done),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    outs.sort_unstable_by_key(|&(band, _)| band);
    let outs: Vec<JobResult> = outs.into_iter().map(|(_, out)| out).collect();

    // Deterministic first divergence: the smallest (line, segment) over
    // the segment errors is the sequential pass's first failure (see the
    // module docs); stats/timeline/auditor errors only surface when the
    // whole stream replayed cleanly, mirroring sequential check order.
    let mut first: Option<&VerifyError> = None;
    for out in outs.iter().take(segs.len()) {
        if let Err(e) = &out.0 {
            if first.is_none_or(|f| e.line < f.line) {
                first = Some(e);
            }
        }
    }
    if let Some(e) = first {
        return Err(e.clone());
    }

    let busy_s = outs.iter().map(|(_, s)| *s).sum();
    let mut final_state: Option<Box<StreamState>> = None;
    let mut timelines: Option<Vec<PacketTimeline>> = None;
    let mut aux_err: Option<VerifyError> = None;
    for out in outs {
        match out.0 {
            Ok(JobOut::Segment(s)) => final_state = Some(s), // bands are ordered: last wins
            Ok(JobOut::Timelines(t)) => timelines = Some(t),
            Ok(JobOut::CrossChecked) => {}
            Err(e) => {
                aux_err.get_or_insert(e);
            }
        }
    }
    let state = final_state.expect("at least one segment");
    let timelines = timelines.expect("timeline band posted");
    let stats = trace.stats().expect("stats presence checked above");
    state.check_stats(stats, last)?;
    check_timelines_against_stats(&timelines, stats, model, last)?;
    if let Some(e) = aux_err {
        // Only the replay auditor posts errors outside the segment
        // bands, and it runs last in the sequential order too.
        return Err(e);
    }

    Ok(ShardRun {
        report: VerifyReport {
            packets: state.n,
            steps: state.now,
            moves: state.moves,
            forward: state.forward,
            backward: state.backward,
            delivered: state.delivered.iter().filter(|&&d| d).count(),
            trivial: state.trivial,
            deflections: state.deflections,
            oscillations: state.oscillations,
            replay_cross_checked: cross,
            model,
            timelines,
        },
        shards: segs.len(),
        jobs: workers,
        busy_s,
    })
}

/// Parses JSONL trace text with `jobs` threads by splitting at newline
/// boundaries. Identical to [`Trace::parse`] — same events, and on bad
/// input the same first error with the same global line number (chunks
/// are consumed in index order, so an error in chunk `k` only surfaces
/// when every earlier chunk parsed cleanly).
pub fn parse_jsonl_parallel(text: &str, jobs: usize) -> Result<Trace, ParseError> {
    parse_chunked(text, jobs, 1 << 20)
}

fn parse_chunked(text: &str, jobs: usize, min_bytes: usize) -> Result<Trace, ParseError> {
    let jobs = jobs.max(1);
    if jobs == 1 || text.len() < min_bytes.max(jobs) {
        return Trace::parse(text);
    }
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(jobs);
    let mut start = 0usize;
    for j in 1..jobs {
        let want = j * text.len() / jobs;
        if want <= start {
            continue;
        }
        // Cut just after the next newline so no line straddles chunks.
        // `want` may fall inside a multibyte character, so search bytes:
        // a `\n` byte is always a char boundary.
        let Some(nl) = text.as_bytes()[want..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let cut = want + nl + 1;
        if cut >= text.len() {
            break;
        }
        ranges.push(start..cut);
        start = cut;
    }
    ranges.push(start..text.len());

    let chunk_results: Vec<Result<Trace, ParseError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let chunk = &text[r.clone()];
                scope.spawn(move || Trace::parse(chunk))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trace parse worker panicked"))
            .collect()
    });

    // The first chunk's events become the output; the others are
    // appended to it, so the first chunk is never copied.
    let mut events = Vec::new();
    for res in chunk_results {
        match res {
            Ok(t) if events.is_empty() => events = t.events,
            Ok(mut t) => events.append(&mut t.events),
            Err(mut e) => {
                // Chunks before the first failing one parsed fully, so
                // their event count converts the chunk-local line to the
                // global one Trace::parse would report.
                e.line += events.len();
                return Err(e);
            }
        }
    }
    Ok(Trace { events })
}

/// Peak resident set size of this process (Linux `VmHWM`), if available.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// Self-telemetry for one verify/analyze pipeline pass, reported in the
/// CLI's JSON output and watched by the perf gate.
#[derive(Clone, Debug)]
pub struct PipelineTelemetry {
    /// Trace events processed.
    pub events: u64,
    /// Input bytes read (on-disk size of the trace).
    pub bytes: u64,
    /// Wall-clock seconds for the whole pass (parse + replay + checks).
    pub wall_s: f64,
    /// Worker threads used.
    pub jobs: usize,
    /// Segments the verify fan-out used (0 for analyze).
    pub shards: usize,
    /// Summed busy seconds across band jobs (0 when not sharded).
    pub busy_s: f64,
    /// Peak RSS of the process, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
}

impl PipelineTelemetry {
    /// Events replayed per wall-clock second.
    pub fn events_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Input bytes consumed per wall-clock second.
    pub fn bytes_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.bytes as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Fraction of the `jobs × wall` thread-time budget spent busy
    /// (None when the pass was not sharded).
    pub fn shard_utilization(&self) -> Option<f64> {
        if self.shards > 0 && self.wall_s > 0.0 && self.jobs > 0 {
            Some(self.busy_s / (self.wall_s * self.jobs as f64))
        } else {
            None
        }
    }

    /// The telemetry as a JSON object (the `pipeline` key of the CLI's
    /// verify/analyze output).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("events", self.events.to_json()),
            ("bytes", self.bytes.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("events_per_s", self.events_per_s().to_json()),
            ("bytes_per_s", self.bytes_per_s().to_json()),
            ("jobs", (self.jobs as u64).to_json()),
            ("shards", (self.shards as u64).to_json()),
            ("shard_utilization", self.shard_utilization().to_json()),
            ("peak_rss_bytes", self.peak_rss_bytes.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: &str = concat!(
        "{\"ev\":\"phase_start\",\"phase\":0,\"t\":0}\n",
        "{\"ev\":\"step\",\"t\":0,\"moved\":0,\"absorbed\":0,\"injected\":0,",
        "\"deflections\":0,\"fallback\":0,\"oscillations\":0,\"active\":0}\n",
        "{\"ev\":\"phase_end\",\"phase\":0,\"t\":1}\n",
        "{\"ev\":\"section\",\"section\":\"route\",\"nanos\":12}\n",
    );

    #[test]
    fn chunked_parse_matches_sequential() {
        let text = LINES.repeat(13);
        let seq = Trace::parse(&text).expect("valid");
        for jobs in [2, 3, 5, 8] {
            let par = parse_chunked(&text, jobs, 0).expect("valid");
            assert_eq!(par.events.len(), seq.events.len());
        }
    }

    #[test]
    fn chunked_parse_reports_the_same_first_error() {
        let mut text = LINES.repeat(9);
        let lines: Vec<&str> = text.lines().collect();
        let bad_line = 23;
        assert!(lines.len() > bad_line);
        let mut rebuilt: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
        rebuilt[bad_line - 1] = "{\"ev\":\"nonsense\"}".to_string();
        text = rebuilt.join("\n");
        text.push('\n');
        let seq = Trace::parse(&text).expect_err("corrupt");
        assert_eq!(seq.line, bad_line);
        for jobs in [2, 3, 5, 8] {
            let par = parse_chunked(&text, jobs, 0).expect_err("corrupt");
            assert_eq!((par.line, &par.msg), (seq.line, &seq.msg), "jobs={jobs}");
        }

        // Split points are byte offsets; one that lands inside a
        // multibyte character must not panic.
        let text = format!("{}\n", "é".repeat(601));
        let seq = Trace::parse(&text).expect_err("not JSON");
        for jobs in 2..=4 {
            let par = parse_chunked(&text, jobs, 0).expect_err("not JSON");
            assert_eq!((par.line, &par.msg), (seq.line, &seq.msg), "jobs={jobs}");
        }
    }

    #[test]
    fn telemetry_json_has_the_pipeline_fields() {
        let t = PipelineTelemetry {
            events: 100,
            bytes: 4096,
            wall_s: 2.0,
            jobs: 4,
            shards: 8,
            busy_s: 6.0,
            peak_rss_bytes: Some(1 << 20),
        };
        assert!((t.events_per_s() - 50.0).abs() < 1e-9);
        assert!((t.bytes_per_s() - 2048.0).abs() < 1e-9);
        assert!((t.shard_utilization().expect("sharded") - 0.75).abs() < 1e-9);
        let json = t.to_json().to_compact_string();
        for key in [
            "events_per_s",
            "bytes_per_s",
            "shard_utilization",
            "peak_rss_bytes",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
