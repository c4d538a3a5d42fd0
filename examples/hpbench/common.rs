//! What a workload child measures, and the loop that measures it.

use crate::spans::{self, Recorder};
use crate::stats;
use hotpotato_sim::RouteStats;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// A correctness check; a failed one makes the whole run incorrect.
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values compared.
    pub detail: String,
}

impl Check {
    /// A check that `got == want`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: &str, got: T, want: T) -> Check {
        Check {
            name: name.to_string(),
            ok: got == want,
            detail: format!("{got:?} vs {want:?}"),
        }
    }

    /// A check that every item of `items` equals the first.
    pub fn all_equal<T: PartialEq + std::fmt::Debug>(name: &str, items: &[T]) -> Check {
        let bad = items.iter().position(|x| Some(x) != items.first());
        Check {
            name: name.to_string(),
            ok: bad.is_none(),
            detail: match bad {
                None => format!("{} equal", items.len()),
                Some(i) => format!("item {i}: {:?} vs {:?}", items[i], items[0]),
            },
        }
    }
}

/// Everything one child process measured for one workload.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of each repetition.
    pub rep_s: Vec<f64>,
    /// Peak resident set of each repetition, in MiB.
    pub rep_peak_mb: Vec<f64>,
    /// Packet moves of each repetition.
    pub rep_moves: Vec<u64>,
    /// Operations attempted (packets, passes or runs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer numbers this child measured: counts, the routing
    /// outcome, and in the traced run the self time of every layer.
    pub layers: Vec<(String, f64)>,
    /// Fleet only: `(steps, moves)` of every run, in ladder order.
    pub runs: Vec<(u64, u64)>,
}

impl Outcome {
    /// The line a child prints for its parent.
    pub fn to_json(&self) -> Value {
        json!({
            "setup_s": self.setup_s.clone(),
            "rep_s": self.rep_s.clone(),
            "rep_peak_mb": self.rep_peak_mb.clone(),
            "rep_moves": self.rep_moves.clone(),
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": Value::Array(self.checks.iter().map(|c| json!({
                "name": c.name.clone(),
                "ok": c.ok,
                "detail": c.detail.clone(),
            })).collect()),
            "layers": Value::object(self.layers.iter().map(|(k, v)| (k.clone(), json!(*v)))),
            "runs": Value::Array(self.runs.iter().map(|&(s, m)| json!([s, m])).collect()),
        })
    }

    /// Records the traced run's spans: every layer's self time, the share
    /// of the traced wall time the layers cover, and the spans file.
    pub fn absorb_spans(&mut self, workload: &str, spans: &[spans::Span]) {
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, ns) in spans.iter().zip(spans::self_times(spans)) {
            if !s.name.starts_with(spans::OWN) {
                *by_name.entry(s.name).or_default() += ns;
            }
        }
        for (name, ns) in by_name {
            self.layers.push((format!("{name}_s"), ns as f64 / 1e9));
        }
        let cover = spans::layer_cover_ns(spans) as f64 / spans::root_wall_ns(spans) as f64;
        self.layers.push(("layer_coverage_frac".to_string(), cover));
        let dir = std::path::Path::new("target").join("hpbench");
        let path = dir.join(format!("spans-{workload}.json"));
        let text = spans::to_json(workload, spans).to_compact_string();
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("hpbench: cannot write {}: {e}", path.display());
        }
    }
}

/// Set-up time a multi-set-up run spends at the least, so that a
/// millisecond set-up is the median of hundreds of samples, not a few.
pub const MIN_SETUP_S: f64 = 1.0;

/// One measured repetition.
pub struct Rep<S> {
    /// Wall time of the repetition.
    pub secs: f64,
    /// Peak resident set during it, in MiB.
    pub peak_mb: f64,
    /// Its condensed result.
    pub out: S,
}

/// Sets up at least `setups` times and for at least [`MIN_SETUP_S`]
/// (keeping the last instance), then repeats `rep` while the next
/// repetition is expected to end within `seconds`, at least once. Only
/// `rep` itself is timed; `post` condenses each result afterwards, so
/// large outputs never pile up across repetitions.
pub fn drive<I, R, S>(
    setups: usize,
    seconds: f64,
    rec: &mut Recorder,
    mut setup: impl FnMut(&mut Recorder) -> I,
    mut rep: impl FnMut(&I, &mut Recorder) -> R,
    mut post: impl FnMut(&I, R) -> S,
) -> (Vec<f64>, Vec<Rep<S>>) {
    let mut setup_s = Vec::new();
    let mut inst = None;
    let begun = Instant::now();
    while setup_s.len() < setups.max(1)
        || (setups > 1 && begun.elapsed().as_secs_f64() < MIN_SETUP_S && setup_s.len() < 1000)
    {
        drop(inst.take());
        let t = Instant::now();
        inst = Some(rec.span("hpbench.setup", &mut setup));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inst = inst.expect("at least one set-up ran");
    let start = Instant::now();
    let mut reps: Vec<Rep<S>> = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let mean = spent / reps.len().max(1) as f64;
        if !reps.is_empty() && spent + mean > seconds {
            break;
        }
        spans::reset_peak_rss();
        let t = Instant::now();
        let raw = rec.span("hpbench.rep", |rec| rep(&inst, rec));
        let secs = t.elapsed().as_secs_f64();
        let peak_mb = spans::peak_rss_mb();
        reps.push(Rep {
            secs,
            peak_mb,
            out: post(&inst, raw),
        });
    }
    (setup_s, reps)
}

/// Packet moves of a run: every in-flight packet crosses one edge per
/// step, so a packet makes `delivered_at - injected_at` moves. One
/// definition for every router.
pub fn moves(stats: &RouteStats) -> u64 {
    stats
        .injected_at
        .iter()
        .zip(&stats.delivered_at)
        .map(|(i, d)| match (i, d) {
            (Some(i), Some(d)) => d - i,
            _ => 0,
        })
        .sum()
}

/// Median and 99th-percentile latency of `latencies` (in steps).
pub fn latency_p50_p99(latencies: &[f64]) -> (f64, f64) {
    let sorted = stats::sorted(latencies);
    let p99 = stats::tail(&sorted, 99).expect("engine workloads route over 1,010 packets");
    (stats::median(&sorted), p99)
}

/// Per-packet latency from `due` (the arrival step) to delivery. A
/// packet that never arrived counts as missing every limit: it reads
/// `u64::MAX` steps.
pub fn latencies(stats: &RouteStats, due: impl Fn(usize) -> u64) -> Vec<f64> {
    stats
        .delivered_at
        .iter()
        .enumerate()
        .map(|(i, d)| d.map_or(u64::MAX, |d| d.saturating_sub(due(i))) as f64)
        .collect()
}

/// Per-layer numbers with owned names: `counts` taken in a layer, then
/// the routing outcome (median and 99th-percentile packet latency in
/// steps, and makespan over C + L).
pub fn layers(
    counts: &[(&str, f64)],
    p50: f64,
    p99: f64,
    makespan_over_cl: f64,
) -> Vec<(String, f64)> {
    let outcome = [
        ("outcome.latency_p50_steps", p50),
        ("outcome.latency_p99_steps", p99),
        ("outcome.makespan_over_cl", makespan_over_cl),
    ];
    counts
        .iter()
        .chain(&outcome)
        .map(|&(k, v)| (k.to_string(), v))
        .collect()
}

/// Runs `f` and returns its wall time in nanoseconds with its result.
pub fn timed_ns<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t = Instant::now();
    let out = f();
    (
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        out,
    )
}

/// FNV-1a over a stream of words: a digest for the determinism checks.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
