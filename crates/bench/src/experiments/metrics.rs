//! METRICS — the structured-observability artifact.
//!
//! Routes the bf(k) bit-reversal reference instance (k = 8 quick, 10
//! full) with a [`MetricsObserver`], a live [`Analyzer`] and a
//! [`SectionProfiler`] attached to the paper's router, then reports what
//! the event stream shows:
//! per-frontier-set congestion watermarks against the Lemma 2.2
//! `ln(L·N)` bound, frame progress against the theoretical frontier
//! `φ_i(k)`, the deflection histogram, and where the router spends its
//! time. The `tables metricsjson` mode serializes [`collect`]'s output
//! to `METRICS_PR2.json` so the empirical Lemma 2.2 check is
//! machine-readable.

use crate::table::{f, Table};
use busch_router::{BuschRouter, Params};
use hotpotato_sim::{MetricsObserver, SectionProfiler};
use hotpotato_trace::verify::VerifiedInstance;
use hotpotato_trace::{Analysis, Analyzer};
use leveled_net::builders::{self, ButterflyCoords};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::workloads;
use std::sync::Arc;

/// Everything the metrics run produced.
pub struct MetricsReport {
    /// Butterfly order of the instance.
    pub k: u32,
    /// Number of packets.
    pub n: usize,
    /// Instance congestion `C`.
    pub congestion: u32,
    /// Makespan of the instrumented run.
    pub makespan: u64,
    /// Phases elapsed.
    pub phases: u64,
    /// The filled metrics sink.
    pub metrics: MetricsObserver,
    /// The live analysis of the same run (every count).
    pub analysis: Analysis,
    /// The filled section profiler.
    pub profile: SectionProfiler,
}

impl MetricsReport {
    /// The machine-readable document written by `tables metricsjson`.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "suite": "hotpotato-routing metrics",
            "instance": "butterfly bit-reversal",
            "k": self.k,
            "packets": self.n,
            "congestion": self.congestion,
            "makespan": self.makespan,
            "phases": self.phases,
            "metrics": hotpotato_trace::metrics_json(&self.metrics, &self.analysis),
            "sections": self.profile.to_json(),
        })
    }
}

/// Runs the instrumented reference run and returns the raw sinks.
pub fn collect(quick: bool) -> MetricsReport {
    let k = if quick { 8 } else { 10 };
    let net = Arc::new(builders::butterfly(k));
    let coords = ButterflyCoords { k };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let params = Params::auto(&prob);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0b5e);

    // Sparse occupancy sampling: the committed artifact needs the shape
    // of the series, not a per-64-step trace.
    let mut observer = (
        (
            MetricsObserver::new(&prob).with_occupancy_sampling(1024),
            Analyzer::new(Some(VerifiedInstance::of(&prob))),
        ),
        SectionProfiler::new(),
    );
    let out = BuschRouter::new(params).route_observed(&prob, &mut rng, &mut observer);
    assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    let ((metrics, analyzer), profile) = observer;
    MetricsReport {
        k,
        n: prob.num_packets(),
        congestion: prob.congestion(),
        makespan: out.stats.makespan().unwrap_or(0),
        phases: out.phases_elapsed,
        metrics,
        analysis: analyzer.finish(),
        profile,
    }
}

/// Runs METRICS.
pub fn run(quick: bool) {
    let rep = collect(quick);
    let (m, a) = (&rep.metrics, &rep.analysis);
    let bound = m.ln_ln_bound();

    let mut t = Table::new(
        format!(
            "METRICS: per-set congestion watermarks vs Lemma 2.2 on bf({}) \
             bit-reversal (N={}, C={}, {} sets)",
            rep.k,
            rep.n,
            rep.congestion,
            m.congestion_watermarks().len()
        ),
        &["set", "initial C_i", "watermark", "ln(L*N) bound", "within"],
    );
    for (i, (&wm, &init)) in m
        .congestion_watermarks()
        .iter()
        .zip(m.congestion_initial())
        .enumerate()
    {
        t.row(vec![
            i.to_string(),
            init.to_string(),
            wm.to_string(),
            f(bound),
            if (wm as f64) <= bound { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note("Lemma 2.2: w.h.p. every frontier set's congestion is O(ln(L*N));");
    t.note("the audit watermarks are the measured left-hand side");
    t.print();

    let mut t = Table::new(
        format!(
            "METRICS: frame progress vs theoretical frontier \
             (phases={}, makespan={})",
            rep.phases, rep.makespan
        ),
        &[
            "phase",
            "set",
            "frontier phi_i(k)",
            "max level",
            "in flight",
        ],
    );
    // The full series is in the JSON artifact; print the head.
    for row in m.frame_progress().iter().take(if quick { 8 } else { 16 }) {
        t.row(vec![
            row.phase.to_string(),
            row.set.to_string(),
            row.frontier.to_string(),
            row.max_level.to_string(),
            row.in_flight.to_string(),
        ]);
    }
    t.note("invariant I_c: set i's packets stay inside the frame whose leading");
    t.note("level is phi_i(k) = k - i*m; max level tracks how closely the frame");
    t.note("hugs its frontier");
    t.print();

    let mut t = Table::new(
        "METRICS: deflections and section profile".to_string(),
        &["quantity", "value"],
    );
    t.row(vec![
        "deflections (safe / unsafe)".into(),
        format!(
            "{} / {}",
            a.safe_deflections,
            a.deflections - a.safe_deflections
        ),
    ]);
    let hist = a.deflection_histogram();
    let tail = hist.last().map_or(0, |&(d, _)| d);
    t.row(vec![
        "deflection histogram".into(),
        format!("{} buckets, max {} per packet", hist.len(), tail),
    ]);
    t.row(vec![
        "level watermark (max)".into(),
        m.level_watermarks()
            .iter()
            .max()
            .copied()
            .unwrap_or(0)
            .to_string(),
    ]);
    t.row(vec!["sections".into(), rep.profile.summary()]);
    t.note("sections are timed only because the profiler opts in via");
    t.note("wants_timing(); unobserved runs never read the clock");
    t.print();
}
