//! The live snapshot payload and the observer that publishes it.
//!
//! [`LiveObserver`] sits in the engine's observer slot (composing a
//! [`MetricsObserver`] and a [`StreamingAggregator`]) and, every
//! `publish_every` steps, copies the current aggregates into a
//! [`LiveSnapshot`] through the never-blocking
//! [`SnapshotPublisher`] exchange. HTTP handler threads read the other
//! side. The publish path is `// lint: hot-path`: it only copies —
//! `clear()` + `extend_from_slice` into buffers pre-sized at exchange
//! creation — so the steady state allocates nothing and a contended
//! publish is skipped rather than waited on.

use hotpotato_sim::{
    snapshot_exchange, ExitKind, MetricsObserver, RouteObserver, RouteStats, Section,
    SnapshotPublisher, SnapshotReader, StepReport, Time,
};
use hotpotato_trace::{Bucket, StreamingAggregator};
use leveled_net::ids::DirectedEdge;
use routing_core::RoutingProblem;

/// Upper bounds of the deflections-per-packet histogram buckets
/// (`le="0"`, `le="1"`, `le="2"`, `le="4"`, … — powers of two); counts
/// above the last bound land in the `+Inf` overflow bucket.
pub const DEFL_BUCKET_BOUNDS: [u32; 10] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Number of histogram slots: one per bound plus the overflow bucket.
pub const DEFL_BUCKETS: usize = DEFL_BUCKET_BOUNDS.len() + 1;

/// The histogram slot a deflection count falls into.
fn defl_bucket(deflections: u32) -> usize {
    DEFL_BUCKET_BOUNDS
        .iter()
        .position(|&bound| deflections <= bound)
        .unwrap_or(DEFL_BUCKET_BOUNDS.len())
}

/// Upper bounds of the delivery-latency histogram buckets (steps from
/// injection to absorption; powers of two). Latencies above the last
/// bound land in the `+Inf` overflow bucket.
pub const LAT_BUCKET_BOUNDS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Number of latency histogram slots: one per bound plus overflow.
pub const LAT_BUCKETS: usize = LAT_BUCKET_BOUNDS.len() + 1;

/// Capacity of the sliding window of recent delivery latencies that
/// backs the live percentile gauges. A fixed ring: the window always
/// holds the most recent `LAT_WINDOW` deliveries (fewer early on).
pub const LAT_WINDOW: usize = 512;

/// The histogram slot a delivery latency falls into.
fn lat_bucket(latency: u64) -> usize {
    LAT_BUCKET_BOUNDS
        .iter()
        .position(|&bound| latency <= bound)
        .unwrap_or(LAT_BUCKET_BOUNDS.len())
}

/// One coherent view of a running (or finished) simulation: everything
/// `/metrics` and `/rollup` serve, copied under the exchange lock so a
/// reader never observes half of one step and half of another.
#[derive(Clone, Debug)]
pub struct LiveSnapshot {
    /// Total packets in the instance.
    pub packets: u64,
    /// Steps completed.
    pub steps: u64,
    /// Moves staged (injections included).
    pub moves: u64,
    /// Packets delivered (trivial deliveries included).
    pub delivered: u64,
    /// Trivial (source == destination) deliveries.
    pub trivial: u64,
    /// Packets injected into the network.
    pub injected: u64,
    /// Oscillation moves.
    pub oscillations: u64,
    /// Safe (edge-recycling) deflections.
    pub safe_deflections: u64,
    /// Unsafe (fallback) deflections.
    pub unsafe_deflections: u64,
    /// In-flight packets after the last completed step.
    pub active: u64,
    /// Phases seen so far (0 for phase-less routers).
    pub phases: u64,
    /// Streaming: packets surfaced by the arrival process (0 in batch
    /// mode, where the whole workload is available at step 0).
    pub arrivals: u64,
    /// Streaming: packets dropped by admission control (queue full).
    pub drops: u64,
    /// Deliveries counted into the latency histogram.
    pub lat_count: u64,
    /// Sum of all counted delivery latencies (steps).
    pub lat_sum: u64,
    /// Delivery-latency histogram, per-bucket counts aligned with
    /// [`LAT_BUCKET_BOUNDS`] plus the overflow slot.
    pub lat_hist: [u64; LAT_BUCKETS],
    /// Sliding window of the most recent delivery latencies (unordered;
    /// readers sort their own copy for percentiles).
    pub lat_window: Vec<u64>,
    /// Deflections-per-packet histogram, per-bucket counts aligned with
    /// [`DEFL_BUCKET_BOUNDS`] plus the overflow slot.
    pub defl_hist: [u64; DEFL_BUCKETS],
    /// Live per-level packet count.
    pub occupancy: Vec<u32>,
    /// Max per-level occupancy observed at any step end.
    pub level_watermark: Vec<u32>,
    /// Initial per-frontier-set congestion (Lemma 2.2 quantity).
    pub congestion_initial: Vec<u32>,
    /// Max audited per-set congestion across phase ends.
    pub congestion_watermark: Vec<u32>,
    /// The `ln(L·N)` Lemma 2.2 bound the watermarks are measured against.
    pub ln_ln_bound: f64,
    /// `true` once the run quiesced (this snapshot is final and exact).
    pub finished: bool,
    /// Rollup: what the aggregator keys buckets by (`phase` or `step`).
    pub rollup_keyed_by: &'static str,
    /// Rollup: hard bucket cap.
    pub rollup_cap: usize,
    /// Rollup: keys per bucket after merges.
    pub rollup_scale: u64,
    /// Rollup: merge sweeps that have run.
    pub rollup_merges: u64,
    /// Rollup: exact run totals.
    pub rollup_totals: Bucket,
    /// Rollup: the current buckets.
    pub rollup_buckets: Vec<Bucket>,
}

impl LiveSnapshot {
    /// An empty seed snapshot with every buffer pre-sized so steady-state
    /// publishes never allocate (`levels` per-level slots, `rollup_cap`
    /// bucket slots, and a generous frontier-set reserve).
    fn seed(levels: usize, packets: u64, rollup_cap: usize) -> Self {
        // Frontier-set counts are small (the paper uses O(1) sets); 64
        // covers anything the CLI can configure without reallocating.
        const SET_RESERVE: usize = 64;
        LiveSnapshot {
            packets,
            steps: 0,
            moves: 0,
            delivered: 0,
            trivial: 0,
            injected: 0,
            oscillations: 0,
            safe_deflections: 0,
            unsafe_deflections: 0,
            active: 0,
            phases: 0,
            arrivals: 0,
            drops: 0,
            lat_count: 0,
            lat_sum: 0,
            lat_hist: [0; LAT_BUCKETS],
            lat_window: Vec::with_capacity(LAT_WINDOW),
            defl_hist: [0; DEFL_BUCKETS],
            occupancy: Vec::with_capacity(levels),
            level_watermark: Vec::with_capacity(levels),
            congestion_initial: Vec::with_capacity(SET_RESERVE),
            congestion_watermark: Vec::with_capacity(SET_RESERVE),
            ln_ln_bound: 0.0,
            finished: false,
            rollup_keyed_by: "step",
            rollup_cap,
            rollup_scale: 1,
            rollup_merges: 0,
            rollup_totals: Bucket::default(),
            rollup_buckets: Vec::with_capacity(rollup_cap),
        }
    }

    /// Total deflections (safe + unsafe).
    pub fn total_deflections(&self) -> u64 {
        self.safe_deflections + self.unsafe_deflections
    }

    /// Streaming injection-queue depth: packets that have arrived but
    /// are neither dropped nor in the network nor trivially delivered.
    /// Always 0 in batch mode (no arrival events).
    pub fn queue_depth(&self) -> u64 {
        self.arrivals
            .saturating_sub(self.drops + self.injected + self.trivial)
    }
}

/// Incremental delivery-latency aggregates: the histogram, the running
/// sum/count, and the fixed-capacity ring of recent latencies.
struct Latency {
    hist: [u64; LAT_BUCKETS],
    sum: u64,
    count: u64,
    ring: Vec<u64>,
    pos: usize,
}

impl Latency {
    fn new() -> Self {
        Latency {
            hist: [0; LAT_BUCKETS],
            sum: 0,
            count: 0,
            ring: Vec::with_capacity(LAT_WINDOW),
            pos: 0,
        }
    }

    // lint: hot-path
    fn record(&mut self, latency: u64) {
        self.hist[lat_bucket(latency)] += 1;
        self.sum += latency;
        self.count += 1;
        if self.ring.len() < LAT_WINDOW {
            self.ring.push(latency);
        } else {
            self.ring[self.pos] = latency;
            self.pos = (self.pos + 1) % LAT_WINDOW;
        }
    }
}

/// What the live view needs beyond the two sinks: the last `active`
/// count, the fixed-bucket deflection histogram, each packet's
/// injection step and the latency aggregates.
struct Tail {
    /// In-flight packets after the last completed step.
    active: u64,
    defl_hist: [u64; DEFL_BUCKETS],
    /// Injection step per packet (`u64::MAX` = not injected yet);
    /// delivery latency is absorb time minus this.
    injected_step: Vec<Time>,
    latency: Latency,
}

/// Copies the current aggregates into `snap`. Split out so the same
/// fill drives both the non-blocking periodic publish and the final
/// blocking flush; everything here is a scalar store or a copy into a
/// pre-sized buffer.
// lint: hot-path
fn fill_snapshot(
    snap: &mut LiveSnapshot,
    (metrics, agg): &(MetricsObserver, StreamingAggregator),
    tail: &Tail,
    finished: bool,
) {
    snap.steps = metrics.steps();
    snap.moves = metrics.moves();
    snap.delivered = metrics.delivered();
    snap.trivial = metrics.trivial();
    snap.injected = metrics.injected();
    snap.oscillations = metrics.oscillations();
    snap.active = tail.active;
    snap.phases = metrics.phases();
    snap.arrivals = metrics.arrivals();
    snap.drops = metrics.drops();
    snap.lat_count = tail.latency.count;
    snap.lat_sum = tail.latency.sum;
    snap.lat_hist = tail.latency.hist;
    snap.lat_window.clear();
    snap.lat_window.extend_from_slice(&tail.latency.ring);
    snap.safe_deflections = metrics.safe_deflections();
    snap.unsafe_deflections = metrics.unsafe_deflections();
    snap.defl_hist = tail.defl_hist;
    snap.occupancy.clear();
    snap.occupancy.extend_from_slice(metrics.occupancy());
    snap.level_watermark.clear();
    snap.level_watermark
        .extend_from_slice(metrics.level_watermarks());
    snap.congestion_initial.clear();
    snap.congestion_initial
        .extend_from_slice(metrics.congestion_initial());
    snap.congestion_watermark.clear();
    snap.congestion_watermark
        .extend_from_slice(metrics.congestion_watermarks());
    snap.ln_ln_bound = metrics.ln_ln_bound();
    snap.finished = finished;
    snap.rollup_keyed_by = agg.keyed_by();
    snap.rollup_cap = agg.cap();
    snap.rollup_scale = agg.scale();
    snap.rollup_merges = agg.merges();
    snap.rollup_totals = *agg.totals();
    snap.rollup_buckets.clear();
    snap.rollup_buckets.extend_from_slice(agg.buckets());
}

/// The serving observer: forwards every event to a [`MetricsObserver`]
/// and a [`StreamingAggregator`], keeps the little neither of them
/// counts, and publishes a [`LiveSnapshot`] every `publish_every` steps
/// through the exchange.
pub struct LiveObserver {
    sinks: (MetricsObserver, StreamingAggregator),
    tail: Tail,
    publisher: SnapshotPublisher<LiveSnapshot>,
    publish_every: u64,
    /// Optional per-step sleep (microseconds) — stretches short runs so
    /// CI can scrape them mid-flight deterministically.
    throttle_us: u64,
}

impl LiveObserver {
    /// Creates the observer plus the reader half of its exchange.
    /// Snapshots are published every `publish_every` steps (min 1) and
    /// the internal rollup aggregator holds at most `rollup_cap` buckets.
    pub fn new(
        problem: &RoutingProblem,
        publish_every: u64,
        rollup_cap: usize,
    ) -> (Self, SnapshotReader<LiveSnapshot>) {
        let levels = problem.network_arc().num_levels();
        let packets = problem.num_packets() as u64;
        let (publisher, reader) =
            snapshot_exchange(LiveSnapshot::seed(levels, packets, rollup_cap.max(2)));
        let mut defl_hist = [0u64; DEFL_BUCKETS];
        // Every packet starts with zero deflections.
        defl_hist[0] = packets;
        (
            LiveObserver {
                sinks: (
                    MetricsObserver::new(problem),
                    StreamingAggregator::new(rollup_cap),
                ),
                tail: Tail {
                    active: 0,
                    defl_hist,
                    injected_step: vec![u64::MAX; problem.num_packets()],
                    latency: Latency::new(),
                },
                publisher,
                publish_every: publish_every.max(1),
                throttle_us: 0,
            },
            reader,
        )
    }

    /// Sleeps `us` microseconds at every step end (0 disables). Only for
    /// demonstrations and CI smoke runs that must be scrapable mid-run.
    pub fn with_throttle_us(mut self, us: u64) -> Self {
        self.throttle_us = us;
        self
    }

    /// Final blocking flush: overwrites the headline counters with the
    /// authoritative [`RouteStats`] and marks the snapshot finished.
    /// After this returns, every acquire observes the final state.
    pub fn finish(mut self, stats: &RouteStats) {
        self.tail.active = 0;
        let Self {
            sinks,
            tail,
            publisher,
            ..
        } = &mut self;
        publisher.flush_with(|snap| {
            fill_snapshot(snap, sinks, tail, true);
            snap.steps = stats.steps_run;
            snap.delivered = stats.delivered_count() as u64;
        });
    }

    /// Periodic non-blocking publish.
    // lint: hot-path
    fn publish_if_due(&mut self) {
        if self.sinks.0.steps().is_multiple_of(self.publish_every) {
            let Self {
                sinks,
                tail,
                publisher,
                ..
            } = self;
            publisher.publish_with(|snap| fill_snapshot(snap, sinks, tail, false));
        }
    }
}

impl RouteObserver for LiveObserver {
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        self.sinks.on_move(t, pkt, mv, kind);
        match kind {
            ExitKind::Inject => self.tail.injected_step[pkt as usize] = t,
            ExitKind::Deflect { .. } => {
                // The metrics sink has just counted this deflection.
                let now = self.sinks.0.packet_deflections(pkt);
                let (from, to) = (defl_bucket(now - 1), defl_bucket(now));
                if from != to {
                    self.tail.defl_hist[from] -= 1;
                    self.tail.defl_hist[to] += 1;
                }
            }
            ExitKind::Oscillate | ExitKind::Advance => {}
        }
    }

    fn on_trivial(&mut self, t: Time, pkt: u32) {
        self.sinks.on_trivial(t, pkt);
        // Source == destination: delivered the step it was admitted.
        self.tail.latency.record(0);
    }

    fn on_deliver(&mut self, t: Time, pkt: u32) {
        self.sinks.on_deliver(t, pkt);
        let injected = self.tail.injected_step[pkt as usize];
        if injected != u64::MAX {
            self.tail.latency.record(t.saturating_sub(injected));
        }
    }

    fn on_arrival(&mut self, t: Time, pkt: u32) {
        self.sinks.on_arrival(t, pkt);
    }

    fn on_drop(&mut self, t: Time, pkt: u32) {
        self.sinks.on_drop(t, pkt);
    }

    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        self.sinks.on_step_end(t, report, active);
        self.tail.active = active as u64;
        self.publish_if_due();
        if self.throttle_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.throttle_us));
        }
    }

    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
        self.sinks.on_sets_assigned(sets, num_sets);
    }

    fn on_phase_start(&mut self, phase: u64, t: Time) {
        self.sinks.on_phase_start(phase, t);
    }

    fn on_phase_end(&mut self, phase: u64, t: Time) {
        self.sinks.on_phase_end(phase, t);
    }

    fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {
        self.sinks.on_frontier(phase, set, frontier);
    }

    fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {
        self.sinks
            .on_set_congestion(phase, set, congestion, initial);
    }

    fn on_section(&mut self, section: Section, nanos: u64) {
        self.sinks.on_section(section, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defl_buckets_partition_the_counts() {
        assert_eq!(defl_bucket(0), 0);
        assert_eq!(defl_bucket(1), 1);
        assert_eq!(defl_bucket(2), 2);
        assert_eq!(defl_bucket(3), 3);
        assert_eq!(defl_bucket(4), 3);
        assert_eq!(defl_bucket(5), 4);
        assert_eq!(defl_bucket(256), 9);
        assert_eq!(defl_bucket(257), 10);
        assert_eq!(defl_bucket(u32::MAX), DEFL_BUCKETS - 1);
    }

    #[test]
    fn latency_buckets_and_ring_window() {
        assert_eq!(lat_bucket(0), 0);
        assert_eq!(lat_bucket(1), 0);
        assert_eq!(lat_bucket(2), 1);
        assert_eq!(lat_bucket(2048), LAT_BUCKET_BOUNDS.len() - 1);
        assert_eq!(lat_bucket(2049), LAT_BUCKETS - 1);

        let mut lat = Latency::new();
        for i in 0..(LAT_WINDOW as u64 + 10) {
            lat.record(i);
        }
        assert_eq!(lat.count, LAT_WINDOW as u64 + 10);
        assert_eq!(lat.hist.iter().sum::<u64>(), lat.count);
        // The ring holds exactly the most recent LAT_WINDOW latencies.
        assert_eq!(lat.ring.len(), LAT_WINDOW);
        assert!(!lat.ring.contains(&9));
        assert!(lat.ring.contains(&10));
        assert!(lat.ring.contains(&(LAT_WINDOW as u64 + 9)));
    }

    #[test]
    fn histogram_counts_always_sum_to_packets() {
        // Simulate deflection count increments and check conservation.
        let mut hist = [0u64; DEFL_BUCKETS];
        let mut counts = [0u32; 7];
        hist[0] = counts.len() as u64;
        for (i, steps) in [
            (0usize, 1u32),
            (1, 3),
            (2, 9),
            (3, 300),
            (4, 0),
            (5, 2),
            (6, 257),
        ] {
            for _ in 0..steps {
                let from = defl_bucket(counts[i]);
                counts[i] += 1;
                let to = defl_bucket(counts[i]);
                if from != to {
                    hist[from] -= 1;
                    hist[to] += 1;
                }
            }
        }
        assert_eq!(hist.iter().sum::<u64>(), counts.len() as u64);
        // 300 and 257 overflow the last bound.
        assert_eq!(hist[DEFL_BUCKETS - 1], 2);
    }
}
