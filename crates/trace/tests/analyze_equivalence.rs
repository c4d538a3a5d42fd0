//! `analyze` reads each event once through `Analyzer`, and
//! `build_timelines` and `attribute_chains` are folds of the same
//! per-event rules. These tests keep the multi-pass analyzer they
//! replaced as reference code and require the same report, the same
//! `diff` rows, timelines and chain attribution on recorded runs of
//! every algorithm, on streams with drops and adversarial arrivals, and
//! on hand-written traces.

use hotpotato_sim::{AdmissionControl, StreamingConfig};
use hotpotato_trace::{
    analyze, attribute_chains, build_timelines, diff, schema, Analysis, Trace, TraceEvent,
};
use routing_core::spec::{parse_run_spec, KNOWN_ALGOS};
use serve::service::RunPlan;

/// The analyzer as it was: a packet-universe pass, a phase-bounds pass
/// and a main pass, then `build_timelines` and `attribute_chains` walking
/// the trace again (chains twice, through a map of every forward move).
mod reference {
    use hotpotato_sim::{ExitKind, Time};
    use hotpotato_trace::analyze::{FrontierLag, PhaseRow};
    use hotpotato_trace::timeline::{ChainLink, ChainReport, PacketTimeline};
    use hotpotato_trace::verify::{reconstruct, VerifiedInstance};
    use hotpotato_trace::{Analysis, Trace, TraceEvent};
    use leveled_net::ids::DirectedEdge;
    use leveled_net::Direction;
    use std::collections::HashMap;

    pub fn analyze(trace: &Trace) -> Analysis {
        let mut a = Analysis::default();
        let instance: Option<VerifiedInstance> = trace.meta().and_then(|m| {
            a.topo = Some(m.topo.clone());
            a.workload = Some(m.workload.clone());
            a.algo = Some(m.algo.clone());
            a.seed = Some(m.seed);
            reconstruct(m).ok()
        });

        let mut n = trace.meta().map_or(0, |m| m.packets as usize);
        for ev in &trace.events {
            if let TraceEvent::Move { pkt, .. }
            | TraceEvent::Trivial { pkt, .. }
            | TraceEvent::Deliver { pkt, .. } = ev
            {
                n = n.max(*pkt as usize + 1);
            }
        }
        a.packets = n;

        let mut bounds: Vec<(u64, Time)> = Vec::new();
        let mut last_t = 0;
        for ev in &trace.events {
            match *ev {
                TraceEvent::PhaseEnd { phase, t } => bounds.push((phase, t)),
                TraceEvent::Step { t, .. } => last_t = last_t.max(t + 1),
                _ => {}
            }
        }
        a.steps = trace.stats().map_or(last_t, |s| s.steps);
        if bounds.is_empty() {
            bounds.push((0, a.steps));
        }
        let num_levels = instance.as_ref().map_or(0, |i| i.net.num_levels());
        let mut phases: Vec<PhaseRow> = Vec::with_capacity(bounds.len() + 1);
        let mut start = 0;
        for &(phase, end) in &bounds {
            phases.push(PhaseRow {
                phase,
                start_t: start,
                end_t: end,
                deflections_by_level: vec![0; num_levels],
                ..PhaseRow::default()
            });
            start = end;
        }
        if start < a.steps {
            phases.push(PhaseRow {
                phase: bounds.last().map_or(0, |&(p, _)| p + 1),
                start_t: start,
                end_t: a.steps,
                deflections_by_level: vec![0; num_levels],
                ..PhaseRow::default()
            });
        }
        let ends: Vec<Time> = phases.iter().map(|row| row.end_t).collect();
        let phase_of =
            move |t: Time| -> usize { ends.partition_point(|&end| end <= t).min(ends.len() - 1) };

        let mut level_of_pkt: Vec<Option<u32>> = vec![None; n];
        let mut arrival_at: Vec<Option<Time>> = vec![None; n];
        let mut delivered: Vec<bool> = vec![false; n];
        let mut sets: Option<Vec<u32>> = None;
        let mut phase_rows = phases;
        for ev in &trace.events {
            match *ev {
                TraceEvent::Move {
                    t,
                    pkt,
                    edge,
                    dir,
                    kind,
                } => {
                    a.moves += 1;
                    let row = &mut phase_rows[phase_of(t)];
                    row.moves += 1;
                    match dir {
                        Direction::Forward => a.forward += 1,
                        Direction::Backward => a.backward += 1,
                    }
                    match kind {
                        ExitKind::Inject => {
                            a.injections += 1;
                            row.injections += 1;
                        }
                        ExitKind::Deflect { safe } => {
                            a.deflections += 1;
                            row.deflections += 1;
                            if safe {
                                a.safe_deflections += 1;
                                row.safe += 1;
                            } else {
                                row.fallback += 1;
                            }
                        }
                        ExitKind::Oscillate => {
                            a.oscillations += 1;
                            row.oscillations += 1;
                        }
                        ExitKind::Advance => {}
                    }
                    if let Some(inst) = &instance {
                        let mv = DirectedEdge { edge, dir };
                        if edge.index() < inst.net.num_edges() {
                            if matches!(kind, ExitKind::Deflect { .. }) {
                                let lvl = inst.net.level(inst.net.move_origin(mv)) as usize;
                                if let Some(cell) = row.deflections_by_level.get_mut(lvl) {
                                    *cell += 1;
                                }
                            }
                            if let Some(slot) = level_of_pkt.get_mut(pkt as usize) {
                                *slot = Some(inst.net.level(inst.net.move_target(mv)));
                            }
                        }
                    }
                }
                TraceEvent::Trivial { t, pkt } => {
                    a.deliveries += 1;
                    a.trivial += 1;
                    phase_rows[phase_of(t)].deliveries += 1;
                    if let Some(d) = delivered.get_mut(pkt as usize) {
                        *d = true;
                    }
                }
                TraceEvent::Deliver { t, pkt } => {
                    a.deliveries += 1;
                    phase_rows[phase_of(t.saturating_sub(1))].deliveries += 1;
                    if let Some(d) = delivered.get_mut(pkt as usize) {
                        *d = true;
                    }
                    if let Some(at) = arrival_at.get(pkt as usize).copied().flatten() {
                        a.arrival_latencies.push(t.saturating_sub(at));
                    }
                }
                TraceEvent::Arrival { t, pkt } => {
                    a.arrivals += 1;
                    if let Some(slot) = arrival_at.get_mut(pkt as usize) {
                        *slot = Some(t);
                    }
                }
                TraceEvent::Drop { .. } => a.drops += 1,
                TraceEvent::Sets { sets: ref s, .. } => sets = Some(s.clone()),
                TraceEvent::Frontier {
                    phase,
                    set,
                    frontier,
                } => {
                    if let (Some(inst), Some(sets)) = (&instance, &sets) {
                        let mut min_level: Option<i64> = None;
                        for (p, &s) in sets.iter().enumerate() {
                            if s != set || delivered.get(p).copied().unwrap_or(true) {
                                continue;
                            }
                            let lvl = match level_of_pkt.get(p).copied().flatten() {
                                Some(l) => i64::from(l),
                                None if p < inst.problem.num_packets() => {
                                    i64::from(inst.net.level(inst.problem.path(p).source()))
                                }
                                None => continue,
                            };
                            min_level = Some(min_level.map_or(lvl, |m: i64| m.min(lvl)));
                        }
                        if let Some(m) = min_level {
                            a.frontier_lags.push(FrontierLag {
                                phase,
                                set,
                                frontier,
                                lag: (frontier - m).max(0) as u64,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        a.phases = phase_rows;
        a.arrival_latencies.sort_unstable();
        a.timelines = build_timelines(trace, n);
        a.chains = attribute_chains(trace);
        a.instance = instance.as_ref().map(|i| {
            (
                i.problem.congestion(),
                i.problem.dilation(),
                i.net.num_levels() as u32,
            )
        });
        // What `Analysis::latencies()` sorted on every call, and what
        // `FleetSample::from_trace` scanned the events for.
        a.latencies = a
            .timelines
            .iter()
            .filter(|t| !t.trivial)
            .filter_map(PacketTimeline::latency)
            .collect();
        a.latencies.sort_unstable();
        for ev in &trace.events {
            if let TraceEvent::Congestion { congestion, .. } = ev {
                a.congestion_watermark = a.congestion_watermark.max(u64::from(*congestion));
            }
        }
        a
    }

    pub fn build_timelines(trace: &Trace, n: usize) -> Vec<PacketTimeline> {
        let mut tl = vec![PacketTimeline::default(); n];
        let mut run = vec![0u32; n];
        for ev in &trace.events {
            match *ev {
                TraceEvent::Move { t, pkt, kind, .. } => {
                    let Some(p) = tl.get_mut(pkt as usize) else {
                        continue;
                    };
                    p.moves += 1;
                    match kind {
                        ExitKind::Inject => {
                            p.injected_at = Some(t);
                            p.advances += 1;
                            run[pkt as usize] += 1;
                        }
                        ExitKind::Advance => {
                            p.advances += 1;
                            run[pkt as usize] += 1;
                        }
                        ExitKind::Deflect { safe } => {
                            p.deflections += 1;
                            if safe {
                                p.safe_deflections += 1;
                            }
                            run[pkt as usize] = 0;
                        }
                        ExitKind::Oscillate => {
                            p.oscillations += 1;
                            run[pkt as usize] = 0;
                        }
                    }
                }
                TraceEvent::Trivial { t, pkt } => {
                    if let Some(p) = tl.get_mut(pkt as usize) {
                        p.trivial = true;
                        p.injected_at = Some(t);
                        p.delivered_at = Some(t);
                    }
                }
                TraceEvent::Deliver { t, pkt } => {
                    if let Some(p) = tl.get_mut(pkt as usize) {
                        p.delivered_at = Some(t);
                        p.home_run = run[pkt as usize];
                    }
                }
                _ => {}
            }
        }
        tl
    }

    pub fn attribute_chains(trace: &Trace) -> ChainReport {
        let mut forward: HashMap<(Time, u32), u32> = HashMap::new();
        for ev in &trace.events {
            if let TraceEvent::Move {
                t,
                pkt,
                edge,
                dir: Direction::Forward,
                ..
            } = *ev
            {
                forward.insert((t, edge.0), pkt);
            }
        }
        let mut links: Vec<ChainLink> = Vec::new();
        let mut own: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut parent: Vec<Option<usize>> = Vec::new();
        for ev in &trace.events {
            let TraceEvent::Move {
                t,
                pkt,
                edge,
                dir,
                kind: ExitKind::Deflect { safe },
            } = *ev
            else {
                continue;
            };
            let caused_by = if safe && dir == Direction::Backward && t > 0 {
                forward.get(&(t - 1, edge.0)).copied().filter(|&c| c != pkt)
            } else {
                None
            };
            let par = caused_by.and_then(|c| {
                own.get(&c)
                    .and_then(|idxs| idxs.iter().rev().copied().find(|&i| links[i].t < t))
            });
            let depth = par.map_or(1, |i| links[i].depth + 1);
            let idx = links.len();
            links.push(ChainLink {
                pkt,
                t,
                caused_by,
                depth,
            });
            parent.push(par);
            own.entry(pkt).or_default().push(idx);
        }
        let mut report = ChainReport::default();
        let mut hist: HashMap<u32, u64> = HashMap::new();
        let mut deepest: Option<usize> = None;
        for (i, link) in links.iter().enumerate() {
            if link.depth == 1 {
                report.roots += 1;
            }
            *hist.entry(link.depth).or_insert(0) += 1;
            if link.depth > report.max_depth {
                report.max_depth = link.depth;
                deepest = Some(i);
            }
        }
        let mut depth_histogram: Vec<(u32, u64)> = hist.into_iter().collect();
        depth_histogram.sort_unstable();
        report.depth_histogram = depth_histogram;
        let mut chain = Vec::new();
        let mut cursor = deepest;
        while let Some(i) = cursor {
            chain.push((links[i].pkt, links[i].t));
            cursor = parent[i];
        }
        chain.reverse();
        report.longest_chain = chain;
        report.links = links;
        report
    }
}

/// Records `spec` from its seed into a `Trace` between the meta and
/// stats envelope events, as the fleet does. Streaming specs run under
/// `admission`.
fn record(spec: &str, admission: AdmissionControl) -> Trace {
    let spec = parse_run_spec(spec).unwrap();
    let (_, problem, mut rng) = spec.instantiate().unwrap();
    let mut trace = Trace {
        events: vec![TraceEvent::Meta(Box::new(schema::Meta::new(
            &spec, &problem,
        )))],
    };
    let plan = RunPlan::new(
        &spec,
        &problem,
        admission,
        StreamingConfig::default().max_steps,
    )
    .unwrap();
    let stats = plan.route(&problem, &mut rng, &mut trace).into_stats();
    trace
        .events
        .push(TraceEvent::Stats(Box::new((&stats).into())));
    trace
}

/// Analyzes `trace` both ways, requires equal results and returns
/// `(fold, reference)`.
fn check(name: &str, trace: &Trace) -> (Analysis, Analysis) {
    let fold = analyze(trace);
    let want = reference::analyze(trace);
    assert_eq!(fold.to_json(), want.to_json(), "{name}: report");
    assert_eq!(fold.timelines, want.timelines, "{name}: timelines");
    assert_eq!(fold.chains, want.chains, "{name}: chains");
    assert_eq!(fold.latencies, want.latencies, "{name}: latencies");
    assert_eq!(
        fold.congestion_watermark, want.congestion_watermark,
        "{name}: watermark"
    );
    assert_eq!(
        build_timelines(trace, fold.packets),
        reference::build_timelines(trace, fold.packets),
        "{name}: build_timelines"
    );
    assert_eq!(
        attribute_chains(trace),
        reference::attribute_chains(trace),
        "{name}: attribute_chains"
    );
    (fold, want)
}

/// Checks every case and requires equal `diff` rows between each pair.
fn check_all(cases: &[(String, Trace)]) -> Vec<Analysis> {
    let pairs: Vec<(Analysis, Analysis)> = cases.iter().map(|(n, t)| check(n, t)).collect();
    for (i, (fa, ra)) in pairs.iter().enumerate() {
        for (fb, rb) in &pairs[i..] {
            assert_eq!(diff(fa, fb), diff(ra, rb), "diff of cases {i} and later");
        }
    }
    pairs.into_iter().map(|(fold, _)| fold).collect()
}

#[test]
fn recorded_runs_analyze_as_before() {
    let mut cases: Vec<(String, Trace)> = KNOWN_ALGOS
        .iter()
        .map(|algo| {
            let spec = format!("bf:5/bitrev/{algo}/3");
            let trace = record(&spec, AdmissionControl::default());
            (spec, trace)
        })
        .collect();
    let tight = AdmissionControl {
        max_in_flight: 8,
        max_deferred: 16,
    };
    for (spec, admission) in [
        ("mesh:6x6/transpose/busch/5", AdmissionControl::default()),
        ("mesh:8x8/transpose/busch/1", AdmissionControl::default()),
        ("bf:6/pairs:192/ftg/3/poisson:8", tight),
        (
            "bf:5/bitrev/greedy/2/adversarial:4:8",
            AdmissionControl::default(),
        ),
        ("mesh:8x8/hotspot:12:1/sf/11", AdmissionControl::default()),
    ] {
        cases.push((spec.to_string(), record(spec, admission)));
    }
    let analyses = check_all(&cases);
    let by_name = |name: &str| {
        let i = cases.iter().position(|(n, _)| n == name).unwrap();
        &analyses[i]
    };
    // The cases exercise what the fold must get right: attributed chains
    // deeper than one link, phase rows, frontier lags, the congestion
    // watermark, drops and arrival latencies.
    let busch = by_name("bf:5/bitrev/busch/3");
    assert!(busch.chains.links.iter().any(|l| l.caused_by.is_some()));
    assert!(busch.phases.len() > 1 && !busch.frontier_lags.is_empty());
    assert!(busch.congestion_watermark > 0);
    let chained = by_name("mesh:8x8/transpose/busch/1");
    assert!(
        chained.chains.max_depth > 2,
        "{:?}",
        chained.chains.max_depth
    );
    let drops = by_name("bf:6/pairs:192/ftg/3/poisson:8");
    assert!(drops.drops > 0 && !drops.arrival_latencies.is_empty());
}

fn mv(t: u64, pkt: u32, edge: u32, dir: &str, kind: &str) -> String {
    format!(r#"{{"ev":"move","t":{t},"pkt":{pkt},"edge":{edge},"dir":"{dir}","kind":"{kind}"}}"#)
}

fn parse(lines: &[String]) -> Trace {
    Trace::parse(&(lines.join("\n") + "\n")).unwrap()
}

#[test]
fn hand_written_traces_analyze_as_before() {
    let step = r#"{"ev":"step","t":1,"moved":1,"absorbed":1,"injected":0,"deflections":0,"fallback":0,"oscillations":0,"active":0}"#;
    let cases = [
        (
            "bare trace without meta",
            vec![
                mv(0, 0, 0, "F", "inj"),
                mv(1, 0, 1, "F", "adv"),
                r#"{"ev":"deliver","t":2,"pkt":0}"#.to_string(),
                step.to_string(),
            ],
        ),
        (
            "phase rows partition the run",
            vec![
                mv(0, 0, 0, "F", "inj"),
                r#"{"ev":"phase_end","phase":0,"t":2}"#.to_string(),
                mv(2, 0, 1, "B", "def-free"),
                r#"{"ev":"phase_end","phase":1,"t":4}"#.to_string(),
            ],
        ),
        (
            "timeline anatomy and home run",
            vec![
                mv(0, 0, 0, "F", "inj"),
                mv(1, 0, 1, "F", "adv"),
                mv(2, 0, 1, "B", "def-safe"),
                mv(3, 0, 1, "F", "adv"),
                mv(4, 0, 2, "F", "adv"),
                r#"{"ev":"deliver","t":5,"pkt":0}"#.to_string(),
            ],
        ),
        (
            "chains attribute safe deflections to forward crossers",
            vec![
                mv(0, 0, 4, "F", "adv"),
                mv(1, 1, 4, "B", "def-safe"),
                mv(3, 1, 7, "F", "adv"),
                mv(4, 2, 7, "B", "def-safe"),
                mv(5, 3, 9, "B", "def-free"),
            ],
        ),
    ];
    let cases: Vec<(String, Trace)> = cases
        .iter()
        .map(|(name, lines)| (name.to_string(), parse(lines)))
        .collect();
    let analyses = check_all(&cases);
    assert_eq!(analyses[3].chains.max_depth, 2);
}
