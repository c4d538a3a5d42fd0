//! Text specs for topologies and workloads.
//!
//! The CLI, the experiment harness, and the trace analyzer all need to
//! name an instance in a single string — `butterfly:10` + `bitrev` — and
//! reconstruct exactly the same [`RoutingProblem`] from it. This module
//! owns that grammar so a trace file's `meta` line (which records the
//! specs and the seed) is sufficient to rebuild the problem offline and
//! replay-verify the run against it.
//!
//! ```text
//! topology SPEC:
//!   butterfly:K | mesh:RxC[:tl|tr|bl|br] | linear:N | complete:LxW
//!   hypercube:D | tree:H | fattree:H[:CAP] | shuffle:K | benes:K
//!   random:L[:WMAX[:PROB[:SEED]]]
//!
//! workload WL:
//!   pairs:N | m2m:N | permutation | bitrev | transpose
//!   hotspot:N:D | funnel:N | level:FROM:TO | blast:FROM:TO
//! ```
//!
//! Reconstruction determinism: `random:*` topologies carry their own seed
//! (default 1) and draw from a private rng, and every randomized workload
//! draws from the caller's rng in a fixed order — so (topo spec, workload
//! spec, seed) identifies the instance exactly.

use crate::problem::RoutingProblem;
use crate::workloads::{self, ArrivalProcess};
use leveled_net::builders::{self, ButterflyCoords, MeshCoords, MeshCorner};
use leveled_net::LeveledNetwork;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A parsed topology plus the coordinate helpers some workloads need.
pub struct ParsedTopo {
    /// The network.
    pub net: Arc<LeveledNetwork>,
    /// Coordinates when the spec was a butterfly (for `permutation` /
    /// `bitrev`).
    pub butterfly: Option<ButterflyCoords>,
    /// Coordinates when the spec was a mesh (for `transpose`).
    pub mesh: Option<MeshCoords>,
}

/// The largest topology [`parse_topo`] builds, counted in nodes plus
/// edges: about 20× the 3,211,264 of bf(16), the largest instance any
/// benchmark or test builds. A spec over it fails before anything is
/// allocated.
pub const MAX_TOPO_SIZE: u64 = 1 << 26;

/// The most packets a workload spec may state (`pairs:N`, `m2m:N`,
/// `hotspot:N:D`, `funnel:N`): 16× the 1,048,576 random walks of bf(16),
/// the largest instance any benchmark or test routes. `m2m` and
/// `hotspot` build one path per stated packet, so a count over it fails
/// before anything is built ([`check_packet_budget`]).
pub const MAX_PACKETS: u64 = 1 << 24;

/// Parses a topology spec (see the module docs for the grammar). Each
/// kind's size follows from the spec's numbers alone, so a spec larger
/// than [`MAX_TOPO_SIZE`] fails before anything is built.
pub fn parse_topo(spec: &str) -> Result<ParsedTopo, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let kind = parts[0];
    let arg = |i: usize| -> Result<&str, String> {
        parts
            .get(i)
            .copied()
            .ok_or_else(|| format!("topology '{kind}' needs an argument at position {i}"))
    };
    let num = |s: &str| -> Result<u32, String> {
        s.parse::<u32>().map_err(|_| format!("bad number '{s}'"))
    };
    // Sizes are u128 and powers of two stop at 2^100, so no sum or
    // product of the spec's u32 numbers below can overflow.
    let pow2 = |e: u32| 1u128 << e.min(100);
    let fits = |size: u128| {
        if size <= u128::from(MAX_TOPO_SIZE) {
            Ok(())
        } else {
            Err(format!(
                "topology '{spec}' exceeds {MAX_TOPO_SIZE} nodes plus edges"
            ))
        }
    };
    let pos = |n: u32| match n {
        0 => Err(format!("topology '{spec}' needs sizes of at least 1")),
        n => Ok(n),
    };
    let opt = |i: usize, default: u32| parts.get(i).map_or(Ok(default), |s| num(s));
    let plain = |net: LeveledNetwork| ParsedTopo {
        net: Arc::new(net),
        butterfly: None,
        mesh: None,
    };
    match kind {
        "butterfly" | "bf" => {
            let k = num(arg(1)?)?;
            if !(1..28).contains(&k) {
                return Err(format!("butterfly dimension {k} out of range (1..=27)"));
            }
            fits(u128::from(3 * k + 1) * pow2(k))?;
            Ok(ParsedTopo {
                net: Arc::new(builders::butterfly(k)),
                butterfly: Some(ButterflyCoords { k }),
                mesh: None,
            })
        }
        "mesh" => {
            let dims: Vec<&str> = arg(1)?.split('x').collect();
            if dims.len() != 2 {
                return Err("mesh needs RxC, e.g. mesh:8x8".into());
            }
            let (r, c) = (pos(num(dims[0])?)?, pos(num(dims[1])?)?);
            let corner = match parts.get(2).copied().unwrap_or("tl") {
                "tl" => MeshCorner::TopLeft,
                "tr" => MeshCorner::TopRight,
                "bl" => MeshCorner::BottomLeft,
                "br" => MeshCorner::BottomRight,
                other => return Err(format!("unknown mesh corner '{other}'")),
            };
            fits(3 * u128::from(r) * u128::from(c))?;
            let (net, coords) = builders::mesh(r as usize, c as usize, corner);
            Ok(ParsedTopo {
                net: Arc::new(net),
                butterfly: None,
                mesh: Some(coords),
            })
        }
        "linear" => {
            let n = pos(num(arg(1)?)?)?;
            fits(2 * u128::from(n))?;
            Ok(plain(builders::linear_array(n as usize)))
        }
        "complete" => {
            let dims: Vec<&str> = arg(1)?.split('x').collect();
            if dims.len() != 2 {
                return Err("complete needs LxW, e.g. complete:10x4".into());
            }
            let depth = num(dims[0])?;
            let width = pos(num(dims[1])?)?;
            let (l, w) = (u128::from(depth), u128::from(width));
            fits((l + 1) * w + l * w * w)?;
            Ok(plain(builders::complete_leveled(depth, width as usize)))
        }
        "hypercube" => {
            let d = num(arg(1)?)?;
            if !(1..26).contains(&d) {
                return Err(format!("hypercube dimension {d} out of range (1..=25)"));
            }
            fits(pow2(d) + u128::from(d) * pow2(d - 1))?;
            Ok(plain(builders::hypercube(d).0))
        }
        "tree" => {
            let h = num(arg(1)?)?;
            fits(2 * pow2(h.saturating_add(1)))?;
            Ok(plain(builders::binary_tree(h)))
        }
        "fattree" => {
            let h = num(arg(1)?)?;
            let cap = pos(opt(2, 4)?)?;
            let nodes = pow2(h.saturating_add(1));
            fits(nodes)?;
            // The links into depth d + 1 carry min(2^(h-1-d), cap) copies.
            let edges: u128 = (0..h)
                .map(|d| pow2(d + 1) * pow2(h - 1 - d).min(cap.into()))
                .sum();
            fits(nodes + edges)?;
            Ok(plain(builders::fat_tree(h, cap as usize)))
        }
        "shuffle" => {
            let k = num(arg(1)?)?;
            if !(1..28).contains(&k) {
                return Err(format!(
                    "shuffle-exchange dimension {k} out of range (1..=27)"
                ));
            }
            fits(u128::from(3 * k + 1) * pow2(k))?;
            Ok(plain(builders::shuffle_exchange_unrolled(k)))
        }
        "benes" => {
            let k = num(arg(1)?)?;
            if !(1..27).contains(&k) {
                return Err(format!("Beneš dimension {k} out of range (1..=26)"));
            }
            fits(u128::from(6 * k + 1) * pow2(k))?;
            Ok(plain(builders::benes(k).0))
        }
        "random" => {
            let l = num(arg(1)?)?;
            let wmax = pos(opt(2, 4)?)?;
            let prob = parts
                .get(3)
                .map(|s| {
                    s.parse::<f64>()
                        .map_err(|_| format!("bad probability '{s}'"))
                })
                .transpose()?
                .unwrap_or(0.3);
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probability {prob} out of range (0..=1)"));
            }
            let seed = u64::from(opt(4, 1)?);
            // An upper bound: each level pair gets at most a complete
            // bipartite graph plus one spine edge per node.
            let (depth, w) = (u128::from(l), u128::from(wmax));
            fits((depth + 1) * w + depth * (w * w + 2 * w))?;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            Ok(plain(builders::random_leveled(
                l,
                1..=wmax as usize,
                prob,
                &mut rng,
            )))
        }
        other => Err(format!("unknown topology '{other}'")),
    }
}

/// Parses a workload spec against `topo`, drawing any randomness from
/// `rng` (see the module docs for the grammar).
pub fn parse_workload<R: Rng + ?Sized>(
    spec: &str,
    topo: &ParsedTopo,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, String> {
    check_packet_budget(spec)?;
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .ok_or_else(|| format!("workload '{}' needs an argument", parts[0]))?
            .parse::<usize>()
            .map_err(|e| format!("bad number: {e}"))
    };
    let net = &topo.net;
    match parts[0] {
        "pairs" => workloads::random_pairs(net, num(1)?, rng).map_err(|e| e.to_string()),
        "m2m" => workloads::many_to_many(net, num(1)?, rng).map_err(|e| e.to_string()),
        "permutation" | "perm" => {
            let coords = topo
                .butterfly
                .ok_or("permutation needs a butterfly topology")?;
            Ok(workloads::butterfly_permutation(net, &coords, rng))
        }
        "bitrev" => {
            let coords = topo.butterfly.ok_or("bitrev needs a butterfly topology")?;
            Ok(workloads::butterfly_bit_reversal(net, &coords))
        }
        "transpose" => {
            let coords = topo.mesh.ok_or("transpose needs a mesh topology")?;
            workloads::mesh_transpose(net, &coords).map_err(|e| e.to_string())
        }
        "hotspot" => workloads::hotspot(net, num(1)?, num(2)?, rng).map_err(|e| e.to_string()),
        "funnel" => workloads::funnel(net, num(1)?, rng).map_err(|e| e.to_string()),
        "level" => workloads::level_to_level(net, num(1)? as u32, num(2)? as u32, rng)
            .map_err(|e| e.to_string()),
        "blast" => workloads::first_fit_blast(net, num(1)? as u32, num(2)? as u32)
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The packet count a workload spec states: the first argument of
/// `pairs:N`, `m2m:N`, `hotspot:N:D` and `funnel:N`. `None` for the
/// other workloads, whose count follows from the network, and for an
/// argument that does not parse. A caller can check a claimed count
/// against it before building anything.
pub fn stated_packets(spec: &str) -> Option<usize> {
    let mut parts = spec.split(':');
    match parts.next()? {
        "pairs" | "m2m" | "hotspot" | "funnel" => parts.next()?.parse().ok(),
        _ => None,
    }
}

/// Fails on a workload spec that states more than [`MAX_PACKETS`]
/// packets. [`parse_run_spec`] and [`parse_workload`] check it, and so
/// does the trace verifier before it rebuilds a meta line's instance.
pub fn check_packet_budget(workload: &str) -> Result<(), String> {
    match stated_packets(workload) {
        Some(n) if n as u64 > MAX_PACKETS => Err(format!(
            "workload '{workload}' states {n} packets, over the budget of {MAX_PACKETS}"
        )),
        _ => Ok(()),
    }
}

/// Rebuilds the exact problem identified by `(topo, workload, seed)` — the
/// triple a trace file's `meta` line records. Returns the parsed topology
/// alongside the problem so callers can reuse the network.
pub fn reconstruct_problem(
    topo_spec: &str,
    workload_spec: &str,
    seed: u64,
) -> Result<(ParsedTopo, Arc<RoutingProblem>), String> {
    let topo = parse_topo(topo_spec)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let problem = parse_workload(workload_spec, &topo, &mut rng)?;
    Ok((topo, problem))
}

/// One hosted run, as `hotpotato serve` names it: the instance triple
/// plus the algorithm, parsed from a single
/// `TOPO/WL[/ALGO[/SEED[/ARRIVAL]]]` string (`/`-separated because the
/// topo and workload specs themselves use `:`). Examples:
/// `bf:10/bitrev/busch/7` (batch), `bf:10/pairs:64/greedy/7/poisson:0.5`
/// (streaming).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Topology spec ([`parse_topo`] grammar).
    pub topo: String,
    /// Workload spec ([`parse_workload`] grammar).
    pub workload: String,
    /// Algorithm name (`busch`, `greedy`, ... — validated by the router
    /// dispatch, not here).
    pub algo: String,
    /// Run seed (workload generation, arrival schedule, and routing
    /// share it).
    pub seed: u64,
    /// Arrival-process spec segment ([`ArrivalProcess::parse`] grammar);
    /// `None` selects classic batch mode (all packets ready at step 0).
    pub arrival: Option<String>,
}

impl RunSpec {
    /// A batch-mode spec (no arrival process).
    pub fn batch(topo: &str, workload: &str, algo: &str, seed: u64) -> Self {
        RunSpec {
            topo: topo.to_string(),
            workload: workload.to_string(),
            algo: algo.to_string(),
            seed,
            arrival: None,
        }
    }

    /// A URL-safe run name, unique per distinct spec:
    /// `bf:10/bitrev/busch/7` → `busch-bf_10-bitrev-7`; a streaming
    /// spec appends its arrival segment
    /// (`…/poisson:0.5` → `…-7-poisson_0.5`).
    pub fn name(&self) -> String {
        let mut name = format!(
            "{}-{}-{}-{}",
            self.algo,
            self.topo.replace(':', "_"),
            self.workload.replace(':', "_"),
            self.seed
        );
        if let Some(arrival) = &self.arrival {
            name.push('-');
            name.push_str(&arrival.replace([':', ','], "_"));
        }
        name
    }

    /// The parsed arrival process, or `None` for batch mode.
    pub fn arrival_process(&self) -> Result<Option<ArrivalProcess>, String> {
        self.arrival
            .as_deref()
            .map(ArrivalProcess::parse)
            .transpose()
    }

    /// Builds the exact instance this spec names: parses the topology,
    /// seeds one rng from `seed`, draws the workload from it, and
    /// returns the rng **in its post-workload state** — the router must
    /// continue from that same stream for the run to be reproducible
    /// from the spec alone. This is the single instantiation path shared
    /// by `hotpotato route`, `hotpotato serve`, and the bench harness.
    pub fn instantiate(&self) -> Result<(ParsedTopo, Arc<RoutingProblem>, ChaCha8Rng), String> {
        let topo = parse_topo(&self.topo)?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let problem = parse_workload(&self.workload, &topo, &mut rng)?;
        Ok((topo, problem, rng))
    }
}

/// Every algorithm name some driver dispatches on: the batch routers
/// (`hotpotato route`, serve) plus the streaming-only priority rules.
/// [`parse_run_spec`] validates against this list so a typo fails at
/// parse time with the valid set in the message, not deep in a driver.
pub const KNOWN_ALGOS: &[&str] = &["busch", "greedy", "ftg", "rank", "sf", "sfrank", "aging"];

/// Fails on an algorithm name outside [`KNOWN_ALGOS`], listing the
/// known ones: the check every way of naming a run makes.
pub fn check_algo(algo: &str) -> Result<(), String> {
    if KNOWN_ALGOS.contains(&algo) {
        Ok(())
    } else {
        Err(format!(
            "unknown algorithm '{algo}' (known: {})",
            KNOWN_ALGOS.join("|")
        ))
    }
}

/// Parses a [`RunSpec`] from `TOPO/WL[/ALGO[/SEED[/ARRIVAL]]]`. The
/// algorithm defaults to `busch`, the seed to 1, and the arrival process
/// to none (batch mode). The algorithm, seed and arrival segments are
/// validated here; the topo and workload grammars are checked when the
/// problem is reconstructed.
pub fn parse_run_spec(spec: &str) -> Result<RunSpec, String> {
    const SEGMENTS: [&str; 5] = ["topo", "workload", "algo", "seed", "arrival"];
    let parts: Vec<&str> = spec.split('/').collect();
    if !(2..=5).contains(&parts.len()) {
        return Err(format!(
            "run spec '{spec}' must be TOPO/WL[/ALGO[/SEED[/ARRIVAL]]], \
             e.g. bf:10/bitrev/busch/7 or bf:10/pairs:64/greedy/7/poisson:0.5"
        ));
    }
    for (i, p) in parts.iter().enumerate() {
        if p.is_empty() {
            return Err(format!(
                "run spec '{spec}' has an empty {} segment",
                SEGMENTS[i]
            ));
        }
    }
    check_packet_budget(parts[1])?;
    if let Some(algo) = parts.get(2) {
        check_algo(algo)?;
    }
    let seed = match parts.get(3) {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("bad run seed '{s}'"))?,
        None => 1,
    };
    let arrival = match parts.get(4) {
        Some(s) => {
            ArrivalProcess::parse(s)?;
            Some((*s).to_string())
        }
        None => None,
    };
    Ok(RunSpec {
        topo: parts[0].to_string(),
        workload: parts[1].to_string(),
        algo: parts.get(2).copied().unwrap_or("busch").to_string(),
        seed,
        arrival,
    })
}

/// The most runs one sweep expression may expand to — a typo guard
/// (`1..10000000`), not a capacity statement.
pub const MAX_SWEEP_RUNS: usize = 100_000;

/// Expands a **sweep expression** into concrete run specs.
///
/// A sweep expression is a run spec in which any integer may be written
/// as an inclusive range `LO..HI`. Every range position expands over its
/// values and the full cross product is returned, leftmost range varying
/// slowest; each concrete spec is validated through [`parse_run_spec`].
/// Ranges compose with every grammar position that takes an integer —
/// topology sizes, workload counts, and seeds alike:
///
/// ```text
/// bf:6..8/bitrev/busch/1..25        3 sizes × 25 seeds = 75 runs
/// mesh:4x4/transpose/busch/1..50    one instance, 50 seeds
/// bf:8/pairs:64..66/greedy/7/poisson:0.5   3 workload sizes (floats untouched)
/// ```
///
/// A plain run spec (no ranges) expands to itself. Expansion is capped
/// at [`MAX_SWEEP_RUNS`]; descending ranges are rejected.
pub fn expand_sweep(expr: &str) -> Result<Vec<RunSpec>, String> {
    let mut out = Vec::new();
    expand_sweep_into(expr, &mut out)?;
    Ok(out)
}

fn expand_sweep_into(expr: &str, out: &mut Vec<RunSpec>) -> Result<(), String> {
    match find_range(expr)? {
        Some((start, end, lo, hi)) => {
            for v in lo..=hi {
                let concrete = format!("{}{}{}", &expr[..start], v, &expr[end..]);
                expand_sweep_into(&concrete, out)?;
            }
            Ok(())
        }
        None => {
            if out.len() >= MAX_SWEEP_RUNS {
                return Err(format!("sweep expands to more than {MAX_SWEEP_RUNS} runs"));
            }
            out.push(parse_run_spec(expr)?);
            Ok(())
        }
    }
}

/// Finds the leftmost `LO..HI` integer range in `expr` and returns its
/// byte span and bounds. Single dots (`poisson:0.5`, `random:6:3:0.4`)
/// are not ranges: both sides of the `..` must be digit runs.
fn find_range(expr: &str) -> Result<Option<(usize, usize, u64, u64)>, String> {
    let b = expr.as_bytes();
    for i in 0..b.len().saturating_sub(1) {
        if b[i] != b'.' || b[i + 1] != b'.' {
            continue;
        }
        let mut start = i;
        while start > 0 && b[start - 1].is_ascii_digit() {
            start -= 1;
        }
        let mut end = i + 2;
        while end < b.len() && b[end].is_ascii_digit() {
            end += 1;
        }
        if start == i || end == i + 2 {
            continue; // a lone `..` with no digits on one side
        }
        let lo: u64 = expr[start..i]
            .parse()
            .map_err(|_| format!("bad sweep range start in '{expr}'"))?;
        let hi: u64 = expr[i + 2..end]
            .parse()
            .map_err(|_| format!("bad sweep range end in '{expr}'"))?;
        if lo > hi {
            return Err(format!("descending sweep range {lo}..{hi} in '{expr}'"));
        }
        return Ok(Some((start, end, lo, hi)));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_specs_parse_with_defaults() {
        let full = parse_run_spec("bf:10/bitrev/greedy/7").unwrap();
        assert_eq!(
            full,
            RunSpec {
                topo: "bf:10".into(),
                workload: "bitrev".into(),
                algo: "greedy".into(),
                seed: 7,
                arrival: None,
            }
        );
        assert_eq!(full.name(), "greedy-bf_10-bitrev-7");
        assert_eq!(
            RunSpec::batch("bf:4", "bitrev", "busch", 1).name(),
            "busch-bf_4-bitrev-1"
        );

        let minimal = parse_run_spec("mesh:8x8/transpose").unwrap();
        assert_eq!(minimal.algo, "busch");
        assert_eq!(minimal.seed, 1);
        assert!(minimal.arrival.is_none());

        let streaming = parse_run_spec("bf:10/pairs:64/greedy/7/poisson:0.5").unwrap();
        assert_eq!(streaming.arrival.as_deref(), Some("poisson:0.5"));
        assert_eq!(
            streaming.arrival_process().unwrap(),
            Some(ArrivalProcess::Poisson { rate: 0.5 })
        );
        assert_eq!(streaming.name(), "greedy-bf_10-pairs_64-7-poisson_0.5");

        assert!(parse_run_spec("bf:10").is_err());
        assert!(parse_run_spec("bf:10/bitrev/busch/7/poisson:0.5/extra").is_err());
        assert!(parse_run_spec("bf:10//busch").is_err());
        assert!(parse_run_spec("bf:10/bitrev/busch/x").is_err());
        assert!(parse_run_spec("bf:10/bitrev/busch/7/nosuch:1").is_err());
    }

    #[test]
    fn instantiate_matches_reconstruct_and_returns_live_rng() {
        let spec = parse_run_spec("butterfly:4/pairs:6/greedy/42").unwrap();
        let (_, via_spec, mut rng) = spec.instantiate().unwrap();
        let (_, via_reconstruct) = reconstruct_problem("butterfly:4", "pairs:6", 42).unwrap();
        assert_eq!(via_spec.num_packets(), via_reconstruct.num_packets());
        for (a, b) in via_spec.paths().zip(via_reconstruct.paths()) {
            assert_eq!(a.edges(), b.edges());
        }
        // The returned rng continues the same stream the workload drew
        // from: instantiating twice and drawing must agree.
        let (_, _, mut rng2) = spec.instantiate().unwrap();
        assert_eq!(rng.gen::<u64>(), rng2.gen::<u64>());
    }

    #[test]
    fn sweeps_expand_cross_products_in_order() {
        let runs = expand_sweep("bf:6..8/bitrev/busch/1..3").unwrap();
        assert_eq!(runs.len(), 9);
        // Leftmost range varies slowest.
        assert_eq!(runs[0], RunSpec::batch("bf:6", "bitrev", "busch", 1));
        assert_eq!(runs[2], RunSpec::batch("bf:6", "bitrev", "busch", 3));
        assert_eq!(runs[3], RunSpec::batch("bf:7", "bitrev", "busch", 1));
        assert_eq!(runs[8], RunSpec::batch("bf:8", "bitrev", "busch", 3));
        // A plain spec expands to itself.
        let one = expand_sweep("mesh:4x4/transpose/busch/7").unwrap();
        assert_eq!(
            one,
            vec![RunSpec::batch("mesh:4x4", "transpose", "busch", 7)]
        );
    }

    #[test]
    fn sweep_ranges_leave_floats_alone_and_reject_bad_shapes() {
        // `poisson:0.5` carries a single dot: not a range.
        let runs = expand_sweep("bf:8/pairs:4..6/greedy/7/poisson:0.5").unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].workload, "pairs:4");
        assert_eq!(runs[2].workload, "pairs:6");
        assert_eq!(runs[0].arrival.as_deref(), Some("poisson:0.5"));

        assert!(
            expand_sweep("bf:8/bitrev/busch/5..3").is_err(),
            "descending"
        );
        assert!(expand_sweep("bf:8/bitrev/nosuch/1..3").is_err(), "bad algo");
        assert!(expand_sweep("bf:8/bitrev/busch/1..999999").is_err(), "cap");
    }

    #[test]
    fn butterfly_spec_carries_coords() {
        let t = parse_topo("butterfly:3").unwrap();
        assert_eq!(t.butterfly.unwrap().k, 3);
        assert!(t.mesh.is_none());
        assert_eq!(t.net.depth(), 3);
        // Short alias.
        assert_eq!(
            parse_topo("bf:3").unwrap().net.num_nodes(),
            t.net.num_nodes()
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(parse_topo("butterfly").is_err());
        assert!(parse_topo("butterfly:0").is_err());
        assert!(parse_topo("mesh:8").is_err());
        assert!(parse_topo("mesh:8x8:xx").is_err());
        assert!(parse_topo("nosuch:1").is_err());
        // Degenerate sizes the builders assert on fail as spec errors.
        for bad in [
            "linear:0",
            "mesh:0x4",
            "complete:3x0",
            "hypercube:0",
            "fattree:3:0",
            "random:3:0",
            "random:3:4:1.5",
        ] {
            assert!(parse_topo(bad).is_err(), "{bad}");
        }
        let t = parse_topo("linear:4").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(parse_workload("bitrev", &t, &mut rng).is_err());
        assert!(parse_workload("nosuch", &t, &mut rng).is_err());
        assert!(parse_workload("hotspot:2:0", &t, &mut rng).is_err());
    }

    #[test]
    fn stated_packets_are_the_built_counts() {
        for (topo, wl) in [
            ("butterfly:4", "pairs:6"),
            ("butterfly:4", "m2m:9"),
            ("butterfly:4", "hotspot:5:2"),
            ("complete:10x4", "funnel:12"),
        ] {
            let (_, problem) = reconstruct_problem(topo, wl, 42).unwrap();
            assert_eq!(stated_packets(wl), Some(problem.num_packets()), "{wl}");
        }
        for wl in ["bitrev", "transpose", "level:0:2", "m2m:x", "m2m"] {
            assert_eq!(stated_packets(wl), None, "{wl}");
        }
    }

    #[test]
    fn reconstruction_is_deterministic() {
        for (topo, wl) in [
            ("butterfly:4", "pairs:6"),
            ("butterfly:4", "bitrev"),
            ("random:6:3:0.4:7", "m2m:5"),
            ("mesh:5x5", "transpose"),
        ] {
            let (_, a) = reconstruct_problem(topo, wl, 42).unwrap();
            let (_, b) = reconstruct_problem(topo, wl, 42).unwrap();
            assert_eq!(a.num_packets(), b.num_packets(), "{topo}/{wl}");
            for (pa, pb) in a.paths().zip(b.paths()) {
                assert_eq!(pa.source(), pb.source(), "{topo}/{wl}");
                assert_eq!(pa.edges(), pb.edges(), "{topo}/{wl}");
            }
        }
    }

    #[test]
    fn stated_packet_counts_over_the_budget_fail_before_any_build() {
        // `m2m:N` and `hotspot:N:D` build one path per stated packet, so
        // these specs used to build paths until memory ran out.
        for wl in [
            "m2m:4000000000",
            "pairs:16777217",
            "hotspot:4000000000:1",
            "funnel:4000000000",
        ] {
            let e = parse_run_spec(&format!("bf:3/{wl}/greedy/1")).err();
            let e = e.unwrap_or_default();
            assert!(e.contains("over the budget of 16777216"), "{wl}: {e}");
        }
        // At the budget, and for workloads whose count the network fixes,
        // the spec parses.
        assert!(parse_run_spec("bf:3/pairs:16777216").is_ok());
        assert!(parse_run_spec("bf:3/bitrev/busch/1").is_ok());
    }
}
