//! Telemetry regression gate: compares freshly measured perf and metrics
//! documents against the committed baselines with explicit tolerances.
//!
//! Three kinds of checks:
//!
//! * **Perf** ([`adaptive_perf_gate`]) — every listed component must
//!   exist in the newest committed perf baseline and in the fresh one,
//!   and its `moves_per_s` throughput must clear a per-component floor
//!   derived from the *spread* between the committed baselines
//!   (`BENCH_PR1/3/6/10.json`): components whose history agrees tightly gate
//!   tightly, noisy ones stay forgiving, and nothing is ever stricter
//!   than the history justifies (see [`adaptive_ratio`]). A component
//!   with a single committed measurement gates at [`GLOBAL_MIN_RATIO`].
//!   `moves_per_s` is the yardstick because it is roughly scale-free:
//!   quick CI runs use a smaller butterfly than the committed full
//!   baseline, and per-move cost is what a regression actually changes.
//! * **Scrape** ([`scrape_gate`]) — well-formedness of a live
//!   `hotpotato serve` endpoint: `/healthz` liveness and a `/metrics`
//!   exposition whose lines parse, whose required families are declared
//!   and sampled, and whose histogram buckets are cumulative.
//! * **Metrics** ([`metrics_gate`]) — scale-independent telemetry
//!   invariants of the fresh instrumented run: every packet delivered,
//!   zero unsafe deflections, and the Lemma 2.2 contract that the
//!   per-set congestion watermark never exceeds `ln(L·N)`. When the
//!   fresh run is the same instance as the committed baseline
//!   (`METRICS_PR2.json`), the seeded run is deterministic, so makespan,
//!   total deflections, and the watermark must match **exactly**.
//!
//! Every check produces a [`Finding`]; the `tables gate` subcommand
//! prints them all and fails the process if any failed.

use serde::Value;

/// One gate check outcome.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Short check identifier, e.g. `perf/busch (audited)`.
    pub check: String,
    /// Whether the check passed.
    pub ok: bool,
    /// Human-readable evidence (measured vs bound).
    pub detail: String,
}

impl Finding {
    fn pass(check: impl Into<String>, detail: impl Into<String>) -> Finding {
        Finding {
            check: check.into(),
            ok: true,
            detail: detail.into(),
        }
    }

    fn fail(check: impl Into<String>, detail: impl Into<String>) -> Finding {
        Finding {
            check: check.into(),
            ok: false,
            detail: detail.into(),
        }
    }
}

/// Whether every finding passed.
pub fn passed(findings: &[Finding]) -> bool {
    findings.iter().all(|f| f.ok)
}

fn f64_at(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

/// The cross-machine floor ratio: the most lenient bound any check may
/// use. A component with no spread evidence (a single committed
/// baseline) falls back to exactly this.
pub const GLOBAL_MIN_RATIO: f64 = 0.25;

/// Derives a per-component floor ratio from the spread of that
/// component's throughput across committed baselines.
///
/// `spread` is the relative gap between the slowest and fastest
/// committed measurement (`1 - min/max`). The allowed drop below the
/// *fastest* baseline is three spreads plus a 10% pad — same-machine
/// noise observed across PRs, tripled, is a generous envelope for a real
/// CI runner — clamped so the derived floor is never more lenient than
/// [`GLOBAL_MIN_RATIO`] and never tighter than 0.90.
pub fn adaptive_ratio(spread: f64) -> f64 {
    (1.0 - (3.0 * spread + 0.10)).clamp(GLOBAL_MIN_RATIO, 0.90)
}

/// The `moves_per_s` of the row named `component` in a perf document.
fn moves_per_s(doc: &Value, component: &str) -> Option<f64> {
    doc.get("rows")?
        .as_array()?
        .iter()
        .find(|r| r.get("component").and_then(|c| c.as_str()) == Some(component))
        .and_then(|r| f64_at(r, &["moves_per_s"]))
}

/// Compares a fresh perf document against *several* committed baselines,
/// deriving each component's floor from the spread between them instead
/// of one global ratio (baselines that agree tightly gate tightly;
/// noisy components stay forgiving).
///
/// `components` is the set to check (the PERF suite passes
/// [`crate::experiments::perf::COMPONENTS`]); rows outside it are never
/// read. Each listed component must appear in the newest baseline (last
/// in `baselines`) and in `current`; its reference throughput is the
/// fastest committed measurement.
pub fn adaptive_perf_gate(
    components: &[&str],
    baselines: &[Value],
    current: &Value,
) -> Vec<Finding> {
    let Some(newest) = baselines.last() else {
        return vec![Finding::fail("perf/baselines", "no baselines given")];
    };
    let mut out = Vec::new();
    for &name in components {
        let check = format!("perf/{name}");
        if moves_per_s(newest, name).is_none() {
            out.push(Finding::fail(
                check,
                format!("component '{name}' has no moves_per_s in the newest baseline"),
            ));
            continue;
        }
        // Every committed measurement of this component, across baselines.
        let history: Vec<f64> = baselines
            .iter()
            .filter_map(|doc| moves_per_s(doc, name))
            .collect();
        let reference = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let slowest = history.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = if history.len() >= 2 {
            adaptive_ratio(1.0 - slowest / reference)
        } else {
            GLOBAL_MIN_RATIO
        };
        let Some(cur_mps) = moves_per_s(current, name) else {
            out.push(Finding::fail(
                check,
                format!("component '{name}' missing from the fresh measurement"),
            ));
            continue;
        };
        let floor = reference * ratio;
        let detail = format!(
            "{cur_mps:.0} moves/s vs best-of-{} baselines {reference:.0} (adaptive floor {ratio:.2}× = {floor:.0})",
            history.len(),
        );
        if cur_mps >= floor {
            out.push(Finding::pass(check, detail));
        } else {
            out.push(Finding::fail(check, detail));
        }
    }
    out
}

/// Families a live `/metrics` scrape must expose (present from the very
/// first snapshot — none depend on run progress).
const REQUIRED_FAMILIES: &[&str] = &[
    "hotpotato_steps_total",
    "hotpotato_moves_total",
    "hotpotato_deliveries_total",
    "hotpotato_deflections_total",
    "hotpotato_deflections_per_packet",
    "hotpotato_snapshot_seq",
    "hotpotato_run_finished",
];

/// Validates a live scrape of `hotpotato serve`: `/healthz` liveness
/// plus well-formedness of the `/metrics` exposition (line shapes,
/// required families, and cumulativity of every histogram series). Pure
/// over the fetched bodies, so CI failures reproduce offline.
pub fn scrape_gate(healthz_status: u16, healthz_body: &str, metrics_text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    if healthz_status == 200 && healthz_body == "ok\n" {
        out.push(Finding::pass("scrape/healthz", "200 ok"));
    } else {
        out.push(Finding::fail(
            "scrape/healthz",
            format!("status {healthz_status}, body {healthz_body:?}"),
        ));
    }

    let mut malformed = Vec::new();
    let mut samples = 0usize;
    for line in metrics_text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // `name value` or `name{labels} value`; the value parses as f64
        // (`+Inf` buckets appear only inside `le` labels, never as values
        // of these families).
        match line.rsplit_once(' ') {
            Some((name, value)) if !name.is_empty() && value.parse::<f64>().is_ok() => {
                samples += 1;
            }
            _ => malformed.push(line),
        }
    }
    if malformed.is_empty() && samples > 0 {
        out.push(Finding::pass(
            "scrape/exposition",
            format!("{samples} well-formed samples"),
        ));
    } else {
        out.push(Finding::fail(
            "scrape/exposition",
            format!("{samples} samples, malformed lines: {malformed:?}"),
        ));
    }

    for family in REQUIRED_FAMILIES {
        let declared = metrics_text.lines().any(|l| {
            l.strip_prefix("# TYPE ")
                .is_some_and(|r| r.split_whitespace().next() == Some(family))
        });
        let sampled = metrics_text
            .lines()
            .any(|l| l.starts_with(family) && !l.starts_with('#'));
        if declared && sampled {
            out.push(Finding::pass(
                format!("scrape/{family}"),
                "declared + sampled",
            ));
        } else {
            out.push(Finding::fail(
                format!("scrape/{family}"),
                format!("declared={declared} sampled={sampled}"),
            ));
        }
    }

    // Histogram cumulativity: within each `_bucket` series (same labels
    // modulo `le`), counts never decrease in document order and the
    // closing bucket is `+Inf`.
    let mut last: Option<(String, f64)> = None;
    let mut cumulative_ok = true;
    let mut buckets_seen = 0usize;
    for line in metrics_text.lines() {
        let Some(rest) = line
            .split_once("_bucket{")
            .map(|(name, rest)| (name.to_owned(), rest))
        else {
            if last.is_some() {
                // Series ended: the final bucket must have been +Inf.
                if let Some((labels, _)) = &last {
                    if !labels.contains("le=\"+Inf\"") {
                        cumulative_ok = false;
                    }
                }
                last = None;
            }
            continue;
        };
        let (series, labels_and_value) = rest;
        let Some((labels, value)) = labels_and_value.rsplit_once(' ') else {
            cumulative_ok = false;
            continue;
        };
        let value: f64 = value.parse().unwrap_or(f64::NAN);
        buckets_seen += 1;
        let key_prefix = {
            // Labels minus the trailing `le="..."}`.
            labels.split(",le=\"").next().unwrap_or("").to_owned()
        };
        let series_key = format!("{series}|{key_prefix}");
        match &last {
            Some((prev_key, prev_value))
                if prev_key.starts_with(&series_key) && value < *prev_value =>
            {
                cumulative_ok = false;
            }
            _ => {}
        }
        last = Some((format!("{series_key}|{labels}"), value));
    }
    if let Some((labels, _)) = &last {
        if !labels.contains("le=\"+Inf\"") {
            cumulative_ok = false;
        }
    }
    if cumulative_ok && buckets_seen > 0 {
        out.push(Finding::pass(
            "scrape/histograms",
            format!("{buckets_seen} cumulative bucket samples"),
        ));
    } else {
        out.push(Finding::fail(
            "scrape/histograms",
            format!("cumulativity violated or no buckets ({buckets_seen} seen)"),
        ));
    }
    out
}

/// Checks the telemetry invariants of a fresh metrics document against
/// the committed baseline (see the module docs for the contract).
pub fn metrics_gate(baseline: &Value, current: &Value) -> Vec<Finding> {
    let mut out = Vec::new();

    // Scale-independent invariants of the fresh run.
    match (
        f64_at(current, &["metrics", "delivered"]),
        f64_at(current, &["metrics", "packets"]),
    ) {
        (Some(d), Some(n)) if d == n => out.push(Finding::pass(
            "metrics/delivered",
            format!("{d:.0}/{n:.0} packets delivered"),
        )),
        (d, n) => out.push(Finding::fail(
            "metrics/delivered",
            format!("delivered {d:?} of {n:?} packets"),
        )),
    }
    match f64_at(current, &["metrics", "deflections", "unsafe"]) {
        Some(0.0) => out.push(Finding::pass(
            "metrics/safe-deflections",
            "0 unsafe deflections",
        )),
        u => out.push(Finding::fail(
            "metrics/safe-deflections",
            format!("unsafe deflections: {u:?}"),
        )),
    }
    // Lemma 2.2: per-set congestion watermark stays under ln(L·N).
    match (
        f64_at(current, &["metrics", "congestion", "watermark_max"]),
        f64_at(current, &["metrics", "congestion", "ln_ln_bound"]),
    ) {
        (Some(w), Some(b)) if w <= b => out.push(Finding::pass(
            "metrics/watermark",
            format!("congestion watermark {w:.0} ≤ ln(L·N) = {b:.3}"),
        )),
        (w, b) => out.push(Finding::fail(
            "metrics/watermark",
            format!("congestion watermark {w:?} exceeds ln(L·N) bound {b:?}"),
        )),
    }

    // Same instance as the baseline ⇒ the seeded run is deterministic
    // and the telemetry must match exactly.
    let same_instance = f64_at(baseline, &["k"]).is_some()
        && f64_at(baseline, &["k"]) == f64_at(current, &["k"])
        && f64_at(baseline, &["packets"]) == f64_at(current, &["packets"]);
    if same_instance {
        for (name, path) in [
            ("metrics/makespan", &["makespan"] as &[&str]),
            ("metrics/deflections", &["metrics", "deflections", "total"]),
            (
                "metrics/watermark-exact",
                &["metrics", "congestion", "watermark_max"],
            ),
        ] {
            let (b, c) = (f64_at(baseline, path), f64_at(current, path));
            let detail = format!("baseline {b:?} vs fresh {c:?} (exact match required)");
            if b.is_some() && b == c {
                out.push(Finding::pass(name, detail));
            } else {
                out.push(Finding::fail(name, detail));
            }
        }
    } else {
        out.push(Finding::pass(
            "metrics/determinism",
            "different instance size than baseline; exact-match checks skipped",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn perf_doc_named(rows: &[(&str, f64)]) -> Value {
        let rows: Vec<Value> = rows
            .iter()
            .map(|(name, mps)| json!({ "component": *name, "moves_per_s": *mps }))
            .collect();
        json!({ "k": 12, "rows": Value::Array(rows) })
    }

    #[test]
    fn adaptive_ratio_tracks_spread_within_clamps() {
        // Tight history → tight floor; 14% spread (the observed
        // PR1-vs-PR3 gap) → ~0.48; huge spread → never below the
        // cross-machine global.
        assert_eq!(adaptive_ratio(0.0), 0.90);
        let mid = adaptive_ratio(0.14);
        assert!((0.45..0.50).contains(&mid), "{mid}");
        assert_eq!(adaptive_ratio(0.5), GLOBAL_MIN_RATIO);
    }

    #[test]
    fn adaptive_gate_derives_per_component_floors() {
        // "steady" has a tight history (2% spread → 0.84 floor ratio);
        // "noisy" a wide one (20% spread → 0.30).
        let old = perf_doc_named(&[("steady", 1_000_000.0), ("noisy", 1_000_000.0)]);
        let new = perf_doc_named(&[("steady", 980_000.0), ("noisy", 800_000.0)]);
        let baselines = vec![old, new];
        let both = ["steady", "noisy"];
        // 0.82 of the best: passes the noisy floor (0.30), fails the
        // steady one (0.84).
        let fresh = perf_doc_named(&[("steady", 820_000.0), ("noisy", 820_000.0)]);
        let findings = adaptive_perf_gate(&both, &baselines, &fresh);
        let by_name = |n: &str| {
            findings
                .iter()
                .find(|f| f.check == format!("perf/{n}"))
                .unwrap()
        };
        assert!(!by_name("steady").ok, "{findings:?}");
        assert!(by_name("noisy").ok, "{findings:?}");
        // Healthy throughput passes everything.
        let healthy = perf_doc_named(&[("steady", 990_000.0), ("noisy", 990_000.0)]);
        assert!(passed(&adaptive_perf_gate(&both, &baselines, &healthy)));
    }

    #[test]
    fn adaptive_gate_skips_components_absent_from_older_baselines() {
        // A component with no history in older documents gates at the
        // global ratio — not an error, not a demand that the old docs
        // carry it — while components with full history keep their
        // derived floors.
        let old = perf_doc_named(&[("classic", 1_000_000.0)]);
        let new = perf_doc_named(&[("classic", 980_000.0), ("large", 2_000_000.0)]);
        let baselines = vec![old, new];
        let both = ["classic", "large"];
        let fresh = perf_doc_named(&[("classic", 990_000.0), ("large", 600_000.0)]);
        // "large": 0.30 of its single reference — above the 0.25 global
        // fallback even though it is far below any derived tight floor.
        let findings = adaptive_perf_gate(&both, &baselines, &fresh);
        assert!(passed(&findings), "{findings:?}");
        // The fallback is still a floor: dropping under it fails.
        let too_slow = perf_doc_named(&[("classic", 990_000.0), ("large", 400_000.0)]);
        assert!(!passed(&adaptive_perf_gate(&both, &baselines, &too_slow)));
        // Rows carrying extra fields (packets_per_s, peak_rss_bytes, ...)
        // must not confuse history collection.
        let decorated = json!({ "k": 16, "rows": [json!({
            "component": "classic", "moves_per_s": 990_000.0,
            "packets_per_s": 4_000.0, "peak_rss_bytes": 123_456_789u64,
            "violations": 0,
        })] });
        let only_classic = vec![perf_doc_named(&[("classic", 1_000_000.0)]), decorated];
        let fresh2 = perf_doc_named(&[("classic", 900_000.0)]);
        assert!(passed(&adaptive_perf_gate(
            &["classic"],
            &only_classic,
            &fresh2
        )));
    }

    #[test]
    fn adaptive_gate_ignores_rows_outside_the_component_list() {
        // The newest baseline carries a row the list does not name, with
        // no counterpart in the fresh document: it is never read.
        let old = perf_doc_named(&[("classic", 1_000_000.0)]);
        let new = perf_doc_named(&[("classic", 980_000.0), ("retired", 0.0)]);
        let baselines = vec![old, new];
        let fresh = perf_doc_named(&[("classic", 990_000.0)]);
        let findings = adaptive_perf_gate(&["classic"], &baselines, &fresh);
        assert!(passed(&findings), "{findings:?}");
        assert_eq!(findings.len(), 1, "{findings:?}");
        // Nor is an unlisted row of the fresh document, however slow.
        let fresh = perf_doc_named(&[("classic", 990_000.0), ("retired", 1.0)]);
        let findings = adaptive_perf_gate(&["classic"], &baselines, &fresh);
        assert!(passed(&findings), "{findings:?}");
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn adaptive_gate_fails_a_listed_component_missing_from_the_fresh_document() {
        let baselines = vec![perf_doc_named(&[("a", 1_000_000.0), ("b", 1_000_000.0)])];
        let fresh = perf_doc_named(&[("a", 990_000.0)]);
        let findings = adaptive_perf_gate(&["a", "b"], &baselines, &fresh);
        assert!(!passed(&findings), "{findings:?}");
        let b = findings.iter().find(|f| f.check == "perf/b").unwrap();
        assert!(!b.ok && b.detail.contains("fresh measurement"), "{b:?}");
    }

    #[test]
    fn adaptive_gate_fails_a_listed_component_missing_from_the_newest_baseline() {
        // "b" has history in an older baseline but is gone from the
        // newest: the gate fails it rather than gating on stale history.
        let old = perf_doc_named(&[("a", 1_000_000.0), ("b", 1_000_000.0)]);
        let new = perf_doc_named(&[("a", 1_000_000.0)]);
        let fresh = perf_doc_named(&[("a", 990_000.0), ("b", 990_000.0)]);
        let findings = adaptive_perf_gate(&["a", "b"], &[old, new], &fresh);
        assert!(!passed(&findings), "{findings:?}");
        let b = findings.iter().find(|f| f.check == "perf/b").unwrap();
        assert!(!b.ok && b.detail.contains("newest baseline"), "{b:?}");
    }

    #[test]
    fn adaptive_gate_single_baseline_falls_back_to_global_ratio() {
        let only = vec![perf_doc_named(&[("c", 1_000_000.0)])];
        // 0.30 of baseline: above the 0.25 global fallback.
        let fresh = perf_doc_named(&[("c", 300_000.0)]);
        assert!(passed(&adaptive_perf_gate(&["c"], &only, &fresh)));
        let too_slow = perf_doc_named(&[("c", 200_000.0)]);
        assert!(!passed(&adaptive_perf_gate(&["c"], &only, &too_slow)));
        assert!(!passed(&adaptive_perf_gate(&["c"], &[], &fresh)));
    }

    const GOOD_SCRAPE: &str = "\
# HELP hotpotato_steps_total Steps.\n\
# TYPE hotpotato_steps_total counter\n\
hotpotato_steps_total{run=\"a\"} 320\n\
# TYPE hotpotato_moves_total counter\n\
hotpotato_moves_total{run=\"a\"} 10\n\
# TYPE hotpotato_deliveries_total counter\n\
hotpotato_deliveries_total{run=\"a\"} 0\n\
# TYPE hotpotato_deflections_total counter\n\
hotpotato_deflections_total{run=\"a\",kind=\"safe\"} 2\n\
# TYPE hotpotato_deflections_per_packet histogram\n\
hotpotato_deflections_per_packet_bucket{run=\"a\",le=\"0\"} 5\n\
hotpotato_deflections_per_packet_bucket{run=\"a\",le=\"1\"} 8\n\
hotpotato_deflections_per_packet_bucket{run=\"a\",le=\"+Inf\"} 9\n\
hotpotato_deflections_per_packet_sum{run=\"a\"} 6\n\
hotpotato_deflections_per_packet_count{run=\"a\"} 9\n\
# TYPE hotpotato_snapshot_seq gauge\n\
hotpotato_snapshot_seq{run=\"a\"} 40\n\
# TYPE hotpotato_run_finished gauge\n\
hotpotato_run_finished{run=\"a\"} 0\n";

    #[test]
    fn scrape_gate_accepts_a_well_formed_exposition() {
        let findings = scrape_gate(200, "ok\n", GOOD_SCRAPE);
        assert!(passed(&findings), "{findings:?}");
    }

    #[test]
    fn scrape_gate_rejects_problems() {
        assert!(!passed(&scrape_gate(500, "boom", GOOD_SCRAPE)));
        // A malformed sample line.
        let broken = format!("{GOOD_SCRAPE}what_is_this\n");
        assert!(!passed(&scrape_gate(200, "ok\n", &broken)));
        // A missing required family.
        let no_steps = GOOD_SCRAPE.replace("hotpotato_steps_total", "hp_steps");
        assert!(!passed(&scrape_gate(200, "ok\n", &no_steps)));
        // Non-cumulative buckets.
        let decreasing = GOOD_SCRAPE.replace(
            "hotpotato_deflections_per_packet_bucket{run=\"a\",le=\"1\"} 8",
            "hotpotato_deflections_per_packet_bucket{run=\"a\",le=\"1\"} 3",
        );
        assert!(!passed(&scrape_gate(200, "ok\n", &decreasing)));
    }

    fn metrics_doc(k: u64, delivered: u64, watermark: f64, makespan: u64) -> Value {
        json!({
            "k": k,
            "packets": 1024,
            "makespan": makespan,
            "metrics": json!({
                "packets": 1024,
                "delivered": delivered,
                "deflections": json!({ "total": 6046, "unsafe": 0 }),
                "congestion": json!({ "watermark_max": watermark, "ln_ln_bound": 9.234 }),
            }),
        })
    }

    #[test]
    fn metrics_gate_checks_invariants_and_determinism() {
        let base = metrics_doc(10, 1024, 8.0, 64004);
        assert!(
            passed(&metrics_gate(&base, &base)),
            "self-compare must pass"
        );
        // Watermark above the Lemma 2.2 bound fails.
        let hot = metrics_doc(10, 1024, 12.0, 64004);
        assert!(!passed(&metrics_gate(&base, &hot)));
        // Same instance with a different makespan fails (determinism).
        let drift = metrics_doc(10, 1024, 8.0, 64123);
        assert!(!passed(&metrics_gate(&base, &drift)));
        // Different instance: exact checks skipped, invariants still run.
        let quick = metrics_doc(8, 1024, 8.0, 9999);
        assert!(passed(&metrics_gate(&base, &quick)));
        let undelivered = metrics_doc(8, 1000, 8.0, 9999);
        assert!(!passed(&metrics_gate(&base, &undelivered)));
    }
}
