//! Telemetry regression gate: checks a live `hotpotato serve` scrape and
//! a freshly measured metrics document against the committed baseline
//! with explicit tolerances. Speed is not gated here: `examples/hpbench`
//! measures it, against its own ledger.
//!
//! Two kinds of checks:
//!
//! * **Scrape** ([`scrape_gate`]) — well-formedness of a live
//!   `hotpotato serve` endpoint: `/healthz` liveness and a `/metrics`
//!   exposition whose lines parse, whose required families are declared
//!   and sampled, and whose histogram buckets are cumulative.
//! * **Metrics** ([`metrics_gate`]) — scale-independent telemetry
//!   invariants of the fresh instrumented run: every packet delivered,
//!   zero unsafe deflections, and the Lemma 2.2 contract that the
//!   per-set congestion watermark never exceeds `ln(L·N)`. The fresh run
//!   must be the committed baseline's instance (`METRICS_PR2.json`): the
//!   seeded run is deterministic, so makespan, total deflections, and
//!   the watermark must match **exactly**, and a baseline of another
//!   instance fails.
//!
//! Every check produces a [`Finding`]; the `tables gate` subcommand
//! prints them all and fails the process if any failed.

use serde::Value;

/// One gate check outcome.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Short check identifier, e.g. `metrics/makespan`.
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

/// Validates a live scrape of `hotpotato serve`: `/healthz` liveness,
/// a `200` for `/metrics`, and well-formedness of the `/metrics`
/// exposition (line shapes, required families, and cumulativity of every
/// histogram series). Pure over the fetched statuses and bodies, so CI
/// failures reproduce offline.
pub fn scrape_gate(
    healthz_status: u16,
    healthz_body: &str,
    metrics_status: u16,
    metrics_text: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if healthz_status == 200 && healthz_body == "ok\n" {
        out.push(Finding::pass("scrape/healthz", "200 ok"));
    } else {
        out.push(Finding::fail(
            "scrape/healthz",
            format!("status {healthz_status}, body {healthz_body:?}"),
        ));
    }
    if metrics_status != 200 {
        out.push(Finding::fail(
            "scrape/metrics",
            format!("GET /metrics returned {metrics_status}"),
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

    // The seeded run is deterministic, so on the baseline's instance the
    // telemetry must match exactly; against another instance it cannot
    // be checked at all.
    let instance = |doc: &Value| (f64_at(doc, &["k"]), f64_at(doc, &["packets"]));
    if f64_at(baseline, &["k"]).is_none() || instance(baseline) != instance(current) {
        out.push(Finding::fail(
            "metrics/instance",
            format!(
                "baseline (k, packets) {:?} vs fresh {:?}: exact-match checks cannot run",
                instance(baseline),
                instance(current)
            ),
        ));
        return out;
    }
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

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
        let findings = scrape_gate(200, "ok\n", 200, GOOD_SCRAPE);
        assert!(passed(&findings), "{findings:?}");
    }

    #[test]
    fn scrape_gate_rejects_problems() {
        assert!(!passed(&scrape_gate(500, "boom", 200, GOOD_SCRAPE)));
        // A `/metrics` answered with an error status, whatever its body.
        let findings = scrape_gate(200, "ok\n", 503, GOOD_SCRAPE);
        assert!(
            findings
                .iter()
                .any(|f| f.check == "scrape/metrics" && !f.ok),
            "{findings:?}"
        );
        // A malformed sample line.
        let broken = format!("{GOOD_SCRAPE}what_is_this\n");
        assert!(!passed(&scrape_gate(200, "ok\n", 200, &broken)));
        // A missing required family.
        let no_steps = GOOD_SCRAPE.replace("hotpotato_steps_total", "hp_steps");
        assert!(!passed(&scrape_gate(200, "ok\n", 200, &no_steps)));
        // Non-cumulative buckets.
        let decreasing = GOOD_SCRAPE.replace(
            "hotpotato_deflections_per_packet_bucket{run=\"a\",le=\"1\"} 8",
            "hotpotato_deflections_per_packet_bucket{run=\"a\",le=\"1\"} 3",
        );
        assert!(!passed(&scrape_gate(200, "ok\n", 200, &decreasing)));
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

    /// The checks of `findings` that failed, by name.
    fn failed(findings: &[Finding]) -> Vec<&str> {
        findings
            .iter()
            .filter(|f| !f.ok)
            .map(|f| f.check.as_str())
            .collect()
    }

    #[test]
    fn metrics_gate_checks_invariants_and_determinism() {
        let base = metrics_doc(10, 1024, 8.0, 64004);
        assert!(
            passed(&metrics_gate(&base, &base)),
            "self-compare must pass"
        );
        // Watermark above the Lemma 2.2 bound fails, and so does its
        // exact match against the baseline.
        let hot = metrics_doc(10, 1024, 12.0, 64004);
        assert_eq!(
            failed(&metrics_gate(&base, &hot)),
            ["metrics/watermark", "metrics/watermark-exact"]
        );
        // Same instance with a different makespan fails (determinism).
        let drift = metrics_doc(10, 1024, 8.0, 64123);
        assert_eq!(failed(&metrics_gate(&base, &drift)), ["metrics/makespan"]);
        // Another instance cannot be checked exactly, so it fails.
        let quick = metrics_doc(8, 1024, 8.0, 9999);
        assert_eq!(failed(&metrics_gate(&base, &quick)), ["metrics/instance"]);
        // A packet left undelivered on the baseline's instance.
        let undelivered = metrics_doc(10, 1000, 8.0, 64004);
        assert_eq!(
            failed(&metrics_gate(&base, &undelivered)),
            ["metrics/delivered"]
        );
    }
}
