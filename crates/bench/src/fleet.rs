//! Fleet artifact collection for the bench tables.
//!
//! `tables t1`/`t8` used to average bespoke per-run counters; they now
//! build their rows from the same [`FleetAggregator`] rollup the live
//! `/fleet` endpoint serves, so a table cell and a fleet cell are the
//! same artifact. Determinism at any worker count is structural:
//! [`parallel_map`] returns results in submission order, the
//! fold below walks that order sequentially, and every statistic the
//! aggregator reports is computed from *sorted* samples with a
//! cell-keyed bootstrap seed — so `HOTPOTATO_THREADS=1` and `=32`
//! produce byte-identical tables.

use crate::runner::parallel_map;
use hotpotato_trace::{FleetAggregator, FleetSample};
use routing_core::spec::RunSpec;
use serve::run_fleet_spec;

/// Parses every spec string, executes the runs on [`parallel_map`] and
/// folds the samples into one aggregation, in submission order. Panics
/// on a malformed spec — table definitions are code, not input.
pub fn collect_strs(specs: &[String], verify: bool) -> FleetAggregator {
    let specs: Vec<RunSpec> = specs
        .iter()
        .map(|s| routing_core::spec::parse_run_spec(s).expect("table specs parse"))
        .collect();
    collect_with(specs, |spec| run_fleet_spec(&spec, verify))
}

/// The generic collector: any item type, any sample producer. `t8` uses
/// this to run parameter points [`RunSpec`] cannot express (custom
/// frame heights), while still folding through the fleet artifact.
pub fn collect_with<T, F>(items: Vec<T>, produce: F) -> FleetAggregator
where
    T: Send,
    F: Fn(T) -> Result<FleetSample, String> + Sync,
{
    let results = parallel_map(items, produce);
    let mut agg = FleetAggregator::new();
    for result in results {
        match result {
            Ok(sample) => agg.record(sample),
            Err(_) => agg.record_failure(),
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::parallel_map_with_threads;

    fn specs() -> Vec<RunSpec> {
        routing_core::spec::expand_sweep("bf:5/bitrev/busch/1..4").expect("sweep")
    }

    #[test]
    fn fleet_artifacts_are_identical_at_any_worker_count() {
        let runs: Vec<Vec<Result<FleetSample, String>>> = [1usize, 2, 7]
            .iter()
            .map(|&threads| {
                parallel_map_with_threads(specs(), |s| run_fleet_spec(&s, true), threads)
            })
            .collect();
        let docs: Vec<String> = runs
            .into_iter()
            .map(|results| {
                let mut agg = FleetAggregator::new();
                for r in results {
                    agg.record(r.expect("clean runs"));
                }
                serde_json::to_string(&agg.to_json()).expect("serialize")
            })
            .collect();
        assert_eq!(docs[0], docs[1], "1 thread == 2 threads, byte for byte");
        assert_eq!(docs[0], docs[2], "1 thread == 7 threads, byte for byte");
    }

    #[test]
    fn failures_fold_as_failed_runs() {
        let agg = collect_with(vec![1u64, 2, 3], |i| {
            if i == 2 {
                Err("boom".into())
            } else {
                run_fleet_spec(
                    &routing_core::spec::parse_run_spec(&format!("bf:5/bitrev/busch/{i}"))
                        .expect("spec"),
                    false,
                )
            }
        });
        assert_eq!(agg.runs(), 2);
        assert_eq!(agg.failed(), 1);
    }
}
