//! The replay auditor fed live, as the run happens, must reach the
//! verdict `replay::verify` reaches over a record of the same run.

use hotpotato_sim::{replay, AdmissionControl, RunRecord, StreamingConfig};
use routing_core::spec::parse_run_spec;
use serve::service::RunPlan;

#[test]
fn live_auditor_matches_verify_over_the_record() {
    for spec in [
        "bf:6/bitrev/busch/7",
        "bf:6/bitrev/greedy/7",
        "bf:6/pairs:48/ftg/3",
        "bf:6/pairs:48/aging/3",
        "bf:6/bitrev/rank/7",
        "bf:6/pairs:48/greedy/7/poisson:0.5",
    ] {
        let run = parse_run_spec(spec).unwrap();
        let (_, problem, mut rng) = run.instantiate().unwrap();
        let max_steps = StreamingConfig::default().max_steps;
        let plan = RunPlan::new(&run, &problem, AdmissionControl::default(), max_steps).unwrap();
        let mut observer = (RunRecord::default(), replay::Auditor::new(&problem));
        let stats = plan.route(&problem, &mut rng, &mut observer).into_stats();
        let (record, auditor) = observer;
        let recorded = replay::verify(&problem, &record, &stats);
        let live = auditor.finish(&stats.delivered_at);
        assert_eq!(live, recorded, "{spec}");
        let report = live.unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(report.moves as usize, record.len(), "{spec}");
        assert!(report.delivered > 0, "{spec}");
    }
}
