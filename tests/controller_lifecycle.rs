//! The OnlineTune controller service lifecycle against the simulator:
//! request/report cycles, multiple tasks, per-task histories and stored
//! meta-features, stopping, and restart on workload drift.

use otune_core::controller::TaskState;
use otune_core::prelude::*;
use otune_meta::extract_meta_features;

#[test]
fn full_service_lifecycle_with_two_tasks() {
    let mut ctl = OnlineTuneController::new();
    let space = spark_space(ClusterScale::hibench());

    let jobs = [
        (
            "wc-hourly",
            SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount)),
        ),
        (
            "sort-hourly",
            SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::Sort)),
        ),
    ];

    let mut handles = Vec::new();
    for (id, _) in &jobs {
        let h = ctl.create_task(
            id,
            space.clone(),
            TunerOptions {
                beta: 0.5,
                budget: 6,
                enable_meta: false,
                ..TunerOptions::default()
            },
        );
        handles.push(h);
    }

    for t in 0..6u64 {
        for (h, (_, job)) in handles.iter().zip(&jobs) {
            let cfg = ctl.request_config(h, &[]).expect("registered task");
            let r = job.run(&cfg, t);
            let meta = if t == 0 {
                Some(extract_meta_features(&r.event_log))
            } else {
                None
            };
            ctl.report_result(h, cfg, r.runtime_s, r.resource, &[], meta)
                .expect("pending suggestion");
        }
    }

    for h in &handles {
        // Budget exhausted: the next request flips to Stopped.
        let _ = ctl.request_config(h, &[]).unwrap();
        assert_eq!(ctl.state(h), Ok(TaskState::Stopped));
        assert!(ctl.best_config(h).unwrap().is_some());
        assert_eq!(ctl.tuner(h).unwrap().history().len(), 6);
        let features = ctl.repository().meta_features(h.as_str());
        assert!(features.is_some(), "meta features recorded");
    }
}

#[test]
fn degradation_restarts_tuning_and_transfers_history() {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount));

    let mut tuner = OnlineTuner::new(
        space,
        TunerOptions {
            beta: 0.5,
            budget: 6,
            enable_meta: true,
            seed: 17,
            ..TunerOptions::default()
        },
    );
    for t in 0..6u64 {
        let cfg = tuner.suggest(&[]).unwrap();
        let r = job.run(&cfg, t);
        tuner.observe(cfg, r.runtime_s, r.resource, &[]).unwrap();
    }
    let _ = tuner.suggest(&[]).unwrap();
    assert!(tuner.is_stopped());
    let best = tuner.best().unwrap();
    let (rt, rs) = (best.runtime, best.resource);
    tuner.observe(best.config.clone(), rt, rs, &[]).unwrap();

    // The workload drifts: post-tuning executions degrade 10x, and the
    // third degraded period in a row restarts tuning (§3.3).
    for _ in 0..3 {
        let cfg = tuner.suggest(&[]).unwrap();
        tuner.observe(cfg, rt * 10.0, rs, &[]).unwrap();
    }
    assert_eq!(tuner.restarts(), 1);
    assert!(!tuner.is_stopped());

    // The fresh round still works and can use the old round as meta base.
    for t in 100..104u64 {
        let cfg = tuner.suggest(&[]).unwrap();
        let r = job.run(&cfg, t);
        tuner.observe(cfg, r.runtime_s, r.resource, &[]).unwrap();
    }
    assert_eq!(tuner.history().len(), 4);
}
