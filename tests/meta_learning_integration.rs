//! Meta-learning (§5) across simulated tasks: similarity learning,
//! warm-starting and the ensemble surrogate wired through the tuner.

use otune_core::prelude::*;
use otune_meta::{extract_meta_features, warm_start_configs, SharedMetaStore, SimilarityLearner};
use otune_pool::Pool;

/// The similarity model of `sources`, trained on a fresh store.
fn train(space: &ConfigSpace, sources: &[TaskRecord]) -> SimilarityLearner {
    let store = SharedMetaStore::new();
    let (pool, tm) = (Pool::from_env(), Telemetry::disabled());
    SimilarityLearner::train(space, sources, 40, 0, &store, &pool, &tm).expect("trains")
}

fn record_for(task: HibenchTask, budget: usize, seed: u64) -> TaskRecord {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task)).with_seed(seed);
    let mut tuner = OnlineTuner::new(
        space.clone(),
        TunerOptions {
            beta: 0.5,
            budget,
            enable_meta: false,
            seed,
            ..TunerOptions::default()
        },
    );
    for t in 0..budget as u64 {
        let cfg = tuner.suggest(&[]).expect("protocol");
        let r = job.run(&cfg, t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &[])
            .expect("pending");
    }
    let log = job
        .clone()
        .with_noise(0.0)
        .run(&space.default_configuration(), 0)
        .event_log;
    tuner.export_record(task.name(), extract_meta_features(&log))
}

#[test]
fn similarity_model_trains_on_simulated_histories() {
    let space = spark_space(ClusterScale::hibench());
    let sources = vec![
        record_for(HibenchTask::Sort, 10, 1),
        record_for(HibenchTask::WordCount, 10, 2),
        record_for(HibenchTask::KMeans, 10, 3),
        record_for(HibenchTask::LR, 10, 4),
    ];
    let learner = train(&space, &sources);

    // Self-distance (identical meta-features) must be among the smallest.
    let v = &sources[0].meta_features;
    let self_d = learner.predict(v, v);
    let cross: Vec<f64> = sources[1..]
        .iter()
        .map(|t| learner.predict(v, &t.meta_features))
        .collect();
    let min_cross = cross.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        self_d <= min_cross + 0.15,
        "self-distance {self_d} should be near the minimum (cross: {cross:?})"
    );
}

#[test]
fn warm_start_improves_early_iterations() {
    let space = spark_space(ClusterScale::hibench());
    let sources = vec![
        record_for(HibenchTask::Sort, 12, 5),
        record_for(HibenchTask::WordCount, 12, 6),
        record_for(HibenchTask::KMeans, 12, 7),
    ];
    let learner = train(&space, &sources);

    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort));
    let log = job
        .clone()
        .with_noise(0.0)
        .run(&space.default_configuration(), 0)
        .event_log;
    let features = extract_meta_features(&log);
    let warm = warm_start_configs(&learner, &features, &sources, 3, &Telemetry::disabled());
    assert!(!warm.is_empty());

    let early_best = |warm_configs: Vec<Configuration>| {
        let mut tuner = OnlineTuner::new(
            space.clone(),
            TunerOptions {
                beta: 0.5,
                budget: 3,
                warm_configs,
                enable_meta: false,
                seed: 9,
                ..TunerOptions::default()
            },
        );
        let mut best = f64::INFINITY;
        for t in 0..3u64 {
            let cfg = tuner.suggest(&[]).unwrap();
            let r = job.run(&cfg, 5000 + t);
            best = best.min(r.execution_cost());
            tuner.observe(cfg, r.runtime_s, r.resource, &[]).unwrap();
        }
        best
    };
    let cold = early_best(vec![]);
    let warm_best = early_best(warm);
    assert!(
        warm_best < cold,
        "warm-start beats cold start in the first 3 iterations: {warm_best} vs {cold}"
    );
}

#[test]
fn tuner_accepts_base_tasks_for_the_ensemble() {
    let space = spark_space(ClusterScale::hibench());
    let bases = vec![
        record_for(HibenchTask::Sort, 10, 11),
        record_for(HibenchTask::WordCount, 10, 12),
    ];
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort));
    let mut tuner = OnlineTuner::new(
        space,
        TunerOptions {
            beta: 0.5,
            budget: 8,
            base_tasks: bases,
            enable_meta: true,
            seed: 13,
            ..TunerOptions::default()
        },
    );
    for t in 0..8u64 {
        let cfg = tuner.suggest(&[]).expect("protocol");
        let r = job.run(&cfg, t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &[])
            .expect("pending");
    }
    assert!(tuner.best().is_some());
}

/// A meta-learning tuner with a workload context scores
/// `configuration ++ context` candidate rows, while every ensemble member
/// is fitted on configurations only: the ensemble must read the
/// configuration prefix of each row (wider rows used to trip the GP
/// kernel's width check in debug builds).
#[test]
fn meta_tuner_with_a_workload_context_runs_the_ensemble() {
    let space = spark_space(ClusterScale::hibench());
    let bases = vec![
        record_for(HibenchTask::Sort, 10, 11),
        record_for(HibenchTask::WordCount, 10, 12),
    ];
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort));
    let mut tuner = OnlineTuner::new(
        space,
        TunerOptions {
            beta: 0.5,
            budget: 8,
            base_tasks: bases,
            enable_meta: true,
            seed: 13,
            ..TunerOptions::default()
        },
    );
    let context = [0.5];
    for t in 0..8u64 {
        let cfg = tuner.suggest(&context).expect("protocol");
        let r = job.run(&cfg, t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &context)
            .expect("pending");
    }
    assert_eq!(tuner.history().len(), 8);
    assert!(tuner.history().iter().all(|o| o.context == context));
}
