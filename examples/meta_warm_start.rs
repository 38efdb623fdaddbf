//! Meta-learning transfer across tasks (§5).
//!
//! ```text
//! cargo run --release -p otune-core --example meta_warm_start
//! ```
//!
//! Builds tuning histories for several source workloads, trains the
//! task-similarity model on their meta-features, and tunes a *new*
//! workload (TeraSort) three ways: cold, warm-started from the top-3
//! similar tasks, and warm-started plus the ensemble surrogate. Prints the
//! best-cost-so-far trajectory of each variant.

use otune_core::prelude::*;
use otune_meta::{extract_meta_features, warm_start_configs, SharedMetaStore, SimilarityLearner};
use otune_pool::Pool;

/// Build a (history, meta-features) record by tuning a source task.
fn record_for(task: HibenchTask, budget: usize, seed: u64) -> TaskRecord {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task)).with_seed(seed);
    let baseline = job.run(&space.default_configuration(), 0);
    let mut tuner = OnlineTuner::new(
        space.clone(),
        TunerOptions {
            beta: 0.5,
            t_max: Some(2.0 * baseline.runtime_s),
            budget,
            enable_meta: false,
            seed,
            ..TunerOptions::default()
        },
    );
    for t in 0..budget as u64 {
        let cfg = tuner.suggest(&[]).expect("alternating protocol");
        let r = job.run(&cfg, t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &[])
            .expect("pending");
    }
    tuner.export_record(task.name(), extract_meta_features(&baseline.event_log))
}

fn tune_target(
    label: &str,
    warm: Vec<Configuration>,
    bases: Vec<TaskRecord>,
    budget: usize,
) -> Vec<f64> {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort));
    let baseline = job.run(&space.default_configuration(), 0);
    let enable_meta = !bases.is_empty();
    let mut tuner = OnlineTuner::new(
        space,
        TunerOptions {
            beta: 0.5,
            t_max: Some(2.0 * baseline.runtime_s),
            budget,
            warm_configs: warm,
            base_tasks: bases,
            enable_meta,
            seed: 99,
            ..TunerOptions::default()
        },
    );
    let mut best = f64::INFINITY;
    let mut curve = Vec::new();
    for t in 0..budget as u64 {
        let cfg = tuner.suggest(&[]).expect("alternating protocol");
        let r = job.run(&cfg, 7000 + t);
        best = best.min(r.execution_cost());
        curve.push(best);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &[])
            .expect("pending");
    }
    println!(
        "{label:<28} best cost after 3 iters: {:>10.0}, after {budget}: {:>10.0}",
        curve[2.min(curve.len() - 1)],
        curve.last().unwrap()
    );
    curve
}

fn main() {
    let budget = 20;
    println!("building source-task histories (Sort, WordCount, PageRank, LR, SVD)...");
    let sources: Vec<TaskRecord> = [
        HibenchTask::Sort,
        HibenchTask::WordCount,
        HibenchTask::PageRank,
        HibenchTask::LR,
        HibenchTask::SVD,
    ]
    .iter()
    .enumerate()
    .map(|(i, t)| record_for(*t, 20, i as u64 + 1))
    .collect();

    // Similarity model + warm-start configs for the new TeraSort task.
    let space = spark_space(ClusterScale::hibench());
    let (pool, telemetry) = (Pool::from_env(), Telemetry::disabled());
    let store = SharedMetaStore::new();
    let learner = SimilarityLearner::train(&space, &sources, 50, 0, &store, &pool, &telemetry)
        .expect("enough source tasks");
    let target_log = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort))
        .with_noise(0.0)
        .run(&space.default_configuration(), 0)
        .event_log;
    let target_features = extract_meta_features(&target_log);
    let warm = warm_start_configs(&learner, &target_features, &sources, 3, &telemetry);
    let ranked = learner.rank_tasks(&target_features, &sources);
    println!(
        "most similar sources to terasort: {:?}\n",
        ranked
            .iter()
            .take(3)
            .map(|(i, d)| (sources[*i].task_id.as_str(), (d * 100.0).round() / 100.0))
            .collect::<Vec<_>>()
    );

    tune_target("cold start", vec![], vec![], budget);
    tune_target("warm start (top-3 configs)", warm.clone(), vec![], budget);
    tune_target("warm start + ensemble", warm, sources, budget);
    println!("\n(paper: warm-starting cuts early-iteration cost by 25-95%; the ensemble");
    println!(" surrogate reaches vanilla BO's 30-iteration cost in ≥3x fewer iterations)");
}
