//! Shared experiment definitions: HiBench setups and the method roster.

use crate::driver::{run_baseline, run_otune, RunTrace, TuningSetup};
use otune_baselines::{CherryPick, Dac, Locat, RandomSearch, Rfhoc, Tuneful};
use otune_core::TunerOptions;
use otune_pool::Pool;
use otune_space::{spark_space, ClusterScale};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};

/// The method roster of Figures 4–5, in presentation order.
pub const METHODS: [&str; 7] = [
    "Random",
    "RFHOC",
    "DAC",
    "CherryPick",
    "Tuneful",
    "LOCAT",
    "Ours",
];

/// Build the standard §6.3 setup for a HiBench task: the small cluster,
/// the 30-parameter space, a runtime threshold of twice the default
/// configuration's runtime, and a 30-iteration budget.
pub fn hibench_setup(task: HibenchTask, beta: f64, budget: usize) -> TuningSetup {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task));
    let default_rt = job
        .clone()
        .with_noise(0.0)
        .run(&space.default_configuration(), 0)
        .runtime_s;
    TuningSetup {
        job,
        space,
        beta,
        t_max: Some(2.0 * default_rt),
        budget,
        datasize: None,
    }
}

/// Run one named method on a setup with a seed.
///
/// Panics on unknown method names — the roster is fixed by [`METHODS`].
pub fn run_method(method: &str, setup: &TuningSetup, seed: u64) -> RunTrace {
    match method {
        "Random" => {
            let mut t = RandomSearch::new(setup.space.clone(), seed);
            run_baseline(setup, &mut t, seed)
        }
        "RFHOC" => {
            let mut t = Rfhoc::new(setup.space.clone(), seed);
            run_baseline(setup, &mut t, seed)
        }
        "DAC" => {
            let mut t = Dac::new(setup.space.clone(), seed);
            run_baseline(setup, &mut t, seed)
        }
        "CherryPick" => {
            let mut t = CherryPick::new(setup.space.clone(), setup.t_max, seed);
            run_baseline(setup, &mut t, seed)
        }
        "Tuneful" => {
            let mut t = Tuneful::new(setup.space.clone(), seed);
            run_baseline(setup, &mut t, seed)
        }
        "LOCAT" => {
            let mut t = Locat::new(setup.space.clone(), seed);
            run_baseline(setup, &mut t, seed)
        }
        "Ours" => run_otune(setup, ours_options(), seed),
        other => panic!("unknown method {other}"),
    }
}

/// The full `otune` configuration (all accelerations on, no cross-task
/// meta sources in the single-task comparisons).
pub fn ours_options() -> TunerOptions {
    TunerOptions {
        enable_meta: false, // no cross-task history in Figures 4/5
        ..TunerOptions::default()
    }
}

/// Build a [`otune_meta::TaskRecord`] for a HiBench task: a tuning history
/// of `n_obs` evaluations (cost objective) plus meta-features extracted
/// from the default configuration's event log — the repository entry a
/// completed tuning task leaves behind.
pub fn task_record_for(task: HibenchTask, n_obs: usize, seed: u64) -> otune_meta::TaskRecord {
    let setup = hibench_setup(task, 0.5, n_obs);
    let mut options = ours_options();
    options.seed = seed;
    options.beta = setup.beta;
    options.t_max = setup.t_max;
    options.budget = setup.budget;
    let mut tuner = otune_core::OnlineTuner::new(setup.space.clone(), options);
    for t in 0..n_obs as u64 {
        let cfg = tuner.suggest(&[]).expect("suggest/observe alternation");
        let r = setup.job.run(&cfg, seed * 7919 + t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &[])
            .expect("pending suggestion");
    }
    let log = setup
        .job
        .clone()
        .with_noise(0.0)
        .run(&setup.space.default_configuration(), 0)
        .event_log;
    tuner.export_record(task.name(), otune_meta::extract_meta_features(&log))
}

/// Memory GB·h, CPU core·h, runtime s, execution cost — the metric tuple
/// the production experiments track at each phase.
pub type Metrics4 = (f64, f64, f64, f64);

/// Per-task outcome of a production tuning run (Figure 2 / Tables 2–3).
#[derive(Debug, Clone)]
pub struct ProdOutcome {
    /// Task name.
    pub name: String,
    /// Pre-tuning (manual) metrics.
    pub pre: Metrics4,
    /// Mean metrics of the executions *during* tuning (the overhead view).
    pub under: Metrics4,
    /// Metrics of the best configuration found (post-tuning).
    pub post: Metrics4,
    /// Running best execution cost after each tuning iteration.
    pub best_cost_curve: Vec<f64>,
    /// 1-based iteration at which the best configuration was found.
    pub best_iteration: usize,
    /// Executor parameters of the best configuration
    /// (instances, cores, memory GB).
    pub best_executors: (i64, i64, i64),
}

/// Tune one production task for `budget` iterations under the §6.2
/// protocol: cost objective, constraints at twice the manual metrics, the
/// manual run seeded as the incumbent, optional warm-start configs.
pub fn tune_production_task(
    task: &otune_sparksim::ProductionTask,
    budget: usize,
    warm: Vec<otune_space::Configuration>,
    seed: u64,
) -> ProdOutcome {
    use otune_core::{Objective, OnlineTuner, TunerOptions};

    let space = task.space();
    let job = task.job();
    let objective = Objective::cost();

    // Pre-tuning: the manual configuration's production metrics.
    let manual = job.run_with_datasize(&task.manual_config, task.datasize.size_at(0), 0);
    let pre = (
        manual.memory_gb_h,
        manual.cpu_core_h,
        manual.runtime_s,
        manual.runtime_s * manual.resource,
    );

    let options = TunerOptions {
        beta: 0.5,
        t_max: Some(2.0 * manual.runtime_s),
        r_max: Some(2.0 * manual.resource),
        budget,
        warm_configs: warm,
        enable_meta: false, // meta transfer arrives via `warm`
        seed,
        ..TunerOptions::default()
    };
    let mut tuner = OnlineTuner::new(space, options);
    tuner.seed_observation(
        task.manual_config.clone(),
        manual.runtime_s,
        manual.resource,
        &[1.0],
    );

    let mut under = Vec::with_capacity(budget);
    let mut curve = Vec::with_capacity(budget);
    let mut best_cost = pre.3;
    let mut best: (f64, usize, Metrics4, (i64, i64, i64)) = (
        objective.eval(manual.runtime_s, manual.resource),
        0,
        pre,
        executor_params(&task.manual_config),
    );
    // The data platform kills any run that exceeds the tolerated runtime
    // (the SLA behind `T_max`), so during-tuning overhead is bounded: the
    // tuner sees the censored runtime, and usage metrics accrue only up to
    // the kill.
    let kill_at = 2.0 * manual.runtime_s;
    for t in 1..=budget as u64 {
        let ds = task.datasize.size_at(t);
        let ctx = vec![ds / task.datasize.base_gb.max(1e-9)];
        let cfg = tuner.suggest(&ctx).expect("suggest/observe alternation");
        let mut r = job.run_with_datasize(&cfg, ds, t);
        if r.runtime_s > kill_at {
            let scale = kill_at / r.runtime_s;
            r.memory_gb_h *= scale;
            r.cpu_core_h *= scale;
            // Censored at the kill boundary — still observed as infeasible.
            r.runtime_s = kill_at * 1.001;
        }
        let cost = r.runtime_s * r.resource;
        let obj = objective.eval(r.runtime_s, r.resource);
        let feasible = r.runtime_s <= kill_at && r.resource <= 2.0 * manual.resource;
        if feasible && obj < best.0 {
            best = (
                obj,
                t as usize,
                (r.memory_gb_h, r.cpu_core_h, r.runtime_s, cost),
                executor_params(&cfg),
            );
        }
        best_cost = best_cost.min(if feasible { cost } else { f64::INFINITY });
        curve.push(best_cost);
        under.push((r.memory_gb_h, r.cpu_core_h, r.runtime_s, cost));
        tuner
            .observe(cfg, r.runtime_s, r.resource, &ctx)
            .expect("pending suggestion");
    }
    let avg4 = |v: &[Metrics4]| {
        let n = v.len().max(1) as f64;
        v.iter().fold((0.0, 0.0, 0.0, 0.0), |a, x| {
            (a.0 + x.0 / n, a.1 + x.1 / n, a.2 + x.2 / n, a.3 + x.3 / n)
        })
    };

    ProdOutcome {
        name: task.name.clone(),
        pre,
        under: avg4(&under),
        post: best.2,
        best_cost_curve: curve,
        best_iteration: best.1,
        best_executors: best.3,
    }
}

/// The runhistory a production tuning run visits (same protocol as
/// [`tune_production_task`], returning the observations instead of the
/// outcome summary) — the input for tuning-history fANOVA (Table 5).
pub fn production_history(
    task: &otune_sparksim::ProductionTask,
    budget: usize,
    seed: u64,
) -> Vec<otune_bo::Observation> {
    use otune_core::{OnlineTuner, TunerOptions};
    let job = task.job();
    let manual = job.run_with_datasize(&task.manual_config, task.datasize.size_at(0), 0);
    let mut tuner = OnlineTuner::new(
        task.space(),
        TunerOptions {
            beta: 0.5,
            t_max: Some(2.0 * manual.runtime_s),
            r_max: Some(2.0 * manual.resource),
            budget,
            enable_meta: false,
            seed,
            ..TunerOptions::default()
        },
    );
    tuner.seed_observation(
        task.manual_config.clone(),
        manual.runtime_s,
        manual.resource,
        &[1.0],
    );
    for t in 1..=budget as u64 {
        let ds = task.datasize.size_at(t);
        let ctx = vec![ds / task.datasize.base_gb.max(1e-9)];
        let cfg = tuner.suggest(&ctx).expect("protocol");
        let r = job.run_with_datasize(&cfg, ds, t);
        tuner
            .observe(cfg, r.runtime_s, r.resource, &ctx)
            .expect("pending");
    }
    tuner.history().to_vec()
}

fn executor_params(c: &otune_space::Configuration) -> (i64, i64, i64) {
    use otune_space::SparkParam as P;
    (
        c[P::ExecutorInstances.index()].as_int().unwrap_or(0),
        c[P::ExecutorCores.index()].as_int().unwrap_or(0),
        c[P::ExecutorMemory.index()].as_int().unwrap_or(0),
    )
}

/// Run the Figure-2 protocol over `n_tasks` generated production tasks in
/// parallel. A pioneer phase tunes the first tasks cold; the executor
/// scaling their best configs discovered (relative to manual) seeds
/// warm-start configurations for the remaining tasks — the stand-in for
/// the cross-task meta-learning the production service applies in its
/// first 3 iterations.
pub fn production_sweep(n_tasks: usize, budget: usize, seed: u64) -> Vec<ProdOutcome> {
    use otune_space::{ParamValue, SparkParam as P};

    let generator = otune_sparksim::ProductionTaskGenerator::new(seed);
    let tasks = generator.generate(n_tasks);
    let n_pioneers = (n_tasks / 10).clamp(1, 40).min(n_tasks);

    // Phase 1: pioneers, tuned cold (parallel).
    let pool = Pool::from_env();
    let pioneer_outcomes = pool.map(&tasks[..n_pioneers], |_, task| {
        tune_production_task(task, budget, vec![], seed ^ task.id)
    });

    // Learn the median executor scaling from the pioneers.
    let mut inst_ratio = Vec::new();
    let mut mem_ratio = Vec::new();
    for (task, out) in tasks[..n_pioneers].iter().zip(&pioneer_outcomes) {
        let manual = executor_params(&task.manual_config);
        if manual.0 > 0 && out.best_executors.0 > 0 {
            inst_ratio.push(out.best_executors.0 as f64 / manual.0 as f64);
            mem_ratio.push(out.best_executors.2 as f64 / manual.2 as f64);
        }
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        if v.is_empty() {
            return 0.5;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v[v.len() / 2]
    };
    let med_inst = median(&mut inst_ratio).clamp(0.05, 1.5);
    let med_mem = median(&mut mem_ratio).clamp(0.05, 1.5);

    // Phase 2: the rest, warm-started with scaled manual configs.
    let rest_outcomes = pool.map(&tasks[n_pioneers..], |_, task| {
        let space = task.space();
        let manual = executor_params(&task.manual_config);
        let scale_cfg = |fi: f64, fm: f64| {
            let mut c = task.manual_config.clone();
            c.set(
                P::ExecutorInstances.index(),
                ParamValue::Int(((manual.0 as f64 * fi).round() as i64).clamp(1, 800)),
            );
            c.set(
                P::ExecutorMemory.index(),
                ParamValue::Int(((manual.2 as f64 * fm).round() as i64).clamp(1, 32)),
            );
            space.validate(&c).map(|_| c).ok()
        };
        let warm: Vec<otune_space::Configuration> = [
            scale_cfg(med_inst, med_mem),
            scale_cfg((med_inst * 0.5).max(0.05), (med_mem * 0.5).max(0.05)),
            scale_cfg((med_inst * 1.5).min(1.2), 1.0),
        ]
        .into_iter()
        .flatten()
        .collect();
        tune_production_task(task, budget, warm, seed ^ task.id)
    });

    pioneer_outcomes.into_iter().chain(rest_outcomes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_method_runs_one_iteration() {
        let setup = hibench_setup(HibenchTask::WordCount, 1.0, 2);
        for m in METHODS {
            let trace = run_method(m, &setup, 1);
            assert_eq!(trace.objectives.len(), 2, "{m}");
        }
    }

    #[test]
    fn production_task_tuning_reduces_cost() {
        let gen = otune_sparksim::ProductionTaskGenerator::new(3);
        let task = gen.generate_one(0);
        let out = tune_production_task(&task, 8, vec![], 1);
        assert_eq!(out.best_cost_curve.len(), 8);
        assert!(
            out.post.3 <= out.pre.3,
            "post {} vs pre {}",
            out.post.3,
            out.pre.3
        );
        assert!(out.best_iteration <= 8);
    }

    #[test]
    fn task_record_has_features_and_history() {
        let rec = task_record_for(HibenchTask::WordCount, 5, 1);
        assert_eq!(rec.observations.len(), 5);
        assert_eq!(rec.meta_features.len(), otune_meta::META_FEATURE_COUNT);
    }

    #[test]
    fn setup_threshold_is_double_default() {
        let setup = hibench_setup(HibenchTask::Sort, 0.5, 1);
        let default_rt = setup
            .job
            .clone()
            .with_noise(0.0)
            .run(&setup.space.default_configuration(), 0)
            .runtime_s;
        assert!((setup.t_max.unwrap() - 2.0 * default_rt).abs() < 1e-9);
    }
}
