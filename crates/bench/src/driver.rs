//! The tuning-loop driver: evaluate a strategy against a simulated job.

use otune_baselines::Tuner;
use otune_bo::{within_constraints, Observation};
use otune_core::{Objective, OnlineTuner, TunerOptions};
use otune_space::{ConfigSpace, Configuration};
use otune_sparksim::{DataSizeModel, SimJob};

/// A tuning experiment: job, space, objective, constraint, budget.
#[derive(Clone)]
pub struct TuningSetup {
    /// The simulated job under tuning.
    pub job: SimJob,
    /// The configuration space.
    pub space: ConfigSpace,
    /// Objective exponent β.
    pub beta: f64,
    /// Runtime threshold (the paper: 2× the default config's runtime).
    pub t_max: Option<f64>,
    /// Iteration budget.
    pub budget: usize,
    /// Data-size drift (None = the workload's constant baseline size).
    pub datasize: Option<DataSizeModel>,
}

impl TuningSetup {
    /// Normalized data-size context for the surrogates at period `t`:
    /// size scaled by the workload baseline.
    fn context(&self, t: u64) -> Vec<f64> {
        match &self.datasize {
            Some(m) => vec![m.size_at(t) / m.base_gb.max(1e-9)],
            None => vec![],
        }
    }

    fn size_at(&self, t: u64) -> f64 {
        match &self.datasize {
            Some(m) => m.size_at(t),
            None => self.job.workload().input_gb,
        }
    }
}

/// Per-iteration record of one tuning run.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Objective per evaluated configuration (Eq. 1 with the setup's β).
    pub objectives: Vec<f64>,
    /// Runtime per configuration (seconds).
    pub runtimes: Vec<f64>,
    /// Analytic resource per configuration.
    pub resources: Vec<f64>,
    /// Memory usage (GB·h) per configuration.
    pub memory_gb_h: Vec<f64>,
    /// CPU usage (core·h) per configuration.
    pub cpu_core_h: Vec<f64>,
    /// Whether each configuration satisfied the runtime constraint.
    pub feasible: Vec<bool>,
}

impl RunTrace {
    /// Index of the best feasible iteration within the whole run.
    pub fn best_index(&self) -> usize {
        let mut best = 0;
        let mut best_val = f64::INFINITY;
        for i in 0..self.objectives.len() {
            let penalized = if self.feasible[i] {
                self.objectives[i]
            } else {
                f64::INFINITY
            };
            if penalized < best_val {
                best_val = penalized;
                best = i;
            }
        }
        if best_val.is_finite() {
            best
        } else {
            // Nothing feasible: fall back to raw best.
            (0..self.objectives.len())
                .min_by(|&a, &b| {
                    self.objectives[a]
                        .partial_cmp(&self.objectives[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0)
        }
    }

    /// Fraction of iterations violating the constraint.
    pub fn infeasible_ratio(&self) -> f64 {
        if self.feasible.is_empty() {
            return 0.0;
        }
        self.feasible.iter().filter(|f| !**f).count() as f64 / self.feasible.len() as f64
    }
}

/// Drive `otune`'s [`OnlineTuner`] for the setup's budget. Returns the
/// trace; `options` lets callers toggle ablations (safety, sub-space, AGD,
/// meta) while `setup` fixes the workload and objective.
pub fn run_otune(setup: &TuningSetup, mut options: TunerOptions, seed: u64) -> RunTrace {
    options.beta = setup.beta;
    options.t_max = setup.t_max;
    options.budget = setup.budget;
    options.seed = seed;
    let mut tuner = OnlineTuner::new(setup.space.clone(), options);
    let mut trace = RunTrace::default();
    for t in 0..setup.budget as u64 {
        let ctx = setup.context(t);
        let cfg = tuner
            .suggest(&ctx)
            .expect("driver alternates suggest/observe");
        let result = setup
            .job
            .run_with_datasize(&cfg, setup.size_at(t), seed * 1000 + t);
        record(
            &mut trace,
            setup,
            result.runtime_s,
            result.resource,
            &result,
        );
        tuner
            .observe(cfg, result.runtime_s, result.resource, &ctx)
            .expect("suggestion pending");
    }
    trace
}

/// Drive a baseline [`Tuner`] for the setup's budget.
pub fn run_baseline(setup: &TuningSetup, tuner: &mut dyn Tuner, seed: u64) -> RunTrace {
    let objective = Objective::new(setup.beta);
    let mut history: Vec<Observation> = Vec::new();
    let mut trace = RunTrace::default();
    for t in 0..setup.budget as u64 {
        let ctx = setup.context(t);
        let cfg: Configuration = tuner.suggest(&history, &ctx);
        let result = setup
            .job
            .run_with_datasize(&cfg, setup.size_at(t), seed * 1000 + t);
        record(
            &mut trace,
            setup,
            result.runtime_s,
            result.resource,
            &result,
        );
        history.push(Observation {
            failed: false,
            config: cfg,
            objective: objective.eval(result.runtime_s, result.resource),
            runtime: result.runtime_s,
            resource: result.resource,
            context: ctx,
        });
    }
    trace
}

fn record(
    trace: &mut RunTrace,
    setup: &TuningSetup,
    runtime: f64,
    resource: f64,
    result: &otune_sparksim::ExecutionResult,
) {
    let objective = Objective::new(setup.beta).eval(runtime, resource);
    trace.objectives.push(objective);
    trace.runtimes.push(runtime);
    trace.resources.push(resource);
    trace.memory_gb_h.push(result.memory_gb_h);
    trace.cpu_core_h.push(result.cpu_core_h);
    trace
        .feasible
        .push(within_constraints(runtime, resource, setup.t_max, None));
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_baselines::RandomSearch;
    use otune_space::{spark_space, ClusterScale};
    use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask};

    fn setup(budget: usize) -> TuningSetup {
        let space = spark_space(ClusterScale::hibench());
        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount))
            .with_noise(0.0);
        let default_rt = job.run(&space.default_configuration(), 0).runtime_s;
        TuningSetup {
            job,
            space,
            beta: 0.5,
            t_max: Some(default_rt * 2.0),
            budget,
            datasize: None,
        }
    }

    #[test]
    fn baseline_trace_has_budget_length() {
        let s = setup(6);
        let mut rs = RandomSearch::new(s.space.clone(), 1);
        let trace = run_baseline(&s, &mut rs, 1);
        assert_eq!(trace.objectives.len(), 6);
        assert_eq!(trace.feasible.len(), 6);
        assert!(trace.objectives.iter().all(|o| o.is_finite()));
    }

    #[test]
    fn otune_trace_improves_on_average() {
        let s = setup(10);
        let trace = run_otune(&s, TunerOptions::default(), 2);
        assert_eq!(trace.objectives.len(), 10);
        let best = trace
            .objectives
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(best <= trace.objectives[0]);
    }

    #[test]
    fn best_index_prefers_feasible() {
        let trace = RunTrace {
            objectives: vec![5.0, 1.0, 3.0],
            runtimes: vec![1.0; 3],
            resources: vec![1.0; 3],
            memory_gb_h: vec![0.0; 3],
            cpu_core_h: vec![0.0; 3],
            feasible: vec![true, false, true],
        };
        assert_eq!(trace.best_index(), 2);
        assert_eq!(trace.infeasible_ratio(), 1.0 / 3.0);
    }

    #[test]
    fn datasize_context_flows_through() {
        let mut s = setup(5);
        s.datasize = Some(DataSizeModel::hourly(100.0, 3));
        let trace = run_otune(&s, TunerOptions::default(), 1);
        assert_eq!(trace.objectives.len(), 5);
    }
}
