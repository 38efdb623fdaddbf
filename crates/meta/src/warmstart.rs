//! Warm-starting the initial design (§5.2).
//!
//! Instead of low-discrepancy probes, a new task's first evaluations are
//! the best configurations found on the top-3 most similar previous tasks
//! (ranked by `M_reg`). Table 4 shows why *multiple* configurations are
//! transferred: the source task's best is not always the target's best.

use crate::similarity::{SimilarityLearner, TaskRecord};
use otune_space::Configuration;
use otune_telemetry::{metric, Telemetry};

/// Initial configurations for a new task: the best configuration of each
/// of the `n_sources` most similar tasks (deduplicated, in similarity
/// order). Returns an empty vector when there is nothing to transfer.
/// Each transferred configuration increments the `warm_start_hits`
/// counter.
pub fn warm_start_configs(
    learner: &SimilarityLearner,
    target_meta: &[f64],
    tasks: &[TaskRecord],
    n_sources: usize,
    telemetry: &Telemetry,
) -> Vec<Configuration> {
    let _trace = telemetry.trace_span("warm_start");
    let ranking = learner.rank_tasks(target_meta, tasks);
    let mut out: Vec<Configuration> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (idx, _dist) in ranking.into_iter().take(n_sources) {
        for obs in tasks[idx].top_configs(1) {
            if seen.insert(obs.config.dedup_key()) {
                out.push(obs.config.clone());
            }
        }
    }
    telemetry.add(metric::WARM_START_HITS, out.len() as u64);
    out
}

/// Transfer the top-`k` configurations of one specific source task
/// (Table 4's per-source evaluation).
pub fn transfer_top_k(source: &TaskRecord, k: usize) -> Vec<Configuration> {
    source
        .top_configs(k)
        .into_iter()
        .map(|o| o.config.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_bo::Observation;
    use otune_space::{ConfigSpace, ParamValue, Parameter};
    use rand::{rngs::StdRng, SeedableRng};

    /// The similarity model of `tasks`, trained on a fresh store.
    fn train(space: &ConfigSpace, tasks: &[TaskRecord]) -> SimilarityLearner {
        let store = crate::SharedMetaStore::new();
        let pool = otune_pool::Pool::from_env();
        SimilarityLearner::train(space, tasks, 40, 0, &store, &pool, &Telemetry::disabled())
            .unwrap()
    }

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::float("a", 0.0, 1.0, 0.5),
            Parameter::float("b", 0.0, 1.0, 0.5),
        ])
    }

    fn task(space: &ConfigSpace, id: &str, sign: f64, seed: u64) -> TaskRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        let observations: Vec<Observation> = space
            .sample_n(15, &mut rng)
            .into_iter()
            .map(|config| {
                let a = config[0].as_float().unwrap();
                let v = sign * 10.0 * a;
                Observation {
                    failed: false,
                    config,
                    objective: v,
                    runtime: 1.0,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect();
        TaskRecord {
            task_id: id.to_string(),
            meta_features: vec![sign, 0.0, 0.0, 1.0],
            observations,
        }
    }

    #[test]
    fn warm_start_pulls_configs_from_similar_tasks() {
        let s = space();
        let tasks = vec![
            task(&s, "up1", 1.0, 1),
            task(&s, "up2", 1.0, 2),
            task(&s, "up3", 1.0, 3),
            task(&s, "down1", -1.0, 4),
            task(&s, "down2", -1.0, 5),
            task(&s, "down3", -1.0, 6),
        ];
        let learner = train(&s, &tasks);
        // A new ascending task: transferred configs should have small `a`
        // (the minimizer of sign=+1 tasks).
        let configs = warm_start_configs(
            &learner,
            &[1.0, 0.0, 0.0, 1.0],
            &tasks,
            3,
            &Telemetry::disabled(),
        );
        assert!(!configs.is_empty() && configs.len() <= 3);
        for c in &configs {
            let a = c[0].as_float().unwrap();
            assert!(
                a < 0.5,
                "transferred config minimizes ascending tasks: a = {a}"
            );
        }
    }

    #[test]
    fn transfer_top_k_orders_by_objective() {
        let s = space();
        let t = task(&s, "t", 1.0, 7);
        let top = transfer_top_k(&t, 3);
        assert_eq!(top.len(), 3);
        // First transferred config has the smallest objective = smallest a.
        let a0 = top[0][0].as_float().unwrap();
        for c in &top[1..] {
            assert!(a0 <= c[0].as_float().unwrap() + 1e-12);
        }
    }

    #[test]
    fn deduplicates_identical_best_configs() {
        let s = space();
        let shared = s
            .configuration(vec![ParamValue::Float(0.1), ParamValue::Float(0.2)])
            .unwrap();
        let mk = |id: &str| {
            let mut t = task(&s, id, 1.0, 11);
            t.observations.push(Observation {
                failed: false,
                config: shared.clone(),
                objective: -100.0,
                runtime: 1.0,
                resource: 1.0,
                context: vec![],
            });
            t
        };
        let tasks = vec![mk("a"), mk("b"), task(&s, "c", -1.0, 12)];
        let learner = train(&s, &tasks);
        let configs = warm_start_configs(
            &learner,
            &[1.0, 0.0, 0.0, 1.0],
            &tasks,
            3,
            &Telemetry::disabled(),
        );
        let keys: std::collections::HashSet<String> =
            configs.iter().map(|c| c.dedup_key()).collect();
        assert_eq!(keys.len(), configs.len(), "no duplicate transfers");
    }
}
