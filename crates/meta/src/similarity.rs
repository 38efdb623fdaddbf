//! The learned task-similarity model `M_reg` (§5.1).
//!
//! Training data: for every pair of historical tasks `(i, j)`, the input is
//! the concatenation of their meta-feature vectors and the label is the
//! Kendall-τ surrogate distance. A GBDT regressor learns the mapping so
//! the distance of a *new* task — which has meta-features from its first
//! run but no tuning history yet — can be predicted against all previous
//! tasks.

use crate::distance::DistanceSample;
use crate::ensemble::BaseTask;
use crate::shared::SharedMetaStore;
use otune_bo::{fit_surrogate, Observation, SurrogateInput};
use otune_gbdt::{GbdtConfig, GbdtRegressor};
use otune_gp::{GaussianProcess, GpConfig};
use otune_pool::Pool;
use otune_space::ConfigSpace;
use otune_telemetry::Telemetry;
use std::sync::Arc;

/// A previous tuning task — its meta-features and runhistory — as a
/// meta-learning source.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Stable identifier (workload name + owner, in the real service).
    pub task_id: String,
    /// Meta-features from the task's event logs.
    pub meta_features: Vec<f64>,
    /// The task's runhistory.
    pub observations: Vec<Observation>,
}

impl TaskRecord {
    /// Best (lowest-objective) observations, up to `k`, sorted ascending.
    pub fn top_configs(&self, k: usize) -> Vec<&Observation> {
        let mut sorted: Vec<&Observation> = self.observations.iter().collect();
        sorted.sort_by(|a, b| {
            a.objective
                .partial_cmp(&b.objective)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted.truncate(k);
        sorted
    }

    /// Fit a configuration-only surrogate on this task's history (context
    /// stripped so surrogates of different tasks share an input space),
    /// searching its hyperparameters on `pool`.
    pub fn surrogate(
        &self,
        space: &ConfigSpace,
        seed: u64,
        pool: &Pool,
    ) -> Option<GaussianProcess> {
        if self.observations.len() < 3 {
            return None;
        }
        let stripped: Vec<Observation> = self
            .observations
            .iter()
            .map(|o| Observation {
                context: vec![],
                ..o.clone()
            })
            .collect();
        let cfg = GpConfig {
            seed,
            ..GpConfig::default()
        };
        fit_surrogate(
            space,
            &stripped,
            SurrogateInput::Objective,
            cfg,
            pool,
            &Telemetry::disabled(),
        )
        .ok()
    }
}

/// The trained similarity model.
#[derive(Debug)]
pub struct SimilarityLearner {
    model: GbdtRegressor,
    feature_dim: usize,
}

impl SimilarityLearner {
    /// Train `M_reg` from historical task records, reading base
    /// surrogates from `store` (fitted on `pool` at most once per task
    /// history) and memoizing pairwise distances there by history
    /// fingerprint, so a scheduled refit only pays for pairs it has never
    /// labeled. Fits and labels are pure functions of their keyed inputs,
    /// so the model does not depend on what the store held.
    ///
    /// Needs at least two tasks with ≥ 3 observations each. `n_sample`
    /// configurations are used for each pairwise Kendall-τ label.
    pub fn train(
        space: &ConfigSpace,
        tasks: &[TaskRecord],
        n_sample: usize,
        seed: u64,
        store: &SharedMetaStore,
        pool: &Pool,
        telemetry: &Telemetry,
    ) -> Option<Self> {
        let sample = DistanceSample::new(space, n_sample, seed);
        let fitted: Vec<(&TaskRecord, u64, Arc<GaussianProcess>)> = tasks
            .iter()
            .filter_map(|t| {
                let task = BaseTask::from_record(space, t);
                let (gp, _) = store.base_surrogate(space, &task, seed, pool, telemetry);
                gp.map(|gp| (t, task.fingerprint(), gp))
            })
            .collect();
        if fitted.len() < 2 {
            return None;
        }
        let feature_dim = fitted[0].0.meta_features.len();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (a_idx, (ta, fa, sa)) in fitted.iter().enumerate() {
            for (tb, fb, sb) in &fitted[a_idx + 1..] {
                let d = store.memo_distance((*fa, sa), (*fb, sb), seed, &sample, telemetry);
                // Symmetric pair: train on both orderings.
                let mut fwd = ta.meta_features.clone();
                fwd.extend_from_slice(&tb.meta_features);
                x.push(fwd);
                y.push(d);
                let mut rev = tb.meta_features.clone();
                rev.extend_from_slice(&ta.meta_features);
                x.push(rev);
                y.push(d);
            }
        }
        let model = GbdtRegressor::fit(
            &x,
            &y,
            GbdtConfig {
                n_rounds: 80,
                seed,
                ..GbdtConfig::default()
            },
        )
        .ok()?;
        Some(SimilarityLearner { model, feature_dim })
    }

    /// Predicted distance between two tasks' meta-features, clamped to
    /// `[0, 1]` (smaller = more similar).
    pub fn predict(&self, v1: &[f64], v2: &[f64]) -> f64 {
        debug_assert_eq!(v1.len(), self.feature_dim);
        debug_assert_eq!(v2.len(), self.feature_dim);
        let mut x = v1.to_vec();
        x.extend_from_slice(v2);
        self.model.predict(&x).clamp(0.0, 1.0)
    }

    /// Rank task records by predicted similarity to `target` meta-features
    /// (most similar first), returning `(index, predicted distance)`.
    pub fn rank_tasks(&self, target: &[f64], tasks: &[TaskRecord]) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (i, self.predict(target, &t.meta_features)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{ConfigSpace, Parameter};
    use rand::{rngs::StdRng, SeedableRng};

    /// [`SimilarityLearner::train`] on a fresh store, on the
    /// environment's pool, untraced.
    fn train(
        space: &ConfigSpace,
        tasks: &[TaskRecord],
        n_sample: usize,
        seed: u64,
    ) -> Option<SimilarityLearner> {
        let store = SharedMetaStore::new();
        let tm = Telemetry::disabled();
        SimilarityLearner::train(space, tasks, n_sample, seed, &store, &Pool::from_env(), &tm)
    }

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::float("a", 0.0, 1.0, 0.5),
            Parameter::float("b", 0.0, 1.0, 0.5),
        ])
    }

    /// Build a task whose objective is `sign·(10a) + b` and whose
    /// meta-features are a noisy copy of `(sign, bias)`.
    fn task(space: &ConfigSpace, id: &str, sign: f64, bias: f64, seed: u64) -> TaskRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        let observations: Vec<Observation> = space
            .sample_n(15, &mut rng)
            .into_iter()
            .map(|config| {
                let a = config[0].as_float().unwrap();
                let b = config[1].as_float().unwrap();
                let v = sign * 10.0 * a + b + bias;
                Observation {
                    failed: false,
                    config,
                    objective: v,
                    runtime: v.abs() + 1.0,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect();
        TaskRecord {
            task_id: id.to_string(),
            meta_features: vec![sign, bias, sign * bias, 1.0],
            observations,
        }
    }

    #[test]
    fn learns_that_same_sign_tasks_are_similar() {
        let s = space();
        let tasks = vec![
            task(&s, "up1", 1.0, 0.0, 1),
            task(&s, "up2", 1.0, 0.5, 2),
            task(&s, "up3", 1.0, 1.0, 3),
            task(&s, "down1", -1.0, 0.0, 4),
            task(&s, "down2", -1.0, 0.5, 5),
            task(&s, "down3", -1.0, 1.0, 6),
        ];
        let learner = train(&s, &tasks, 40, 0).unwrap();
        let new_up = vec![1.0, 0.25, 0.25, 1.0];
        let d_up = learner.predict(&new_up, &tasks[0].meta_features);
        let d_down = learner.predict(&new_up, &tasks[3].meta_features);
        assert!(d_up < d_down, "{d_up} !< {d_down}");
        let ranking = learner.rank_tasks(&new_up, &tasks);
        let top3: Vec<&str> = ranking[..3]
            .iter()
            .map(|(i, _)| tasks[*i].task_id.as_str())
            .collect();
        assert!(
            top3.iter().all(|id| id.starts_with("up")),
            "top-3 are ascending tasks: {top3:?}"
        );
    }

    /// A refit served entirely from the memo gives the model a fresh
    /// store trains, and pays for no fit or label twice.
    #[test]
    fn store_backed_training_matches_direct_training_bitwise() {
        let s = space();
        let tasks = vec![
            task(&s, "a", 1.0, 0.0, 1),
            task(&s, "b", 1.0, 0.5, 2),
            task(&s, "c", -1.0, 0.0, 3),
        ];
        let direct = train(&s, &tasks, 30, 0).unwrap();
        let store = SharedMetaStore::new();
        let (pool, tm) = (Pool::from_env(), Telemetry::disabled());
        SimilarityLearner::train(&s, &tasks, 30, 0, &store, &pool, &tm).unwrap();
        assert_eq!(store.n_distances(), 3);
        let memo = SimilarityLearner::train(&s, &tasks, 30, 0, &store, &pool, &tm).unwrap();
        assert_eq!(store.n_distances(), 3);
        assert_eq!(store.n_bases(), 3);
        let probe = [
            (vec![1.0, 0.2, 0.2, 1.0], vec![-1.0, 0.3, -0.3, 1.0]),
            (vec![0.5, 0.5, 0.25, 1.0], vec![1.0, 0.0, 0.0, 1.0]),
        ];
        for (u, v) in &probe {
            assert_eq!(direct.predict(u, v).to_bits(), memo.predict(u, v).to_bits());
        }
    }

    #[test]
    fn training_requires_multiple_tasks() {
        let s = space();
        assert!(train(&s, &[], 20, 0).is_none());
        let one = vec![task(&s, "solo", 1.0, 0.0, 9)];
        assert!(train(&s, &one, 20, 0).is_none());
    }

    #[test]
    fn top_configs_sorted_ascending() {
        let s = space();
        let t = task(&s, "t", 1.0, 0.0, 11);
        let top = t.top_configs(3);
        assert_eq!(top.len(), 3);
        assert!(top[0].objective <= top[1].objective);
        assert!(top[1].objective <= top[2].objective);
    }

    #[test]
    fn surrogate_requires_min_history() {
        let s = space();
        let mut t = task(&s, "t", 1.0, 0.0, 12);
        t.observations.truncate(2);
        assert!(t.surrogate(&s, 0, &Pool::from_env()).is_none());
    }

    #[test]
    fn predictions_are_clamped() {
        let s = space();
        let tasks = vec![task(&s, "a", 1.0, 0.0, 1), task(&s, "b", -1.0, 0.0, 2)];
        let learner = train(&s, &tasks, 30, 0).unwrap();
        let wild = vec![100.0, -100.0, 50.0, 1.0];
        let d = learner.predict(&wild, &tasks[0].meta_features);
        assert!((0.0..=1.0).contains(&d));
    }
}
