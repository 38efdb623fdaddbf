//! The meta-learning surrogate ensemble `M_meta` (§5.2, Eq. 12).
//!
//! `μ_meta(x) = Σᵢ wᵢ μᵢ(x)` and `σ²_meta(x) = Σᵢ wᵢ² σᵢ²(x)` over base
//! surrogates from previous tasks plus the target task's own surrogate.
//! Base weights are `1 − Dist(Mⁱ, Mᵗ)` (Kendall-τ distance); the target
//! surrogate's weight comes from a progressive-validation rank agreement
//! (each point predicted by a model fitted on the points before it — the
//! memoizable analogue of Feurer et al.'s leave-one-out strategy), so it
//! grows as the target history becomes informative. All weights are
//! normalized to sum to 1.
//!
//! Because predictions are combined across *tasks*, every member surrogate
//! is fitted configuration-only (per-task targets are standardized by the
//! GP, which puts different tasks' objective scales on common footing).

use crate::cache::MetaCache;
use crate::distance::surrogate_distance;
use crate::similarity::TaskRecord;
use otune_bo::Observation;
use otune_gp::{GaussianProcess, IncrementalPolicy};
use otune_space::ConfigSpace;
use otune_telemetry::Telemetry;
use std::sync::Arc;

/// A weighted ensemble of task surrogates implementing Eq. 12.
///
/// Members are mixed in *standardized* space — each member's predictions
/// are z-scored by its own task's objective statistics before weighting
/// (Feurer et al.'s scaling), and the mixture is mapped back to the target
/// task's scale — otherwise tasks with different objective magnitudes
/// would bias the mean toward their own levels.
#[derive(Debug)]
pub struct EnsembleSurrogate {
    /// (surrogate, weight, member's target mean, member's target std).
    members: Vec<(Arc<GaussianProcess>, f64, f64, f64)>,
    /// Output scale: the target task's objective statistics.
    target_scale: (f64, f64),
}

impl EnsembleSurrogate {
    /// Build the ensemble from previous-task records and the target task's
    /// runhistory. Returns `None` when neither any base task nor the target
    /// has enough history for a surrogate.
    ///
    /// Convenience wrapper over [`Self::build_cached`] with a throwaway
    /// cache — every member is fitted from scratch.
    pub fn build(
        space: &ConfigSpace,
        base_tasks: &[TaskRecord],
        target_obs: &[Observation],
        n_sample: usize,
        seed: u64,
    ) -> Option<Self> {
        let mut cache = MetaCache::new(IncrementalPolicy::default());
        Self::build_cached(
            space,
            base_tasks,
            target_obs,
            n_sample,
            seed,
            &mut cache,
            &Telemetry::disabled(),
        )
    }

    /// [`Self::build`] with persistent caches: frozen base-task surrogates
    /// are fitted once per distinct history, the target surrogate is
    /// extended incrementally while the runhistory only grows, and the
    /// target-weight validation folds are memoized.
    pub fn build_cached(
        space: &ConfigSpace,
        base_tasks: &[TaskRecord],
        target_obs: &[Observation],
        n_sample: usize,
        seed: u64,
        cache: &mut MetaCache,
        telemetry: &Telemetry,
    ) -> Option<Self> {
        let _trace = telemetry.trace_span("meta_ensemble");
        let stats = |obs: &[Observation]| -> (f64, f64) {
            let ys: Vec<f64> = obs.iter().map(|o| o.objective).collect();
            let mean = otune_linalg_mean(&ys);
            let sd = otune_linalg_std(&ys).max(1e-9);
            (mean, sd)
        };
        let bases: Vec<(Arc<GaussianProcess>, f64, f64)> = base_tasks
            .iter()
            .filter_map(|t| cache.base_surrogate(space, t, seed, telemetry))
            .collect();

        // Member surrogates are configuration-only, so strip contexts once.
        let stripped: Vec<Observation> = target_obs
            .iter()
            .map(|o| Observation {
                context: vec![],
                ..o.clone()
            })
            .collect();
        let target = cache.target_surrogate(space, &stripped, seed, telemetry);
        let target_scale = if target_obs.len() >= 2 {
            stats(target_obs)
        } else if let Some(t) = base_tasks.first() {
            stats(&t.observations)
        } else {
            (0.0, 1.0)
        };

        let mut members: Vec<(Arc<GaussianProcess>, f64, f64, f64)> = Vec::new();
        match &target {
            Some(tgt) => {
                for (base, m, sd) in bases {
                    let d = surrogate_distance(space, &base, tgt, n_sample, seed);
                    members.push((base, (1.0 - d).max(0.0), m, sd));
                }
            }
            None => {
                // No target model yet: uniform trust in the bases.
                for (base, m, sd) in bases {
                    members.push((base, 1.0, m, sd));
                }
            }
        }
        // Keep only the most similar bases (the top-3 spirit of §5.2):
        // mixing many weakly-related surrogates collapses the ensemble
        // variance (Σ wᵢ²σᵢ²) and starves exploration.
        members.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        members.truncate(3);
        if let Some(tgt) = target {
            let w = cache.target_weight(space, &stripped, seed, telemetry);
            members.push((tgt, w, target_scale.0, target_scale.1));
        }
        if members.is_empty() {
            return None;
        }
        let total: f64 = members.iter().map(|(_, w, _, _)| w).sum();
        if total <= 1e-12 {
            let uniform = 1.0 / members.len() as f64;
            for m in &mut members {
                m.1 = uniform;
            }
        } else {
            for m in &mut members {
                m.1 /= total;
            }
        }
        Some(EnsembleSurrogate {
            members,
            target_scale,
        })
    }

    /// Number of member surrogates.
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// Normalized member weights.
    pub fn weights(&self) -> Vec<f64> {
        self.members.iter().map(|(_, w, _, _)| *w).collect()
    }

    /// Ensemble prediction at an encoded configuration (Eq. 12). Member
    /// predictions are standardized per member before mixing so tasks with
    /// different objective scales contribute comparably.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        otune_bo::Predictor::predict(self, x)
    }
}

impl otune_bo::Predictor for EnsembleSurrogate {
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        let mut mean_z = 0.0;
        let mut var_z = 0.0;
        for (gp, w, mu, sd) in &self.members {
            let (m, v) = gp.predict(x);
            mean_z += w * (m - mu) / sd;
            var_z += w * w * v / (sd * sd);
        }
        let (mu_t, sd_t) = self.target_scale;
        (mean_z * sd_t + mu_t, (var_z * sd_t * sd_t).max(1e-12))
    }

    /// Batched Eq. 12: each member predicts all points through its batched
    /// GP path, and the mixture is accumulated per point in member order —
    /// the same arithmetic sequence as the scalar path, so results match
    /// per-point `predict` calls exactly for every pool width.
    fn predict_many(&self, xs: otune_gp::Rows<'_>, pool: &otune_pool::Pool) -> Vec<(f64, f64)> {
        let m = xs.len();
        let mut mean_z = vec![0.0; m];
        let mut var_z = vec![0.0; m];
        for (gp, w, mu, sd) in &self.members {
            let preds = gp.predict_batch_pooled(xs, pool);
            for (j, (pm, pv)) in preds.into_iter().enumerate() {
                mean_z[j] += w * (pm - mu) / sd;
                var_z[j] += w * w * pv / (sd * sd);
            }
        }
        let (mu_t, sd_t) = self.target_scale;
        mean_z
            .into_iter()
            .zip(var_z)
            .map(|(mz, vz)| (mz * sd_t + mu_t, (vz * sd_t * sd_t).max(1e-12)))
            .collect()
    }
}

pub(crate) fn otune_linalg_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub(crate) fn otune_linalg_std(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 1.0;
    }
    let m = otune_linalg_mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{ConfigSpace, Parameter};
    use rand::{rngs::StdRng, SeedableRng};

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![Parameter::float("a", 0.0, 1.0, 0.5)])
    }

    fn record<F: Fn(f64) -> f64>(
        space: &ConfigSpace,
        id: &str,
        n: usize,
        seed: u64,
        f: F,
    ) -> TaskRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        let observations: Vec<Observation> = space
            .sample_n(n, &mut rng)
            .into_iter()
            .map(|config| {
                let v = f(config[0].as_float().unwrap());
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
            task_id: id.into(),
            meta_features: vec![0.0],
            observations,
        }
    }

    /// Target function shared by the "helpful" base tasks: min at a = 0.3.
    fn target_fn(a: f64) -> f64 {
        (a - 0.3) * (a - 0.3) * 20.0
    }

    #[test]
    fn ensemble_with_aligned_bases_predicts_target_shape_early() {
        let s = space();
        let bases = vec![
            record(&s, "b1", 20, 1, |a| target_fn(a) * 1.2 + 3.0),
            record(&s, "b2", 20, 2, |a| target_fn(a) * 0.8),
        ];
        // Only two target observations — no target surrogate possible.
        let target = record(&s, "t", 2, 3, target_fn).observations;
        let ens = EnsembleSurrogate::build(&s, &bases, &target, 40, 0).unwrap();
        assert_eq!(ens.n_members(), 2);
        // The ensemble should rank the optimum basin below the edges.
        let (at_opt, _) = ens.predict(&[0.3]);
        let (at_edge, _) = ens.predict(&[0.95]);
        assert!(at_opt < at_edge, "{at_opt} !< {at_edge}");
    }

    #[test]
    fn misleading_bases_get_downweighted_once_target_data_exists() {
        let s = space();
        let bases = vec![
            record(&s, "good", 20, 1, |a| target_fn(a) + 1.0),
            record(&s, "bad", 20, 2, |a| -target_fn(a)), // reversed landscape
        ];
        let target = record(&s, "t", 12, 3, target_fn).observations;
        let ens = EnsembleSurrogate::build(&s, &bases, &target, 60, 0).unwrap();
        let w = ens.weights();
        assert_eq!(ens.n_members(), 3);
        assert!(w[0] > w[1], "aligned base outweighs reversed base: {w:?}");
    }

    #[test]
    fn weights_are_normalized() {
        let s = space();
        let bases = vec![
            record(&s, "b1", 15, 1, |a| a),
            record(&s, "b2", 15, 2, |a| a * 2.0),
        ];
        let target = record(&s, "t", 8, 3, |a| a).observations;
        let ens = EnsembleSurrogate::build(&s, &bases, &target, 40, 0).unwrap();
        let sum: f64 = ens.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
    }

    #[test]
    fn no_history_anywhere_returns_none() {
        let s = space();
        assert!(EnsembleSurrogate::build(&s, &[], &[], 20, 0).is_none());
        let tiny = record(&s, "tiny", 2, 5, |a| a);
        assert!(EnsembleSurrogate::build(&s, &[tiny], &[], 20, 0).is_none());
    }

    #[test]
    fn target_only_ensemble_works() {
        let s = space();
        let target = record(&s, "t", 10, 3, target_fn).observations;
        let ens = EnsembleSurrogate::build(&s, &[], &target, 20, 0).unwrap();
        assert_eq!(ens.n_members(), 1);
        assert!((ens.weights()[0] - 1.0).abs() < 1e-9);
        let (at_opt, _) = ens.predict(&[0.3]);
        let (at_edge, _) = ens.predict(&[0.95]);
        assert!(at_opt < at_edge);
    }

    #[test]
    fn batched_prediction_matches_scalar() {
        let s = space();
        let bases = vec![
            record(&s, "b1", 20, 1, |a| target_fn(a) * 1.1),
            record(&s, "b2", 20, 2, |a| target_fn(a) + 2.0),
        ];
        let target = record(&s, "t", 10, 3, target_fn).observations;
        let ens = EnsembleSurrogate::build(&s, &bases, &target, 40, 0).unwrap();
        let xs: Vec<f64> = (0..64).map(|i| i as f64 / 63.0).collect();
        let rows = otune_gp::Rows::new(&xs, 1);
        for width in [1, 4] {
            let batch =
                otune_bo::Predictor::predict_many(&ens, rows, &otune_pool::Pool::new(width));
            for (x, &(bm, bv)) in rows.iter().zip(&batch) {
                let (sm, sv) = ens.predict(x);
                assert_eq!(bm.to_bits(), sm.to_bits(), "width {width}");
                assert_eq!(bv.to_bits(), sv.to_bits(), "width {width}");
            }
        }
    }

    #[test]
    fn variance_is_positive() {
        let s = space();
        let bases = vec![record(&s, "b", 12, 1, |a| a)];
        let target = record(&s, "t", 5, 2, |a| a).observations;
        let ens = EnsembleSurrogate::build(&s, &bases, &target, 20, 0).unwrap();
        for i in 0..10 {
            let (_, v) = ens.predict(&[i as f64 / 9.0]);
            assert!(v > 0.0);
        }
    }
}
