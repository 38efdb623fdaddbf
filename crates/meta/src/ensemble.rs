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
//! GP, which puts different tasks' objective scales on common footing), and
//! the ensemble reads only the configuration prefix of a
//! `configuration ++ context` input row.
//!
//! A cached build pays only for what changed: base members and their
//! predictions at the Kendall-τ sample are memoized in the
//! [`MetaCache`]'s store, and the target surrogate is predicted at the
//! sample once per build, not once per base.

use crate::cache::MetaCache;
use crate::distance::prediction_distance;
use crate::similarity::TaskRecord;
use otune_bo::{history_fingerprint, Observation, SurrogateInput};
use otune_gp::GaussianProcess;
use otune_space::ConfigSpace;
use otune_telemetry::Telemetry;
use std::borrow::Cow;
use std::sync::Arc;

/// A base task as a store lookup reads it: the id and history
/// fingerprint that key the lookup, and the record itself, built only
/// when the lookup misses.
pub struct BaseTask<'a> {
    task_id: &'a str,
    fingerprint: u64,
    record: Box<dyn Fn() -> Cow<'a, TaskRecord> + 'a>,
}

impl<'a> BaseTask<'a> {
    /// A base task whose record `record()` builds on demand.
    /// `fingerprint` must be the objective [`history_fingerprint`] of that
    /// record's observations, and `task_id` its id.
    pub fn new(
        task_id: &'a str,
        fingerprint: u64,
        record: impl Fn() -> Cow<'a, TaskRecord> + 'a,
    ) -> Self {
        BaseTask {
            task_id,
            fingerprint,
            record: Box::new(record),
        }
    }

    /// A stored record used as is; its fingerprint is taken here.
    pub fn from_record(space: &ConfigSpace, record: &'a TaskRecord) -> Self {
        let fp = history_fingerprint(space, &record.observations, SurrogateInput::Objective);
        BaseTask::new(&record.task_id, fp, move || Cow::Borrowed(record))
    }

    /// The task's id.
    pub(crate) fn task_id(&self) -> &str {
        self.task_id
    }

    /// The objective history fingerprint of the task's record.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The task's record.
    pub(crate) fn record(&self) -> Cow<'a, TaskRecord> {
        (self.record)()
    }
}

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
    /// runhistory, through persistent caches: frozen base-task surrogates
    /// and their predictions at the distance sample are read from the
    /// cache's store, which computes them once per distinct history (a
    /// missed base is fitted on the cache's pool), the target surrogate is
    /// extended incrementally while the runhistory only grows, and the
    /// target-weight validation folds are memoized. The result is bitwise
    /// the build through a fresh cache. Returns `None` when neither any
    /// base task nor the target has enough history for a surrogate.
    pub fn build_cached(
        space: &ConfigSpace,
        base_tasks: &[BaseTask<'_>],
        target_obs: &[Observation],
        n_sample: usize,
        seed: u64,
        cache: &mut MetaCache,
        telemetry: &Telemetry,
    ) -> Option<Self> {
        let _trace = telemetry.trace_span("meta_ensemble");
        let mut first_stats = None;
        let mut bases: Vec<(&BaseTask<'_>, Arc<GaussianProcess>, (f64, f64))> = Vec::new();
        for task in base_tasks {
            let (gp, stats) =
                cache
                    .store()
                    .base_surrogate(space, task, seed, cache.pool(), telemetry);
            first_stats.get_or_insert(stats);
            if let Some(gp) = gp {
                bases.push((task, gp, stats));
            }
        }

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
            objective_stats(target_obs)
        } else {
            first_stats.unwrap_or((0.0, 1.0))
        };

        let mut members: Vec<(Arc<GaussianProcess>, f64, f64, f64)> = Vec::new();
        match &target {
            Some(tgt) => {
                let sample = cache.distance_sample(space, n_sample, seed);
                let target_preds = sample.predict(tgt);
                for (task, base, (m, sd)) in bases {
                    let base_preds =
                        cache
                            .store()
                            .base_predictions(task.fingerprint(), seed, &sample, &base);
                    let d = prediction_distance(&base_preds, &target_preds);
                    members.push((base, (1.0 - d).max(0.0), m, sd));
                }
            }
            None => {
                // No target model yet: uniform trust in the bases.
                for (_, base, (m, sd)) in bases {
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
    /// different objective scales contribute comparably. Context columns
    /// after the configuration are ignored.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        otune_bo::Predictor::predict(self, x)
    }
}

impl otune_bo::Predictor for EnsembleSurrogate {
    /// The member surrogates, which read the configuration prefix of an
    /// input row (their kernels span only the configuration columns).
    fn members(&self) -> Vec<&GaussianProcess> {
        self.members.iter().map(|(gp, ..)| &**gp).collect()
    }

    /// Eq. 12 over member posteriors in member order: each standardized
    /// by its member's scale and weighted, then mapped back to the target
    /// scale. The mean ignores the member variances, and the variance is
    /// a sum of non-negative multiples of them — nondecreasing in each, as
    /// the tiled EIC bound requires.
    fn combine(&self, member_preds: &[(f64, f64)]) -> (f64, f64) {
        let mut mean_z = 0.0;
        let mut var_z = 0.0;
        for ((_, w, mu, sd), &(m, v)) in self.members.iter().zip(member_preds) {
            mean_z += w * (m - mu) / sd;
            var_z += w * w * v / (sd * sd);
        }
        let (mu_t, sd_t) = self.target_scale;
        (mean_z * sd_t + mu_t, (var_z * sd_t * sd_t).max(1e-12))
    }
}

/// Objective (mean, std) of a history, the std floored at `1e-9`: the
/// scale that standardizes a member's predictions.
pub(crate) fn objective_stats(obs: &[Observation]) -> (f64, f64) {
    let ys: Vec<f64> = obs.iter().map(|o| o.objective).collect();
    (otune_linalg_mean(&ys), otune_linalg_std(&ys).max(1e-9))
}

fn otune_linalg_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn otune_linalg_std(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 1.0;
    }
    let m = otune_linalg_mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_gp::IncrementalPolicy;
    use otune_pool::Pool;
    use otune_space::{ConfigSpace, Parameter};
    use rand::{rngs::StdRng, SeedableRng};

    /// [`EnsembleSurrogate::build_cached`] through a fresh cache and
    /// store, untraced: every member is fitted from scratch.
    fn build(
        space: &ConfigSpace,
        base_tasks: &[TaskRecord],
        target_obs: &[Observation],
        n_sample: usize,
        seed: u64,
    ) -> Option<EnsembleSurrogate> {
        let bases: Vec<BaseTask<'_>> = base_tasks
            .iter()
            .map(|t| BaseTask::from_record(space, t))
            .collect();
        let mut cache = MetaCache::new(IncrementalPolicy::default(), Pool::from_env());
        EnsembleSurrogate::build_cached(
            space,
            &bases,
            target_obs,
            n_sample,
            seed,
            &mut cache,
            &Telemetry::disabled(),
        )
    }

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
        let ens = build(&s, &bases, &target, 40, 0).unwrap();
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
        let ens = build(&s, &bases, &target, 60, 0).unwrap();
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
        let ens = build(&s, &bases, &target, 40, 0).unwrap();
        let sum: f64 = ens.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
    }

    #[test]
    fn no_history_anywhere_returns_none() {
        let s = space();
        assert!(build(&s, &[], &[], 20, 0).is_none());
        let tiny = record(&s, "tiny", 2, 5, |a| a);
        assert!(build(&s, &[tiny], &[], 20, 0).is_none());
    }

    #[test]
    fn target_only_ensemble_works() {
        let s = space();
        let target = record(&s, "t", 10, 3, target_fn).observations;
        let ens = build(&s, &[], &target, 20, 0).unwrap();
        assert_eq!(ens.n_members(), 1);
        assert!((ens.weights()[0] - 1.0).abs() < 1e-9);
        let (at_opt, _) = ens.predict(&[0.3]);
        let (at_edge, _) = ens.predict(&[0.95]);
        assert!(at_opt < at_edge);
    }

    #[test]
    fn batched_prediction_matches_scalar() {
        // The members' batched oracle predictions, mixed by `combine`,
        // are the scalar ensemble prediction bit for bit — the contract
        // the tiled EIC pass relies on.
        use otune_bo::Predictor;
        let s = space();
        let bases = vec![
            record(&s, "b1", 20, 1, |a| target_fn(a) * 1.1),
            record(&s, "b2", 20, 2, |a| target_fn(a) + 2.0),
        ];
        let target = record(&s, "t", 10, 3, target_fn).observations;
        let ens = build(&s, &bases, &target, 40, 0).unwrap();
        let xs: Vec<f64> = (0..64).map(|i| i as f64 / 63.0).collect();
        let rows = otune_gp::Rows::new(&xs, 1);
        let per_member: Vec<Vec<(f64, f64)>> = ens
            .members()
            .iter()
            .map(|gp| gp.predict_batch(rows))
            .collect();
        for (j, x) in rows.iter().enumerate() {
            let preds: Vec<(f64, f64)> = per_member.iter().map(|p| p[j]).collect();
            let (bm, bv) = ens.combine(&preds);
            let (sm, sv) = ens.predict(x);
            assert_eq!(bm.to_bits(), sm.to_bits());
            assert_eq!(bv.to_bits(), sv.to_bits());
        }
    }

    #[test]
    fn variance_is_positive() {
        let s = space();
        let bases = vec![record(&s, "b", 12, 1, |a| a)];
        let target = record(&s, "t", 5, 2, |a| a).observations;
        let ens = build(&s, &bases, &target, 20, 0).unwrap();
        for i in 0..10 {
            let (_, v) = ens.predict(&[i as f64 / 9.0]);
            assert!(v > 0.0);
        }
    }

    /// Everything a build decides, as bits: per member (in order) its
    /// weight, scale and predictions at `probes`, then the mixture's
    /// predictions.
    fn build_bits(ens: &EnsembleSurrogate, probes: &[f64]) -> Vec<u64> {
        let rows = otune_gp::Rows::new(probes, 1);
        let mut bits = vec![ens.target_scale.0.to_bits(), ens.target_scale.1.to_bits()];
        for (gp, w, mu, sd) in &ens.members {
            bits.extend([w.to_bits(), mu.to_bits(), sd.to_bits()]);
            bits.extend(rows.iter().map(|x| gp.predict_mean(x).to_bits()));
        }
        for x in rows.iter() {
            let (m, v) = ens.predict(x);
            bits.extend([m.to_bits(), v.to_bits()]);
        }
        bits
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// A cached build over a growing target history — through the
        /// cache's own store or an attached one, and across a restart
        /// that turns the first round into a base while the store keeps
        /// its entries — equals the from-scratch build bit for bit. The
        /// oracle gets a fresh store and re-derives everything the caches
        /// memoize; it shares only the incrementally extended target
        /// surrogate, which a build through a fresh cache would refit
        /// with a fresh hyper search. Until the first extension (≤ 3
        /// target points) the oracle is a build through a fresh cache.
        #[test]
        fn cached_builds_match_scratch_builds_bitwise(
            seed in 0u64..1_000,
            n_bases in 0usize..4,
            shared in proptest::prelude::any::<bool>(),
            restart_at in 3usize..9,
        ) {
            let s = space();
            let mut bases: Vec<TaskRecord> = (0..n_bases)
                .map(|b| {
                    // Base 0 may be too short for a surrogate.
                    let n = if b == 0 { 2 + seed as usize % 3 } else { 8 + b };
                    let shift = b as f64 * 0.2;
                    record(&s, &format!("b{b}"), n, seed + b as u64, move |a| {
                        target_fn(a + shift) - shift
                    })
                })
                .collect();
            let round1 = record(&s, "t1", restart_at, seed + 50, target_fn).observations;
            let round2 = record(&s, "t2", 7, seed + 60, |a| target_fn(1.0 - a)).observations;
            let probes: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
            let mut cache = MetaCache::new(IncrementalPolicy::default(), Pool::from_env());
            if shared {
                cache.set_shared(Arc::new(crate::SharedMetaStore::new()));
            }
            let tm = Telemetry::disabled();
            for round in [&round1, &round2] {
                for n in 0..=round.len() {
                    let tasks: Vec<BaseTask<'_>> =
                        bases.iter().map(|t| BaseTask::from_record(&s, t)).collect();
                    let mut twin = cache.scratch_twin();
                    let cached = EnsembleSurrogate::build_cached(
                        &s, &tasks, &round[..n], 30, seed, &mut cache, &tm,
                    );
                    let cached = cached.as_ref().map(|e| build_bits(e, &probes));
                    let scratch = if n <= 3 {
                        build(&s, &bases, &round[..n], 30, seed)
                    } else {
                        EnsembleSurrogate::build_cached(
                            &s, &tasks, &round[..n], 30, seed, &mut twin, &tm,
                        )
                    };
                    proptest::prop_assert_eq!(
                        cached,
                        scratch.as_ref().map(|e| build_bits(e, &probes)),
                        "round of {} at n = {}", round.len(), n
                    );
                }
                // Restart: the finished round becomes a base task and the
                // cache drops its per-target state, as
                // `OnlineTuner::restart` does.
                bases.push(TaskRecord {
                    task_id: "self-round-1".into(),
                    meta_features: vec![0.0],
                    observations: round.clone(),
                });
                cache.clear();
            }
        }
    }

    /// Member surrogates read configurations only: a `config ++ context`
    /// row predicts exactly like the bare configuration, and every
    /// member's kernel spans just the configuration columns (the prefix
    /// the tiled EIC pass hands it).
    #[test]
    fn context_columns_are_ignored() {
        let s = space();
        let bases = vec![record(&s, "b1", 12, 1, target_fn)];
        let target = record(&s, "t", 6, 3, target_fn).observations;
        let ens = build(&s, &bases, &target, 20, 0).unwrap();
        for gp in otune_bo::Predictor::members(&ens) {
            assert_eq!(gp.kernel().dim(), s.len());
        }
        for i in 0..5 {
            let x = i as f64 / 4.0;
            assert_eq!(ens.predict(&[x]), ens.predict(&[x, 0.5]));
        }
    }
}
