//! Per-tuner caches for the meta-learning ensemble (§5.2).
//!
//! Rebuilding `M_meta` from scratch every `suggest` call repeats three
//! expensive jobs whose inputs rarely change in the online paradigm:
//!
//! 1. **Base-task surrogates** — each previous task's history is frozen, so
//!    its surrogate and that surrogate's predictions at the Kendall-τ
//!    sample `D_rand` never change. They live in a [`SharedMetaStore`], the
//!    one memo of base-task knowledge: [`MetaCache`] holds its own store,
//!    or the fleet's after [`MetaCache::set_shared`]. The sample itself is
//!    drawn once per `(n_sample, seed)` — a cache serves one configuration
//!    space.
//! 2. **The target task's own surrogate** — the target history grows by one
//!    observation per iteration, so the fit is maintained through the same
//!    incremental [`SurrogateCache`] machinery the generator uses.
//! 3. **The target-weight validation fits** — the classic leave-one-out
//!    scheme refits `n` models whenever one point arrives. The cache uses
//!    *progressive validation* instead: each point past the first three is
//!    predicted by a fixed-hyper model fitted on the points before it, so
//!    appending one observation adds exactly one fold (one O(n²) model
//!    extension) and every earlier fold is memoized.

use crate::distance::{kendall_tau, DistanceSample};
use crate::shared::SharedMetaStore;
use otune_bo::{
    observation_fingerprint, surrogate_kinds, Observation, SurrogateCache, SurrogateInput,
};
use otune_gp::{GaussianProcess, GpConfig, IncrementalPolicy};
use otune_pool::Pool;
use otune_space::ConfigSpace;
use otune_telemetry::{metric, Telemetry};
use std::sync::Arc;

/// How many of the most recent progressive-validation folds feed the
/// target-weight Kendall score. A bounded window keeps the weight
/// responsive to the current region of the search.
const WEIGHT_FOLD_WINDOW: usize = 16;

/// Memoized progressive-validation state for the target weight.
#[derive(Debug, Default)]
struct WeightMemo {
    /// Per-observation fingerprints of the processed history prefix.
    fps: Vec<u64>,
    /// Running fixed-hyper model over the processed prefix.
    gp: Option<GaussianProcess>,
    /// Held-out predictions and truths, one per completed fold.
    preds: Vec<f64>,
    truth: Vec<f64>,
}

impl WeightMemo {
    fn clear(&mut self) {
        *self = WeightMemo::default();
    }
}

/// Cross-call cache backing [`crate::EnsembleSurrogate::build_cached`].
#[derive(Debug)]
pub struct MetaCache {
    /// The memo of base-task surrogates and their sample predictions.
    store: Arc<SharedMetaStore>,
    /// The Kendall-τ sample of the last `(n_sample, seed)` asked for.
    sample: Option<(usize, u64, Arc<DistanceSample>)>,
    target: SurrogateCache,
    weight: WeightMemo,
    /// The tuner's pool, which every target fit runs on.
    pool: Pool,
}

impl MetaCache {
    /// Empty caches over a store of their own; the target surrogate is
    /// maintained under `policy`, and target fits run on `pool`.
    pub fn new(policy: IncrementalPolicy, pool: Pool) -> Self {
        MetaCache {
            store: Arc::new(SharedMetaStore::new()),
            sample: None,
            target: SurrogateCache::new(SurrogateInput::Objective, policy),
            weight: WeightMemo::default(),
            pool,
        }
    }

    /// Read base-task knowledge through `store` from now on, typically
    /// the fleet's, so every tuner sharing it fits each base once. Entries
    /// are pure functions of their keys, so the switch leaves every
    /// prediction bitwise unchanged.
    pub fn set_shared(&mut self, store: Arc<SharedMetaStore>) {
        self.store = store;
    }

    /// The memo of base-task knowledge this cache reads.
    pub(crate) fn store(&self) -> &SharedMetaStore {
        &self.store
    }

    /// Drop the per-target state: the sample, the target surrogate and
    /// the weight memo. The store is kept: base-task entries are keyed by
    /// their history, so they stay valid.
    pub fn clear(&mut self) {
        self.sample = None;
        self.target.clear();
        self.weight.clear();
    }

    /// A cache that shares nothing with this one except a copy of the
    /// incrementally maintained target surrogate: a build through it
    /// recomputes every base fit, sample, prediction vector and weight
    /// fold, so it is the from-scratch oracle for everything memoized.
    #[cfg(test)]
    pub(crate) fn scratch_twin(&self) -> MetaCache {
        MetaCache {
            target: self.target.clone(),
            // The policy only reaches the target cache, replaced above.
            ..MetaCache::new(IncrementalPolicy::default(), self.pool.clone())
        }
    }

    /// The Kendall-τ sample `D_rand` for `(n_sample, seed)`, drawn once.
    pub(crate) fn distance_sample(
        &mut self,
        space: &ConfigSpace,
        n_sample: usize,
        seed: u64,
    ) -> Arc<DistanceSample> {
        match &self.sample {
            Some((n, s, sample)) if *n == n_sample && *s == seed => Arc::clone(sample),
            _ => {
                let sample = Arc::new(DistanceSample::new(space, n_sample, seed));
                self.sample = Some((n_sample, seed, Arc::clone(&sample)));
                sample
            }
        }
    }

    /// The target task's own (context-stripped) surrogate, maintained
    /// incrementally while its history only grows. `None` below 3 points.
    pub(crate) fn target_surrogate(
        &mut self,
        space: &ConfigSpace,
        stripped: &[Observation],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Option<Arc<GaussianProcess>> {
        if stripped.len() < 3 {
            return None;
        }
        self.target
            .prepare(space, stripped, seed, telemetry, &self.pool)
            .ok()
    }

    /// Target-model weight from progressive validation: the Kendall
    /// concordance between held-out predictions and truths over the most
    /// recent folds, mapped to `[0, 1]`. Only folds for observations not
    /// seen before are computed; a history edit resets the memo.
    pub(crate) fn target_weight(
        &mut self,
        space: &ConfigSpace,
        stripped: &[Observation],
        seed: u64,
        telemetry: &Telemetry,
    ) -> f64 {
        let _trace = telemetry.trace_span("target_weight");
        let n = stripped.len();
        let fps: Vec<u64> = stripped
            .iter()
            .map(|o| observation_fingerprint(space, o, SurrogateInput::Objective))
            .collect();
        let done = self.weight.fps.len();
        if fps.len() < done || fps[..done] != self.weight.fps[..] {
            self.weight.clear();
        } else if done > 0 {
            telemetry.add(metric::META_LOO_MEMO_HITS, done as u64);
        }

        let kinds = surrogate_kinds(space, 0);
        let policy = IncrementalPolicy::never_research();
        let cfg = GpConfig {
            optimize_hypers: false,
            seed,
            ..GpConfig::default()
        };
        for k in self.weight.fps.len()..n {
            let x_k = space.encode(&stripped[k].config);
            let y_k = stripped[k].objective;
            if let Some(gp) = &mut self.weight.gp {
                self.weight.preds.push(gp.predict_mean(&x_k));
                self.weight.truth.push(y_k);
                if gp.update(x_k, y_k, &policy, cfg, &self.pool).is_err() {
                    self.weight.gp = None;
                }
            }
            if self.weight.gp.is_none() && k + 1 >= 3 {
                // (Re)establish the running fit on the processed prefix so
                // the next fold can predict. Failed fits retry next point.
                let xt: Vec<Vec<f64>> = stripped[..=k]
                    .iter()
                    .map(|o| space.encode(&o.config))
                    .collect();
                let yt: Vec<f64> = stripped[..=k].iter().map(|o| o.objective).collect();
                self.weight.gp =
                    GaussianProcess::fit_with_pool(kinds.clone(), xt, &yt, cfg, &self.pool).ok();
            }
            self.weight.fps.push(fps[k]);
        }

        if n < 4 || self.weight.preds.len() < 2 {
            return 0.3; // scarce history: modest default trust
        }
        let lo = self.weight.preds.len().saturating_sub(WEIGHT_FOLD_WINDOW);
        ((kendall_tau(&self.weight.preds[lo..], &self.weight.truth[lo..]) + 1.0) / 2.0)
            .clamp(0.05, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{prediction_distance, surrogate_distance};
    use crate::{BaseTask, TaskRecord};
    use otune_space::Parameter;
    use rand::{rngs::StdRng, SeedableRng};

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![Parameter::float("a", 0.0, 1.0, 0.5)])
    }

    fn obs(space: &ConfigSpace, n: usize, seed: u64) -> Vec<Observation> {
        let mut rng = StdRng::seed_from_u64(seed);
        space
            .sample_n(n, &mut rng)
            .into_iter()
            .map(|config| {
                let a = config[0].as_float().unwrap();
                Observation {
                    failed: false,
                    config,
                    objective: (a - 0.3) * (a - 0.3) * 20.0,
                    runtime: 1.0,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect()
    }

    fn telemetry() -> Telemetry {
        Telemetry::new(Box::new(otune_telemetry::NullSink))
    }

    fn base<'a>(space: &ConfigSpace, t: &'a TaskRecord) -> BaseTask<'a> {
        BaseTask::from_record(space, t)
    }

    #[test]
    fn base_surrogates_fit_once_per_history() {
        let s = space();
        let t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 12, 1),
        };
        let tm = telemetry();
        let cache = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        let a = cache.store().base_surrogate(&s, &base(&s, &t), 0, &tm).0;
        let b = cache.store().base_surrogate(&s, &base(&s, &t), 0, &tm).0;
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 1);
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
    }

    /// Caches sharing a store read one fit per base, and it is bitwise
    /// the fit a cache with a store of its own makes.
    #[test]
    fn shared_store_serves_private_cache_misses() {
        let s = space();
        let t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 12, 7),
        };
        let tm = telemetry();
        let store = Arc::new(crate::SharedMetaStore::new());
        let mut c1 = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        let mut c2 = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        c1.set_shared(Arc::clone(&store));
        c2.set_shared(Arc::clone(&store));
        let a = c1.store().base_surrogate(&s, &base(&s, &t), 0, &tm).0;
        let b = c2.store().base_surrogate(&s, &base(&s, &t), 0, &tm).0;
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.n_bases(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 1);
        let lone = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        let c = lone.store().base_surrogate(&s, &base(&s, &t), 0, &tm).0;
        let x = vec![0.37];
        assert_eq!(
            a.predict_mean(&x).to_bits(),
            c.unwrap().predict_mean(&x).to_bits()
        );
    }

    #[test]
    fn base_cache_invalidates_on_history_change() {
        let s = space();
        let mut t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 10, 2),
        };
        let tm = telemetry();
        let cache = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        cache.store().base_surrogate(&s, &base(&s, &t), 0, &tm);
        t.observations[0].objective += 1.0;
        cache.store().base_surrogate(&s, &base(&s, &t), 0, &tm);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 2);
    }

    #[test]
    fn target_weight_matches_fresh_cache_recompute() {
        let s = space();
        let history = obs(&s, 14, 3);
        let tm = Telemetry::disabled();
        let mut warm = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        // Feed the memoized cache one point at a time.
        let mut w_warm = 0.0;
        for n in 4..=history.len() {
            w_warm = warm.target_weight(&s, &history[..n], 0, &tm);
        }
        // A cold cache sees the full history at once.
        let mut cold = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        let w_cold = cold.target_weight(&s, &history, 0, &tm);
        assert_eq!(w_warm.to_bits(), w_cold.to_bits());
    }

    #[test]
    fn target_weight_memo_counts_hits_and_resets_on_edit() {
        let s = space();
        let mut history = obs(&s, 8, 4);
        let tm = telemetry();
        let mut cache = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        cache.target_weight(&s, &history[..6], 0, &tm);
        cache.target_weight(&s, &history, 0, &tm);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_LOO_MEMO_HITS], 6);
        // An edited prefix resets the memo: no further hits counted.
        history[1].objective += 0.5;
        cache.target_weight(&s, &history, 0, &tm);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_LOO_MEMO_HITS], 6);
    }

    /// The incrementally extended fold model and a fixed-hyper full refit
    /// per fold (the test-only oracle) give the same weight, bit for bit.
    #[test]
    fn both_policy_modes_agree_on_weight() {
        let s = space();
        let history = obs(&s, 12, 5);
        let tm = Telemetry::disabled();
        let mut cache = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        let mut w = 0.0;
        for n in 4..=history.len() {
            w = cache.target_weight(&s, &history[..n], 0, &tm);
        }

        let cfg = GpConfig {
            optimize_hypers: false,
            ..GpConfig::default()
        };
        let (mut preds, mut truth) = (Vec::new(), Vec::new());
        for k in 3..history.len() {
            let xt = history[..k].iter().map(|o| s.encode(&o.config)).collect();
            let yt: Vec<f64> = history[..k].iter().map(|o| o.objective).collect();
            let gp = GaussianProcess::fit(surrogate_kinds(&s, 0), xt, &yt, cfg).unwrap();
            preds.push(gp.predict_mean(&s.encode(&history[k].config)));
            truth.push(history[k].objective);
        }
        let lo = preds.len().saturating_sub(WEIGHT_FOLD_WINDOW);
        let oracle = ((kendall_tau(&preds[lo..], &truth[lo..]) + 1.0) / 2.0).clamp(0.05, 1.0);
        assert_eq!(w.to_bits(), oracle.to_bits());
    }

    /// Base predictions at the sample are the oracle's, computed once per
    /// history, and recomputed after the base's history is edited.
    #[test]
    fn base_predictions_follow_the_base_history() {
        let s = space();
        let mut t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 12, 6),
        };
        let other = obs(&s, 9, 8);
        let other_gp = TaskRecord {
            task_id: "o".into(),
            meta_features: vec![0.0],
            observations: other,
        }
        .surrogate(&s, 0)
        .unwrap();
        let tm = telemetry();
        let mut cache = MetaCache::new(IncrementalPolicy::default(), Pool::global().clone());
        let sample = cache.distance_sample(&s, 40, 0);
        assert!(Arc::ptr_eq(&sample, &cache.distance_sample(&s, 40, 0)));
        let preds_for = |cache: &MetaCache, t: &TaskRecord| {
            let task = base(&s, t);
            let gp = cache.store().base_surrogate(&s, &task, 0, &tm).0.unwrap();
            let preds = cache
                .store()
                .base_predictions(task.fingerprint(), 0, &sample, &gp);
            let oracle = surrogate_distance(&s, &gp, &other_gp, 40, 0);
            let d = prediction_distance(&preds, &sample.predict(&other_gp));
            assert_eq!(d.to_bits(), oracle.to_bits());
            preds
        };
        let first = preds_for(&cache, &t);
        let again = preds_for(&cache, &t);
        assert!(Arc::ptr_eq(&first, &again), "memoized per history");
        t.observations[3].objective += 2.0;
        let edited = preds_for(&cache, &t);
        assert!(!Arc::ptr_eq(&first, &edited), "an edit recomputes");
        let expect = sample.predict(&t.surrogate(&s, 0).unwrap());
        assert_eq!(
            edited.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
