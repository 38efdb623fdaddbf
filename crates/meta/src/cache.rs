//! Cross-iteration caches for the meta-learning ensemble (§5.2).
//!
//! Rebuilding `M_meta` from scratch every `suggest` call repeats three
//! expensive jobs whose inputs rarely change in the online paradigm:
//!
//! 1. **Base-task surrogates** — each previous task's history is frozen, so
//!    its surrogate never changes. [`MetaCache`] fits it once per distinct
//!    observation set (keyed by task id + history fingerprint) and hands out
//!    `Arc` clones afterwards.
//! 2. **The target task's own surrogate** — the target history grows by one
//!    observation per iteration, so the fit is maintained through the same
//!    incremental [`SurrogateCache`] machinery the generator uses.
//! 3. **The target-weight validation fits** — the classic leave-one-out
//!    scheme refits `n` models whenever one point arrives. The cache uses
//!    *progressive validation* instead: each point past the first three is
//!    predicted by a fixed-hyper model fitted on the points before it, so
//!    appending one observation adds exactly one fold (one O(n²) model
//!    extension) and every earlier fold is memoized.

use crate::distance::kendall_tau;
use crate::shared::{fit_base_entry, SharedMetaStore};
use crate::similarity::TaskRecord;
use otune_bo::{
    history_fingerprint, observation_fingerprint, surrogate_kinds, Observation, SurrogateCache,
    SurrogateInput,
};
use otune_gp::{GaussianProcess, GpConfig, IncrementalPolicy};
use otune_pool::Pool;
use otune_space::ConfigSpace;
use otune_telemetry::{metric, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// How many of the most recent progressive-validation folds feed the
/// target-weight Kendall score. A bounded window keeps the weight
/// responsive to the current region of the search.
const WEIGHT_FOLD_WINDOW: usize = 16;

/// A cached base-task member: frozen surrogate plus the task's objective
/// statistics (mean, std) used to standardize its predictions.
type BaseEntry = Option<(Arc<GaussianProcess>, f64, f64)>;

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
    policy: IncrementalPolicy,
    bases: HashMap<String, (u64, BaseEntry)>,
    target: SurrogateCache,
    weight: WeightMemo,
    /// Optional fleet-wide store consulted on local base-surrogate misses,
    /// so identical fits are shared across tasks.
    shared: Option<Arc<SharedMetaStore>>,
}

impl MetaCache {
    /// Empty caches under the given maintenance policy.
    pub fn new(policy: IncrementalPolicy) -> Self {
        MetaCache {
            policy,
            bases: HashMap::new(),
            target: SurrogateCache::new(SurrogateInput::Objective, policy),
            weight: WeightMemo::default(),
            shared: None,
        }
    }

    /// Attach a fleet-wide [`SharedMetaStore`]. Base-surrogate fits are a
    /// pure function of `(space, history, seed)`, so serving them from the
    /// shared store leaves every prediction bitwise unchanged.
    pub fn set_shared(&mut self, store: Arc<SharedMetaStore>) {
        self.shared = Some(store);
    }

    /// The maintenance policy these caches apply.
    pub fn policy(&self) -> &IncrementalPolicy {
        &self.policy
    }

    /// Number of base tasks with a cached entry.
    pub fn n_cached_bases(&self) -> usize {
        self.bases.len()
    }

    /// Drop all locally cached state. An attached [`SharedMetaStore`] is
    /// kept: it is fleet-lifetime and append-only.
    pub fn clear(&mut self) {
        self.bases.clear();
        self.target.clear();
        self.weight.clear();
    }

    /// Frozen surrogate + objective statistics for one base task, fitted at
    /// most once per distinct observation set. Tasks whose history is too
    /// small for a surrogate cache a `None` so they are not refitted either.
    pub(crate) fn base_surrogate(
        &mut self,
        space: &ConfigSpace,
        task: &TaskRecord,
        seed: u64,
        telemetry: &Telemetry,
    ) -> BaseEntry {
        let fp = history_fingerprint(space, &task.observations, SurrogateInput::Objective);
        if let Some((cached_fp, entry)) = self.bases.get(&task.task_id) {
            if *cached_fp == fp {
                telemetry.incr(metric::META_BASE_CACHE_HITS);
                return entry.clone();
            }
        }
        telemetry.incr(metric::META_BASE_CACHE_MISSES);
        let _trace = telemetry.trace_span("base_fit");
        let entry = match &self.shared {
            Some(store) => store.base_surrogate_at(space, task, fp, seed, telemetry),
            None => fit_base_entry(space, task, seed),
        };
        self.bases.insert(task.task_id.clone(), (fp, entry.clone()));
        entry
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
            .prepare(space, stripped, seed, telemetry, Pool::global())
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
                if gp.update(x_k, y_k, &policy, cfg, Pool::global()).is_err() {
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
                self.weight.gp = GaussianProcess::fit(kinds.clone(), xt, &yt, cfg).ok();
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

    #[test]
    fn base_surrogates_fit_once_per_history() {
        let s = space();
        let t = TaskRecord {
            task_id: "b1".into(),
            meta_features: vec![0.0],
            observations: obs(&s, 12, 1),
        };
        let tm = telemetry();
        let mut cache = MetaCache::new(IncrementalPolicy::default());
        let a = cache.base_surrogate(&s, &t, 0, &tm).unwrap();
        let b = cache.base_surrogate(&s, &t, 0, &tm).unwrap();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_BASE_CACHE_HITS], 1);
        assert_eq!(snap.counters[metric::META_BASE_CACHE_MISSES], 1);
    }

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
        let mut c1 = MetaCache::new(IncrementalPolicy::default());
        let mut c2 = MetaCache::new(IncrementalPolicy::default());
        c1.set_shared(Arc::clone(&store));
        c2.set_shared(Arc::clone(&store));
        let a = c1.base_surrogate(&s, &t, 0, &tm).unwrap();
        let b = c2.base_surrogate(&s, &t, 0, &tm).unwrap();
        // Both private caches hold the same shared fit.
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(store.n_bases(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 1);
        // Values match a private, storeless fit bitwise.
        let mut lone = MetaCache::new(IncrementalPolicy::default());
        let c = lone.base_surrogate(&s, &t, 0, &tm).unwrap();
        let x = vec![0.37];
        assert_eq!(
            a.0.predict_mean(&x).to_bits(),
            c.0.predict_mean(&x).to_bits()
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
        let mut cache = MetaCache::new(IncrementalPolicy::default());
        cache.base_surrogate(&s, &t, 0, &tm);
        t.observations[0].objective += 1.0;
        cache.base_surrogate(&s, &t, 0, &tm);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::META_BASE_CACHE_MISSES], 2);
    }

    #[test]
    fn target_weight_matches_fresh_cache_recompute() {
        let s = space();
        let history = obs(&s, 14, 3);
        let tm = Telemetry::disabled();
        let mut warm = MetaCache::new(IncrementalPolicy::default());
        // Feed the memoized cache one point at a time.
        let mut w_warm = 0.0;
        for n in 4..=history.len() {
            w_warm = warm.target_weight(&s, &history[..n], 0, &tm);
        }
        // A cold cache sees the full history at once.
        let mut cold = MetaCache::new(IncrementalPolicy::default());
        let w_cold = cold.target_weight(&s, &history, 0, &tm);
        assert_eq!(w_warm.to_bits(), w_cold.to_bits());
    }

    #[test]
    fn target_weight_memo_counts_hits_and_resets_on_edit() {
        let s = space();
        let mut history = obs(&s, 8, 4);
        let tm = telemetry();
        let mut cache = MetaCache::new(IncrementalPolicy::default());
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
        let mut cache = MetaCache::new(IncrementalPolicy::default());
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
}
