//! Fleet-wide shared read-only meta-knowledge store.
//!
//! A multi-task controller runs many tuners that warm-start from the *same*
//! historical base tasks. Each tuner's private [`MetaCache`] already fits a
//! base surrogate only once per task — but "once per task" still multiplies
//! into `n_tasks × n_bases` identical fits across a fleet. The
//! [`SharedMetaStore`] dedupes that work process-wide:
//!
//! * **Base surrogates** are keyed by `(task id, history fingerprint, seed)`
//!   and fitted at most once; every tuner whose private cache misses gets an
//!   `Arc` clone of the shared fit.
//! * **Base predictions at `D_rand`** — a frozen surrogate's predictions
//!   at the Kendall-τ sample — are keyed by `(history fingerprint, fit
//!   seed, sample fingerprint)` and computed at most once; every
//!   ensemble weight and every similarity label reads them from here.
//! * **Pairwise surrogate distances** (the similarity model's training
//!   labels) are memoized by the two tasks' history fingerprints plus the
//!   fit seed and sample fingerprint, so a scheduled similarity refit only
//!   pays for pairs it has never seen, and a missed pair is computed from
//!   the memoized predictions.
//!
//! Sharing is *transparent*: a fit is a pure function of
//! `(space, history, seed)`, a prediction vector of `(fit, sample)` and a
//! distance of two prediction vectors, so a task's suggestions are
//! bitwise identical whether its entries were computed privately, by
//! another task, or served from the memo. The store is append-only for the
//! lifetime of the fleet — base-task histories are frozen, so entries are
//! never invalidated, only added. Entries are computed outside the store
//! lock; when two callers race on a missing key, both compute identical
//! bits and the first to store it wins.
//!
//! [`MetaCache`]: crate::MetaCache

use crate::corpus::{CorpusRecord, RetrievalIndex, TuningCorpus};
use crate::distance::{prediction_distance, DistanceSample};
use crate::ensemble::objective_stats;
use crate::similarity::TaskRecord;
use otune_bo::{history_fingerprint, SurrogateInput};
use otune_gp::GaussianProcess;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, Telemetry};
use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::sync::{Arc, Mutex};

/// A shared base-task entry: frozen surrogate plus the task's objective
/// mean/std used to standardize its predictions. `None` is cached for
/// tasks whose history is too small so they are not re-attempted.
pub(crate) type SharedBaseEntry = Option<(Arc<GaussianProcess>, f64, f64)>;

/// Fit a base-task entry from scratch: the canonical pure function backing
/// both the private [`crate::MetaCache`] and the shared store.
pub(crate) fn fit_base_entry(space: &ConfigSpace, task: &TaskRecord, seed: u64) -> SharedBaseEntry {
    task.surrogate(space, seed).map(|s| {
        let (mean, sd) = objective_stats(&task.observations);
        (Arc::new(s), mean, sd)
    })
}

/// Key of a base surrogate's predictions at a distance sample:
/// `(history fingerprint, fit seed, sample fingerprint)`.
type PredictionKey = (u64, u64, u64);

/// Append-only memo lookup: the value stored under `key`, or `compute()`
/// stored and returned. `compute` runs outside the lock so concurrent
/// shards never serialize on it; it must be pure, so a racing duplicate
/// computes identical bits and every caller gets the first stored value.
/// The flag reports whether the lookup hit.
fn memoize<K: Eq + Hash, V: Clone>(
    map: &Mutex<HashMap<K, V>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> (V, bool) {
    if let Some(v) = map.lock().expect("shared meta store lock").get(&key) {
        return (v.clone(), true);
    }
    let v = compute();
    let stored = map
        .lock()
        .expect("shared meta store lock")
        .entry(key)
        .or_insert(v)
        .clone();
    (stored, false)
}

/// The persistent tuning corpus plus its memoized retrieval index. The
/// memo is keyed by (record count, query width): the corpus is
/// append-only, so a matching count means the index is current.
#[derive(Debug, Default)]
struct CorpusState {
    corpus: TuningCorpus,
    index: Option<(usize, usize, Arc<RetrievalIndex>)>,
}

/// Process-wide read-only meta-knowledge shared by every task in a fleet.
#[derive(Debug, Default)]
pub struct SharedMetaStore {
    /// Base surrogates by `(task id, history fingerprint, fit seed)`.
    bases: Mutex<HashMap<(String, u64, u64), SharedBaseEntry>>,
    /// Base-surrogate predictions at distance samples.
    predictions: Mutex<HashMap<PredictionKey, Arc<[f64]>>>,
    /// Pairwise surrogate distances by
    /// `(fingerprint a, fingerprint b, fit seed, sample fingerprint)`.
    distances: Mutex<HashMap<(u64, u64, u64, u64), f64>>,
    /// Optional persistent tuning corpus for zero-execution retrieval.
    corpus: Mutex<Option<CorpusState>>,
}

impl SharedMetaStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedMetaStore::default()
    }

    /// Number of cached base-surrogate entries.
    pub fn n_bases(&self) -> usize {
        self.bases.lock().expect("shared meta store lock").len()
    }

    /// Number of memoized pairwise distances.
    pub fn n_distances(&self) -> usize {
        self.distances.lock().expect("shared meta store lock").len()
    }

    /// Number of memoized base-prediction vectors.
    pub fn n_predictions(&self) -> usize {
        self.predictions
            .lock()
            .expect("shared meta store lock")
            .len()
    }

    /// Shared base surrogate for `task`, fitted on first request and served
    /// from the store afterwards.
    pub fn base_surrogate(
        &self,
        space: &ConfigSpace,
        task: &TaskRecord,
        seed: u64,
        telemetry: &Telemetry,
    ) -> SharedBaseEntry {
        let fp = history_fingerprint(space, &task.observations, SurrogateInput::Objective);
        self.base_surrogate_at(space, task, fp, seed, telemetry)
    }

    /// [`SharedMetaStore::base_surrogate`] with the fingerprint already
    /// computed (private caches have it at hand).
    pub(crate) fn base_surrogate_at(
        &self,
        space: &ConfigSpace,
        task: &TaskRecord,
        fp: u64,
        seed: u64,
        telemetry: &Telemetry,
    ) -> SharedBaseEntry {
        let key = (task.task_id.clone(), fp, seed);
        let (entry, hit) = memoize(&self.bases, key, || fit_base_entry(space, task, seed));
        telemetry.incr(if hit {
            metric::SHARED_META_HITS
        } else {
            metric::SHARED_META_MISSES
        });
        entry
    }

    /// Predictions at `sample` of the base surrogate `gp`, fitted with
    /// `seed` on a history with fingerprint `fp`: computed on first
    /// request, served from the store afterwards.
    pub(crate) fn base_predictions(
        &self,
        fp: u64,
        seed: u64,
        sample: &DistanceSample,
        gp: &GaussianProcess,
    ) -> Arc<[f64]> {
        let key = (fp, seed, sample.fingerprint());
        memoize(&self.predictions, key, || sample.predict(gp).into()).0
    }

    /// Attach a tuning corpus. Every completed fleet observation reported
    /// through [`SharedMetaStore::record_outcome`] is appended to it, and
    /// [`SharedMetaStore::retrieval_bootstrap`] answers zero-execution
    /// cold-start queries from it.
    pub fn set_corpus(&self, corpus: TuningCorpus) {
        *self.corpus.lock().expect("shared meta store lock") = Some(CorpusState {
            corpus,
            index: None,
        });
    }

    /// Whether a corpus is attached.
    pub fn has_corpus(&self) -> bool {
        self.corpus
            .lock()
            .expect("shared meta store lock")
            .is_some()
    }

    /// Records held by the attached corpus (0 when none is attached).
    pub fn corpus_len(&self) -> usize {
        self.corpus
            .lock()
            .expect("shared meta store lock")
            .as_ref()
            .map_or(0, |s| s.corpus.len())
    }

    /// Append one run's outcome to the attached corpus (durably when the
    /// corpus is file-backed) and refresh the `corpus_records` gauge. A
    /// missing corpus is a no-op.
    pub fn record_outcome(&self, record: CorpusRecord, telemetry: &Telemetry) -> io::Result<()> {
        let mut guard = self.corpus.lock().expect("shared meta store lock");
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        state.corpus.append(record)?;
        telemetry.gauge(metric::CORPUS_RECORDS, state.corpus.len() as f64);
        Ok(())
    }

    /// Flush the attached corpus' staged appends (a no-op when none is
    /// attached, free under the default `every` policy). Fleet
    /// checkpoints and shutdown call this so a lazy sync policy never
    /// leaves outcomes in memory past a semantic boundary.
    pub fn flush_corpus(&self) -> io::Result<()> {
        match self.corpus.lock().expect("shared meta store lock").as_mut() {
            Some(state) => state.corpus.flush(),
            None => Ok(()),
        }
    }

    /// The zero-execution bootstrap design for a task with meta-features
    /// `query`: the distance-weighted blend of the `k` nearest corpus
    /// neighbors plus those neighbors' configurations, or an empty design
    /// on a retrieval miss (no usable corpus) or fallback (no neighbor
    /// within `max_distance`). The retrieval index is memoized and
    /// rebuilt only after the corpus has grown.
    pub fn retrieval_bootstrap(
        &self,
        space: &ConfigSpace,
        query: &[f64],
        k: usize,
        max_distance: f64,
        telemetry: &Telemetry,
    ) -> Vec<Configuration> {
        let index = {
            let mut guard = self.corpus.lock().expect("shared meta store lock");
            let Some(state) = guard.as_mut() else {
                telemetry.incr(metric::RETRIEVAL_MISSES);
                return Vec::new();
            };
            let (len, dim) = (state.corpus.len(), query.len());
            match &state.index {
                Some((l, d, idx)) if *l == len && *d == dim => Arc::clone(idx),
                _ => {
                    let idx = Arc::new(state.corpus.index_for(dim));
                    state.index = Some((len, dim, Arc::clone(&idx)));
                    idx
                }
            }
        };
        index.bootstrap_with(space, query, k, max_distance, telemetry)
    }

    /// Memoized surrogate distance between two frozen tasks at `sample`,
    /// keyed by their history fingerprints. `a` and `b` pair each task's
    /// fingerprint with its surrogate, fitted with `seed`. A missed pair
    /// is computed from the memoized prediction vectors.
    pub(crate) fn memo_distance(
        &self,
        a: (u64, &GaussianProcess),
        b: (u64, &GaussianProcess),
        seed: u64,
        sample: &DistanceSample,
        telemetry: &Telemetry,
    ) -> f64 {
        let key = (a.0, b.0, seed, sample.fingerprint());
        let (d, hit) = memoize(&self.distances, key, || {
            prediction_distance(
                &self.base_predictions(a.0, seed, sample, a.1),
                &self.base_predictions(b.0, seed, sample, b.1),
            )
        });
        telemetry.incr(if hit {
            metric::SHARED_DIST_HITS
        } else {
            metric::SHARED_DIST_MISSES
        });
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::surrogate_distance;
    use otune_bo::Observation;
    use otune_space::Parameter;
    use rand::{rngs::StdRng, SeedableRng};

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![Parameter::float("a", 0.0, 1.0, 0.5)])
    }

    fn task(space: &ConfigSpace, id: &str, n: usize, seed: u64) -> TaskRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        let observations: Vec<Observation> = space
            .sample_n(n, &mut rng)
            .into_iter()
            .map(|config| {
                let a = config[0].as_float().unwrap();
                Observation {
                    failed: false,
                    config,
                    objective: (a - 0.4) * (a - 0.4) * 10.0,
                    runtime: 1.0,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect();
        TaskRecord {
            task_id: id.to_string(),
            meta_features: vec![1.0],
            observations,
        }
    }

    fn telemetry() -> Telemetry {
        Telemetry::new(Box::new(otune_telemetry::NullSink))
    }

    #[test]
    fn base_surrogate_fitted_once_and_shared() {
        let s = space();
        let t = task(&s, "b", 10, 1);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let a = store.base_surrogate(&s, &t, 0, &tm).unwrap();
        let b = store.base_surrogate(&s, &t, 0, &tm).unwrap();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(store.n_bases(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 1);
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
    }

    #[test]
    fn short_history_caches_none() {
        let s = space();
        let t = task(&s, "tiny", 2, 2);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        assert!(store.base_surrogate(&s, &t, 0, &tm).is_none());
        assert!(store.base_surrogate(&s, &t, 0, &tm).is_none());
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
    }

    #[test]
    fn different_seeds_fit_separately() {
        let s = space();
        let t = task(&s, "b", 10, 3);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        store.base_surrogate(&s, &t, 0, &tm);
        store.base_surrogate(&s, &t, 1, &tm);
        assert_eq!(store.n_bases(), 2);
    }

    #[test]
    fn distances_memoized_and_stable() {
        let s = space();
        let ta = task(&s, "a", 10, 4);
        let tb = task(&s, "b", 10, 5);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let sa = store.base_surrogate(&s, &ta, 0, &tm).unwrap();
        let sb = store.base_surrogate(&s, &tb, 0, &tm).unwrap();
        let fa = history_fingerprint(&s, &ta.observations, SurrogateInput::Objective);
        let fb = history_fingerprint(&s, &tb.observations, SurrogateInput::Objective);
        let sample = DistanceSample::new(&s, 30, 0);
        let d1 = store.memo_distance((fa, &sa.0), (fb, &sb.0), 0, &sample, &tm);
        let d2 = store.memo_distance((fa, &sa.0), (fb, &sb.0), 0, &sample, &tm);
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(
            d1.to_bits(),
            surrogate_distance(&s, &sa.0, &sb.0, 30, 0).to_bits()
        );
        assert_eq!(store.n_distances(), 1);
        // The missed pair was computed from memoized prediction vectors.
        assert_eq!(store.n_predictions(), 2);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_DIST_HITS], 1);
        assert_eq!(snap.counters[metric::SHARED_DIST_MISSES], 1);
    }

    #[test]
    fn corpus_outcomes_feed_retrieval_bootstrap() {
        let s = space();
        let tm = telemetry();
        let store = SharedMetaStore::new();
        // No corpus attached: recording is a no-op, retrieval misses.
        let mk = |task: &str, a: f64, obj: f64| CorpusRecord {
            task_id: task.to_string(),
            meta_features: vec![a, a],
            config: s.decode(&[a]),
            objective: obj,
            runtime: obj,
            resource: 1.0,
            failed: false,
        };
        store.record_outcome(mk("x", 0.3, 2.0), &tm).unwrap();
        assert_eq!(store.corpus_len(), 0);
        assert!(store
            .retrieval_bootstrap(&s, &[0.3, 0.3], 3, 2.0, &tm)
            .is_empty());

        store.set_corpus(TuningCorpus::in_memory());
        assert!(store.has_corpus());
        store.record_outcome(mk("a", 0.3, 2.0), &tm).unwrap();
        store.record_outcome(mk("b", 0.6, 3.0), &tm).unwrap();
        assert_eq!(store.corpus_len(), 2);
        let boot = store.retrieval_bootstrap(&s, &[0.3, 0.3], 2, 2.0, &tm);
        assert!(!boot.is_empty());
        // The memoized index is reused while the corpus has not grown,
        // and rebuilt (bitwise-identically) after an append.
        let again = store.retrieval_bootstrap(&s, &[0.3, 0.3], 2, 2.0, &tm);
        assert_eq!(boot, again);
        store.record_outcome(mk("c", 0.31, 1.0), &tm).unwrap();
        let after = store.retrieval_bootstrap(&s, &[0.3, 0.3], 2, 2.0, &tm);
        assert_ne!(boot, after, "new neighbor changes the blend");
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::RETRIEVAL_MISSES], 1);
        assert_eq!(snap.counters[metric::RETRIEVAL_HITS], 3);
        assert_eq!(snap.gauges[metric::CORPUS_RECORDS], 3.0);
    }

    /// The one-path distance equals the from-scratch oracle bit for bit,
    /// over many pairs, seeds and sample sizes, whether the pair's
    /// prediction vectors are already memoized or not.
    #[test]
    fn memo_distance_is_surrogate_distance_bitwise() {
        let s = ConfigSpace::new(vec![
            Parameter::float("a", 0.0, 1.0, 0.5),
            Parameter::int("n", 1, 20, 4),
        ]);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let tasks: Vec<TaskRecord> = (0..4)
            .map(|i| {
                let mut t = task(&s, &format!("t{i}"), 8 + 3 * i, 20 + i as u64);
                for (k, o) in t.observations.iter_mut().enumerate() {
                    o.objective += (k * i) as f64 * 0.1;
                }
                t
            })
            .collect();
        for seed in [0u64, 3] {
            let fitted: Vec<(u64, Arc<GaussianProcess>)> = tasks
                .iter()
                .map(|t| {
                    let fp = history_fingerprint(&s, &t.observations, SurrogateInput::Objective);
                    (fp, store.base_surrogate(&s, t, seed, &tm).unwrap().0)
                })
                .collect();
            for n_sample in [2usize, 17, 50] {
                let sample = DistanceSample::new(&s, n_sample, seed);
                for (i, (fa, ga)) in fitted.iter().enumerate() {
                    for (fb, gb) in &fitted[i + 1..] {
                        let memo = store.memo_distance((*fa, ga), (*fb, gb), seed, &sample, &tm);
                        let oracle = surrogate_distance(&s, ga, gb, n_sample, seed);
                        assert_eq!(memo.to_bits(), oracle.to_bits());
                    }
                }
            }
        }
        // Two seeds × three samples × four tasks, each predicted once.
        assert_eq!(store.n_predictions(), 24);
        assert_eq!(store.n_distances(), 36);
    }

    /// Two threads that miss the same prediction entry at once both
    /// compute it; they get bitwise-equal vectors and the store keeps one.
    #[test]
    fn racing_prediction_misses_store_one_entry() {
        use std::sync::Barrier;
        let s = space();
        let t = task(&s, "b", 12, 9);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let gp = store.base_surrogate(&s, &t, 0, &tm).unwrap().0;
        let fp = history_fingerprint(&s, &t.observations, SurrogateInput::Objective);
        let sample = DistanceSample::new(&s, 50, 0);
        let key = (fp, 0, sample.fingerprint());
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let race = || {
                // Each thread passes the barrier only after its own lookup
                // missed, so both compute before either stores.
                memoize(&store.predictions, key, || {
                    barrier.wait();
                    Arc::<[f64]>::from(sample.predict(&gp))
                })
            };
            let a = scope.spawn(race);
            let b = scope.spawn(race);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(!a.1 && !b.1, "both lookups missed");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.0), bits(&b.0));
        assert_eq!(store.n_predictions(), 1);
        // Later lookups hit the stored vector.
        let c = store.base_predictions(fp, 0, &sample, &gp);
        assert_eq!(bits(&c), bits(&a.0));
        assert_eq!(store.n_predictions(), 1);
    }
}
