//! The one memo of base-task meta-knowledge.
//!
//! In the §5.2 ensemble every base task contributes a surrogate fitted on
//! its frozen history and that surrogate's predictions at the Kendall-τ
//! sample. Both are pure functions of (history, seed), so they are
//! computed once and read from here by every [`MetaCache`]: a standalone
//! tuner's cache owns a store of its own, and a fleet hands one store to
//! all of its tuners, so `n_tasks × n_bases` lookups pay for `n_bases`
//! fits. The similarity trainer reads the same entries.
//!
//! * **Base tasks** are keyed by `(task id, history fingerprint, seed)`:
//!   the frozen surrogate (none when the history is too short for one)
//!   and the history's objective (mean, std), fitted on the first lookup.
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
//! Memoization is *transparent*: a fit is a pure function of
//! `(space, history, seed)`, a prediction vector of `(fit, sample)` and a
//! distance of two prediction vectors, so a task's suggestions are
//! bitwise identical whether its entries were computed by itself, by
//! another task, or served from the memo. The store is append-only —
//! base-task histories are frozen, so entries are never invalidated, only
//! added. Each key is computed once: the first caller to miss it computes
//! it outside the store lock, and a caller that races on the same key
//! waits for that value instead of computing a duplicate. A base fit runs
//! on the pool of the caller that missed it.
//!
//! [`MetaCache`]: crate::MetaCache

use crate::corpus::{CorpusRecord, RetrievalIndex, TuningCorpus};
use crate::distance::{prediction_distance, DistanceSample};
use crate::ensemble::{objective_stats, BaseTask};
use crate::similarity::TaskRecord;
use otune_gp::GaussianProcess;
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, Telemetry};
use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::sync::{Arc, Mutex, OnceLock};

/// What the store knows of one base task: its frozen surrogate (`None`
/// when the history is too small for one, so it is not re-attempted) and
/// its history's objective (mean, std) — the scale that standardizes the
/// surrogate's predictions, and the one a target without history borrows
/// from the first base.
pub(crate) type BaseEntry = (Option<Arc<GaussianProcess>>, (f64, f64));

/// Fit a base-task entry from scratch on `pool`: the pure function the
/// store memoizes.
fn fit_base_entry(space: &ConfigSpace, task: &TaskRecord, seed: u64, pool: &Pool) -> BaseEntry {
    (
        task.surrogate(space, seed, pool).map(Arc::new),
        objective_stats(&task.observations),
    )
}

/// Key of a base surrogate's predictions at a distance sample:
/// `(history fingerprint, fit seed, sample fingerprint)`.
type PredictionKey = (u64, u64, u64);

/// One memo map: each key's cell is filled exactly once.
type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Append-only memo lookup: the value stored under `key`, or `compute()`
/// stored and returned. The key's cell is taken under the map lock and
/// filled outside it, so lookups of other keys never wait on `compute`;
/// a caller that races on the same key waits for the one computation and
/// gets its value. `compute` must not look up `map` itself. The flag
/// reports whether the lookup hit, i.e. did not run `compute`.
fn memoize<K: Eq + Hash, V: Clone>(
    map: &Memo<K, V>,
    key: K,
    compute: impl FnOnce() -> V,
) -> (V, bool) {
    let cell = Arc::clone(
        map.lock()
            .expect("shared meta store lock")
            .entry(key)
            .or_default(),
    );
    let mut hit = true;
    let v = cell
        .get_or_init(|| {
            hit = false;
            compute()
        })
        .clone();
    (v, hit)
}

/// The persistent tuning corpus plus its memoized retrieval index. The
/// memo is keyed by (record count, query width): the corpus is
/// append-only, so a matching count means the index is current.
#[derive(Debug, Default)]
struct CorpusState {
    corpus: TuningCorpus,
    index: Option<(usize, usize, Arc<RetrievalIndex>)>,
}

/// Memoized base-task meta-knowledge: a tuner's own, or one shared by
/// every task in a fleet together with the fleet's tuning corpus.
#[derive(Debug, Default)]
pub struct SharedMetaStore {
    /// Base-task entries by `(task id, history fingerprint, fit seed)`.
    bases: Memo<(String, u64, u64), BaseEntry>,
    /// Base-surrogate predictions at distance samples.
    predictions: Memo<PredictionKey, Arc<[f64]>>,
    /// Pairwise surrogate distances by
    /// `(fingerprint a, fingerprint b, fit seed, sample fingerprint)`.
    distances: Memo<(u64, u64, u64, u64), f64>,
    /// Optional persistent tuning corpus for zero-execution retrieval.
    corpus: Mutex<Option<CorpusState>>,
}

impl SharedMetaStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedMetaStore::default()
    }

    /// Number of memoized base-task entries.
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

    /// The entry of base task `task` under fit seed `seed`: computed on
    /// the first lookup of its `(id, history fingerprint, seed)` and served
    /// from the store afterwards. The task's record is built, a `base_fit`
    /// span opened and the surrogate fitted on `pool`, only on a miss.
    pub(crate) fn base_surrogate(
        &self,
        space: &ConfigSpace,
        task: &BaseTask<'_>,
        seed: u64,
        pool: &Pool,
        telemetry: &Telemetry,
    ) -> BaseEntry {
        let key = (task.task_id().to_string(), task.fingerprint(), seed);
        let (entry, hit) = memoize(&self.bases, key, || {
            let _trace = telemetry.trace_span("base_fit");
            fit_base_entry(space, &task.record(), seed, pool)
        });
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
    use otune_bo::{history_fingerprint, Observation, SurrogateInput};
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

    fn lookup(
        store: &SharedMetaStore,
        space: &ConfigSpace,
        t: &TaskRecord,
        seed: u64,
        tm: &Telemetry,
    ) -> BaseEntry {
        store.base_surrogate(
            space,
            &BaseTask::from_record(space, t),
            seed,
            &Pool::from_env(),
            tm,
        )
    }

    #[test]
    fn base_surrogate_fitted_once_and_shared() {
        let s = space();
        let t = task(&s, "b", 10, 1);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let a = lookup(&store, &s, &t, 0, &tm).0.unwrap();
        let b = lookup(&store, &s, &t, 0, &tm).0.unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.n_bases(), 1);
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_HITS], 1);
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
    }

    /// A history too short for a surrogate caches `None`, and still
    /// carries its objective scale: the ensemble borrows the first base's
    /// scale for a target without history.
    #[test]
    fn short_history_caches_none() {
        let s = space();
        let t = task(&s, "tiny", 2, 2);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        for _ in 0..2 {
            let (gp, (mean, sd)) = lookup(&store, &s, &t, 0, &tm);
            assert!(gp.is_none());
            let (m, d) = objective_stats(&t.observations);
            assert_eq!((mean.to_bits(), sd.to_bits()), (m.to_bits(), d.to_bits()));
        }
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SHARED_META_MISSES], 1);
    }

    #[test]
    fn different_seeds_fit_separately() {
        let s = space();
        let t = task(&s, "b", 10, 3);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        lookup(&store, &s, &t, 0, &tm);
        lookup(&store, &s, &t, 1, &tm);
        assert_eq!(store.n_bases(), 2);
    }

    #[test]
    fn distances_memoized_and_stable() {
        let s = space();
        let ta = task(&s, "a", 10, 4);
        let tb = task(&s, "b", 10, 5);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let sa = lookup(&store, &s, &ta, 0, &tm).0.unwrap();
        let sb = lookup(&store, &s, &tb, 0, &tm).0.unwrap();
        let fa = history_fingerprint(&s, &ta.observations, SurrogateInput::Objective);
        let fb = history_fingerprint(&s, &tb.observations, SurrogateInput::Objective);
        let sample = DistanceSample::new(&s, 30, 0);
        let d1 = store.memo_distance((fa, &sa), (fb, &sb), 0, &sample, &tm);
        let d2 = store.memo_distance((fa, &sa), (fb, &sb), 0, &sample, &tm);
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(
            d1.to_bits(),
            surrogate_distance(&s, &sa, &sb, 30, 0).to_bits()
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
                    (fp, lookup(&store, &s, t, seed, &tm).0.unwrap())
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

    /// Threads that look up one missing key at once run its computation
    /// once: the first computes, the others wait for its value and count
    /// as hits. The computation finishes only after every thread holds
    /// the key's cell, so each lookup races the computation in flight.
    #[test]
    fn racing_prediction_misses_store_one_entry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        const THREADS: usize = 4;
        let s = space();
        let t = task(&s, "b", 12, 9);
        let tm = telemetry();
        let store = SharedMetaStore::new();
        let gp = lookup(&store, &s, &t, 0, &tm).0.unwrap();
        let fp = history_fingerprint(&s, &t.observations, SurrogateInput::Objective);
        let sample = DistanceSample::new(&s, 50, 0);
        let key = (fp, 0, sample.fingerprint());
        let barrier = Barrier::new(THREADS);
        let calls = AtomicUsize::new(0);
        let results: Vec<(Arc<[f64]>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memoize(&store.predictions, key, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // The map's reference plus one per thread.
                            let holders =
                                || Arc::strong_count(&store.predictions.lock().unwrap()[&key]);
                            while holders() < THREADS + 1 {
                                std::thread::yield_now();
                            }
                            Arc::<[f64]>::from(sample.predict(&gp))
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one computation");
        let misses = results.iter().filter(|(_, hit)| !hit).count();
        assert_eq!(misses, 1, "one miss, the rest hits");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (v, _) in &results {
            assert_eq!(bits(v), bits(&results[0].0));
        }
        assert_eq!(store.n_predictions(), 1);
        // Later lookups hit the stored vector.
        let c = store.base_predictions(fp, 0, &sample, &gp);
        assert_eq!(bits(&c), bits(&results[0].0));
    }
}
