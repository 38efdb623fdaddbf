//! Lightweight metrics: counters, gauges, and fixed-bucket histograms
//! with serializable snapshots.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Canonical metric names used across the tuning service.
pub mod metric {
    /// Histogram: wall-clock seconds per `suggest` call.
    pub const SUGGEST_LATENCY_S: &str = "suggest_latency_s";
    /// Histogram: wall-clock seconds per GP fit.
    pub const GP_FIT_S: &str = "gp_fit_s";
    /// Histogram: EIC evaluations per acquisition maximization.
    pub const EIC_EVALS_PER_ITER: &str = "eic_evals_per_iter";
    /// Counter: candidates rejected by the GP safe region.
    pub const SAFE_REGION_REJECTIONS: &str = "safe_region_rejections";
    /// Counter: fallback suggestions served.
    pub const FALLBACK_SUGGESTIONS: &str = "fallback_suggestions";
    /// Counter: warm-start configurations transferred into tasks.
    pub const WARM_START_HITS: &str = "warm_start_hits";
    /// Gauge: current adaptive sub-space size `K`.
    pub const SUBSPACE_K: &str = "subspace_k";
    /// Gauge: worker threads targeted by the tuner's pool.
    pub const POOL_THREADS: &str = "pool_threads";
    /// Gauge: cumulative parallel maps executed by the tuner's pool.
    pub const POOL_PARALLEL_MAPS: &str = "pool_parallel_maps";
    /// Gauge: cumulative items processed by parallel pool maps.
    pub const POOL_PARALLEL_TASKS: &str = "pool_parallel_tasks";
    /// Counter: Cholesky jitter retries paid by fitted surrogates.
    pub const CHOL_JITTER_RETRIES: &str = "chol_jitter_retries";
    /// Counter: surrogate reused as-is (history fingerprint unchanged).
    pub const SURROGATE_CACHE_HITS: &str = "surrogate_cache_hits";
    /// Counter: surrogate cache invalidated (history edited, transform
    /// changed, or no cached fit) — a full fit ran.
    pub const SURROGATE_CACHE_MISSES: &str = "surrogate_cache_misses";
    /// Counter: observations absorbed by O(n²) incremental updates.
    pub const SURROGATE_INCREMENTAL_UPDATES: &str = "surrogate_incremental_updates";
    /// Counter: full refactorizations at fixed hyperparameters, run when
    /// the cached jitter level cannot absorb an appended observation.
    pub const SURROGATE_FULL_REFITS: &str = "surrogate_full_refits";
    /// Counter: full hyperparameter re-searches (scheduled or
    /// LML-degradation triggered).
    pub const GP_HYPER_SEARCHES: &str = "gp_hyper_searches";
    /// Retired counter: base-task lookups served by a tuner's private
    /// slots, which no longer exist. Nothing records it; the name stays
    /// because the end-to-end benchmark still reports it (always 0).
    /// Base lookups are counted by [`SHARED_META_HITS`] and
    /// [`SHARED_META_MISSES`].
    pub const META_BASE_CACHE_HITS: &str = "meta_base_cache_hits";
    /// Retired counter: the misses of [`META_BASE_CACHE_HITS`]'s private
    /// slots. Nothing records it; kept for the same reason.
    pub const META_BASE_CACHE_MISSES: &str = "meta_base_cache_misses";
    /// Counter: progressive-validation weight folds served from the
    /// meta memo instead of being refitted.
    pub const META_LOO_MEMO_HITS: &str = "meta_loo_memo_hits";
    /// Counter: production runs reported as failed (OOM, `T_max` kill)
    /// and recorded as censored observations.
    pub const RUN_FAILURES: &str = "run_failures";
    /// Counter: failure-streak fallbacks to the last known-safe
    /// configuration (`τ_consec` consecutive failed runs).
    pub const FALLBACKS_TRIGGERED: &str = "fallbacks_triggered";
    /// Gauge: tasks currently registered with the fleet controller.
    pub const FLEET_TASKS: &str = "fleet_tasks";
    /// Counter: batched request/report waves executed.
    pub const FLEET_WAVES: &str = "fleet_waves";
    /// Counter: per-task suggestions served through batched waves.
    pub const FLEET_REQUESTS: &str = "fleet_requests";
    /// Counter: per-task results absorbed through batched waves.
    pub const FLEET_REPORTS: &str = "fleet_reports";
    /// Histogram: wall-clock seconds per batched fleet wave.
    pub const FLEET_WAVE_S: &str = "fleet_wave_s";
    /// Counter: base-task lookups served from a meta store (fitted once
    /// by some tuner, reused by every later lookup of the same history).
    pub const SHARED_META_HITS: &str = "shared_meta_hits";
    /// Counter: base-task lookups a meta store had to fit (each under a
    /// `base_fit` trace span).
    pub const SHARED_META_MISSES: &str = "shared_meta_misses";
    /// Counter: pairwise surrogate distances served from the shared
    /// meta store's fingerprint-keyed memo.
    pub const SHARED_DIST_HITS: &str = "shared_dist_hits";
    /// Counter: pairwise surrogate distances computed and memoized.
    pub const SHARED_DIST_MISSES: &str = "shared_dist_misses";
    /// Counter: scheduled similarity-model refits executed by the
    /// fleet controller.
    pub const SIMILARITY_REFITS: &str = "similarity_refits";
    /// Counter: warm-start injections served from the cached similarity
    /// model without retraining.
    pub const SIMILARITY_REUSES: &str = "similarity_reuses";
    /// Counter: zero-execution first suggestions served from the corpus
    /// retrieval index (a neighbor cleared the similarity threshold).
    pub const RETRIEVAL_HITS: &str = "retrieval_hits";
    /// Counter: retrieval lookups against an empty or unusable corpus
    /// (no record shares the query's feature width).
    pub const RETRIEVAL_MISSES: &str = "retrieval_misses";
    /// Counter: retrieval lookups where no neighbor cleared the
    /// similarity threshold — the tuner fell back to low-discrepancy
    /// initial design.
    pub const RETRIEVAL_FALLBACKS: &str = "retrieval_fallbacks";
    /// Gauge: records currently held by the attached tuning corpus.
    pub const CORPUS_RECORDS: &str = "corpus_records";
    /// Counter: map-phase waves completed by the job engine.
    pub const JOB_WAVES: &str = "job_waves";
    /// Counter: retries scheduled by the job engine after failed runs.
    pub const JOB_RETRIES: &str = "job_retries";
    /// Counter: tasks moved to the dead-letter queue after exhausting
    /// `max_retries` consecutive failures.
    pub const JOB_DEAD_LETTERS: &str = "job_dead_letters";
    /// Counter: campaign checkpoints appended to job journals.
    pub const JOB_CHECKPOINTS: &str = "job_checkpoints";
    /// Counter: campaign reconstructions from a job journal.
    pub const JOB_RESUMES: &str = "job_resumes";
    /// Counter: torn or corrupt job-journal lines skipped when a
    /// `JobEngine` opens its journal (`Journal::load` via `read_healed`).
    pub const JOURNAL_TORN_TAILS: &str = "journal_torn_tails";
    /// Counter: group-commit batches flushed by batched journal writers
    /// (one batch may cover many appended lines).
    pub const JOURNAL_BATCHES: &str = "journal_batches";
    /// Counter: `sync_data` calls paid by batched journal writers.
    pub const JOURNAL_FSYNCS: &str = "journal_fsyncs";
    /// Counter: payload bytes written through batched journal writers.
    pub const JOURNAL_BYTES: &str = "journal_bytes";
    /// Counter: serialized bytes of checkpoint (commit marker) events
    /// appended to job journals.
    pub const CHECKPOINT_FULL_BYTES: &str = "checkpoint_full_bytes";
    /// Counter: buffered tuning-corpus flushes (each one `sync_data`
    /// covering a batch of appended records).
    pub const CORPUS_FLUSHES: &str = "corpus_flushes";
    /// Counter: events lost by the sink (ring overwrites, I/O failures).
    /// Folded into every snapshot so losses are reported, never silent.
    pub const EVENTS_DROPPED: &str = "events_dropped";
    /// Counter: trace spans lost to the bounded trace buffer.
    pub const SPANS_DROPPED: &str = "spans_dropped";
}

/// Number of histogram buckets: 9 decades from 1e-7, 8 buckets per
/// decade, plus an overflow bucket.
const N_BUCKETS: usize = 9 * 8 + 1;

/// Lower edge of the first bucket; values at or below it land in
/// bucket 0.
const FIRST_EDGE: f64 = 1e-7;

/// Fixed-bucket histogram over `(0, +inf)`, log-spaced.
///
/// Buckets span nine decades starting at `1e-7` with eight buckets per
/// decade — fine enough that interpolated quantiles of timing data are
/// within a few percent, small enough to snapshot cheaply. Exact
/// minimum and maximum are tracked separately.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; N_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; N_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Upper edge of bucket `i` (the last bucket is unbounded).
fn bucket_edge(i: usize) -> f64 {
    FIRST_EDGE * 10f64.powf((i + 1) as f64 / 8.0)
}

/// Lower edge of bucket `i` (bucket 0 is open below).
fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        FIRST_EDGE * 10f64.powf(i as f64 / 8.0)
    }
}

fn bucket_index(value: f64) -> usize {
    if value <= FIRST_EDGE {
        return 0;
    }
    // log10(value / FIRST_EDGE) * 8 buckets per decade.
    let idx = ((value / FIRST_EDGE).log10() * 8.0).floor() as usize;
    idx.min(N_BUCKETS - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value. Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile `q` in `[0, 1]`, linearly interpolated
    /// within the covering bucket; exact min/max anchor the ends.
    /// Returns 0 for an empty histogram.
    ///
    /// Interpolation matters at bucket boundaries: a rank that lands as
    /// the first value of a bucket no longer jumps to the bucket's upper
    /// edge — it sits near the lower edge, proportional to how deep into
    /// the bucket the rank falls.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate within bucket `i`: the rank is the
                // `(rank - seen)`-th of its `c` values.
                let frac = (rank - seen) as f64 / c as f64;
                let lo = bucket_lower(i);
                let hi = if i == N_BUCKETS - 1 {
                    // The overflow bucket is unbounded; anchor on max.
                    self.max
                } else {
                    bucket_edge(i)
                };
                // Clamp into the observed range so single-bucket
                // histograms report sane quantiles.
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Freeze into a serializable summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            mean: if self.count > 0 {
                self.sum / self.count as f64
            } else {
                0.0
            },
            min: if self.count > 0 { self.min } else { 0.0 },
            p50: self.quantile(0.5),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: if self.count > 0 { self.max } else { 0.0 },
        }
    }
}

/// Serializable summary of one histogram.
///
/// `min` and `p99` default to 0 on deserialization so snapshots written
/// before they existed (older `.metrics.json` sidecars) still load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Exact minimum.
    #[serde(default)]
    pub min: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    #[serde(default)]
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

/// Serializable snapshot of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe registry of counters, gauges, and histograms.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Registry>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add to a counter (creates it at 0).
    pub fn add(&self, name: &str, by: u64) {
        let mut reg = self.inner.lock();
        *reg.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set a gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner.lock().gauges.insert(name.to_string(), value);
    }

    /// Record a histogram value.
    pub fn observe(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Freeze the registry into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.inner.lock();
        MetricsSnapshot {
            counters: reg.counters.clone(),
            gauges: reg.gauges.clone(),
            histograms: reg
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_uniform_data_are_close() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 0.001 .. 1.0
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!((p50 / 0.5 - 1.0).abs() < 0.35, "p50 = {p50}");
        assert!((p95 / 0.95 - 1.0).abs() < 0.35, "p95 = {p95}");
        assert_eq!(h.quantile(1.0), 1.0);
        assert_eq!(h.quantile(0.0), 0.001);
    }

    #[test]
    fn interpolated_quantiles_beat_bucket_edges() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0);
        }
        // With in-bucket interpolation the error budget shrinks well
        // below the old clamp-to-upper-edge behaviour (~9% bucket width).
        for (q, expect) in [(0.25, 0.25), (0.5, 0.5), (0.9, 0.9), (0.99, 0.99)] {
            let got = h.quantile(q);
            assert!(
                (got / expect - 1.0).abs() < 0.10,
                "q={q}: got {got}, expect ~{expect}"
            );
        }
    }

    #[test]
    fn snapshot_reports_exact_min_and_p99() {
        let mut h = Histogram::new();
        for i in 1..=200 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 200.0);
        assert!(s.p99 >= s.p95, "p99 {} < p95 {}", s.p99, s.p95);
        assert!((s.p99 / 198.0 - 1.0).abs() < 0.15, "p99 = {}", s.p99);
    }

    #[test]
    fn old_snapshots_without_min_p99_still_deserialize() {
        // A sidecar written before min/p99 existed.
        let old = r#"{"count":3,"sum":0.6,"mean":0.2,"p50":0.2,"p95":0.3,"max":0.3}"#;
        let s: HistogramSnapshot = serde_json::from_str(old).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0.0, "missing min defaults");
        assert_eq!(s.p99, 0.0, "missing p99 defaults");
    }

    #[test]
    fn single_value_histogram_is_degenerate() {
        let mut h = Histogram::new();
        h.record(0.25);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, 0.25);
        assert_eq!(s.p50, 0.25);
        assert_eq!(s.p95, 0.25);
        assert!((s.mean - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p95, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn extreme_values_clamp_into_end_buckets() {
        let mut h = Histogram::new();
        h.record(1e-12); // below the first edge
        h.record(1e9); // beyond the last edge
        h.record(-3.0); // negative → bucket 0
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.snapshot().max, 1e9);
    }

    #[test]
    fn registry_aggregates_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.add("c", 2);
        reg.add("c", 3);
        reg.set_gauge("g", 1.5);
        reg.set_gauge("g", 2.5);
        for v in [0.1, 0.2, 0.3] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 2.5);
        assert_eq!(snap.histograms["h"].count, 3);
        // Snapshot serializes and round-trips.
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
