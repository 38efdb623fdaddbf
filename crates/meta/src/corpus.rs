//! The persistent fleet-wide tuning corpus and its k-NN retrieval index.
//!
//! Every completed observation in a fleet is one unit of meta-knowledge:
//! a (meta-feature vector, configuration, outcome, task id) record. The
//! [`TuningCorpus`] accumulates those records in an append-only JSONL
//! file — one self-describing JSON object per line, written through the
//! shared group-commit writer (one `sync_data` per line by default, one
//! per batch under a lazy [`SyncPolicy`]) — so a crash mid-append tears
//! at most the final line (or loses a staged-but-unflushed batch under
//! a lazy policy), and loading simply skips lines that do not parse.
//!
//! On top of the corpus sits the [`RetrievalIndex`]: z-score-standardized
//! k-nearest-neighbor search over the 75 meta-features. Standardization
//! statistics can be persisted *into* the corpus (a `Stats` line) so
//! distances stay scale-invariant when a corpus built on one fleet is
//! queried by another. A brand-new task whose meta-features are known —
//! e.g. extracted from the event log of its existing manual-configuration
//! production runs — gets a **zero-execution bootstrap**: the
//! distance-weighted blend of the top-k neighbors' best configurations,
//! followed by those configurations verbatim, replaces the low-discrepancy
//! burn-in points. When no neighbor clears the similarity threshold the
//! index returns nothing and the tuner falls back to the unchanged
//! low-discrepancy design.
//!
//! Determinism contract: ties in neighbor distance break on the lower
//! task index (first-seen append order), all sorting uses `total_cmp`,
//! and the blend is a fixed-order weighted sum — so retrieval output is
//! bitwise-identical across thread counts, shard counts, and platforms
//! given the same corpus file.

use otune_bo::usable_measurement;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::{metric, read_healed, BatchedWriter, SyncPolicy, Telemetry, WriterMetrics};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Default number of neighbors blended into the bootstrap design.
pub const DEFAULT_RETRIEVAL_K: usize = 3;

/// Default similarity threshold: maximum RMS per-dimension z-distance a
/// neighbor may have and still be considered "the same kind of task".
pub const DEFAULT_MAX_DISTANCE: f64 = 2.0;

/// Weight floor added to a neighbor's distance before inversion, so an
/// exact match (distance 0) dominates without dividing by zero.
const BLEND_EPS: f64 = 1e-6;

/// Floor applied to standardization deviations so constant features do
/// not blow up distances.
const STD_FLOOR: f64 = 1e-9;

/// One corpus record: a completed production execution of `config` on
/// the task described by `meta_features`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusRecord {
    /// The task the execution belonged to.
    pub task_id: String,
    /// The task's meta-feature vector (75 in production; any width loads).
    pub meta_features: Vec<f64>,
    /// The configuration that was executed.
    pub config: Configuration,
    /// Combined objective value `T^β · R^(1−β)`.
    pub objective: f64,
    /// Measured runtime in seconds.
    pub runtime: f64,
    /// Measured resource consumption.
    pub resource: f64,
    /// Whether the run violated its constraints (failed records are kept
    /// for completeness but never retrieved).
    #[serde(default)]
    pub failed: bool,
}

impl CorpusRecord {
    /// Reject a record that would not read back as written: `objective`,
    /// `runtime` and `resource` must pass [`usable_measurement`], and
    /// every meta-feature must be finite. JSON cannot hold `inf` or
    /// `NaN`, so the file would keep such a record as an unparseable
    /// line.
    fn check(&self) -> io::Result<()> {
        let measurements = [
            ("objective", self.objective),
            ("runtime", self.runtime),
            ("resource", self.resource),
        ];
        let bad = measurements
            .into_iter()
            .find(|&(_, v)| !usable_measurement(v, self.failed))
            .or_else(|| {
                let v = self.meta_features.iter().find(|v| !v.is_finite());
                v.map(|&v| ("meta_features", v))
            });
        match bad {
            Some((field, value)) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("corpus record `{field}` holds unusable value {value}"),
            )),
            None => Ok(()),
        }
    }
}

/// Persisted standardization statistics: per-dimension mean and standard
/// deviation of the meta-features, plus the record count they summarize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Per-dimension mean.
    pub mean: Vec<f64>,
    /// Per-dimension standard deviation (floored at `1e-9` on use).
    pub std: Vec<f64>,
    /// Number of records the statistics were computed over.
    pub n: usize,
}

/// One line of the corpus file, externally tagged so the format is
/// self-describing and extensible.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum CorpusLine {
    /// Standardization statistics (the newest line wins).
    Stats(CorpusStats),
    /// One execution record.
    Record(CorpusRecord),
}

/// Append-only, torn-write-tolerant store of tuning outcomes.
///
/// Appends go through the shared group-commit writer
/// ([`otune_telemetry::BatchedWriter`]): under the default
/// [`SyncPolicy::Every`] each record is fsynced before `append` returns
/// (the legacy cadence); a fleet can switch to `batch:N`/`barrier` via
/// [`TuningCorpus::set_sync_policy`] so the per-observation hot path
/// stages records in memory and a single `sync_data` at
/// [`TuningCorpus::flush`] (called at checkpoints and when stats are
/// persisted) covers the whole batch.
#[derive(Debug, Default)]
pub struct TuningCorpus {
    path: Option<PathBuf>,
    records: Vec<CorpusRecord>,
    stats: Option<CorpusStats>,
    torn: usize,
    /// Sync cadence for appends (writer is rebuilt when it changes).
    policy: SyncPolicy,
    /// Flush counters attached to the writer ([`metric::CORPUS_FLUSHES`]).
    metrics: WriterMetrics,
    /// Lazily opened on first file-backed append; heals a torn tail
    /// before the first line it writes.
    writer: Option<BatchedWriter>,
}

impl TuningCorpus {
    /// An empty corpus with no backing file (appends stay in memory).
    pub fn in_memory() -> Self {
        TuningCorpus::default()
    }

    /// Open (or create) a corpus backed by `path`. Lines that fail to
    /// parse — a torn tail from a crashed append, or junk — are counted
    /// and skipped, never fatal. A missing file is an empty corpus.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut corpus = TuningCorpus {
            path: Some(path.clone()),
            ..TuningCorpus::default()
        };
        let healed = match read_healed::<CorpusLine>(&path) {
            Ok(h) => h,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(corpus),
            Err(e) => return Err(e),
        };
        corpus.torn = healed.torn_lines as usize;
        for line in healed.items {
            match line {
                CorpusLine::Record(r) => corpus.records.push(r),
                // The newest stats line wins: `persist_stats` appends a
                // fresh one as the corpus grows.
                CorpusLine::Stats(s) => corpus.stats = Some(s),
            }
        }
        Ok(corpus)
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of loaded records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the corpus holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Lines skipped at load because they did not parse.
    pub fn torn_lines(&self) -> usize {
        self.torn
    }

    /// All records, in append order.
    pub fn records(&self) -> &[CorpusRecord] {
        &self.records
    }

    /// Distinct task ids, in first-seen order.
    pub fn n_tasks(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.records
            .iter()
            .filter(|r| seen.insert(r.task_id.as_str()))
            .count()
    }

    /// Switch the sync cadence for future appends. Any staged batch is
    /// flushed first so no record silently changes durability class.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) -> io::Result<()> {
        if policy != self.policy {
            self.flush()?;
            self.writer = None;
            self.policy = policy;
        }
        Ok(())
    }

    /// Attach telemetry: each non-empty flushed batch bumps
    /// [`metric::CORPUS_FLUSHES`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = WriterMetrics {
            telemetry,
            batches: Some(metric::CORPUS_FLUSHES),
            fsyncs: None,
            bytes: None,
        };
        if let Some(w) = &mut self.writer {
            w.set_metrics(self.metrics.clone());
        }
    }

    /// Append one record. Under the default [`SyncPolicy::Every`] the
    /// JSONL line is written and `sync_data`d before returning, so at
    /// most the final line can tear on a crash; lazier policies stage
    /// the line until the batch fills or [`TuningCorpus::flush`].
    ///
    /// A record with a non-finite or out-of-range value is rejected with
    /// [`io::ErrorKind::InvalidInput`] naming the field, before anything
    /// is written or recorded.
    pub fn append(&mut self, record: CorpusRecord) -> io::Result<()> {
        record.check()?;
        self.write(&CorpusLine::Record(record.clone()))?;
        self.records.push(record);
        Ok(())
    }

    /// Sync barrier: every appended record is durable when this returns.
    /// Free when nothing is staged (so the default `every` policy pays
    /// no extra fsyncs).
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(w) = &mut self.writer {
            w.barrier()?;
        }
        Ok(())
    }

    /// Records staged in memory but not yet flushed (0 under `every`).
    pub fn pending_lines(&self) -> usize {
        self.writer.as_ref().map_or(0, |w| w.pending_lines())
    }

    /// Append one line through the group-commit writer (healing a torn
    /// tail first). In-memory corpora skip the file entirely.
    fn write(&mut self, line: &CorpusLine) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let text = serde_json::to_string(line).map_err(io::Error::other)?;
        let writer = match &mut self.writer {
            Some(w) => w,
            None => {
                let w = BatchedWriter::open(path, self.policy)?.with_metrics(self.metrics.clone());
                self.writer.insert(w)
            }
        };
        writer.append_line(&text)?;
        Ok(())
    }

    /// The active standardization statistics: the persisted ones when
    /// their width matches `dim`, else freshly computed over the records
    /// of that width. `None` when no record has that width.
    pub fn stats_for(&self, dim: usize) -> Option<CorpusStats> {
        match &self.stats {
            Some(s) if s.mean.len() == dim && s.std.len() == dim => Some(s.clone()),
            _ => self.compute_stats(dim),
        }
    }

    /// Compute standardization statistics over the records whose
    /// meta-feature width is `dim`.
    ///
    /// Column values are sorted (`total_cmp`) before summation, so the
    /// statistics are bitwise-independent of record order — a corpus
    /// built by interleaved fleet shards standardizes identically to a
    /// sequentially built one.
    pub fn compute_stats(&self, dim: usize) -> Option<CorpusStats> {
        let rows: Vec<&[f64]> = self
            .records
            .iter()
            .filter(|r| r.meta_features.len() == dim)
            .map(|r| r.meta_features.as_slice())
            .collect();
        if rows.is_empty() {
            return None;
        }
        let n = rows.len() as f64;
        let mut mean = vec![0.0; dim];
        let mut std = vec![0.0; dim];
        let mut column = Vec::with_capacity(rows.len());
        for d in 0..dim {
            column.clear();
            column.extend(rows.iter().map(|r| r[d]));
            column.sort_by(f64::total_cmp);
            mean[d] = column.iter().sum::<f64>() / n;
            std[d] = (column
                .iter()
                .map(|x| (x - mean[d]) * (x - mean[d]))
                .sum::<f64>()
                / n)
                .sqrt();
        }
        Some(CorpusStats {
            mean,
            std,
            n: rows.len(),
        })
    }

    /// Compute fresh statistics over the dominant feature width and
    /// persist them as a `Stats` line, so another fleet loading this file
    /// standardizes distances identically. Returns the persisted stats
    /// (`None` on an empty corpus).
    pub fn persist_stats(&mut self) -> io::Result<Option<CorpusStats>> {
        let Some(dim) = self.dominant_width() else {
            return Ok(None);
        };
        let stats = self.compute_stats(dim).expect("width has records");
        self.write(&CorpusLine::Stats(stats.clone()))?;
        // Persisting stats is a durability barrier: the stats line and
        // every record staged before it land together.
        self.flush()?;
        self.stats = Some(stats.clone());
        Ok(Some(stats))
    }

    /// The most common meta-feature width across records (ties break on
    /// the smaller width for determinism).
    pub fn dominant_width(&self) -> Option<usize> {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for r in &self.records {
            *counts.entry(r.meta_features.len()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(w, _)| w)
    }

    /// Build the retrieval index for queries of width `dim`. The index
    /// holds one point per task — its best feasible configuration — and
    /// the corpus' standardization statistics for that width.
    pub fn index_for(&self, dim: usize) -> RetrievalIndex {
        let mut order: Vec<TaskPoint> = Vec::new();
        let mut by_task: HashMap<&str, usize> = HashMap::new();
        for r in &self.records {
            if r.failed || r.meta_features.len() != dim || !r.objective.is_finite() {
                continue;
            }
            match by_task.get(r.task_id.as_str()) {
                Some(&i) => {
                    // Strict `<` keeps the earliest record on ties: the
                    // index is independent of scan direction.
                    if r.objective < order[i].objective {
                        order[i].features = r.meta_features.clone();
                        order[i].config = r.config.clone();
                        order[i].objective = r.objective;
                    }
                }
                None => {
                    by_task.insert(r.task_id.as_str(), order.len());
                    order.push(TaskPoint {
                        task_id: r.task_id.clone(),
                        features: r.meta_features.clone(),
                        config: r.config.clone(),
                        objective: r.objective,
                    });
                }
            }
        }
        // Fleet shards append in nondeterministic cross-task order; sorting
        // by task id makes the index (and its `nearest` tie-breaking)
        // bitwise-independent of how the corpus was interleaved.
        order.sort_by(|a, b| a.task_id.cmp(&b.task_id));
        let stats = self.stats_for(dim).unwrap_or(CorpusStats {
            mean: vec![0.0; dim],
            std: vec![1.0; dim],
            n: 0,
        });
        RetrievalIndex {
            dim,
            mean: stats.mean,
            std: stats.std,
            points: order,
        }
    }
}

/// One task's aggregated entry in the retrieval index.
#[derive(Debug, Clone)]
pub struct TaskPoint {
    /// The source task.
    pub task_id: String,
    /// Its meta-feature vector.
    pub features: Vec<f64>,
    /// Its best feasible configuration.
    pub config: Configuration,
    /// The objective that configuration achieved.
    pub objective: f64,
}

/// One retrieved neighbor.
#[derive(Debug, Clone)]
pub struct Retrieved<'a> {
    /// The neighbor's index entry.
    pub point: &'a TaskPoint,
    /// RMS per-dimension z-score distance to the query.
    pub distance: f64,
}

/// z-score-standardized k-NN over corpus meta-features.
#[derive(Debug, Clone)]
pub struct RetrievalIndex {
    dim: usize,
    mean: Vec<f64>,
    std: Vec<f64>,
    points: Vec<TaskPoint>,
}

impl RetrievalIndex {
    /// Feature width the index answers queries for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of task points in the index.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// RMS per-dimension z-score distance between `query` and `features`.
    ///
    /// Constant feature columns (std at or below the floor) carry no
    /// similarity signal across the corpus — a fleet that shares, say,
    /// one cluster size pins dozens of the 75 features — so they are
    /// excluded instead of letting the floored deviation amplify any
    /// query offset by ~1e9 and drown the informative dimensions.
    fn distance(&self, query: &[f64], features: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut informative = 0usize;
        for i in 0..self.dim {
            let s = self.std[i];
            // The floor is relative to the column mean: summing a
            // constant column leaves rounding noise (~1e-17 · mean) in
            // the deviation, which is just as uninformative as exactly
            // zero.
            if s <= STD_FLOOR.max(self.mean[i].abs() * 1e-12) {
                continue;
            }
            let dz = (query[i] - self.mean[i]) / s - (features[i] - self.mean[i]) / s;
            sum += dz * dz;
            informative += 1;
        }
        // An all-constant corpus makes every task an exact neighbor.
        (sum / informative.max(1) as f64).sqrt()
    }

    /// The `k` nearest task points to `query`, ascending by distance.
    /// Ties break on the lower task index (first-seen corpus order), so
    /// the result is deterministic across platforms and thread counts.
    /// Empty when the query width does not match the index.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<Retrieved<'_>> {
        if query.len() != self.dim || k == 0 {
            return Vec::new();
        }
        let mut scored: Vec<(f64, usize)> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (self.distance(query, &p.features), i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored
            .into_iter()
            .take(k)
            .map(|(distance, i)| Retrieved {
                point: &self.points[i],
                distance,
            })
            .collect()
    }

    /// The zero-execution bootstrap design: the distance-weighted blend
    /// of the top-`k` neighbors' best configurations first, then those
    /// configurations verbatim (deduplicated), truncated to `k` entries.
    /// `None` when no neighbor's distance clears `max_distance` — the
    /// caller falls back to the unchanged low-discrepancy design.
    pub fn bootstrap(
        &self,
        space: &ConfigSpace,
        query: &[f64],
        k: usize,
        max_distance: f64,
    ) -> Option<Vec<Configuration>> {
        let neighbors: Vec<Retrieved> = self
            .nearest(query, k)
            .into_iter()
            .filter(|r| r.distance <= max_distance)
            .collect();
        if neighbors.is_empty() {
            return None;
        }
        // Distance-weighted blend in the encoded unit cube: numeric
        // dimensions average smoothly, discrete dimensions resolve by
        // nearest valid value on decode.
        let mut acc = vec![0.0; space.len()];
        let mut total = 0.0;
        for r in &neighbors {
            let w = 1.0 / (r.distance + BLEND_EPS);
            for (a, x) in acc.iter_mut().zip(space.encode(&r.point.config)) {
                *a += w * x;
            }
            total += w;
        }
        for a in &mut acc {
            *a /= total;
        }
        let mut out = vec![space.decode(&acc)];
        let mut seen: Vec<String> = vec![out[0].dedup_key()];
        for r in &neighbors {
            if out.len() >= k {
                break;
            }
            let key = r.point.config.dedup_key();
            if !seen.contains(&key) {
                seen.push(key);
                out.push(r.point.config.clone());
            }
        }
        Some(out)
    }

    /// [`RetrievalIndex::bootstrap`] with telemetry: a `retrieval` trace
    /// span plus hit/miss/fallback counters. Returns an empty design on
    /// miss (unusable index) or fallback (no neighbor close enough).
    pub fn bootstrap_with(
        &self,
        space: &ConfigSpace,
        query: &[f64],
        k: usize,
        max_distance: f64,
        telemetry: &Telemetry,
    ) -> Vec<Configuration> {
        let _trace = telemetry.trace_span("retrieval");
        if self.points.is_empty() || query.len() != self.dim {
            telemetry.incr(metric::RETRIEVAL_MISSES);
            return Vec::new();
        }
        match self.bootstrap(space, query, k, max_distance) {
            Some(configs) => {
                telemetry.incr(metric::RETRIEVAL_HITS);
                configs
            }
            None => {
                telemetry.incr(metric::RETRIEVAL_FALLBACKS);
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::Parameter;
    use proptest::prelude::*;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::float("alpha", 0.0, 1.0, 0.5),
            Parameter::int("cores", 1, 16, 4),
        ])
    }

    fn record(task: &str, features: Vec<f64>, alpha: f64, cores: i64, obj: f64) -> CorpusRecord {
        let space = space();
        let mut config = space.default_configuration();
        config.set(0, otune_space::ParamValue::Float(alpha));
        config.set(1, otune_space::ParamValue::Int(cores));
        CorpusRecord {
            task_id: task.to_string(),
            meta_features: features,
            config,
            objective: obj,
            runtime: obj,
            resource: 1.0,
            failed: false,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("otune-corpus-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("corpus.jsonl")
    }

    #[test]
    fn round_trips_records_through_file() {
        let path = tmp("roundtrip");
        let mut c = TuningCorpus::open(&path).unwrap();
        c.append(record("a", vec![0.0, 0.0], 0.2, 2, 10.0)).unwrap();
        c.append(record("b", vec![1.0, 1.0], 0.8, 8, 5.0)).unwrap();
        let back = TuningCorpus::open(&path).unwrap();
        assert_eq!(back.records(), c.records());
        assert_eq!(back.torn_lines(), 0);
        assert_eq!(back.n_tasks(), 2);
    }

    #[test]
    fn torn_tail_and_junk_are_skipped() {
        let path = tmp("torn");
        let mut c = TuningCorpus::open(&path).unwrap();
        c.append(record("a", vec![0.0], 0.2, 2, 10.0)).unwrap();
        c.append(record("b", vec![1.0], 0.8, 8, 5.0)).unwrap();
        // Tear the final line mid-record and add junk.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 25];
        std::fs::write(&path, format!("not json\n{torn}")).unwrap();
        let back = TuningCorpus::open(&path).unwrap();
        assert_eq!(back.len(), 1, "intact record survives");
        assert_eq!(back.records()[0].task_id, "a");
        assert_eq!(back.torn_lines(), 2, "junk + torn tail counted");
        // The reopened corpus still appends durably.
        let mut back = back;
        back.append(record("c", vec![2.0], 0.5, 4, 7.0)).unwrap();
        assert_eq!(TuningCorpus::open(&path).unwrap().len(), 2);

        // Byte-level damage costs exactly its line, never the file: a
        // 0xFF byte inside a task id mid-file, and a tail torn inside a
        // non-ASCII task id.
        let line = |task: &str| {
            let r = record(task, vec![0.0], 0.2, 2, 1.0);
            serde_json::to_vec(&CorpusLine::Record(r)).unwrap()
        };
        let mut bad = line("bad");
        let at = bad.windows(3).position(|w| w == b"bad").unwrap();
        bad[at + 1] = 0xFF;
        let mut torn = line("tâche");
        torn.truncate(torn.iter().position(|&b| b == 0xC3).unwrap() + 1);
        let (a, b) = (line("a"), line("b"));
        for lines in [[&a, &bad, &b], [&a, &b, &torn]] {
            std::fs::write(&path, lines.map(Vec::as_slice).join(&b'\n')).unwrap();
            let back = TuningCorpus::open(&path).unwrap();
            let tasks: Vec<&str> = back.records().iter().map(|r| r.task_id.as_str()).collect();
            assert_eq!(tasks, ["a", "b"]);
            assert_eq!(back.torn_lines(), 1);
        }
    }

    #[test]
    fn unreadable_records_are_rejected_before_anything_is_written() {
        let path = tmp("reject");
        let valid = || record("a", vec![0.0, 1.0], 0.2, 2, 10.0);
        let bad = [
            (
                "runtime",
                CorpusRecord {
                    runtime: f64::NAN,
                    ..valid()
                },
            ),
            (
                "resource",
                CorpusRecord {
                    meta_features: vec![f64::INFINITY, 1.0],
                    resource: -3.0,
                    ..valid()
                },
            ),
            (
                "meta_features",
                CorpusRecord {
                    meta_features: vec![0.0, f64::NEG_INFINITY],
                    ..valid()
                },
            ),
            (
                "objective",
                CorpusRecord {
                    objective: 0.0,
                    ..valid()
                },
            ),
        ];
        for mut corpus in [
            TuningCorpus::open(&path).unwrap(),
            TuningCorpus::in_memory(),
        ] {
            corpus.append(valid()).unwrap();
            for (field, record) in bad.iter().cloned() {
                let err = corpus.append(record).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
                assert!(err.to_string().contains(field), "{field}: {err}");
            }
            assert_eq!(corpus.records(), [valid()]);
            // A killed run may report zero partial runtime and resource.
            let killed = CorpusRecord {
                objective: 0.0,
                runtime: 0.0,
                resource: 0.0,
                failed: true,
                ..valid()
            };
            corpus.append(killed).unwrap();
            assert_eq!(corpus.len(), 2);
        }
        let back = TuningCorpus::open(&path).unwrap();
        assert_eq!((back.len(), back.torn_lines()), (2, 0));
    }

    #[test]
    fn missing_file_is_empty_corpus() {
        let path = tmp("missing");
        let c = TuningCorpus::open(path.join("nope.jsonl")).unwrap_or_else(|_| {
            // Parent dir missing is also fine via NotFound.
            TuningCorpus::in_memory()
        });
        assert!(c.is_empty());
    }

    #[test]
    fn persisted_stats_win_over_recomputation() {
        let path = tmp("stats");
        let mut c = TuningCorpus::open(&path).unwrap();
        c.append(record("a", vec![0.0, 0.0], 0.2, 2, 10.0)).unwrap();
        c.append(record("b", vec![2.0, 4.0], 0.8, 8, 5.0)).unwrap();
        let stats = c.persist_stats().unwrap().unwrap();
        assert_eq!(stats.mean, vec![1.0, 2.0]);
        assert_eq!(stats.n, 2);
        // Append more records: the persisted line still governs until
        // stats are re-persisted.
        c.append(record("c", vec![100.0, 100.0], 0.5, 4, 7.0))
            .unwrap();
        let back = TuningCorpus::open(&path).unwrap();
        assert_eq!(back.stats_for(2).unwrap().mean, vec![1.0, 2.0]);
        // A width the stats line does not cover recomputes.
        assert!(back.stats_for(3).is_none());
    }

    #[test]
    fn nearest_is_sorted_with_deterministic_ties() {
        let mut c = TuningCorpus::in_memory();
        // Two tasks at identical features: tie must break on first-seen.
        c.append(record("far", vec![9.0, 9.0], 0.9, 16, 1.0))
            .unwrap();
        c.append(record("tie-1", vec![1.0, 1.0], 0.2, 2, 2.0))
            .unwrap();
        c.append(record("tie-2", vec![1.0, 1.0], 0.8, 8, 3.0))
            .unwrap();
        let idx = c.index_for(2);
        let near = idx.nearest(&[1.0, 1.0], 3);
        assert_eq!(near[0].point.task_id, "tie-1");
        assert_eq!(near[1].point.task_id, "tie-2");
        assert_eq!(near[2].point.task_id, "far");
        assert_eq!(near[0].distance.to_bits(), near[1].distance.to_bits());
    }

    #[test]
    fn index_keeps_best_feasible_record_per_task() {
        let mut c = TuningCorpus::in_memory();
        c.append(record("a", vec![0.0], 0.1, 1, 10.0)).unwrap();
        c.append(record("a", vec![0.0], 0.9, 9, 4.0)).unwrap();
        let mut failed = record("a", vec![0.0], 0.5, 5, 1.0);
        failed.failed = true;
        c.append(failed).unwrap();
        let idx = c.index_for(1);
        assert_eq!(idx.len(), 1);
        let near = idx.nearest(&[0.0], 1);
        assert_eq!(near[0].point.objective, 4.0, "best non-failed wins");
    }

    #[test]
    fn bootstrap_blends_and_falls_back() {
        let s = space();
        let mut c = TuningCorpus::in_memory();
        c.append(record("a", vec![0.0, 0.0], 0.2, 2, 5.0)).unwrap();
        c.append(record("b", vec![0.1, 0.1], 0.4, 4, 5.0)).unwrap();
        let idx = c.index_for(2);
        let boot = idx.bootstrap(&s, &[0.05, 0.05], 3, 10.0).unwrap();
        assert!(!boot.is_empty() && boot.len() <= 3);
        // The blend lands between the neighbors on the float dim.
        let alpha = boot[0][0].as_float().unwrap();
        assert!((0.2..=0.4).contains(&alpha), "blend alpha {alpha}");
        for cfg in &boot {
            assert!(s.validate(cfg).is_ok());
        }
        // A far-away query clears no neighbor: fallback.
        assert!(idx.bootstrap(&s, &[500.0, 500.0], 3, 2.0).is_none());
        // Width mismatch yields nothing.
        assert!(idx.nearest(&[0.0], 3).is_empty());
    }

    #[test]
    fn bootstrap_with_counts_hits_misses_and_fallbacks() {
        let s = space();
        let tm = Telemetry::new(Box::new(otune_telemetry::NullSink));
        let empty = TuningCorpus::in_memory().index_for(2);
        assert!(empty
            .bootstrap_with(&s, &[0.0, 0.0], 3, 2.0, &tm)
            .is_empty());
        let mut c = TuningCorpus::in_memory();
        c.append(record("a", vec![0.0, 0.0], 0.2, 2, 5.0)).unwrap();
        c.append(record("b", vec![1.0, 1.0], 0.4, 4, 6.0)).unwrap();
        let idx = c.index_for(2);
        assert!(!idx.bootstrap_with(&s, &[0.0, 0.0], 3, 2.0, &tm).is_empty());
        assert!(idx
            .bootstrap_with(&s, &[99.0, 99.0], 3, 2.0, &tm)
            .is_empty());
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::RETRIEVAL_MISSES], 1);
        assert_eq!(snap.counters[metric::RETRIEVAL_HITS], 1);
        assert_eq!(snap.counters[metric::RETRIEVAL_FALLBACKS], 1);
    }

    #[test]
    fn constant_feature_columns_carry_no_distance() {
        let s = space();
        let mut c = TuningCorpus::in_memory();
        // Column 0 is constant fleet-wide (say, a fixed cluster size);
        // only column 1 distinguishes the tasks.
        c.append(record("a", vec![7.0, 0.0], 0.2, 2, 5.0)).unwrap();
        c.append(record("b", vec![7.0, 1.0], 0.8, 12, 6.0)).unwrap();
        let idx = c.index_for(2);
        // A query off the constant column must not be amplified into a
        // fallback: similarity is decided by the informative column.
        let near = idx.nearest(&[3.0, 0.0], 1);
        assert_eq!(near[0].point.task_id, "a");
        assert_eq!(near[0].distance, 0.0);
        assert!(!idx
            .bootstrap(&s, &[3.0, 0.0], 1, DEFAULT_MAX_DISTANCE)
            .unwrap()
            .is_empty());
        // Degenerate all-constant corpus: every task is an exact
        // neighbor rather than an unreachable one.
        let mut all_const = TuningCorpus::in_memory();
        all_const
            .append(record("only", vec![7.0, 7.0], 0.2, 2, 5.0))
            .unwrap();
        let idx = all_const.index_for(2);
        assert_eq!(idx.nearest(&[99.0, 99.0], 1)[0].distance, 0.0);
    }

    #[test]
    fn exact_match_query_returns_the_matching_config_first() {
        let s = space();
        let mut c = TuningCorpus::in_memory();
        c.append(record("a", vec![0.0, 0.0], 0.25, 2, 5.0)).unwrap();
        c.append(record("b", vec![5.0, 5.0], 0.75, 12, 5.0))
            .unwrap();
        let idx = c.index_for(2);
        let boot = idx.bootstrap(&s, &[0.0, 0.0], 1, 2.0).unwrap();
        // k=1: the blend of a single neighbor decodes back to (almost)
        // its config; the int dim must match exactly.
        assert_eq!(boot.len(), 1);
        assert_eq!(boot[0][1].as_int().unwrap(), 2);
        assert!((boot[0][0].as_float().unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn batch_policy_stages_appends_until_flush() {
        let path = tmp("batchpolicy");
        let mut c = TuningCorpus::open(&path).unwrap();
        c.set_sync_policy(SyncPolicy::Batch(8)).unwrap();
        c.append(record("a", vec![0.0], 0.2, 2, 10.0)).unwrap();
        c.append(record("b", vec![1.0], 0.8, 8, 5.0)).unwrap();
        assert_eq!(c.pending_lines(), 2, "hot path stays in memory");
        assert!(TuningCorpus::open(&path).unwrap().is_empty());
        c.flush().unwrap();
        assert_eq!(c.pending_lines(), 0);
        assert_eq!(TuningCorpus::open(&path).unwrap().len(), 2);
    }

    #[test]
    fn persist_stats_is_a_flush_barrier() {
        let path = tmp("statsbarrier");
        let mut c = TuningCorpus::open(&path).unwrap();
        c.set_sync_policy(SyncPolicy::Barrier).unwrap();
        c.append(record("a", vec![0.0, 0.0], 0.2, 2, 10.0)).unwrap();
        c.append(record("b", vec![2.0, 4.0], 0.8, 8, 5.0)).unwrap();
        assert!(TuningCorpus::open(&path).unwrap().is_empty());
        c.persist_stats().unwrap().unwrap();
        let back = TuningCorpus::open(&path).unwrap();
        assert_eq!(back.len(), 2, "staged records landed with the stats line");
        assert_eq!(back.stats_for(2).unwrap().mean, vec![1.0, 2.0]);
    }

    #[test]
    fn corpus_flushes_counter_tracks_batches() {
        let path = tmp("flushcounter");
        let (tm, _sink) = Telemetry::ring(16);
        let mut c = TuningCorpus::open(&path).unwrap();
        c.set_sync_policy(SyncPolicy::Batch(2)).unwrap();
        c.set_telemetry(tm.clone());
        for i in 0..4 {
            c.append(record(&format!("t{i}"), vec![i as f64], 0.5, 4, 1.0))
                .unwrap();
        }
        c.flush().unwrap(); // empty: free
        let snap = tm.snapshot().unwrap();
        assert_eq!(snap.counters[metric::CORPUS_FLUSHES], 2, "two full batches");
    }

    #[test]
    fn changing_policy_flushes_the_staged_batch_first() {
        let path = tmp("policyswap");
        let mut c = TuningCorpus::open(&path).unwrap();
        c.set_sync_policy(SyncPolicy::Barrier).unwrap();
        c.append(record("a", vec![0.0], 0.2, 2, 10.0)).unwrap();
        c.set_sync_policy(SyncPolicy::Every).unwrap();
        assert_eq!(
            TuningCorpus::open(&path).unwrap().len(),
            1,
            "no record silently changes durability class"
        );
    }

    proptest! {
        /// Any sequence of appended records survives a file round-trip.
        #[test]
        fn prop_corpus_round_trips(
            recs in proptest::collection::vec(
                (0u8..5, proptest::collection::vec(-10.0f64..10.0, 1..4),
                 0.0f64..1.0, 1i64..16, 0.1f64..100.0, any::<bool>()),
                0..20,
            )
        ) {
            let path = tmp(&format!("prop-{}", recs.len()));
            let _ = std::fs::remove_file(&path);
            let mut c = TuningCorpus::open(&path).unwrap();
            for (t, f, a, n, o, failed) in recs {
                let mut r = record(&format!("t{t}"), f, a, n, o);
                r.failed = failed;
                c.append(r).unwrap();
            }
            let back = TuningCorpus::open(&path).unwrap();
            prop_assert_eq!(back.records(), c.records());
            prop_assert_eq!(back.torn_lines(), 0);
        }

        /// Truncating the file at any byte never panics, loses at most
        /// the torn final line, and keeps every earlier record intact.
        #[test]
        fn prop_truncation_tolerated(cut in 0usize..2000) {
            let path = tmp(&format!("cut-{cut}"));
            let _ = std::fs::remove_file(&path);
            let mut c = TuningCorpus::open(&path).unwrap();
            for i in 0..6 {
                c.append(record(&format!("t{i}"), vec![i as f64], 0.5, 4, 1.0 + i as f64))
                    .unwrap();
            }
            let bytes = std::fs::read(&path).unwrap();
            let cut = cut.min(bytes.len());
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let back = TuningCorpus::open(&path).unwrap();
            prop_assert!(back.len() <= 6);
            prop_assert!(back.torn_lines() <= 1);
            for (got, want) in back.records().iter().zip(c.records()) {
                prop_assert_eq!(got, want);
            }
            prop_assert!(back.len() + back.torn_lines() + 1 >= bytes[..cut].iter().filter(|&&b| b == b'\n').count());
        }

        /// Retrieval is a pure function: rebuilding the index from the
        /// same corpus yields bitwise-identical bootstrap designs.
        #[test]
        fn prop_retrieval_deterministic(
            feats in proptest::collection::vec(
                proptest::collection::vec(-5.0f64..5.0, 2),
                1..12,
            ),
            q in proptest::collection::vec(-5.0f64..5.0, 2),
        ) {
            let s = space();
            let mut c = TuningCorpus::in_memory();
            for (i, f) in feats.iter().enumerate() {
                c.append(record(&format!("t{i}"), f.clone(), 0.1 + 0.05 * (i % 10) as f64, 1 + (i % 8) as i64, 1.0 + i as f64)).unwrap();
            }
            let a = c.index_for(2).bootstrap(&s, &q, 3, f64::INFINITY).unwrap();
            let b = c.index_for(2).bootstrap(&s, &q, 3, f64::INFINITY).unwrap();
            let enc = |cfgs: &[Configuration]| -> Vec<Vec<u64>> {
                cfgs.iter().map(|c| s.encode(c).iter().map(|v| v.to_bits()).collect()).collect()
            };
            prop_assert_eq!(enc(&a), enc(&b));
        }
    }
}
