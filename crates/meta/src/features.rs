//! Meta-feature extraction from Spark event logs (§5.1).
//!
//! 75 features per task: 11 summarize stage-level information (DAG shape
//! and the Spark operations invoked), 64 summarize task-level behaviour —
//! 16 per-stage metrics aggregated with 4 statistics (mean, max, min, std)
//! across stages. Heavy-tailed magnitudes are `ln(1+x)`-compressed so the
//! similarity model sees comparable scales.

use otune_sparksim::EventLog;

/// Total number of meta-features: 11 stage-level + 16 × 4 task-level.
pub const META_FEATURE_COUNT: usize = 75;

/// Operation categories counted by the stage-level features.
const OP_CATEGORIES: [&[&str]; 9] = [
    &["map", "mapValues", "mapPartitions"],
    &["flatMap"],
    &["filter", "sample"],
    &[
        "reduceByKey",
        "combineByKey",
        "treeAggregate",
        "reduce",
        "aggregate",
    ],
    &["join", "groupByKey", "cogroup"],
    &[
        "sortByKey",
        "repartitionAndSortWithinPartitions",
        "repartition",
    ],
    &["collect", "collectAsMap", "take"],
    &["cache", "persist"],
    &[
        "textFile",
        "objectFile",
        "newAPIHadoopFile",
        "saveAsTextFile",
        "saveAsNewAPIHadoopFile",
    ],
];

/// Extract the 75-feature vector from an event log.
pub fn extract_meta_features(log: &EventLog) -> Vec<f64> {
    let mut v = Vec::with_capacity(META_FEATURE_COUNT);

    // --- Stage level (11) ---
    let n_stages = log.stages.len() as f64;
    v.push((1.0 + n_stages).ln());
    v.push((1.0 + log.total_tasks() as f64).ln());
    for cat in OP_CATEGORIES {
        let count: usize = log
            .stages
            .iter()
            .flat_map(|s| s.operations.iter())
            .filter(|op| cat.contains(&op.as_str()))
            .count();
        v.push(count as f64 / n_stages.max(1.0));
    }
    debug_assert_eq!(v.len(), 11);

    // --- Task level (16 metrics × 4 stats) ---
    let metrics: Vec<Vec<f64>> = (0..16)
        .map(|m| {
            log.stages
                .iter()
                .map(|s| {
                    let t = &s.tasks;
                    match m {
                        0 => (1.0 + t.mean_duration_s).ln(),
                        1 => (1.0 + t.max_duration_s).ln(),
                        2 => t.cpu_fraction,
                        3 => t.io_fraction,
                        4 => t.gc_fraction,
                        5 => (1.0 + t.spill_gb).ln(),
                        6 => (1.0 + t.shuffle_read_gb).ln(),
                        7 => (1.0 + t.shuffle_write_gb).ln(),
                        8 => (1.0 + t.input_gb).ln(),
                        9 => (1.0 + t.peak_memory_gb).ln(),
                        10 => t.ser_fraction,
                        11 => (1.0 + t.scheduler_delay_s).ln(),
                        12 => (1.0 + s.num_tasks as f64).ln(),
                        13 => (1.0 + s.waves as f64).ln(),
                        14 => (1.0 + s.duration_s).ln(),
                        // Shuffle intensity: write volume relative to input.
                        _ => t.shuffle_write_gb / (t.input_gb + t.shuffle_read_gb + 1e-9),
                    }
                })
                .collect()
        })
        .collect();

    for metric in &metrics {
        let (mean, max, min, std) = stats(metric);
        v.push(mean);
        v.push(max);
        v.push(min);
        v.push(std);
    }
    debug_assert_eq!(v.len(), META_FEATURE_COUNT);
    v
}

fn stats(values: &[f64]) -> (f64, f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, max, min, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{spark_space, ClusterScale};
    use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};

    fn log_for(task: HibenchTask) -> EventLog {
        let space = spark_space(ClusterScale::hibench());
        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task)).with_noise(0.0);
        job.run(&space.default_configuration(), 0).event_log
    }

    #[test]
    fn produces_exactly_75_features() {
        let v = extract_meta_features(&log_for(HibenchTask::WordCount));
        assert_eq!(v.len(), META_FEATURE_COUNT);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn different_workloads_differ_more_than_reruns() {
        let wc1 = extract_meta_features(&log_for(HibenchTask::WordCount));
        let wc2 = extract_meta_features(&log_for(HibenchTask::WordCount));
        let ts = extract_meta_features(&log_for(HibenchTask::TeraSort));
        let d_same: f64 = wc1.iter().zip(&wc2).map(|(a, b)| (a - b).abs()).sum();
        let d_diff: f64 = wc1.iter().zip(&ts).map(|(a, b)| (a - b).abs()).sum();
        assert!(d_same < 1e-9, "noiseless rerun is identical");
        assert!(d_diff > 0.5, "distinct workloads are far apart: {d_diff}");
    }

    #[test]
    fn empty_log_is_finite() {
        let v = extract_meta_features(&EventLog::default());
        assert_eq!(v.len(), META_FEATURE_COUNT);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn iterative_and_batch_tasks_distinguished_by_ops() {
        let km = extract_meta_features(&log_for(HibenchTask::KMeans));
        let wc = extract_meta_features(&log_for(HibenchTask::WordCount));
        // Cache-category feature (index 9 = 2 header + category 7) differs:
        // kmeans caches, wordcount does not.
        let cache_idx = 2 + 7;
        assert!(km[cache_idx] > 0.0);
        assert_eq!(wc[cache_idx], 0.0);
    }

    #[test]
    fn shuffle_heavy_tasks_score_high_shuffle_intensity() {
        let ts = extract_meta_features(&log_for(HibenchTask::TeraSort));
        let wc = extract_meta_features(&log_for(HibenchTask::WordCount));
        // Metric 15 (shuffle intensity), stat "mean" → feature 11 + 15*4.
        let idx = 11 + 15 * 4;
        assert!(ts[idx] > wc[idx], "{} vs {}", ts[idx], wc[idx]);
    }
}
