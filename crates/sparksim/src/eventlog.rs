//! Structured Spark event logs.
//!
//! §5.1: meta-features are extracted from the SparkEventLog, summarizing
//! stage-level information (actions/transformations used) and task-level
//! information (read/write/CPU intensity). The simulator emits the same
//! information in structured form.

/// Aggregate task statistics within one stage.
///
/// Real Spark logs one event per task; tasks within a stage are exchangeable
/// in our model, so the simulator directly emits the per-stage aggregates
/// the meta-feature extractor would compute from them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskStats {
    /// Mean task duration in seconds.
    pub mean_duration_s: f64,
    /// Maximum task duration (straggler) in seconds.
    pub max_duration_s: f64,
    /// Fraction of task time spent in CPU work.
    pub cpu_fraction: f64,
    /// Fraction of task time spent in I/O (disk + network).
    pub io_fraction: f64,
    /// Fraction of task time spent in GC.
    pub gc_fraction: f64,
    /// Mean bytes spilled to disk per task, GB.
    pub spill_gb: f64,
    /// Mean shuffle-read bytes per task, GB.
    pub shuffle_read_gb: f64,
    /// Mean shuffle-write bytes per task, GB.
    pub shuffle_write_gb: f64,
    /// Mean input bytes per task, GB.
    pub input_gb: f64,
    /// Mean peak execution memory per task, GB.
    pub peak_memory_gb: f64,
    /// Serialization time fraction.
    pub ser_fraction: f64,
    /// Scheduler delay per task, seconds.
    pub scheduler_delay_s: f64,
}

/// One completed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageEvent {
    /// Stage id in submission order.
    pub stage_id: u32,
    /// Stage name from the workload profile.
    pub name: String,
    /// Spark operations executed (e.g. `["map", "reduceByKey"]`).
    pub operations: Vec<String>,
    /// Number of tasks (partitions).
    pub num_tasks: u32,
    /// Number of scheduling waves.
    pub waves: u32,
    /// Stage wall-clock duration in seconds.
    pub duration_s: f64,
    /// Aggregate task statistics.
    pub tasks: TaskStats,
}

/// A complete event log for one job execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventLog {
    /// Application (workload) name.
    pub app_name: String,
    /// Input data size of this run, GB.
    pub data_size_gb: f64,
    /// Executors granted.
    pub executors: u32,
    /// Cores per executor.
    pub cores_per_executor: u32,
    /// Stages in completion order (iterative stages appear once per
    /// logical stage with iteration-averaged statistics, mirroring how the
    /// meta-feature extractor of Prats et al. aggregates repeated stages).
    pub stages: Vec<StageEvent>,
}

impl EventLog {
    /// Total task count.
    pub fn total_tasks(&self) -> u32 {
        self.stages.iter().map(|s| s.num_tasks).sum()
    }

    /// Job duration (sum of stage durations; stages execute sequentially in
    /// our DAG model).
    pub fn duration_s(&self) -> f64 {
        self.stages.iter().map(|s| s.duration_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> EventLog {
        EventLog {
            app_name: "wordcount".into(),
            data_size_gb: 10.0,
            executors: 4,
            cores_per_executor: 2,
            stages: vec![
                StageEvent {
                    stage_id: 0,
                    name: "map".into(),
                    operations: vec!["flatMap".into(), "map".into()],
                    num_tasks: 80,
                    waves: 10,
                    duration_s: 120.0,
                    tasks: TaskStats {
                        mean_duration_s: 11.0,
                        max_duration_s: 15.0,
                        cpu_fraction: 0.7,
                        io_fraction: 0.2,
                        gc_fraction: 0.05,
                        spill_gb: 0.0,
                        shuffle_read_gb: 0.0,
                        shuffle_write_gb: 0.02,
                        input_gb: 0.125,
                        peak_memory_gb: 0.3,
                        ser_fraction: 0.05,
                        scheduler_delay_s: 0.02,
                    },
                },
                StageEvent {
                    stage_id: 1,
                    name: "reduce".into(),
                    operations: vec!["reduceByKey".into()],
                    num_tasks: 20,
                    waves: 3,
                    duration_s: 40.0,
                    tasks: TaskStats {
                        shuffle_read_gb: 0.08,
                        ..TaskStats::default()
                    },
                },
            ],
        }
    }

    #[test]
    fn aggregates() {
        let log = sample_log();
        assert_eq!(log.total_tasks(), 100);
        assert!((log.duration_s() - 160.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_defaults() {
        let log = EventLog::default();
        assert_eq!(log.total_tasks(), 0);
        assert_eq!(log.duration_s(), 0.0);
    }
}
