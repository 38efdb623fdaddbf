//! Workload profiles: the shape of a Spark job.

/// One stage of a job's DAG, with the coefficients that drive the cost
/// model in [`engine`](crate::engine).
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Human-readable stage name (e.g. `"map"`, `"reduceByKey"`).
    pub name: String,
    /// Spark operations executed in this stage — recorded into the event
    /// log for meta-feature extraction (e.g. `["flatMap", "map"]`).
    pub operations: Vec<String>,
    /// Fraction of the job's input read by this stage from storage
    /// (0 for pure shuffle stages).
    pub input_frac: f64,
    /// Bytes shuffled out, as a fraction of the stage's processed bytes.
    pub shuffle_write_frac: f64,
    /// CPU seconds per GB per reference core (workload intensity).
    pub cpu_per_gb: f64,
    /// In-memory expansion of a task's working set relative to its input
    /// bytes (Java object overhead, hash tables, sort buffers).
    pub mem_expansion: f64,
    /// Task-size imbalance: 0 = perfectly even, 1 = heavy skew.
    pub skew: f64,
    /// Whether this stage's output is cached and reused by iterations.
    pub cacheable: bool,
}

impl StageProfile {
    /// A conventional map-style stage reading `input_frac` of the input.
    pub fn map(name: &str, input_frac: f64, cpu_per_gb: f64, shuffle_write_frac: f64) -> Self {
        StageProfile {
            name: name.to_string(),
            operations: vec!["map".into()],
            input_frac,
            shuffle_write_frac,
            cpu_per_gb,
            mem_expansion: 1.5,
            skew: 0.1,
            cacheable: false,
        }
    }

    /// A reduce-style stage consuming the previous stage's shuffle output.
    pub fn reduce(name: &str, cpu_per_gb: f64, shuffle_write_frac: f64) -> Self {
        StageProfile {
            name: name.to_string(),
            operations: vec!["reduceByKey".into()],
            input_frac: 0.0,
            shuffle_write_frac,
            cpu_per_gb,
            mem_expansion: 2.0,
            skew: 0.2,
            cacheable: false,
        }
    }

    /// Builder-style skew override.
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }

    /// Builder-style memory-expansion override.
    pub fn with_expansion(mut self, expansion: f64) -> Self {
        self.mem_expansion = expansion;
        self
    }

    /// Builder-style cacheable flag.
    pub fn cached(mut self) -> Self {
        self.cacheable = true;
        self
    }

    /// Builder-style operations override.
    pub fn with_operations(mut self, ops: &[&str]) -> Self {
        self.operations = ops.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// A complete workload: the unit a tuning task optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (e.g. `"terasort"`).
    pub name: String,
    /// Baseline input size in GB (scaled by the per-period data-size model).
    pub input_gb: f64,
    /// DAG stages in execution order. Stage `i + 1` reads stage `i`'s
    /// shuffle output.
    pub stages: Vec<StageProfile>,
    /// Number of times the iterative section (stages after the first) is
    /// repeated — e.g. k-means iterations. 1 for one-pass jobs.
    pub iterations: u32,
    /// Whether this is a Spark SQL job (partitions come from
    /// `spark.sql.shuffle.partitions` instead of `spark.default.parallelism`).
    pub uses_sql: bool,
    /// Size of broadcast variables in GB (0 for none).
    pub broadcast_gb: f64,
    /// How sensitive this workload is to serialization CPU (ML pipelines
    /// shuffling object-heavy records > text jobs). 1.0 = neutral.
    pub ser_sensitivity: f64,
}

impl WorkloadProfile {
    /// Simple single-shuffle job skeleton.
    pub fn simple(name: &str, input_gb: f64, cpu_per_gb: f64, shuffle_frac: f64) -> Self {
        WorkloadProfile {
            name: name.to_string(),
            input_gb,
            stages: vec![
                StageProfile::map("map", 1.0, cpu_per_gb, shuffle_frac),
                StageProfile::reduce("reduce", cpu_per_gb * 0.6, 0.0),
            ],
            iterations: 1,
            uses_sql: false,
            broadcast_gb: 0.0,
            ser_sensitivity: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_profile_shape() {
        let w = WorkloadProfile::simple("wc", 100.0, 4.0, 0.2);
        assert_eq!(w.stages.len(), 2);
        assert_eq!(w.iterations, 1);
        assert!(!w.uses_sql);
    }

    #[test]
    fn builders_apply() {
        let s = StageProfile::map("m", 1.0, 2.0, 0.1)
            .with_skew(0.7)
            .with_expansion(3.0)
            .cached()
            .with_operations(&["flatMap", "map"]);
        assert_eq!(s.skew, 0.7);
        assert_eq!(s.mem_expansion, 3.0);
        assert!(s.cacheable);
        assert_eq!(s.operations, vec!["flatMap".to_string(), "map".to_string()]);
    }
}
