//! HiBench-style workload profiles.
//!
//! §6.1 uses six representative HiBench tasks (Bayes, KMeans, NWeight,
//! WordCount, PageRank, TeraSort) and a 16-task superset for the
//! meta-learning experiment (Table 4 additionally names Sort, LR, SVD).
//! Each profile encodes a distinct stage structure and cost mix so the
//! response surfaces differ in which Spark parameters matter — that
//! difference is what the sub-space and meta-learning machinery exploits.

use crate::workload::{StageProfile, WorkloadProfile};

/// The 16 HiBench-style workloads available in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HibenchTask {
    /// Naive Bayes training — serialization-heavy ML shuffle.
    Bayes,
    /// K-means clustering — iterative, cache-bound.
    KMeans,
    /// N-degree neighbourhood graph walk — wide iterative shuffles.
    NWeight,
    /// Word count — scan-dominated aggregation.
    WordCount,
    /// PageRank — iterative, skewed joins.
    PageRank,
    /// TeraSort — full-data shuffle sort, memory-hungry.
    TeraSort,
    /// Sort — smaller full shuffle.
    Sort,
    /// Logistic regression — iterative gradient passes over cached data.
    LR,
    /// Singular value decomposition — CPU-dense iterative linear algebra.
    SVD,
    /// Alternating least squares — iterative, two-sided shuffles.
    ALS,
    /// Principal component analysis — CPU-dense, light shuffle.
    PCA,
    /// Gradient-boosted trees — many short iterations.
    GBT,
    /// Random forest — bagged tree training, broadcast-heavy.
    RF,
    /// Latent Dirichlet allocation — iterative sampling with skew.
    LDA,
    /// Support-vector machine — iterative gradient passes.
    SVM,
    /// Linear regression — lighter LR variant.
    Linear,
}

impl HibenchTask {
    /// The six representative tasks used in Figures 4, 5, 8 and 9.
    pub const FIGURE_SIX: [HibenchTask; 6] = [
        HibenchTask::Bayes,
        HibenchTask::KMeans,
        HibenchTask::NWeight,
        HibenchTask::WordCount,
        HibenchTask::PageRank,
        HibenchTask::TeraSort,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            HibenchTask::Bayes => "bayes",
            HibenchTask::KMeans => "kmeans",
            HibenchTask::NWeight => "nweight",
            HibenchTask::WordCount => "wordcount",
            HibenchTask::PageRank => "pagerank",
            HibenchTask::TeraSort => "terasort",
            HibenchTask::Sort => "sort",
            HibenchTask::LR => "lr",
            HibenchTask::SVD => "svd",
            HibenchTask::ALS => "als",
            HibenchTask::PCA => "pca",
            HibenchTask::GBT => "gbt",
            HibenchTask::RF => "rf",
            HibenchTask::LDA => "lda",
            HibenchTask::SVM => "svm",
            HibenchTask::Linear => "linear",
        }
    }

    /// All 16 tasks.
    pub fn all() -> [HibenchTask; 16] {
        [
            HibenchTask::Bayes,
            HibenchTask::KMeans,
            HibenchTask::NWeight,
            HibenchTask::WordCount,
            HibenchTask::PageRank,
            HibenchTask::TeraSort,
            HibenchTask::Sort,
            HibenchTask::LR,
            HibenchTask::SVD,
            HibenchTask::ALS,
            HibenchTask::PCA,
            HibenchTask::GBT,
            HibenchTask::RF,
            HibenchTask::LDA,
            HibenchTask::SVM,
            HibenchTask::Linear,
        ]
    }
}

/// Build the workload profile for one HiBench-style task.
pub fn hibench_task(task: HibenchTask) -> WorkloadProfile {
    match task {
        HibenchTask::WordCount => WorkloadProfile {
            name: "wordcount".into(),
            input_gb: 100.0,
            stages: vec![
                StageProfile::map("tokenize", 1.0, 5.0, 0.08)
                    .with_operations(&["textFile", "flatMap", "map"]),
                StageProfile::reduce("count", 3.0, 0.0)
                    .with_operations(&["reduceByKey", "saveAsTextFile"]),
            ],
            iterations: 1,
            uses_sql: false,
            broadcast_gb: 0.0,
            ser_sensitivity: 0.7,
        },
        HibenchTask::Sort => WorkloadProfile {
            name: "sort".into(),
            input_gb: 60.0,
            stages: vec![
                StageProfile::map("sample+map", 1.0, 2.0, 1.0)
                    .with_operations(&["textFile", "map", "sortByKey"])
                    .with_expansion(2.2),
                StageProfile::reduce("sort", 4.0, 0.0)
                    .with_operations(&["sortByKey", "saveAsTextFile"])
                    .with_expansion(2.5),
            ],
            iterations: 1,
            uses_sql: false,
            broadcast_gb: 0.0,
            ser_sensitivity: 0.9,
        },
        HibenchTask::TeraSort => WorkloadProfile {
            name: "terasort".into(),
            input_gb: 150.0,
            stages: vec![
                StageProfile::map("partition", 1.0, 2.0, 1.0)
                    .with_operations(&[
                        "newAPIHadoopFile",
                        "map",
                        "repartitionAndSortWithinPartitions",
                    ])
                    .with_expansion(2.4),
                StageProfile::reduce("sort+write", 5.0, 0.0)
                    .with_operations(&["sortByKey", "saveAsNewAPIHadoopFile"])
                    .with_expansion(2.8)
                    .with_skew(0.25),
            ],
            iterations: 1,
            uses_sql: false,
            broadcast_gb: 0.0,
            ser_sensitivity: 1.0,
        },
        HibenchTask::Bayes => WorkloadProfile {
            name: "bayes".into(),
            input_gb: 80.0,
            stages: vec![
                StageProfile::map("tokenize+tf", 1.0, 7.0, 0.5).with_operations(&[
                    "textFile",
                    "flatMap",
                    "map",
                    "combineByKey",
                ]),
                StageProfile::reduce("aggregate-weights", 6.0, 0.15)
                    .with_operations(&["reduceByKey", "collect"])
                    .with_expansion(2.2),
                StageProfile::reduce("train", 8.0, 0.0)
                    .with_operations(&["mapPartitions", "reduce"])
                    .with_expansion(1.8),
            ],
            iterations: 1,
            uses_sql: false,
            broadcast_gb: 0.5,
            ser_sensitivity: 1.8,
        },
        HibenchTask::KMeans => WorkloadProfile {
            name: "kmeans".into(),
            input_gb: 90.0,
            stages: vec![
                StageProfile::map("parse+cache", 1.0, 4.0, 0.02)
                    .with_operations(&["objectFile", "map", "cache"])
                    .cached()
                    .with_expansion(1.8),
                StageProfile::reduce("assign+update", 9.0, 0.02)
                    .with_operations(&["mapPartitions", "reduceByKey", "collectAsMap"])
                    .with_expansion(1.4),
            ],
            iterations: 8,
            uses_sql: false,
            broadcast_gb: 0.2,
            ser_sensitivity: 1.2,
        },
        HibenchTask::NWeight => WorkloadProfile {
            name: "nweight".into(),
            input_gb: 40.0,
            stages: vec![
                StageProfile::map("load-edges", 1.0, 3.0, 0.9)
                    .with_operations(&["textFile", "map", "groupByKey"])
                    .cached()
                    .with_expansion(2.6),
                StageProfile::reduce("expand", 6.0, 0.8)
                    .with_operations(&["join", "flatMap", "reduceByKey"])
                    .with_expansion(3.0)
                    .with_skew(0.45),
                StageProfile::reduce("weight-merge", 5.0, 0.1)
                    .with_operations(&["reduceByKey"])
                    .with_expansion(2.4)
                    .with_skew(0.3),
            ],
            iterations: 3,
            uses_sql: false,
            broadcast_gb: 0.0,
            ser_sensitivity: 1.3,
        },
        HibenchTask::PageRank => WorkloadProfile {
            name: "pagerank".into(),
            input_gb: 70.0,
            stages: vec![
                StageProfile::map("load-links", 1.0, 3.0, 0.6)
                    .with_operations(&["textFile", "map", "groupByKey", "cache"])
                    .cached()
                    .with_expansion(2.8),
                StageProfile::reduce("contrib+rank", 5.0, 0.55)
                    .with_operations(&["join", "flatMap", "reduceByKey", "mapValues"])
                    .with_expansion(2.2)
                    .with_skew(0.5),
            ],
            iterations: 6,
            uses_sql: false,
            broadcast_gb: 0.0,
            ser_sensitivity: 1.1,
        },
        HibenchTask::LR => WorkloadProfile {
            name: "lr".into(),
            input_gb: 85.0,
            stages: vec![
                StageProfile::map("parse+cache", 1.0, 4.5, 0.01)
                    .with_operations(&["textFile", "map", "cache"])
                    .cached()
                    .with_expansion(1.9),
                StageProfile::reduce("gradient", 10.0, 0.01)
                    .with_operations(&["mapPartitions", "treeAggregate"])
                    .with_expansion(1.3),
            ],
            iterations: 10,
            uses_sql: false,
            broadcast_gb: 0.3,
            ser_sensitivity: 1.2,
        },
        HibenchTask::SVD => WorkloadProfile {
            name: "svd".into(),
            input_gb: 50.0,
            stages: vec![
                StageProfile::map("load-matrix", 1.0, 5.0, 0.05)
                    .with_operations(&["objectFile", "map", "cache"])
                    .cached()
                    .with_expansion(2.0),
                StageProfile::reduce("gram-multiply", 14.0, 0.04)
                    .with_operations(&["mapPartitions", "treeAggregate"])
                    .with_expansion(1.5),
            ],
            iterations: 7,
            uses_sql: false,
            broadcast_gb: 0.4,
            ser_sensitivity: 1.4,
        },
        HibenchTask::ALS => WorkloadProfile {
            name: "als".into(),
            input_gb: 45.0,
            stages: vec![
                StageProfile::map("load-ratings", 1.0, 3.5, 0.5)
                    .with_operations(&["textFile", "map", "groupByKey", "cache"])
                    .cached()
                    .with_expansion(2.3),
                StageProfile::reduce("update-users", 8.0, 0.45)
                    .with_operations(&["join", "mapPartitions", "reduceByKey"])
                    .with_expansion(2.0)
                    .with_skew(0.3),
                StageProfile::reduce("update-items", 8.0, 0.1)
                    .with_operations(&["join", "mapPartitions", "reduceByKey"])
                    .with_expansion(2.0)
                    .with_skew(0.3),
            ],
            iterations: 5,
            uses_sql: false,
            broadcast_gb: 0.1,
            ser_sensitivity: 1.5,
        },
        HibenchTask::PCA => WorkloadProfile {
            name: "pca".into(),
            input_gb: 40.0,
            stages: vec![
                StageProfile::map("load+center", 1.0, 6.0, 0.03)
                    .with_operations(&["objectFile", "map", "cache"])
                    .cached()
                    .with_expansion(1.8),
                StageProfile::reduce("covariance", 16.0, 0.0)
                    .with_operations(&["mapPartitions", "treeAggregate"])
                    .with_expansion(1.4),
            ],
            iterations: 2,
            uses_sql: false,
            broadcast_gb: 0.2,
            ser_sensitivity: 1.3,
        },
        HibenchTask::GBT => WorkloadProfile {
            name: "gbt".into(),
            input_gb: 35.0,
            stages: vec![
                StageProfile::map("parse+cache", 1.0, 4.0, 0.02)
                    .with_operations(&["textFile", "map", "cache"])
                    .cached()
                    .with_expansion(1.7),
                StageProfile::reduce("find-splits", 7.0, 0.05)
                    .with_operations(&["mapPartitions", "reduceByKey", "collectAsMap"])
                    .with_expansion(1.5),
            ],
            iterations: 12,
            uses_sql: false,
            broadcast_gb: 0.6,
            ser_sensitivity: 1.1,
        },
        HibenchTask::RF => WorkloadProfile {
            name: "rf".into(),
            input_gb: 35.0,
            stages: vec![
                StageProfile::map("parse+bag", 1.0, 4.5, 0.03)
                    .with_operations(&["textFile", "map", "sample", "cache"])
                    .cached()
                    .with_expansion(1.8),
                StageProfile::reduce("grow-trees", 9.0, 0.04)
                    .with_operations(&["mapPartitions", "reduceByKey", "collectAsMap"])
                    .with_expansion(1.6),
            ],
            iterations: 6,
            uses_sql: false,
            broadcast_gb: 1.2,
            ser_sensitivity: 1.2,
        },
        HibenchTask::LDA => WorkloadProfile {
            name: "lda".into(),
            input_gb: 30.0,
            stages: vec![
                StageProfile::map("tokenize+cache", 1.0, 6.0, 0.3)
                    .with_operations(&["textFile", "flatMap", "map", "cache"])
                    .cached()
                    .with_expansion(2.4),
                StageProfile::reduce("gibbs-sample", 11.0, 0.25)
                    .with_operations(&["join", "mapPartitions", "reduceByKey"])
                    .with_expansion(2.1)
                    .with_skew(0.4),
            ],
            iterations: 8,
            uses_sql: false,
            broadcast_gb: 0.3,
            ser_sensitivity: 1.5,
        },
        HibenchTask::SVM => WorkloadProfile {
            name: "svm".into(),
            input_gb: 75.0,
            stages: vec![
                StageProfile::map("parse+cache", 1.0, 4.0, 0.01)
                    .with_operations(&["textFile", "map", "cache"])
                    .cached()
                    .with_expansion(1.9),
                StageProfile::reduce("sub-gradient", 9.5, 0.01)
                    .with_operations(&["sample", "mapPartitions", "treeAggregate"])
                    .with_expansion(1.3),
            ],
            iterations: 9,
            uses_sql: false,
            broadcast_gb: 0.3,
            ser_sensitivity: 1.2,
        },
        HibenchTask::Linear => WorkloadProfile {
            name: "linear".into(),
            input_gb: 65.0,
            stages: vec![
                StageProfile::map("parse+cache", 1.0, 3.5, 0.01)
                    .with_operations(&["textFile", "map", "cache"])
                    .cached()
                    .with_expansion(1.8),
                StageProfile::reduce("normal-equations", 8.0, 0.0)
                    .with_operations(&["mapPartitions", "treeAggregate"])
                    .with_expansion(1.3),
            ],
            iterations: 6,
            uses_sql: false,
            broadcast_gb: 0.2,
            ser_sensitivity: 1.1,
        },
    }
}

/// All 16 profiles, in [`HibenchTask::all`] order.
pub fn hibench_suite() -> Vec<WorkloadProfile> {
    HibenchTask::all()
        .iter()
        .map(|&t| hibench_task(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_distinct_workloads() {
        let suite = hibench_suite();
        assert_eq!(suite.len(), 16);
        let names: std::collections::HashSet<&str> =
            suite.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn figure_tasks_are_subset_of_suite() {
        let all: std::collections::HashSet<&str> =
            HibenchTask::all().iter().map(|t| t.name()).collect();
        for t in HibenchTask::FIGURE_SIX {
            assert!(all.contains(t.name()));
        }
    }

    #[test]
    fn names_match_profiles() {
        for t in HibenchTask::all() {
            assert_eq!(hibench_task(t).name, t.name());
        }
    }

    #[test]
    fn iterative_tasks_cache_their_scan_stage() {
        for t in [HibenchTask::KMeans, HibenchTask::LR, HibenchTask::PageRank] {
            let w = hibench_task(t);
            assert!(w.iterations > 1, "{}", w.name);
            assert!(w.stages[0].cacheable, "{}", w.name);
        }
    }

    #[test]
    fn one_pass_tasks_do_not_iterate() {
        for t in [
            HibenchTask::WordCount,
            HibenchTask::TeraSort,
            HibenchTask::Sort,
        ] {
            assert_eq!(hibench_task(t).iterations, 1);
        }
    }

    #[test]
    fn profiles_have_positive_costs() {
        for w in hibench_suite() {
            assert!(w.input_gb > 0.0);
            for s in &w.stages {
                assert!(s.cpu_per_gb > 0.0, "{}/{}", w.name, s.name);
                assert!(s.mem_expansion >= 1.0);
                assert!((0.0..=1.0).contains(&s.shuffle_write_frac));
                assert!(!s.operations.is_empty());
            }
        }
    }
}
