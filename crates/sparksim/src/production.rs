//! Synthetic in-production periodic Spark tasks.
//!
//! §6.2 tunes ~25K recurring production tasks (advertising, marketing,
//! social networking) whose configurations were previously hand-tuned by
//! engineers. Table 2 shows the pattern that makes large cost reductions
//! possible: manual configurations heavily over-provision executors and
//! memory. [`ProductionTaskGenerator`] reproduces that population —
//! heterogeneous workloads with plausible (over-provisioned) manual
//! configurations and periodic data-size drift — and
//! [`eight_advertising_tasks`] pins the eight named tasks of Table 2.

use crate::cluster::ClusterSpec;
use crate::datasize::DataSizeModel;
use crate::engine::SimJob;
use crate::workload::{StageProfile, WorkloadProfile};
use otune_space::{spark_space, ClusterScale, ConfigSpace, Configuration, ParamValue, SparkParam};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How often a periodic task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Executed once an hour (like the Table 2 SQL tasks).
    Hourly,
    /// Executed once a day (like the Table 2 MR-style tasks).
    Daily,
}

/// A periodic production task: workload + manual config + data drift.
#[derive(Debug, Clone)]
pub struct ProductionTask {
    /// Stable task id.
    pub id: u64,
    /// Business-style name.
    pub name: String,
    /// The workload profile.
    pub workload: WorkloadProfile,
    /// The resource group it runs on.
    pub cluster: ClusterSpec,
    /// The engineer's manual configuration (the pre-tuning baseline).
    pub manual_config: Configuration,
    /// Data-size drift across periods.
    pub datasize: DataSizeModel,
    /// Execution cadence.
    pub schedule: Schedule,
}

impl ProductionTask {
    /// A [`SimJob`] for executing this task (noise seeded by the task id).
    pub fn job(&self) -> SimJob {
        SimJob::new(self.cluster, self.workload.clone()).with_seed(self.id)
    }

    /// The configuration space for this task's resource group.
    pub fn space(&self) -> ConfigSpace {
        spark_space(ClusterScale::production())
    }
}

/// Seeded generator for synthetic production task populations.
#[derive(Debug, Clone)]
pub struct ProductionTaskGenerator {
    seed: u64,
}

impl ProductionTaskGenerator {
    /// Create a generator with a fixed seed.
    pub fn new(seed: u64) -> Self {
        ProductionTaskGenerator { seed }
    }

    /// Generate `n` heterogeneous production tasks.
    pub fn generate(&self, n: usize) -> Vec<ProductionTask> {
        (0..n as u64).map(|i| self.generate_one(i)).collect()
    }

    /// Generate the task with the given id (deterministic).
    pub fn generate_one(&self, id: u64) -> ProductionTask {
        let mut rng = StdRng::seed_from_u64(self.seed ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d));
        // Three size classes mirroring Table 2's mix: small hourly SQL,
        // medium hourly MR, large daily MR.
        let class = rng.gen_range(0..3u8);
        let (input_gb, schedule, uses_sql) = match class {
            0 => (rng.gen_range(0.5..20.0), Schedule::Hourly, true),
            1 => (rng.gen_range(30.0..300.0), Schedule::Hourly, false),
            _ => (rng.gen_range(300.0..2000.0), Schedule::Daily, false),
        };

        let n_stages = rng.gen_range(2..=4usize);
        let mut stages = Vec::with_capacity(n_stages);
        for s in 0..n_stages {
            let is_scan = s == 0;
            stages.push(StageProfile {
                name: format!("stage-{s}"),
                operations: if is_scan {
                    vec!["textFile".into(), "map".into(), "filter".into()]
                } else {
                    vec!["reduceByKey".into(), "mapValues".into()]
                },
                input_frac: if is_scan { 1.0 } else { 0.0 },
                shuffle_write_frac: if s + 1 == n_stages {
                    0.0
                } else {
                    rng.gen_range(0.05..0.8)
                },
                cpu_per_gb: rng.gen_range(2.0..12.0),
                mem_expansion: rng.gen_range(1.3..2.8),
                skew: rng.gen_range(0.05..0.5),
                cacheable: false,
            });
        }

        let workload = WorkloadProfile {
            name: format!("prod-task-{id}"),
            input_gb,
            stages,
            iterations: 1,
            uses_sql,
            broadcast_gb: if rng.gen_bool(0.3) {
                rng.gen_range(0.05..1.0)
            } else {
                0.0
            },
            ser_sensitivity: rng.gen_range(0.7..1.8),
        };

        let cluster = ClusterSpec::production();
        let space = spark_space(ClusterScale::production());
        let manual_config = manual_configuration(&space, &workload, &mut rng);

        let datasize = match schedule {
            Schedule::Hourly => DataSizeModel::hourly(input_gb, self.seed ^ id),
            Schedule::Daily => DataSizeModel::daily(input_gb, self.seed ^ id),
        };

        ProductionTask {
            id,
            name: workload.name.clone(),
            workload,
            cluster,
            manual_config,
            datasize,
            schedule,
        }
    }
}

/// An engineer's manual configuration: functional, but over-provisioned by
/// a random factor — the headroom the tuner recovers (Table 2's pattern:
/// 300 executors × 8 GB where ~180 × 1 GB suffice).
fn manual_configuration(
    space: &ConfigSpace,
    workload: &WorkloadProfile,
    rng: &mut StdRng,
) -> Configuration {
    let mut cfg = space.default_configuration();
    // Roughly "right-sized" executor count: one core-GB pair per ~2 GB of
    // input per stage wave, then over-provision by 2–6×.
    let sensible = (workload.input_gb / 4.0).clamp(1.0, 260.0);
    let over = rng.gen_range(2.0..6.0);
    let instances = (sensible * over).clamp(1.0, 790.0) as i64;
    let cores = *[2i64, 2, 4].get(rng.gen_range(0..3usize)).unwrap();
    let mem = *[8i64, 8, 16, 20].get(rng.gen_range(0..4usize)).unwrap();
    cfg.set(
        SparkParam::ExecutorInstances.index(),
        ParamValue::Int(instances),
    );
    cfg.set(SparkParam::ExecutorCores.index(), ParamValue::Int(cores));
    cfg.set(SparkParam::ExecutorMemory.index(), ParamValue::Int(mem));
    cfg.set(SparkParam::DriverMemory.index(), ParamValue::Int(4));
    cfg.set(
        SparkParam::DefaultParallelism.index(),
        ParamValue::Int((instances * cores * 2).clamp(64, 4000)),
    );
    cfg
}

/// The eight advertisement-business tasks of Table 2, with the manual
/// executor settings the table reports (instances / cores / memory-GB).
pub fn eight_advertising_tasks() -> Vec<ProductionTask> {
    struct Spec {
        name: &'static str,
        input_gb: f64,
        schedule: Schedule,
        uses_sql: bool,
        manual: (i64, i64, i64),
        cpu_per_gb: f64,
        shuffle: f64,
        expansion: f64,
    }
    let specs = [
        Spec {
            name: "feature-extraction",
            input_gb: 900.0,
            schedule: Schedule::Daily,
            uses_sql: false,
            manual: (300, 2, 8),
            cpu_per_gb: 8.0,
            shuffle: 0.4,
            expansion: 1.8,
        },
        Spec {
            name: "user-traffic-distribution",
            input_gb: 700.0,
            schedule: Schedule::Daily,
            uses_sql: false,
            manual: (256, 2, 8),
            cpu_per_gb: 6.0,
            shuffle: 0.6,
            expansion: 2.0,
        },
        Spec {
            name: "dau-analysis",
            input_gb: 450.0,
            schedule: Schedule::Daily,
            uses_sql: false,
            manual: (500, 4, 16),
            cpu_per_gb: 4.0,
            shuffle: 0.3,
            expansion: 1.6,
        },
        Spec {
            name: "log-processing",
            input_gb: 1200.0,
            schedule: Schedule::Daily,
            uses_sql: false,
            manual: (656, 4, 9),
            cpu_per_gb: 5.0,
            shuffle: 0.5,
            expansion: 1.9,
        },
        Spec {
            name: "data-selection",
            input_gb: 4.0,
            schedule: Schedule::Hourly,
            uses_sql: true,
            manual: (16, 6, 6),
            cpu_per_gb: 3.0,
            shuffle: 0.2,
            expansion: 1.5,
        },
        Spec {
            name: "skew-detection",
            input_gb: 12.0,
            schedule: Schedule::Hourly,
            uses_sql: true,
            manual: (20, 2, 20),
            cpu_per_gb: 5.0,
            shuffle: 0.5,
            expansion: 2.2,
        },
        Spec {
            name: "feature-calculation",
            input_gb: 25.0,
            schedule: Schedule::Hourly,
            uses_sql: true,
            manual: (3, 2, 1),
            cpu_per_gb: 6.0,
            shuffle: 0.3,
            expansion: 1.7,
        },
        Spec {
            name: "data-preprocessing",
            input_gb: 2.0,
            schedule: Schedule::Hourly,
            uses_sql: true,
            manual: (3, 2, 6),
            cpu_per_gb: 4.0,
            shuffle: 0.25,
            expansion: 1.6,
        },
    ];

    let space = spark_space(ClusterScale::production());
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let workload = WorkloadProfile {
                name: s.name.to_string(),
                input_gb: s.input_gb,
                stages: vec![
                    StageProfile::map("scan", 1.0, s.cpu_per_gb, s.shuffle)
                        .with_expansion(s.expansion),
                    StageProfile::reduce("aggregate", s.cpu_per_gb * 0.7, 0.0)
                        .with_expansion(s.expansion + 0.3),
                ],
                iterations: 1,
                uses_sql: s.uses_sql,
                broadcast_gb: 0.0,
                ser_sensitivity: 1.0,
            };
            let mut manual = space.default_configuration();
            manual.set(
                SparkParam::ExecutorInstances.index(),
                ParamValue::Int(s.manual.0),
            );
            manual.set(
                SparkParam::ExecutorCores.index(),
                ParamValue::Int(s.manual.1),
            );
            manual.set(
                SparkParam::ExecutorMemory.index(),
                ParamValue::Int(s.manual.2),
            );
            // Engineers size parallelism to the executor fleet (the usual
            // 2–3 tasks-per-core rule); leaving Spark's default would be
            // an implausible manual configuration for these data volumes.
            let par = (s.manual.0 * s.manual.1 * 2).clamp(64, 4000);
            manual.set(SparkParam::DefaultParallelism.index(), ParamValue::Int(par));
            manual.set(
                SparkParam::SqlShufflePartitions.index(),
                ParamValue::Int(par),
            );
            let datasize = match s.schedule {
                Schedule::Hourly => DataSizeModel::hourly(s.input_gb, 1000 + i as u64),
                Schedule::Daily => DataSizeModel::daily(s.input_gb, 1000 + i as u64),
            };
            ProductionTask {
                id: 90_000 + i as u64,
                name: s.name.to_string(),
                workload,
                cluster: ClusterSpec::production(),
                manual_config: manual,
                datasize,
                schedule: s.schedule,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let g = ProductionTaskGenerator::new(42);
        let a = g.generate(5);
        let b = g.generate(5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.manual_config, y.manual_config);
            assert_eq!(x.workload, y.workload);
        }
    }

    #[test]
    fn tasks_are_heterogeneous() {
        let g = ProductionTaskGenerator::new(1);
        let tasks = g.generate(50);
        let hourly = tasks
            .iter()
            .filter(|t| t.schedule == Schedule::Hourly)
            .count();
        assert!(
            hourly > 10 && hourly < 50,
            "schedule mix: {hourly}/50 hourly"
        );
        let sql = tasks.iter().filter(|t| t.workload.uses_sql).count();
        assert!(sql > 5, "some SQL tasks: {sql}");
        let sizes: Vec<f64> = tasks.iter().map(|t| t.workload.input_gb).collect();
        let min = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 10.0, "sizes span scales: {min}..{max}");
    }

    #[test]
    fn manual_configs_are_valid_and_runnable() {
        let g = ProductionTaskGenerator::new(9);
        for t in g.generate(10) {
            t.space().validate(&t.manual_config).unwrap();
            let job = t.job().with_noise(0.0);
            let r = job.run(&t.manual_config, 0);
            assert!(r.runtime_s.is_finite() && r.runtime_s > 0.0, "{}", t.name);
        }
    }

    #[test]
    fn manual_configs_leave_cost_headroom() {
        // The premise of Figure 2: a right-sized configuration beats the
        // manual one on execution cost for most tasks.
        let g = ProductionTaskGenerator::new(5);
        let mut improved = 0;
        let tasks = g.generate(10);
        for t in &tasks {
            let job = t.job().with_noise(0.0);
            let manual = job.run(&t.manual_config, 0);
            let mut lean = t.manual_config.clone();
            let inst = t.manual_config[SparkParam::ExecutorInstances.index()]
                .as_int()
                .unwrap();
            lean.set(
                SparkParam::ExecutorInstances.index(),
                ParamValue::Int((inst / 3).max(1)),
            );
            lean.set(SparkParam::ExecutorMemory.index(), ParamValue::Int(4));
            let tuned = job.run(&lean, 0);
            if tuned.execution_cost() < manual.execution_cost() {
                improved += 1;
            }
        }
        assert!(improved >= 7, "headroom on {improved}/10 tasks");
    }

    #[test]
    fn eight_tasks_match_table2_manual_settings() {
        let tasks = eight_advertising_tasks();
        assert_eq!(tasks.len(), 8);
        let t = &tasks[0];
        assert_eq!(t.name, "feature-extraction");
        assert_eq!(
            t.manual_config[SparkParam::ExecutorInstances.index()],
            ParamValue::Int(300)
        );
        assert_eq!(
            t.manual_config[SparkParam::ExecutorCores.index()],
            ParamValue::Int(2)
        );
        assert_eq!(
            t.manual_config[SparkParam::ExecutorMemory.index()],
            ParamValue::Int(8)
        );
        let sql = tasks.iter().filter(|t| t.workload.uses_sql).count();
        assert_eq!(sql, 4, "four SQL tasks, four MR tasks");
    }
}
