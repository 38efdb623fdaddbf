//! Property-based tests for the Spark simulator.

use otune_space::{spark_space, ClusterScale, SparkParam};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
use proptest::prelude::*;

fn unit_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid configuration produces a finite positive runtime and
    /// consistent metrics on every HiBench profile.
    #[test]
    fn all_configs_produce_finite_results(u in unit_vec(), task_idx in 0usize..16) {
        let space = spark_space(ClusterScale::hibench());
        let cfg = space.decode(&u);
        let task = HibenchTask::all()[task_idx];
        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task)).with_noise(0.0);
        let r = job.run(&cfg, 0);
        prop_assert!(r.runtime_s.is_finite() && r.runtime_s > 0.0);
        prop_assert!(r.memory_gb_h.is_finite() && r.memory_gb_h > 0.0);
        prop_assert!(r.cpu_core_h.is_finite() && r.cpu_core_h > 0.0);
        prop_assert!(r.resource.is_finite() && r.resource > 0.0);
        prop_assert!(r.granted_executors >= 1);
        prop_assert!(!r.event_log.stages.is_empty());
    }

    /// Noiseless runtime is weakly monotone in data size.
    #[test]
    fn runtime_monotone_in_datasize(u in unit_vec(), scale in 1.5f64..8.0) {
        let space = spark_space(ClusterScale::hibench());
        let cfg = space.decode(&u);
        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount))
            .with_noise(0.0);
        let small = job.run_with_datasize(&cfg, 20.0, 0).runtime_s;
        let large = job.run_with_datasize(&cfg, 20.0 * scale, 0).runtime_s;
        prop_assert!(large >= small, "{large} < {small} at scale {scale}");
    }

    /// The resource function is exactly the analytic formula over requested
    /// parameters — the white-box property AGD relies on (§4.3).
    #[test]
    fn resource_matches_analytic_form(u in unit_vec()) {
        let space = spark_space(ClusterScale::hibench());
        let cfg = space.decode(&u);
        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::Sort))
            .with_noise(0.0);
        let r = job.run(&cfg, 0);
        let inst = cfg[SparkParam::ExecutorInstances.index()].as_f64();
        let cores = cfg[SparkParam::ExecutorCores.index()].as_f64();
        let mem = cfg[SparkParam::ExecutorMemory.index()].as_f64();
        let dc = cfg[SparkParam::DriverCores.index()].as_f64();
        let dm = cfg[SparkParam::DriverMemory.index()].as_f64();
        let expect = inst * cores + dc + 0.5 * (inst * mem + dm);
        prop_assert!((r.resource - expect).abs() < 1e-9);
    }

    /// Noise seeds are reproducible: the same run index gives the same
    /// result, and the noiseless run is the same regardless of index.
    #[test]
    fn determinism(u in unit_vec(), idx in 0u64..50) {
        let space = spark_space(ClusterScale::hibench());
        let cfg = space.decode(&u);
        let noisy = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::KMeans))
            .with_seed(5);
        prop_assert_eq!(noisy.run(&cfg, idx).runtime_s, noisy.run(&cfg, idx).runtime_s);
        let clean = noisy.clone().with_noise(0.0);
        prop_assert_eq!(clean.run(&cfg, idx).runtime_s, clean.run(&cfg, 0).runtime_s);
    }
}
