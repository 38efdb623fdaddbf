//! # otune — general and efficient online tuning for Spark
//!
//! A from-scratch Rust reproduction of *"Towards General and Efficient
//! Online Tuning for Spark"* (Li et al., PVLDB 16(12), 2023): a Bayesian
//! optimization service that tunes the configurations of periodic Spark
//! jobs **online** — along with their production executions — under a
//! generalized objective `f(x) = T(x)^β · R(x)^{1−β}` with runtime/resource
//! constraints, safe-region exploration, adaptive sub-space generation,
//! approximate gradient descent, and meta-learning transfer across tasks.
//!
//! ## Quick start
//!
//! ```
//! use otune_core::{OnlineTuner, TunerOptions};
//! use otune_space::{spark_space, ClusterScale};
//! use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
//!
//! // The workload: a simulated HiBench WordCount on the test cluster.
//! let space = spark_space(ClusterScale::hibench());
//! let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount));
//!
//! // Safety threshold: twice the default configuration's runtime.
//! let default_rt = job.run(&space.default_configuration(), 0).runtime_s;
//!
//! let mut tuner = OnlineTuner::new(
//!     space.clone(),
//!     TunerOptions {
//!         beta: 0.5,                 // execution cost
//!         t_max: Some(2.0 * default_rt),
//!         budget: 10,
//!         ..TunerOptions::default()
//!     },
//! );
//!
//! // The online loop: each periodic execution evaluates one suggestion.
//! for run in 0..10u64 {
//!     let cfg = tuner.suggest(&[]).unwrap();
//!     let result = job.run(&cfg, run);
//!     tuner.observe(cfg, result.runtime_s, result.resource, &[]);
//! }
//! let best = tuner.best().expect("observed at least one configuration");
//! assert!(best.runtime.is_finite());
//! ```
//!
//! The crate re-exports the substrate crates under [`prelude`] so
//! downstream users need a single dependency.

pub mod context;
pub mod controller;
pub mod fleet;
pub mod generator;
pub mod objective;
pub mod repository;
pub mod tuner;

pub use context::{calendar_context, datasize_context};
pub use controller::{ControllerError, OnlineTuneController, TaskHandle, TaskState};
pub use fleet::{FleetOptions, FleetReport, FleetRequest};
pub use generator::{ConfigGenerator, Suggestion};
pub use objective::Objective;
pub use repository::DataRepository;
pub use tuner::{OnlineTuner, TunerOptions};

/// The observability layer, re-exported so applications can attach
/// sinks without a direct `otune-telemetry` dependency.
pub use otune_telemetry as telemetry;
pub use otune_telemetry::Telemetry;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::Telemetry;
    pub use crate::{
        ConfigGenerator, DataRepository, Objective, OnlineTuneController, OnlineTuner, TunerOptions,
    };
    pub use otune_bo::Observation;
    pub use otune_meta::TaskRecord;
    pub use otune_space::{
        spark_space, ClusterScale, ConfigSpace, Configuration, ParamValue, SparkParam,
    };
    pub use otune_sparksim::{
        hibench_suite, hibench_task, ClusterSpec, DataSizeModel, ExecutionResult, HibenchTask,
        SimJob,
    };
}
