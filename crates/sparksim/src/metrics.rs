//! Execution results and cost metrics.

use crate::eventlog::EventLog;
use crate::fault::ExecutionStatus;

/// The outcome of one simulated job execution — everything the tuner and
/// the paper's metrics need.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Wall-clock runtime in seconds, `T(x)` (noisy).
    pub runtime_s: f64,
    /// Memory usage in GB·hours: requested executor memory × runtime.
    /// This is the paper's "Memory_usage" metric.
    pub memory_gb_h: f64,
    /// CPU usage in core·hours: requested vcores × runtime ("CPU_usage").
    pub cpu_core_h: f64,
    /// The analytic resource amount `R(x) = #vcores + c·#mem_GB` computed
    /// from the *requested* configuration (§4.3: white-box function).
    pub resource: f64,
    /// Executors actually granted by the cluster (≤ requested).
    pub granted_executors: u32,
    /// Input data size of this run in GB (the `ds` the surrogate models).
    pub data_size_gb: f64,
    /// Structured event log for meta-feature extraction.
    pub event_log: EventLog,
    /// How the run ended (clean, degraded, or failed).
    pub status: ExecutionStatus,
}

impl ExecutionResult {
    /// Execution cost `T(x) · R(x)` — the β = 0.5 objective squared, which
    /// is how the paper reports "execution cost" in Tables 2/4.
    pub fn execution_cost(&self) -> f64 {
        self.runtime_s * self.resource
    }
}

/// The analytic resource function `R(x)` from §4.3:
/// `#vcores + c·#mem_GB`, all read directly off the configuration.
/// `c` trades memory against cores; we follow a typical cloud pricing ratio.
pub const MEM_PRICE_COEFF: f64 = 0.5;

/// Compute `R` from requested executors/cores/memory (driver included).
pub fn resource_amount(
    instances: f64,
    cores_per_exec: f64,
    mem_per_exec_gb: f64,
    driver_cores: f64,
    driver_mem_gb: f64,
) -> f64 {
    let vcores = instances * cores_per_exec + driver_cores;
    let mem = instances * mem_per_exec_gb + driver_mem_gb;
    vcores + MEM_PRICE_COEFF * mem
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_amount_counts_driver() {
        let r = resource_amount(10.0, 2.0, 4.0, 1.0, 2.0);
        // vcores = 21, mem = 42 → 21 + 0.5·42 = 42.
        assert!((r - 42.0).abs() < 1e-12);
    }

    #[test]
    fn execution_cost_is_t_times_r() {
        let res = ExecutionResult {
            runtime_s: 10.0,
            memory_gb_h: 1.0,
            cpu_core_h: 1.0,
            resource: 5.0,
            granted_executors: 2,
            data_size_gb: 1.0,
            event_log: EventLog::default(),
            status: ExecutionStatus::Success,
        };
        assert_eq!(res.execution_cost(), 50.0);
    }
}
