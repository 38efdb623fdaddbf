//! Campaign specification: the immutable inputs of a tuning job.
//!
//! The spec is embedded verbatim in the journal's `JobStarted` event, so a
//! journal file is fully self-contained: `resume` needs nothing but the
//! file to rebuild the campaign — workloads, seeds, budgets, fault
//! schedule, retry policy — and re-drive the real suggest path.

use otune_sparksim::FaultKind;
use serde::{Deserialize, Serialize};

/// One scripted fault for a campaign task: inject `kind` when `task`
/// executes wave `wave` (SimJob run index `wave + 1`; run 0 is the
/// fault-free calibration baseline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskFault {
    /// Campaign task index (0-based, into the HiBench suite prefix).
    pub task: usize,
    /// Wave index the fault fires at.
    pub wave: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// The immutable description of a tuning campaign.
///
/// Everything an engine needs to deterministically reconstruct its tasks:
/// the first [`CampaignSpec::n_tasks`] HiBench workloads on the test
/// cluster, each with its own derived seed, a safety threshold calibrated
/// from the fault-free default-configuration run, and the retry/DLQ
/// policy. Serialized into the journal's `JobStarted` event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Human-readable job id (journal metadata only).
    pub job_id: String,
    /// Number of tasks: the first `n_tasks` of the HiBench suite (≤ 16).
    pub n_tasks: usize,
    /// Tuning budget per task — the campaign runs exactly this many waves.
    pub budget: usize,
    /// Base seed; task `i` tunes with seed `seed + i` and simulates with
    /// job seed `seed + i`.
    pub seed: u64,
    /// Objective trade-off β in `f(x) = T(x)^β · R(x)^{1−β}`.
    pub beta: f64,
    /// Safety threshold factor: `T_max = t_max_factor × baseline runtime`
    /// (baseline = fault-free run 0 of the default configuration).
    pub t_max_factor: f64,
    /// Consecutive failures after which a task is dead-lettered.
    pub max_retries: usize,
    /// First retry backoff (seconds, recorded — never slept in tests).
    pub backoff_base_s: f64,
    /// Exponential backoff multiplier per additional attempt.
    pub backoff_factor: f64,
    /// Backoff ceiling in seconds.
    pub backoff_cap_s: f64,
    /// Checkpoint cadence: a checkpoint marker plus sync barrier is
    /// journaled every this many completed waves, bounding what a crash
    /// can lose under the lazy sync policies (0 disables periodic
    /// checkpoints).
    pub checkpoint_every: u64,
    /// Optional stochastic fault DSL (PR 4 `FaultProfile::parse` syntax)
    /// applied to every task, reseeded per task.
    #[serde(default)]
    pub fault_spec: Option<String>,
    /// Scripted deterministic faults (drive the retry/DLQ paths in tests).
    #[serde(default)]
    pub scripted_faults: Vec<TaskFault>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            job_id: "campaign".to_string(),
            n_tasks: 4,
            budget: 8,
            seed: 42,
            beta: 0.5,
            t_max_factor: 2.0,
            max_retries: 3,
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
            backoff_cap_s: 60.0,
            checkpoint_every: 2,
            fault_spec: None,
            scripted_faults: Vec::new(),
        }
    }
}

impl CampaignSpec {
    /// Deterministic backoff for failure attempt `attempt` (1-based):
    /// `min(cap, base × factor^(attempt−1))`.
    pub fn backoff_s(&self, attempt: usize) -> f64 {
        let exp = attempt.saturating_sub(1) as i32;
        (self.backoff_base_s * self.backoff_factor.powi(exp)).min(self.backoff_cap_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let spec = CampaignSpec {
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
            backoff_cap_s: 5.0,
            ..CampaignSpec::default()
        };
        let sched: Vec<f64> = (1..=5).map(|a| spec.backoff_s(a)).collect();
        assert_eq!(sched, vec![1.0, 2.0, 4.0, 5.0, 5.0]);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec {
            fault_spec: Some("oom=0.1".to_string()),
            scripted_faults: vec![TaskFault {
                task: 1,
                wave: 3,
                kind: FaultKind::ExecutorOom,
            }],
            ..CampaignSpec::default()
        };
        let line = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back, spec);
    }
}
