//! Deterministic fault injection for simulated production runs.
//!
//! Real Spark executions fail: executors are OOM-killed, containers are
//! lost and restarted, straggling tasks blow out the tail, and jobs that
//! exceed the service's `T_max` budget are aborted. The tuner has to
//! survive all of these mid-campaign (§2's periodic-execution setting),
//! so the simulator can inject them — deterministically, from a seed, so
//! every fault schedule is replayable bit-for-bit.
//!
//! A [`FaultProfile`] is attached to a [`SimJob`](crate::SimJob) via
//! [`SimJob::with_faults`](crate::SimJob::with_faults). For each run index
//! it decides (scripted schedule first, then seeded coin flips) whether a
//! fault fires, and rewrites the clean [`ExecutionResult`] accordingly.
//! The outcome is surfaced as an [`ExecutionStatus`] on the result rather
//! than a silently perturbed runtime: failed runs report the *partial*
//! runtime up to the crash, and it is the caller's job to feed them back
//! as censored observations.
//!
//! The fault layer draws from its own RNG stream (derived from the
//! profile seed, not the job seed), so attaching a profile never perturbs
//! the clean runtime-noise stream of unaffected runs.

use crate::metrics::ExecutionResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-run seed mix (SplitMix64 increment) for the fault decision stream.
const FAULT_STREAM_MIX: u64 = 0xd1b5_4a32_d192_ed03;

/// The kinds of faults the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// An executor exceeds its container memory and the job dies after
    /// making partial progress. The run *fails*.
    ExecutorOom,
    /// Straggling tasks stretch the tail: the run completes, but slower.
    Straggler,
    /// A container is lost and restarted; the run completes with the
    /// restart overhead added.
    LostExecutor,
    /// The job is killed at the service's `T_max` budget. The run *fails*
    /// with runtime clamped to `T_max`.
    TimeoutKill,
}

/// How a run ended. `Success` is the default so that results serialized
/// before this field existed still deserialize.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ExecutionStatus {
    /// Clean completion.
    #[default]
    Success,
    /// OOM-killed after completing `progress ∈ (0, 1)` of the work; the
    /// reported runtime is the partial runtime up to the kill.
    OomKilled {
        /// Fraction of the job completed before the kill.
        progress: f64,
    },
    /// Completed, but `slowdown ×` slower than the clean runtime.
    Straggler {
        /// Tail-latency multiplier applied to the clean runtime.
        slowdown: f64,
    },
    /// Completed after `restarts` container restarts.
    LostExecutor {
        /// Number of executor restarts absorbed.
        restarts: u32,
    },
    /// Killed at the `T_max` budget; runtime is clamped to it.
    TimeoutKilled {
        /// The budget the run was killed at, in seconds.
        t_max_s: f64,
    },
}

impl ExecutionStatus {
    /// Whether the run failed to produce a usable `(T, R)` measurement.
    /// Stragglers and lost-executor runs complete (slower) and remain
    /// legitimate observations; OOM and timeout kills do not.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            ExecutionStatus::OomKilled { .. } | ExecutionStatus::TimeoutKilled { .. }
        )
    }

    /// Every [`ExecutionStatus::label`], in declaration order.
    pub const LABELS: [&'static str; 5] = [
        "success",
        "oom_killed",
        "straggler",
        "lost_executor",
        "timeout_killed",
    ];

    /// Short stable label for logs and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionStatus::Success => "success",
            ExecutionStatus::OomKilled { .. } => "oom_killed",
            ExecutionStatus::Straggler { .. } => "straggler",
            ExecutionStatus::LostExecutor { .. } => "lost_executor",
            ExecutionStatus::TimeoutKilled { .. } => "timeout_killed",
        }
    }
}

/// One scripted fault: fire `kind` at exactly `run`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedFault {
    /// The run index the fault fires at.
    pub run: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A seeded, deterministic fault schedule.
///
/// Scripted entries take precedence over the stochastic rates; for
/// unscripted runs a single uniform draw (seeded by `seed ^ run_index`)
/// is compared against the cumulative rates, so the schedule for any run
/// index is independent of every other run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultProfile {
    /// Seed for the fault decision/magnitude streams (independent of the
    /// job's noise seed).
    pub seed: u64,
    /// Probability of an executor OOM per run.
    pub oom_rate: f64,
    /// Probability of a straggler tail spike per run.
    pub straggler_rate: f64,
    /// Probability of a lost-executor restart per run.
    pub lost_rate: f64,
    /// Kill budget: any effective runtime above this is truncated to a
    /// `TimeoutKilled` failure at the budget.
    pub t_max_s: Option<f64>,
    /// Scripted faults, overriding the stochastic rates at their run index.
    pub scripted: Vec<ScriptedFault>,
}

impl FaultProfile {
    /// An empty profile (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultProfile {
            seed,
            ..FaultProfile::default()
        }
    }

    /// Set the stochastic per-run fault rates.
    pub fn with_rates(mut self, oom: f64, straggler: f64, lost: f64) -> Self {
        self.oom_rate = oom;
        self.straggler_rate = straggler;
        self.lost_rate = lost;
        self
    }

    /// Set the `T_max` kill budget.
    pub fn with_t_max(mut self, t_max_s: f64) -> Self {
        self.t_max_s = Some(t_max_s);
        self
    }

    /// Script `kind` to fire at run `run`.
    pub fn fail_at(mut self, run: u64, kind: FaultKind) -> Self {
        self.scripted.push(ScriptedFault { run, kind });
        self
    }

    /// Script a straggler spike for every run in `runs`.
    pub fn straggle(mut self, runs: std::ops::Range<u64>) -> Self {
        for run in runs {
            self.scripted.push(ScriptedFault {
                run,
                kind: FaultKind::Straggler,
            });
        }
        self
    }

    /// Which fault (if any) fires at `run_index`. Deterministic: scripted
    /// entries win, otherwise one seeded uniform draw against the
    /// cumulative rates.
    pub fn decide(&self, run_index: u64) -> Option<FaultKind> {
        if let Some(s) = self.scripted.iter().find(|s| s.run == run_index) {
            return Some(s.kind);
        }
        let total = self.oom_rate + self.straggler_rate + self.lost_rate;
        if total <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ run_index.wrapping_mul(FAULT_STREAM_MIX));
        let u: f64 = rng.gen();
        if u < self.oom_rate {
            Some(FaultKind::ExecutorOom)
        } else if u < self.oom_rate + self.straggler_rate {
            Some(FaultKind::Straggler)
        } else if u < total {
            Some(FaultKind::LostExecutor)
        } else {
            None
        }
    }

    /// Apply the schedule to a clean execution result. Billed resource
    /// hours scale with the effective runtime (a run killed at 40% of the
    /// way bills 40% of the hours).
    pub fn apply(&self, mut result: ExecutionResult, run_index: u64) -> ExecutionResult {
        let clean_runtime = result.runtime_s;
        // Magnitudes come from a second stream so that `decide` stays a
        // pure single-draw function of (seed, run_index).
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .rotate_left(17)
                .wrapping_add(0x5851_f42d_4c95_7f2d)
                ^ run_index.wrapping_mul(FAULT_STREAM_MIX),
        );
        match self.decide(run_index) {
            Some(FaultKind::ExecutorOom) => {
                // The job dies partway through; the partial runtime is the
                // only signal that comes back.
                let progress = 0.2 + 0.6 * rng.gen::<f64>();
                result.runtime_s = clean_runtime * progress;
                result.status = ExecutionStatus::OomKilled { progress };
            }
            Some(FaultKind::Straggler) => {
                let slowdown = 1.5 + 2.5 * rng.gen::<f64>();
                result.runtime_s = clean_runtime * slowdown;
                result.status = ExecutionStatus::Straggler { slowdown };
            }
            Some(FaultKind::LostExecutor) => {
                let restarts = 1 + (rng.gen::<f64>() * 2.0) as u32;
                result.runtime_s = clean_runtime * (1.0 + 0.25 * restarts as f64);
                result.status = ExecutionStatus::LostExecutor { restarts };
            }
            Some(FaultKind::TimeoutKill) => {
                // Scripted kill: force the timeout path below regardless of
                // the clean runtime.
                let t = self.t_max_s.unwrap_or(clean_runtime);
                result.runtime_s = clean_runtime.min(t);
                result.status = ExecutionStatus::TimeoutKilled { t_max_s: t };
            }
            None => {}
        }
        // The service kills anything that exceeds the budget — including
        // straggler-inflated runs.
        if let Some(t) = self.t_max_s {
            if result.runtime_s > t && !result.status.is_failure() {
                result.runtime_s = t;
                result.status = ExecutionStatus::TimeoutKilled { t_max_s: t };
            }
        }
        if result.runtime_s != clean_runtime && clean_runtime > 0.0 {
            let ratio = result.runtime_s / clean_runtime;
            result.memory_gb_h *= ratio;
            result.cpu_core_h *= ratio;
        }
        result
    }

    /// Parse a CLI spec like `"oom:0.1,straggler:0.05,lost:0.05,tmax:120"`.
    /// Keys: `oom`, `straggler`, `lost` (rates in `[0, 1]`), `tmax`
    /// (seconds), `seed`. Unknown keys or malformed numbers are errors.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut profile = FaultProfile::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("fault spec entry `{part}` is not `key:value`"))?;
            let key = key.trim();
            let value = value.trim();
            let num = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|_| format!("fault spec `{key}` has non-numeric value `{v}`"))
            };
            match key {
                "oom" => profile.oom_rate = num(value)?,
                "straggler" => profile.straggler_rate = num(value)?,
                "lost" => profile.lost_rate = num(value)?,
                "tmax" => profile.t_max_s = Some(num(value)?),
                "seed" => {
                    profile.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("fault spec `seed` has non-integer value `{value}`"))?
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        for (rate, name) in [
            (profile.oom_rate, "oom"),
            (profile.straggler_rate, "straggler"),
            (profile.lost_rate, "lost"),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "fault rate `{name}` must lie in [0, 1], got {rate}"
                ));
            }
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::engine::SimJob;
    use crate::workloads::{hibench_task, HibenchTask};
    use otune_space::{spark_space, ClusterScale};

    fn job() -> (SimJob, otune_space::Configuration) {
        let space = spark_space(ClusterScale::hibench());
        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount))
            .with_noise(0.0);
        (job, space.default_configuration())
    }

    #[test]
    fn decisions_are_deterministic_and_independent_per_run() {
        let p = FaultProfile::new(9).with_rates(0.3, 0.2, 0.1);
        let a: Vec<_> = (0..50).map(|i| p.decide(i)).collect();
        let b: Vec<_> = (0..50).map(|i| p.decide(i)).collect();
        assert_eq!(a, b);
        // A different seed produces a different schedule.
        let c: Vec<_> = (0..50)
            .map(|i| FaultProfile::new(10).with_rates(0.3, 0.2, 0.1).decide(i))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn labels_list_every_status() {
        let statuses = [
            ExecutionStatus::Success,
            ExecutionStatus::OomKilled { progress: 0.5 },
            ExecutionStatus::Straggler { slowdown: 2.0 },
            ExecutionStatus::LostExecutor { restarts: 1 },
            ExecutionStatus::TimeoutKilled { t_max_s: 60.0 },
        ];
        let labels: Vec<&str> = statuses.iter().map(ExecutionStatus::label).collect();
        assert_eq!(labels, ExecutionStatus::LABELS);
    }

    #[test]
    fn scripted_faults_override_rates() {
        let p = FaultProfile::new(1)
            .fail_at(7, FaultKind::ExecutorOom)
            .straggle(12..15);
        assert_eq!(p.decide(7), Some(FaultKind::ExecutorOom));
        for i in 12..15 {
            assert_eq!(p.decide(i), Some(FaultKind::Straggler));
        }
        assert_eq!(p.decide(6), None);
    }

    #[test]
    fn oom_reports_partial_runtime_and_failure() {
        let (job, cfg) = job();
        let clean = job.run(&cfg, 7);
        let faulty = job
            .clone()
            .with_faults(FaultProfile::new(1).fail_at(7, FaultKind::ExecutorOom));
        let r = faulty.run(&cfg, 7);
        assert!(r.status.is_failure());
        assert!(r.runtime_s < clean.runtime_s, "partial runtime");
        assert!(r.runtime_s > 0.0);
        assert!(r.memory_gb_h < clean.memory_gb_h, "partial billing");
    }

    #[test]
    fn straggler_completes_slower_and_is_not_a_failure() {
        let (job, cfg) = job();
        let clean = job.run(&cfg, 3);
        let faulty = job
            .clone()
            .with_faults(FaultProfile::new(1).fail_at(3, FaultKind::Straggler));
        let r = faulty.run(&cfg, 3);
        assert!(!r.status.is_failure());
        assert!(r.runtime_s >= clean.runtime_s * 1.5);
    }

    #[test]
    fn timeout_clamps_runtime_to_budget() {
        let (job, cfg) = job();
        let clean = job.run(&cfg, 0);
        let t_max = clean.runtime_s * 0.5;
        let faulty = job
            .clone()
            .with_faults(FaultProfile::new(1).with_t_max(t_max));
        let r = faulty.run(&cfg, 0);
        assert_eq!(r.status, ExecutionStatus::TimeoutKilled { t_max_s: t_max });
        assert!(r.status.is_failure());
        assert_eq!(r.runtime_s, t_max);
    }

    #[test]
    fn clean_runs_are_untouched_by_an_attached_profile() {
        let (job, cfg) = job();
        let clean = job.run(&cfg, 4);
        // High t_max, no rates: nothing fires at run 4.
        let faulty = job
            .clone()
            .with_faults(FaultProfile::new(1).fail_at(9, FaultKind::ExecutorOom));
        let r = faulty.run(&cfg, 4);
        assert_eq!(r.status, ExecutionStatus::Success);
        assert_eq!(r.runtime_s, clean.runtime_s, "noise stream unperturbed");
    }

    #[test]
    fn stochastic_rates_hit_roughly_the_requested_frequency() {
        let p = FaultProfile::new(33).with_rates(0.2, 0.0, 0.0);
        let n = 1000;
        let fails = (0..n).filter(|&i| p.decide(i).is_some()).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn spec_parsing_reads_rates_and_rejects_bad_specs() {
        let parsed =
            FaultProfile::parse("oom:0.1, straggler:0.05,lost:0.02,tmax:120,seed:5").unwrap();
        assert_eq!(parsed.oom_rate, 0.1);
        assert_eq!(parsed.t_max_s, Some(120.0));
        assert_eq!(parsed.seed, 5);
        assert!(FaultProfile::parse("bogus:1").is_err());
        assert!(FaultProfile::parse("oom:2.0").is_err());
        assert!(FaultProfile::parse("oom").is_err());
    }
}
