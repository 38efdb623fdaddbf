//! Fault-injection scenarios against the full tuning stack: crashed,
//! killed, and straggling production runs must leave the tuner with a
//! censored-but-coherent runhistory, trigger the failure-streak fallback,
//! shrink the adaptive sub-space, and never panic or lose the incumbent.

use otune_core::{OnlineTuner, TunerOptions};
use otune_space::{spark_space, ClusterScale, Configuration};
use otune_sparksim::{
    hibench_task, ClusterSpec, ExecutionStatus, FaultKind, FaultProfile, HibenchTask, SimJob,
};
use otune_telemetry::{metric, Event, EventKind, MetricsSnapshot, ResizeDirection, Telemetry};

/// Builder DSL for one fault-injection campaign against the simulated
/// WordCount workload. Run indices are the simulator's: the baseline is
/// run 0 (always fault-free), tuning iteration `t` is run `t`.
struct Scenario {
    profile: FaultProfile,
    budget: usize,
    seed: u64,
}

/// Everything a scenario leaves behind, for invariant assertions.
struct Outcome {
    tuner: OnlineTuner,
    events: Vec<Event>,
    metrics: MetricsSnapshot,
    /// The suggestion trace, one configuration per iteration.
    trace: Vec<Configuration>,
    /// Execution status per iteration (parallel to `trace`).
    statuses: Vec<ExecutionStatus>,
    t_max: f64,
}

impl Scenario {
    fn new(seed: u64) -> Self {
        Scenario {
            profile: FaultProfile::new(seed),
            budget: 12,
            seed,
        }
    }

    /// Stochastic per-run fault rates.
    fn rates(mut self, oom: f64, straggler: f64, lost: f64) -> Self {
        self.profile = self.profile.with_rates(oom, straggler, lost);
        self
    }

    /// Script `kind` to fire at run `run`.
    fn fail_at(mut self, run: u64, kind: FaultKind) -> Self {
        self.profile = self.profile.fail_at(run, kind);
        self
    }

    /// Script straggler spikes for every run in `runs`.
    fn straggle(mut self, runs: std::ops::Range<u64>) -> Self {
        self.profile = self.profile.straggle(runs);
        self
    }

    fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Kill budget for the injected faults (defaults to the tuner's
    /// `T_max` when unset).
    fn kill_over(mut self, t_max_s: f64) -> Self {
        self.profile = self.profile.with_t_max(t_max_s);
        self
    }

    /// Drive the campaign: seed the fault-free baseline, then one
    /// suggest → run → observe/observe_failed cycle per iteration.
    fn run(self) -> Outcome {
        let (telemetry, sink) = Telemetry::ring(4096);
        let telemetry = telemetry.for_task("scenario");
        let space = spark_space(ClusterScale::hibench());
        let clean = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount))
            .with_seed(self.seed);
        let baseline = clean.run(&space.default_configuration(), 0);
        let t_max = 2.0 * baseline.runtime_s;
        let mut profile = self.profile;
        profile.t_max_s = profile.t_max_s.or(Some(t_max));
        let job = clean.with_faults(profile);

        let mut tuner = OnlineTuner::new(
            space.clone(),
            TunerOptions {
                budget: self.budget,
                t_max: Some(t_max),
                enable_meta: false,
                seed: self.seed,
                ..TunerOptions::default()
            },
        );
        tuner.set_telemetry(telemetry.clone());
        tuner.seed_observation(
            space.default_configuration(),
            baseline.runtime_s,
            baseline.resource,
            &[],
        );

        let mut trace = Vec::new();
        let mut statuses = Vec::new();
        for t in 1..=self.budget as u64 {
            let cfg = tuner.suggest(&[]).expect("alternating protocol");
            let r = job.run(&cfg, t);
            trace.push(cfg.clone());
            statuses.push(r.status);
            if r.status.is_failure() {
                tuner
                    .observe_failed(cfg, r.runtime_s, r.resource, &[])
                    .expect("pending");
            } else {
                tuner
                    .observe(cfg, r.runtime_s, r.resource, &[])
                    .expect("pending");
            }
        }
        let metrics = telemetry.snapshot().unwrap_or_default();
        Outcome {
            tuner,
            events: sink.events(),
            metrics,
            trace,
            statuses,
            t_max,
        }
    }
}

fn counter(outcome: &Outcome, name: &str) -> u64 {
    outcome.metrics.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn scripted_failure_burst_is_censored_and_triggers_fallback() {
    // Five consecutive OOM kills: past τ_consec = 3 (fallback) and past
    // the sub-space manager's τ_failure = 5 (shrink).
    let outcome = Scenario::new(11)
        .fail_at(4, FaultKind::ExecutorOom)
        .fail_at(5, FaultKind::ExecutorOom)
        .fail_at(6, FaultKind::ExecutorOom)
        .fail_at(7, FaultKind::ExecutorOom)
        .fail_at(8, FaultKind::ExecutorOom)
        .budget(12)
        .run();

    // Every failed run is in the history, censored: runtime clamped to
    // the failure penalty (≥ T_max) and infeasible regardless of it.
    let failed: Vec<_> = outcome
        .tuner
        .history()
        .iter()
        .filter(|o| o.failed)
        .collect();
    assert_eq!(failed.len(), 5, "all five injected failures recorded");
    for o in &failed {
        assert!(
            o.runtime >= outcome.t_max,
            "censored runtime {} < T_max {}",
            o.runtime,
            outcome.t_max
        );
        assert!(!o.is_feasible(Some(outcome.t_max), None));
    }
    assert_eq!(counter(&outcome, metric::RUN_FAILURES), 5);

    // τ_consec consecutive failures retreated to the last known-safe
    // configuration (the seeded default — the only feasible point then).
    assert!(
        counter(&outcome, metric::FALLBACKS_TRIGGERED) >= 1,
        "fallback fired"
    );
    let fallback_events: Vec<&Event> = outcome
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FallbackTriggered { .. }))
        .collect();
    assert!(!fallback_events.is_empty());
    match &fallback_events[0].kind {
        EventKind::FallbackTriggered { streak } => assert_eq!(*streak, 3),
        _ => unreachable!(),
    }

    // Each failure emitted a RunFailed event with the growing streak.
    let streaks: Vec<usize> = outcome
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::RunFailed { streak, .. } => Some(*streak),
            _ => None,
        })
        .collect();
    assert_eq!(streaks.len(), 5);
    assert_eq!(streaks[..3], [1, 2, 3], "streak grows until the fallback");

    // The consecutive infeasible runs shrank the adaptive sub-space.
    assert!(
        outcome.events.iter().any(|e| matches!(
            e.kind,
            EventKind::SubspaceResized {
                direction: ResizeDirection::Shrink,
                ..
            }
        )),
        "sub-space shrank under the failure burst"
    );

    // The incumbent survived: feasible, never a failed run.
    let best = outcome.tuner.best().expect("incumbent exists");
    assert!(!best.failed);
    assert!(best.is_feasible(Some(outcome.t_max), None));
}

#[test]
fn stragglers_slow_runs_down_but_are_not_failures() {
    // Stragglers without a kill budget: runs complete (slowly) and are
    // observed normally — the failure machinery must stay quiet.
    let outcome = Scenario::new(3).straggle(3..6).kill_over(f64::MAX).run();

    assert_eq!(counter(&outcome, metric::RUN_FAILURES), 0);
    assert_eq!(counter(&outcome, metric::FALLBACKS_TRIGGERED), 0);
    assert!(outcome.tuner.history().iter().all(|o| !o.failed));
    assert!(outcome
        .statuses
        .iter()
        .any(|s| matches!(s, ExecutionStatus::Straggler { .. })));
    // Every iteration was recorded (seed + budget).
    assert_eq!(outcome.tuner.history().len(), 1 + outcome.trace.len());
}

#[test]
fn lost_executors_restart_and_finish_without_failing() {
    let outcome = Scenario::new(9)
        .fail_at(2, FaultKind::LostExecutor)
        .fail_at(5, FaultKind::LostExecutor)
        .kill_over(f64::MAX)
        .budget(8)
        .run();
    assert_eq!(counter(&outcome, metric::RUN_FAILURES), 0);
    assert!(outcome
        .statuses
        .iter()
        .any(|s| matches!(s, ExecutionStatus::LostExecutor { restarts } if *restarts >= 1)));
    assert!(outcome.tuner.history().iter().all(|o| !o.failed));
}

#[test]
fn random_twenty_percent_failure_campaign_survives_thirty_iterations() {
    // The acceptance campaign: 30 iterations at a 20% failure rate, plus
    // a scripted three-burst that guarantees the fallback path runs.
    let outcome = Scenario::new(7)
        .rates(0.2, 0.05, 0.05)
        .fail_at(10, FaultKind::ExecutorOom)
        .fail_at(11, FaultKind::ExecutorOom)
        .fail_at(12, FaultKind::TimeoutKill)
        .budget(30)
        .run();

    // Completed without panic, every iteration recorded.
    assert_eq!(outcome.trace.len(), 30);
    assert_eq!(outcome.tuner.history().len(), 31);

    // Failures happened and were counted.
    let failures = counter(&outcome, metric::RUN_FAILURES);
    assert!(failures >= 3, "at least the scripted burst: {failures}");
    assert_eq!(
        failures as usize,
        outcome.tuner.history().iter().filter(|o| o.failed).count()
    );
    assert!(counter(&outcome, metric::FALLBACKS_TRIGGERED) >= 1);

    // The campaign still ends with a feasible incumbent.
    let best = outcome.tuner.best().expect("incumbent exists");
    assert!(!best.failed, "incumbent is never a failed run");
    assert!(best.is_feasible(Some(outcome.t_max), None));
    assert!(best.runtime <= outcome.t_max);
}

#[test]
fn identical_scenarios_produce_bitwise_identical_campaigns() {
    let build = || {
        Scenario::new(5)
            .rates(0.25, 0.1, 0.05)
            .fail_at(3, FaultKind::ExecutorOom)
            .budget(10)
    };
    let a = build().run();
    let b = build().run();
    assert_eq!(a.trace, b.trace, "suggestion traces diverged");
    assert_eq!(a.statuses, b.statuses, "fault schedules diverged");
    for (x, y) in a.tuner.history().iter().zip(b.tuner.history()) {
        assert_eq!(x.runtime.to_bits(), y.runtime.to_bits());
        assert_eq!(x.objective.to_bits(), y.objective.to_bits());
        assert_eq!(x.failed, y.failed);
    }
}
